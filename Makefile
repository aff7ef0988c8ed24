# Developer entry points.  Everything runs against the in-repo sources
# (PYTHONPATH=src); no install step is needed.

PY ?= python

.PHONY: test coverage bench e2e-smoke pss fence lint loc probes

test:
	PYTHONPATH=src $(PY) -m pytest -x -q

# Line-coverage run without tox: needs pytest-cov (pip install pytest-cov).
# CI enforces a 90% floor on src/repro/ranking/ and
# src/repro/retention/estimate.py from the JSON report this produces.
coverage:
	@$(PY) -c "import pytest_cov" 2>/dev/null || { \
		echo "pytest-cov is not installed; run: pip install pytest-cov"; \
		exit 1; }
	PYTHONPATH=src $(PY) -m pytest -q \
		--cov=repro \
		--cov-report=term-missing \
		--cov-report=json:coverage.json

bench:
	PYTHONPATH=src $(PY) -m pytest benchmarks -q

# The serving benchmark (BENCHMARK.json) at smoke scale, untraced and
# traced: fails when a rename breaks a name benchmarks/e2e pins.
e2e-smoke:
	timeout 300 env PYTHONPATH=src $(PY) -m pytest benchmarks/e2e -q

# Where the served cube's memory is: PSS per mapping class, idle, loaded,
# and after `serve` is restarted on the same directory and recovers it,
# for an untiered `serve` and a tiered one (both one process); CI runs
# the default 128 slices.  Fails when, for either cube, the loaded or the
# recovered server holds its history a second time on the heap.
pss:
	PYTHONPATH=src $(PY) benchmarks/pss_breakdown.py --slices $(or $(SLICES),128)

# What every server process pays before it can answer: the repro.*
# modules `import repro.sharding` loads in a fresh interpreter and the PSS
# it adds -- those two are the check -- plus its wall time as a median and
# IQR over nine interpreters, which is informational only (it swings more
# than a module costs).  Fails when one of the modules is a module of the
# paper reproduction (the list is tests/test_import_fence.py's).
fence:
	PYTHONPATH=src:. $(PY) benchmarks/import_fence.py

lint:
	ruff check src tests benchmarks

# Code lines (not blank, not a comment-only line) of src/repro, of the
# serving path (src/repro minus the modules of the paper reproduction,
# tests/test_import_fence.py's REPRODUCTION list), of src/repro/sharding
# and of src/repro/durability, each also without docstring lines.
# ROADMAP tracks the serving-path numbers; nothing enforces a threshold.
loc:
	@PYTHONPATH=. $(PY) benchmarks/loc.py

# A front is a declared stack (repro.core.front): nothing finds a layer
# by probing, there is one kernel implementation, one tile codec, one shm
# mapping path, one representation of G_d, one WAL layout written (the
# bit-width columns of format 3: no byte-width writer), one
# store above the kernel (paged and sparse keep no serving hook), `serve`
# serves, the router routes corner arrays (no Box on its read path;
# `local_box`, the per-box reference clip, is exempt), no read of the
# retention or sharding layers walks a batch as Box objects (no as_boxes
# there: tiered reads are one array pass), and the sharded front runs one
# mode, fast: no "metered" in its router, worker or wire ops; every
# shm row block is made by the one helper, EpochExporter._row (the
# store's row allocator while attached); and served history has one
# representation, published rows nobody writes: no seqlock (mut_version),
# no slice freeze (freeze_slice, _slice_arrays) anywhere, and no mixed
# slice a snapshot epoch reads (MIXED in concurrent/snapshot.py); the
# server runs on threads and loads nothing that initialises OpenSSL: no
# asyncio, no secrets, no thread-pool executor in sharding/ or __main__.py;
# no np.unique outside the reproduction's experiments/ and workloads/
# (its hash path imports numpy.ma; repro.ecube.compiled.sorted_unique does not);
# no TopKEngine in sharding/: a shard ranks a top-k from two prefix slices;
# one top-k algorithm: no threshold engine (marginals, pairwise marginals,
# pruned queries, gather chunks) anywhere in src/repro, and no
# np.partition outside ranking/, so that there is one ranker;
# the two families of an extent cube keep their own time axes: no
# shared axis, no kernel catch-up hook, no suspended alignment; and a G_d
# correction lands by one rule, the buffered front's landing step: no
# shard subclass of it (ShardBufferedCube), no private drain or fold
# (_apply_drained, _fold_retired), no global_order_buffer but the
# manifest's constant in durability/recovery.py, and no call that drops
# G_d entries (.prune_below) outside ecube/buffered.py, which folds first;
# and an offset row is rebuilt in one place: no module but its home
# (ecube/stores.py, concurrent/snapshot.py) and sharding/shm.py reads an
# anchor's array or an offset array -- every other reader calls
# stores.row_values (or row_difference); and an epoch is published at
# one point, by the snapshot front (and the shard worker writing past
# it): no publish barrier, no sink the kernel notifies, no
# external-mutation notice and no external version anywhere in src/;
# and an op is named once, by its ops.OPS row: a shard answers the
# methods the rows name (plus checkpoint), so no retired pipe name
# (ingest, oob, approx) is a string in sharding/router.py, worker.py or
# cube.py, and no op table on the shard (ShardWorkerState.ops, state.ops)
# is anywhere in src/.
# Every grep below must print nothing.  (The bracketed letter keeps this
# file from matching the pattern that scans it.)
probes:
	@! grep -rnE 'getattr\([^)]*"(front|cube|buffer|slice_shape)"|hasattr\([^)]*"(apply_out_of_order|buffer_state_arrays|retention_state_arrays)"' src/repro
	@! grep -rn '\.front\.front' src/repro
	@! grep -n '__getattr__' src/repro/retention/planner.py
	@! grep -rnE 'numb[a]|NUMB[A]' src/repro benchmarks/*.py .github Makefile
	@! grep -n 'stress' src/repro/__main__.py
	@! grep -n 'isinstance(front, ExtentCube)' src/repro/durability/checkpoint.py
	@! grep -n '"ret_meta" in archive' src/repro/durability/recovery.py
	@! grep -rniE 'zstd|zstandard' src/repro
	@! grep -nE '_stdlib|import shared_memory|SharedMemory' src/repro/sharding/shm.py
	@! grep -n '^from repro.trees' src/repro/core/out_of_order.py
	@! grep -nE "WAL_FORMAT_VERSION = [12]([^0-9]|$$)|_SPAN_WIDT[H]" src/repro/durability/wal.py
	@! grep -rnE 'build_kerne[l]|adopts_row[s]|"--backen[d]"' src/repro
	@! grep -nE 'snapshot_slic[e]' src/repro/ecube/disk.py src/repro/ecube/sparse.py
	@! grep -rnE 'mut_versio[n]|freeze_slic[e]|_slice_array[s]' src/repro
	@! grep -n 'MIXE[D]' src/repro/concurrent/snapshot.py
	@! grep -nE 'as_boxes|Box\(' src/repro/sharding/router.py
	@! grep -rn 'as_boxes' src/repro/retention src/repro/sharding
	@! awk '/def local_boxes\(/ {on = 1; next} on && /^    (def |# )/ {on = 0} on' \
		src/repro/sharding/partition.py | grep -nE 'as_boxes|Box\('
	@! grep -n 'metere[d]' src/repro/sharding/router.py src/repro/sharding/worker.py \
		src/repro/sharding/ops.py
	@! grep -rn 'create({"p[s]"' src/repro --exclude=shm.py
	@! awk '/    def _row\(/ {on = 1; next} on && /^    (def |# )/ {on = 0} !on' \
		src/repro/sharding/shm.py | grep -n 'create({"p[s]"'
	@! grep -rnE 'import (asyncio|secrets)|from (asyncio|secrets) import|ThreadPoolExecutor' \
		src/repro/sharding src/repro/__main__.py
	@! grep -rn 'np\.uniqu[e](' src/repro --exclude-dir=experiments --exclude-dir=workloads
	@! grep -rn 'TopKEngin[e]' src/repro/sharding
	@! grep -rnE '_pair_margina[l]|_marginal[s]\(|GATHER_CHUN[K]|_pruned_quer[y]' src/repro
	@! grep -rn 'np\.partitio[n]' src/repro --exclude-dir=ranking
	@! grep -rnE 'SharedTimeAxis|FamilyDirectory|_family_catch|suspend_alignment' src/repro
	@! grep -rnE 'ShardBufferedCub[e]|_fold_retire[d]|_apply_draine[d]' src
	@! grep -rn 'global_order_buffe[r]' src | grep -v \
		'^src/repro/durability/recovery\.py:[0-9]*: *config\["global_order_buffer"\] = False$$'
	@! grep -rn '\.prune_belo[w](' src | grep -v '^src/repro/ecube/buffered\.py:'
	@! grep -rnE '\.(ancho[r]|offse[t])\b' src/repro --include=*.py \
		--exclude=stores.py --exclude=snapshot.py --exclude=shm.py
	@! grep -rnE 'publish_barrie[r]|_notify_sin[k]|note_external_mutatio[n]|external_versio[n]' src
	@! grep -nE '"(ingest|oob|approx)"' src/repro/sharding/router.py \
		src/repro/sharding/worker.py src/repro/sharding/cube.py
	@! grep -rnE '(ShardWorkerState|state)\.ops\b' src
	@echo "probes: none"
