"""A reusable writer-vs-readers stress harness with an exact oracle.

One writer thread runs a deterministic script of logical writes
(append batches, same-time updates, out-of-order corrections, buffer
drains) through a :class:`~repro.concurrent.snapshot.SnapshotCube`,
snapshotting a dense *raw-delta* oracle array after every published
epoch.  Reader threads race it: each read pins an epoch, answers a
handful of random range queries, re-asks one of them for within-view
stability, and records ``(epoch sequence, boxes, answers)``.

Validation happens after the join, when the oracle is complete: every
recorded answer must equal the brute-force sum over the oracle state of
its pinned sequence -- i.e. reads are never torn, never observe
unpublished writer progress, and stay stable while the writer moves on.
Validating post-join (instead of inside the reader loop) avoids any
reader-side synchronization with the writer's oracle bookkeeping, so the
harness itself adds no ordering beyond what the snapshot front provides.

Used by ``tests/test_concurrent_snapshot.py``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import DomainError
from repro.core.types import Box
from repro.concurrent.snapshot import SnapshotCube
from repro.ecube.buffered import BufferedEvolvingDataCube
from repro.ecube.ecube import EvolvingDataCube


@dataclass
class StressResult:
    """Outcome of one :func:`run_stress` run."""

    buffered: bool
    writes: int
    reads: int
    validated_answers: int
    elapsed_s: float
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def reads_per_second(self) -> float:
        return self.reads / self.elapsed_s if self.elapsed_s > 0 else 0.0


def _write_script(rng, slice_shape, num_times: int, writes: int, buffered: bool):
    """A deterministic list of logical write operations.

    Times are drawn non-decreasing for appends (with same-time repeats)
    and strictly historic for corrections, so every op is valid whenever
    it runs.
    """
    ops = []
    latest = 0
    cells = [rng.integers(0, n, size=writes * 8) for n in slice_shape]
    cursor = 0

    def next_cell():
        nonlocal cursor
        cell = tuple(int(axis[cursor]) for axis in cells)
        cursor += 1
        return cell

    # the first op seeds a few instances so corrections have history
    seed_points = []
    for t in range(min(4, num_times)):
        seed_points.append((t,) + next_cell())
    latest = seed_points[-1][0]
    ops.append(
        (
            "update_many",
            np.asarray(seed_points, dtype=np.int64),
            rng.integers(1, 10, size=len(seed_points)).astype(np.int64),
        )
    )
    for _ in range(writes - 1):
        kind = rng.integers(0, 10)
        if kind < 4:
            # in-order batch at or after the latest time
            batch = int(rng.integers(1, 6))
            start = min(num_times - 1, latest + int(rng.integers(0, 2)))
            times = np.minimum(
                num_times - 1, start + np.sort(rng.integers(0, 3, size=batch))
            )
            points = np.column_stack(
                [times] + [rng.integers(0, n, size=batch) for n in slice_shape]
            ).astype(np.int64)
            latest = int(times.max())
            ops.append(
                (
                    "update_many",
                    points,
                    rng.integers(-5, 10, size=batch).astype(np.int64),
                )
            )
        elif kind < 6:
            # single same-time append
            point = (latest,) + next_cell()
            ops.append(("update", point, int(rng.integers(1, 8))))
        elif kind < 9:
            # historic correction (possibly at a never-occurring time)
            t = int(rng.integers(0, max(1, latest)))
            point = (t,) + next_cell()
            ops.append(("correct", point, int(rng.integers(-4, 8))))
        else:
            ops.append(("drain", None, None))
    return ops


def _brute(oracle: np.ndarray, box: Box) -> int:
    index = tuple(
        slice(low, up + 1) for low, up in zip(box.lower, box.upper)
    )
    return int(oracle[index].sum())


def _random_box(rng, slice_shape, num_times: int) -> Box:
    t0, t1 = np.sort(rng.integers(0, num_times, size=2))
    lower = [int(t0)]
    upper = [int(t1)]
    for n in slice_shape:
        a, b = np.sort(rng.integers(0, n, size=2))
        lower.append(int(a))
        upper.append(int(b))
    return Box(tuple(lower), tuple(upper))


def run_stress(
    buffered: bool = False,
    readers: int = 3,
    writes: int = 80,
    slice_shape=(8, 8),
    num_times: int = 32,
    seed: int = 0,
    queries_per_read: int = 3,
    writer_pause_s: float = 0.0005,
) -> StressResult:
    """Race ``readers`` snapshot readers against one scripted writer.

    Returns a :class:`StressResult`; ``result.ok`` is False iff any read
    disagreed with the oracle state of its pinned epoch (each mismatch
    is described in ``result.errors``).
    """
    rng = np.random.default_rng(seed)
    slice_shape = tuple(int(n) for n in slice_shape)
    build = BufferedEvolvingDataCube if buffered else EvolvingDataCube
    cube = SnapshotCube(build(slice_shape, num_times=num_times))
    script = _write_script(rng, slice_shape, num_times, writes, buffered)

    # sequence -> frozen oracle (raw per-time deltas); the initial epoch
    # is empty
    oracle_states: dict[int, np.ndarray] = {}
    oracle = np.zeros((num_times,) + slice_shape, dtype=np.int64)
    last_recorded = 0

    def record_epochs() -> None:
        nonlocal last_recorded
        current = cube.current_sequence()
        if current > last_recorded:
            frozen = oracle.copy()
            for seq in range(last_recorded + 1, current + 1):
                # the front publishes one epoch per write, answering with
                # the post-write data state
                oracle_states[seq] = frozen
            last_recorded = current

    record_epochs()
    writer_done = threading.Event()
    writer_error: list[BaseException] = []
    barrier = threading.Barrier(readers + 1)

    def writer() -> None:
        try:
            barrier.wait()
            for kind, arg, delta in script:
                if kind == "update_many":
                    cube.update_many(arg, delta)
                    np.add.at(oracle, tuple(arg.T), delta)
                elif kind == "update":
                    cube.update(arg, delta)
                    oracle[arg] += delta
                elif kind == "correct":
                    if buffered:
                        # historic -> lands in G_d via the buffered front
                        cube.update(arg, delta)
                    else:
                        cube.apply_out_of_order(arg, delta)
                    oracle[arg] += delta
                elif kind == "drain":
                    if buffered:
                        cube.drain()
                    # answers unchanged either way
                else:  # pragma: no cover - script is internal
                    raise DomainError(f"unknown stress op {kind!r}")
                record_epochs()
                if writer_pause_s:
                    time.sleep(writer_pause_s)
        except BaseException as exc:  # noqa: BLE001 - reported after join
            writer_error.append(exc)
        finally:
            writer_done.set()

    records: list[list[tuple[int, list[Box], list[int]]]] = [
        [] for _ in range(readers)
    ]
    reader_errors: list[str] = []
    errors_lock = threading.Lock()

    def reader(slot: int) -> None:
        local_rng = np.random.default_rng(seed + 1000 + slot)
        local_records = records[slot]
        barrier.wait()
        held = None  # occasionally keep a view pinned across writes
        try:
            while True:
                done = writer_done.is_set()
                view = cube.pin()
                boxes = [
                    _random_box(local_rng, slice_shape, num_times)
                    for _ in range(queries_per_read)
                ]
                answers = view.query_many(boxes)
                # within-view stability: the same box answers the same
                # while the writer keeps publishing
                again = view.query(boxes[0])
                if again != answers[0]:
                    with errors_lock:
                        reader_errors.append(
                            f"reader {slot}: unstable view seq="
                            f"{view.sequence} {boxes[0]}: "
                            f"{answers[0]} then {again}"
                        )
                local_records.append((view.sequence, boxes, answers))
                if held is None and local_rng.integers(0, 8) == 0:
                    # keep this view pinned across future writes
                    held = (view, boxes[0], answers[0])
                else:
                    view.release()
                if (
                    held is not None
                    and held[0] is not view
                    and local_rng.integers(0, 4) == 0
                ):
                    hview, hbox, hanswer = held
                    later = hview.query(hbox)
                    if later != hanswer:
                        with errors_lock:
                            reader_errors.append(
                                f"reader {slot}: pinned epoch seq="
                                f"{hview.sequence} drifted on {hbox}: "
                                f"{hanswer} then {later}"
                            )
                    hview.release()
                    held = None
                if done:
                    break
        except BaseException as exc:  # noqa: BLE001 - reported after join
            with errors_lock:
                reader_errors.append(f"reader {slot}: {exc!r}")
        finally:
            if held is not None:
                held[0].release()

    threads = [
        threading.Thread(target=reader, args=(slot,), name=f"stress-reader-{slot}")
        for slot in range(readers)
    ]
    writer_thread = threading.Thread(target=writer, name="stress-writer")
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    writer_thread.start()
    writer_thread.join()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    cube.close()

    errors = list(reader_errors)
    if writer_error:
        errors.append(f"writer: {writer_error[0]!r}")

    # post-join oracle validation: every recorded answer must match the
    # brute-force sum over the oracle state of its pinned sequence
    validated = 0
    reads = 0
    for slot, local_records in enumerate(records):
        reads += len(local_records)
        for sequence, boxes, answers in local_records:
            state = oracle_states.get(sequence)
            if state is None:
                errors.append(
                    f"reader {slot}: pinned unknown epoch sequence {sequence}"
                )
                continue
            for box, answer in zip(boxes, answers):
                expected = _brute(state, box)
                validated += 1
                if answer != expected:
                    errors.append(
                        f"reader {slot}: seq={sequence} {box}: "
                        f"got {answer}, oracle {expected}"
                    )
    return StressResult(
        buffered=buffered,
        writes=len(script),
        reads=reads,
        validated_answers=validated,
        elapsed_s=elapsed,
        errors=errors[:20],
    )
