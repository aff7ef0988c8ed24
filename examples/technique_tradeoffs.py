"""The pre-aggregation trade-off spectrum, measured, and the advisor.

Section 3.1 frames pre-aggregation as a spectrum of query/update cost
trade-offs per dimension.  This example measures all five techniques on
the same data and workload, shows why the paper pairs PS (time) with DDC
(other dimensions), lets the advisor pick assignments for different
workload mixes, and finishes by persisting a warehouse cube and restoring
it.

Run with:  python examples/technique_tradeoffs.py
"""

from __future__ import annotations

import io

import numpy as np

from repro import Box, CostCounter, EvolvingDataCube, PreAggregatedArray
from repro.preagg import recommend_techniques
from repro.storage import load_kernel, save_kernel
from repro.workloads import uni_queries

SHAPE = (64, 64)


def measure(techniques, raw, queries, updates):
    counter = CostCounter()
    array = PreAggregatedArray(SHAPE, list(techniques), values=raw, counter=counter)
    counter.reset()
    for box in queries:
        array.range_sum(box)
    query_cost = counter.cell_reads / len(queries)
    counter.reset()
    for point, delta in updates:
        array.update(point, delta)
    update_cost = counter.snapshot().cell_accesses / len(updates)
    return query_cost, update_cost


def main() -> None:
    rng = np.random.default_rng(3)
    raw = rng.integers(0, 20, size=SHAPE)
    queries = list(uni_queries(SHAPE, 300, seed=4))
    updates = [
        (
            (int(rng.integers(0, SHAPE[0])), int(rng.integers(0, SHAPE[1]))),
            int(rng.integers(-5, 9)),
        )
        for _ in range(300)
    ]

    print(f"mean cell accesses on a {SHAPE[0]}x{SHAPE[1]} array "
          f"(300 uni queries / 300 point updates):\n")
    print(f"{'techniques':12s} {'query':>8s} {'update':>8s}")
    for techniques in [
        ("A", "A"), ("PS", "PS"), ("RPS", "RPS"),
        ("LPS", "LPS"), ("DDC", "DDC"), ("PS", "DDC"),
    ]:
        q, u = measure(techniques, raw, queries, updates)
        label = "x".join(techniques)
        print(f"{label:12s} {q:8.1f} {u:8.1f}")

    print("\nthe advisor's picks by workload mix (TT-dimension pinned to PS):")
    for weight in (0.1, 0.5, 0.9):
        rec = recommend_techniques(SHAPE, query_weight=weight, tt_dimension=0)
        print(
            f"  query weight {weight:.1f}: {'x'.join(rec.techniques):10s} "
            f"(predicted query {rec.expected_query_cost:6.1f}, "
            f"update {rec.expected_update_cost:6.1f})"
        )

    # Persistence: a warehouse survives restarts with its conversion and
    # copy state intact.
    print("\npersisting and restoring an eCube warehouse ...")
    dense = rng.integers(0, 4, size=(24, 16, 16))
    cube = EvolvingDataCube.from_dense(dense)
    probe = Box((3, 2, 2), (20, 13, 13))
    before = cube.query(probe)
    archive = io.BytesIO()
    save_kernel(cube, archive)
    blob = archive.getvalue()
    restored = load_kernel(io.BytesIO(blob))
    assert restored.query(probe) == before
    print(
        f"  archive: {len(blob):,} bytes; query answers identical "
        f"({before}) after restore"
    )


if __name__ == "__main__":
    main()
