"""Hypothesis stateful test: the buffered (G_d) cube against a dense model.

A rule-based machine interleaves in-order and out-of-order updates,
single queries, batched fast queries and bounded drains on a
:class:`~repro.ecube.buffered.BufferedEvolvingDataCube`, checking every
answer -- metered and fast -- against a dense numpy oracle after every
step.  This pins the drain's convergence (buffered mass only moves into
the cube, never disappears) and the fast/metered equivalence of the
batched ``G_d`` post-processing on arbitrary interleavings.

The metered reads are rules, so the first one lands at a random step:
until it does -- and again after every drain -- ``G_d`` must have built
no reference R-tree (the invariant below), and when it does land it must
agree with the fast answer and the oracle on every box.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.types import Box
from repro.ecube.buffered import BufferedEvolvingDataCube

TIME_DOMAIN = 24
CELL_DOMAIN = 8


class BufferedCubeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cube = BufferedEvolvingDataCube(
            (CELL_DOMAIN,), num_times=TIME_DOMAIN
        )
        self.dense = np.zeros((TIME_DOMAIN, CELL_DOMAIN), dtype=np.int64)
        #: has a metered read reached a non-empty ``G_d`` since the last drain?
        self.reference_built = False

    def _metered_read(self):
        self.reference_built |= self.cube.buffered_updates > 0

    def _draw_box(self, data):
        t_low = data.draw(st.integers(0, TIME_DOMAIN - 1))
        t_up = data.draw(st.integers(t_low, TIME_DOMAIN - 1))
        x_low = data.draw(st.integers(0, CELL_DOMAIN - 1))
        x_up = data.draw(st.integers(x_low, CELL_DOMAIN - 1))
        return Box((t_low, x_low), (t_up, x_up))

    def _expected(self, box):
        return int(
            self.dense[
                box.lower[0] : box.upper[0] + 1,
                box.lower[1] : box.upper[1] + 1,
            ].sum()
        )

    @rule(
        t=st.integers(0, TIME_DOMAIN - 1),
        x=st.integers(0, CELL_DOMAIN - 1),
        delta=st.integers(-4, 8),
    )
    def update(self, t, x, delta):
        self.cube.update((t, x), delta)
        self.dense[t, x] += delta

    @rule(data=st.data())
    def update_many_fast(self, data):
        count = data.draw(st.integers(1, 8))
        points = np.column_stack(
            (
                np.asarray(
                    data.draw(
                        st.lists(
                            st.integers(0, TIME_DOMAIN - 1),
                            min_size=count,
                            max_size=count,
                        )
                    )
                ),
                np.asarray(
                    data.draw(
                        st.lists(
                            st.integers(0, CELL_DOMAIN - 1),
                            min_size=count,
                            max_size=count,
                        )
                    )
                ),
            )
        )
        deltas = np.asarray(
            data.draw(
                st.lists(st.integers(-4, 8), min_size=count, max_size=count)
            )
        )
        self.cube.update_many(points, deltas, mode="fast")
        np.add.at(self.dense, (points[:, 0], points[:, 1]), deltas)

    @precondition(lambda self: self.cube.buffered_updates > 0)
    @rule(limit=st.one_of(st.none(), st.integers(1, 4)))
    def drain(self, limit):
        before = self.cube.buffered_updates
        applied, kept = self.cube.drain(limit)
        # convergence: every drained correction lands (no data aging here)
        assert kept == 0
        assert self.cube.buffered_updates == before - applied
        self.reference_built = False

    @rule(data=st.data())
    def query(self, data):
        box = self._draw_box(data)
        self._metered_read()
        assert self.cube.query(box) == self._expected(box)

    @rule(data=st.data())
    def query_many_fast_equals_metered(self, data):
        boxes = [
            self._draw_box(data) for _ in range(data.draw(st.integers(1, 5)))
        ]
        fast = self.cube.query_many(boxes, mode="fast")
        self._metered_read()
        assert fast == self.cube.query_many(boxes, mode="metered")
        assert fast == [self._expected(box) for box in boxes]

    @invariant()
    def total_matches(self):
        everything = Box((0, 0), (TIME_DOMAIN - 1, CELL_DOMAIN - 1))
        assert self.cube.query_many([everything]) == [int(self.dense.sum())]

    @invariant()
    def reference_exists_only_after_a_metered_read(self):
        assert (self.cube.buffer._tree is not None) == self.reference_built


TestBufferedCubeMachine = BufferedCubeMachine.TestCase
TestBufferedCubeMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
