"""OLAP conveniences over the append-only cubes.

Section 1 of the paper motivates the framework with warehouse analysis:
"roll-up and drill-down queries that aggregate on different levels of
granularity are often collections of related range queries", and Section 6
relates the technique to Gray et al.'s data cube operator.  This package
provides that query layer:

* :class:`Hierarchy` / :class:`Dimension` -- named granularity levels
  (e.g. day -> month -> year) as contiguous bucket ranges;
* :class:`CubeView` -- roll-up, drill-down and slice queries over any
  backend exposing ``query(Box)`` (the eCube, the disk cube, or the
  general framework);
* :func:`group_by` / :class:`CubeView.data_cube` -- the 2^d group-bys of
  the data cube operator, each computed as a collection of range
  aggregates.
"""

from repro._exports import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.olap.hierarchy": "Dimension Hierarchy uniform_hierarchy",
        "repro.olap.materialized": "MaterializedRollups",
        "repro.olap.view": "CubeView GroupByResult",
    },
)
