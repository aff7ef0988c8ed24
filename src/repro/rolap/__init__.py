"""A ROLAP instantiation of the framework.

Section 2 stresses that the framework "does not assume any particular
storage structure for the underlying data, e.g., MOLAP or ROLAP data".
This package provides the relational side:

* :class:`FactTable` -- an append-only columnar fact table (numpy columns)
  with vectorized range-aggregate scans and optional sorted column
  indexes;
* :class:`ROLAPSliceStructure` -- the Table 1 slice protocol over a fact
  table.  Because rows arrive in TT-order, the cumulative instance
  ``R_{d-1}(t)`` is simply the *prefix of rows* ingested up to ``t`` -- a
  snapshot is a row-count watermark, giving the constant-time copy the
  framework assumes for free.

The trade-off against the MOLAP instantiation is the paper's sparse-vs-
dense discussion: ROLAP storage is linear in the number of facts
regardless of domain sizes, but queries scan (a portion of) the fact
table instead of touching a handful of pre-aggregated cells.
"""

from repro._exports import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.rolap.facttable": "FactTable",
        "repro.rolap.slices": "ROLAPSliceStructure",
    },
)
