"""Simulated external memory (Sections 3.5 and 5).

The paper's disk experiments count *page accesses* against 8 KiB pages
holding 4-byte measure values (2048 cells per page) and allow the disk-based
copy mechanism at most one page access per update.  This package provides
the page arithmetic and counted page-access tracking those experiments need;
no real I/O is performed -- the cost model is the page counter.
"""

from repro._exports import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.storage.buffer": "LRUBufferPool",
        "repro.storage.layout": "cells_per_page pages_for_cells rtree_leaf_capacity",
        "repro.storage.paged_cube": "PagedPreAggregatedArray",
        "repro.storage.pages": "PageAccessTracker PagedArray",
        "repro.storage.serialize": "load_kernel save_kernel",
    },
)
