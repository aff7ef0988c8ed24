"""The Evolving Data Cube (eCube) -- Section 3 of the paper.

The MOLAP instantiation of the append-only framework:

* :class:`repro.ecube.slices.ECubeSliceEngine` -- the lazy DDC-to-PS
  conversion algebra for historic slices (Section 3.2);
* :class:`repro.ecube.cache.SliceCache` -- the cache array with per-cell
  timestamps, lazy copying and copy-ahead (Section 3.3);
* :class:`repro.ecube.kernel.CubeKernel` -- the storage-agnostic cube
  algorithm (update/query, Figures 8 and 9; out-of-order corrections,
  aging, batch engine), written once over the
  :class:`repro.ecube.stores.SliceStore` protocol;
* :class:`EvolvingDataCube` -- the kernel over dense in-memory slices
  (Section 3.4), the one every layer above the kernel is built on;
* :class:`DiskEvolvingDataCube` -- the kernel over paged external-memory
  slices with page-wise copying (Section 3.5), a bare cost model;
* :class:`SparseEvolvingDataCube` -- the kernel over dict-of-touched-cells
  slices (Section 7 follow-up), a bare cost model;
* :class:`ExtentCube` -- objects with TT-extent as two buffered
  point-object families (B/C, Section 2.4), each over its own time
  directory, with intersection and containment aggregates.
"""

from repro._exports import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.ecube.buffered": "BufferedEvolvingDataCube",
        "repro.ecube.disk": "DiskEvolvingDataCube PagedStore",
        "repro.ecube.ecube": "EvolvingDataCube",
        "repro.ecube.extent": "ExtentCube",
        "repro.ecube.kernel": "CubeKernel",
        "repro.ecube.slices": "ECubeSliceEngine",
        "repro.ecube.sparse": "SparseEvolvingDataCube SparseStore",
        "repro.ecube.stores": "DenseStore SliceStore",
    },
)
