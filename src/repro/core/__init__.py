"""Core of the reproduction: the general append-only framework (Section 2).

Public surface:

* :class:`repro.core.framework.AppendOnlyAggregator` -- the generic
  construction reducing d-dimensional range aggregates to two
  (d-1)-dimensional prefix-time queries;
* :class:`repro.core.directory.TimeDirectory` -- occurring-time directory;
* :mod:`repro.core.operators` -- invertible aggregate operators;
* :mod:`repro.core.out_of_order` -- the ``G_d`` buffer of Section 2.5;
* :mod:`repro.core.extent` -- interval data via the B/C reduction (2.4).
"""

from repro._exports import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.core.errors": (
            "AgedOutError AppendOrderError DomainError EmptyStructureError "
            "OperatorError RecoveryError ReproError ShardUnavailableError "
            "StorageError"
        ),
        "repro.core.framework": (
            "AppendOnlyAggregator CopySnapshotStructure MVBTSliceStructure "
            "TreeSliceStructure"
        ),
        "repro.core.operators": (
            "AVERAGE COUNT Operator SUM SumCount get_operator register_operator"
        ),
        "repro.core.types": "Box TimeInterval as_point full_box",
    },
)
