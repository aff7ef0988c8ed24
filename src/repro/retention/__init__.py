"""Tiered retention: rollup tiers + compressed historic tiles.

Demotes aged history instead of deleting it -- see
:class:`~repro.retention.planner.TieredCube` (the cross-tier front),
:class:`~repro.retention.tiers.TierPolicy` (the granularity/horizon
ladder) and :class:`~repro.retention.tiles.TileStore` (full-fidelity
immutable tiles on disk).
"""

from repro._exports import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "repro.retention.estimate": "Estimate bracket_prefix estimate_prefix",
        "repro.retention.planner": "TieredCube ps_box_sum",
        "repro.retention.tiers": "RollupTier TierPolicy TierSpec",
        "repro.retention.tiles": "TileStore decode_tile encode_tile tile_name",
    },
)
