"""Package export tables: a public name is written once, loaded on first use.

A package ``__init__`` states which module defines each name it exports
and asks :func:`exports` for the PEP 562 hooks that serve the table::

    __getattr__, __dir__, __all__ = exports(__name__, {
        "repro.trees.rtree": "RTree",
        "repro.trees.bptree": "BPlusTree",
    })

Importing the package then imports none of the modules it names, which
is what keeps the served process (``python -m repro serve``, the shard
workers) from loading the paper-reproduction half of the library.
"""

from __future__ import annotations

import sys
from importlib import import_module


def exports(package: str, table: dict[str, str]):
    """``(__getattr__, __dir__, __all__)`` for ``package``, where ``table``
    maps a defining module to the space-separated names it exports."""
    origin = {name: module for module, names in table.items() for name in names.split()}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # cached in the package's globals: the next access is a dict hit
        value = namespace[name] = getattr(import_module(origin[name]), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin)

    return __getattr__, __dir__, list(origin)
