"""Code lines of the package: ``make loc``.

A code line is any line that is neither blank nor a comment alone.
Prints that count for ``src/repro``, for the serving path (``src/repro``
minus the modules of the paper reproduction, the
``tests/test_import_fence.py`` ``REPRODUCTION`` list), for
``src/repro/sharding`` and for ``src/repro/durability``, each beside the
same count without docstring lines (the lines of a string that opens a
module, class or function body).  ROADMAP tracks the serving-path
numbers; nothing enforces a threshold.
"""

from __future__ import annotations

import ast
import pathlib
import re

from tests.test_import_fence import reproduction_modules

ROOT = pathlib.Path("src/repro")
_NOT_CODE = re.compile(r"\s*(#|$)")
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """1-based numbers of the lines docstrings occupy in ``source``."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(paths) -> tuple[int, int]:
    """``(code lines, code lines outside docstrings)`` of ``paths``."""
    total = bare = 0
    for path in paths:
        source = path.read_text()
        docs = docstring_lines(source)
        for number, line in enumerate(source.splitlines(), 1):
            if not _NOT_CODE.match(line):
                total += 1
                bare += number not in docs
    return total, bare


def _module(path: pathlib.Path) -> str:
    return ".".join(path.with_suffix("").parts[1:]).removesuffix(".__init__")


def main() -> None:
    files = sorted(ROOT.rglob("*.py"))
    groups = {
        "src/repro": files,
        "serving-path": [p for p in files if not reproduction_modules([_module(p)])],
        "src/repro/sharding": [p for p in files if p.is_relative_to(ROOT / "sharding")],
        "src/repro/durability": [
            p for p in files if p.is_relative_to(ROOT / "durability")
        ],
    }
    for name, paths in groups.items():
        total, bare = count(paths)
        print(f"{name} code lines: {total} ({bare} without docstrings)")


if __name__ == "__main__":
    main()
