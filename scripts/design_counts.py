#!/usr/bin/env python3
"""Size counts of a package: lines per module, functions and settable options.

Usage, from anywhere:

    python3 scripts/design_counts.py [PACKAGE_DIR]

``PACKAGE_DIR`` defaults to ``src/jamlab`` of this checkout.  For each
``*.py`` file directly in it, the script prints its lines (as ``wc -l``
counts them), its functions and its options, then the totals.  A function
is every ``def`` or ``async def``, methods and nested functions included; a
lambda is none.  An option is a parameter with a default value, positional
or keyword-only, over every function.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jamlab"


def module_counts(source: str) -> tuple[int, int, int]:
    """(lines, functions, options) of one module's source text."""
    functions = options = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions += 1
            options += len(node.args.defaults) + sum(
                d is not None for d in node.args.kw_defaults)
    return source.count("\n"), functions, options


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=DEFAULT_PACKAGE)
    args = parser.parse_args(argv)
    rows = [(path.name, *module_counts(path.read_text()))
            for path in sorted(args.package.glob("*.py"))]
    rows.append(("total", *(sum(r[i] for r in rows) for i in (1, 2, 3))))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'functions':>9}  {'options':>7}")
    for name, lines, functions, options in rows:
        print(f"{name:<{width}}  {lines:>6}  {functions:>9}  {options:>7}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
