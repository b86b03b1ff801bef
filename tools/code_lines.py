"""Count the code lines of each evoq module.

    python3 tools/code_lines.py [SRC]

SRC is the `src` directory of a checkout (default: this one's).  A code line
holds a token of code: blank lines, comments and the docstrings of modules,
classes and functions do not count; a string that is not a docstring counts
every line it spans.  Prints one line per module of the package, then the
total:

    lines L
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.Module) -> set:
    """(line, column) of the first character of each docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a token of code."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count(package_dir: str) -> list:
    """(module name, code lines) for each module of the package in
    `package_dir`, by name."""
    rows = []
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), encoding="utf-8") as fh:
                rows.append((name[:-3], code_lines(fh.read())))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src", nargs="?", default=os.path.join(ROOT, "src"),
                   help="the src directory to count (default: this checkout's)")
    args = p.parse_args(argv)
    package_dir = os.path.join(args.src, "evoq")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        print(f"no evoq package in {args.src}", file=sys.stderr)
        return 2
    rows = count(package_dir)
    for name, lines in rows:
        print(f"  {name:<12} {lines:4d}")
    print(f"lines {sum(lines for _, lines in rows)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
