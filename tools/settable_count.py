"""Count the settable values of evoq's public surface.

    python3 tools/settable_count.py [SRC]

SRC is the `src` directory of a checkout (default: this one's).  A settable
value is a parameter of a public function or a field of a public dataclass.
Each public module is counted over its `__all__`; a module without one
counts the public names it defines itself.  Private modules (`_blas`) are
skipped.  Prints one line per module, then the totals:

    parameters P
    fields F
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import os
import pkgutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _public_names(module) -> list:
    names = getattr(module, "__all__", None)
    if names is not None:
        return list(names)
    return [name for name, obj in vars(module).items()
            if not name.startswith("_")
            and getattr(obj, "__module__", None) == module.__name__]


def count(package) -> list:
    """(module name, parameters, fields) for each public module of `package`."""
    rows = []
    for info in pkgutil.iter_modules(package.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        params = fields = 0
        for name in _public_names(module):
            obj = getattr(module, name)
            if dataclasses.is_dataclass(obj):
                fields += len(dataclasses.fields(obj))
            elif inspect.isfunction(obj):
                params += len(inspect.signature(obj).parameters)
        rows.append((info.name, params, fields))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src", nargs="?", default=os.path.join(ROOT, "src"),
                   help="the src directory to count (default: this checkout's)")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(args.src, "evoq", "__init__.py")):
        print(f"no evoq package in {args.src}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.realpath(args.src))
    import evoq

    rows = count(evoq)
    for name, params, fields in rows:
        print(f"  {name:<12} {params:4d} {fields:4d}")
    print(f"parameters {sum(r[1] for r in rows)}")
    print(f"fields {sum(r[2] for r in rows)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
