#!/usr/bin/env python
"""Dump the public API surface of the ``repro`` package as stable text.

Walks every public module, resolves each ``__all__`` export and prints
one line per symbol — classes additionally list their constructor and
public methods with full signatures.  The output is deterministic (sorted, no
addresses, no versions), so a checked-in copy acts as an API-surface
lockfile:

    PYTHONPATH=src python tools/dump_api.py --out docs/api_surface.txt
    PYTHONPATH=src python tools/dump_api.py --check   # CI / tier-1 guard

``--check`` diffs the live surface against ``docs/api_surface.txt`` and
exits non-zero on any drift, so removing or reshaping a public symbol
is always a *reviewed* decision (regenerate the file in the same
commit), never an accident.
"""

from __future__ import annotations

import argparse
import difflib
import inspect
import re
import sys
from pathlib import Path
from typing import List

#: Public modules, in presentation order.  The root module's lazy
#: exports (PEP 562) resolve like any attribute, so they are covered.
PUBLIC_MODULES = [
    "repro",
    "repro.config",
    "repro.tuning",
    "repro.obs",
    "repro.formats",
    "repro.gpu",
    "repro.matrices",
    "repro.features",
    "repro.analysis",
    "repro.ml",
    "repro.ml.compiled",
    "repro.ml.serialize",
    "repro.core",
    "repro.bench",
    "repro.serve",
    "repro.cli",
]

_ADDR_RE = re.compile(r" at 0x[0-9a-fA-F]+")


def _signature(obj) -> str:
    try:
        sig = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"
    return _ADDR_RE.sub("", sig)


def _describe(name: str, obj, lines: List[str]) -> None:
    if inspect.isclass(obj):
        bases = [b.__name__ for b in obj.__bases__ if b is not object]
        suffix = f"({', '.join(bases)})" if bases else ""
        lines.append(f"  class {name}{suffix}")
        if inspect.isfunction(obj.__init__):  # Python-defined constructors
            lines.append(f"    {name}.__init__{_signature(obj.__init__)}")
        members = inspect.getmembers(obj)
        for mname, member in sorted(members):
            if mname.startswith("_"):
                continue
            if isinstance(inspect.getattr_static(obj, mname, None), property):
                lines.append(f"    {name}.{mname} [property]")
            elif callable(member):
                lines.append(f"    {name}.{mname}{_signature(member)}")
    elif inspect.isfunction(obj):
        lines.append(f"  def {name}{_signature(obj)}")
    elif isinstance(obj, dict):
        lines.append(f"  {name}: dict[{', '.join(sorted(map(str, obj)))}]")
    elif isinstance(obj, (str, int, float, tuple, frozenset)):
        lines.append(f"  {name} = {obj!r}")
    else:
        lines.append(f"  {name}: {type(obj).__name__}")


def dump_api() -> str:
    """The full public surface as one deterministic text blob."""
    import importlib

    lines: List[str] = [
        "# Public API surface of the repro package.",
        "# Regenerate with: PYTHONPATH=src python tools/dump_api.py "
        "--out docs/api_surface.txt",
    ]
    for modname in PUBLIC_MODULES:
        mod = importlib.import_module(modname)
        exports = sorted(getattr(mod, "__all__", []))
        lines.append("")
        lines.append(f"{modname}")
        for symbol in exports:
            if symbol == "__version__":
                continue  # the one export allowed to change every release
            _describe(symbol, getattr(mod, symbol), lines)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="write the surface to this file")
    parser.add_argument("--check", action="store_true",
                        help="diff against docs/api_surface.txt; exit 1 on drift")
    args = parser.parse_args(argv)

    surface = dump_api()
    if args.check:
        locked_path = Path(__file__).resolve().parent.parent / "docs" / "api_surface.txt"
        locked = locked_path.read_text() if locked_path.exists() else ""
        if surface != locked:
            diff = difflib.unified_diff(
                locked.splitlines(keepends=True),
                surface.splitlines(keepends=True),
                fromfile=str(locked_path),
                tofile="live API",
            )
            sys.stdout.writelines(diff)
            print("\nAPI surface drifted; regenerate docs/api_surface.txt "
                  "if the change is intended.", file=sys.stderr)
            return 1
        print("API surface matches docs/api_surface.txt")
        return 0
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(surface)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(surface)
    return 0


if __name__ == "__main__":
    sys.exit(main())
