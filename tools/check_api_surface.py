#!/usr/bin/env python3
"""Public-API surface check (CI, next to the doc-link check).

Asserts that ``repro.api.__all__`` matches the committed snapshot in
``docs/api_surface.txt`` (one name per line, sorted), and that every
advertised name actually resolves on the package.  Growing or shrinking
the stable surface is a reviewed, deliberate act: change the snapshot
in the same commit as the code (see docs/API.md, "Deprecation policy").

Also asserts that every ``Name(field, ...)`` row of docs/API.md's
protocol type table lists exactly the wire fields the message class
declares, in declaration order -- the table is written by hand and the
classes are the source of truth.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SNAPSHOT = ROOT / "docs" / "api_surface.txt"
API_DOC = ROOT / "docs" / "API.md"

#: a type-table row that spells out a constructor: | `Name(a, b)` | ...
_ROW = re.compile(r"^\| `(\w+)\(([^)`]*)\)` \|", re.MULTILINE)


def check_type_table(api) -> list:
    """Mismatches between API.md's type table and the declared fields."""
    errors = []
    rows = _ROW.findall(API_DOC.read_text())
    if not rows:
        errors.append(f"{API_DOC.name}: found no `Name(field, ...)` table rows")
    for name, listed in rows:
        cls = getattr(api, name, None)
        if cls is None or not dataclasses.is_dataclass(cls):
            errors.append(f"{API_DOC.name}: table row {name!r} is not a "
                          "repro.api message class")
            continue
        declared = [
            f.name for f in dataclasses.fields(cls)
            if "codec" in f.metadata and f.name != "version"
        ]
        documented = [part.strip() for part in listed.split(",") if part.strip()]
        if documented != declared:
            errors.append(
                f"{API_DOC.name}: `{name}({', '.join(documented)})` but the "
                f"class declares ({', '.join(declared)})"
            )
    return errors


def main() -> int:
    import repro.api as api

    expected = [line.strip() for line in SNAPSHOT.read_text().splitlines()
                if line.strip() and not line.startswith("#")]
    actual = sorted(api.__all__)
    errors = []
    if expected != sorted(expected):
        errors.append(f"{SNAPSHOT.name} is not sorted; keep it sorted")
    missing = sorted(set(expected) - set(actual))
    extra = sorted(set(actual) - set(expected))
    if missing:
        errors.append(
            "snapshot names absent from repro.api.__all__: " + ", ".join(missing)
        )
    if extra:
        errors.append(
            "repro.api.__all__ names absent from the snapshot: " + ", ".join(extra)
            + f"  (update {SNAPSHOT.relative_to(ROOT)} deliberately)"
        )
    for name in actual:
        if not hasattr(api, name):
            errors.append(f"repro.api.__all__ advertises {name!r} but it "
                          "does not resolve")
    errors.extend(check_type_table(api))
    if errors:
        print("\n".join(errors))
        print(f"\napi-surface: FAILED ({len(errors)} problem(s))")
        return 1
    print(f"api-surface: {len(actual)} public name(s) match "
          f"{SNAPSHOT.relative_to(ROOT)}; type table matches the declared "
          "message fields")
    return 0


if __name__ == "__main__":
    sys.exit(main())
