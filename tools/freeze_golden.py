#!/usr/bin/env python3
"""Recompute golden invariant values for the catalog data files.

Reads every src/knots/catalog/data/*.txt, computes the invariant suite
appropriate to its component count, and rewrites data/golden.json in
the canonical listing order.  Run after editing a catalog code; commit
the regenerated sidecar together with the code change.  ``golden_json``
returns the text without writing it; ``tests/test_catalog.py`` checks
that it equals the committed file byte for byte.  Run from anywhere:

    python3 tools/freeze_golden.py
"""

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))  # this checkout's knots, not an installed copy

from knots import from_text  # noqa: E402
from knots.cli import _suite  # noqa: E402

DATA = SRC / "knots" / "catalog" / "data"

# Canonical listing order: knots, then links.
ORDER = [
    "unknot",
    "trefoil-r",
    "trefoil-l",
    "fig8",
    "5_1",
    "hopf+",
    "hopf-",
    "whitehead",
    "borromean",
]


def golden_for(d):
    """The CLI's default invariant suite, with the Conway coefficients only."""
    out = _suite(d)
    out["conway"] = out["conway"]["coeffs"]
    return out


def golden_json():
    """The text of data/golden.json, recomputed from the catalog codes."""
    stems = {p.stem for p in DATA.glob("*.txt")}
    missing = [n for n in ORDER if n not in stems]
    extra = sorted(stems - set(ORDER))
    if missing:
        raise SystemExit(f"data files missing for: {missing}")
    table = {
        name: golden_for(from_text((DATA / f"{name}.txt").read_text()))
        for name in ORDER + extra
    }
    return json.dumps(table, indent=2) + "\n"


def main():
    text = golden_json()
    for name, values in json.loads(text).items():
        print(f"{name:12s} {values}")
    (DATA / "golden.json").write_text(text)
    print(f"\nwrote {DATA / 'golden.json'}")


if __name__ == "__main__":
    main()
