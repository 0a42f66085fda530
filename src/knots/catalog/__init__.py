"""Named example diagrams with frozen golden invariant values.

Each entry pairs a Gauss code (a ``data/*.txt`` file, one code per
file) with the invariant values recorded in ``data/golden.json`` at
freeze time: Conway coefficients, Casson/Arf for knots, linking
matrices for links, and 3- and 5-coloring counts.  The test suite
recomputes every golden value from the code, so the catalog doubles as
a regression corpus.

``trivial-n<k>`` names are parametric: the k-component unlink drawn
with no crossings.  Its golden values follow closed formulas, so the
entries are generated rather than stored.
"""

import json
import re
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path

from ..codes import Diagram, from_text
from ..errors import UnknownNameError

_TRIVIAL = re.compile(r"trivial-n([1-9][0-9]*)\Z")

# Friendly shorthands for the chiral/signed entries.
_ALIASES = {"trefoil": "trefoil-r", "hopf": "hopf+"}


class GoldenValues:
    """Attribute access to a frozen invariant table (``c2`` = ``casson``)."""

    def __init__(self, values):
        self._values = dict(values)

    def __getattr__(self, key):
        values = object.__getattribute__(self, "_values")
        if key == "c2":
            key = "casson"
        try:
            return values[key]
        except KeyError:
            raise AttributeError(f"no golden value {key!r}") from None

    def __contains__(self, key):
        return key in self._values

    def items(self):
        return self._values.items()

    def __repr__(self):
        return f"GoldenValues({self._values!r})"


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    code: str
    golden: GoldenValues = field(compare=False)

    @cached_property
    def diagram(self) -> Diagram:
        return from_text(self.code)


@cache
def _load():
    root = Path(__file__).parent / "data"
    golden_map = json.loads((root / "golden.json").read_text())
    codes = {p.stem: p.read_text().strip() for p in root.glob("*.txt")}
    # golden.json key order is the canonical listing order.
    names = [n for n in golden_map if n in codes]
    names += sorted(n for n in codes if n not in golden_map)
    return {
        name: CatalogEntry(name, codes[name], GoldenValues(golden_map.get(name, {})))
        for name in names
    }


def _trivial_entry(k: int) -> CatalogEntry:
    code = " ; ".join(["()"] * k)
    golden = {
        "conway": [1] if k == 1 else [],
        "colorings": {"3": [3**k, 3**k - 3], "5": [5**k, 5**k - 5]},
    }
    if k == 1:
        golden["casson"] = 0
        golden["arf"] = 0
    else:
        golden["lk2"] = [[0] * k for _ in range(k)]
        golden["lk"] = [[0] * k for _ in range(k)]
    return CatalogEntry(f"trivial-n{k}", code, GoldenValues(golden))


def lookup(name: str) -> CatalogEntry:
    """The catalog entry for ``name`` (case-insensitive).

    Args:
        name: entry name such as "trefoil-r", "hopf+", or the
            parametric "trivial-n3".

    Returns:
        CatalogEntry with the frozen code and golden values.

    Raises:
        UnknownNameError: if no entry has that name, or ``name`` is not
            a string.
    """
    if not isinstance(name, str):
        raise UnknownNameError(f"no catalog entry named {name!r}")
    key = _ALIASES.get(name.strip().lower(), name.strip().lower())
    m = _TRIVIAL.match(key)
    if m:
        return _trivial_entry(int(m.group(1)))
    entries = _load()
    if key not in entries:
        raise UnknownNameError(f"no catalog entry named {name!r}")
    return entries[key]


def all():
    """All entries: the stored codes plus trivial-n2 and trivial-n3."""
    stored = list(_load().values())
    return stored + [_trivial_entry(2), _trivial_entry(3)]


def names():
    return [e.name for e in all()]
