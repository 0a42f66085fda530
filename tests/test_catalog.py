"""Catalog integrity: every golden value recomputes from its code."""

import importlib.util
from pathlib import Path

import pytest

from knots import (
    UnknownNameError,
    arf,
    casson,
    catalog,
    conway,
    count_colorings,
    genus,
    is_realizable,
    lk,
    lk2,
)

KNOWN = [
    "unknot",
    "trefoil-r",
    "trefoil-l",
    "fig8",
    "5_1",
    "hopf+",
    "hopf-",
    "whitehead",
    "borromean",
    "trivial-n2",
    "trivial-n3",
]


def test_catalog_names():
    assert catalog.names() == KNOWN


def test_every_entry_is_planar():
    for entry in catalog.all():
        assert is_realizable(entry.diagram), entry.name
        assert all(g == 0 for g in genus(entry.diagram))


def test_every_golden_value_recomputes():
    for entry in catalog.all():
        d = entry.diagram
        for key, want in entry.golden.items():
            if key == "conway":
                assert list(conway(d).coeffs) == want, entry.name
            elif key == "casson":
                assert casson(d) == want, entry.name
            elif key == "arf":
                assert arf(d) == want, entry.name
            elif key == "lk2":
                got = [
                    [lk2(d, i, j) if i != j else 0 for j in range(d.n_components)]
                    for i in range(d.n_components)
                ]
                assert got == want, entry.name
            elif key == "lk":
                got = [
                    [lk(d, i, j) if i != j else 0 for j in range(d.n_components)]
                    for i in range(d.n_components)
                ]
                assert got == want, entry.name
            elif key == "colorings":
                for p, (total, proper) in want.items():
                    c = count_colorings(d, int(p))
                    assert [c.total, c.proper] == [total, proper], (entry.name, p)
            else:
                raise AssertionError(f"unaudited golden key {key!r}")


def test_lookup_is_case_insensitive():
    assert catalog.lookup("FIG8").name == "fig8"
    assert catalog.lookup(" Whitehead ").name == "whitehead"


def test_lookup_aliases():
    assert catalog.lookup("trefoil").name == "trefoil-r"
    assert catalog.lookup("hopf").name == "hopf+"


def test_golden_attribute_access():
    assert catalog.lookup("trefoil-r").golden.c2 == 1
    assert catalog.lookup("trefoil-r").golden.casson == 1
    assert catalog.lookup("5_1").golden.conway == [1, 0, 3, 0, 1]
    assert catalog.lookup("unknot").golden.arf == 0
    with pytest.raises(AttributeError):
        catalog.lookup("unknot").golden.nonsense


def test_trivial_links_are_parametric():
    for k in (1, 2, 3, 5):
        e = catalog.lookup(f"trivial-n{k}")
        assert e.diagram.n_components == k
        assert e.diagram.n_crossings == 0
    with pytest.raises(UnknownNameError):
        catalog.lookup("trivial-n0")


def test_trivial_links_golden_values_recompute():
    for k in (2, 4):
        e = catalog.lookup(f"trivial-n{k}")
        d = e.diagram
        assert list(conway(d).coeffs) == e.golden.conway
        for p, (total, proper) in e.golden.colorings.items():
            c = count_colorings(d, int(p))
            assert [c.total, c.proper] == [total, proper]


def test_unknown_name_raises():
    with pytest.raises(UnknownNameError):
        catalog.lookup("granny")


ROOT = Path(__file__).resolve().parent.parent


def test_freeze_golden_reproduces_the_committed_file():
    spec = importlib.util.spec_from_file_location(
        "freeze_golden", ROOT / "tools" / "freeze_golden.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    committed = ROOT / "src" / "knots" / "catalog" / "data" / "golden.json"
    assert tool.golden_json().encode() == committed.read_bytes()
