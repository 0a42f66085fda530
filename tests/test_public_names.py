"""The public names: the README's list, ``__all__`` and the import paths."""

import re
from pathlib import Path

import knots
from knots import codes, moves

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_names():
    """The names listed in the README's "Public names" section, in order."""
    section = README.read_text().split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    names = []
    for line in section.splitlines():
        if line.startswith("- "):
            names += re.findall(r"`([^`]+)`", line.partition(": ")[2])
    return names


def test_readme_lists_exactly_the_public_names():
    assert sorted(_readme_names()) == knots.__all__


def test_all_is_sorted_public_and_star_import_binds_it():
    assert knots.__all__ == sorted(set(knots.__all__))
    assert not [n for n in knots.__all__ if n.startswith("_")]
    namespace = {}
    exec("from knots import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == knots.__all__


def test_one_import_path_per_function():
    assert knots.crossing_change is codes.crossing_change
    assert not hasattr(moves, "crossing_change")
    assert knots.apply_move is moves.apply
    assert isinstance(knots.catalog, type(knots))
    assert callable(knots.conway)
