"""Gauss code parsing, combinatorial maps, and genus."""

import random

import pytest

from knots import (
    ConsistencyError,
    Diagram,
    ParseError,
    Pass,
    SpatialLink,
    UnknownCrossingError,
    WalkPlan,
    canonical_key,
    catalog,
    crossing_change,
    from_text,
    genus,
    is_realizable,
    mirror,
    permute_components,
    project,
    random_walk,
    reverse_all,
    reverse_component,
    to_text,
)

TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"
FIG8 = "O1- U2+ O3+ U1- O4- U3+ O2+ U4-"
HOPF = "O1+ U2+ ; O2+ U1+"


def test_round_trip_is_identity_on_normalized_text():
    for text in (TREFOIL, FIG8, HOPF, "()", "() ; O1+ U1+"):
        assert to_text(from_text(text)) == text


def test_relabelling_is_by_first_occurrence():
    d = from_text("O7+ U3+ O5+ U7+ O3+ U5+")
    assert canonical_key(d) == TREFOIL


def test_parse_rejects_bad_tokens():
    for bad in ("O1", "X1+", "O0+", "O1+ U1", "O1+ ; U1* "):
        with pytest.raises(ParseError):
            from_text(bad)


def test_parse_rejects_inconsistent_codes():
    # Same role twice, sign drift, and odd visit counts.
    for bad in ("O1+ O1+", "O1+ U1-", "O1+ U2+ U1+", "O1+"):
        with pytest.raises(ConsistencyError):
            from_text(bad)


def test_crossing_labels_must_be_integers():
    # Darts are 4 * label + slot, so a label has to be an integer.
    for label in ("a", 1.5, None):
        with pytest.raises(ConsistencyError, match="is not an integer"):
            Diagram([[Pass(label, "O", 1), Pass(label, "U", 1)]])


def test_crossing_labels_must_read_back_from_text():
    # to_text would write OTrue+ or O0+, which from_text rejects.
    faults = {True: "is not an integer", 0: "is not positive", -2: "is not positive"}
    for label, fault in faults.items():
        with pytest.raises(ConsistencyError, match=f"crossing label {label} {fault}"):
            Diagram([[Pass(label, "O", 1), Pass(label, "U", 1)]])
    # True == 1, so it would otherwise pass as the second pass of crossing 1.
    with pytest.raises(ConsistencyError, match="crossing label True is not an integer"):
        Diagram([[Pass(1, "O", 1), Pass(True, "U", 1)]])


def test_text_round_trip_on_walks_and_projections():
    names = catalog.names()
    grow = {"R1+": 1.0, "R2+": 1.0, "R3": 1.0}
    found = []
    for seed in range(12):
        start = catalog.lookup(names[seed % len(names)]).diagram
        plan = WalkPlan(seed=seed, steps=30, weights=grow if seed % 2 else None)
        found.append(random_walk(start, plan))
    rng = random.Random(5)

    def vertex(c):
        return (rng.uniform(-1, 1) + 0.7 * c, rng.uniform(-1, 1), rng.uniform(-1, 1))

    for seed in range(6):
        link = SpatialLink([[vertex(c) for _ in range(8)] for c in range(1 + seed % 3)])
        found.append(project(link, seed).diagram)
    for d in found:
        assert from_text(to_text(d)) == d


def test_signs_are_shared_per_crossing():
    d = from_text(HOPF)
    assert d.signs == {1: 1, 2: 1}


def test_free_loop_component():
    d = from_text("() ; O1+ U1+")
    assert d.free_loops == (0,)
    assert d.n_crossings == 1


def test_trefoil_face_census():
    d = from_text(TREFOIL)
    sizes = sorted(len(f) for f in d.faces)
    # V=3, E=6, F=5 gives genus 0; faces are three bigons and two triangles.
    assert sizes == [2, 2, 2, 3, 3]
    assert genus(d) == (0,)


def test_all_catalog_style_codes_are_planar():
    for text in (TREFOIL, FIG8, HOPF, "O1+ U2+ O3+ U4+ O5+ U1+ O2+ U3+ O4+ U5+"):
        assert is_realizable(from_text(text))


def test_flipped_sign_breaks_planarity():
    # Changing one crossing sign without changing the words twists the
    # band: same words, genus jumps to one.
    twisted = "O1+ U2- O3+ U1+ O2- U3+"
    assert genus(from_text(twisted)) == (1,)
    assert not is_realizable(from_text(twisted))


def test_virtual_like_code_is_not_realizable():
    # The standard two-crossing virtual pattern.
    assert not is_realizable(from_text("O1+ U2+ U1+ O2+"))


def test_genus_of_disconnected_diagram_is_per_piece():
    d = from_text(TREFOIL + " ; ()")
    assert genus(d) == (0, 0)


def test_mirror_flips_roles_and_signs():
    d = from_text(HOPF)
    m = mirror(d)
    assert m.signs == {1: -1, 2: -1}
    assert to_text(m) == "U1- O2- ; U2- O1-"
    assert to_text(mirror(m)) == to_text(d)


def test_reverse_all_keeps_signs():
    d = from_text(TREFOIL)
    r = reverse_all(d)
    assert r.signs == d.signs
    assert genus(r) == (0,)


def test_reverse_component_flips_mixed_crossing_signs():
    d = from_text(HOPF)
    r = reverse_component(d, 1)
    # Both crossings involve the reversed component exactly once.
    assert r.signs == {1: -1, 2: -1}
    assert genus(r) == (0,)
    # Reversing twice restores the diagram.
    assert to_text(reverse_component(r, 1)) == to_text(d)


def test_reverse_component_on_knot_keeps_self_crossings():
    d = from_text(TREFOIL)
    assert reverse_component(d, 0).signs == d.signs


def test_permute_components():
    d = from_text(HOPF)
    p = permute_components(d, (1, 0))
    assert to_text(p) == "O2+ U1+ ; O1+ U2+"
    with pytest.raises(Exception):
        permute_components(d, (0, 0))


def test_canonical_key_ignores_labels_but_not_structure():
    a = from_text(TREFOIL)
    b = from_text("O2+ U5+ O9+ U2+ O5+ U9+")
    assert canonical_key(a) == canonical_key(b)
    assert canonical_key(a) != canonical_key(from_text(FIG8))


def test_edges_and_locate():
    d = from_text(HOPF)
    c, r = d.locate[1]["O"]
    assert d.components[c][r].crossing == 1


def test_diagram_equality_is_structural():
    assert from_text(TREFOIL) == from_text(TREFOIL)
    assert from_text(TREFOIL) != from_text(FIG8)
    assert len({from_text(TREFOIL), from_text(TREFOIL)}) == 1


def test_crossing_change_takes_several_crossings_at_once():
    d = from_text(FIG8)
    assert crossing_change(d, 1, 3) == crossing_change(crossing_change(d, 3), 1)
    assert crossing_change(d) == d
    assert crossing_change(d, *d.signs) == mirror(d)
    with pytest.raises(UnknownCrossingError, match="no crossing 7"):
        crossing_change(d, 1, 7)
