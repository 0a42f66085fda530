"""Errors raised on bad input, one case per raise no other test reaches."""

import inspect
import json
import operator
import re
import types
from enum import IntEnum

import pytest
from click.testing import CliRunner

import knots
from knots import (
    ChordDiagram,
    ConsistencyError,
    ConwayPoly,
    Diagram,
    DomainError,
    InvalidSiteError,
    MoveSite,
    NonPlanarError,
    ParseError,
    Pass,
    SingularDiagram,
    SpatialLink,
    UnknownCrossingError,
    UnknownNameError,
    WalkPlan,
    apply_move,
    arf,
    canonical_key,
    casson,
    catalog,
    check_1t,
    check_4t,
    coefficient,
    connected_sum,
    conway,
    count_colorings,
    crossing_change,
    disjoint_union,
    enumerate_sites,
    extend,
    from_text,
    genus,
    is_colorable,
    is_descending,
    is_realizable,
    linking_matrix,
    lk,
    lk2,
    mirror,
    permute_components,
    project,
    random_walk,
    realize,
    resolutions,
    reverse_all,
    reverse_component,
    sigma,
    smooth,
    symbol,
    to_text,
    triangles_linked,
    verify_seven_points,
    violations,
)
from knots.cli import main

TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"
HOPF = "O1+ U2+ ; O2+ U1+"
SEVEN = [(0, 0, 0), (1, 0, 0.1), (0, 1, 0.2), (0, 0, 1), (1, 1, 0.3), (1, 0.2, 1), (0.3, 1, 1)]


@pytest.mark.parametrize(
    "text,message",
    [
        (5, "expected a string, got int"),
        (" \n ", "empty code text"),
        ("O1+ U1+ ;  ", "empty component"),
    ],
)
def test_from_text_rejects_non_strings_and_empty_parts(text, message):
    with pytest.raises(ParseError, match=message):
        from_text(text)


@pytest.mark.parametrize(
    "passes,message",
    [
        ([Pass(1, "X", 1), Pass(1, "U", 1)], "bad role 'X' at crossing 1"),
        ([Pass(1, "O", 1), Pass(1, "U", 0)], "bad sign 0 at crossing 1"),
    ],
)
def test_diagram_rejects_bad_roles_and_signs(passes, message):
    with pytest.raises(ConsistencyError, match=message):
        Diagram([passes])


@pytest.mark.parametrize(
    "components,message",
    [
        ([], "a diagram needs at least one component"),
        (5, "5 is not a sequence of components"),
        ([5], r"\[5\] is not a sequence of components"),
        ([[1]], r"pass 0 of component 0 is not a \(crossing, role, sign\) triple"),
        ([[(1, "O")]], r"pass 0 of component 0 is not a \(crossing, role, sign\) triple"),
        ([(), [Pass(1, "O", 1), (1, "U", 1, 0)]], "pass 1 of component 1 is not"),
        (["O1+ U1+"], "pass 0 of component 0 is not"),
    ],
    ids=["empty", "int", "int-component", "int-pass", "pair", "quadruple", "text"],
)
def test_diagram_refuses_no_components_and_passes_that_are_not_triples(components, message):
    # An empty diagram was accepted (its text form '' does not parse
    # back); the rest raised TypeError or ValueError.
    with pytest.raises(ConsistencyError, match=message):
        Diagram(components)


def test_spatial_link_refuses_no_components():
    with pytest.raises(DomainError, match="a link needs at least one component"):
        SpatialLink([])


@pytest.mark.parametrize("seed", [None, 1.5, "x", True], ids=["none", "float", "text", "bool"])
@pytest.mark.parametrize(
    "call",
    [
        lambda seed: project(SpatialLink([[(0, 0, 0), (1, 0, 0), (0, 1, 0)]]), seed=seed),
        lambda seed: realize("1212", seed=seed),
        lambda seed: realize("", seed=seed),
        lambda seed: verify_seven_points(SEVEN, seed=seed),
    ],
    ids=["project", "realize", "realize-empty", "seven"],
)
def test_seeds_must_be_ints(call, seed):
    # None once drew a fresh seed from the system, and any other value
    # was passed on to random.Random.
    with pytest.raises(DomainError, match=re.escape(f"seed must be an int, got {seed!r}")):
        call(seed)


def test_reverse_component_rejects_a_bad_index():
    with pytest.raises(DomainError, match="no component 2"):
        reverse_component(from_text(HOPF), 2)


@pytest.mark.parametrize("index", [0.5, True])  # True once read as component 1
def test_reverse_component_refuses_an_index_that_is_not_an_int(index):
    with pytest.raises(DomainError, match=re.escape(f"no component {index!r}")):
        reverse_component(from_text(HOPF), index)


@pytest.mark.parametrize("surgery", [crossing_change, smooth])
def test_surgery_at_an_unknown_crossing(surgery):
    with pytest.raises(UnknownCrossingError, match="no crossing 9"):
        surgery(from_text(TREFOIL), 9)


@pytest.mark.parametrize("surgery", [crossing_change, smooth])
@pytest.mark.parametrize("label", [True, 1.0])  # each once named crossing 1
def test_surgery_refuses_a_label_that_is_not_an_int(surgery, label):
    with pytest.raises(UnknownCrossingError, match=re.escape(f"no crossing {label!r}")):
        surgery(from_text(TREFOIL), label)


@pytest.mark.parametrize(
    "args,message",
    [
        ((3, 0), "no component 3 in first diagram"),
        ((0, -1), "no component -1 in second diagram"),
        ((0, 0, 6, 0), "no arc 6 on the chosen first component"),
        ((0, 0, 0, 7), "no arc 7 on the chosen second component"),
    ],
)
def test_connected_sum_rejects_bad_components_and_arcs(args, message):
    a, b = from_text(TREFOIL), from_text(TREFOIL)
    comp_a, comp_b, *arcs = args
    with pytest.raises(DomainError, match=message):
        connected_sum(a, comp_a, b, comp_b, *arcs)


def test_random_walk_needs_a_planar_start():
    with pytest.raises(NonPlanarError, match="the piece of crossing 1 has genus 1"):
        random_walk(from_text("O1+ U2+ U1+ O2+"), WalkPlan(seed=0, steps=3))


@pytest.mark.parametrize(
    "call",
    [
        enumerate_sites,
        lambda d: apply_move(d, MoveSite("R1+", (0,), "OU+")),
        lambda d: apply_move(d, MoveSite("R1-", (max(d.signs),))),
        lambda d: random_walk(d, WalkPlan(seed=0, steps=3)),
        conway,
    ],
    ids=["enumerate_sites", "apply_move-R1+", "apply_move-R1-", "random_walk", "conway"],
)
@pytest.mark.parametrize(
    "code,message",
    [
        ("O1+ U2+ U1+ O2+", "the piece of crossing 1 has genus 1"),
        # A plane trefoil, then a piece of genus 2 ending in a curl at 8.
        (f"{TREFOIL} ; U6+ O7- O5+ U7- U5+ U4- O6+ O4- O8+ U8+", "the piece of crossing 4 has genus 2"),
    ],
    ids=["genus-1", "second-piece-genus-2"],
)
def test_plane_only_entry_points_name_the_first_piece_of_positive_genus(call, code, message):
    # ``apply_move`` once made both moves on these codes: the R1+ curl and,
    # on the second, the R1- removal of curl 8.
    with pytest.raises(NonPlanarError, match=f"^{message}$"):
        call(from_text(code))


def test_walk_plan_rejects_all_zero_weights():
    with pytest.raises(DomainError, match="bad walk weights"):
        WalkPlan(seed=0, steps=1, weights={"R1+": 0.0, "R3": 0})


@pytest.mark.parametrize(
    "weights",
    [
        {"R1+": "1"},
        {"R1+": float("inf")},
        {"R1+": float("nan"), "R2+": 1.0},
        {"R1+": True},
        {"R1+": -1},
        "R1+",  # once ValueError
        [("R1+", 1)],  # once accepted
    ],
    ids=["text", "inf", "nan", "bool", "negative", "string", "pairs"],
)
def test_walk_plan_refuses_weights_that_are_not_finite_non_negative_reals(weights):
    with pytest.raises(DomainError, match="bad walk weights"):
        WalkPlan(seed=0, steps=20, weights=weights)


def test_walk_plan_takes_int_and_float_weights():
    plan = WalkPlan(seed=0, steps=20, weights={"R1+": 1, "R2+": 0.5, "R3": 0})
    assert plan.effective_weights() == {"R1+": 1, "R2+": 0.5}
    assert random_walk(from_text(TREFOIL), plan).n_crossings >= 3


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda d: coefficient(d, 2.5), "no coefficient c_2.5"),
        (lambda d: coefficient(d, True), "no coefficient c_True"),
        (lambda d: permute_components(d, [0.0]), r"bad permutation \[0.0\]"),
        (lambda d: permute_components(d, [False]), r"bad permutation \[False\]"),
        (lambda d: connected_sum(d, 0.0, d, 0), "comp_a must be an int, got 0.0"),
        (lambda d: connected_sum(d, 0, d, True), "comp_b must be an int, got True"),
        (lambda d: connected_sum(d, 0, d, 0, 1.5), "edge_a must be an int, got 1.5"),
        (lambda d: connected_sum(d, 0, d, 0, 0, False), "edge_b must be an int, got False"),
    ],
    ids=[
        "coefficient-float",
        "coefficient-bool",
        "permute-float",
        "permute-bool",
        "sum-comp-float",
        "sum-comp-bool",
        "sum-edge-float",
        "sum-edge-bool",
    ],
)
def test_integer_arguments_refuse_floats_and_bools(call, message):
    with pytest.raises(DomainError, match=message):
        call(from_text(TREFOIL))


@pytest.mark.parametrize("order", [5, None])
def test_permute_components_refuses_an_order_that_is_not_a_sequence(order):
    with pytest.raises(DomainError, match=f"bad permutation {order!r}"):
        permute_components(from_text(HOPF), order)


@pytest.mark.parametrize("name", [5, None])
def test_catalog_lookup_refuses_a_name_that_is_not_a_string(name):
    with pytest.raises(UnknownNameError, match=f"no catalog entry named {name!r}"):
        catalog.lookup(name)


class _Unreadable:
    """Fails the test when any attribute is read."""

    def __getattr__(self, name):
        raise AssertionError(f"read {name}")

    def __repr__(self):
        return "unreadable"


# Every public callable that takes a diagram, by name, called with ``d`` in
# the diagram's place and valid other arguments; a ``_b`` key calls it a
# second way: ``d`` in the second diagram's place, or c_{-1}, which reads
# no coefficient.
TAKES_A_DIAGRAM = {
    "count_colorings": lambda d: count_colorings(d, 3),
    "is_colorable": lambda d: is_colorable(d, 5),
    "conway": conway,
    "coefficient": lambda d: coefficient(d, 2),
    "coefficient_b": lambda d: coefficient(d, -1),
    "casson": casson,
    "arf": arf,
    "lk": lambda d: lk(d, 0, 1),
    "lk2": lambda d: lk2(d, 0, 1),
    "linking_matrix": linking_matrix,
    "enumerate_sites": enumerate_sites,
    "random_walk": lambda d: random_walk(d, WalkPlan(seed=0, steps=1)),
    "apply_move": lambda d: apply_move(d, MoveSite("R1-", (1,))),
    "SingularDiagram": lambda d: SingularDiagram(d, []),
    "to_text": to_text,
    "genus": genus,
    "is_realizable": is_realizable,
    "crossing_change": lambda d: crossing_change(d, 1),
    "mirror": mirror,
    "reverse_all": reverse_all,
    "reverse_component": lambda d: reverse_component(d, 0),
    "permute_components": lambda d: permute_components(d, [0]),
    "canonical_key": canonical_key,
    "smooth": lambda d: smooth(d, 1),
    "disjoint_union": lambda d: disjoint_union(d, from_text(TREFOIL)),
    "disjoint_union_b": lambda d: disjoint_union(from_text(TREFOIL), d),
    "connected_sum": lambda d: connected_sum(d, 0, from_text(TREFOIL), 0),
    "connected_sum_b": lambda d: connected_sum(from_text(TREFOIL), 0, d, 0),
    "violations": violations,
    "is_descending": is_descending,
}
# Public callables with a ``Diagram`` parameter that read nothing of it:
# ``project`` builds a ProjectionResult around the diagram it traced.
HOLDS_A_DIAGRAM = {"ProjectionResult"}


@pytest.mark.parametrize("call", TAKES_A_DIAGRAM.values(), ids=TAKES_A_DIAGRAM.keys())
@pytest.mark.parametrize("d", [None, "abc", 5, _Unreadable()], ids=repr)
def test_invariants_refuse_a_diagram_that_is_not_a_diagram(call, d):
    # Each once raised AttributeError from ``d.components``, ``d.n_components``,
    # ``d.signs``, ``d.locate`` or ``d._pieces``.
    with pytest.raises(DomainError, match=re.escape(f"d must be a Diagram, got {d!r}")):
        call(d)


def test_every_public_callable_that_takes_a_diagram_is_in_the_refusal_table():
    # Under ``from __future__ import annotations`` an annotation is a string.
    found = set()
    for name in knots.__all__:
        obj = getattr(knots, name)
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        params = inspect.signature(obj).parameters.values()
        if any(p.annotation in ("Diagram", Diagram) for p in params):
            found.add(name)
    assert HOLDS_A_DIAGRAM <= found
    assert found - HOLDS_A_DIAGRAM == {name for name in TAKES_A_DIAGRAM if not name.endswith("_b")}


# Every public callable that takes a singular diagram, called with ``s`` in its place.
TAKES_A_SINGULAR_DIAGRAM = {
    "sigma": sigma,
    "resolutions": resolutions,
    "extend": lambda s: extend(casson, s),
}


@pytest.mark.parametrize("call", TAKES_A_SINGULAR_DIAGRAM.values(), ids=TAKES_A_SINGULAR_DIAGRAM)
@pytest.mark.parametrize(
    "s", [None, "O1+ U1+", 5, _Unreadable(), from_text(TREFOIL)], ids=repr
)
def test_singular_invariants_refuse_what_is_not_a_singular_diagram(call, s):
    # Each once raised AttributeError from ``s.base`` or ``s.doubles``.
    with pytest.raises(DomainError, match=re.escape(f"s must be a SingularDiagram, got {s!r}")):
        call(s)


def test_every_public_callable_that_takes_a_singular_diagram_is_in_its_table():
    found = set()
    for name in knots.__all__:
        obj = getattr(knots, name)
        if callable(obj) and not isinstance(obj, type):
            params = inspect.signature(obj).parameters.values()
            if any(p.annotation in ("SingularDiagram", SingularDiagram) for p in params):
                found.add(name)
    assert found == set(TAKES_A_SINGULAR_DIAGRAM)


@pytest.mark.parametrize("doubles", [5, None, [[1]]], ids=repr)
def test_singular_diagram_refuses_doubles_that_are_not_labels(doubles):
    # 5 and None once raised TypeError from ``frozenset``.
    message = re.escape(f"doubles must be crossing labels, got {doubles!r}")
    with pytest.raises(DomainError, match=message):
        SingularDiagram(from_text(TREFOIL), doubles)


# What each argument below must be, in the DomainError that names it.
MUST_BE = {
    "word": "an iterable of letters",
    "inv": "callable",
    "lam": "a callable or a mapping",
    "link": "a SpatialLink",
}
# (callable, argument, call with ``x`` in that argument's place, bad value).
# Each raised TypeError from ``canonical_word`` or from inside the sum, or
# AttributeError from ``link.components``.
ARGUMENT_ROWS = [
    ("ChordDiagram", "word", ChordDiagram, 5),
    ("ChordDiagram", "word", ChordDiagram, None),
    ("realize", "word", realize, 5),
    ("realize", "word", realize, None),
    ("extend", "inv", lambda x: extend(x, SingularDiagram(from_text(TREFOIL), [1])), None),
    ("symbol", "inv", lambda x: symbol(x, 2), None),
    ("symbol", "inv", lambda x: symbol(x, 2), 5),
    ("symbol", "inv", lambda x: symbol(x, 2), {}),
    ("check_1t", "lam", lambda x: check_1t(x, 2), None),
    ("check_1t", "lam", lambda x: check_1t(x, 2), 5),
    ("check_4t", "lam", lambda x: check_4t(x, 3), None),
    ("project", "link", project, None),
    ("project", "link", project, 5),
    ("project", "link", project, "x"),
]


@pytest.mark.parametrize(
    "argument,call,value",
    [row[1:] for row in ARGUMENT_ROWS],
    ids=[f"{name}-{value!r}" for name, _, _, value in ARGUMENT_ROWS],
)
def test_word_invariant_and_link_arguments_are_checked_first(argument, call, value):
    message = f"{argument} must be {MUST_BE[argument]}, got {value!r}"
    with pytest.raises(DomainError, match=re.escape(message)):
        call(value)


class _Index(IntEnum):
    ZERO = 0
    ONE = 1


# Calls with an ``IntEnum`` member where an int is asked, each with the
# same call on plain ints.  ``reverse_component``, ``WalkPlan`` and the
# insertion arcs of ``apply_move`` once asked ``type(x) is int`` and
# refused the members; ``lk`` and ``coefficient`` took them.
INT_ENUM_CALLS = {
    "lk": lambda i: lk(from_text(HOPF), i.ZERO, i.ONE),
    "coefficient": lambda i: coefficient(from_text(TREFOIL), i.ONE),
    "reverse_component": lambda i: reverse_component(from_text(HOPF), i.ZERO),
    "walk_plan": lambda i: random_walk(from_text(TREFOIL), WalkPlan(seed=i.ONE, steps=i.ONE)),
    "insertion_arc": lambda i: apply_move(from_text(TREFOIL), MoveSite("R1+", (i.ONE,), "OU+")),
}


@pytest.mark.parametrize("call", INT_ENUM_CALLS.values(), ids=INT_ENUM_CALLS)
def test_an_int_enum_member_is_an_int_wherever_an_int_is_asked(call):
    plain = types.SimpleNamespace(ZERO=0, ONE=1)
    assert call(_Index) == call(plain)


@pytest.mark.parametrize("plan", [None, 5, {"seed": 0, "steps": 1}, _Unreadable()], ids=repr)
def test_random_walk_refuses_a_plan_that_is_not_a_walk_plan(plan):
    # Once raised AttributeError from ``plan.effective_weights``.
    with pytest.raises(DomainError, match=re.escape(f"plan must be a WalkPlan, got {plan!r}")):
        random_walk(from_text(TREFOIL), plan)


@pytest.mark.parametrize("site", ["R1-", ("R1-", (1,)), None, _Unreadable()], ids=repr)
def test_apply_move_refuses_a_site_that_is_not_a_move_site(site):
    # Once raised AttributeError from ``site.kind``.
    with pytest.raises(InvalidSiteError, match=re.escape(f"site must be a MoveSite, got {site!r}")):
        apply_move(from_text("O1+ U1+"), site)


@pytest.mark.parametrize("coeffs", [(1, 0.5), "12", (True,), (1, None), (2, 0, False)])
def test_conway_poly_refuses_coefficients_that_are_not_ints(coeffs):
    # Once accepted, so that ``str(ConwayPoly((1, 0.5)))`` printed ``1 + 0.5t``.
    bad = next(c for c in coeffs if isinstance(c, bool) or not isinstance(c, int))
    with pytest.raises(DomainError, match=re.escape(f"coefficients must be ints, got {bad!r}")):
        ConwayPoly(coeffs)


@pytest.mark.parametrize("other", [2, 1.5, (1,), None])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_conway_poly_arithmetic_refuses_other_types(op, other):
    # ``ConwayPoly((1,)) * 2`` once raised AttributeError on ``other.coeffs``,
    # and ``ConwayPoly((1,)) + (1,)`` returned a ConwayPoly.
    with pytest.raises(TypeError):
        op(ConwayPoly((1,)), other)


@pytest.mark.parametrize("linking", [lk, lk2])
@pytest.mark.parametrize("pair", [(0.5, 1), (True, 0), (0, 1.0), (1, False)])
def test_linking_refuses_component_indices_that_are_not_ints(linking, pair):
    # lk once read True as component 1, and returned 0 for a float index.
    message = re.escape(f"component pair ({pair[0]!r}, {pair[1]!r}) out of range")
    with pytest.raises(DomainError, match=message):
        linking(from_text(HOPF), *pair)


@pytest.mark.parametrize("label", [True, 1.0])
def test_singular_diagram_refuses_a_label_that_is_not_an_int(label):
    with pytest.raises(DomainError, match=f"marked double point {label!r} is not a crossing"):
        SingularDiagram(from_text(TREFOIL), {label})


def test_triangles_linked_needs_three_points_each():
    t1 = ((0.0, 0.0, 0.0), (2.0, 0.0, 0.1))
    t2 = ((0.5, 0.5, -1.0), (0.6, 0.55, 1.3), (2.5, 2.6, 0.2))
    with pytest.raises(DomainError, match="a triangle needs exactly 3 points"):
        triangles_linked(t1, t2)


def test_geom_linked_triangles_json():
    args = ["geom", "linked-triangles", "--trials", "2", "--format", "json"]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert [r["trial"] for r in doc["witness"]] == [0, 1]
    for r in doc["witness"]:
        assert len(r["witness"]) == 2 and all(len(half) == 3 for half in r["witness"])
