"""The R2+ face rule and the site table against a global re-trace.

The oracle applies every R2+ variant at a candidate arc pair and keeps
those whose result still traces to genus zero; the face rule must keep
exactly those.  Every enumerated site, once applied, must give a
planar diagram.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knots import (
    DEFAULT_WEIGHTS,
    WalkPlan,
    apply_move,
    catalog,
    disjoint_union,
    enumerate_sites,
    from_text,
    is_realizable,
    random_walk,
)
from knots.moves import _MOVES, _R2_VARIANTS, _apply_r2_plus

GROW = {"R1+": 1.0, "R2+": 1.0, "R3": 1.0}


def _starts():
    out = {name: catalog.lookup(name).diagram for name in catalog.names()}
    out["loops"] = from_text("() ; ()")
    out["split-kinks"] = from_text("O1+ U1+ ; O2+ U2+")
    out["trefoil+hopf"] = disjoint_union(out["trefoil-r"], out["hopf+"])
    out["fig8+loop"] = disjoint_union(out["fig8"], out["unknot"])
    out["whitehead+trefoil"] = disjoint_union(out["whitehead"], out["trefoil-l"])
    return out


STARTS = _starts()


def trial_r2_variants(d, pair):
    """The planar R2+ variants at ``pair``: apply each one and re-trace."""
    return tuple(
        v
        for v in _R2_VARIANTS
        if is_realizable(_apply_r2_plus(d, pair, v))
    )


def check_against_retrace(d):
    pairs, variants, _ = _MOVES["R2+"]
    for pair in pairs(d):
        assert variants(d, pair) == trial_r2_variants(d, pair), pair
    for site in enumerate_sites(d):
        assert is_realizable(apply_move(d, site)), site


@pytest.mark.parametrize("name", sorted(STARTS))
def test_face_rule_matches_retrace_on_starts(name):
    check_against_retrace(STARTS[name])


@settings(max_examples=30)
@given(
    name=st.sampled_from(sorted(STARTS)),
    seed=st.integers(0, 2**16),
    grow=st.booleans(),
    steps=st.integers(1, 8),
)
def test_face_rule_matches_retrace_on_walks(name, seed, grow, steps):
    weights = GROW if grow else DEFAULT_WEIGHTS
    d = random_walk(STARTS[name], WalkPlan(seed=seed, steps=steps, weights=weights))
    check_against_retrace(d)
