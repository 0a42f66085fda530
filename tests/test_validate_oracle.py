"""``Diagram`` validation against the two-pass oracle on malformed codes.

Each code starts valid (a catalog entry, a seeded walk of one, or a
random shuffle of passes) and takes one to four seeded faults: a pass
dropped or duplicated, a role swapped or made invalid, one pass's sign
flipped or made invalid, or a label that is not an int.  Either both
sides raise the same exception with the same message, or both give the
same ``signs`` and ``locate``, in the same order.
"""

import random

from knots import Diagram, Pass, WalkPlan, catalog, random_walk

import validate_oracle


def _valid(rng):
    kind = rng.randrange(3)
    names = catalog.names()
    if kind == 0:
        return [list(c) for c in catalog.lookup(rng.choice(names)).diagram.components]
    if kind == 1:
        d = catalog.lookup(rng.choice(names)).diagram
        d = random_walk(d, WalkPlan(seed=rng.randrange(10**6), steps=rng.randint(1, 20)))
        return [list(c) for c in d.components]
    n = rng.randint(1, 8)
    passes = [Pass(c, r, s) for c in range(1, n + 1) for s in [rng.choice((1, -1))] for r in "OU"]
    rng.shuffle(passes)
    cut = rng.randint(0, 2 * n)
    return [passes[:cut], passes[cut:]] if 0 < cut < 2 * n else [passes]


def _break(comps, rng):
    where = [(ci, k) for ci, comp in enumerate(comps) for k in range(len(comp))]
    if not where:
        return
    ci, k = rng.choice(where)
    p = comps[ci][k]
    fault = rng.randrange(7)
    if fault == 0:
        del comps[ci][k]
    elif fault == 1:
        cj = rng.randrange(len(comps))
        comps[cj].insert(rng.randint(0, len(comps[cj])), p)
    elif fault == 2:
        comps[ci][k] = p._replace(role="U" if p.role == "O" else "O")
    elif fault == 3:
        comps[ci][k] = p._replace(role=rng.choice(("X", "o", None)))
    elif fault == 4:
        comps[ci][k] = p._replace(sign=-1 if p.sign == 1 else 1)
    elif fault == 5:
        comps[ci][k] = p._replace(sign=rng.choice((0, 2, "+")))
    else:
        comps[ci][k] = p._replace(crossing=rng.choice((str(p.crossing), float(p.crossing))))


def _outcome(fn, comps):
    try:
        signs, locate = fn(comps)
    except Exception as exc:  # compared by type and message below
        return type(exc), str(exc)
    return list(signs.items()), list(locate.items())


def _diagram(comps):
    d = Diagram(comps)
    return d.signs, d.locate


def test_single_sweep_matches_the_two_pass_oracle():
    rng = random.Random(90210)
    raised = valid = 0
    for _ in range(3000):
        comps = _valid(rng)
        for _ in range(rng.choice((0, 1, 1, 2, 2, 3, 4))):
            _break(comps, rng)
        expected = _outcome(validate_oracle.validate, comps)
        assert _outcome(_diagram, comps) == expected, comps
        if isinstance(expected[0], type):
            raised += 1
        else:
            valid += 1
    assert raised > 1000 and valid > 300, (raised, valid)
