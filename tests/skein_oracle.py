"""Reference Conway polynomial by the skein recursion, for tests only.

The recursion rewrites a diagram toward a *descending* one: traverse
the components in order, each from pass 0, and ask that the first
visit to every crossing be an over pass.  Descending diagrams are
unknotted (one component) or split trivial (several), so their
polynomial is 1 or 0.  Otherwise take the first crossing A whose first
visit is an under pass:

    C(K+) - C(K-) = t * C(K0)

solved for the diagram at hand: changing A removes exactly that
violation (no other crossing's first-visit role moves), and smoothing A
drops a crossing, so the recursion terminates.

It shares no code with ``knots.conway`` beyond ``ConwayPoly``
arithmetic, the descending test and the diagram surgery, which makes it
an independent check of the determinant.  Its cost roughly doubles per
crossing, so it refuses diagrams with more than ``CROSSING_CAP``
crossings: a 14-crossing connected sum of trefoils and figure eights
takes about 3 s, and some 12-crossing diagrams from random Reidemeister
walks take 4 s (Python 3.11, one core of a 2-vCPU x86-64 VM).  Results
are cached on the relabelled Gauss code for the length of one call
only.
"""

from knots import (
    ConwayPoly,
    DomainError,
    canonical_key,
    crossing_change,
    smooth,
    violations,
)

CROSSING_CAP = 14

ONE = ConwayPoly((1,))
ZERO = ConwayPoly()


def skein_conway(d):
    """Conway polynomial of ``d`` by the skein recursion.

    Raises:
        DomainError: if ``d`` has more than ``CROSSING_CAP`` crossings.
    """
    if d.n_crossings > CROSSING_CAP:
        raise DomainError(
            f"skein oracle is capped at {CROSSING_CAP} crossings, got {d.n_crossings}"
        )
    cache = {}

    def rec(d):
        key = canonical_key(d)
        hit = cache.get(key)
        if hit is not None:
            return hit
        vio = violations(d)
        if not vio:
            value = ONE if d.n_components == 1 else ZERO
        else:
            a = vio[0]
            changed = rec(crossing_change(d, a))
            smoothed = rec(smooth(d, a)).shifted()
            # d is K+ when A is positive: C(K+) = C(K-) + t C(K0).
            value = changed + smoothed if d.signs[a] > 0 else changed - smoothed
        cache[key] = value
        return value

    return rec(d)
