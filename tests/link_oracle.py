"""Reference Conway polynomial of links by crossing changes, for tests only.

Walk the components in order, each from pass 0.  Changing, in visit
order, each crossing between two components that is first met from
below stacks the components, which splits the link (polynomial 0).  The
skein relation C(K+) - C(K-) = t C(K0) at each change sums C(L) from
+-t C(smoothing), a link with one component fewer, so the recursion ends
at knots.  A free loop splits the link too.

Knots are evaluated with ``knots.conway``, which checks its sign rule
there through C(0) = 1, so this oracle checks the sign of the link
minors.  It costs about n^(m-1) knot determinants for m components and n
crossings: seconds past about 75 crossings on two components.
"""

from knots import OVER, UNDER, ConwayPoly, conway, crossing_change, smooth, violations

ZERO = ConwayPoly()


def link_conway(d):
    """Conway polynomial of the planar diagram ``d`` by crossing changes."""
    if d.n_components == 1:
        return conway(d)
    if d.free_loops:
        return ZERO
    total = ZERO
    for v in violations(d):
        if d.locate[v][OVER][0] != d.locate[v][UNDER][0]:
            term = link_conway(smooth(d, v)).shifted()
            total = total + term if d.signs[v] > 0 else total - term
            d = crossing_change(d, v)
    return total
