"""The two-pass diagram validation that ``Diagram.__init__`` replaced,
for tests only.

``Diagram`` checks a code and records where each crossing's passes lie
in one sweep; this first checks the code and builds the sign map, then
walks the components again for the pass locations.
"""

from knots import OVER, UNDER, ConsistencyError


def validate(components):
    """(signs, locate) of ``components``, or ConsistencyError for the
    first fault ``Diagram`` should report."""
    seen = {}  # crossing -> {role: sign}
    for comp in components:
        for p in comp:
            if isinstance(p.crossing, bool) or not isinstance(p.crossing, int):
                raise ConsistencyError(f"crossing label {p.crossing!r} is not an integer")
            if p.crossing < 1:
                raise ConsistencyError(f"crossing label {p.crossing} is not positive")
            if p.role not in (OVER, UNDER):
                raise ConsistencyError(f"bad role {p.role!r} at crossing {p.crossing}")
            if p.sign not in (1, -1):
                raise ConsistencyError(f"bad sign {p.sign!r} at crossing {p.crossing}")
            roles = seen.setdefault(p.crossing, {})
            if p.role in roles:
                raise ConsistencyError(
                    f"crossing {p.crossing} passed twice with role {p.role}"
                )
            roles[p.role] = p.sign
    signs = {}
    for label, roles in seen.items():
        if set(roles) != {OVER, UNDER}:
            missing = UNDER if OVER in roles else OVER
            raise ConsistencyError(f"crossing {label} has no {missing} pass")
        if roles[OVER] != roles[UNDER]:
            raise ConsistencyError(f"crossing {label} has inconsistent signs")
        signs[label] = roles[OVER]
    locate = {}
    for ci, comp in enumerate(components):
        for k, p in enumerate(comp):
            locate.setdefault(p.crossing, {})[p.role] = (ci, k)
    return signs, locate
