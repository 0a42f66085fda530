"""Combinatorial knot and link diagrams with low-order invariants.

Diagrams are signed oriented Gauss codes; on top of them the package
provides Reidemeister moves with randomized invariance fuzzing, linking
numbers, Arf and Casson invariants via skew pairs, the Conway polynomial
of knots and links (one Alexander-matrix minor, with a sign read off
the diagram), Fox p-colorings (the Fox matrix at t = -1; one sparse
elimination kernel, unit steps and then fraction-free steps, takes the
Conway minor and the coloring matrix, whose unit steps over Z every
prime shares), chord diagrams and finite-order invariant checks, and
spatial geometry for linked triangles and the seven-point theorem, on
exact orientation predicates (a float filter with a rational fallback).
"""

from .errors import (
    ConsistencyError,
    DegeneracyError,
    DomainError,
    GenericityFailure,
    InvalidSiteError,
    KnotsError,
    NonPlanarError,
    NotAKnotError,
    ParseError,
    UnknownCrossingError,
    UnknownNameError,
)
from .codes import (
    OVER,
    UNDER,
    Diagram,
    Pass,
    canonical_key,
    crossing_change,
    from_text,
    genus,
    is_realizable,
    mirror,
    permute_components,
    reverse_all,
    reverse_component,
    to_text,
)
from .moves import (
    DEFAULT_WEIGHTS,
    MoveSite,
    WalkPlan,
    connected_sum,
    disjoint_union,
    enumerate_sites,
    random_walk,
    smooth,
)
from .moves import apply as apply_move
from .linking import LinkingReport, linking_matrix, lk, lk2
from .arf_casson import arf, casson
from .conway import (
    ConwayPoly,
    coefficient,
    conway,
    is_descending,
    violations,
)
from .colorings import ColoringCount, count_colorings, is_colorable
from .vassiliev import (
    ChordDiagram,
    SingularDiagram,
    check_1t,
    check_4t,
    enumerate_chord_diagrams,
    extend,
    realize,
    resolutions,
    sigma,
    symbol,
)
from .spatial import (
    ProjectionResult,
    SpatialLink,
    project,
    triangles_linked,
    verify_seven_points,
    verify_six_points,
)
from . import catalog

__version__ = "0.1.0"

# The public names are those the imports above bind, less underscore names
# and the submodules that ``from .x import ...`` binds on the way there;
# ``catalog`` is the one public submodule.
_SUBMODULES = "errors codes moves linking arf_casson colorings vassiliev spatial".split()
__all__ = sorted(name for name in globals() if not name.startswith("_") and name not in _SUBMODULES)
