"""Exact classification toolkit for smooth minimal monomial Togliatti systems of cubics.

Decides, in exact arithmetic, whether a monomial system of cubics fails the
weak Lefschetz property in degree 2, whether it is a minimal Togliatti system
(unique hyperquadric through the apolar points missing every generator), and
whether the apolar points define a smooth toric variety; enumerates all
minimal smooth classes at small n and verifies the classification theorem.
"""

from .classify import (
    ClassificationResult,
    check_command,
    enumerate_minimal_smooth,
    verify_theorem,
)
from .errors import (
    BudgetExhaustedError,
    InternalError,
    InvalidArgumentError,
    ParseError,
    PreconditionError,
    StructureFailureError,
    TogliattiError,
)
from .family import (
    equality_partitions,
    family_system,
    member_partition,
    mu_formula,
    valid_partitions,
    witness_quadric,
)
from .graphs import build_gp, extract_partition
from .lefschetz import (
    QuadricForm,
    build_multiplication_map,
    cardinality_ok,
    fails_wlp_in_degree_dminus1,
    is_minimal_togliatti,
    laplace_delta,
    quadric_space,
    restricted_dependence,
)
from .monomials import (
    MonomialSystem,
    PartitionSpec,
    canonical_form,
    lattice_points_simplex,
    parse_system,
    serialize,
)
from .polytope import (
    LatticePolytopeModel,
    SmoothnessCertificate,
    contains_all_simplex_vertices,
    hull_structure,
    is_smooth,
    smoothness_check,
    spanned_lattice,
    spans_full_lattice,
)

__version__ = "0.1.0"
