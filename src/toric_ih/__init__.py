"""Exact combinatorial invariants of toric varieties and toric hypersurfaces.

From the lattice data of a rational polytope this package computes, in exact
arithmetic throughout: the face lattice and dual fan; local intersection
complex stalk polynomials via the truncated face-interval recursion; global
intersection cohomology classes; lattice-point and Ehrhart counting with
reciprocity; the frontier Hodge numbers, genus and curve classes of
non-degenerate hypersurfaces with the given Newton polytope; and prime
cuttings / single-vertex blow-ups with their limit face maps.
"""

from .counting import (
    ConeOverPolytope,
    CountReport,
    cone_over_polytope,
    count_report,
    ehrhart_eval,
    ehrhart_polynomial,
    face_counts,
    interior_lattice_points,
    lattice_count,
    lattice_points,
    reciprocity_check,
    skeleton_count,
)
from .cutting import (
    BlowupResult,
    CutResult,
    CutSpec,
    choose_cut_functionals,
    prime_cut,
    vertex_blowup,
)
from .errors import (
    EmptyPolyhedronError,
    EpsilonUnstableError,
    InvariantViolation,
    NonIntegralSpanError,
    NotFullDimensionalError,
    NotPointedError,
    NotUnimodularError,
    ParseError,
    PoincareDualityError,
    ToricError,
    UnboundedError,
    UnsupportedShapeError,
)
from .hypersurface import (
    EPoly2,
    HodgeTable,
    MonomialSupport,
    alternating_identity_holds,
    closed_open_transform,
    curve_e_polynomial,
    euler_relation_check,
    frontier_crosscheck,
    frontier_hodge,
    geometric_genus_count,
    high_weight_table,
    newton_polytope,
    prime_cut_multipliers,
    support_by_face,
    tate_to_e,
    torus_class,
)
from .lattice import (
    AffineLatticeFrame,
    primitive,
    unimodular_image,
)
from .polytope import (
    Face,
    FaceLattice,
    Fan,
    Polytope,
    is_prime,
    is_smooth_cone,
    normal_fan,
)
from .stalks import (
    StalkEntry,
    SummandTable,
    TatePoly,
    decomposition_summands,
    global_ih_class,
    h_polynomial_from_f_vector,
    ih_betti_numbers,
    primitive_parts,
    punctured_cone_classes,
    stalk_polynomials,
    stalk_table,
)

__version__ = "0.1.0"
