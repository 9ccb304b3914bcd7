"""The consistency identities the structure theorem predicts, written once.

An entry is (label, applies, holds): applies(p) says whether the identity is
defined on the polyhedron p, holds(p, lattice) evaluates it on p and its face
lattice.  Library functions are looked up through their modules at call
time, so a test can replace one and watch the rows change.
"""

from __future__ import annotations

from . import counting, cutting, hypersurface, stalks
from .lattice import primitive
from .polytope import is_prime


def facet_normal_sum(p):
    """Primitive sum of the facet normals: interior to the dual cone of a cone."""
    return primitive(tuple(sum(a[i] for a, _ in p.rows) for i in range(p.n)))


def at_apex(p):
    """The polyhedron translated so that its first vertex (a cone's apex) is the origin."""
    return p.translate(tuple(-c for c in p.vertices[0]))


def _figure_summands(p):
    """Summand entries (2k, h_k - g_k, -k) of a cone read off its blow-up figure.

    h is the global class of the figure cut at level 1 along the facet normal
    sum (the cone moved to have its vertex at the origin), g its primitive part.
    """
    fig = cutting.vertex_blowup(at_apex(p), facet_normal_sum(p), 1).figure
    h = stalks.global_ih_class(fig.face_lattice())
    g = stalks.primitive_parts(h, p.n - 1)
    return tuple((2 * k, h.coeff(k) - g.coeff(k), -k)
                 for k in range(p.n) if h.coeff(k) != g.coeff(k))


def _palindromic_unimodal(p, lat):
    h = stalks.global_ih_class(lat)
    return h.is_palindromic(lat.n) and h.is_unimodal_to_middle(lat.n)


def _skeleton_decomposition(p, lat):
    edge_interiors = sum(counting.face_counts(lat)[f.id][1] for f in lat.of_dim(1))
    return counting.skeleton_count(lat) == len(lat.of_dim(0)) + edge_interiors


def _punctured_duality(p, lat):
    ih, ihc = stalks.punctured_cone_classes(lat)
    return ih + ihc == stalks.TatePoly.zero()


def _always(p):
    return True


COMPACT = (
    ("euler relation", _always, lambda p, lat: hypersurface.euler_relation_check(lat)[0]),
    ("euler characteristic", _always, lambda p, lat: sum((-1) ** f.dim for f in lat.faces) == 1),
    ("global class palindromic+unimodal", _always, _palindromic_unimodal),
    ("reciprocity", lambda p: p.is_lattice, lambda p, lat: counting.reciprocity_check(p, kmax=2)),
    ("skeleton decomposition", lambda p: p.is_lattice, _skeleton_decomposition),
    ("frontier crosscheck", lambda p: p.is_lattice and p.n >= 2,
     lambda p, lat: hypersurface.frontier_crosscheck(p, lat)),
    ("prime has trivial stalks", is_prime,
     lambda p, lat: all(m == stalks.ONE for m in stalks.stalk_polynomials(lat).values())),
    ("h-polynomial oracle", is_prime,
     lambda p, lat: stalks.h_polynomial_from_f_vector(lat.f_vector) == stalks.global_ih_class(lat)),
    ("alternating identity", _always, lambda p, lat: hypersurface.alternating_identity_holds(
        lat, {f.id: (f.id + 1) * (f.dim + 1) for f in lat.faces})),
)

CONES = (
    ("punctured duality", _always, _punctured_duality),
    ("summand symmetry", _always,
     lambda p, lat: stalks.decomposition_summands(lat).entries == _figure_summands(p)),
)

PRIME_CUT = (
    ("prime cut is prime", _always, lambda p, lat: is_prime(cutting.prime_cut(p).polytope)),
)


def evaluate(entries, name, p):
    """Rows [f"{name}: {label}", result] for the entries that apply to p.

    result is "pass", "FAIL", or "ERROR: <type>: <message>" when the entry
    raised; an entry that raises does not stop the ones after it.
    """
    rows = []
    for label, applies, holds in entries:
        try:
            if not applies(p):
                continue
            result = "pass" if holds(p, p.face_lattice()) else "FAIL"
        except Exception as exc:  # one broken identity must not hide the others
            result = f"ERROR: {type(exc).__name__}: {exc}"
        rows.append([f"{name}: {label}", result])
    return rows
