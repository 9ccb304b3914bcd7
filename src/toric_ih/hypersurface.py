"""Hodge-number bookkeeping for non-degenerate toric hypersurfaces.

The hypersurface itself never appears: non-degeneracy is an input assumption
and every quantity here is computed from the Newton polytope's lattice data.
Classes of mixed Hodge structures are tracked as two-variable integer
polynomials E(u, v) (``EPoly2``, the (u, v) case of the sparse integer ring
``stalks.IntPoly``), with the Tate class represented as L = uv, so a Tate
class h(t) lands here as h(uv).

With n the polytope dimension, l* the interior lattice count of a face and
Pi the number of lattice points on the 1-skeleton:

* the compactly supported cohomology above the middle degree is forced by
  weak Lefschetz into a fixed binomial table (high_weight_table);
* the (p, 0) edge of the middle degree is sum of l* over faces of dimension
  p + 1 for p > 0, and Pi - 1 for p = 0 (frontier_hodge);
* the geometric genus is the interior count of the whole polytope.

The closed/open stratification transform and the prime-cut multipliers are
the exact bookkeeping identities that let the middle weights be chased
through a toric quasi-resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import mul

from .counting import face_counts, lattice_count, skeleton_count
from .errors import NotFullDimensionalError, UnboundedError
from .lattice import _require_length, lattice_vector
from .polytope import FaceLattice, Polytope
from .stalks import IntPoly, TatePoly


class EPoly2(IntPoly):
    """Integer polynomial in (u, v): Hodge-Deligne class bookkeeping.

    Immutable; built from a dict or pairs ((p, q), c).  Coefficient of
    u^p v^q is the signed count of (p, q) pieces; classes of real Hodge
    structures arising here are symmetric under u <-> v.  Printed by
    descending total degree.
    """

    __slots__ = ()
    _vars = ("u", "v")
    _order = staticmethod(lambda exps: (-sum(exps), exps))

    @classmethod
    def lefschetz(cls):
        """The class L = uv of the weight-two Tate structure."""
        return cls({(1, 1): 1})

    @classmethod
    def monomial(cls, p, q, c=1):
        return cls({(p, q): c})

    def is_uv_symmetric(self) -> bool:
        return all(self.coeff(q, p) == c for (p, q), c in self._d.items())


def tate_to_e(h: TatePoly) -> EPoly2:
    """Substitute t -> uv, landing Tate classes in the two-variable ring."""
    return EPoly2({(k, k): c for k, c in enumerate(h.coeffs)})


def torus_class(d: int) -> EPoly2:
    """Class of the compactly supported cohomology of a d-torus: (uv - 1)^d."""
    if d < 0:
        raise ValueError("torus dimension must be nonnegative")
    return (EPoly2.lefschetz() - 1) ** d


@dataclass(frozen=True)
class MonomialSupport:
    """The exponent set of a Laurent polynomial (duplicates collapsed)."""

    exponents: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, points) -> "MonomialSupport":
        pts = sorted(set(lattice_vector(p) for p in points))
        if not pts:
            raise ValueError("empty support")
        if len(set(len(p) for p in pts)) != 1:
            raise ValueError("exponents of mixed dimension")
        return cls(tuple(pts))

    @property
    def n(self) -> int:
        return len(self.exponents[0])

    def __iter__(self):
        return iter(self.exponents)

    def __len__(self):
        return len(self.exponents)


def newton_polytope(support: MonomialSupport) -> Polytope:
    """Convex hull of the exponent set; its vertices are support points."""
    return Polytope.from_points(support.exponents)


def support_by_face(support: MonomialSupport, lattice: FaceLattice) -> list[tuple]:
    """The support points lying on each face of the Newton polytope, by face
    id.  Each point's tight rows are read once, as a mask (row j bit j) off
    its int row values, and the point lies on a face when that mask holds
    the face's ``_active``.  Raises ValueError when a point lies outside the
    polytope.
    """
    p = lattice.polytope
    _require_length(support.exponents[0], p.n)
    tight = []
    for m in support.exponents:
        vals = [sum(map(mul, a, m)) - b for a, b in p.rows]
        if min(vals) < 0:
            raise ValueError("support point outside the polytope")
        tight.append((m, sum(1 << j for j, s in enumerate(vals) if not s)))
    return [tuple(m for m, t in tight if t & a == a) for a in lattice._active]


@dataclass(frozen=True)
class HodgeTable:
    """Compactly supported Hodge numbers pinned above the middle degree.

    Entries are (degree j, p, q, value) with j > n - 1.  Everything below the
    middle degree vanishes, as does the off-diagonal part above it; within
    the middle degree only weights at most n - 1 survive.
    """

    n: int
    entries: tuple[tuple[int, int, int, int], ...]

    def known_value(self, j: int, p: int, q: int):
        """Value when the table pins it; None when only the middle-degree
        analysis (not this table) can decide."""
        n = self.n
        for jj, pp, qq, val in self.entries:
            if (jj, pp, qq) == (j, p, q):
                return val
        if j < n - 1:
            return 0
        if j == n - 1:
            return 0 if p + q > n - 1 else None
        return 0  # above the middle: off-diagonal or out of the ladder


def high_weight_table(n: int) -> HodgeTable:
    """The forced binomial ladder of Hodge numbers above the middle degree."""
    if n < 2:
        raise ValueError("need ambient dimension at least 2")
    entries = []
    for i in range(n - 1):
        entries.append((2 * n - 2 - i, n - 1 - i, n - 1 - i, comb(n, i)))
    return HodgeTable(n, tuple(entries))


def _require_lattice_polytope(p: Polytope):
    if not p.is_compact:
        raise UnboundedError("unbounded input")
    if not p.is_lattice:
        raise ValueError("need a lattice polytope (integral vertices)")


def geometric_genus_count(p: Polytope) -> int:
    """Interior lattice-point count (face 0 of ``face_counts``): the geometric genus."""
    _require_lattice_polytope(p)
    return face_counts(p.face_lattice())[0][1]


def frontier_hodge(p: Polytope, lattice: FaceLattice | None = None,
                   components: int = 1) -> dict[int, int]:
    """The (p, 0) edge of the middle compactly supported cohomology.

    Returns {p: h} for p = 0 .. n-1: the sum of interior counts over faces of
    dimension p + 1 for p > 0, and the skeleton count minus the number of
    components of the compactified hypersurface (1 unless overridden) at
    p = 0.
    """
    _require_lattice_polytope(p)
    if components < 1:
        raise ValueError(f"component count must be at least 1, not {components}")
    if p.n < 2:
        raise NotFullDimensionalError("need a polytope of dimension at least 2; "
                                      "reduce to affine span first")
    lattice = lattice or p.face_lattice()
    counts = face_counts(lattice)
    out = {pp: sum(counts[f.id][1] for f in lattice.of_dim(pp + 1)) for pp in range(1, p.n)}
    out[0] = skeleton_count(lattice) - components
    return out


def euler_relation_check(lattice: FaceLattice):
    """Alternating face counts over every proper face.

    For each proper face F, sum of (-1)^codim over the faces containing F
    must vanish; returns (all_ok, violations).  The sum is read off F's
    up-set bitmask: its size less twice the faces in it of odd codimension.
    """
    odd = sum(1 << f.id for f in lattice.faces if f.codim & 1)
    violations = []
    for f in lattice.faces:
        if f.codim == 0:
            continue
        up = lattice.up_set(f.id)
        s = up.bit_count() - 2 * (up & odd).bit_count()
        if s != 0:
            violations.append((f.id, s))
    return not violations, tuple(violations)


def closed_open_transform(lattice: FaceLattice, assignment: dict, direction: str) -> dict:
    """Convert between per-stratum (open) and per-closure (closed) classes.

    open -> closed sums a value over all faces below; closed -> open is the
    inverse.  The assignment must cover every face; values only need + and -.
    """
    missing = [f.id for f in lattice.faces if f.id not in assignment]
    if missing:
        raise ValueError(f"partial assignment: missing faces {missing}")
    if direction == "open_to_closed":
        out = {}
        for f in lattice.faces:
            acc = assignment[f.id]
            for g in lattice.faces_below(f.id):
                acc = acc + assignment[g.id]
            out[f.id] = acc
        return out
    if direction == "closed_to_open":
        out = {}
        for f in sorted(lattice.faces, key=lambda x: x.dim):
            acc = assignment[f.id]
            for g in lattice.faces_below(f.id):
                acc = acc - out[g.id]
            out[f.id] = acc
        return out
    raise ValueError(f"unknown direction {direction!r}")


def alternating_identity_holds(lattice: FaceLattice, assignment: dict) -> bool:
    """Does the open class of the top face equal the signed sum of closures?

    True for every assignment; this is the numerical shadow of the Euler
    relation on face counts.
    """
    closed = closed_open_transform(lattice, assignment, "open_to_closed")
    acc = None
    for f in lattice.faces:
        term = closed[f.id] if f.codim % 2 == 0 else -closed[f.id]
        acc = term if acc is None else acc + term
    return acc == assignment[lattice.top.id]


def frontier_crosscheck(p: Polytope, lattice: FaceLattice | None = None) -> bool:
    """Re-derive the frontier numbers of frontier_hodge by other routes.

    Their total: Danilov and Khovanskii give (-1)^(n-1) e^0, with e^0 the
    sum over q of e^(0,q), from interior counts of the dilates of P alone:
    n + sum over i < n of (-1)^i C(n+1, i) l*((n-i)P); by u <-> v symmetry
    it is the sum of the (p, 0) numbers.  The p = 0 number, Pi - 1, is also
    #vertices - 1 + the edge interior counts of face_counts.
    """
    lattice = lattice or p.face_lattice()
    n, counts = p.n, face_counts(lattice)
    frontier = frontier_hodge(p, lattice)
    subtotal = n + sum((-1) ** i * comb(n + 1, i) * lattice_count(p, n - i, strict=True)
                       for i in range(n))
    edge_interiors = sum(counts[f.id][1] for f in lattice.of_dim(1))
    return (sum(frontier.values()) == subtotal
            and frontier[0] == len(lattice.of_dim(0)) - 1 + edge_interiors)


def prime_cut_multipliers(cut, lattice: FaceLattice, cut_lattice: FaceLattice) -> dict:
    """Per-face multiplier classes of a prime cutting.

    For each face of the original polytope, sums (L-1)^(dim drop) over the
    faces of the cut polytope degenerating onto it, by the face map of the
    ``CutResult`` ``cut``; evaluated at L = 1 this counts the equal-dimension
    preimages.  Raises ValueError when the map misses a face of
    ``cut_lattice`` or sends one to a larger face of ``lattice``.
    """
    face_map = cut.face_map
    missing = [f.id for f in cut_lattice.faces if f.id not in face_map]
    if missing:
        raise ValueError(f"face map not total: missing faces {missing}")
    lm1 = EPoly2.lefschetz() - 1
    powers = [lm1 ** k for k in range(cut_lattice.n + 1)]  # (L-1)^drop, drop <= n
    out = {f.id: EPoly2.zero() for f in lattice.faces}
    for tau in cut_lattice.faces:
        sigma = face_map[tau.id]
        drop = tau.dim - lattice.faces[sigma].dim
        if drop < 0:
            raise ValueError("face map increases codimension the wrong way")
        out[sigma] = out[sigma] + powers[drop]
    return out


def curve_e_polynomial(p: Polytope, components: int = 1) -> EPoly2:
    """Class of the compactly supported cohomology of the punctured curve cut
    out by a two-dimensional Newton polytope, from ``frontier_hodge``'s h:

        E = uv - h(1)(u + v) - h(0) = uv - l*(u + v) + (components - Pi).
    """
    _require_lattice_polytope(p)
    if p.n != 2:
        raise ValueError("need a two-dimensional polytope")
    h = frontier_hodge(p, components=components)
    return EPoly2.lefschetz() - h[1] * (EPoly2.monomial(1, 0) + EPoly2.monomial(0, 1)) - h[0]
