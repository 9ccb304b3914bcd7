"""Rational polytopes and pointed polyhedra.

A ``Polytope`` carries both representations in canonical form: the vertex
representation (extreme points plus primitive extreme rays) and the facet
representation (irredundant inequalities ``<u, a> >= b`` with primitive
integer ``(a, b)``).  Both conversions run one polar routine on a
homogenized cone: the extreme rays of {x : <c, x> >= 0}, found by an integer
double description that adds the constraints c one at a time and combines
adjacent rays across each new hyperplane, with tight sets as int bitmasks.
V->H takes the generators (v, 1) and (r, 0) as constraints, so the rays are
the facet rows; H->V takes the rows (a, -b) plus (0, ..., 0, 1), so the rays
(u, t) are the vertices u/t (t > 0) and the rays u (t = 0).  Rank is decided
once, in the double description's pick of d independent constraints to
start from: fewer than d means the input is not full-dimensional (V->H) or
not pointed (H->V).  Every other fact is read off the tight bitmasks: a
constraint tight on every ray is an implicit equality (V->H: not pointed;
H->V: not full-dimensional), and a shared filter keeps the constraints whose
sets of tight rays are maximal, the extreme generators (V->H) or the facet
rows (H->V).  Both directions work in plain ints only: a vertex is kept as
the primitive integer point (x, t), t > 0, that the double description
finds (V->H homogenizes each input point to it), and the vertices sort on
the int keys x * (den // t), den the lcm of the t (``_scaled``), which sort
as the points x / t do.  The Fraction vertices x / t are a view, built on
first read.  H->V runs in two stages: ``hull_of_rows`` is the integer
stage (canonical rows, hull rays, tight bitmasks, facet indices, and every
error), and ``Polytope.from_hull`` builds the polytope from its result;
``from_inequalities`` is the two in sequence, and the prime cut decides its
rounds on the first stage alone.  Given a pointed polytope whose rows are
among the input rows, ``hull_of_rows`` starts the double description from
that polytope's homogenized cone, read off its face lattice, instead of a
simplicial cone, and adds only the other rows; the result is the same.
Faces are canonically identified by their maximal tight row set.

The face lattice comes from the generator-facet incidences in plain ints, as
int bitmasks of generators per facet row.  A ``Polytope`` holds canonical
data plus a function that gives those incidences, and every constructor
hands over both: ``from_points`` and ``from_hull`` the double description's
own tight bitmasks, which the lattice's first build maps to the sorted
generator order; ``translate``, ``dilate`` and ``apply_unimodular`` are
``from_points`` of the mapped generators; and the cone over a polytope
(``counting.cone_over_polytope``) reads its incidences off the polytope's
own.  No row is paired with a vertex.  A level-by-level search from the
polytope intersects each face with each facet, and the inclusion-maximal
nonempty results are the face's lower covers (Kaibel & Pfetsch 2002).  A
face's dimension is n minus its cover depth below the polytope;
``normal_fan`` checks it against the rank of the face's active rows'
normals.  Up- and down-sets are bitmasks over face ids, unioned along the
covers on first use.  The lattice's ``minimizing_vertices`` and ``maximum``
read the vertices on their common scale (``_scaled``), also made on first
use, for the bitmask of vertices where an integer functional is least and
for its greatest value; lattice-point counts read their boxes off the same
integers (``_integer_box``).

Only full-dimensional pointed polyhedra are supported (plus the ambient-rank
zero point, which the cone-over-a-polytope construction needs); callers with
lower-dimensional data reduce to the affine span first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import combinations
from math import gcd, lcm
from operator import and_, mul

from .errors import (
    EmptyPolyhedronError,
    InvariantViolation,
    NotFullDimensionalError,
    NotPointedError,
    NotUnimodularError,
    UnboundedError,
)
from .lattice import (
    as_rat,
    det_int,
    dot,
    identity_rows,
    integerize,
    lattice_vector,
    mat_rank,
    mat_vec,
    primitive,
    rat_vector,
)


def normalize_row(a, b):
    """Canonical primitive integer form of the inequality <u, a> >= b."""
    coeffs = integerize((*a, b))
    g = gcd(*coeffs)
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
    return coeffs[:-1], coeffs[-1]


def _bits(m):
    """Positions of the set bits of the int m, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def _simplicial_start(cons, d):
    """The cold start of ``_extreme_rays``: the simplicial cone of the first d
    independent constraints (the routine's one rank decision), in one
    fraction-free Gauss-Jordan pass.  The pass keeps its row operations E,
    so the current column of a constraint c is E c: c is independent of the
    constraints picked before it when E c is nonzero off their pivot rows,
    and pivoting on it keeps every entry an integer minor.  With the d picked
    constraints as the rows of B it ends at E = D B^-T, D = +-det B: the row
    of E at a constraint's pivot is orthogonal to the other d - 1 and D on
    it, a start ray.  Returns (rays, done) as ``_extreme_rays`` takes them;
    raises ValueError when the constraints have rank below d."""
    e = identity_rows(d)
    free = list(range(d))  # the rows not pivoted on yet
    picked = []  # (constraint index, pivot row)
    prev = 1
    for j, c in enumerate(cons):
        col = [sum(map(mul, row, c)) for row in e]
        i = next((i for i in free if col[i]), None)
        if i is None:
            continue
        p, prow = col[i], e[i]
        e = [row if r == i else [(p * x - col[r] * y) // prev for x, y in zip(row, prow)]
             for r, row in enumerate(e)]
        prev = p
        free.remove(i)
        picked.append((j, i))
        if not free:
            break
    else:
        raise ValueError("the constraints do not cut out a pointed cone")
    done = sum(1 << j for j, _ in picked)
    rays = []
    for j, i in picked:
        g = gcd(*e[i]) if prev > 0 else -gcd(*e[i])
        rays.append((tuple(x // g for x in e[i]), done ^ 1 << j))
    return rays, done


def _extreme_rays(cons, d, start=None):
    """Primitive extreme rays of the pointed cone {x in Q^d : <c, x> >= 0 for c in cons}.

    Integer double description (Motzkin, Raiffa, Thompson & Thrall 1953;
    Fukuda & Prodon 1996).  It starts from the extreme rays of a pointed
    cone cut out by some of the constraints and adds the others one at a
    time: the rays on the nonnegative side stay, and each adjacent pair of a
    positive ray r1 and a negative ray r2 gives the ray
    <c, r1> r2 - <c, r2> r1 on the new hyperplane, divided by its gcd.  Each
    ray carries its tight set, an int bitmask over cons (constraint i is
    bit i); two rays are adjacent when their common tight set has at least
    d - 2 bits and lies in no third ray's tight set.

    ``start`` is (rays, done): ``done`` the bitmask of the constraints
    already added, ``rays`` the primitive extreme rays of the cone they cut
    out, each with its tight set over them.  It defaults to the simplicial
    cone of ``_simplicial_start``; a start changes the work, never the
    result.

    Returns (rays, tight): the rays sorted, and tight[k] the bitmask of the
    constraints tight on rays[k].  Raises ValueError, and only for this,
    when the constraints have rank below d (the cone is not pointed).
    """
    rays, done = _simplicial_start(cons, d) if start is None else start
    for i, c in enumerate(cons):
        bit = 1 << i
        if done & bit:
            continue
        kept, pos, neg = [], [], []
        for r, z in rays:
            val = sum(map(mul, c, r))
            if val > 0:
                pos.append((r, z, val))
                kept.append((r, z))
            elif val < 0:
                neg.append((r, z, val))
            else:
                kept.append((r, z | bit))
        # r1 and r2 hold common, and distinct rays have distinct tight sets,
        # so a third ray holds it when more than two do
        zs = [z for _, z in rays]
        for r1, z1, v1 in pos:
            for r2, z2, v2 in neg:
                common = z1 & z2
                if common.bit_count() < d - 2 or [*map(common.__and__, zs)].count(common) > 2:
                    continue
                w = tuple(v1 * b - v2 * a for a, b in zip(r1, r2))
                g = gcd(*w)
                kept.append((tuple(x // g for x in w), common | bit))
        rays = kept
    rays.sort()
    return [r for r, _ in rays], [z for _, z in rays]


def _cone_start(p, cons):
    """The start of ``_extreme_rays`` at the homogenized cone of the pointed
    polytope p, whose canonical rows (a, b) are all among cons as (a, -b),
    with the homogenizing row last: p's own generators, with their tight
    sets remapped from p's rows to cons."""
    at = {c: 1 << i for i, c in enumerate(cons)}
    bits = [at[a + (-b,)] for a, b in p.rows]
    hom = 1 << len(cons) - 1
    rays = [(w, sum(bits[j] for j in rows) | (0 if w[-1] else hom))
            for w, rows in p.face_lattice()._cone]
    return rays, sum(bits) | hom


def _irredundant(cons, tight):
    """Indices of the constraints whose set of tight rays is not a strict
    subset of another constraint's set.

    ``tight`` holds the tight bitmasks of the extreme rays of a
    full-dimensional pointed cone {x : <c, x> >= 0}, and its faces are told
    apart by their rays; so constraint i is tight on a facet exactly when no
    other constraint is tight on a strictly larger set of rays, which is the
    same as its tight rays having rank d - 1.  Read for the polar cone of a
    generator set, this picks the extreme generators; read for the cone
    itself, the facet-defining constraints.
    """
    masks = [0] * len(cons)
    for k, z in enumerate(tight):
        for i in _bits(z):
            masks[i] |= 1 << k
    distinct = set(masks)
    return [i for i, s in enumerate(masks) if [*map(s.__and__, distinct)].count(s) == 1]


def _points_row_gens(duals, tight, keep, p):
    """row_gens of a V->H hull: tight[k] is the generator set of the facet
    row duals[k] over the hull's constraints, whose extreme ones (``keep``,
    or all when None) already sit in the polytope's generator order."""
    masks = [z for w, z in zip(duals, tight) if any(w[:p.n])]
    if keep is None:
        return masks
    newbit = {i: 1 << t for t, i in enumerate(keep)}
    return [sum(newbit.get(i, 0) for i in _bits(m)) for m in masks]


def _scaled(ws):
    """(den, xs) for homogenized points w = (x, t), t > 0: den the lcm of
    the t, and xs[i] the int tuple x * (den // t) of ws[i], which is den
    times x / t; so the xs sort, and pair with integer functionals, as the
    points x / t do."""
    den = lcm(*(w[-1] for w in ws))
    return den, [tuple(x * (den // w[-1]) for x in w[:-1]) for w in ws]


def _integer_box(ws, k=1):
    """Smallest integer box (lo, hi) holding every lattice point of k times
    the hull of the homogenized points ws: lo the least ceil(k x / t), hi
    the greatest floor(k x / t), coordinate by coordinate."""
    den, xs = _scaled(ws)
    cols = list(zip(*xs))
    return (tuple(-(-k * min(c) // den) for c in cols),
            tuple(k * max(c) // den for c in cols))


def _rows_row_gens(tight, facets, order, p):
    """row_gens of an H->V hull: transpose the rays' tight sets onto the
    facet constraints, sending hull ray order[i] to generator bit i."""
    newbit = {k: 1 << i for i, k in enumerate(order)}
    by_cons = dict.fromkeys(facets, 0)
    fbits = sum(1 << i for i in facets)
    for k, z in enumerate(tight):
        b = newbit[k]
        for i in _bits(z & fbits):
            by_cons[i] |= b
    return list(by_cons.values())


def hull_of_rows(rows, start=None):
    """The integer stage of ``Polytope.from_inequalities``: (n, cons, hull,
    tight, facets).

    ``cons`` holds the sorted canonical rows (a, b) as (a, -b), then
    (0, ..., 0, 1); ``hull`` and ``tight`` are the extreme rays (x, t) of the
    homogenized cone and their tight bitmasks over cons; ``facets`` are the
    indices of the facet rows in cons, ascending.  Raises the errors of
    ``from_inequalities``, in the same order.

    ``start``, internal, is a pointed polytope whose canonical rows are all
    among ``rows``: the double description then starts from its homogenized
    cone (``_cone_start``) and adds only the other rows.  The result is the
    same.
    """
    norm = set()
    n = None
    for a, b in rows:
        na, nb = normalize_row(a, b)
        if n is None:
            n = len(na)
        elif len(na) != n:
            raise ValueError("rows of mixed dimension")
        if not any(na):
            if nb > 0:
                raise EmptyPolyhedronError(
                    "empty polyhedron: infeasible row 0 >= %s" % as_rat(b))
            continue  # trivially true
        norm.add((na, nb))
    if not norm and n != 0:  # in ambient rank zero the hull is the point
        raise NotPointedError("not pointed")
    cons = [a + (-b,) for a, b in sorted(norm)] + [(0,) * n + (1,)]
    warm = None if start is None else _cone_start(start, cons)
    try:
        hull, tight = _extreme_rays(cons, n + 1, warm)
    except ValueError:  # the normals have rank below n
        raise NotPointedError("not pointed") from None
    if not any(w[n] for w in hull):
        raise EmptyPolyhedronError("empty polyhedron")
    if reduce(and_, tight):
        raise NotFullDimensionalError(
            "not full-dimensional: a row holds with equality on the whole polyhedron")
    facets = [i for i in _irredundant(cons, tight) if any(cons[i][:n])]
    return n, cons, hull, tight, facets


class Polytope:
    """Immutable rational polytope / pointed polyhedron with both representations."""

    __slots__ = ("n", "homogenized", "rays", "rows", "_vertices", "_faces", "_incidence",
                 "_dilate_counts")

    def __init__(self, n, homogenized, rays, rows, incidence):
        """Store canonical data as given: ``homogenized`` the vertices x / t
        as the primitive int tuples (x, t), t > 0, that the double
        description finds, sorted as the points x / t; ``rays`` the sorted
        primitive int tuples; ``rows`` the sorted primitive facet rows
        (a, b); and ``incidence`` a function of the polytope giving the
        generator bitmask of each row (vertex i is bit i, ray k bit
        len(homogenized) + k), called on the face lattice's first build.
        Nothing is checked, sorted or normalized here: the constructors
        below hand over such data.  ``vertices``, the Fraction tuples x / t,
        is a view built on first read."""
        self.n = n
        self.homogenized = tuple(homogenized)
        self.rays = tuple(rays)
        self.rows = tuple(rows)
        self._vertices = None
        self._faces = None
        self._dilate_counts = {}  # memo of counting.lattice_count, by (k, strict)
        self._incidence = incidence

    @property
    def vertices(self):
        """The vertices as Fraction tuples x / t, in ``homogenized`` order."""
        if self._vertices is None:
            self._vertices = tuple(tuple(Fraction(x, w[-1]) for x in w[:-1])
                                   for w in self.homogenized)
        return self._vertices

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_points(cls, points, rays=()):
        """Convex hull of rational points plus a recession cone of lattice rays.

        Raises NotFullDimensionalError / NotPointedError for the unsupported
        degenerate cases.
        """
        gens = {integerize(tuple(p) + (1,)) for p in points}
        if not gens:
            raise ValueError("need at least one point")
        n = len(next(iter(gens))) - 1
        if any(len(w) != n + 1 for w in gens):
            raise ValueError("points of mixed dimension")
        rr = sorted(set(primitive(r) for r in rays))
        gens = list(gens)
        # distinct primitive (x, t), t > 0, have distinct scaled keys
        cons = [w for _, w in sorted(zip(_scaled(gens)[1], gens))] + [r + (0,) for r in rr]
        try:
            duals, tight = _extreme_rays(cons, n + 1)
        except ValueError:  # the homogenized generators have rank below n + 1
            raise NotFullDimensionalError(
                "not full-dimensional; reduce to affine span first") from None
        if reduce(and_, tight, -1):  # an implicit equality: the dual cone is flat
            raise NotPointedError("not pointed: the recession cone contains a line")
        # cons holds the sorted points, then the sorted rays; and the primitive
        # facets, of distinct normals a, sort alike as (a, -b) and as (a, b)
        rows = [(w[:n], -w[n]) for w in duals if any(w[:n])]
        keep = _irredundant(cons, tight)
        verts = [cons[i] for i in keep if cons[i][n]]
        xrays = [cons[i][:n] for i in keep if not cons[i][n]]
        return cls(n, verts, xrays, rows, partial(_points_row_gens, duals, tight,
                                                  None if len(keep) == len(cons) else keep))

    @classmethod
    def from_inequalities(cls, rows):
        """Polyhedron {u : <u, a> >= b for each row (a, b)}.

        Raises EmptyPolyhedronError / NotPointedError for the unsupported
        degenerate cases, and NotFullDimensionalError when some row is tight
        at every ray of the homogenized cone (an implicit equality).
        """
        return cls.from_hull(*hull_of_rows(rows))

    @classmethod
    def from_hull(cls, n, cons, hull, tight, facets):
        """The polyhedron of a ``hull_of_rows`` result, with the hull's
        incidences kept for its face lattice.

        The vertices (x, t) sort by their ``_scaled`` keys; the rays (x, 0)
        follow in the order ``hull`` already has, and the facets in that of
        the sorted rows in cons.
        """
        order = [k for k, w in enumerate(hull) if w[n]]
        order = [k for _, k in sorted(zip(_scaled([hull[k] for k in order])[1], order))]
        rays = [k for k, w in enumerate(hull) if not w[n]]
        return cls(n, [hull[k] for k in order], [hull[k][:n] for k in rays],
                   [(cons[i][:n], -cons[i][n]) for i in facets],
                   partial(_rows_row_gens, tight, facets, order + rays))

    # -- basic queries -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.n

    @property
    def is_compact(self) -> bool:
        return not self.rays

    @property
    def is_cone_with_vertex(self) -> bool:
        return bool(self.rays) and len(self.homogenized) == 1

    @property
    def is_lattice(self) -> bool:
        return all(w[-1] == 1 for w in self.homogenized)

    def contains(self, point) -> bool:
        p = rat_vector(point)
        return all(dot(a, p) >= b for a, b in self.rows)

    def contains_interior(self, point) -> bool:
        p = rat_vector(point)
        return all(dot(a, p) > b for a, b in self.rows)

    def bounding_box(self):
        """Smallest integer box containing every lattice point of the polytope."""
        if not self.is_compact:
            raise UnboundedError("unbounded polyhedron has no bounding box")
        return _integer_box(self.homogenized)

    def dilate(self, k) -> "Polytope":
        if k <= 0:
            raise ValueError("dilation factor must be positive")
        return Polytope.from_points([tuple(k * c for c in v) for v in self.vertices], self.rays)

    def translate(self, vec) -> "Polytope":
        t = rat_vector(vec)
        return Polytope.from_points([tuple(c + d for c, d in zip(v, t)) for v in self.vertices],
                                    self.rays)

    def apply_unimodular(self, u_rows) -> "Polytope":
        d = det_int(u_rows)
        if d not in (1, -1):
            raise NotUnimodularError(f"not unimodular: determinant {d}")
        return Polytope.from_points([mat_vec(u_rows, v) for v in self.vertices],
                                    [mat_vec(u_rows, r) for r in self.rays])

    def face_lattice(self) -> "FaceLattice":
        if self._faces is None:
            self._faces = FaceLattice(self)
        return self._faces

    def __eq__(self, other):
        return (isinstance(other, Polytope)
                and (self.n, self.homogenized, self.rays, self.rows)
                == (other.n, other.homogenized, other.rays, other.rows))

    def __hash__(self):
        return hash((self.n, self.homogenized, self.rays, self.rows))

    def __repr__(self):
        kind = "polytope" if self.is_compact else "polyhedron"
        return (f"<{self.n}-dim {kind}: {len(self.homogenized)} vertices, "
                f"{len(self.rays)} rays, {len(self.rows)} facets>")


@dataclass(frozen=True)
class Face:
    """A nonempty face, identified by its maximal tight row set."""

    id: int
    dim: int
    codim: int
    active: tuple[int, ...]
    vertex_ids: tuple[int, ...]
    ray_ids: tuple[int, ...]


class FaceLattice:
    """The poset of nonempty faces of a polytope, graded by dimension.

    Face id 0 is the polytope itself; the remaining faces are sorted by
    (dimension, vertex ids, ray ids), which makes reports diff-stable.
    Immutable after construction; queries are pure.
    """

    def __init__(self, polytope: Polytope):
        self.polytope = polytope
        self.n = polytope.n
        self._counts = None  # memo of counting.face_counts
        self._pieces = None  # memo of counting's classified scan
        self._build()

    def _build(self):
        p = self.polytope
        n, nv = self.n, len(p.homogenized)
        # Generator sets are int bitmasks: vertex i is bit i, ray k is bit nv + k.
        # row_gens[j] is the generator set of facet row j, the hull's own incidences.
        self.row_gens = row_gens = tuple(p._incidence(p))
        self._vbits = vbits = (1 << nv) - 1
        top = (1 << (nv + len(p.rays))) - 1

        # Search level by level from the top.  The facets of a face H (its
        # lower covers) are the inclusion-maximal nonempty H & facet_j over
        # the rows j not active on H; each is already a closed generator set,
        # and a face's dimension is n minus its depth below the top.  A face
        # below H meets facet_j in H & facet_j & itself, so each face keeps
        # only the (j, H & facet_j) with a vertex for its own covers.
        found = {top: (sum(1 << j for j, rg in enumerate(row_gens) if rg == top), n)}
        covers = []
        level = {top: [(j, rg) for j, rg in enumerate(row_gens) if rg != top and rg & vbits]}
        d = n
        while level:
            below = {}
            for g, subs in level.items():
                kept = []
                for s in sorted({t for _, t in subs}, key=int.bit_count, reverse=True):
                    for k in kept:
                        if s & k == s:
                            break  # a strict subset of a larger H & facet_j
                    else:
                        kept.append(s)
                for s in kept:
                    covers.append((s, g))
                    if s in found:
                        if found[s][1] != d - 1:
                            raise InvariantViolation("face lattice is not graded by cover depth")
                        continue
                    act, rest = found[g][0], []
                    for j, t in subs:
                        if s & ~t:
                            if s & t & vbits:
                                rest.append((j, s & t))
                        else:
                            act |= 1 << j
                    found[s] = (act, d - 1)
                    below[s] = rest
            level, d = below, d - 1
        if sorted(g for g in found if found[g][1] == 0) != [1 << i for i in range(nv)]:
            raise InvariantViolation("depth n does not hold exactly the vertices")

        keys = {g: (found[g][1], _bits(g & vbits), _bits(g >> nv)) for g in found}
        order = [top] + sorted((g for g in found if g != top), key=keys.__getitem__)
        fid = {g: i for i, g in enumerate(order)}
        self.faces = tuple(Face(i, found[g][1], n - found[g][1], _bits(found[g][0]), *keys[g][1:])
                           for i, g in enumerate(order))
        self._gens = order
        self._covers = [(fid[c], fid[g]) for c, g in covers]

    # -- tables built on first use -------------------------------------------

    @cached_property
    def _scaled_vertices(self):
        """The vertices on their common scale, (den, den * vertex), so
        pairings with integer functionals are integral."""
        return _scaled(self.polytope.homogenized)

    @cached_property
    def _cone(self):
        """The generators of the polytope's homogenized cone, each with the
        indices of the rows tight on it: each vertex's (x, t), then (r, 0)
        of each ray r."""
        p = self.polytope
        gens = list(p.homogenized) + [r + (0,) for r in p.rays]
        return [(w, [j for j, rg in enumerate(self.row_gens) if rg >> g & 1])
                for g, w in enumerate(gens)]

    @cached_property
    def _covers_up(self):
        up = [[] for _ in self.faces]
        for lo, hi in sorted(self._covers):
            up[lo].append(hi)
        return tuple(map(tuple, up))

    @cached_property
    def _above(self):
        """Up-sets as bitmasks over face ids: unions along the covers, from the top down."""
        above = [1 << i for i in range(len(self.faces))]
        for f in sorted(self.faces, key=lambda f: f.dim, reverse=True):
            for c in self._covers_up[f.id]:
                above[f.id] |= above[c]
        return above

    @cached_property
    def _below(self):
        """Down-sets as bitmasks over face ids: unions along the covers, from the vertices up."""
        down = [[] for _ in self.faces]
        for lo, hi in self._covers:
            down[hi].append(lo)
        below = [1 << i for i in range(len(self.faces))]
        for f in sorted(self.faces, key=lambda f: f.dim):
            for c in down[f.id]:
                below[f.id] |= below[c]
        return below

    @cached_property
    def by_active(self):
        return {frozenset(f.active): f for f in self.faces}

    @cached_property
    def by_generators(self):
        return {(frozenset(f.vertex_ids), frozenset(f.ray_ids)): f for f in self.faces}

    # -- poset queries -------------------------------------------------------

    @property
    def top(self) -> Face:
        return self.faces[0]

    def leq(self, a: int, b: int) -> bool:
        """Containment: face a is a face of face b."""
        ga = self._gens[a]
        return ga & self._gens[b] == ga

    def covers_up(self, a: int):
        """The faces one dimension above face a that contain it."""
        return self._covers_up[a]

    def up_set(self, a: int) -> int:
        """Bitmask over face ids (face i is bit i) of the faces containing face a, a included."""
        return self._above[a]

    def _faces_in(self, mask, a, strict):
        if strict:
            mask &= ~(1 << a)
        return tuple(self.faces[i] for i in _bits(mask))

    def faces_above(self, a: int, strict=True):
        return self._faces_in(self._above[a], a, strict)

    def faces_below(self, a: int, strict=True):
        return self._faces_in(self._below[a], a, strict)

    def vertex_mask(self, a: int) -> int:
        """Bitmask of the vertices of face a (vertex i is bit i)."""
        return self._gens[a] & self._vbits

    def minimizing_vertices(self, a) -> int:
        """Bitmask of the vertices (vertex i is bit i) where the integer
        functional <., a> attains its minimum over the vertices."""
        vals = [dot(v, a) for v in self._scaled_vertices[1]]
        low = min(vals)
        return sum(1 << i for i, x in enumerate(vals) if x == low)

    def maximum(self, a) -> Fraction:
        """The maximum of the integer functional <., a> over the vertices."""
        den, xs = self._scaled_vertices
        return Fraction(max(dot(v, a) for v in xs), den)

    def of_dim(self, d: int):
        return tuple(f for f in self.faces if f.dim == d)

    @property
    def f_vector(self):
        counts = [0] * (self.n + 1)
        for f in self.faces:
            counts[f.dim] += 1
        return tuple(counts)

    @property
    def is_compact(self) -> bool:
        return self.polytope.is_compact

    @property
    def cone_vertex_id(self):
        """Face id of the apex when the polytope is a cone with a vertex."""
        if self.polytope.is_cone_with_vertex:
            return next(f.id for f in self.faces if f.dim == 0)
        return None

    def interval(self, face_id: int) -> "FaceInterval":
        return FaceInterval(self, face_id)


@dataclass(frozen=True)
class FaceInterval:
    """The subposet of faces containing a given face, regraded from it.

    Relative dimensions run from 0 (the base face) up to its codimension, so
    the interval behaves like the face poset of a cone of that dimension with
    the base face as its adjoined vertex.
    """

    lattice: FaceLattice
    base_id: int

    @property
    def ids(self):
        L = self.lattice
        return tuple(f.id for f in sorted(L.faces_above(self.base_id, strict=False),
                                          key=lambda f: (f.dim, f.id)))

    def rel_dim(self, face_id: int) -> int:
        L = self.lattice
        return L.faces[face_id].dim - L.faces[self.base_id].dim

    @property
    def rank(self) -> int:
        return self.lattice.faces[self.base_id].codim

    def counts_by_rel_dim(self):
        counts = [0] * (self.rank + 1)
        for i in self.ids:
            counts[self.rel_dim(i)] += 1
        return tuple(counts)

    def leq(self, a: int, b: int) -> bool:
        return self.lattice.leq(a, b)


def face_interval(lattice: FaceLattice, face) -> FaceInterval:
    fid = face.id if isinstance(face, Face) else int(face)
    if not 0 <= fid < len(lattice.faces):
        raise ValueError(f"no face with id {fid}")
    return lattice.interval(fid)


def support_face(p: Polytope, v) -> Face:
    """The face where <., v> attains its minimum over the polyhedron."""
    v = lattice_vector(v)
    for r in p.rays:
        if dot(r, v) < 0:
            raise UnboundedError("unbounded direction")
    lat = p.face_lattice()
    vset = frozenset(_bits(lat.minimizing_vertices(v)))
    rset = frozenset(k for k, r in enumerate(p.rays) if dot(r, v) == 0)
    return lat.by_generators[(vset, rset)]


@dataclass(frozen=True)
class FanCone:
    """A cone of the dual fan, tagged with the face it is dual to."""

    face_id: int
    dim: int
    rays: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Fan:
    cones: tuple[FanCone, ...]

    def cone_for(self, face_id: int) -> FanCone:
        return self.cones[face_id]


def normal_fan(p: Polytope) -> Fan:
    """Dual fan: for each face, the cone of directions minimized on it.

    The cone dual to a face is generated by the primitive inner normals of
    the facets containing the face; its dimension equals the face codimension.
    """
    lat = p.face_lattice()
    cones = []
    for f in lat.faces:
        rays = tuple(sorted(p.rows[j][0] for j in f.active))
        if mat_rank([list(r) for r in rays]) != f.codim:
            raise InvariantViolation("dual cone dimension differs from face codimension")
        cones.append(FanCone(f.id, f.codim, rays))
    return Fan(tuple(cones))


def is_prime(p: Polytope) -> bool:
    """True when the dual fan is simplicial.

    Equivalently every face lies on exactly its codimension many facets
    (for compact polytopes: every vertex lies on exactly n facets).
    """
    lat = p.face_lattice()
    return all(len(f.active) == f.codim for f in lat.faces)


def is_smooth_cone(rays) -> bool:
    """True when the cone is simplicial and its generators span the lattice
    of their linear span.

    For d primitive generators in Z^n that is: the gcd of their d x d minors
    is 1.  The gcd is 0 when the generators are dependent, and |det| when
    d = n.
    """
    rr = [primitive(r) for r in rays]
    if not rr:
        return True
    g = 0
    for cols in combinations(range(len(rr[0])), len(rr)):
        g = gcd(g, det_int([[r[c] for c in cols] for r in rr]))
        if g == 1:
            return True
    return False


def reduce_to_span(points):
    """Rewrite a lower-dimensional point set in lattice coordinates on its span.

    Returns (polytope, frame): the polytope is full-dimensional in frame
    coordinates and frame.from_coords maps its points back to the ambient
    space.  Raises NonIntegralSpanError when the span misses the lattice.
    """
    from .lattice import affine_frame

    pts = [rat_vector(p) for p in points]
    frame = affine_frame(pts)
    coords = [frame.to_coords(p) for p in pts]
    return Polytope.from_points(coords), frame
