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
first read.  H->V runs in two stages.  ``hull_of_rows`` makes the rows
canonical, raises the row errors, and hands the sorted canonical rows to
``hull_of_canonical``, the integer stage (hull rays, tight bitmasks, facet
indices, and the hull's errors); ``Polytope.from_hull`` builds the
polytope from that result.  ``from_inequalities`` is the stages in
sequence, and the prime cut, whose rows are canonical as it makes them,
decides its rounds on the integer stage alone.  Given a pointed polytope
whose rows are among the input rows, the integer stage starts the double
description from that polytope's homogenized cone, read off its face
lattice, instead of a simplicial cone, and adds only the other rows; the
result is the same.  Faces are canonically identified by their maximal
tight row set; the face lattice keeps it and the face's generators as int
masks, and every face lookup, here and in the other modules, reads those
(``FaceLattice``).  The face records (``Face``) are immutable named tuples;
``_replace`` gives a changed copy.

The face lattice comes from the generator-facet incidences in plain ints,
as int bitmasks of generators per facet row.  A ``Polytope`` holds
canonical data plus a function that gives those incidences, and every
constructor hands over both: ``from_points`` and ``from_hull`` the double
description's own tight bitmasks, which the lattice's first build maps to
the sorted generator order; ``translate``, ``dilate`` and
``apply_unimodular`` are ``from_points`` of the mapped generators; and
``cone_over``, the one constructor of the cone over a polytope, reads its
incidences off the polytope's own.  No row is paired with a vertex.  A
level-by-level search from the polytope intersects each face with each
facet, and the inclusion-maximal nonempty results are the face's lower
covers (Kaibel & Pfetsch 2002).  Each face keeps these candidates keyed by
generator set, each with the OR of the rows that give it, so a cover's tight
rows are its upper cover's OR its own key's rows, and the face records are
sorted level by level.  A face's dimension is n minus its cover depth below
the polytope; ``normal_fan`` checks it against the rank of the face's active
rows' normals, from the top down: a face's active rows hold those of each
upper cover, so it starts from the integer echelon of the upper cover the
search first found it through, and pushes only its other normals onto it.
``is_smooth_cone`` clears the columns of unit entries by integer row
operations before it takes minors.  The lattice's one poset record is its
cover pairs in search order, level by level from the top, so a face's pairs
as the lower cover come first; the upper cover each face was first found
through and the up- and down-sets (bitmasks over face ids) are each one pass
over it, on first use.  The lattice's ``maximum`` reads the vertices on
their common scale (``_scaled``), also made on first use, for the greatest
value of an integer functional; lattice-point counts read their boxes off
the same integers (``_integer_box``).

Only full-dimensional pointed polyhedra are supported (plus the ambient-rank
zero point, which the cone-over-a-polytope construction needs).  A vector
or a matrix of the wrong size for the ambient space raises
DimensionMismatchError.  Other modules keep their results for a Polytope or
a FaceLattice in its ``_memo`` dict, under keys "module.name" that name the
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import combinations
from math import gcd, lcm
from operator import and_, mul
from typing import NamedTuple

from .errors import (
    EmptyPolyhedronError,
    InvariantViolation,
    NotFullDimensionalError,
    NotPointedError,
    NotUnimodularError,
    UnboundedError,
)
from .lattice import (
    _require_length,
    _require_square,
    as_rat,
    det_int,
    dot,
    echelon_push,
    identity_rows,
    integerize,
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
    """The start of ``_extreme_rays`` at the homogenized cone of the compact
    polytope p, whose canonical rows (a, b) are all among cons as (a, -b),
    with the homogenizing row last, which no generator of p is on: p's own
    generators, with their tight sets remapped from p's rows to cons."""
    at = {c: 1 << i for i, c in enumerate(cons)}
    bits = [at[a + (-b,)] for a, b in p.rows]
    rays = [(w, sum(bits[j] for j in rows)) for w, rows in p.face_lattice()._cone]
    return rays, sum(bits) | 1 << len(cons) - 1


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


def _cone_row_gens(p, rank, cone):
    """row_gens of the cone over p, read off p's own: the apex (bit 0) is on
    every row, and the ray over vertex i of p (bit 1 + rank[i]) on the rows
    through vertex i."""
    return [1 | sum(2 << rank[i] for i in _bits(rg)) for rg in p.face_lattice().row_gens]


def hull_of_rows(rows):
    """H->V of ``Polytope.from_inequalities`` up to the polytope: the rows
    made canonical, then their ``hull_of_canonical`` result (n, cons, hull,
    tight, facets).

    Each row (a, b) becomes its primitive integer form; a zero row is
    dropped when it holds and raises EmptyPolyhedronError when it does not.
    Raises ValueError on rows of mixed dimension, NotPointedError when no
    row is left (outside ambient rank zero), and then the errors of the
    integer stage, all in the order ``from_inequalities`` raises them.
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
    return hull_of_canonical(n, sorted(norm))


def hull_of_canonical(n, rows, start=None):
    """The integer stage of H->V on sorted distinct canonical nonzero rows
    (a, b) in ambient rank n: (n, cons, hull, tight, facets).

    ``cons`` holds the rows as (a, -b), then (0, ..., 0, 1); ``hull`` and
    ``tight`` are the extreme rays (x, t) of the homogenized cone and their
    tight bitmasks over cons; ``facets`` are the indices of the facet rows
    in cons, ascending.  Raises NotPointedError when the normals have rank
    below n, EmptyPolyhedronError when no ray has t > 0, and
    NotFullDimensionalError when a row is tight on every ray.

    ``start``, internal, is a compact polytope whose canonical rows are all
    among ``rows``: the double description then starts from its homogenized
    cone (``_cone_start``) and adds only the other rows.  The result is the
    same.
    """
    cons = [a + (-b,) for a, b in rows] + [(0,) * n + (1,)]
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
                 "_memo")

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
        self._memo = {}  # other modules' results, keyed "module.name"
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
        return cls.from_homogenized({integerize(tuple(p) + (1,)) for p in points}, rays)

    @classmethod
    def from_homogenized(cls, gens, rays=()):
        """``from_points`` of the points x / t given as primitive int tuples
        (x, t), t > 0."""
        gens = set(gens)
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
    def is_compact(self) -> bool:
        return not self.rays

    @property
    def is_cone_with_vertex(self) -> bool:
        return bool(self.rays) and len(self.homogenized) == 1

    @property
    def is_lattice(self) -> bool:
        return all(w[-1] == 1 for w in self.homogenized)

    def contains(self, point) -> bool:
        p = _require_length(rat_vector(point), self.n)
        return all(dot(a, p) >= b for a, b in self.rows)

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
        t = _require_length(rat_vector(vec), self.n)
        return Polytope.from_points([tuple(c + d for c, d in zip(v, t)) for v in self.vertices],
                                    self.rays)

    def apply_unimodular(self, u_rows) -> "Polytope":
        d = det_int(_require_square(u_rows, self.n))
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


class Face(NamedTuple):
    """A nonempty face, identified by its maximal tight row set; the tuples
    serve reports and the face order, lookups the lattice's masks.  An
    immutable named tuple: ``f._replace(...)`` gives a changed copy."""

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
    Face i has two int masks, its generators ``_gens[i]`` (vertex j is bit
    j, ray k bit nv + k) and its tight rows ``_active[i]`` (row j is bit j);
    ``fid`` and ``by_active`` map them back to i, and every face lookup
    goes through them.  ``_covers``, the one poset record, lists the
    (lower, upper) cover pairs in the order the build found them, and
    ``_up``, ``_above`` and ``_below`` are each one pass over it.
    Immutable after construction; queries are pure.
    """

    def __init__(self, polytope: Polytope):
        self.polytope = polytope
        self.n = polytope.n
        self._memo = {}  # other modules' results, keyed "module.name"
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
        # its candidates as a dict from each generator set H & facet_j with
        # a vertex to the OR of the rows j giving it.  A maximal candidate s
        # lies in no other, so the rows tight on s are H's plus the rows of
        # s itself, and s's candidates are the others intersected with s.
        # levels[k] maps each face at depth k to its candidates and act[g] is
        # g's tight rows.  covers gets the (lower, upper) pairs level by level.
        act = {top: sum(1 << j for j, rg in enumerate(row_gens) if rg == top)}
        subs = {}
        for j, rg in enumerate(row_gens):
            if rg != top and rg & vbits:
                subs[rg] = subs.get(rg, 0) | 1 << j
        covers = []
        levels = []
        level = {top: subs}
        while level:
            levels.append(level)
            below = {}
            for g, subs in level.items():
                kept = []
                for s in sorted(subs, key=int.bit_count, reverse=True):
                    for k in kept:
                        if s & k == s:
                            break  # a strict subset of a larger H & facet_j
                    else:
                        kept.append(s)
                a = act[g]
                for s in kept:
                    covers.append((s, g))
                    if s in below:
                        continue
                    if s in act:
                        raise InvariantViolation("face lattice is not graded by cover depth")
                    act[s] = a | subs[s]
                    below[s] = own = {}
                    for t, rows in subs.items():
                        u = s & t
                        if u != s and u & vbits:
                            own[u] = own.get(u, 0) | rows
            level = below
        if len(levels) != n + 1 or sorted(levels[-1]) != [1 << i for i in range(nv)]:
            raise InvariantViolation("depth n does not hold exactly the vertices")

        # Records level by level, vertices first: within a level the faces
        # sort by (vertex ids, ray ids); a compact polytope has no ray ids.
        # tuple.__new__ makes each Face without the named tuple's own
        # constructor, about a third of its cost.
        new = tuple.__new__
        order = [top]
        faces = [new(Face, (0, n, 0, _bits(act[top]), tuple(range(nv)),
                            tuple(range(len(p.rays)))))]
        for dim, level in enumerate(reversed(levels[1:])):
            if p.rays:
                keyed = sorted((_bits(g & vbits), _bits(g >> nv), g) for g in level)
            else:
                keyed = sorted((_bits(g), (), g) for g in level)
            for vids, rids, g in keyed:
                faces.append(new(Face, (len(order), dim, n - dim, _bits(act[g]), vids, rids)))
                order.append(g)
        self._gens = order
        self._active = [act[g] for g in order]
        self.fid = fid = {g: i for i, g in enumerate(order)}
        self.faces = tuple(faces)
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
    def _up(self):
        """Each face's first upper cover in ``_covers``, None at the top."""
        up = [None] * len(self.faces)
        for lo, hi in reversed(self._covers):
            up[lo] = hi
        return up

    @cached_property
    def _above(self):
        """Up-sets as bitmasks over face ids, folded forward along ``_covers``."""
        above = [1 << i for i in range(len(self.faces))]
        for lo, hi in self._covers:
            above[lo] |= above[hi]
        return above

    @cached_property
    def _below(self):
        """Down-sets as bitmasks over face ids, folded backward along ``_covers``."""
        below = [1 << i for i in range(len(self.faces))]
        for lo, hi in reversed(self._covers):
            below[hi] |= below[lo]
        return below

    @cached_property
    def by_active(self):
        return {a: i for i, a in enumerate(self._active)}

    # -- poset queries -------------------------------------------------------

    @property
    def top(self) -> Face:
        return self.faces[0]

    def up_set(self, a: int) -> int:
        """Bitmask over face ids (face i is bit i) of the faces containing face a, a included."""
        return self._above[a]

    def faces_above(self, a: int, strict=True):
        mask = self._above[a] & ~(1 << a) if strict else self._above[a]
        return tuple(self.faces[i] for i in _bits(mask))

    def vertex_mask(self, a: int) -> int:
        """Bitmask of the vertices of face a (vertex i is bit i)."""
        return self._gens[a] & self._vbits

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
        return self.fid[1] if self.polytope.is_cone_with_vertex else None


class FanCone(NamedTuple):
    """A cone of the dual fan, tagged with the face it is dual to; an
    immutable named tuple, like ``Face``."""

    face_id: int
    dim: int
    rays: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Fan:
    cones: tuple[FanCone, ...]


def normal_fan(p: Polytope) -> Fan:
    """Dual fan: for each face, the cone of directions minimized on it.

    The cone dual to a face is generated by the primitive inner normals of
    the facets containing the face; its dimension equals the face codimension.
    That is checked against the rank of those normals, from the top down: a
    face's active rows hold those of its upper covers, so it takes the
    fraction-free echelon of the upper cover the lattice recorded for it
    (``_up``) and pushes only its other normals onto it (``echelon_push``),
    and the echelon's size is the rank.  The rays come in row order, which
    is sorted.
    """
    lat = p.face_lattice()
    echelons = [None] * len(lat.faces)
    cones = [None] * len(lat.faces)
    for f in (lat.top, *reversed(lat.faces[1:])):  # by dimension, descending
        ech, new = [], lat._active[f.id]
        if f.id:
            g = lat._up[f.id]
            ech, new = list(echelons[g]), new & ~lat._active[g]
        for j in _bits(new):
            echelon_push(ech, p.rows[j][0])
        if len(ech) != f.codim:
            raise InvariantViolation("dual cone dimension differs from face codimension")
        echelons[f.id] = ech
        cones[f.id] = FanCone(f.id, f.codim, tuple(p.rows[j][0] for j in f.active))
    return Fan(tuple(cones))


def is_prime(p: Polytope) -> bool:
    """True when the dual fan is simplicial.

    Equivalently every face lies on exactly its codimension many facets
    (for compact polytopes: every vertex lies on exactly n facets).
    """
    lat = p.face_lattice()
    return all(a.bit_count() == f.codim for a, f in zip(lat._active, lat.faces))


def is_smooth_cone(rays) -> bool:
    """True when the cone is simplicial and its generators span the lattice
    of their linear span.

    For d primitive generators in Z^n that is: the gcd of their d x d minors
    is 1.  The gcd is 0 when the generators are dependent (so when d > n),
    and |det| when d = n.  A ray of ints with gcd 1, such as a facet normal
    of ``normal_fan``, is taken as it is; any other ray (non-primitive, or
    with ``Fraction`` entries) is first scaled to its primitive form, and a
    zero ray raises ValueError.  Rays of different lengths raise
    DimensionMismatchError.

    Unit pivots shrink the matrix first.  Adding a multiple of one row to
    another changes no d x d minor.  So while some entry is +-1, the other
    rows clear its column, and the pivot row and that column are dropped:
    with the column zero off the pivot, each minor through the column is
    +-1 times a maximal minor of what is left, and each minor off it,
    expanded along the pivot row, is an integer combination of those.  The
    gcd of the minors is unchanged; the minors are taken of the block left
    without a +-1 entry.
    """
    rr = []
    for r in rays:
        try:
            g = gcd(*r)
        except TypeError:  # a non-int entry, such as a Fraction
            g = 0
        rr.append(r if g == 1 else primitive(r))
    n = len(rr[0]) if rr else 0
    for r in rr:
        _require_length(r, n)
    if len(rr) > n:
        return False
    while True:
        for i, r in enumerate(rr):
            if 1 in r or -1 in r:
                break
        else:  # no row left, or none with a +-1 entry
            break
        prow = rr.pop(i)
        c = prow.index(1 if 1 in prow else -1)
        rest = []
        for r in rr:
            f = r[c] * prow[c]  # prow[c] is +-1, so r - f * prow is 0 at c
            if f:
                r = [x - f * y for x, y in zip(r, prow)]
            rest.append(r[:c] + r[c + 1:])
        rr = rest
    if len(rr) < 2:  # the 1 x 1 minors of one row are its entries
        return not rr or gcd(*rr[0]) == 1
    g = 0
    for cols in combinations(range(len(rr[0])), len(rr)):
        g = gcd(g, det_int([[r[c] for c in cols] for r in rr]))
        if g == 1:
            return True
    return False


def cone_over(p: Polytope) -> Polytope:
    """The cone with vertex at the origin over the compact polytope p placed
    at height one, built from p's canonical data: its rays are p's vertices
    (x, t), sorted, and it has a row (a, -b) >= 0 for each row (a, b) of p,
    in p's order, which sorts alike since the normals a are distinct; its
    incidences are p's own (``_cone_row_gens``)."""
    if not p.is_compact:
        raise UnboundedError("unbounded input")
    n = p.n
    apex = (0,) * (n + 1) + (1,)
    if n == 0:  # the point's cone is the half-line t >= 0
        return Polytope(1, [apex], [(1,)], [((1,), 0)], lambda c: [1])
    over = p.homogenized
    order = sorted(range(len(over)), key=over.__getitem__)
    rank = {i: r for r, i in enumerate(order)}
    return Polytope(n + 1, [apex], [over[i] for i in order],
                    [(a + (-b,), 0) for a, b in p.rows], partial(_cone_row_gens, p, rank))
