"""Rational polytopes and pointed polyhedra.

A ``Polytope`` carries both representations in canonical form: the vertex
representation (extreme points plus primitive extreme rays) and the facet
representation (irredundant inequalities ``<u, a> >= b`` with primitive
integer ``(a, b)``).  Both conversions run one polar routine on a
homogenized cone: the extreme rays of {x : <c, x> >= 0} found by scanning
(d-1)-subsets of the integer constraints c, with one exact kernel each.
V->H takes the generators (v, 1) and (r, 0) as constraints, so the rays are
the facet rows; H->V takes the rows (a, -b) plus (0, ..., 0, 1), so the rays
(u, t) are the vertices u/t (t > 0) and the rays u (t = 0).  A second,
shared filter keeps what is irredundant against the other side.  Faces are
canonically identified by their maximal tight row set.

Only full-dimensional pointed polyhedra are supported (plus the ambient-rank
zero point, which the cone-over-a-polytope construction needs); callers with
lower-dimensional data reduce to the affine span first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    EmptyPolyhedronError,
    InvariantViolation,
    NotFullDimensionalError,
    NotPointedError,
    UnboundedError,
)
from .lattice import (
    as_rat,
    det_int,
    dot,
    integerize,
    invert_unimodular,
    kernel_ray,
    lattice_vector,
    mat_rank,
    mat_vec,
    pairing,
    primitive,
    rat_vector,
    solve_consistent,
    solve_integer_system,
    transpose,
    vec_gcd,
    vsub,
)


def normalize_row(a, b):
    """Canonical primitive integer form of the inequality <u, a> >= b."""
    coeffs = integerize(tuple(a) + (as_rat(b),))
    g = vec_gcd(coeffs)
    if g:
        coeffs = tuple(c // g for c in coeffs)
    return coeffs[:-1], coeffs[-1]


def _row_tight_vertex(row, v):
    a, b = row
    return dot(a, v) == b


def _row_tight_ray(row, r):
    return dot(row[0], r) == 0


def _extreme_rays(cons, d):
    """Primitive extreme rays of the pointed cone {x in Q^d : <c, x> >= 0 for c in cons}.

    Every extreme ray spans the kernel of d - 1 independent constraints, so
    the scan takes the kernel of each (d-1)-subset of the integer constraint
    vectors and keeps it, oriented, when every constraint lies on one side.
    A kernel met before (tight on a larger subset) is skipped.
    """
    seen = set()
    rays = []
    for sub in combinations(cons, d - 1):
        w = kernel_ray(sub, d)
        if w is None:
            continue
        if next(c for c in w if c) < 0:
            w = tuple(-c for c in w)
        if w in seen:
            continue
        seen.add(w)
        neg = pos = False
        for c in cons:
            val = dot(w, c)
            if val > 0:
                pos = True
            elif val < 0:
                neg = True
            if pos and neg:
                break
        if pos and neg:
            continue
        rays.append(tuple(-c for c in w) if neg else w)
    return sorted(rays)


def _irredundant(vecs, duals, d):
    """The vectors whose tight duals have rank d - 1.

    With ``duals`` the extreme rays of the polar cone this picks the extreme
    generators of a cone; with ``duals`` the extreme rays of the cone itself
    it picks the facet-defining constraints.
    """
    return [v for v in vecs if mat_rank([w for w in duals if dot(v, w) == 0]) == d - 1]


class Polytope:
    """Immutable rational polytope / pointed polyhedron with both representations."""

    __slots__ = ("n", "vertices", "rays", "rows", "_faces")

    def __init__(self, n, vertices, rays, rows):
        self.n = n
        self.vertices = tuple(sorted(vertices))
        self.rays = tuple(sorted(rays))
        self.rows = tuple(sorted(normalize_row(a, b) for a, b in rows))
        self._faces = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_points(cls, points, rays=()):
        """Convex hull of rational points plus a recession cone of lattice rays.

        Raises NotFullDimensionalError / NotPointedError for the unsupported
        degenerate cases.
        """
        pts = sorted(set(rat_vector(p) for p in points))
        if not pts:
            raise ValueError("need at least one point")
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise ValueError("points of mixed dimension")
        rr = sorted(set(primitive(r) for r in rays))
        if n == 0:
            return cls(0, [()], [], [])
        dirs = [vsub(p, pts[0]) for p in pts[1:]] + [tuple(map(Fraction, r)) for r in rr]
        if mat_rank(dirs) < n:
            raise NotFullDimensionalError(
                "not full-dimensional; reduce to affine span first")
        gens = {integerize(p + (Fraction(1),)): p for p in pts}
        gens.update((r + (0,), r) for r in rr)
        duals = _extreme_rays(list(gens), n + 1)
        if mat_rank(duals) <= n:
            raise NotPointedError("not pointed: the recession cone contains a line")
        rows = [(w[:n], -w[n]) for w in duals if any(w[:n])]
        keep = _irredundant(list(gens), duals, n + 1)
        verts = [gens[g] for g in keep if g[n]]
        xrays = [gens[g] for g in keep if not g[n]]
        return cls(n, verts, xrays, rows)

    @classmethod
    def from_inequalities(cls, rows):
        """Polyhedron {u : <u, a> >= b for each row (a, b)}.

        Raises EmptyPolyhedronError / NotPointedError for the unsupported
        degenerate cases.
        """
        norm = []
        n = None
        for a, b in rows:
            a = rat_vector(a)
            b = as_rat(b)
            if n is None:
                n = len(a)
            elif len(a) != n:
                raise ValueError("rows of mixed dimension")
            if not any(a):
                if b > 0:
                    raise EmptyPolyhedronError("empty polyhedron: infeasible row 0 >= %s" % b)
                continue  # trivially true
            norm.append(normalize_row(a, b))
        if n == 0:
            return cls(0, [()], [], [])
        norm = sorted(set(norm))
        if not norm or mat_rank([r[0] for r in norm]) < n:
            raise NotPointedError("not pointed")
        cons = [a + (-b,) for a, b in norm] + [(0,) * n + (1,)]
        hull = _extreme_rays(cons, n + 1)
        verts = [tuple(Fraction(x, w[n]) for x in w[:n]) for w in hull if w[n]]
        if not verts:
            raise EmptyPolyhedronError("empty polyhedron")
        rays = [w[:n] for w in hull if not w[n]]
        facets = [(c[:n], -c[n]) for c in _irredundant(cons[:-1], hull, n + 1)]
        return cls(n, verts, rays, facets)

    @classmethod
    def _trusted(cls, n, vertices, rays, rows):
        """Internal: both representations already known to be canonical-compatible."""
        return cls(n, [rat_vector(v) for v in vertices],
                   [lattice_vector(r) for r in rays], rows)

    # -- basic queries -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.n

    @property
    def is_compact(self) -> bool:
        return not self.rays

    @property
    def is_cone_with_vertex(self) -> bool:
        return bool(self.rays) and len(self.vertices) == 1

    @property
    def is_lattice(self) -> bool:
        return all(all(c.denominator == 1 for c in v) for v in self.vertices)

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
        lo, hi = [], []
        for i in range(self.n):
            cs = [v[i] for v in self.vertices]
            lo.append(min(cs).__ceil__())
            hi.append(max(cs).__floor__())
        return tuple(lo), tuple(hi)

    def dilate(self, k: int) -> "Polytope":
        if k <= 0:
            raise ValueError("dilation factor must be positive")
        verts = [tuple(k * c for c in v) for v in self.vertices]
        rows = [(a, k * b) for a, b in self.rows]
        return Polytope._trusted(self.n, verts, self.rays, rows)

    def translate(self, vec) -> "Polytope":
        t = rat_vector(vec)
        verts = [tuple(c + d for c, d in zip(v, t)) for v in self.vertices]
        rows = [(a, b + dot(a, t)) for a, b in self.rows]
        return Polytope(self.n, verts, self.rays, rows)

    def apply_unimodular(self, u_rows) -> "Polytope":
        uinv = invert_unimodular(u_rows)
        uinv_t = transpose(uinv)
        verts = [mat_vec(u_rows, v) for v in self.vertices]
        rays = [mat_vec(u_rows, r) for r in self.rays]
        rows = [(tuple(mat_vec(uinv_t, a)), b) for a, b in self.rows]
        return Polytope(self.n, verts, rays, rows)

    def face_lattice(self) -> "FaceLattice":
        if self._faces is None:
            self._faces = FaceLattice(self)
        return self._faces

    def __eq__(self, other):
        return (isinstance(other, Polytope)
                and (self.n, self.vertices, self.rays, self.rows)
                == (other.n, other.vertices, other.rays, other.rows))

    def __hash__(self):
        return hash((self.n, self.vertices, self.rays, self.rows))

    def __repr__(self):
        kind = "polytope" if self.is_compact else "polyhedron"
        return (f"<{self.n}-dim {kind}: {len(self.vertices)} vertices, "
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
        self._build()

    def _build(self):
        p = self.polytope
        nv, nr, nrow = len(p.vertices), len(p.rays), len(p.rows)
        vsets = [frozenset(i for i in range(nv) if _row_tight_vertex(p.rows[j], p.vertices[i]))
                 for j in range(nrow)]
        rsets = [frozenset(k for k in range(nr) if _row_tight_ray(p.rows[j], p.rays[k]))
                 for j in range(nrow)]

        def close(vs, rs):
            act = frozenset(j for j in range(nrow) if vs <= vsets[j] and rs <= rsets[j])
            cvs, crs = set(range(nv)), set(range(nr))
            for j in act:
                cvs &= vsets[j]
                crs &= rsets[j]
            return act, frozenset(cvs), frozenset(crs)

        top = close(frozenset(range(nv)), frozenset(range(nr)))
        found = {top[0]: top}
        queue = [top]
        while queue:
            act, vs, rs = queue.pop()
            for j in range(nrow):
                if j in act:
                    continue
                nvs = vs & vsets[j]
                if not nvs:
                    continue
                cand = close(nvs, rs & rsets[j])
                if cand[0] not in found:
                    found[cand[0]] = cand
                    queue.append(cand)

        def fdim(vs, rs):
            vv = [p.vertices[i] for i in sorted(vs)]
            dirs = [vsub(v, vv[0]) for v in vv[1:]]
            dirs += [tuple(map(Fraction, p.rays[k])) for k in sorted(rs)]
            return mat_rank(dirs)

        entries = []
        for act, vs, rs in found.values():
            entries.append((fdim(vs, rs), tuple(sorted(vs)), tuple(sorted(rs)), tuple(sorted(act))))
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        top_entry = max(entries, key=lambda e: e[0])
        if top_entry[0] != self.n:
            raise InvariantViolation("face enumeration lost the top face")
        entries.remove(top_entry)
        ordered = [top_entry] + entries

        faces = []
        for i, (d, vs, rs, act) in enumerate(ordered):
            faces.append(Face(i, d, self.n - d, act, vs, rs))
        self.faces = tuple(faces)
        self._gen_sets = [(frozenset(f.vertex_ids), frozenset(f.ray_ids)) for f in faces]
        self.by_active = {frozenset(f.active): f for f in faces}
        self.by_generators = {g: faces[i] for i, g in enumerate(self._gen_sets)}

    # -- poset queries -------------------------------------------------------

    @property
    def top(self) -> Face:
        return self.faces[0]

    def leq(self, a: int, b: int) -> bool:
        """Containment: face a is a face of face b."""
        (va, ra), (vb, rb) = self._gen_sets[a], self._gen_sets[b]
        return va <= vb and ra <= rb

    def covers_up(self, a: int):
        """The faces one dimension above face a that contain it."""
        d = self.faces[a].dim + 1
        return tuple(f.id for f in self.faces if f.dim == d and self.leq(a, f.id))

    def faces_above(self, a: int, strict=True):
        return tuple(f for f in self.faces
                     if self.leq(a, f.id) and (not strict or f.id != a))

    def faces_below(self, a: int, strict=True):
        return tuple(f for f in self.faces
                     if self.leq(f.id, a) and (not strict or f.id != a))

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

    def smallest_face_containing(self, point) -> Face:
        p = rat_vector(point)
        if not self.polytope.contains(p):
            raise ValueError("point outside the polytope")
        act = frozenset(j for j, (a, b) in enumerate(self.polytope.rows)
                        if dot(a, p) == b)
        return self.by_active[act]

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
        return tuple(sorted((f.id for f in L.faces if L.leq(self.base_id, f.id)),
                            key=lambda i: (L.faces[i].dim, i)))

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
    vals = [pairing(x, v) for x in p.vertices]
    m = min(vals)
    vset = frozenset(i for i, val in enumerate(vals) if val == m)
    rset = frozenset(k for k, r in enumerate(p.rays) if dot(r, v) == 0)
    lat = p.face_lattice()
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


def vertex_normal_cone_contains(p: Polytope, vertex_face: Face, w) -> bool:
    """Is w in the dual cone of a vertex? (<., w> is minimized over p there)."""
    v = p.vertices[vertex_face.vertex_ids[0]]
    val = pairing(v, w)
    if any(pairing(u, w) < val for u in p.vertices):
        return False
    return all(dot(r, w) >= 0 for r in p.rays)


def is_prime(p: Polytope) -> bool:
    """True when the dual fan is simplicial.

    Equivalently every face lies on exactly its codimension many facets
    (for compact polytopes: every vertex lies on exactly n facets).
    """
    lat = p.face_lattice()
    return all(len(f.active) == f.codim for f in lat.faces)


def is_smooth_cone(rays) -> bool:
    """True when the cone is simplicial and its generators span the lattice
    of their linear span (determinant +-1 in a lattice frame)."""
    rr = [primitive(r) for r in rays]
    if not rr:
        return True
    d = mat_rank([list(r) for r in rr])
    if len(rr) != d:
        return False
    n = len(rr[0])
    if d == n:
        return abs(det_int([list(r) for r in rr])) == 1
    _, normals = solve_integer_system([list(r) for r in rr])
    _, span_basis = solve_integer_system([list(c) for c in normals])
    cols = [[Fraction(b[i]) for b in span_basis] for i in range(n)]
    coords = []
    for r in rr:
        y = solve_consistent(cols, list(r))
        coords.append([int(c) for c in y])
    return abs(det_int(coords)) == 1


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
