"""Lattice-point counting, Ehrhart polynomials and the cone over a polytope.

Every count is a fiber scan in plain integers: it loops over the integer
points x of the bounding box's first n-1 coordinates and reads the range
l <= t <= h of the last coordinate off the integer rows by ceil and floor
division, so a count adds up interval lengths and its cost follows the
box's projection, not its volume.  The rows are integral, so the interior
(a.y > b) is the same scan with b + 1 in place of b.  The work around the
scan is in ints too: a box and an edge walk read the vertices as the
polytope stores them, primitive integer points (x, t) of the homogenized
cone, put on one common scale (``polytope._integer_box`` and
``polytope._scaled``), and the Ehrhart coefficients come from the integer
forward differences of the counts, divided by n! once.

Each dilate is scanned at most once per polytope: ``lattice_count`` keeps
|kP ∩ Z^n| and the interior count on the polytope, by (k, strict), so
``count_report``, ``reciprocity_check``, ``ehrhart_polynomial`` and the
hypersurface counts share them.

Every per-face question, count or listing, is read off one classified scan
of the polytope, memoized on its FaceLattice as pieces (x, s, e, mask): a
lattice point lies in the relative interior of exactly one face, the face
whose active rows are the rows tight at the point, and along a fiber that
tight set can change only at the two ends.  A face's closed points are the
pieces whose mask holds its active rows, its relative interior those whose
mask is exactly them; closed counts sum the interior counts of the faces
below.  A face whose affine span misses the lattice collects no points and
counts 0, so totals over all faces stay clean.  The other scans, each over
the box of a dilate kP, serve the checks that compare with this one: the
edge walk of ``skeleton_count``, the dilate counts of ``lattice_count`` and
the slices of the cone over P.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from math import factorial
from operator import mul

from .errors import UnboundedError
from .lattice import as_rat, dot
from .polytope import Face, FaceLattice, Polytope, _bits, _integer_box, _scaled


def _fibers(rows, lo, hi):
    """Nonempty fibers (x, l, h) of {y in Z^n : a.y >= b for (a, b) in rows} in the box lo..hi.

    x runs over the integer points of the box's first n-1 coordinates in
    lexicographic order, and the fiber over x is {x + (t,) : l <= t <= h}.
    A row with last coefficient c > 0 bounds t from below by a ceil division,
    one with c < 0 from above by a floor division, and one with c = 0 accepts
    or rejects x whole.
    """
    flat, up, down = [], [], []
    for a, b in rows:
        c = a[-1]
        (down if c < 0 else up if c else flat).append((a[:-1], c, b))
    t_lo, t_hi = [lo[-1]], [hi[-1]]
    for x in product(*(range(l, h + 1) for l, h in zip(lo[:-1], hi[:-1]))):
        if any(sum(map(mul, a, x)) < b for a, _, b in flat):
            continue
        l = max(t_lo + [-((sum(map(mul, a, x)) - b) // c) for a, c, b in up])
        h = min(t_hi + [(b - sum(map(mul, a, x))) // c for a, c, b in down])
        if l <= h:
            yield x, l, h


def _classified(rows, lo, hi):
    """The fibers of _fibers cut into pieces (x, s, e, mask) by tight row set.

    mask has bit j set when rows[j] is tight at every x + (t,) with
    s <= t <= e.  A row with a zero last coefficient is tight along the whole
    fiber or nowhere on it; any other row is tight at one t at most, and only
    at an end of the fiber.  Pieces come in increasing x + (t,).
    """
    split = [(a[:-1], a[-1], b, 1 << j) for j, (a, b) in enumerate(rows)]
    for x, l, h in _fibers(rows, lo, hi):
        inner = at_l = at_h = 0
        for a, c, b, bit in split:
            s = b - sum(map(mul, a, x))
            if not c:
                if s == 0:
                    inner |= bit
            elif c * l == s:
                at_l |= bit
            elif c * h == s:
                at_h |= bit
        if l == h:
            yield x, l, l, inner | at_l | at_h
            continue
        yield x, l, l, inner | at_l
        if h > l + 1:
            yield x, l + 1, h - 1, inner
        yield x, h, h, inner | at_h


def _mask(active):
    return sum(1 << j for j in active)


def _rows(p: Polytope, k=1, strict=False):
    """The integer rows of kP; for the interior, a.y > kb is a.y >= kb + 1."""
    return [(a, k * b + int(strict)) for a, b in p.rows]


def _pieces(lattice: FaceLattice):
    """The classified scan of the lattice's compact polytope of rank n >= 1,
    as a tuple of _classified pieces; computed once per lattice."""
    if lattice._pieces is None:
        p = lattice.polytope
        if not p.is_compact:
            raise UnboundedError("unbounded input")
        lattice._pieces = tuple(_classified(p.rows, *_integer_box(p.homogenized)))
    return lattice._pieces


def _listing(obj, face: Face | None, strict: bool):
    """(count, points) of a face, or of P itself, read off the classified scan.

    A point is in the closed face when its tight rows include the face's
    active rows, and in its relative interior when they are exactly those.
    """
    lattice = obj.face_lattice() if isinstance(obj, Polytope) else obj
    if lattice.n == 0:
        return 1, ((),)
    want = 0 if face is None else _mask(face.active)
    pts = tuple(x + (t,) for x, s, e, mask in _pieces(lattice)
                if (mask == want if strict else mask & want == want)
                for t in range(s, e + 1))
    return len(pts), pts


def _edge_points(u, v):
    """Lattice points of the segment between the homogenized points u and v,
    walked along its longest coordinate.

    With (den, (U, V)) their ``_scaled`` form and i the coordinate where U
    and V differ most, the point of the segment at x_i = t is
    (U D_i + (t den - U_i) D) / (den D_i), D = V - U; it is a lattice point
    when every coordinate divides out.  The walk runs over the integers t
    between U_i / den and V_i / den, all in ints.
    """
    den, (uu, vv) = _scaled((u, v))
    d = [b - a for a, b in zip(uu, vv)]
    i = max(range(len(d)), key=lambda j: abs(d[j]))
    q = den * d[i]
    lo, hi = sorted((uu[i], uu[i] + d[i]))
    out = []
    for t in range(-(-lo // den), hi // den + 1):
        s = t * den - uu[i]
        nums = [a * d[i] + s * c for a, c in zip(uu, d)]
        if not any(x % q for x in nums):
            out.append(tuple(x // q for x in nums))
    return out


def lattice_points(obj, face: Face | None = None):
    """(count, points) for a compact polytope or one of its faces.

    Pass a Polytope, or a FaceLattice together with one of its faces; points
    come back in ambient coordinates, sorted.  The polytope must be compact:
    on an unbounded polyhedron every listing, even of a compact face, raises
    UnboundedError.  All listings and ``face_counts`` share one scan.
    """
    return _listing(obj, face, strict=False)


def interior_lattice_points(obj, face: Face | None = None):
    """(count, points) over the relative interior (a point is its own interior).

    The same contract as ``lattice_points``: a compact polytope or one of its
    faces, read off the same scan.
    """
    return _listing(obj, face, strict=True)


def lattice_count(p: Polytope, k: int = 1, strict: bool = False) -> int:
    """|kP ∩ Z^n|, or with strict the number of lattice points interior to kP.

    Adds up fiber lengths; no point is listed and no dilate is built.  Each
    (k, strict) is scanned once per polytope: the count is kept on p.
    """
    if k <= 0:
        raise ValueError("dilation factor must be positive")
    if not p.is_compact:
        raise UnboundedError("unbounded input")
    if p.n == 0:
        return 1
    key = (k, strict)
    table = p._dilate_counts
    if key not in table:
        table[key] = sum(h - l + 1 for _, l, h in
                         _fibers(_rows(p, k, strict), *_integer_box(p.homogenized, k)))
    return table[key]


def _classify(lattice: FaceLattice):
    """Relative-interior lattice-point count of every face, by face id.

    Read off the classified scan: each piece goes to the face whose active
    rows are exactly the rows tight along it.
    """
    inner = [0] * len(lattice.faces)
    if lattice.n == 0:
        inner[0] = 1
        return inner
    face_of = {_mask(f.active): f.id for f in lattice.faces}
    for _, s, e, mask in _pieces(lattice):
        inner[face_of[mask]] += e - s + 1
    return inner


def face_counts(lattice: FaceLattice):
    """(closed, interior) lattice-point counts of every face, indexed by face id.

    Computed once per lattice of a compact polytope; a closed count sums the
    interior counts of the faces below.
    """
    if lattice._counts is None:
        inner = _classify(lattice)
        lattice._counts = tuple(
            (sum(inner[g.id] for g in lattice.faces_below(f.id, strict=False)), inner[f.id])
            for f in lattice.faces)
    return lattice._counts


def skeleton_count(lattice: FaceLattice) -> int:
    """Number of lattice points on the union of the 1-dimensional faces.

    Taken from the edges' point sets, never from face_counts, so that the
    identity points = vertices + edge interiors stays a check of that table.
    """
    if not lattice.is_compact:
        raise UnboundedError("unbounded input")
    seen = set()
    for f in lattice.of_dim(1):
        seen.update(_edge_points(*(lattice.polytope.homogenized[i] for i in f.vertex_ids)))
    return len(seen)


def ehrhart_counts(p: Polytope):
    """Exact counts |kP ∩ Z^n| for k = 0 .. n."""
    return [1] + [lattice_count(p, k) for k in range(1, p.n + 1)]


def _require_lattice(p: Polytope):
    if not p.is_lattice:
        raise ValueError("Ehrhart quasi-polynomial not supported: vertices are not lattice points")


def _interpolate(counts):
    """Coefficients of the polynomial of degree n = len(counts) - 1 through (k, counts[k]).

    Newton's forward form L(x) = sum_j Δ^j L(0) C(x, j) times n! is the
    integer polynomial sum_j Δ^j L(0) (n!/j!) x(x-1)...(x-j+1); it is summed
    in ints and divided by n! once.
    """
    n = len(counts) - 1
    total = [0] * (n + 1)
    diffs = list(counts)  # Δ^j L(k) for k = 0 .. n - j
    falling = [1]  # x(x-1)...(x-j+1), as coefficients
    scale = nf = factorial(n)  # scale = n!/j!
    for j in range(n + 1):
        for i, c in enumerate(falling):
            total[i] += diffs[0] * scale * c
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        falling = [a - j * b for a, b in zip([0] + falling, falling + [0])]
        scale //= j + 1
    return tuple(Fraction(c, nf) for c in total)


def ehrhart_polynomial(p: Polytope):
    """Coefficients (c_0, ..., c_n) of the lattice-point counting polynomial.

    Only lattice polytopes are supported; rational vertices would need a
    quasi-polynomial.
    """
    _require_lattice(p)
    return _interpolate(ehrhart_counts(p))


def ehrhart_eval(coeffs, k) -> Fraction:
    x = as_rat(k)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def reciprocity_check(p: Polytope, kmax: int = 3) -> bool:
    """(-1)^n L(-k) equals the interior count of kP, by direct enumeration,
    for k = 1 .. kmax; kmax < 1 would compare nothing and raises ValueError."""
    if kmax < 1:
        raise ValueError("reciprocity check needs kmax >= 1")
    coeffs = ehrhart_polynomial(p)
    return all((-1) ** p.n * ehrhart_eval(coeffs, -k) == lattice_count(p, k, strict=True)
               for k in range(1, kmax + 1))


@dataclass(frozen=True)
class ConeOverPolytope:
    """The cone over P x {1} in one more dimension, graded by the last coordinate.

    Lattice points at grade k correspond exactly to the lattice points of kP.
    """

    polytope: Polytope
    grading: tuple[int, ...]

    def _slice(self, k: int):
        """(rows, lo, hi): kP in the first n coordinates and its integer box,
        read off the cone's rays (x, t) over the vertices x / t of P."""
        base = self.polytope
        rows = [(a[:-1], b - a[-1] * k) for a, b in base.rows]
        return (rows,) + _integer_box(base.rays, k)

    def slice_count(self, k: int) -> int:
        if k < 0:
            return 0
        if self.polytope.n == 1:
            return len(self.slice_points(k))
        return sum(h - l + 1 for _, l, h in _fibers(*self._slice(k)))

    def slice_points(self, k: int):
        if k < 0:
            return ()
        base = self.polytope
        if base.n == 1:
            return ((k,),) if all(dot(a, (k,)) >= b for a, b in base.rows) else ()
        return tuple(x + (t, k) for x, l, h in _fibers(*self._slice(k))
                     for t in range(l, h + 1))


def _cone_row_gens(p: Polytope, rank, cone):
    """row_gens of the cone over p, read off p's own: the apex (bit 0) is on
    every row, and the ray over vertex i of p (bit 1 + rank[i]) on the rows
    through vertex i."""
    return [1 | sum(2 << rank[i] for i in _bits(rg)) for rg in p.face_lattice().row_gens]


def cone_over_polytope(p: Polytope) -> ConeOverPolytope:
    """Home of a compact polytope at height one inside a pointed cone.

    The cone is built from p's canonical data: its rays are p's vertices
    (x, t), sorted, and it has a row (a, -b) >= 0 for each row (a, b) of p,
    in p's order, which sorts alike since the normals a are distinct.
    """
    if not p.is_compact:
        raise UnboundedError("unbounded input")
    n = p.n
    apex = (0,) * (n + 1) + (1,)
    if n == 0:  # the point's cone is the half-line t >= 0
        cone = Polytope(1, [apex], [(1,)], [((1,), 0)], lambda c: [1])
        return ConeOverPolytope(cone, (1,))
    over = p.homogenized
    order = sorted(range(len(over)), key=over.__getitem__)
    rank = {i: r for r, i in enumerate(order)}
    cone = Polytope(n + 1, [apex], [over[i] for i in order],
                    [(a + (-b,), 0) for a, b in p.rows], partial(_cone_row_gens, p, rank))
    return ConeOverPolytope(cone, (0,) * n + (1,))


@dataclass(frozen=True)
class CountReport:
    """Per-face lattice counts plus Ehrhart data for a compact lattice polytope."""

    per_face: tuple  # (face_id, dim, count, interior_count)
    skeleton: int
    ehrhart_values: tuple
    ehrhart_coeffs: tuple

    @property
    def total(self) -> int:
        return self.ehrhart_values[1] if len(self.ehrhart_values) > 1 else 1


def count_report(p: Polytope) -> CountReport:
    _require_lattice(p)
    lat = p.face_lattice()
    counts = face_counts(lat)
    rows = tuple((f.id, f.dim) + counts[f.id] for f in lat.faces)
    values = tuple(ehrhart_counts(p))
    return CountReport(rows, skeleton_count(lat), values, _interpolate(values))
