"""Lattice-point counting, Ehrhart polynomials and the graded cone over a polytope.

Every count is a fiber scan in plain integers: it loops over the integer
points x of the bounding box's first n-1 coordinates and reads the range
l <= t <= h of the last coordinate off the integer rows by ceil and floor
division, so a count adds up interval lengths and its cost follows the
box's projection, not its volume.  The rows are integral, so a point on no
row (a.y > b) is one where no row is tight, and the same walk counts the
interior from the tightness at each fiber's ends.  The work around the
scan is in ints too: a box and an edge walk read the vertices as the
polytope stores them, primitive integer points (x, t) of the homogenized
cone, put on one common scale (``polytope._integer_box`` and
``polytope._scaled``), and the Ehrhart coefficients come from the integer
forward differences of the counts, divided by n! once.

Each dilate is walked at most once per polytope: one walk of kP's rows
gives |kP ∩ Z^n| and the interior count, which ``lattice_count`` keeps on
the polytope by (k, strict), so ``count_report``, ``reciprocity_check``,
``ehrhart_polynomial`` and the grades k > 0 of ``ConeOverPolytope`` (the
cone ``polytope.cone_over``, kept beside P) share them.  The edge walk of
``skeleton_count`` is kept on the FaceLattice the same way.

Every per-face question, count or listing, is read off one classified scan
of the polytope, memoized on its FaceLattice as pieces (x, s, e, mask): a
lattice point lies in the relative interior of exactly one face, the face
whose active rows are the rows tight at the point, and along a fiber that
tight set can change only at the two ends.  A face's closed points are the
pieces whose mask holds its active rows, its relative interior those whose
mask is exactly them; closed counts sum the interior counts of the faces
below.  A face whose affine span misses the lattice collects no points and
counts 0, so totals over all faces stay clean.  The hypersurface counts of
P read its entry (face 0) of ``face_counts``.  The other scans serve the
checks that compare with this one: the edge walk of ``skeleton_count``,
and the dilate walks of ``lattice_count``, whose L(1) ``count_report``
lists beside face 0's count and the random sweep holds equal to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial
from operator import mul

from .errors import UnboundedError
from .lattice import as_rat
from .polytope import Face, FaceLattice, Polytope, _bits, _integer_box, _scaled, cone_over


def _fibers(rows, lo, hi):
    """Nonempty fibers (x, l, h, inner) of {y in Z^n : a.y >= b for (a, b) in rows}
    in the box lo..hi.

    x runs over the integer points of the box's first n-1 coordinates in
    lexicographic order, and the fiber over x is {x + (t,) : l <= t <= h}.
    A row with last coefficient c > 0 bounds t from below by a ceil division,
    one with c < 0 from above by a floor division, and one with c = 0 accepts
    or rejects x whole.  inner counts the fiber's points on no row: 0 when a
    flat row is tight at x, else h - l + 1 less each end where a row is
    tight, an end l = h taken once.  On integer rows that is the fiber of
    the rows (a, b + 1).
    """
    flat, up, down = [], [], []
    for a, b in rows:
        c = a[-1]
        (down if c < 0 else up if c else flat).append((a[:-1], c, b))
    box_lo, box_hi = lo[-1], hi[-1]
    for x in product(*(range(l, h + 1) for l, h in zip(lo[:-1], hi[:-1]))):
        on_flat = False
        for a, _, b in flat:
            s = sum(map(mul, a, x)) - b
            if s < 0:
                break
            if not s:
                on_flat = True
        else:
            l, on_l = box_lo, False
            for a, c, b in up:
                s = b - sum(map(mul, a, x))
                t = -(-s // c)
                if t > l:
                    l, on_l = t, c * t == s
                elif t == l and c * t == s:
                    on_l = True
            if l > box_hi:
                continue
            h, on_h = box_hi, False
            for a, c, b in down:
                s = b - sum(map(mul, a, x))
                t = s // c
                if t < l:
                    break
                if t < h:
                    h, on_h = t, c * t == s
                elif t == h and c * t == s:
                    on_h = True
            else:
                if on_flat:
                    inner = 0
                elif l == h:
                    inner = 0 if on_l or on_h else 1
                else:
                    inner = h - l + 1 - on_l - on_h
                yield x, l, h, inner


def _classified(rows, lo, hi):
    """The fibers of _fibers cut into pieces (x, s, e, mask) by tight row set.

    mask has bit j set when rows[j] is tight at every x + (t,) with
    s <= t <= e.  A row with a zero last coefficient is tight along the whole
    fiber or nowhere on it; any other row is tight at one t at most, and only
    at an end of the fiber.  Pieces come in increasing x + (t,).
    """
    split = [(a[:-1], a[-1], b, 1 << j) for j, (a, b) in enumerate(rows)]
    for x, l, h, _ in _fibers(rows, lo, hi):
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


def _rows(p: Polytope, k=1):
    """The integer rows of kP."""
    return [(a, k * b) for a, b in p.rows]


def _pieces(lattice: FaceLattice):
    """The classified scan of the lattice's compact polytope of rank n >= 1,
    as a tuple of _classified pieces; computed once per lattice."""
    memo = lattice._memo
    if "counting.pieces" not in memo:
        p = lattice.polytope
        if not p.is_compact:
            raise UnboundedError("unbounded input")
        memo["counting.pieces"] = tuple(_classified(p.rows, *_integer_box(p.homogenized)))
    return memo["counting.pieces"]


def _listing(obj, face: Face | None, strict: bool):
    """(count, points) of a face, or of P itself, read off the classified scan.

    A point is in the closed face when its tight rows include the face's
    active rows, and in its relative interior when they are exactly those.
    """
    lattice = obj.face_lattice() if isinstance(obj, Polytope) else obj
    if lattice.n == 0:
        return 1, ((),)
    want = 0 if face is None else lattice._active[face.id]
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

    Adds up fiber lengths; no point is listed and no dilate is built.  One
    walk of kP's rows gives both counts of k, and both are kept on p.
    """
    if k <= 0:
        raise ValueError("dilation factor must be positive")
    if not p.is_compact:
        raise UnboundedError("unbounded input")
    if p.n == 0:
        return 1
    table = p._memo.setdefault("counting.dilates", {})
    if (k, strict) not in table:
        closed = inner = 0
        for _, l, h, i in _fibers(_rows(p, k), *_integer_box(p.homogenized, k)):
            closed += h - l + 1
            inner += i
        table[k, False], table[k, True] = closed, inner
    return table[k, strict]


def _classify(lattice: FaceLattice):
    """Relative-interior lattice-point count of every face, by face id.

    Read off the classified scan: each piece goes to the face whose
    tight-row mask is the piece's (``by_active``).
    """
    inner = [0] * len(lattice.faces)
    if lattice.n == 0:
        inner[0] = 1
        return inner
    for _, s, e, mask in _pieces(lattice):
        inner[lattice.by_active[mask]] += e - s + 1
    return inner


def face_counts(lattice: FaceLattice):
    """(closed, interior) lattice-point counts of every face, indexed by face id.

    Computed once per lattice of a compact polytope; a closed count sums the
    interior counts of the faces below.
    """
    memo = lattice._memo
    if "counting.face_counts" not in memo:
        inner = _classify(lattice)
        memo["counting.face_counts"] = tuple(
            (sum(inner[g] for g in _bits(below)), inner[f])
            for f, below in enumerate(lattice._below))
    return memo["counting.face_counts"]


def skeleton_count(lattice: FaceLattice) -> int:
    """Number of lattice points on the union of the 1-dimensional faces.

    Taken from the edges' point sets, never from face_counts, so that the
    identity points = vertices + edge interiors stays a check of that table;
    computed once per lattice.
    """
    if not lattice.is_compact:
        raise UnboundedError("unbounded input")
    memo = lattice._memo
    if "counting.skeleton" not in memo:
        seen = set()
        for f in lattice.of_dim(1):
            seen.update(_edge_points(*(lattice.polytope.homogenized[i] for i in f.vertex_ids)))
        memo["counting.skeleton"] = len(seen)
    return memo["counting.skeleton"]


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

    Lattice points at grade k correspond exactly to the lattice points of kP,
    so grade k > 0 is counted by ``lattice_count(base, k)``.
    """

    polytope: Polytope
    base: Polytope

    def slice_count(self, k: int) -> int:
        if k < 0:
            return 0
        return lattice_count(self.base, k) if k else 1


def cone_over_polytope(p: Polytope) -> ConeOverPolytope:
    """Home of a compact polytope at height one inside a pointed cone
    (``polytope.cone_over``), graded by the last coordinate."""
    return ConeOverPolytope(cone_over(p), p)


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
