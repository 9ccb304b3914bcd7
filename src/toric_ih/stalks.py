"""Intersection-complex stalk polynomials of toric varieties.

Everything lives in the Tate subring of the Grothendieck ring of mixed Hodge
structures, identified with Z[t] where t has weight two.  The local stalk
polynomial of a face is produced by a truncated recursion over the interval
of faces above it: with c the codimension of the face,

    m_face = truncate_below_{c/2}( (1 - t) * sum over strictly larger faces
             of (t - 1)^(relative dim - 1) * m_larger ),

seeded with m = 1 on the whole polytope.  The recursion runs purely on the
abstract interval poset; no transverse slice is ever constructed, so there is
no geometry (and no rounding) involved beyond the face lattice itself.  It
runs on plain int coefficient lists: the faces already done are grouped by
dimension and stalk as bitmasks, so the sum over the faces above a face is
one popcount per group against the face's up-set, and each relative
dimension costs one product with (t - 1)^k.  The stalks become ``TatePoly``
values at the end.

For a compact polytope the sum of (t-1)^dim * m over all faces is the class
of the intersection cohomology of the associated projective toric variety:
palindromic, nonnegative and unimodal up to the middle.  For a cone with a
vertex the same data yields the classes of the punctured cone and the
point-supported summands of the decomposition of the blow-up pushforward.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import InvariantViolation, PoincareDualityError, UnsupportedShapeError
from .lattice import as_rat
from .polytope import Face, FaceLattice


class TatePoly:
    """Integer polynomial in the weight-two Tate class t.

    Immutable; supports exact ring arithmetic, coefficient truncation and the
    palindromy/unimodality predicates the structure theory guarantees.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_c", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("TatePoly is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def t(cls):
        return cls((0, 1))

    @classmethod
    def monomial(cls, k, c=1):
        return cls((0,) * k + (c,))

    @property
    def coeffs(self):
        return self._c

    def coeff(self, k: int) -> int:
        return self._c[k] if 0 <= k < len(self._c) else 0

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._c) - 1

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = TatePoly((other,))
        return isinstance(other, TatePoly) and self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def __add__(self, other):
        if isinstance(other, int):
            other = TatePoly((other,))
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        return TatePoly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    __radd__ = __add__

    def __neg__(self):
        return TatePoly([-x for x in self._c])

    def __sub__(self, other):
        if isinstance(other, int):
            other = TatePoly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return TatePoly([other * x for x in self._c])
        out = [0] * (len(self._c) + len(other._c))
        for i, x in enumerate(self._c):
            if x:
                for j, y in enumerate(other._c):
                    out[i + j] += x * y
        return TatePoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = TatePoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, value):
        acc = 0
        for c in reversed(self._c):
            acc = acc * value + c
        return acc

    def truncate_below(self, alpha) -> "TatePoly":
        """Keep exactly the terms of degree k < alpha."""
        alpha = as_rat(alpha)
        return TatePoly([c for k, c in enumerate(self._c) if Fraction(k) < alpha])

    def is_palindromic(self, d=None) -> bool:
        d = self.degree if d is None else d
        if d < 0:
            return True
        cs = [self.coeff(k) for k in range(d + 1)]
        return cs == cs[::-1]

    def is_unimodal_to_middle(self, d=None) -> bool:
        d = self.degree if d is None else d
        cs = [self.coeff(k) for k in range(d + 1)]
        return all(cs[k] <= cs[k + 1] for k in range(len(cs) // 2))

    def __repr__(self):
        if not self._c:
            return "0"
        parts = []
        for k, c in enumerate(self._c):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = "t" if k == 1 else f"t^{k}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


T = TatePoly.t()
ONE = TatePoly.one()


def truncate_below(h: TatePoly, alpha) -> TatePoly:
    """Coefficient truncation keeping powers t^k with k < alpha."""
    return h.truncate_below(alpha)


@lru_cache(maxsize=None)
def _tm1(k: int) -> tuple[int, ...]:
    """Coefficients of (t - 1)^k, lowest degree first; k never exceeds the
    largest dimension asked about, which bounds the cache."""
    return tuple((-1) ** (k - i) * comb(k, i) for i in range(k + 1))


def _tm1_coeffs(rows, size) -> list[int]:
    """Coefficients of t^0 .. t^(size - 1), lowest degree first, of the sum
    over k of (t - 1)^k * rows[k], each row a list of int coefficients."""
    out = [0] * size
    for k, row in enumerate(rows):
        tk = _tm1(k)
        for i, c in enumerate(row[:size]):
            if c:
                for j, x in enumerate(tk[:size - i], i):
                    out[j] += c * x
    return out


def _tm1_class(terms) -> TatePoly:
    """The sum of (t - 1)^k * m over pairs (k, m) of an int k >= 0 and a
    sequence m of int coefficients; the m of each k are added into one row,
    so each distinct k costs one convolution."""
    rows = []
    for k, m in terms:
        rows.extend([] for _ in range(k + 1 - len(rows)))
        row = rows[k]
        row.extend([0] * (len(m) - len(row)))
        for i, c in enumerate(m):
            row[i] += c
    return TatePoly(_tm1_coeffs(rows, max((k + len(r) for k, r in enumerate(rows)), default=0)))


def _require_shape(lattice: FaceLattice) -> str:
    if lattice.is_compact:
        return "compact"
    if lattice.cone_vertex_id is not None:
        return "cone"
    raise UnsupportedShapeError(
        "unsupported shape: need a compact polytope or a cone with a vertex")


def stalk_polynomials(lattice: FaceLattice) -> dict[int, TatePoly]:
    """Local stalk polynomial of every face, keyed by face id.

    Results are memoized on the lattice; values are immutable so the cache
    is safe to publish across threads.
    """
    cached = getattr(lattice, "_stalk_memo", None)
    if cached is not None:
        return cached
    _require_shape(lattice)
    # The faces done so far, grouped by (dim, stalk coefficients) as bitmasks
    # over face ids: a group's share of the sum over the faces above a face
    # is its stalk times the popcount of the group AND the face's up-set.
    coeffs: dict[int, tuple[int, ...]] = {}
    groups: dict[tuple[int, tuple[int, ...]], int] = {}
    for face in sorted(lattice.faces, key=lambda f: -f.dim):
        if face.codim == 0:
            m = [1]
        else:
            size = (face.codim + 1) // 2  # the powers t^k with k < codim / 2
            above = lattice.up_set(face.id) & ~(1 << face.id)
            rows = [[0] * size for _ in range(face.codim)]
            for (dim, cs), mask in groups.items():
                mult = (above & mask).bit_count()
                if mult:
                    row = rows[dim - face.dim - 1]
                    for i, c in enumerate(cs):
                        row[i] += mult * c
            acc = _tm1_coeffs(rows, size)
            m = [acc[0]] + [acc[k] - acc[k - 1] for k in range(1, size)]  # (1 - t) * acc
            while m and not m[-1]:
                m.pop()
            if not m or m[0] != 1 or any(c < 0 for c in m):
                raise InvariantViolation(f"stalk polynomial of face {face.id} is not "
                                         f"1 + nonnegative terms: {TatePoly(m)}")
            if 2 * (len(m) - 1) >= face.codim:
                raise InvariantViolation(f"stalk polynomial of face {face.id} exceeds "
                                         f"the degree bound: {TatePoly(m)}")
        coeffs[face.id] = m = tuple(m)
        groups[face.dim, m] = groups.get((face.dim, m), 0) | 1 << face.id
    out = {fid: TatePoly(m) for fid, m in coeffs.items()}
    lattice._stalk_memo = out
    return out


def local_ic_polynomial(lattice: FaceLattice, face) -> TatePoly:
    """Stalk polynomial m(t) of one face (coefficient of t^k = even stalk rank)."""
    fid = face.id if isinstance(face, Face) else int(face)
    return stalk_polynomials(lattice)[fid]


@dataclass(frozen=True)
class StalkEntry:
    """One nonzero local system rank: degree j = 2k, Tate twist -k."""

    face_id: int
    degree: int
    rank: int
    twist: int


def stalk_table(lattice: FaceLattice) -> tuple[StalkEntry, ...]:
    """All nonzero stalk ranks, face by face.

    Odd degrees and degrees at or above the face codimension carry rank 0 and
    are omitted; the open stratum keeps its single rank-one entry in degree 0.
    """
    ms = stalk_polynomials(lattice)
    entries = []
    for face in lattice.faces:
        m = ms[face.id]
        for k in range(m.degree + 1):
            r = m.coeff(k)
            if r:
                entries.append(StalkEntry(face.id, 2 * k, r, -k))
    return tuple(entries)


def global_ih_class(lattice: FaceLattice) -> TatePoly:
    """Intersection cohomology class of the projective toric variety of a
    compact polytope: coefficient of t^k is dim IH^{2k}; odd degrees vanish."""
    if not lattice.is_compact:
        raise UnsupportedShapeError("global class needs a compact polytope")
    ms = stalk_polynomials(lattice)
    h = _tm1_class((face.dim, ms[face.id].coeffs) for face in lattice.faces)
    d = lattice.n
    if h.degree != d or any(c < 0 for c in h.coeffs):
        raise InvariantViolation(f"global class has wrong degree or negative ranks: {h}")
    if not h.is_palindromic(d):
        raise InvariantViolation(f"global class is not palindromic: {h}")
    if not h.is_unimodal_to_middle(d):
        raise InvariantViolation(f"global class is not unimodal to the middle: {h}")
    return h


def ih_betti_numbers(lattice: FaceLattice) -> tuple[int, ...]:
    """All Betti numbers of intersection cohomology, odd degrees included."""
    h = global_ih_class(lattice)
    d = lattice.n
    out = []
    for j in range(2 * d + 1):
        out.append(h.coeff(j // 2) if j % 2 == 0 else 0)
    return tuple(out)


def punctured_cone_classes(lattice: FaceLattice):
    """(ih, ih_c) classes of the cone minus its vertex.

    Both are computed from their own formulas; they satisfy ih = -ih_c.
    """
    if lattice.cone_vertex_id is None:
        raise UnsupportedShapeError("punctured classes need a cone with a vertex")
    apex = lattice.cone_vertex_id
    ms = stalk_polynomials(lattice)
    faces = [face for face in lattice.faces if face.id != apex]
    ih = (1 - T) * _tm1_class((face.dim - 1, ms[face.id].coeffs) for face in faces)
    ihc = _tm1_class((face.dim, ms[face.id].coeffs) for face in faces)
    return ih, ihc


def primitive_parts(h: TatePoly, d: int) -> TatePoly:
    """Primitive ranks of a palindromic degree-d class under hard Lefschetz.

    g = truncate_below_{(d+1)/2}((1-t) h); the original class is recovered by
    h_k = sum of g_j over j <= min(k, d-k).
    """
    if not h.is_palindromic(d):
        raise PoincareDualityError(f"violates Poincare duality: {h} is not palindromic")
    return ((1 - T) * h).truncate_below(Fraction(d + 1, 2))


@dataclass(frozen=True)
class SummandTable:
    """Point-supported pure summands of the blow-up pushforward.

    Entries (degree, rank, twist) with hard Lefschetz symmetry about the
    cone dimension: the ranks in degrees n - j and n + j agree.
    """

    dim: int
    entries: tuple[tuple[int, int, int], ...]

    def rank(self, degree: int) -> int:
        for j, r, _ in self.entries:
            if j == degree:
                return r
        return 0


def decomposition_summands(lattice: FaceLattice, n: int | None = None) -> SummandTable:
    """Summand ranks for the single-vertex toric blow-up of a cone.

    The compact face figure of the cone has intersection cohomology class
    h; the summand in degree 2k has rank h_k - g_k with g the primitive part,
    carried by the Tate twist -k.
    """
    if lattice.cone_vertex_id is None:
        raise UnsupportedShapeError("decomposition summands need a cone with a vertex")
    if n is None:
        n = lattice.n
    elif n != lattice.n:
        raise ValueError(f"cone dimension is {lattice.n}, not {n}")
    apex = lattice.cone_vertex_id
    ms = stalk_polynomials(lattice)
    h = _tm1_class((face.dim - 1, ms[face.id].coeffs)
                   for face in lattice.faces if face.id != apex)
    g = primitive_parts(h, n - 1)
    entries = []
    for k in range(n):
        r = h.coeff(k) - g.coeff(k)
        if r < 0:
            raise InvariantViolation(f"negative summand rank in degree {2 * k}")
        if r:
            entries.append((2 * k, r, -k))
    table = SummandTable(n, tuple(entries))
    for j, r, _ in table.entries:
        if table.rank(2 * n - j) != r:
            raise InvariantViolation("summand table breaks hard Lefschetz symmetry")
    return table


def h_polynomial_from_f_vector(f_vector) -> TatePoly:
    """h-polynomial of a simple polytope from its face counts alone.

    ``f_vector[d]`` counts d-dimensional faces (the polytope itself included).
    For a simple compact polytope this equals the global intersection
    cohomology class, giving an independent check of the stalk recursion.
    """
    return _tm1_class((d, (count,)) for d, count in enumerate(f_vector))
