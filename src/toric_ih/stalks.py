"""Intersection-complex stalk polynomials of toric varieties.

Everything lives in the Tate subring of the Grothendieck ring of mixed Hodge
structures, identified with Z[t] where t has weight two: ``TatePoly``, the
one-variable case of ``IntPoly``, the package's one sparse integer
polynomial ring (``hypersurface.EPoly2`` is its (u, v) case).

Every class here is one interval sum over the face lattice: the sum over
faces G in a set S of (t - 1)^(dim G - b - 1) * m_G, where b is the
dimension of the interval's bottom, -1 for the empty face.  The local stalk
polynomial of a face Q, of codimension c, takes S the faces strictly above
Q and b = dim Q, seeded with m = 1 on the whole polytope:

    m_Q = truncate_below_{c/2}( (1 - t) * sum ).

The recursion runs purely on the abstract interval poset; no transverse slice
is ever constructed, so there is no geometry (and no rounding) involved
beyond the face lattice itself.  It runs on plain int coefficient lists:
faces are grouped by dimension and stalk as bitmasks, and a term table for
a bottom dimension b holds, for each group above b, its bitmask and its
stalk times (t - 1)^(dim - b - 1), truncated.  A sum over S is then one
popcount per table entry against S times that entry's short row.  The
recursion goes down by dimension, so it builds one table per dimension b,
when it reaches the first face of dimension b: every group above b is
complete by then, and the table serves every face of that dimension.

For a compact polytope, all faces summed from the empty bottom give the
class of the intersection cohomology of the projective toric variety:
palindromic, nonnegative and unimodal up to the middle.  For a cone with a
vertex, the faces other than the apex summed from the apex (b = 0) and from
the empty face give the classes of the punctured cone and the
point-supported summands of the decomposition of the blow-up pushforward.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from operator import add
from typing import NamedTuple

from .errors import InvariantViolation, PoincareDualityError, UnsupportedShapeError
from .lattice import as_rat
from .polytope import FaceLattice


class IntPoly:
    """Sparse immutable polynomial with integer coefficients.

    The ring shared by ``TatePoly`` (in t) and ``EPoly2`` (in u, v): a dict
    from exponent tuples to nonzero ints, built from a dict or from pairs
    (exponents, coefficient).  An int on either side of an operation is the
    constant polynomial.  A subclass names its variables in ``_vars`` and
    its print order of exponent tuples in ``_order``.
    """

    __slots__ = ("_d",)
    _vars: tuple[str, ...] = ()
    _order = staticmethod(lambda exps: exps)

    def __init__(self, terms=()):
        acc = {}
        for exps, c in (terms.items() if isinstance(terms, dict) else terms):
            exps = tuple(map(int, exps))
            acc[exps] = acc.get(exps, 0) + int(c)
        object.__setattr__(self, "_d", {k: c for k, c in acc.items() if c})

    @classmethod
    def _of(cls, d):
        """Wrap a dict of exponent tuples to ints, dropping the zero terms."""
        out = object.__new__(cls)
        object.__setattr__(out, "_d", {k: c for k, c in d.items() if c})
        return out

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls._of({})

    @classmethod
    def one(cls):
        return cls._of({(0,) * len(cls._vars): 1})

    @property
    def terms(self):
        """(exponents, coefficient) pairs, sorted by exponents."""
        return tuple(sorted(self._d.items()))

    def coeff(self, *exps) -> int:
        return self._d.get(exps, 0)

    def _coerce(self, other):
        if isinstance(other, int):
            return self._of({(0,) * len(self._vars): other})
        return other if type(other) is type(self) else None

    def __bool__(self):
        return bool(self._d)

    def __eq__(self, other):
        other = self._coerce(other)
        return other is not None and self._d == other._d

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        const = (0,) * len(self._vars)
        if self._d.keys() <= {const}:
            return hash(self._d.get(const, 0))
        return hash(frozenset(self._d.items()))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = dict(self._d)
        for k, c in other._d.items():
            d[k] = d.get(k, 0) + c
        return self._of(d)

    __radd__ = __add__

    def __neg__(self):
        return self._of({k: -c for k, c in self._d.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = {}
        for k1, c1 in self._d.items():
            for k2, c2 in other._d.items():
                k = tuple(map(add, k1, k2))
                d[k] = d.get(k, 0) + c1 * c2
        return self._of(d)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out, base = self.one(), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, *values):
        return sum(c * prod(x ** e for x, e in zip(values, k)) for k, c in self._d.items())

    def __repr__(self):
        parts = []
        for k, c in sorted(self._d.items(), key=lambda kc: self._order(kc[0])):
            mono = "".join(v if e == 1 else f"{v}^{e}" for v, e in zip(self._vars, k) if e)
            if not mono:
                parts.append(str(c))
            elif c in (1, -1):
                parts.append(mono if c == 1 else f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ") or "0"


class TatePoly(IntPoly):
    """Integer polynomial in the weight-two Tate class t, built from its
    coefficients lowest degree first.

    Immutable; adds to the ring the coefficient truncation and the
    palindromy/unimodality predicates the structure theory guarantees.
    """

    __slots__ = ()
    _vars = ("t",)

    def __init__(self, coeffs=()):
        super().__init__(((k,), c) for k, c in enumerate(coeffs))

    @classmethod
    def t(cls):
        return cls((0, 1))

    @classmethod
    def monomial(cls, k, c=1):
        return cls((0,) * k + (c,))

    @property
    def coeffs(self):
        cs = []
        for (k,), c in self._d.items():
            if k >= len(cs):
                cs += [0] * (k + 1 - len(cs))
            cs[k] = c
        return tuple(cs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max((k for k, in self._d), default=-1)

    def truncate_below(self, alpha) -> "TatePoly":
        """Keep exactly the terms of degree k < alpha."""
        alpha = as_rat(alpha)
        return self._of({k: c for k, c in self._d.items() if k[0] < alpha})

    def is_palindromic(self, d=None) -> bool:
        d = self.degree if d is None else d
        cs = [self.coeff(k) for k in range(d + 1)]
        return cs == cs[::-1]

    def is_unimodal_to_middle(self, d=None) -> bool:
        d = self.degree if d is None else d
        cs = [self.coeff(k) for k in range(d + 1)]
        return all(cs[k] <= cs[k + 1] for k in range(len(cs) // 2))


T = TatePoly.t()
ONE = TatePoly.one()


@lru_cache(maxsize=None)
def _tm1(k: int) -> tuple[int, ...]:
    """Coefficients of (t - 1)^k, lowest degree first; k never exceeds the
    largest dimension asked about, which bounds the cache."""
    return tuple((-1) ** (k - i) * comb(k, i) for i in range(k + 1))


def _terms(groups, bottom: int, size: int) -> list[tuple[int, list[int]]]:
    """The term table of the interval sums from a bottom of dimension
    ``bottom`` (-1 for the empty face): for each group (dim, stalk) of
    ``groups`` with dim > bottom, its bitmask and the coefficients of t^0 ..
    t^(size - 1) of stalk * (t - 1)^(dim - bottom - 1).

    ``groups`` maps (dim, stalk coefficients) to the bitmask of the faces
    with that dimension and stalk.
    """
    table = []
    for (dim, cs), mask in groups.items():
        if dim > bottom:
            tk = _tm1(dim - bottom - 1)
            row = [0] * size
            for i, c in enumerate(cs[:size]):
                for j, x in enumerate(tk[:size - i], i):
                    row[j] += c * x
            table.append((mask, row))
    return table


def _table_sum(table, faces: int, size: int) -> list[int]:
    """Coefficients of t^0 .. t^(size - 1) of the interval sum over the
    faces in the bitmask ``faces``: each table entry's row times the
    popcount of its mask against them."""
    out = [0] * size
    for mask, row in table:
        mult = (faces & mask).bit_count()
        if mult:
            for i, c in enumerate(row):
                out[i] += mult * c
    return out


def _interval_sum(groups, faces: int, bottom: int, size: int) -> list[int]:
    """Coefficients of t^0 .. t^(size - 1), lowest degree first, of the sum
    over the faces G in the bitmask ``faces`` of (t - 1)^(dim G - bottom - 1)
    * m_G, where ``bottom`` is the dimension of the interval's bottom face
    (-1 for the empty face) and every face in ``faces`` lies above it."""
    return _table_sum(_terms(groups, bottom, size), faces, size)


def _stalks(lattice: FaceLattice):
    """(stalk by face id, groups): the truncated recursion from the top down,
    memoized on the lattice.  ``groups`` maps (dim, stalk coefficients) to a
    bitmask over face ids, as ``_terms`` takes it; values are immutable, so
    the memo is safe to publish across threads.

    Faces come by descending dimension, so when the first face of dimension
    b is reached every group above b is complete: its term table is built
    then, once, and serves every face of dimension b.
    """
    cached = lattice._memo.get("stalks.stalks")
    if cached is not None:
        return cached
    if not lattice.is_compact and lattice.cone_vertex_id is None:
        raise UnsupportedShapeError(
            "unsupported shape: need a compact polytope or a cone with a vertex")
    coeffs: dict[int, tuple[int, ...]] = {}
    groups: dict[tuple[int, tuple[int, ...]], int] = {}
    table_dim, up_set = None, lattice.up_set
    for face in sorted(lattice.faces, key=lambda f: -f.dim):
        if face.codim == 0:
            m = [1]
        else:
            size = (face.codim + 1) // 2  # the powers t^k with k < codim / 2
            if face.dim != table_dim:
                table, table_dim = _terms(groups, face.dim, size), face.dim
            # the table holds higher dimensions only, so no mask has the face's own bit
            acc = _table_sum(table, up_set(face.id), size)
            m = [acc[0]] + [acc[k] - acc[k - 1] for k in range(1, size)]  # (1 - t) * acc
            while m and not m[-1]:
                m.pop()
            if not m or m[0] != 1 or min(m) < 0:
                raise InvariantViolation(f"stalk polynomial of face {face.id} is not "
                                         f"1 + nonnegative terms: {TatePoly(m)}")
            if 2 * (len(m) - 1) >= face.codim:
                raise InvariantViolation(f"stalk polynomial of face {face.id} exceeds "
                                         f"the degree bound: {TatePoly(m)}")
        coeffs[face.id] = m = tuple(m)
        groups[face.dim, m] = groups.get((face.dim, m), 0) | 1 << face.id
    polys = {m: TatePoly(m) for m in set(coeffs.values())}
    lattice._memo["stalks.stalks"] = memo = ({fid: polys[m] for fid, m in coeffs.items()}, groups)
    return memo


def stalk_polynomials(lattice: FaceLattice) -> dict[int, TatePoly]:
    """Local stalk polynomial m(t) of every face, keyed by face id
    (memoized); the coefficient of t^k is the even stalk rank in degree 2k."""
    return _stalks(lattice)[0]


class StalkEntry(NamedTuple):
    """One nonzero local system rank: degree j = 2k, Tate twist -k.  An
    immutable named tuple, like ``Face``."""

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
    for i in range(len(lattice.faces)):
        for (k,), r in ms[i].terms:  # the nonzero terms, by degree
            entries.append(StalkEntry(i, 2 * k, r, -k))
    return tuple(entries)


def global_ih_class(lattice: FaceLattice) -> TatePoly:
    """Intersection cohomology class of the projective toric variety of a
    compact polytope: coefficient of t^k is dim IH^{2k}; odd degrees vanish.
    Memoized on the lattice once checked, so ``ih_betti_numbers`` reads it."""
    cached = lattice._memo.get("stalks.global")
    if cached is not None:
        return cached
    if not lattice.is_compact:
        raise UnsupportedShapeError("global class needs a compact polytope")
    d = lattice.n
    everything = (1 << len(lattice.faces)) - 1
    h = TatePoly(_interval_sum(_stalks(lattice)[1], everything, -1, d + 1))
    if h.degree != d or any(c < 0 for c in h.coeffs):
        raise InvariantViolation(f"global class has wrong degree or negative ranks: {h}")
    if not h.is_palindromic(d):
        raise InvariantViolation(f"global class is not palindromic: {h}")
    if not h.is_unimodal_to_middle(d):
        raise InvariantViolation(f"global class is not unimodal to the middle: {h}")
    lattice._memo["stalks.global"] = h
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
    apex, n, groups = lattice.cone_vertex_id, lattice.n, _stalks(lattice)[1]
    rest = lattice.up_set(apex) & ~(1 << apex)  # every face but the apex
    ih = (1 - T) * TatePoly(_interval_sum(groups, rest, 0, n))
    ihc = TatePoly(_interval_sum(groups, rest, -1, n + 1))
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


def decomposition_summands(lattice: FaceLattice) -> SummandTable:
    """Summand ranks for the single-vertex toric blow-up of a cone.

    The compact face figure of the cone has intersection cohomology class
    h; the summand in degree 2k has rank h_k - g_k with g the primitive part,
    carried by the Tate twist -k.
    """
    if lattice.cone_vertex_id is None:
        raise UnsupportedShapeError("decomposition summands need a cone with a vertex")
    n = lattice.n
    apex = lattice.cone_vertex_id
    rest = lattice.up_set(apex) & ~(1 << apex)  # every face but the apex
    h = TatePoly(_interval_sum(_stalks(lattice)[1], rest, 0, n))
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
    return sum((count * (T - 1) ** d for d, count in enumerate(f_vector)), TatePoly.zero())
