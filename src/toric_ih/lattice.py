"""Exact arithmetic over the character lattice.

Vectors are plain tuples: lattice vectors hold Python ints, rational vectors
hold ``fractions.Fraction`` entries (always in lowest terms with positive
denominator, which the Fraction type guarantees).  No floating point is used
anywhere.  All values are immutable and all functions are pure, so everything
here can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .errors import (
    DimensionMismatchError,
    InvariantViolation,
    NonIntegralSpanError,
    NotUnimodularError,
)


def as_rat(x) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def rat_vector(coords) -> tuple[Fraction, ...]:
    return tuple(as_rat(c) for c in coords)


def lattice_vector(coords) -> tuple[int, ...]:
    out = []
    for c in coords:
        c = as_rat(c)
        if c.denominator != 1:
            raise ValueError(f"not a lattice vector entry: {c}")
        out.append(int(c))
    return tuple(out)


def _require_length(v, n):
    """v, after checking that it has n coordinates."""
    if len(v) != n:
        raise DimensionMismatchError(f"vector of length {len(v)} in ambient dimension {n}")
    return v


def _require_square(rows, n):
    """rows, after checking that they are an n x n matrix."""
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatchError(f"matrix is not {n} x {n}")
    return rows


def pairing(u, v) -> Fraction:
    """The perfect pairing of a rational character with a cocharacter."""
    if len(u) != len(v):
        raise DimensionMismatchError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum((as_rat(a) * as_rat(b) for a, b in zip(u, v)), Fraction(0))


def dot(u, v):
    return sum(map(mul, u, v))


def integerize(u) -> tuple[int, ...]:
    """Scale a rational vector by a positive integer to clear denominators."""
    u = tuple(u)
    if all(type(c) is int for c in u):
        return u
    u = rat_vector(u)
    mult = lcm(*(c.denominator for c in u))
    return tuple(c.numerator * (mult // c.denominator) for c in u)


def primitive(u) -> tuple[int, ...]:
    """Primitive integer vector on the same ray (direction preserved)."""
    w = integerize(u)
    g = gcd(*w)
    if g == 1:
        return w
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(c // g for c in w)


# ---------------------------------------------------------------------------
# Linear algebra (dense, row based; desk scale only): rank and determinant by
# fraction-free elimination on ints.

def transpose(rows):
    return [list(col) for col in zip(*rows)] if rows else []


def mat_vec(rows, x):
    return tuple(dot(r, x) for r in rows)


def identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def det_int(rows) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return int(rows[0][0])
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    m = [[int(c) for c in r] for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def echelon_push(echelon, row) -> bool:
    """Reduce the int row against a fraction-free echelon, a list of
    (pivot column, reduced row), and append it when it is independent of
    the echelon's rows; returns whether it was.  The echelon's size is the
    rank of the rows pushed so far."""
    r = row
    for c, e in echelon:
        f = r[c]
        if f:
            p = e[c]
            r = [p * x - f * y for x, y in zip(r, e)]
    piv = next((c for c, x in enumerate(r) if x), None)
    if piv is None:
        return False
    g = gcd(*r)
    echelon.append((piv, [x // g for x in r]))
    return True


def mat_rank(rows) -> int:
    """Rank over Q: the size of one fraction-free echelon of the rows,
    rational rows integerized."""
    echelon = []
    for row in rows:
        echelon_push(echelon, integerize(row))
    return len(echelon)


# ---------------------------------------------------------------------------
# Integer lattice routines (Hermite reduction).

def ext_gcd(a: int, b: int):
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf_with_transform(rows):
    """Row Hermite normal form H = U @ A with U unimodular.

    H is in row-echelon form with positive pivots and the entries above each
    pivot reduced modulo it.  Returns (H, U) as lists of lists of ints.
    """
    h = [[int(c) for c in r] for r in rows]
    m = len(h)
    n = len(h[0]) if h else 0
    u = identity_rows(m)
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if h[i][c] != 0), None)
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, m):
            if h[i][c] == 0:
                continue
            g, s, t = ext_gcd(h[r][c], h[i][c])
            a_, b_ = h[r][c] // g, h[i][c] // g
            h[r], h[i] = (
                [s * x + t * y for x, y in zip(h[r], h[i])],
                [-b_ * x + a_ * y for x, y in zip(h[r], h[i])],
            )
            u[r], u[i] = (
                [s * x + t * y for x, y in zip(u[r], u[i])],
                [-b_ * x + a_ * y for x, y in zip(u[r], u[i])],
            )
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    return h, u


def solve_integer_system(rows, rhs=None):
    """Solve rows @ x = rhs over the integers.

    Returns (x0, kernel) where x0 is one integer solution (None when no
    integer solution exists) and kernel is a tuple of integer vectors forming
    a basis of the full integer kernel {x in Z^n : rows @ x = 0}.  The kernel
    basis is saturated: every integer kernel vector is an integer combination
    of it.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    if rhs is None:
        rhs = [0] * m
    if m == 0:
        raise ValueError("need at least one row (or a known ambient rank)")
    h, u = hnf_with_transform(transpose(rows))  # h = u @ rows^T, shapes n x m
    lead = []
    for i, hrow in enumerate(h):
        p = next((j for j in range(m) if hrow[j] != 0), None)
        if p is None:
            break
        lead.append((i, p))
    rank = len(lead)
    b = [int(x) for x in rhs]
    ys = {}
    for i, p in lead:
        if b[p] % h[i][p] != 0:
            return None, tuple(tuple(r) for r in u[rank:])
        y = b[p] // h[i][p]
        ys[i] = y
        b = [bx - y * hx for bx, hx in zip(b, h[i])]
    if any(b):
        return None, tuple(tuple(r) for r in u[rank:])
    x0 = [0] * n
    for i, y in ys.items():
        x0 = [a + y * c for a, c in zip(x0, u[i])]
    return tuple(x0), tuple(tuple(r) for r in u[rank:])


@dataclass(frozen=True)
class AffineLatticeFrame:
    """A lattice chart of the affine span of a face.

    ``base`` is a lattice point on the span and ``basis`` a lattice basis of
    the intersection of the span's direction space with Z^n, so the lattice
    points of the span are exactly base + (integer combinations of basis).
    The chart runs on ints: U @ transpose(basis) = [I; 0] for the Hermite
    transform U of the basis (``_hermite``), so the first ``dim`` rows of U
    read a point's coordinates off its offset from ``base`` and the other
    rows vanish on that offset exactly when the point is on the span.
    """

    base: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _hermite(self):
        """The Hermite transform U of transpose(basis); raises
        InvariantViolation when the basis is not a lattice basis of the
        integer points of its span (the Hermite block is not I)."""
        if not self.basis:
            return identity_rows(len(self.base))
        h, u = hnf_with_transform(transpose(self.basis))
        if h[:self.dim] != identity_rows(self.dim):
            raise InvariantViolation("frame basis is not saturated")
        return u

    def chart(self, w) -> tuple[int, ...]:
        """Homogenized coordinates (t y, t) of the span point x / t given as
        the int tuple w = (x, t), t > 0, where y are its coordinates in this
        frame: t y_j = <u_j, x - t base>.  Raises ValueError when the point
        is off the span."""
        t = w[-1]
        z = [a - t * b for a, b in zip(w, self.base)]
        vals = [dot(u, z) for u in self._hermite]
        if any(vals[self.dim:]):
            raise ValueError("point not on the affine span")
        return (*vals[:self.dim], t)

    def from_coords(self, coords) -> tuple:
        """The span point with the given coordinates in this frame; raises
        DimensionMismatchError unless there is one coordinate per basis vector."""
        p = rat_vector(self.base)
        for c, b in zip(_require_length(coords, self.dim), self.basis):
            p = tuple(x + as_rat(c) * y for x, y in zip(p, b))
        if all(x.denominator == 1 for x in p):
            return tuple(int(x) for x in p)
        return p


def homogenized_frame(ws) -> AffineLatticeFrame:
    """``affine_frame`` of the points x / t given as int tuples (x, t), t > 0.

    The span's equations C y = e are the saturated integer kernel of its
    directions x t0 - x0 t, with e = <c, x0> / t0, so the frame's base
    solves t0 C y = <C, x0>.  These directions and rows are positive
    multiples of the ones the points' Fractions give once cleared of
    denominators, and such multiples leave every Hermite transform below,
    so the frame, unchanged.
    """
    if not ws:
        raise ValueError("need at least one point")
    n, x0, t0 = len(ws[0]) - 1, ws[0][:-1], ws[0][-1]
    dirs = [d for d in ([a * t0 - b * w[-1] for a, b in zip(w, x0)] for w in ws[1:]) if any(d)]
    eqs = solve_integer_system(dirs)[1] if dirs else identity_rows(n)
    if not eqs:
        return AffineLatticeFrame(tuple([0] * n), tuple(tuple(r) for r in identity_rows(n)))
    base, kernel = solve_integer_system([[t0 * c for c in row] for row in eqs],
                                        [dot(c, x0) for c in eqs])
    if base is None:
        raise NonIntegralSpanError("non-integral span: no lattice point on the affine span")
    return AffineLatticeFrame(base, kernel)


def affine_frame(points) -> AffineLatticeFrame:
    """Lattice frame of the affine span of rational points.

    Raises NonIntegralSpanError when the span contains no lattice point
    (callers counting lattice points treat that face as contributing 0).
    """
    return homogenized_frame([integerize((*p, 1)) for p in points])


def unimodular_image(obj, u_rows):
    """Image of a point set (or anything with apply_unimodular, which checks
    U itself) under x -> Ux."""
    if hasattr(obj, "apply_unimodular"):
        return obj.apply_unimodular(u_rows)
    n = len(u_rows)
    d = det_int(_require_square(u_rows, n))
    if d not in (1, -1):
        raise NotUnimodularError(f"not unimodular: determinant {d}")
    seq = list(obj)
    if seq and isinstance(seq[0], (int, Fraction)):
        return mat_vec(u_rows, _require_length(seq, n))
    return tuple(mat_vec(u_rows, _require_length(p, n)) for p in seq)
