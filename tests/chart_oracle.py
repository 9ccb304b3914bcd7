"""Lattice-chart oracle: the original Fraction frame of an affine span and
its Fraction coordinates, with the rational solve they take.

``pairing`` is the Fraction pairing of a rational point with a functional.
``from_coords`` maps frame coordinates back to the span point.
``oracle_span_equations`` clears the denominators of the span's directions
one Fraction at a time and pairs the first point with each equation in
Fractions; ``oracle_affine_frame`` clears the right-hand sides' denominators
the same way, then solves the integer system.  ``oracle_to_coords`` solves
the frame's basis for a point by Gauss-Jordan elimination over Q
(``solve_consistent``) and checks the solution by mapping it back
(``from_coords``).  ``pairing``, ``solve_consistent`` and ``vsub`` serve
the other Fraction oracles too.  None of them reads the frame's Hermite
transform; they are the reference for the integer chart's differential
tests and for ``conftest.brute_span_lattice_points``.
"""

from __future__ import annotations

from fractions import Fraction

from toric_ih.errors import NonIntegralSpanError
from toric_ih.lattice import (
    AffineLatticeFrame,
    as_rat,
    identity_rows,
    integerize,
    rat_vector,
    solve_integer_system,
)


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def pairing(u, v) -> Fraction:
    """<u, v> in Fractions, for rational u and v of one length."""
    assert len(u) == len(v), (u, v)
    return sum((as_rat(a) * as_rat(b) for a, b in zip(u, v)), Fraction(0))


def from_coords(frame: AffineLatticeFrame, coords) -> tuple:
    """The span point with the given coordinates in the frame, as ints when
    it is a lattice point."""
    assert len(coords) == frame.dim, (coords, frame)
    p = rat_vector(frame.base)
    for c, b in zip(coords, frame.basis):
        p = tuple(x + as_rat(c) * y for x, y in zip(p, b))
    if all(x.denominator == 1 for x in p):
        return tuple(int(x) for x in p)
    return p


def solve_consistent(rows, rhs):
    """One solution of rows @ x = rhs over Q, or None if inconsistent.

    Gauss-Jordan elimination of the augmented rows; free variables are 0.
    """
    if not rows:
        return None
    n = len(rows[0])
    m = [[as_rat(c) for c in r] + [as_rat(b)] for r, b in zip(rows, rhs)]
    pivots = []
    for c in range(n + 1):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        if c == n:
            return None  # pivot in the rhs column
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = m[i][n]
    return tuple(x)


def oracle_span_equations(points):
    """Integer equations (C, e) with affine span(points) = {x : C @ x = e},
    the rows of C a basis of the saturated lattice of functionals vanishing
    on the span's direction space, e Fractions."""
    pts = [rat_vector(p) for p in points]
    n, p0 = len(pts[0]), pts[0]
    dirs = [d for d in (integerize(vsub(p, p0)) for p in pts[1:]) if any(d)]
    eqs = solve_integer_system(dirs)[1] if dirs else [tuple(r) for r in identity_rows(n)]
    return tuple(eqs), tuple(pairing(p0, c) for c in eqs)


def oracle_affine_frame(points) -> AffineLatticeFrame:
    """Lattice frame of the affine span of rational points, in Fractions."""
    eqs, rhs = oracle_span_equations(points)
    n = len(points[0])
    if not eqs:
        return AffineLatticeFrame(tuple([0] * n), tuple(tuple(r) for r in identity_rows(n)))
    int_rows, int_rhs = [], []
    for row, e in zip(eqs, rhs):
        int_rows.append([e.denominator * c for c in row])
        int_rhs.append(e.numerator)
    x0, kernel = solve_integer_system(int_rows, int_rhs)
    if x0 is None:
        raise NonIntegralSpanError("non-integral span: no lattice point on the affine span")
    return AffineLatticeFrame(x0, kernel)


def oracle_to_coords(frame: AffineLatticeFrame, point) -> tuple[Fraction, ...]:
    """Coordinates of a span point in the frame; ValueError off the span."""
    p = rat_vector(point)
    if not frame.basis:
        if p != rat_vector(frame.base):
            raise ValueError("point not on the affine span")
        return ()
    cols = [[Fraction(b[i]) for b in frame.basis] for i in range(len(p))]
    y = solve_consistent(cols, list(vsub(p, frame.base)))
    if y is None or from_coords(frame, y) != p:
        raise ValueError("point not on the affine span")
    return y
