"""Brute-force counting oracle: the original bounding-box scan.

Every integer point of the bounding box, taken as the ceil and floor of
the ``Fraction`` vertices' coordinates (``oracle_box``), is tested with
exact rational membership (``Polytope.contains``, or ``contains_interior`` here),
and a lower-dimensional face is counted in the lattice chart of its affine span
(``reduce_to_span``), where it is full-dimensional.  Dilates are built as
polytopes.  None of this shares code with the fiber scans in
``toric_ih.counting``; it is the reference for their differential tests.
The Ehrhart coefficients have their own oracle, the ``Fraction`` Lagrange
interpolation that the integer forward-difference form replaced, and the
fiber kernel its own, ``oracle_fibers``, the list-building walk that the
one-pass closed and interior kernel replaced.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product
from operator import mul

from toric_ih.errors import NonIntegralSpanError, UnboundedError
from toric_ih.lattice import dot, homogenized_frame, integerize, primitive, rat_vector
from toric_ih.polytope import Polytope

from chart_oracle import from_coords


def reduce_to_span(points):
    """(polytope, frame): the points in lattice coordinates on their affine
    span, where their hull is full-dimensional; ``from_coords`` maps its
    points back.  Raises NonIntegralSpanError when the span misses the lattice."""
    ws = [integerize((*p, 1)) for p in points]
    frame = homogenized_frame(ws)
    return Polytope.from_homogenized(primitive(frame.chart(w)) for w in ws), frame


def oracle_fibers(rows, lo, hi):
    """Nonempty fibers (x, l, h) of {y in Z^n : a.y >= b for (a, b) in rows} in the box lo..hi,
    each bound the max or min over a list of every row's ceil or floor division."""
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


def contains_interior(p, point) -> bool:
    """Is the point strictly inside every facet row of p?"""
    x = rat_vector(point)
    return all(dot(a, x) > b for a, b in p.rows)


def oracle_box(vertices, k=1):
    """Smallest integer box holding k times the hull of the Fraction vertices:
    the ceil of each coordinate's least value and the floor of its greatest."""
    cols = list(zip(*vertices))
    return (tuple((k * min(c)).__ceil__() for c in cols),
            tuple((k * max(c)).__floor__() for c in cols))


def oracle_scan(p, strict=False):
    """Lattice points of a full-dimensional compact polytope (or its interior)."""
    if not p.is_compact:
        raise UnboundedError("unbounded input")
    if p.n == 0:
        return ((),)
    lo, hi = oracle_box(p.vertices)
    member = partial(contains_interior, p) if strict else p.contains
    return tuple(x for x in product(*(range(int(l), int(h) + 1) for l, h in zip(lo, hi)))
                 if member(x))


def oracle_face_points(lattice, face, strict=False):
    """Points of a face (or its relative interior), counted in its lattice chart.

    A face whose affine span misses the lattice has no points.
    """
    if face.dim == lattice.n:
        return oracle_scan(lattice.polytope, strict)
    if face.ray_ids:
        raise UnboundedError("unbounded input")
    try:
        chart, frame = reduce_to_span([lattice.polytope.vertices[i] for i in face.vertex_ids])
    except NonIntegralSpanError:
        return ()
    return tuple(sorted(from_coords(frame, y) for y in oracle_scan(chart, strict)))


def oracle_face_counts(lattice):
    """(closed, interior) counts of every face, by face id."""
    return tuple((len(oracle_face_points(lattice, f)), len(oracle_face_points(lattice, f, True)))
                 for f in lattice.faces)


def oracle_count(p, k=1, strict=False):
    """|kP ∩ Z^n|, or the interior count, by scanning the dilate's box."""
    return len(oracle_scan(p.dilate(k), strict))


def oracle_ehrhart_counts(p):
    return [1] + [oracle_count(p, k) for k in range(1, p.n + 1)]


def oracle_interpolate(counts):
    """Coefficients of the polynomial of degree len(counts) - 1 through (k, counts[k]),
    summed over the Lagrange basis in ``Fraction``s."""
    n = len(counts) - 1
    coeffs = [Fraction(0)] * (n + 1)
    for k, val in enumerate(counts):
        basis = [Fraction(1)]  # product over j != k of (x - j)/(k - j), as coefficients
        denom = Fraction(1)
        for j in range(n + 1):
            if j == k:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for i, c in enumerate(basis):
                new[i] -= j * c
                new[i + 1] += c
            basis = new
            denom *= k - j
        for i, c in enumerate(basis):
            coeffs[i] += val * c / denom
    return tuple(coeffs)
