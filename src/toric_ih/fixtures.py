"""Bundled fixture polytopes: the standard desk-scale zoo.

These back the consistency battery of the command line `check` subcommand
and the regression suite.  Everything is a lattice polytope (or lattice
cone) in canonical form.  ``cone_over`` is ``polytope.cone_over``.
"""

from __future__ import annotations

from itertools import product

from .polytope import Polytope, cone_over

# Convex lattice polygons with exactly k vertices, k = 3..8.
LATTICE_POLYGONS = {
    3: ((0, 0), (1, 0), (0, 1)),
    4: ((0, 0), (1, 0), (1, 1), (0, 1)),
    5: ((0, 0), (1, 0), (2, 1), (2, 2), (0, 1)),
    6: ((0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)),
    7: ((0, 0), (1, 0), (2, 1), (2, 2), (1, 3), (0, 3), (-1, 2)),
    8: ((0, 0), (1, 0), (2, 1), (2, 2), (1, 3), (0, 3), (-1, 2), (-1, 1)),
}


def point() -> Polytope:
    """The unique rank-zero polytope."""
    return Polytope.from_points([()])


def simplex(n: int, scale: int = 1) -> Polytope:
    pts = [tuple([0] * n)]
    for i in range(n):
        pts.append(tuple(scale if j == i else 0 for j in range(n)))
    return Polytope.from_points(pts)


def cube(n: int, side: int = 1) -> Polytope:
    return Polytope.from_points(list(product((0, side), repeat=n)))


def cross_polytope(n: int) -> Polytope:
    pts = []
    for i in range(n):
        for s in (1, -1):
            pts.append(tuple(s if j == i else 0 for j in range(n)))
    return Polytope.from_points(pts)


def octahedron() -> Polytope:
    return cross_polytope(3)


def square_pyramid() -> Polytope:
    """Apex over the square (+-1, +-1): the smallest non-simple 3-polytope."""
    return Polytope.from_points([(1, 1, 0), (-1, 1, 0), (1, -1, 0), (-1, -1, 0), (0, 0, 1)])


def lattice_polygon(k: int) -> Polytope:
    return Polytope.from_points(LATTICE_POLYGONS[k])


def cone_over_polygon(k: int) -> Polytope:
    return cone_over(lattice_polygon(k))


def quadrant(n: int = 2) -> Polytope:
    rows = [(tuple(1 if j == i else 0 for j in range(n)), 0) for i in range(n)]
    return Polytope.from_inequalities(rows)


def prism_over_simplex(n: int) -> Polytope:
    """Simplex x segment: a simple lattice (n+1)-polytope."""
    pts = []
    base = simplex(n).vertices
    for h in (0, 1):
        for v in base:
            pts.append(tuple(v) + (h,))
    return Polytope.from_points(pts)


def random_lattice_polytope(rng, dim: int, npoints: int = 8, bound: int = 3) -> Polytope:
    """Full-dimensional lattice polytope from random points in a box."""
    from .errors import NotFullDimensionalError

    while True:
        pts = {tuple(rng.randint(-bound, bound) for _ in range(dim))
               for _ in range(npoints)}
        try:
            p = Polytope.from_points(sorted(pts))
        except (NotFullDimensionalError, ValueError):
            continue
        return p


def random_unimodular_matrix(rng, n: int, ops: int = 4):
    """Product of a few elementary integer row operations (det +-1)."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == 0 and i != j:
            c = rng.choice((-1, 1))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return [tuple(row) for row in m]


def standard_fixtures() -> dict[str, Polytope]:
    """The named fixtures the `check` subcommand exercises."""
    out = {
        "segment": Polytope.from_points([(0,), (1,)]),
        "simplex-2": simplex(2),
        "simplex-3": simplex(3),
        "triangle-3x": simplex(2, scale=3),
        "triangle-4x": simplex(2, scale=4),
        "square": cube(2),
        "cube": cube(3),
        "octahedron": octahedron(),
        "square-pyramid": square_pyramid(),
        "prism": prism_over_simplex(2),
    }
    for k in range(3, 9):
        out[f"polygon-{k}"] = lattice_polygon(k)
    return out


def cone_fixtures() -> dict[str, Polytope]:
    out = {"quadrant": quadrant(2), "octant": quadrant(3)}
    for k in range(3, 9):
        out[f"cone-{k}gon"] = cone_over_polygon(k)
    out["cone-cube"] = cone_over(cube(3))
    out["cone-octahedron"] = cone_over(octahedron())
    return out
