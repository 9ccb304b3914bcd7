"""Brute-force hull oracles: the polar subset scan, the rank filter and the seed's two scans.

``canonical_polytope`` is the constructor every oracle builds through: it
sorts the vertices, rays and rows, makes the rows primitive, homogenizes
the sorted vertices to the primitive (x, t) a polytope stores, and
attaches the pairing incidence ``oracle_row_gens``, as
``Polytope.__init__`` did before every polytope came out of the hull.
``extreme_rays_by_subsets`` is the subset scan the double-description
routine in ``toric_ih.polytope`` replaced: the kernel of every
(d-1)-subset of the constraints (``kernel_ray``), kept when all of them lie
on one side.  ``irredundant_by_rank`` is the rank test that the hull's
bitmask filter ``_irredundant`` replaced.  ``fraction_sorted_from_points``
is the ``from_points`` route that ``Polytope.from_points`` replaced: the
same double description, on points first made ``Fraction`` tuples, deduped
and sorted as such, built with the pairing incidence.  ``hull_cone_over``
is the hull route to the cone over a polytope that ``polytope.cone_over``
replaced: ``from_points`` of the apex and one ray per homogenized vertex.
The seed's own scans are independent of both: V->H scans n-subsets of
homogenized generators with a cofactor kernel and keeps supporting
hyperplanes whose tight generators span a facet; H->V solves every
n-subset of rows by Cramer's rule for vertices and takes the cofactor
kernel of every (n-1)-subset of normals for rays.  All of them serve as
references for the hull's differential tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd
from operator import and_

from toric_ih.errors import (
    EmptyPolyhedronError,
    NotFullDimensionalError,
    NotPointedError,
)
from toric_ih.lattice import (
    as_rat,
    det_int,
    dot,
    integerize,
    lattice_vector,
    mat_rank,
    primitive,
    rat_vector,
)
from toric_ih.polytope import Polytope, _extreme_rays, _irredundant, normalize_row

from chart_oracle import vsub
from face_oracle import fraction_rank, oracle_row_gens


def canonical_polytope(n, verts, rays, rows):
    """The polytope of n, vertices, rays and rows given in any order and
    scaling: sorted, the rows made primitive, the vertices v stored as the
    primitive (v, 1) scaled, with the pairing incidence."""
    return Polytope(n, [primitive(v + (1,)) for v in sorted(map(rat_vector, verts))],
                    sorted(map(lattice_vector, rays)),
                    sorted(normalize_row(a, b) for a, b in rows), oracle_row_gens)


def kernel_ray(rows, d):
    """Primitive integer generator of the kernel of d - 1 integer rows of length d.

    Fraction-free Gauss-Jordan (Bareiss) elimination: every entry stays an
    integer minor, and at the end the matrix is D times its reduced echelon
    form, D the last pivot.  Returns None as soon as a second column without
    pivot shows the kernel has dimension above one.  The sign is arbitrary.
    """
    m = [list(r) for r in rows]
    k = len(m)
    prev = 1
    pivots = []
    free = None
    for c in range(d):
        r = len(pivots)
        piv = next((i for i in range(r, k) if m[i][c]), None)
        if piv is None:
            if free is not None:
                return None
            free = c
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(k):
            if i != r:
                f = m[i][c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], prow)]
        prev = p
        pivots.append(c)
    x = [0] * d
    x[free] = prev
    for i, c in enumerate(pivots):
        x[c] = -m[i][free]
    g = gcd(*x)
    return tuple(c // g for c in x)


def irredundant_by_rank(vecs, rays, tight, d):
    """The vectors vecs[i] whose tight rays (those with bit i in tight) have rank d - 1.

    With ``rays`` the extreme rays of the polar cone this picks the extreme
    generators of a cone; with ``rays`` the extreme rays of the cone itself
    it picks the facet-defining constraints.
    """
    return [v for i, v in enumerate(vecs)
            if mat_rank([r for r, z in zip(rays, tight) if z >> i & 1]) == d - 1]


def extreme_rays_by_subsets(cons, d):
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


def cramer_solve_int(rows, rhs):
    """Solve an integer n x n system exactly.

    Returns (numerators, denominator > 0) with x_i = numerators[i]/den, or
    None when the matrix is singular.
    """
    n = len(rows)
    d = det_int(rows)
    if d == 0:
        return None
    nums = []
    for i in range(n):
        col = [r[:i] + (b,) + r[i + 1:] for r, b in zip(rows, rhs)]
        nums.append(det_int(col))
    if d < 0:
        d = -d
        nums = [-x for x in nums]
    return nums, d


def cofactor_kernel_vector(rows):
    """Kernel generator of an integer (n-1) x n matrix via signed minors.

    Returns the zero tuple when the rows are dependent; otherwise an integer
    vector spanning the kernel (the generalized cross product).
    """
    n = len(rows[0]) if rows else 1
    out = []
    sign = 1
    for i in range(n):
        minor = [r[:i] + r[i + 1:] for r in rows]
        out.append(sign * det_int(minor))
        sign = -sign
    return tuple(out)


def _tight_vertex(row, v):
    return dot(row[0], v) == row[1]


def _tight_ray(row, r):
    return dot(row[0], r) == 0


def facet_rows(vertices, rays, n):
    """Irredundant facet inequalities of conv(vertices) + cone(rays)."""
    gens = [integerize(tuple(v) + (Fraction(1),)) for v in vertices]
    gens += [tuple(int(c) for c in r) + (0,) for r in rays]
    seen = set()
    rows = []
    for idx in combinations(range(len(gens)), n):
        w = cofactor_kernel_vector([gens[i] for i in idx])
        if not any(w):
            continue
        neg = pos = False
        for g in gens:
            val = dot(w, g)
            if val > 0:
                pos = True
            elif val < 0:
                neg = True
            if pos and neg:
                break
        if pos and neg:
            continue
        if neg:
            w = tuple(-c for c in w)
        w = primitive(w)
        row = (w[:n], -w[n])
        if row in seen:
            continue
        seen.add(row)
        tight_v = [v for v in vertices if _tight_vertex(row, v)]
        tight_r = [r for r in rays if _tight_ray(row, r)]
        if not tight_v:
            continue
        dirs = [vsub(v, tight_v[0]) for v in tight_v[1:]] + [tuple(map(Fraction, r)) for r in tight_r]
        if fraction_rank(dirs) == n - 1:
            rows.append(row)
    return sorted(rows)


def oracle_from_points(points, rays=()):
    pts = sorted(set(rat_vector(p) for p in points))
    n = len(pts[0])
    rr = sorted(set(primitive(r) for r in rays))
    if n == 0:
        return canonical_polytope(0, [()], [], [])
    dirs = [vsub(p, pts[0]) for p in pts[1:]] + [tuple(map(Fraction, r)) for r in rr]
    if fraction_rank(dirs) < n:
        raise NotFullDimensionalError("not full-dimensional")
    rows = facet_rows(pts, rr, n)
    if fraction_rank([r[0] for r in rows]) < n:
        raise NotPointedError("not pointed: the facet normals do not span")
    verts = [p for p in pts
             if fraction_rank([r[0] for r in rows if _tight_vertex(r, p)]) == n]
    xrays = [r for r in rr
             if fraction_rank([row[0] for row in rows if _tight_ray(row, r)]) == n - 1]
    return canonical_polytope(n, verts, xrays, rows)


def hull_cone_over(p):
    """The cone with vertex at the origin over the polytope p at height one,
    by the hull: its rays are p's vertices (x, t)."""
    return Polytope.from_points([(0,) * (p.n + 1)], rays=p.homogenized)


def oracle_from_inequalities(rows):
    norm = []
    n = None
    for a, b in rows:
        a = rat_vector(a)
        b = as_rat(b)
        if n is None:
            n = len(a)
        if not any(a):
            if b > 0:
                raise EmptyPolyhedronError("infeasible row")
            continue
        norm.append(normalize_row(a, b))
    if n == 0:
        return canonical_polytope(0, [()], [], [])
    norm = sorted(set(norm))
    if not norm or fraction_rank([r[0] for r in norm]) < n:
        raise NotPointedError("not pointed")
    verts = set()
    for idx in combinations(range(len(norm)), n):
        sol = cramer_solve_int([norm[i][0] for i in idx],
                               [norm[i][1] for i in idx])
        if sol is None:
            continue
        nums, den = sol
        if all(dot(a, nums) >= b * den for a, b in norm):
            verts.add(tuple(Fraction(x, den) for x in nums))
    if not verts:
        raise EmptyPolyhedronError("empty polyhedron")
    rays = set()
    normals = [r[0] for r in norm]
    if n == 1:
        cands = [(1,), (-1,)]
    else:
        cands = []
        for idx in combinations(range(len(norm)), n - 1):
            d = cofactor_kernel_vector([normals[i] for i in idx])
            if any(d):
                cands.append(primitive(d))
    for d in cands:
        for cand in (d, tuple(-c for c in d)):
            if all(dot(a, cand) >= 0 for a in normals):
                rays.add(cand)
    verts = sorted(verts)
    rays = sorted(rays)
    if any(all(_tight_vertex(row, v) for v in verts) and all(_tight_ray(row, r) for r in rays)
           for row in norm):
        raise NotFullDimensionalError("not full-dimensional: an implicit equality")
    facets = []
    for row in norm:
        tv = [v for v in verts if _tight_vertex(row, v)]
        tr = [r for r in rays if _tight_ray(row, r)]
        if not tv:
            continue
        dirs = [vsub(v, tv[0]) for v in tv[1:]] + [tuple(map(Fraction, r)) for r in tr]
        if fraction_rank(dirs) == n - 1:
            facets.append(row)
    return canonical_polytope(n, verts, rays, facets)


def fraction_sorted_from_points(points, rays=()):
    """``Polytope.from_points`` with the points made ``Fraction`` tuples,
    deduped and sorted before they are homogenized, built through
    ``canonical_polytope``."""
    pts = sorted(set(rat_vector(p) for p in points))
    if not pts:
        raise ValueError("need at least one point")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points of mixed dimension")
    rr = sorted(set(primitive(r) for r in rays))
    if n == 0:
        return canonical_polytope(0, [()], [], [])
    gens = {integerize(p + (1,)): p for p in pts}
    gens.update((r + (0,), r) for r in rr)
    cons = list(gens)
    try:
        duals, tight = _extreme_rays(cons, n + 1)
    except ValueError:
        raise NotFullDimensionalError(
            "not full-dimensional; reduce to affine span first") from None
    if reduce(and_, tight, -1):
        raise NotPointedError("not pointed: the recession cone contains a line")
    rows = [(w[:n], -w[n]) for w in duals if any(w[:n])]
    keep = _irredundant(cons, tight)
    verts = [gens[cons[i]] for i in keep if cons[i][n]]
    xrays = [gens[cons[i]] for i in keep if not cons[i][n]]
    return canonical_polytope(n, verts, xrays, rows)
