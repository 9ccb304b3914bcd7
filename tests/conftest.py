import random
from itertools import product

import pytest

from toric_ih.lattice import mat_vec, rat_vector


@pytest.fixture
def rng():
    return random.Random(20240229)


def face_leq(lat):
    """Containment of faces by id (face a is a face of face b), read off
    the ``up_set`` bits."""
    return lambda a, b: bool(lat.up_set(a) >> b & 1)


def brute_span_lattice_points(points, box):
    """Oracle: lattice points of the affine span of `points` inside a box.

    Solves the span's linear equations by direct substitution, independent of
    the frame machinery under test.
    """
    from fractions import Fraction

    from chart_oracle import oracle_span_equations

    eqs, rhs = oracle_span_equations(points)
    (lo, hi) = box
    out = []
    for x in product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        if all(sum(Fraction(c) * xi for c, xi in zip(row, x)) == b
               for row, b in zip(eqs, rhs)):
            out.append(x)
    return sorted(out)


def interval_g_oracle(lat):
    """Independent stalk oracle: the difference-based g-recursion on the
    order-reversed intervals.

    For faces s <= t define, by induction on the dimension gap,
    h[s,t] = sum over s < r <= t of g[r,t] * (x-1)^(dim r - dim s - 1),
    with g the difference truncation of h: g_0 = h_0 and
    g_i = h_i - h_{i-1} for i up to half the interval's figure dimension,
    zero beyond (g[t,t] = 1).  The stalk of a face is g[face, top].

    Same mathematics as the recursion under test but a different algorithm:
    no (1-t) multiplication, a difference-based truncation, and a quadratic
    sweep over all sub-intervals instead of a memoized single pass.
    """
    faces = lat.faces
    leq = face_leq(lat)
    g = {}

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def xm1_pow(k):
        out = [1]
        for _ in range(k):
            out = poly_mul(out, [-1, 1])
        return out

    pairs = sorted(((s.id, t.id) for s in faces for t in faces
                    if leq(s.id, t.id)),
                   key=lambda p: faces[p[1]].dim - faces[p[0]].dim)
    for s, t in pairs:
        if s == t:
            g[(s, t)] = [1]
            continue
        acc = [0]
        for r in faces:
            if leq(s, r.id) and leq(r.id, t) and r.id != s:
                term = poly_mul(g[(r.id, t)],
                                xm1_pow(r.dim - faces[s].dim - 1))
                if len(term) > len(acc):
                    acc += [0] * (len(term) - len(acc))
                for i, c in enumerate(term):
                    acc[i] += c
        d = faces[t].dim - faces[s].dim - 1
        gs = [acc[0] if acc else 1]
        for i in range(1, d // 2 + 1):
            hi = acc[i] if i < len(acc) else 0
            hprev = acc[i - 1] if i - 1 < len(acc) else 0
            gs.append(hi - hprev)
        g[(s, t)] = gs

    top = lat.top.id
    out = {}
    for f in faces:
        cs = list(g[(f.id, top)])
        while cs and cs[-1] == 0:
            cs.pop()
        out[f.id] = tuple(cs)
    return out


def poset_isomorphic(elems_a, leq_a, elems_b, leq_b, grade_a=None, grade_b=None):
    """Brute-force poset isomorphism test for small posets."""
    if len(elems_a) != len(elems_b):
        return False
    grade_a = grade_a or (lambda x: 0)
    grade_b = grade_b or (lambda x: 0)

    def signature(elems, leq, grade, x):
        down = sum(1 for y in elems if leq(y, x))
        up = sum(1 for y in elems if leq(x, y))
        return (grade(x), down, up)

    sig_a = {x: signature(elems_a, leq_a, grade_a, x) for x in elems_a}
    sig_b = {y: signature(elems_b, leq_b, grade_b, y) for y in elems_b}
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return False

    order = sorted(elems_a, key=lambda x: sig_a[x])

    def extend(assign, used):
        if len(assign) == len(order):
            return True
        x = order[len(assign)]
        for y in elems_b:
            if y in used or sig_b[y] != sig_a[x]:
                continue
            if all((leq_a(x, z) == leq_b(y, w)) and (leq_a(z, x) == leq_b(w, y))
                   for z, w in assign.items()):
                assign[x] = y
                used.add(y)
                if extend(assign, used):
                    return True
                del assign[x]
                used.remove(y)
        return False

    return extend({}, set())


def face_match_under_map(lat, lat_u, u_rows):
    """Face id correspondence induced by the coordinate map x -> Ux.

    Faces of compact polytopes are determined by their vertex sets, so the
    transformed coordinates give an exact matching.
    """
    coords = {tuple(sorted(rat_vector(mat_vec(u_rows, lat.polytope.vertices[i]))
                           for i in f.vertex_ids)): f.id for f in lat.faces}
    out = {}
    for g in lat_u.faces:
        key = tuple(sorted(rat_vector(lat_u.polytope.vertices[i])
                           for i in g.vertex_ids))
        out[coords[key]] = g.id
    return out
