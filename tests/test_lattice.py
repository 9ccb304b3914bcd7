from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_ih.errors import (
    DimensionMismatchError,
    NonIntegralSpanError,
    NotUnimodularError,
)
from toric_ih.lattice import (
    affine_frame,
    det_int,
    hnf_with_transform,
    identity_rows,
    independent_rows,
    pairing,
    primitive,
    solve_integer_system,
    unimodular_image,
)
from toric_ih.polytope import Polytope, _simplicial_start

from conftest import brute_span_lattice_points, poset_isomorphic
from face_oracle import fraction_rank


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a]


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def test_pairing_direct():
    assert pairing((F(1, 2), F(3)), (2, 1)) == 4


def test_pairing_zero_vector():
    assert pairing((F(0), F(0), F(0)), (7, -2, 5)) == 0


def test_pairing_orthogonal():
    assert pairing((F(1), F(0)), (0, 1)) == 0


def test_pairing_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        pairing((F(1),), (1, 2))


@settings(max_examples=60)
@given(a=rationals, b=rationals,
       u=st.tuples(rationals, rationals, rationals),
       w=st.tuples(rationals, rationals, rationals),
       v=st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)))
def test_pairing_bilinear(a, b, u, w, v):
    left = tuple(a * x + b * y for x, y in zip(u, w))
    assert pairing(left, v) == a * pairing(u, v) + b * pairing(w, v)


# -- affine frames ----------------------------------------------------------

def test_frame_axis_segment():
    fr = affine_frame([(0, 0), (3, 0)])
    assert fr.base == (0, 0)
    assert fr.basis == ((1, 0),)


def test_frame_skew_segment():
    # the segment from (0,1) to (2,0) lies on x + 2y = 2
    fr = affine_frame([(0, 1), (2, 0)])
    assert fr.dim == 1
    (b,) = fr.basis
    assert b in ((2, -1), (-2, 1))
    # oracle: integer solutions of x + 2y = 2 in the box [-2,4] x [-2,2]
    expected = brute_span_lattice_points([(0, 1), (2, 0)], ((-2, -2), (4, 2)))
    got = sorted(fr.from_coords((k,)) for k in range(-4, 5))
    got = [p for p in got if all(l <= c <= h for c, l, h in zip(p, (-2, -2), (4, 2)))]
    assert got == expected


def test_frame_full_span():
    fr = affine_frame([(0, 0), (1, 0), (0, 1)])
    assert fr.base == (0, 0)
    assert abs(det_int([list(b) for b in fr.basis])) == 1


def test_frame_non_integral_span():
    with pytest.raises(NonIntegralSpanError):
        affine_frame([(F(1, 2), F(0)), (F(1, 2), F(1))])


def test_frame_round_trip_random(rng):
    for _ in range(25):
        n = rng.choice((2, 3))
        pts = [tuple(rng.randint(-3, 3) for _ in range(n))
               for _ in range(rng.randint(1, 4))]
        fr = affine_frame(pts)
        box = (tuple([-4] * n), tuple([4] * n))
        expected = brute_span_lattice_points(pts, box)
        # every span lattice point in the box has integral frame coordinates
        for p in expected:
            coords = fr.to_coords(p)
            assert all(c.denominator == 1 for c in coords)
            assert fr.from_coords(coords) == p
        # and every integer coordinate tuple maps onto a span lattice point
        if fr.dim:
            for k in range(-2, 3):
                q = fr.from_coords((k,) + (0,) * (fr.dim - 1))
                assert all(isinstance(c, int) for c in q)


# -- Hermite reduction ------------------------------------------------------

def test_hnf_transform_identity():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    h, u = hnf_with_transform(a)
    assert mat_mul(u, a) == h
    assert abs(det_int(u)) == 1
    # echelon with positive pivots
    lead = [next(j for j, x in enumerate(row) if x) for row in h if any(row)]
    assert lead == sorted(lead)
    assert all(h[i][lead[i]] > 0 for i in range(len(lead)))


def test_integer_solve_and_kernel(rng):
    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        x = [rng.randint(-3, 3) for _ in range(n)]
        b = [sum(r[j] * x[j] for j in range(n)) for r in a]
        x0, kernel = solve_integer_system(a, b)
        assert x0 is not None
        assert [sum(r[j] * x0[j] for j in range(n)) for r in a] == b
        for k in kernel:
            assert all(sum(r[j] * k[j] for j in range(n)) == 0 for r in a)


def test_kernel_is_saturated():
    # (2, 0) spans the x axis over Q; its saturated kernel basis must be (1, 0)
    _, kernel = solve_integer_system([[0, 1]])
    assert kernel == ((1, 0),)


# -- unimodular images ------------------------------------------------------

def test_unimodular_identity():
    sq = Polytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert unimodular_image(sq, [(1, 0), (0, 1)]) == sq


def test_unimodular_shear_square():
    from toric_ih.counting import interior_lattice_points, lattice_points

    sq = Polytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    sheared = unimodular_image(sq, [(1, 1), (0, 1)])
    # the image is the parallelogram (0,0),(1,0),(1,1),(2,1): 4 points, 0 interior
    assert lattice_points(sheared)[0] == 4
    assert interior_lattice_points(sheared)[0] == 0


def test_unimodular_rejects_det_two():
    with pytest.raises(NotUnimodularError):
        unimodular_image([(1, 0)], [(2, 0), (0, 1)])


def test_hnf_of_unimodular_is_identity_with_left_inverse(rng):
    # for unimodular A the Hermite form is I, so the transform U is A^-1
    from toric_ih.fixtures import random_unimodular_matrix

    for d in range(1, 7):
        for _ in range(10):
            a = random_unimodular_matrix(rng, d, ops=3 * d)
            h, u = hnf_with_transform(a)
            assert h == identity_rows(d)
            assert mat_mul(u, a) == identity_rows(d)


def test_unimodular_preserves_face_lattice(rng):
    from toric_ih.fixtures import random_lattice_polytope, random_unimodular_matrix

    for _ in range(8):
        p = random_lattice_polytope(rng, rng.choice((2, 3)), npoints=6)
        u = random_unimodular_matrix(rng, p.n)
        q = unimodular_image(p, u)
        la, lb = p.face_lattice(), q.face_lattice()
        assert la.f_vector == lb.f_vector
        assert poset_isomorphic(
            [f.id for f in la.faces], la.leq,
            [f.id for f in lb.faces], lb.leq,
            grade_a=lambda i: la.faces[i].dim,
            grade_b=lambda i: lb.faces[i].dim,
        )


def test_unimodular_preserves_counts(rng):
    from toric_ih.counting import interior_lattice_points, lattice_points
    from toric_ih.fixtures import random_lattice_polytope, random_unimodular_matrix

    for _ in range(6):
        p = random_lattice_polytope(rng, 2, npoints=5, bound=2)
        u = random_unimodular_matrix(rng, 2)
        q = unimodular_image(p, u)
        assert lattice_points(p)[0] == lattice_points(q)[0]
        assert interior_lattice_points(p)[0] == interior_lattice_points(q)[0]


def test_primitive():
    assert primitive((4, -6)) == (2, -3)
    assert primitive((F(2, 3), F(4, 3))) == (1, 2)
    with pytest.raises(ValueError):
        primitive((0, 0))


def greedy_pick_by_rank(rows, limit=None):
    """The greedy pick of independent rows by one rank per candidate."""
    chosen, picked = [], []
    for i, r in enumerate(rows):
        if len(picked) == limit:
            break
        if fraction_rank(chosen + [r]) > len(chosen):
            chosen.append(r)
            picked.append(i)
    return picked


def test_independent_rows_matches_greedy_rank_pick(rng):
    for _ in range(300):
        d = rng.randint(1, 6)
        rows = [[F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(d)]
                for _ in range(rng.randint(0, d + 3))]
        if len(rows) > 2 and rng.random() < 0.5:  # a combination of two earlier rows
            a, b = rng.sample(rows[:-1], 2)
            rows.insert(rng.randrange(len(rows)), [2 * x - y for x, y in zip(a, b)])
        limit = rng.choice((None, d, rng.randint(0, d)))
        assert independent_rows(rows, limit) == greedy_pick_by_rank(rows, limit)


def test_simplicial_start_is_det_times_inverse(rng):
    # the start picks d independent constraints greedily, and its rays are the
    # columns of |det B| * B^-1 made primitive, B the picked rows: by
    # cofactors, B^-1[j][k] is (-1)^(j+k) det(B without row k and column j) / det B
    for _ in range(300):
        d = rng.randint(1, 6)
        rows = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(d, d + 3))]
        if len(rows) > 2 and rng.random() < 0.5:  # a combination of two earlier rows
            a, b = rng.sample(rows[:-1], 2)
            rows.insert(rng.randrange(len(rows)), tuple(2 * x - y for x, y in zip(a, b)))
        picked = greedy_pick_by_rank(rows, d)
        if len(picked) < d:
            with pytest.raises(ValueError):
                _simplicial_start(rows, d)
            continue
        basis = [rows[i] for i in picked]
        sign = 1 if det_int(basis) > 0 else -1
        want = {}
        for k, i in enumerate(picked):
            minors = [det_int([r[:j] + r[j + 1:] for m, r in enumerate(basis) if m != k])
                      for j in range(d)]
            want[1 << i] = primitive([sign * (-1) ** (j + k) * x for j, x in enumerate(minors)])
        rays, done = _simplicial_start(rows, d)
        assert done == sum(want)
        assert {done ^ z: r for r, z in rays} == want
