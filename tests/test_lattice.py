import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_ih.errors import (
    DimensionMismatchError,
    InvariantViolation,
    NonIntegralSpanError,
    NotUnimodularError,
)
from toric_ih.lattice import (
    AffineLatticeFrame,
    affine_frame,
    det_int,
    hnf_with_transform,
    homogenized_frame,
    identity_rows,
    integerize,
    mat_rank,
    pairing,
    primitive,
    solve_integer_system,
    unimodular_image,
)
from toric_ih.polytope import Polytope, _simplicial_start

from chart_oracle import oracle_affine_frame, oracle_to_coords
from conftest import brute_span_lattice_points, face_leq, poset_isomorphic
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


def test_from_coords_rejects_wrong_length():
    fr = affine_frame([(0, 0), (3, 0)])
    for coords in ((), (1, 5), (1, 5, 7)):
        with pytest.raises(DimensionMismatchError, match="length %d in ambient dimension 1"
                           % len(coords)):
            fr.from_coords(coords)
    assert fr.from_coords((1,)) == (1, 0)


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
            coords = to_coords(fr, p)
            assert all(c.denominator == 1 for c in coords)
            assert fr.from_coords(coords) == p
        # and every integer coordinate tuple maps onto a span lattice point
        if fr.dim:
            for k in range(-2, 3):
                q = fr.from_coords((k,) + (0,) * (fr.dim - 1))
                assert all(isinstance(c, int) for c in q)


def to_coords(frame, point):
    """The frame coordinates of a span point, read off ``chart``."""
    *y, t = frame.chart(integerize((*point, 1)))
    return tuple(F(c, t) for c in y)


def same_outcome(route, oracle, *args):
    """Both return the same value, or both raise the same error type."""
    try:
        want = oracle(*args)
    except (ValueError, NonIntegralSpanError) as exc:
        with pytest.raises(type(exc)):
            route(*args)
        return None
    assert route(*args) == want
    return want


def test_to_coords_rejects_points_off_the_span():
    segment = affine_frame([(1, 0, 2), (3, 2, 4)])  # direction (1, 1, 1)
    plane = affine_frame([(1, 0, 0), (0, 1, 0), (0, 0, 1)])  # x + y + z = 1
    point = affine_frame([(1, -2, 3)])
    full = affine_frame([(0, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 3)])
    off = {segment: [(1, 0, 0), (0, 0, 0), (F(1, 2), F(1, 2), F(3, 2)), (2, 1, F(7, 2))],
           plane: [(0, 0, 0), (1, 1, 0), (F(1, 3), F(1, 3), F(1, 2)), (F(1, 2), 0, 0)],
           point: [(1, -2, 4), (F(1, 2), -2, 3), (0, 0, 0)]}
    for frame, points in off.items():
        for q in points:
            for route in (lambda q: to_coords(frame, q), lambda q: oracle_to_coords(frame, q)):
                with pytest.raises(ValueError, match="not on the affine span"):
                    route(q)
    on = {segment: [(2, 1, 3), (F(3, 2), F(1, 2), F(5, 2))],
          plane: [(1, 1, -1), (F(1, 3), F(1, 3), F(1, 3))],
          point: [(1, -2, 3)],
          full: [(0, 0, 0), (5, -7, 1), (F(1, 2), F(-2, 3), F(7, 5))]}
    for frame, points in on.items():
        assert frame.dim == {segment: 1, plane: 2, point: 0, full: 3}[frame]
        for q in points:
            coords = same_outcome(lambda q: to_coords(frame, q),
                                  lambda q: oracle_to_coords(frame, q), q)
            assert frame.from_coords(coords) == q


def test_chart_needs_a_saturated_basis():
    # (2, 0) spans the x-axis but not its lattice: the Hermite block is (2)
    with pytest.raises(InvariantViolation):
        AffineLatticeFrame((0, 0), ((2, 0),)).chart((2, 0, 1))


def rational_points(rng, n, k, den):
    return [tuple(F(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(n))
            for _ in range(k)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_integer_chart_matches_fraction_oracle(n):
    # random frames of k points, integer or rational, spanning any dimension
    # (or no lattice point); queried at the points, at rational affine
    # combinations of them (on the span) and at moved copies (off a proper span)
    rng = random.Random(8800 + n)
    for _ in range(40):
        pts = rational_points(rng, n, rng.randint(1, n + 1), rng.choice((1, 1, 2, 3)))
        frame = same_outcome(affine_frame, oracle_affine_frame, pts)
        # homogenized input need not be primitive
        ws = [tuple(k * x for x in integerize((*p, 1)))
              for p, k in zip(pts, rng.choices(range(1, 5), k=len(pts)))]
        if frame is None:
            with pytest.raises(NonIntegralSpanError):
                homogenized_frame(ws)
            continue
        assert homogenized_frame(ws) == frame
        queries = list(pts)
        for _ in range(4):
            wts = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in pts]
            wts[0] += 1 - sum(wts)
            queries.append(tuple(sum(w * p[i] for w, p in zip(wts, pts)) for i in range(n)))
            shift = rational_points(rng, n, 1, 3)[0]
            queries.append(tuple(a + b for a, b in zip(queries[-1], shift)))
        for q in queries:
            same_outcome(lambda q: to_coords(frame, q), lambda q: oracle_to_coords(frame, q), q)


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


def test_unimodular_image_rejects_points_and_matrices_of_the_wrong_size():
    swap = [(0, 1), (1, 0)]
    assert unimodular_image([(1, 2)], swap) == ((2, 1),)
    for points in ([(1, 2, 3)], (1, 2, 3), [(1, 2), (3,)]):
        with pytest.raises(DimensionMismatchError, match="length"):
            unimodular_image(points, swap)
    with pytest.raises(DimensionMismatchError, match="not 2 x 2"):
        unimodular_image([(1, 2)], [(0, 1, 0), (1, 0, 0)])


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
            [f.id for f in la.faces], face_leq(la),
            [f.id for f in lb.faces], face_leq(lb),
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
        assert mat_rank(rows) == len(greedy_pick_by_rank(rows))


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
