"""Differential tests: the polar hull routine against the brute-force oracle."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_ih.errors import NotFullDimensionalError, ToricError
from toric_ih.lattice import kernel_ray, primitive
from toric_ih.polytope import Polytope

from hull_oracle import cofactor_kernel_vector, oracle_from_inequalities, oracle_from_points


def outcome(build, *args):
    """(n, vertices, rays, rows) of the result, or the type of the error raised."""
    try:
        p = build(*args)
    except (ToricError, ValueError) as exc:
        return type(exc)
    return p.n, p.vertices, p.rays, p.rows


def random_point(rng, d, rational):
    if rational:
        return tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
    return tuple(rng.randint(-3, 3) for _ in range(d))


def random_pointed_rays(rng, d, k):
    """k nonzero integer rays inside one random closed orthant (a pointed cone)."""
    signs = [rng.choice((1, -1)) for _ in range(d)]
    out = []
    while len(out) < k:
        r = tuple(s * rng.randint(0, 2) for s in signs)
        if any(r):
            out.append(r)
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("rational", [False, True])
def test_from_points_matches_oracle(d, rational):
    rng = random.Random(1000 * d + rational)
    for _ in range(40):
        pts = [random_point(rng, d, rational) for _ in range(rng.randint(1, d + 4))]
        rays = random_pointed_rays(rng, d, rng.choice((0, 0, 1, 2, 3)))
        assert outcome(Polytope.from_points, pts, rays) == outcome(oracle_from_points, pts, rays)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_from_inequalities_matches_oracle(d):
    rng = random.Random(2000 + d)
    for _ in range(60):
        rows = []
        for _ in range(rng.randint(1, d + 4)):
            a = tuple(rng.randint(-2, 2) for _ in range(d))
            if any(a):
                rows.append((a, F(rng.randint(-6, 6), rng.choice((1, 1, 2)))))
        assert outcome(Polytope.from_inequalities, rows) == outcome(oracle_from_inequalities, rows)


def test_lower_dimensional_h_input_raises_in_both():
    rows = [((1, 0, 0), 0), ((0, 1, 0), 0), ((-1, -1, 0), 0), ((0, 0, 1), 0), ((0, 0, -1), -1)]
    assert outcome(Polytope.from_inequalities, rows) is NotFullDimensionalError
    assert outcome(oracle_from_inequalities, rows) is NotFullDimensionalError


def test_round_trip_matches_oracle():
    rng = random.Random(3000)
    for _ in range(30):
        d = rng.randint(1, 4)
        pts = [random_point(rng, d, False) for _ in range(d + 4)]
        try:
            p = Polytope.from_points(pts, random_pointed_rays(rng, d, rng.randint(0, 2)))
        except ToricError:
            continue
        assert Polytope.from_inequalities(p.rows) == oracle_from_inequalities(p.rows) == p


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_kernel_ray_matches_cofactor_kernel(d):
    rng = random.Random(4000 + d)
    for _ in range(300):
        rows = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d - 1)]
        if d > 2 and rng.random() < 0.3:
            i, j = rng.sample(range(d - 1), 2)
            c = rng.randint(-2, 2)
            rows[i] = tuple(c * x for x in rows[j])
        got = kernel_ray(rows, d)
        want = cofactor_kernel_vector(rows)
        if not any(want):
            assert got is None
        else:
            assert got in (primitive(want), tuple(-x for x in primitive(want)))


@st.composite
def clouds(draw):
    """(points, rays): a small integer cloud and rays inside one closed orthant."""
    d = draw(st.integers(1, 4))
    coord = st.integers(-3, 3)
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=d + 4))
    signs = draw(st.tuples(*[st.sampled_from((1, -1))] * d))
    rays = draw(st.lists(st.tuples(*[st.integers(0, 2)] * d), max_size=3))
    return pts, [tuple(s * c for s, c in zip(signs, r)) for r in rays if any(r)]


@settings(max_examples=60, deadline=None)
@given(cloud=clouds())
def test_both_representations_rebuild_the_polyhedron(cloud):
    try:
        p = Polytope.from_points(*cloud)
    except ToricError:
        return
    assert Polytope.from_inequalities(p.rows) == p
    assert Polytope.from_points(p.vertices, p.rays) == p
