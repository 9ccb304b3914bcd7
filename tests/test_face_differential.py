"""Differential tests: integer rank, face lattice and smoothness against the Fraction oracle."""

import random
from fractions import Fraction as F

import pytest

from toric_ih.errors import ToricError
from toric_ih.fixtures import cone_fixtures, cross_polytope, cube, point, standard_fixtures
from toric_ih.lattice import mat_rank
from toric_ih.polytope import Polytope, is_smooth_cone, normal_fan

from face_oracle import fraction_rank, oracle_faces, oracle_is_smooth_cone


def random_matrix(rng, rows, cols, rational):
    def entry():
        if rational:
            return F(rng.randint(-6, 6), rng.randint(1, 4))
        return rng.randint(-4, 4)

    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.4:  # a dependent row
        i, j, k = rng.randrange(rows), rng.randrange(rows), rng.randrange(rows)
        a, b = F(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
        m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    if rows and rng.random() < 0.15:
        m[rng.randrange(rows)] = [0] * cols
    return m


@pytest.mark.parametrize("rational", [False, True])
def test_mat_rank_matches_fraction_rank(rational):
    rng = random.Random(5000 + rational)
    for _ in range(600):
        rows, cols = rng.randint(0, 6), rng.randint(1, 6)  # empty, tall and wide
        m = random_matrix(rng, rows, cols, rational)
        assert mat_rank(m) == fraction_rank(m)


def test_mat_rank_edge_cases():
    assert mat_rank([]) == fraction_rank([]) == 0
    assert mat_rank([[0, 0], [0, 0]]) == 0
    assert mat_rank([[F(1, 2), F(1, 3)], [3, 2]]) == 1
    assert mat_rank([["1/2", 0], [0, "2/3"]]) == 2
    big = [[10 ** 30 + i * j for j in range(5)] for i in range(5)]
    assert mat_rank(big) == fraction_rank(big) == 2


def poset_matches(lat):
    """Every poset query agrees with containment of the faces' generator sets."""
    gens = [(set(f.vertex_ids), set(f.ray_ids)) for f in lat.faces]

    def leq(a, b):
        return gens[a][0] <= gens[b][0] and gens[a][1] <= gens[b][1]

    for f in lat.faces:
        above = tuple(g for g in lat.faces if leq(f.id, g.id))
        below = tuple(g for g in lat.faces if leq(g.id, f.id))
        assert lat.faces_above(f.id, strict=False) == above
        assert lat.faces_above(f.id) == tuple(g for g in above if g.id != f.id)
        assert lat.faces_below(f.id, strict=False) == below
        assert lat.faces_below(f.id) == tuple(g for g in below if g.id != f.id)
        assert lat.covers_up(f.id) == tuple(g.id for g in above if g.dim == f.dim + 1)
        assert all(lat.leq(f.id, g.id) == leq(f.id, g.id) for g in lat.faces)


def check_against_oracle(p):
    lat = p.face_lattice()
    assert lat.faces == oracle_faces(p)
    poset_matches(lat)
    # the builder grades by cover depth; the rank of the active normals must agree
    assert all(f.dim == p.n - mat_rank([p.rows[j][0] for j in f.active]) for f in lat.faces)
    for cone in normal_fan(p).cones:
        assert is_smooth_cone(cone.rays) == oracle_is_smooth_cone(cone.rays)


FIXTURES = {**standard_fixtures(), **cone_fixtures(), "point": point(),
            "cube-4": cube(4), "cross-4": cross_polytope(4), "cross-5": cross_polytope(5),
            "cube-6": cube(6), "cross-6": cross_polytope(6)}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_faces_match_oracle(name):
    check_against_oracle(FIXTURES[name])


def random_polyhedron(rng, d, kind):
    """A full-dimensional lattice or rational polytope, or a pointed polyhedron with rays."""
    while True:
        den = (1, 2, 3) if kind == "rational" else (1,)
        pts = [tuple(F(rng.randint(-3, 3), rng.choice(den)) for _ in range(d))
               for _ in range(rng.randint(1 if kind == "rays" else d + 1, d + 3))]
        rays = ()
        if kind == "rays":
            signs = [rng.choice((1, -1)) for _ in range(d)]
            rays = [tuple(s * rng.randint(0, 2) for s in signs) for _ in range(rng.randint(1, d + 2))]
            rays = [r for r in rays if any(r)]
        try:
            return Polytope.from_points(pts, rays)
        except (ToricError, ValueError):
            continue


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["lattice", "rational", "rays"])
def test_random_faces_match_oracle(d, kind):
    rng = random.Random(6000 + 10 * d + ("lattice", "rational", "rays").index(kind))
    for _ in range(12 if d < 5 else 4 if d < 6 else 2):
        check_against_oracle(random_polyhedron(rng, d, kind))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_is_smooth_cone_matches_oracle(d):
    rng = random.Random(7000 + d)
    for _ in range(300):
        rays = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, d + 1))]
        rays = [r for r in rays if any(r)]
        if len(rays) > 2 and rng.random() < 0.2:  # dependent rays
            rays[0] = tuple(2 * a - b for a, b in zip(rays[1], rays[2]))
            rays = [r for r in rays if any(r)]
        assert is_smooth_cone(rays) == oracle_is_smooth_cone(rays)
