"""Differential tests: the fiber-interval counts against the box-scan oracle."""

import random
from fractions import Fraction as F

import pytest

from toric_ih.counting import (
    _fibers,
    _interpolate,
    _rows,
    cone_over_polytope,
    ehrhart_counts,
    ehrhart_polynomial,
    face_counts,
    interior_lattice_points,
    lattice_count,
    lattice_points,
    skeleton_count,
)
from toric_ih.errors import NotFullDimensionalError
from toric_ih.fixtures import point, random_lattice_polytope, simplex
from toric_ih.polytope import Polytope, _integer_box

from counting_oracle import (
    oracle_box,
    oracle_count,
    oracle_ehrhart_counts,
    oracle_face_counts,
    oracle_face_points,
    oracle_fibers,
    oracle_interpolate,
    oracle_scan,
)

# Faces whose affine span misses the lattice: the edge y = 1/2, the facet
# z = 1/2, and vertices and edges of a half-integral square.
OFF_LATTICE = (
    Polytope.from_points([(0, F(1, 2)), (3, F(1, 2)), (1, 3)]),
    Polytope.from_points([(0, 0, F(1, 2)), (3, 0, F(1, 2)), (0, 3, F(1, 2)), (1, 1, 3)]),
    Polytope.from_points([(F(1, 2), F(1, 2)), (F(5, 2), F(1, 2)),
                          (F(1, 2), F(5, 2)), (F(5, 2), F(5, 2))]),
)


def random_rational_polytope(rng, d, npoints, bound):
    while True:
        pts = [tuple(F(rng.randint(-2 * bound, 2 * bound), rng.choice((1, 2, 3)))
                     for _ in range(d)) for _ in range(npoints)]
        try:
            return Polytope.from_points(pts)
        except NotFullDimensionalError:
            continue


def polytopes(d, rational, count):
    """Seeded random polytopes, small enough for the oracle's box scans."""
    rng = random.Random(100 * d + rational)
    bound = {1: 4, 2: 3, 3: 2, 4: 1}[d]
    for _ in range(count):
        npoints = rng.randint(d + 1, d + 4 if d < 4 else d + 2)
        if rational:
            yield random_rational_polytope(rng, d, npoints, bound)
        else:
            yield random_lattice_polytope(rng, d, npoints, bound)


CASES = [(d, rational) for d in (1, 2, 3, 4) for rational in (False, True)]


@pytest.mark.parametrize("d,rational", CASES)
def test_face_points_and_counts_match_oracle(d, rational):
    for p in polytopes(d, rational, 8):
        lat = p.face_lattice()
        assert lattice_points(p) == (len(oracle_scan(p)), oracle_scan(p))
        assert interior_lattice_points(p)[1] == oracle_scan(p, strict=True)
        closed = [oracle_face_points(lat, f) for f in lat.faces]
        inner = [oracle_face_points(lat, f, strict=True) for f in lat.faces]
        for f in lat.faces:
            assert lattice_points(lat, f)[1] == closed[f.id]
            assert interior_lattice_points(lat, f)[1] == inner[f.id]
        assert face_counts(lat) == tuple(zip(map(len, closed), map(len, inner)))
        edge_points = {x for f in lat.of_dim(1) for x in closed[f.id]}
        assert skeleton_count(lat) == len(edge_points)


@pytest.mark.parametrize("d,rational", CASES)
def test_dilate_counts_match_oracle(d, rational):
    kmax = 3 if d <= 2 else 2
    for p in polytopes(d, rational, 4 if d < 4 else 2):
        assert ehrhart_counts(p) == oracle_ehrhart_counts(p)
        cone = cone_over_polytope(p)
        for k in range(1, kmax + 1):
            assert lattice_count(p, k, strict=True) == oracle_count(p, k, strict=True)
            assert cone.slice_count(k) == len(oracle_scan(p.dilate(k)))


@pytest.mark.parametrize("d,rational", CASES)
def test_fiber_kernel_matches_oracle_on_closed_and_strict_rows(d, rational):
    # (x, l, h) as the list-building walk gives it on kP's rows, and inner as
    # the length of that walk's fiber over x on the interior rows (a, kb + 1)
    for p in polytopes(d, rational, 6):
        for k in (1, 2, 3):
            rows, box = _rows(p, k), _integer_box(p.homogenized, k)
            got = list(_fibers(rows, *box))
            assert [fiber[:3] for fiber in got] == list(oracle_fibers(rows, *box))
            strict = {x: h - l + 1
                      for x, l, h in oracle_fibers([(a, b + 1) for a, b in rows], *box)}
            assert [inner for x, _, _, inner in got] == [strict.get(x, 0) for x, *_ in got]
            assert sum(inner for *_, inner in got) == sum(strict.values())


@pytest.mark.parametrize("d,rational", CASES)
def test_integer_box_matches_fraction_box(d, rational):
    # the box read off the stored (x, t) against the oracle's ceil and floor
    # of the Fraction vertices: kP and each face
    for p in polytopes(d, rational, 6):
        assert p.bounding_box() == oracle_box(p.vertices)
        for k in (1, 2, 3):
            want = oracle_box(p.vertices, k)
            assert _integer_box(p.homogenized, k) == want
        for f in p.face_lattice().faces:
            assert (_integer_box([p.homogenized[i] for i in f.vertex_ids])
                    == oracle_box([p.vertices[i] for i in f.vertex_ids]))


def test_point_and_segment():
    p = point()
    lat = p.face_lattice()
    assert face_counts(lat) == oracle_face_counts(lat) == ((1, 1),)
    assert lattice_points(p) == (1, ((),))
    assert ehrhart_counts(p) == oracle_ehrhart_counts(p) == [1]
    assert [cone_over_polytope(p).slice_count(k) for k in range(3)] == [1, 1, 1]
    seg = Polytope.from_points([(F(1, 2),), (F(7, 2),)])
    lat = seg.face_lattice()
    assert face_counts(lat) == oracle_face_counts(lat) == ((3, 3), (0, 0), (0, 0))
    assert [cone_over_polytope(seg).slice_count(k) for k in range(4)] == [1, 3, 7, 9]


@pytest.mark.parametrize("p", OFF_LATTICE, ids=["edge", "facet", "square"])
def test_faces_off_the_lattice(p):
    lat = p.face_lattice()
    assert face_counts(lat) == oracle_face_counts(lat)
    assert any(closed == 0 for closed, _ in face_counts(lat))
    for f in lat.faces:
        assert lattice_points(lat, f)[1] == oracle_face_points(lat, f)
    for k in (1, 2, 3):
        assert lattice_count(p, k) == oracle_count(p, k)
        assert lattice_count(p, k, strict=True) == oracle_count(p, k, strict=True)
        assert cone_over_polytope(p).slice_count(k) == oracle_count(p, k)


def oracle_skeleton(lat):
    return len({x for f in lat.of_dim(1) for x in oracle_face_points(lat, f)})


def test_skeleton_of_long_diagonal_edges():
    s = 120
    lat = Polytope.from_points([(0, 0, 0), (s, s, s), (s, 0, 0), (0, s, 0)]).face_lattice()
    assert skeleton_count(lat) == oracle_skeleton(lat) == 6 * s - 2
    for f in lat.of_dim(1):
        assert lattice_points(lat, f)[1] == oracle_face_points(lat, f)
        assert interior_lattice_points(lat, f)[1] == oracle_face_points(lat, f, strict=True)
    lat = simplex(2, scale=300).face_lattice()  # long lattice edges along the axes too
    assert skeleton_count(lat) == oracle_skeleton(lat) == 900


@pytest.mark.parametrize("d", [2, 3, 4])
def test_skeleton_of_rational_edges(d):
    rng = random.Random(8000 + d)
    for _ in range(10):
        lat = random_rational_polytope(rng, d, d + 3, 3).face_lattice()
        assert skeleton_count(lat) == oracle_skeleton(lat)
    for p in OFF_LATTICE:
        assert skeleton_count(p.face_lattice()) == oracle_skeleton(p.face_lattice())


def test_interpolation_of_random_sequences_matches_oracle():
    rng = random.Random(15)
    for length in range(1, 9):
        for _ in range(25):
            counts = [rng.randint(-50, 50) for _ in range(length)]
            assert _interpolate(counts) == oracle_interpolate(counts), counts


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_ehrhart_polynomial_matches_interpolation_oracle(d):
    for p in polytopes(d, False, 8):
        assert ehrhart_polynomial(p) == oracle_interpolate(ehrhart_counts(p))
