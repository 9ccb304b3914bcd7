from collections import Counter
from fractions import Fraction as F

import pytest

from toric_ih import counting
from toric_ih.counting import (
    cone_over_polytope,
    count_report,
    ehrhart_counts,
    ehrhart_eval,
    ehrhart_polynomial,
    face_counts,
    interior_lattice_points,
    lattice_count,
    lattice_points,
    reciprocity_check,
    skeleton_count,
)
from toric_ih.errors import UnboundedError
from toric_ih.fixtures import (
    cone_over_polygon,
    cube,
    octahedron,
    point,
    quadrant,
    random_lattice_polytope,
    simplex,
)
from toric_ih.polytope import Polytope


def edge_between(lat, a, b):
    a, b = tuple(map(F, a)), tuple(map(F, b))
    for f in lat.of_dim(1):
        vs = {lat.polytope.vertices[i] for i in f.vertex_ids}
        if vs == {a, b}:
            return f
    raise AssertionError("edge not found")


def test_unit_square_counts():
    sq = cube(2)
    assert lattice_points(sq)[0] == 4
    assert interior_lattice_points(sq)[0] == 0


def test_dilated_triangle_counts():
    tri3 = simplex(2, scale=3)
    n, pts = lattice_points(tri3)
    assert n == 10
    assert interior_lattice_points(tri3) == (1, ((1, 1),))
    tri4 = simplex(2, scale=4)
    assert interior_lattice_points(tri4) == (3, ((1, 1), (1, 2), (2, 1)))


def test_face_counts_on_skew_segment():
    p = Polytope.from_points([(0, 0), (0, 1), (2, 0)])
    lat = p.face_lattice()
    f = edge_between(lat, (0, 1), (2, 0))
    assert lattice_points(lat, f) == (2, ((0, 1), (2, 0)))
    assert interior_lattice_points(lat, f)[0] == 0


def test_vertex_face_counts():
    lat = simplex(2).face_lattice()
    v = lat.of_dim(0)[0]
    assert lattice_points(lat, v)[0] == 1
    assert interior_lattice_points(lat, v)[0] == 1  # a point is its own interior


def test_counting_rejects_unbounded():
    with pytest.raises(UnboundedError):
        lattice_points(quadrant(2))


@pytest.mark.parametrize("p", [quadrant(2), cone_over_polygon(4)], ids=["quadrant", "cone"])
def test_listing_a_compact_face_of_an_unbounded_polyhedron_raises(p):
    lat = p.face_lattice()
    compact = [f for f in lat.faces if not f.ray_ids]
    assert compact
    for f in compact:
        with pytest.raises(UnboundedError):
            lattice_points(lat, f)
        with pytest.raises(UnboundedError):
            interior_lattice_points(lat, f)


def test_listings_read_the_scan_of_face_counts(monkeypatch):
    rational = Polytope.from_points([(F(1, 2), 0), (5, 0), (0, 7)])
    for p in (cube(3), simplex(3, scale=3), rational, octahedron(), point()):
        lat = p.face_lattice()
        counts = face_counts(lat)
        calls = Counter()
        for name in ("_classified", "_fibers"):
            def counted(*args, name=name, scan=getattr(counting, name)):
                calls[name] += 1
                return scan(*args)
            monkeypatch.setattr(counting, name, counted)
        closed = [lattice_points(lat, f) for f in lat.faces]
        inner = [interior_lattice_points(lat, f) for f in lat.faces]
        assert lattice_points(p) == closed[0]
        assert interior_lattice_points(p) == inner[0]
        assert not calls
        assert counts == tuple((a[0], b[0]) for a, b in zip(closed, inner))
        monkeypatch.undo()


def test_skeleton_counts():
    assert skeleton_count(simplex(2, scale=3).face_lattice()) == 9
    assert skeleton_count(simplex(2, scale=4).face_lattice()) == 12
    assert skeleton_count(cube(3).face_lattice()) == 8


def test_skeleton_decomposition_identity(rng):
    for _ in range(10):
        p = random_lattice_polytope(rng, rng.choice((2, 3)), npoints=6)
        lat = p.face_lattice()
        nv = len(lat.of_dim(0))
        edge_int = sum(interior_lattice_points(lat, f)[0] for f in lat.of_dim(1))
        assert skeleton_count(lat) == nv + edge_int


def test_monotonicity(rng):
    for _ in range(6):
        p = random_lattice_polytope(rng, 2, npoints=5)
        assert interior_lattice_points(p)[0] <= lattice_points(p)[0]


# -- Ehrhart ------------------------------------------------------------------

def test_ehrhart_square():
    coeffs = ehrhart_polynomial(cube(2))
    assert coeffs == (F(1), F(2), F(1))  # (k+1)^2
    assert ehrhart_eval(coeffs, -3) == 4  # (k-1)^2 interior points of 3P


def test_ehrhart_simplex():
    coeffs = ehrhart_polynomial(simplex(2))
    assert [ehrhart_eval(coeffs, k) for k in range(5)] == [1, 3, 6, 10, 15]
    assert ehrhart_eval(coeffs, -1) == 0


def test_ehrhart_dilated_triangle():
    coeffs = ehrhart_polynomial(simplex(2, scale=3))
    assert ehrhart_eval(coeffs, 1) == 10
    assert ehrhart_eval(coeffs, -1) == 1


def test_ehrhart_basic_shape(rng):
    for _ in range(6):
        p = random_lattice_polytope(rng, rng.choice((2, 3)), npoints=5, bound=2)
        coeffs = ehrhart_polynomial(p)
        assert len(coeffs) == p.n + 1
        assert coeffs[0] == 1
        assert coeffs[-1] > 0


def test_ehrhart_rejects_rational_vertices():
    p = Polytope.from_points([(0, 0), (1, 0), (F(1, 2), F(1, 2))])
    with pytest.raises(ValueError, match="quasi-polynomial"):
        ehrhart_polynomial(p)


def test_reciprocity_fixtures():
    for p in (simplex(2), simplex(3), cube(2), cube(3),
              simplex(2, scale=3), simplex(2, scale=4), octahedron()):
        assert reciprocity_check(p, kmax=3)


@pytest.mark.parametrize("kmax", [0, -1])
def test_reciprocity_check_compares_at_least_one_dilate(kmax):
    with pytest.raises(ValueError, match="kmax"):
        reciprocity_check(simplex(2), kmax=kmax)


FIBERS = counting._fibers


def scans_by_dilate(monkeypatch, p, kmax):
    """A Counter that the wrapped ``counting._fibers`` fills with the
    (k, strict) of every dilate scan of p, k <= kmax."""
    key_of = {tuple(counting._rows(p, k, strict)): (k, strict)
              for k in range(1, kmax + 1) for strict in (False, True)}
    scans = Counter()

    def counted(rows, lo, hi):
        scans[key_of[tuple(rows)]] += 1
        return FIBERS(rows, lo, hi)

    monkeypatch.setattr(counting, "_fibers", counted)
    return scans


def test_dilate_counts_are_scanned_once_per_polytope(monkeypatch, rng):
    points = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(7)]
    points += [(3, 0, 0), (0, 3, 0), (0, 0, 3), (-1, -1, -1)]
    p = Polytope.from_points(points)
    q = Polytope.from_points(points)
    face_counts(p.face_lattice())  # the classified scan, kept on the lattice
    scans = scans_by_dilate(monkeypatch, p, 4)
    count_report(p)
    assert reciprocity_check(p, kmax=3)
    assert scans == {(k, strict): 1 for k in (1, 2, 3) for strict in (False, True)}
    counts = ehrhart_counts(p)
    counts[1] = -1
    assert ehrhart_counts(p)[1] == lattice_count(p) > 0
    assert p == q and hash(p) == hash(q)
    assert sum(scans.values()) == 6
    # a dilate, a translate and a fresh hull of the same points scan anew
    for other, k in ((p.dilate(2), 2), (p.translate((1, 0, -1)), 1), (q, 1)):
        scans = scans_by_dilate(monkeypatch, other, 1)
        assert lattice_count(other) == lattice_count(p, k)
        assert scans == {(1, False): 1}


def test_reciprocity_four_dimensional():
    from toric_ih.fixtures import cross_polytope

    assert reciprocity_check(cross_polytope(4), kmax=2)


# -- cone over a polytope ------------------------------------------------------

def test_cone_over_segment():
    c = cone_over_polytope(Polytope.from_points([(0,), (1,)]))
    assert c.polytope.rays == ((0, 1), (1, 1))
    assert c.grading == (0, 1)
    assert c.slice_count(2) == 3


def test_cone_over_point():
    c = cone_over_polytope(point())
    assert [c.slice_count(k) for k in range(4)] == [1, 1, 1, 1]


def test_cone_over_simplex_matches_ehrhart():
    p = simplex(2)
    c = cone_over_polytope(p)
    coeffs = ehrhart_polynomial(p)
    for k in range(4):
        assert c.slice_count(k) == ehrhart_eval(coeffs, k)


def test_cone_slices_match_ehrhart(rng):
    for _ in range(4):
        p = random_lattice_polytope(rng, 2, npoints=5, bound=2)
        c = cone_over_polytope(p)
        coeffs = ehrhart_polynomial(p)
        for k in range(4):
            assert c.slice_count(k) == ehrhart_eval(coeffs, k)


def test_count_report():
    rep = count_report(simplex(2, scale=3))
    assert rep.skeleton == 9
    assert rep.ehrhart_values[0] == 1
    assert rep.ehrhart_values[1] == 10
    by_dim = {}
    for _, dim, l, ls in rep.per_face:
        by_dim.setdefault(dim, []).append((l, ls))
    assert by_dim[0] == [(1, 1)] * 3
    assert by_dim[1] == [(4, 2)] * 3
    assert by_dim[2] == [(10, 1)]


def test_count_report_rejects_rational_input_before_scanning():
    p = Polytope.from_points([(F(1, 2), 0), (5, 0), (0, 7)])
    with pytest.raises(ValueError, match="quasi-polynomial"):
        count_report(p)
    lat = p.face_lattice()
    assert lat._counts is None and lat._pieces is None
