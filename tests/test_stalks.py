from argparse import Namespace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_ih import cli, stalks
from toric_ih.errors import PoincareDualityError, UnsupportedShapeError
from toric_ih.fixtures import (
    cone_over,
    cone_over_polygon,
    cross_polytope,
    cube,
    octahedron,
    point,
    prism_over_simplex,
    quadrant,
    random_lattice_polytope,
    simplex,
    square_pyramid,
)
from toric_ih.polytope import Polytope, is_prime
from toric_ih.stalks import (
    ONE,
    T,
    TatePoly,
    decomposition_summands,
    global_ih_class,
    h_polynomial_from_f_vector,
    ih_betti_numbers,
    primitive_parts,
    punctured_cone_classes,
    stalk_polynomials,
    stalk_table,
)

small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=6).map(TatePoly)


# -- Tate polynomial ring ------------------------------------------------------

def test_tatepoly_basics():
    h = 1 + 2 * T + T ** 2
    assert h.coeffs == (1, 2, 1)
    assert h.degree == 2
    assert h(1) == 4
    assert (T - 1) ** 3 == TatePoly((-1, 3, -3, 1))
    assert TatePoly.zero().degree == -1


@settings(max_examples=50)
@given(a=small_polys, b=small_polys, c=small_polys)
def test_tatepoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == TatePoly.zero()


@settings(max_examples=40)
@given(h=small_polys, k=st.integers(0, 6))
def test_truncation_is_sharp(h, k):
    cut = h.truncate_below(k)
    assert all(cut.coeff(j) == h.coeff(j) for j in range(k))
    assert all(cut.coeff(j) == 0 for j in range(k, h.degree + 1))


def test_truncation_fixtures():
    assert TatePoly((1, 2, 1)).truncate_below(F(3, 2)) == TatePoly((1, 2))
    assert TatePoly((1, 2, 1)).truncate_below(0) == TatePoly.zero()
    assert TatePoly((1, 2, 0, -2, -1)).truncate_below(2) == TatePoly((1, 2))


# -- the stalk recursion --------------------------------------------------------

def test_facet_stalk_is_one():
    lat = octahedron().face_lattice()
    for f in lat.of_dim(2):
        assert stalk_polynomials(lat)[f.id] == ONE


def test_cone_over_polygon_apex():
    # cones over k-gons: the apex stalk is 1 + (k-3) t
    for k in range(3, 9):
        lat = cone_over_polygon(k).face_lattice()
        apex = lat.cone_vertex_id
        assert stalk_polynomials(lat)[apex] == TatePoly((1, k - 3))


def test_cone_over_cube_apex():
    lat = cone_over(cube(3)).face_lattice()
    assert stalk_polynomials(lat)[lat.cone_vertex_id] == TatePoly((1, 2))


def test_octahedron_vertex_stalk():
    lat = octahedron().face_lattice()
    v = lat.of_dim(0)[0]
    assert stalk_polynomials(lat)[v.id] == 1 + T


def test_four_dimensional_cross_polytope_tower():
    # hand evaluation of the recursion on the 16-cell (f-vector 8,24,32,16,1):
    # an edge sees the interval sum 4 + 4(t-1) + (t-1)^2, truncated to 1 + t;
    # a vertex sees 6(1+t) + 12(t-1) + 8(t-1)^2 + (t-1)^3 = 1 + 5t + 5t^2 + t^3
    # (its link is the octahedron), truncated below 2 to 1 + 4t; summing
    # (t-1)^dim m over all faces gives 1 + 12t + 14t^2 + 12t^3 + t^4.
    from toric_ih.fixtures import cross_polytope

    lat = cross_polytope(4).face_lattice()
    assert lat.f_vector == (8, 24, 32, 16, 1)
    ms = stalk_polynomials(lat)
    for f in lat.faces:
        expected = {0: TatePoly((1, 4)), 1: TatePoly((1, 1))}.get(f.dim, ONE)
        assert ms[f.id] == expected
    assert global_ih_class(lat) == TatePoly((1, 12, 14, 12, 1))


def test_stalk_rejects_general_unbounded():
    p = Polytope.from_inequalities([((1, 0), 0), ((0, 1), 0), ((0, -1), -1)])
    with pytest.raises(UnsupportedShapeError):
        stalk_polynomials(p.face_lattice())


def test_stalk_table_simplex():
    lat = simplex(2).face_lattice()
    entries = stalk_table(lat)
    assert len(entries) == len(lat.faces)
    assert all((e.degree, e.rank, e.twist) == (0, 1, 0) for e in entries)


def test_stalk_table_cone_over_square():
    lat = cone_over_polygon(4).face_lattice()
    apex = lat.cone_vertex_id
    mine = [(e.degree, e.rank, e.twist) for e in stalk_table(lat) if e.face_id == apex]
    assert mine == [(0, 1, 0), (2, 1, -1)]


def test_stalk_table_octahedron_vertex():
    lat = octahedron().face_lattice()
    v = lat.of_dim(0)[0]
    mine = [(e.degree, e.rank, e.twist) for e in stalk_table(lat) if e.face_id == v.id]
    assert mine == [(0, 1, 0), (2, 1, -1)]


# -- global classes ---------------------------------------------------------------

def test_global_point():
    assert global_ih_class(point().face_lattice()) == ONE


def test_global_projective_plane():
    assert global_ih_class(simplex(2).face_lattice()) == TatePoly((1, 1, 1))


def test_global_octahedron():
    lat = octahedron().face_lattice()
    h = global_ih_class(lat)
    assert h == TatePoly((1, 5, 5, 1))
    assert ih_betti_numbers(lat) == (1, 0, 5, 0, 5, 0, 1)


def test_global_class_is_computed_and_checked_once(monkeypatch):
    # ih_betti_numbers, and the ih report that calls both, read the class
    # global_ih_class keeps on the lattice
    sums = []
    interval_sum = stalks._interval_sum

    def counted(*args):
        sums.append(args[2])
        return interval_sum(*args)

    monkeypatch.setattr(stalks, "_interval_sum", counted)
    lat = octahedron().face_lattice()
    h = global_ih_class(lat)
    assert ih_betti_numbers(lat) == (1, 0, 5, 0, 5, 0, 1)
    assert global_ih_class(lat) is h is lat._memo["stalks.global"]
    cli.report_ih(lat.polytope, Namespace())
    assert sums == [-1]


def test_global_needs_compact():
    with pytest.raises(UnsupportedShapeError):
        global_ih_class(quadrant(2).face_lattice())


def test_simple_polytopes_have_trivial_stalks_and_h_oracle():
    for p in (simplex(2), simplex(3), simplex(4), cube(2), cube(3),
              prism_over_simplex(2)):
        lat = p.face_lattice()
        assert is_prime(p)
        ms = stalk_polynomials(lat)
        assert all(m == ONE for m in ms.values())
        assert global_ih_class(lat) == h_polynomial_from_f_vector(lat.f_vector)


def test_six_dimensional_cube_and_cross_polytope():
    lat = cube(6).face_lattice()
    assert all(m == ONE for m in stalk_polynomials(lat).values())
    assert tuple(global_ih_class(lat).coeff(k) for k in range(7)) == (1, 6, 15, 20, 15, 6, 1)
    # the normal fan of the cross-polytope is the fan over the cube's faces:
    # not simplicial, so stalks at its vertices are nontrivial
    lat = cross_polytope(6).face_lattice()
    stalks = stalk_polynomials(lat)
    assert stalks[lat.top.id] == ONE
    assert any(stalks[f.id] != ONE for f in lat.of_dim(0))
    h = global_ih_class(lat)
    assert h.is_palindromic(6) and h.is_unimodal_to_middle(6)
    assert h.coeff(1) == len(lat.polytope.rows) - 6 == 58


def test_global_properties_random(rng):
    for _ in range(10):
        p = random_lattice_polytope(rng, rng.choice((2, 3)), npoints=7)
        lat = p.face_lattice()
        h = global_ih_class(lat)
        assert h.is_palindromic(lat.n)
        assert h.is_unimodal_to_middle(lat.n)
        # the degree-two class counts facets minus the torus rank
        assert h.coeff(1) == len(p.rows) - p.n
        for f in lat.faces:
            m = stalk_polynomials(lat)[f.id]
            assert m.coeff(0) == 1
            assert all(c >= 0 for c in m.coeffs)
            if f.codim:
                assert F(m.degree) < F(f.codim, 2)


# -- punctured cones and summands --------------------------------------------------

def test_punctured_quadrant():
    ih, ihc = punctured_cone_classes(quadrant(2).face_lattice())
    assert ihc == T ** 2 - 1
    assert ih == 1 - T ** 2


def test_punctured_cone_over_square():
    _, ihc = punctured_cone_classes(cone_over_polygon(4).face_lattice())
    assert ihc == TatePoly((-1, -1, 1, 1))


def test_punctured_duality_random(rng):
    for _ in range(8):
        p = random_lattice_polytope(rng, 2, npoints=6)
        cone = cone_over(p)
        ih, ihc = punctured_cone_classes(cone.face_lattice())
        assert ih + ihc == TatePoly.zero()


def test_primitive_parts():
    assert primitive_parts(TatePoly((1, 1, 1)), 2) == ONE
    assert primitive_parts(TatePoly((1, 5, 5, 1)), 3) == TatePoly((1, 4))
    assert primitive_parts(ONE, 0) == ONE


def test_primitive_parts_rejects_non_palindromic():
    with pytest.raises(PoincareDualityError):
        primitive_parts(TatePoly((1, 2)), 1)


@settings(max_examples=40)
@given(half=st.lists(st.integers(0, 9), min_size=1, max_size=4),
       odd=st.booleans())
def test_primitive_reconstruction(half, odd):
    cs = half + (half[-2::-1] if odd else half[::-1])
    h = TatePoly(cs)
    d = len(cs) - 1
    g = primitive_parts(h, d)
    for k in range(d + 1):
        assert h.coeff(k) == sum(g.coeff(j) for j in range(min(k, d - k) + 1))


def test_summands_cone_over_square():
    table = decomposition_summands(cone_over_polygon(4).face_lattice())
    assert table.entries == ((2, 1, -1), (4, 1, -2))


def test_summands_octant():
    table = decomposition_summands(quadrant(3).face_lattice())
    assert table.entries == ((2, 1, -1), (4, 1, -2))


def test_summands_cone_over_segment():
    table = decomposition_summands(quadrant(2).face_lattice())
    assert table.entries == ((2, 1, -1),)


def test_summands_symmetry(rng):
    for _ in range(5):
        p = random_lattice_polytope(rng, 2, npoints=6)
        table = decomposition_summands(cone_over(p).face_lattice())
        n = table.dim
        for j, r, tw in table.entries:
            assert table.rank(2 * n - j) == r
            assert tw == -j // 2


# -- cone correspondence -------------------------------------------------------------

def cone_face_for(cone_lat, base_lat, face):
    """The cone face spanned by a compact-polytope face, matched through rays."""
    cone_p, base_p = cone_lat.polytope, base_lat.polytope
    from toric_ih.lattice import primitive

    rays = frozenset(cone_p.rays.index(primitive(tuple(base_p.vertices[i]) + (1,)))
                     for i in face.vertex_ids)
    return next(f for f in cone_lat.faces
                if frozenset(f.ray_ids) == rays and f.dim == face.dim + 1)


def test_cone_correspondence_square_and_octahedron():
    for base in (cube(2), octahedron()):
        base_lat = base.face_lattice()
        cone_lat = cone_over(base).face_lattice()
        base_ms = stalk_polynomials(base_lat)
        cone_ms = stalk_polynomials(cone_lat)
        for f in base_lat.faces:
            g = cone_face_for(cone_lat, base_lat, f)
            assert cone_ms[g.id] == base_ms[f.id]


def test_stalks_match_interval_g_oracle(rng):
    # a fully independent second path: the difference-based g-recursion over
    # lower sub-intervals must reproduce every stalk polynomial
    from conftest import interval_g_oracle
    from toric_ih.fixtures import cross_polytope

    fixtures = [octahedron(), square_pyramid(), cube(3), cross_polytope(4),
                cone_over_polygon(5), cone_over_polygon(7)]
    for _ in range(6):
        fixtures.append(random_lattice_polytope(rng, rng.choice((2, 3)), npoints=7))
    for p in fixtures:
        lat = p.face_lattice()
        ms = stalk_polynomials(lat)
        oracle = interval_g_oracle(lat)
        for f in lat.faces:
            assert ms[f.id].coeffs == oracle[f.id], (p, f)


def test_stalks_independent_of_input_order(rng):
    # canonicalization makes the lattice, and hence every stalk, independent
    # of the order the generators arrive in
    pts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    reference = Polytope.from_points(pts)
    ms_ref = stalk_polynomials(reference.face_lattice())
    for _ in range(5):
        shuffled = list(pts)
        rng.shuffle(shuffled)
        p = Polytope.from_points(shuffled)
        assert p == reference
        assert stalk_polynomials(p.face_lattice()) == ms_ref


def test_global_class_equals_interval_sum_on_cone(rng):
    # two routes to the face-figure class of a cone must agree
    for _ in range(4):
        base = random_lattice_polytope(rng, 2, npoints=5)
        cone_lat = cone_over(base).face_lattice()
        apex = cone_lat.cone_vertex_id
        ms = stalk_polynomials(cone_lat)
        acc = TatePoly.zero()
        for f in cone_lat.faces:
            if f.id != apex:
                acc = acc + (T - 1) ** (f.dim - 1) * ms[f.id]
        assert acc == global_ih_class(base.face_lattice())


@pytest.mark.parametrize("make", [lambda: cube(5), lambda: cross_polytope(5),
                                  lambda: cone_over(octahedron())],
                         ids=["cube-5", "cross-5", "cone-octahedron"])
def test_stalks_build_one_term_table_per_dimension(make, monkeypatch):
    # the recursion goes down by dimension and builds the table of a bottom
    # dimension once, when it reaches the first face of that dimension; it
    # sums no interval from the groups again
    bottoms = []
    terms = stalks._terms

    def counted(groups, bottom, size):
        bottoms.append(bottom)
        return terms(groups, bottom, size)

    def forbidden(*args):
        raise AssertionError("the recursion called _interval_sum")

    monkeypatch.setattr(stalks, "_terms", counted)
    monkeypatch.setattr(stalks, "_interval_sum", forbidden)
    lat = make().face_lattice()
    stalk_polynomials(lat)
    assert bottoms == list(range(lat.n - 1, -1, -1))
