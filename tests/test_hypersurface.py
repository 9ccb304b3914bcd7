import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_ih.counting import face_counts, lattice_count, lattice_points
from toric_ih.cutting import prime_cut
from toric_ih.fixtures import (
    cone_fixtures,
    cube,
    lattice_polygon,
    octahedron,
    random_lattice_polytope,
    simplex,
    square_pyramid,
    standard_fixtures,
)
from toric_ih.hypersurface import (
    EPoly2,
    MonomialSupport,
    alternating_identity_holds,
    closed_open_transform,
    curve_e_polynomial,
    euler_relation_check,
    frontier_crosscheck,
    frontier_hodge,
    geometric_genus_count,
    high_weight_table,
    newton_polytope,
    prime_cut_multipliers,
    support_by_face,
    tate_to_e,
    torus_class,
)
from toric_ih.errors import DimensionMismatchError, NotFullDimensionalError
from toric_ih.lattice import dot
from toric_ih.stalks import TatePoly

from face_oracle import (
    oracle_closed_open_transform,
    oracle_down_sets,
    oracle_face_support,
    oracle_prime_cut_multipliers,
)

L = EPoly2.lefschetz()
U = EPoly2.monomial(1, 0)
V = EPoly2.monomial(0, 1)


# -- supports and Newton polytopes ----------------------------------------------

def test_newton_polytope_drops_interior_monomials():
    s = MonomialSupport.of([(0, 0), (3, 0), (0, 3), (1, 1)])
    p = newton_polytope(s)
    assert p.vertices == ((F(0), F(0)), (F(0), F(3)), (F(3), F(0)))


def test_newton_polytope_standard_simplex():
    s = MonomialSupport.of([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert newton_polytope(s) == simplex(3)


def test_newton_polytope_square_with_center():
    s = MonomialSupport.of([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
    p = newton_polytope(s)
    assert len(p.vertices) == 4


def test_empty_support_rejected():
    with pytest.raises(ValueError):
        MonomialSupport.of([])


def test_face_support():
    s = MonomialSupport.of([(0, 0), (3, 0), (0, 3), (1, 1)])
    p = newton_polytope(s)
    lat = p.face_lattice()
    assert support_by_face(s, lat)[lat.top.id] == s.exponents
    hyp = next(f for f in lat.of_dim(1)
               if {p.vertices[i] for i in f.vertex_ids}
               == {(F(3), F(0)), (F(0), F(3))})
    assert support_by_face(s, lat)[hyp.id] == ((0, 3), (3, 0))
    with pytest.raises(DimensionMismatchError):
        support_by_face(MonomialSupport.of([(0, 0, 0)]), lat)


def _support_outcome(route, support, lat, face):
    """The support points on the face, () for none, or the error message."""
    try:
        return tuple(route(support, lat, face))
    except ValueError as exc:
        return () if str(exc) == "empty support" else str(exc)


def test_face_support_matches_fraction_oracle():
    # random supports on every face of their Newton polytope: the support
    # itself, a sample of the polytope's lattice points (some faces get none,
    # and both routes raise), and the support plus a point outside (both raise)
    rng = random.Random(24061)
    seen = set()
    for _ in range(40):
        d = rng.choice((2, 3))
        pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(d + 1, 8))]
        try:
            p = newton_polytope(MonomialSupport.of(pts))
        except NotFullDimensionalError:
            continue
        lat = p.face_lattice()
        inside = list(lattice_points(p)[1])
        a, b = rng.choice(p.rows)  # step off a facet through a vertex on it
        v = next(w[:-1] for w in p.homogenized if dot(a, w[:-1]) == b)
        outside = tuple(x - c for x, c in zip(v, a))
        for chosen in (pts, rng.sample(inside, rng.randint(1, len(inside))), pts + [outside]):
            support = MonomialSupport.of(chosen)
            for f in lat.faces:
                got = _support_outcome(lambda s, lat, f: support_by_face(s, lat)[f.id],
                                       support, lat, f)
                assert got == _support_outcome(oracle_face_support, support, lat, f)
                seen.add(got if isinstance(got, str) else bool(got))
    assert seen == {True, False, "support point outside the polytope"}


def test_component_count_below_one_rejected():
    for components in (0, -3):
        for route in (frontier_hodge, curve_e_polynomial):
            with pytest.raises(ValueError, match="component count must be at least 1"):
                route(simplex(2, scale=3), components=components)


# -- the pinned Hodge numbers ------------------------------------------------------

def test_high_weight_table_small():
    assert high_weight_table(2).entries == ((2, 1, 1, 1),)
    assert high_weight_table(3).entries == ((4, 2, 2, 1), (3, 1, 1, 3))
    assert high_weight_table(5).entries == (
        (8, 4, 4, 1), (7, 3, 3, 5), (6, 2, 2, 10), (5, 1, 1, 10))


def test_high_weight_table_rejects_n1():
    with pytest.raises(ValueError):
        high_weight_table(1)


def test_high_weight_vanishing_ranges():
    t = high_weight_table(3)
    assert t.known_value(1, 0, 0) == 0          # below the middle degree
    assert t.known_value(2, 2, 1) == 0          # middle degree, weight too big
    assert t.known_value(4, 2, 1) == 0          # above the middle, off diagonal
    assert t.known_value(2, 1, 0) is None       # middle degree, low weight: open
    assert t.known_value(4, 2, 2) == 1


def test_frontier_hodge_fixtures():
    assert frontier_hodge(simplex(2, scale=3)) == {1: 1, 0: 8}
    assert frontier_hodge(simplex(2, scale=4)) == {1: 3, 0: 11}
    assert frontier_hodge(cube(3)) == {2: 0, 1: 0, 0: 7}


def test_genus_fixtures():
    assert geometric_genus_count(simplex(2, scale=3)) == 1
    assert geometric_genus_count(cube(3)) == 0
    assert geometric_genus_count(simplex(3, scale=2)) == 0
    assert geometric_genus_count(simplex(3, scale=4)) == 1


def test_frontier_top_is_genus(rng):
    for _ in range(8):
        p = random_lattice_polytope(rng, rng.choice((2, 3)), npoints=6)
        assert frontier_hodge(p)[p.n - 1] == lattice_count(p, strict=True)


def test_frontier_crosscheck_fixtures():
    assert frontier_crosscheck(simplex(2, scale=3))
    assert frontier_crosscheck(cube(3))
    assert frontier_crosscheck(simplex(2, scale=4))


# -- Euler relation and the stratification transform ---------------------------------

def test_euler_relation_fixtures():
    for p in (cube(3), square_pyramid(), octahedron(), simplex(4)):
        ok, violations = euler_relation_check(p.face_lattice())
        assert ok and violations == ()


def test_euler_relation_cube_vertex_by_hand():
    lat = cube(3).face_lattice()
    v = lat.of_dim(0)[0]
    above = lat.faces_above(v.id, strict=False)
    by_codim = {}
    for f in above:
        by_codim[f.codim] = by_codim.get(f.codim, 0) + 1
    assert by_codim == {0: 1, 1: 3, 2: 3, 3: 1}


def test_euler_relation_guards_enumerator(rng):
    for _ in range(10):
        p = random_lattice_polytope(rng, rng.choice((2, 3)), npoints=7)
        assert euler_relation_check(p.face_lattice())[0]


def test_closed_open_indicator():
    lat = cube(2).face_lattice()
    a = {f.id: (1 if f.id == lat.top.id else 0) for f in lat.faces}
    closed = closed_open_transform(lat, a, "open_to_closed")
    assert all(v == (1 if fid == lat.top.id else 0) for fid, v in closed.items())
    assert alternating_identity_holds(lat, a)


def test_closed_open_all_ones_on_square():
    lat = cube(2).face_lattice()
    ones = {f.id: 1 for f in lat.faces}
    closed = closed_open_transform(lat, ones, "open_to_closed")
    down = oracle_down_sets(lat)
    for f in lat.faces:
        assert lat._below[f.id] == sum(1 << g.id for g in down[f.id])
        assert closed[f.id] == len(down[f.id])
    assert closed[lat.top.id] == 9
    assert alternating_identity_holds(lat, ones)


def test_closed_open_inversion(rng):
    for _ in range(6):
        p = random_lattice_polytope(rng, rng.choice((2, 3)), npoints=6)
        lat = p.face_lattice()
        a = {f.id: rng.randint(-9, 9) for f in lat.faces}
        closed = closed_open_transform(lat, a, "open_to_closed")
        assert closed_open_transform(lat, closed, "closed_to_open") == a


def test_alternating_identity_random(rng):
    # holds for arbitrary assignments, whatever their values
    for _ in range(20):
        p = random_lattice_polytope(rng, rng.choice((2, 3)), npoints=6)
        lat = p.face_lattice()
        a = {f.id: rng.randint(-99, 99) for f in lat.faces}
        assert alternating_identity_holds(lat, a)


def random_class(rng):
    return EPoly2({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-5, 5)
                   for _ in range(rng.randint(0, 3))})


@pytest.mark.parametrize("direction", ["open_to_closed", "closed_to_open"])
def test_closed_open_transform_matches_faces_below_route(direction):
    # the sums over each face's down-set bits against the oracle's down-sets by
    # generator inclusion, on int and EPoly2 assignments over every fixture and
    # cone fixture
    rng = random.Random(7100 + (direction == "closed_to_open"))
    lattices = [p.face_lattice() for p in (*standard_fixtures().values(), *cone_fixtures().values())]
    lattices += [random_lattice_polytope(rng, d, npoints=rng.randint(d + 2, d + 5)).face_lattice()
                 for d in (2, 3, 4) for _ in range(3)]
    for lat in lattices:
        assert lat._below == [sum(1 << g.id for g in down) for down in oracle_down_sets(lat)]
        for value in (lambda: rng.randint(-50, 50), lambda: random_class(rng)):
            a = {f.id: value() for f in lat.faces}
            want = oracle_closed_open_transform(lat, a, direction)
            got = closed_open_transform(lat, a, direction)
            assert got == want and list(got) == list(want)
            assert [repr(v) for v in got.values()] == [repr(v) for v in want.values()]


def test_closed_open_partial_assignment():
    lat = cube(2).face_lattice()
    with pytest.raises(ValueError, match="partial"):
        closed_open_transform(lat, {0: 1}, "open_to_closed")


def test_curve_assembly_matches_compactification():
    # strata classes: points on edges, nothing on vertices, the open curve inside
    p = simplex(2, scale=3)
    lat = p.face_lattice()
    a = {}
    for f in lat.faces:
        if f.dim == 0:
            a[f.id] = EPoly2.zero()
        elif f.dim == 1:
            a[f.id] = (face_counts(lat)[f.id][1] + 1) * EPoly2.one()  # the edge's lattice length
        else:
            a[f.id] = curve_e_polynomial(p)
    closed = closed_open_transform(lat, a, "open_to_closed")
    assert closed[lat.top.id] == L - U - V + 1


# -- edges, multipliers, curves ------------------------------------------------------

def test_stratum_component_count():
    # the hypersurface meets an edge's stratum in lattice length = interior count + 1 points
    lat = simplex(2, scale=3).face_lattice()
    for f in lat.of_dim(1):
        assert face_counts(lat)[f.id][1] + 1 == 3
    lat1 = cube(2).face_lattice()
    for f in lat1.of_dim(1):
        assert face_counts(lat1)[f.id][1] + 1 == 1


def test_prime_cut_multipliers_pyramid_apex():
    p = square_pyramid()
    lat = p.face_lattice()
    result = prime_cut(p)
    mult = prime_cut_multipliers(result, lat, result.polytope.face_lattice())
    apex = next(f for f in lat.of_dim(0)
                if p.vertices[f.vertex_ids[0]] == (F(0), F(0), F(1)))
    assert mult[apex.id] == 4 + 4 * (L - 1) + (L - 1) ** 2
    assert mult[apex.id] == L ** 2 + 2 * L + 1
    base_vertices = [f for f in lat.of_dim(0) if f.id != apex.id]
    for f in base_vertices:
        assert mult[f.id] == EPoly2.one()
    # at L = 1 the multiplier counts equal-dimension preimages
    assert mult[apex.id](1, 1) == 4


def test_prime_cut_multipliers_already_prime():
    p = cube(3)
    result = prime_cut(p)
    mult = prime_cut_multipliers(result, p.face_lattice(), result.polytope.face_lattice())
    assert all(m == EPoly2.one() for m in mult.values())


def test_prime_cut_multipliers_match_the_epoly2_sum():
    # the multipliers from (face, drop) counts against one EPoly2 addition per
    # cut face, on the fixtures and seeded random 2- to 4-polytopes, rational ones too
    rng = random.Random(7200)
    polys = [p for p in standard_fixtures().values() if p.is_compact]
    polys += [random_lattice_polytope(rng, d, npoints=rng.randint(d + 2, d + 5), bound=2)
              for d in (2, 3, 4) for _ in range(4)]
    polys += [p.dilate(F(2, 3)) for p in polys[-6:]]
    cut_faces = 0
    for p in polys:
        lat, cut = p.face_lattice(), prime_cut(p)
        cut_lat = cut.polytope.face_lattice()
        want = oracle_prime_cut_multipliers(cut, lat, cut_lat)
        got = prime_cut_multipliers(cut, lat, cut_lat)
        assert got == want and list(got) == list(want), p.vertices
        assert [repr(m) for m in got.values()] == [repr(m) for m in want.values()]
        cut_faces += len(cut_lat.faces) - len(lat.faces)
    assert cut_faces > 4000  # the cuts add faces


def test_prime_cut_multipliers_raise_as_the_epoly2_sum():
    p = square_pyramid()
    lat, cut = p.face_lattice(), prime_cut(p)
    cut_lat = cut.polytope.face_lattice()
    partial = replace(cut, face_map={k: v for k, v in cut.face_map.items() if k})
    upward = replace(cut, face_map={**cut.face_map, cut_lat.of_dim(0)[0].id: lat.top.id})
    for bad, message in ((partial, r"not total: missing faces \[0\]$"),
                         (upward, "increases codimension the wrong way")):
        for multipliers in (prime_cut_multipliers, oracle_prime_cut_multipliers):
            with pytest.raises(ValueError, match=message):
                multipliers(bad, lat, cut_lat)


def test_curve_e_polynomials():
    assert curve_e_polynomial(simplex(2, scale=3)) == L - U - V - 8
    assert curve_e_polynomial(cube(2)) == L - 3
    assert curve_e_polynomial(simplex(2, scale=4)) == L - 3 * U - 3 * V - 11


def test_curve_components_override():
    assert curve_e_polynomial(cube(2), components=2) == L - 2


def test_curve_euler_characteristic(rng):
    for p in (simplex(2, scale=3), cube(2), simplex(2, scale=4),
              lattice_polygon(5), lattice_polygon(6)):
        e = curve_e_polynomial(p)
        lat = p.face_lattice()
        from toric_ih.counting import interior_lattice_points, skeleton_count

        g = interior_lattice_points(p)[0]
        assert e(1, 1) == 2 - 2 * g - skeleton_count(lat)
        assert e.is_uv_symmetric()


def test_curve_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        curve_e_polynomial(cube(3))


def test_torus_class():
    assert torus_class(0) == EPoly2.one()
    assert torus_class(1) == L - 1
    assert torus_class(3) == (L - 1) ** 3
    with pytest.raises(ValueError):
        torus_class(-1)


def test_tate_to_e():
    h = TatePoly((1, 5, 5, 1))
    e = tate_to_e(h)
    assert e == 1 + 5 * L + 5 * L ** 2 + L ** 3
    assert e.is_uv_symmetric()


def test_high_weight_euler_consistency():
    # adding the middle-degree contribution to the pinned table reproduces
    # the curve's Euler characteristic for each polygon fixture
    for p in (simplex(2, scale=3), cube(2), simplex(2, scale=4)):
        table = high_weight_table(2)
        above = sum(((-1) ** j) * val for j, _, _, val in table.entries)
        lat = p.face_lattice()
        g = geometric_genus_count(p)
        front = frontier_hodge(p, lat)
        # middle degree: h^{1,1} is out of range for a punctured curve, so the
        # weight-graded middle pieces are h^{1,0}, h^{0,1} and the weight-0 part
        middle = 2 * g + front[0]
        chi = above + (-1) ** 1 * middle
        assert chi == curve_e_polynomial(p)(1, 1)


@settings(max_examples=25, deadline=None)
@given(vals=st.lists(st.integers(-9, 9), min_size=9, max_size=9))
def test_alternating_identity_is_assignment_free(vals):
    lat = cube(2).face_lattice()
    a = {f.id: v for f, v in zip(lat.faces, vals)}
    assert alternating_identity_holds(lat, a)
