"""Acceptance criteria, one test per criterion.

Every quantity is exact integer/rational arithmetic, so every tolerance is
exact equality.  Each test prints one pass/fail line (visible with -s, and on
failure in the captured output).
"""

import random
from fractions import Fraction as F
from math import comb

from toric_ih.counting import (
    cone_over_polytope,
    ehrhart_eval,
    ehrhart_polynomial,
    interior_lattice_points,
    lattice_points,
    reciprocity_check,
    skeleton_count,
)
from toric_ih.cutting import prime_cut
from toric_ih.fixtures import (
    cone_over,
    cone_over_polygon,
    cube,
    octahedron,
    prism_over_simplex,
    random_lattice_polytope,
    random_unimodular_matrix,
    simplex,
    square_pyramid,
)
from toric_ih.hypersurface import (
    EPoly2,
    alternating_identity_holds,
    curve_e_polynomial,
    euler_relation_check,
    frontier_crosscheck,
    frontier_hodge,
    geometric_genus_count,
    high_weight_table,
    prime_cut_multipliers,
)
from toric_ih.lattice import primitive, unimodular_image
from toric_ih.polytope import is_prime
from toric_ih.stalks import (
    ONE,
    TatePoly,
    decomposition_summands,
    global_ih_class,
    h_polynomial_from_f_vector,
    punctured_cone_classes,
    stalk_polynomials,
)

from conftest import face_match_under_map
from face_oracle import vertex_normal_cone_contains

L = EPoly2.lefschetz()


def report(num, desc):
    print(f"criterion {num:02d} PASS: {desc}")


def random_polytope_pool(seed=7042):
    rng = random.Random(seed)
    pool = []
    for _ in range(20):
        pool.append(random_lattice_polytope(rng, 2, npoints=rng.randint(5, 12)))
    for _ in range(20):
        pool.append(random_lattice_polytope(rng, 3, npoints=rng.randint(5, 10), bound=2))
    for _ in range(10):
        pool.append(random_lattice_polytope(rng, 4, npoints=rng.randint(6, 8), bound=2))
    return pool


def test_criterion_01_cone_apex_stalks_and_summands():
    for k in range(3, 9):
        lat = cone_over_polygon(k).face_lattice()
        apex = lat.cone_vertex_id
        assert stalk_polynomials(lat)[apex] == TatePoly((1, k - 3))
    lat = cone_over_polygon(3).face_lattice()
    assert stalk_polynomials(lat)[lat.cone_vertex_id] == ONE
    table = decomposition_summands(cone_over_polygon(4).face_lattice())
    assert table.entries == ((2, 1, -1), (4, 1, -2))
    report(1, "cone apex stalks are 1 + (k-3)t for k=3..8; "
              "k=4 summands are rank 1 in degrees 2 and 4 with twists -1, -2")


def test_criterion_02_simple_polytopes():
    rng = random.Random(99)
    simple = [simplex(2), simplex(3), simplex(4), cube(2), cube(3), cube(4),
              prism_over_simplex(2), prism_over_simplex(3)]
    for _ in range(2):
        simple.append(prime_cut(random_lattice_polytope(rng, 3, npoints=7)).polytope)
    for p in simple:
        lat = p.face_lattice()
        assert is_prime(p)
        assert all(m == ONE for m in stalk_polynomials(lat).values())
        assert global_ih_class(lat) == h_polynomial_from_f_vector(lat.f_vector)
    report(2, "simplices, cubes and random simple polytopes have trivial stalks "
              "and match the f-vector h-polynomial oracle")


def test_criterion_03_octahedron():
    lat = octahedron().face_lattice()
    h = global_ih_class(lat)
    assert h == TatePoly((1, 5, 5, 1))
    assert h.is_palindromic(3) and h.is_unimodal_to_middle(3)
    report(3, "octahedron class is 1 + 5t + 5t^2 + t^3, palindromic and unimodal")


def test_criterion_04_stalk_properties_on_random_polytopes():
    pool = random_polytope_pool()
    assert len(pool) == 50
    for p in pool:
        lat = p.face_lattice()
        ms = stalk_polynomials(lat)
        for f in lat.faces:
            m = ms[f.id]
            assert m.coeff(0) == 1
            assert all(c >= 0 for c in m.coeffs)
            if f.codim:
                assert F(m.degree) < F(f.codim, 2)
        h = global_ih_class(lat)
        assert h.is_palindromic(lat.n)
        assert h.is_unimodal_to_middle(lat.n)
        ih, ihc = punctured_cone_classes(cone_over(p).face_lattice())
        assert ih + ihc == TatePoly.zero()
    report(4, "on 50 random lattice polytopes (dim <= 4): stalk normalization, "
              "degree bound, positivity, palindromy, unimodality, punctured duality")


def test_criterion_05_euler_relation_and_alternating_identity():
    rng = random.Random(4242)
    pool = random_polytope_pool()[:20] + [cube(3), octahedron(), square_pyramid()]
    assignments = 0
    for p in pool:
        lat = p.face_lattice()
        ok, violations = euler_relation_check(lat)
        assert ok and violations == ()
        for _ in range(5):
            a = {f.id: rng.randint(-99, 99) for f in lat.faces}
            assert alternating_identity_holds(lat, a)
            assignments += 1
    assert assignments >= 100
    report(5, "Euler relation has zero violations; the closed/open alternating "
              f"identity held for {assignments} random integer assignments")


def test_criterion_06_reciprocity_and_cone_grading():
    fixtures = [simplex(2), simplex(3), cube(2), cube(3),
                simplex(2, scale=3), simplex(2, scale=4), octahedron()]
    for p in fixtures:
        assert reciprocity_check(p, kmax=3)
        coeffs = ehrhart_polynomial(p)
        cone = cone_over_polytope(p)
        for k in range(4):
            assert cone.slice_count(k) == ehrhart_eval(coeffs, k)
    report(6, "Ehrhart reciprocity holds for k=1..3 by enumeration; "
              "cone grading slices match L(k)")


def test_criterion_07_curve_fixtures():
    expected = {
        simplex(2, scale=3): (1, 9, 1, 8),
        simplex(2, scale=4): (3, 12, 3, 11),
        cube(2): (0, 4, 0, 3),
    }
    for p, (lstar, pi, genus, h00) in expected.items():
        lat = p.face_lattice()
        assert interior_lattice_points(p)[0] == lstar
        assert skeleton_count(lat) == pi
        assert geometric_genus_count(p) == genus
        front = frontier_hodge(p, lat)
        assert front[0] == h00
        assert front[1] == genus
        assert frontier_crosscheck(p, lat)
    report(7, "curve fixtures give (l*, Pi, genus, h^{n-1,0,0}) = (1,9,1,8), "
              "(3,12,3,11), (0,4,0,3) with the crosscheck agreeing")


def test_criterion_08_high_weight_table():
    for n in range(2, 6):
        table = high_weight_table(n)
        expected = tuple((2 * n - 2 - i, n - 1 - i, n - 1 - i, comb(n, i))
                         for i in range(n - 1))
        assert table.entries == expected
        assert table.known_value(n - 2, 0, 0) == 0
        assert table.known_value(2 * n - 2, n - 1, n - 2) == 0
    report(8, "high-weight tables for n=2..5 equal the binomial ladder with "
              "vanishing elsewhere")


def test_criterion_09_prime_cutting():
    for p in (square_pyramid(), octahedron()):
        r = prime_cut(p)
        q = r.polytope
        assert is_prime(q)
        plat, qlat = p.face_lattice(), q.face_lattice()
        for vf in qlat.of_dim(0):
            gens = [q.rows[j][0] for j in vf.active]
            hits = [u for u in plat.of_dim(0)
                    if all(vertex_normal_cone_contains(p, u, g) for g in gens)]
            assert len(hits) == 1
    pyr = square_pyramid()
    r = prime_cut(pyr, epsilon=F(2, 3))  # coarse start: the halving must converge
    lat = pyr.face_lattice()
    mult = prime_cut_multipliers(r, lat, r.polytope.face_lattice())
    apex = next(f for f in lat.of_dim(0)
                if pyr.vertices[f.vertex_ids[0]] == (F(0), F(0), F(1)))
    assert mult[apex.id] == 4 + 4 * (L - 1) + (L - 1) ** 2
    report(9, "pyramid and octahedron cuts are prime with refining fans; the "
              "halving protocol converges; the apex multiplier is 4 + 4(L-1) + (L-1)^2")


def test_criterion_10_cone_correspondence():
    for base in (cube(2), octahedron()):
        base_lat = base.face_lattice()
        cone = cone_over(base)
        cone_lat = cone.face_lattice()
        base_ms = stalk_polynomials(base_lat)
        cone_ms = stalk_polynomials(cone_lat)
        ray_id = {r: i for i, r in enumerate(cone.rays)}
        matched = 0
        for f in base_lat.faces:
            rays = frozenset(ray_id[primitive(tuple(base.vertices[i]) + (1,))]
                             for i in f.vertex_ids)
            g = next(c for c in cone_lat.faces
                     if frozenset(c.ray_ids) == rays and c.dim == f.dim + 1)
            assert cone_ms[g.id] == base_ms[f.id]
            matched += 1
        assert matched == len(base_lat.faces)
    report(10, "stalks at cone faces equal stalks at the matching compact faces "
               "for cones over the square and the octahedron")


def test_criterion_11_unimodular_invariance():
    rng = random.Random(31337)

    def transforms(n):
        return [random_unimodular_matrix(rng, n, ops=4) for _ in range(10)]

    # stalks and global classes on compact fixtures, matched face by face
    for p in (simplex(3), cube(3), octahedron(), square_pyramid()):
        lat = p.face_lattice()
        ms = stalk_polynomials(lat)
        h = global_ih_class(lat)
        for u in transforms(p.n):
            q = unimodular_image(p, u)
            qlat = q.face_lattice()
            assert global_ih_class(qlat) == h
            match = face_match_under_map(lat, qlat, u)
            qms = stalk_polynomials(qlat)
            assert all(qms[match[f.id]] == ms[f.id] for f in lat.faces)

    # counting, frontier and curve data on the polygon fixtures
    for p in (simplex(2, scale=3), simplex(2, scale=4), cube(2)):
        base = (lattice_points(p)[0], interior_lattice_points(p)[0],
                skeleton_count(p.face_lattice()), geometric_genus_count(p),
                frontier_hodge(p), curve_e_polynomial(p), ehrhart_polynomial(p))
        for u in transforms(2):
            q = unimodular_image(p, u)
            got = (lattice_points(q)[0], interior_lattice_points(q)[0],
                   skeleton_count(q.face_lattice()), geometric_genus_count(q),
                   frontier_hodge(q), curve_e_polynomial(q), ehrhart_polynomial(q))
            assert got == base

    # apex stalks of the cone fixtures
    for k in (3, 5, 8):
        cone = cone_over_polygon(k)
        for u in transforms(3):
            qlat = unimodular_image(cone, u).face_lattice()
            assert stalk_polynomials(qlat)[qlat.cone_vertex_id] == TatePoly((1, k - 3))

    # the prime-cut multiplier at the pyramid apex
    pyr = square_pyramid()
    for u in transforms(3)[:5]:
        q = unimodular_image(pyr, u)
        qlat = q.face_lattice()
        r = prime_cut(q)
        mult = prime_cut_multipliers(r, qlat, r.polytope.face_lattice())
        apex = next(f for f in qlat.of_dim(0) if len(f.active) == 4)
        assert mult[apex.id] == L ** 2 + 2 * L + 1
    report(11, "all headline outputs unchanged under 10 random unimodular "
               "transformations per fixture")
