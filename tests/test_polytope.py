from fractions import Fraction as F
from itertools import product

import pytest

from toric_ih import polytope
from toric_ih.errors import (
    DimensionMismatchError,
    EmptyPolyhedronError,
    InvariantViolation,
    NotFullDimensionalError,
    NotPointedError,
)
from toric_ih.fixtures import (
    cross_polytope,
    cube,
    octahedron,
    quadrant,
    random_lattice_polytope,
    simplex,
    square_pyramid,
)
from toric_ih.polytope import (
    FaceLattice,
    Polytope,
    is_prime,
    is_smooth_cone,
    normal_fan,
)

from conftest import face_leq, poset_isomorphic
from face_oracle import minimizing_vertices, vertex_normal_cone_contains


# -- representation conversion ----------------------------------------------

def test_hrep_to_vrep_standard_simplex():
    p = Polytope.from_inequalities([((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)])
    assert p.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))
    assert p.rays == ()


def test_hrep_to_vrep_quadrant():
    p = quadrant(2)
    assert p.vertices == ((F(0), F(0)),)
    assert p.rays == ((0, 1), (1, 0))


def test_hrep_to_vrep_cube():
    rows = []
    for i in range(3):
        e = tuple(1 if j == i else 0 for j in range(3))
        rows.append((e, 0))
        rows.append((tuple(-c for c in e), -1))
    p = Polytope.from_inequalities(rows)
    assert set(p.vertices) == {tuple(map(F, v)) for v in product((0, 1), repeat=3)}


def test_hrep_empty():
    with pytest.raises(EmptyPolyhedronError):
        Polytope.from_inequalities([((1,), 0), ((-1,), 1)])


def test_hrep_not_pointed():
    with pytest.raises(NotPointedError):
        Polytope.from_inequalities([((1, 0), 0)])


@pytest.mark.parametrize("rows", [
    # the segment x = 0, 0 <= y <= 1: two opposite rows
    [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), -1)],
    # the segment x = y = 0, 0 <= z <= 1: three rows, no two of them opposite
    [((1, 0, 0), 0), ((0, 1, 0), 0), ((-1, -1, 0), 0), ((0, 0, 1), 0), ((0, 0, -1), -1)],
    # a single point
    [((1, 0), 1), ((0, 1), 1), ((-1, -1), -2)],
    # the ray x = y >= 0, unbounded
    [((1, -1), 0), ((-1, 1), 0), ((1, 1), 0)],
])
def test_hrep_lower_dimensional(rows):
    with pytest.raises(NotFullDimensionalError):
        Polytope.from_inequalities(rows)


def test_vrep_not_pointed():
    with pytest.raises(NotPointedError):
        Polytope.from_points([(0, 0)], rays=[(1, 0), (-1, 0), (0, 1)])


def test_vrep_to_hrep_simplex():
    p = Polytope.from_points([(0, 0), (1, 0), (0, 1)])
    assert len(p.rows) == 3


def test_vrep_to_hrep_lower_dimensional():
    with pytest.raises(NotFullDimensionalError):
        Polytope.from_points([(0, 0), (1, 1)])


def test_vrep_to_hrep_octahedron():
    p = octahedron()
    expected = {(tuple(s), -1) for s in product((1, -1), repeat=3)}
    assert set(p.rows) == expected


def test_interior_points_are_dropped():
    p = Polytope.from_points([(0, 0), (3, 0), (0, 3), (1, 1)])
    assert p.vertices == ((F(0), F(0)), (F(0), F(3)), (F(3), F(0)))


def test_round_trip_random(rng):
    for _ in range(12):
        p = random_lattice_polytope(rng, rng.choice((2, 3, 4)), npoints=7, bound=2)
        q = Polytope.from_inequalities(p.rows)
        assert set(q.vertices) == set(p.vertices)


def test_translate_and_dilate():
    p = simplex(2)
    q = p.translate((2, -1))
    assert set(q.vertices) == {(F(2), F(-1)), (F(3), F(-1)), (F(2), F(0))}
    assert q.face_lattice().f_vector == p.face_lattice().f_vector
    d = p.dilate(3)
    assert d == simplex(2, scale=3)


# -- face enumeration --------------------------------------------------------

def test_faces_simplex():
    lat = simplex(2).face_lattice()
    assert len(lat.faces) == 7
    assert lat.f_vector == (3, 3, 1)


def test_faces_cube():
    lat = cube(3).face_lattice()
    assert len(lat.faces) == 27
    assert lat.f_vector == (8, 12, 6, 1)


def test_faces_square_pyramid():
    lat = square_pyramid().face_lattice()
    assert lat.f_vector == (5, 8, 5, 1)
    assert len(lat.faces) == 19


def test_top_face_is_id_zero():
    lat = cube(2).face_lattice()
    assert lat.top.id == 0
    assert lat.top.dim == 2
    assert lat.top.codim == 0


def test_cover_relations_are_graded(rng):
    for _ in range(6):
        p = random_lattice_polytope(rng, rng.choice((2, 3)), npoints=6)
        lat = p.face_lattice()
        for lo, hi in lat._covers:
            assert lat.faces[hi].dim == lat.faces[lo].dim + 1
        # euler characteristic of the face poset
        assert sum((-1) ** f.dim for f in lat.faces) == 1


def handing_over(n, nv, masks):
    """A polytope of nv vertices on a line of Q^n whose incidence hands over
    the generator masks given, one row each; the build reads nothing else."""
    homogenized = [(i,) + (0,) * (n - 1) + (1,) for i in range(nv)]
    return Polytope(n, homogenized, (), [((1,) + (0,) * (n - 1), 0)] * len(masks),
                    lambda p: masks)


@pytest.mark.parametrize("nv, masks, message", [
    (5, [0b11101, 0b10111, 0b11001, 0b10110, 0b11000, 0b1100], "not graded by cover depth"),
    (3, [0b1, 0b100, 0b100, 0b100], "depth n does not hold exactly the vertices"),
    (2, [0b1, 0b10], "depth n does not hold exactly the vertices"),
])
def test_lattice_build_rejects_incidences_of_no_polygon(nv, masks, message):
    # corrupted incidences: a face met at two cover depths, a search whose
    # depth 2 is not the vertex set, and one that meets the vertices at depth 1
    with pytest.raises(InvariantViolation, match=message):
        FaceLattice(handing_over(2, nv, masks))


def test_lattice_build_scans_each_face_at_most_twice(monkeypatch):
    # on compact input a face's record reads its vertex ids and tight rows,
    # one bit scan each: no ray ids, and no second pass over sort keys
    real, calls = polytope._bits, []
    monkeypatch.setattr(polytope, "_bits", lambda m: calls.append(m) or real(m))
    for p in (cube(4), cross_polytope(4)):
        row_gens = p.face_lattice().row_gens
        calls.clear()
        lat = FaceLattice(Polytope(p.n, p.homogenized, p.rays, p.rows, lambda q: row_gens))
        assert lat.faces == p.face_lattice().faces
        assert 0 < len(calls) <= 2 * len(lat.faces)


def interval_counts(lat, fid):
    """Faces of the interval [F, P] over face F = fid, counted by dimension above F's."""
    base = lat.faces[fid]
    counts = [0] * (base.codim + 1)
    for f in lat.faces_above(fid, strict=False):
        counts[f.dim - base.dim] += 1
    return tuple(counts)


def test_face_interval_top():
    lat = simplex(2).face_lattice()
    assert lat.faces_above(lat.top.id, strict=False) == (lat.top,)
    assert interval_counts(lat, lat.top.id) == (1,)


def test_face_interval_cube_vertex_is_boolean():
    lat = cube(3).face_lattice()
    v = lat.of_dim(0)[0]
    assert interval_counts(lat, v.id) == (1, 3, 3, 1)
    # Boolean of rank 3: each member determined by its atoms
    members = lat.faces_above(v.id, strict=False)
    atoms = [f.id for f in members if f.dim == 1]
    seen = set()
    for f in members:
        below = frozenset(a for a in atoms if lat.up_set(a) >> f.id & 1)
        assert len(below) == f.dim
        seen.add(below)
    assert len(seen) == 8


def test_face_interval_pyramid_apex():
    lat = square_pyramid().face_lattice()
    apex = next(f for f in lat.of_dim(0)
                if lat.polytope.vertices[f.vertex_ids[0]] == (F(0), F(0), F(1)))
    assert interval_counts(lat, apex.id) == (1, 4, 4, 1)


def test_face_interval_matches_cone_poset():
    # the interval over a cube vertex looks like the face poset of the octant
    lat = cube(3).face_lattice()
    v = lat.of_dim(0)[0]
    octant = quadrant(3).face_lattice()
    assert poset_isomorphic(
        [f.id for f in lat.faces_above(v.id, strict=False)], face_leq(lat),
        [f.id for f in octant.faces], face_leq(octant),
        grade_a=lambda i: lat.faces[i].dim - v.dim,
        grade_b=lambda i: octant.faces[i].dim,
    )


# -- wrong sizes and normal fans ---------------------------------------------

@pytest.mark.parametrize("v", [(1,), (1, 0), (1, 0, 0, 5)])
def test_wrong_length_vectors_are_rejected(v):
    # a short or long vector is no point of the cube, not a truncated or padded one
    p = cube(3)
    with pytest.raises(DimensionMismatchError):
        p.contains(v)
    with pytest.raises(DimensionMismatchError, match=f"length {len(v)} in ambient dimension 3"):
        p.translate(v)
    assert p.contains((1, 0, 0))


@pytest.mark.parametrize("n,u", [
    (3, [(0, 1), (1, 0)]),
    (2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    (2, [(0, 1), (1, 0, 0)]),
], ids=["small", "large", "ragged"])
def test_apply_unimodular_rejects_a_matrix_of_the_wrong_size(n, u):
    with pytest.raises(DimensionMismatchError, match=f"not {n} x {n}"):
        cube(n).apply_unimodular(u)


def test_normal_fan_segment():
    p = Polytope.from_points([(0,), (1,)])
    fan = normal_fan(p)
    rays = sorted(c.rays for c in fan.cones)
    assert rays == [(), ((-1,),), ((1,),)]


def test_normal_fan_simplex():
    fan = normal_fan(simplex(2))
    max_rays = {c.rays for c in fan.cones if c.dim == 2}
    union = sorted(set(r for rays in max_rays for r in rays))
    assert union == [(-1, -1), (0, 1), (1, 0)]


def test_normal_fan_quadrant():
    fan = normal_fan(quadrant(2))
    dims = sorted(c.dim for c in fan.cones)
    assert dims == [0, 1, 1, 2]
    top = next(c for c in fan.cones if c.dim == 2)
    assert top.rays == ((0, 1), (1, 0))


def test_generic_direction_in_unique_max_cone(rng):
    for p in (simplex(2), cube(3), octahedron()):
        lat = p.face_lattice()
        vertices = lat.of_dim(0)
        hits = 0
        for _ in range(100):
            v = tuple(rng.randint(-7, 7) for _ in range(p.n))
            if not any(v):
                continue
            least = minimizing_vertices(p, v)
            if least & (least - 1):
                continue  # not generic for this fan
            hits += 1
            containing = [u for u in vertices
                          if vertex_normal_cone_contains(p, u, v)]
            assert containing == [lat.faces[lat.fid[least]]]
        assert hits > 50


# -- simpliciality predicates -------------------------------------------------

def test_is_prime():
    assert is_prime(cube(3))
    assert not is_prime(octahedron())
    assert not is_prime(square_pyramid())


def test_is_prime_matches_boolean_vertex_intervals(rng):
    for _ in range(8):
        p = random_lattice_polytope(rng, 3, npoints=6)
        lat = p.face_lattice()
        boolean = True
        for v in lat.of_dim(0):
            if interval_counts(lat, v.id) != (1, 3, 3, 1):
                boolean = False
        assert is_prime(p) == boolean


def test_is_smooth_cone():
    assert is_smooth_cone([(1, 0), (0, 1)])
    assert not is_smooth_cone([(1, 0), (1, 2)])
    assert not is_smooth_cone([(1, 0), (0, 1), (1, 1)])


def test_is_smooth_cone_in_larger_ambient():
    # a unimodular 2-cone sitting inside a 3-dimensional lattice
    assert is_smooth_cone([(1, 0, 1), (0, 1, 0)])
    assert not is_smooth_cone([(1, 0, 1), (1, 2, 1)])


def test_is_smooth_cone_rejects_rays_of_mixed_length():
    for rays in ([(1, 0), (0, 1, 5)], [(0, 0, 1), (0, 1)], [(2,), (1, 1)],
                 [[1, 0], [0, 1, 5]], [(F(1, 2), 0), (0, 1, 0)], [(True, False), (2, 0, 1)]):
        with pytest.raises(DimensionMismatchError):
            is_smooth_cone(rays)


def test_is_smooth_cone_rejects_a_zero_ray():
    for rays in ([(0, 0), (1, 0)], [[0, 0, 0]], [(F(0), 0)], [(False, False), (True, False)]):
        with pytest.raises(ValueError):
            is_smooth_cone(rays)


def test_fan_cones_close_under_faces():
    # larger faces give dual cones that are faces of the smaller ones
    for p in (cube(3), octahedron(), square_pyramid()):
        lat = p.face_lattice()
        fan = normal_fan(p)
        for f in lat.faces:
            for g in lat.faces_above(f.id):
                assert set(fan.cones[g.id].rays) <= set(fan.cones[f.id].rays)


def test_integer_paths_never_build_fraction_vertices(monkeypatch):
    # counting, the hypersurface tables and the Euler relation, the prime
    # cut with its multipliers, the stalks, the fan with its smoothness
    # test, the blow-up, and the CLI's hypersurface and prime-cut reports
    # read the stored (x, t) only; the Fraction view of the polytope, of the
    # cut polytope, of the cone over it, and of the blow-up's figure stays
    # unbuilt, and the reports build it for none of their polytopes
    from argparse import Namespace

    from toric_ih import cli, counting, cutting, hypersurface, stalks

    lattice_p = square_pyramid()
    rational_p = Polytope.from_points([(F(1, 2), 0, 0), (-1, 0, 0), (0, F(3, 2), 0),
                                       (0, -1, 0), (0, 0, F(1, 3)), (0, 0, -1)])
    for p in (lattice_p, rational_p):
        assert p.is_lattice == (p is lattice_p)
        q = Polytope.from_inequalities(p.rows)
        assert (q, hash(q), repr(q)) == (p, hash(p), repr(p))
        lat = p.face_lattice()
        counting.face_counts(lat)
        counting.skeleton_count(lat)
        for k in (1, 2):
            counting.lattice_count(p, k, strict=True)
        if p.is_lattice:
            counting.count_report(p)
            assert counting.reciprocity_check(p)
            hypersurface.frontier_hodge(p, lat)
        else:
            for check in (counting.count_report, counting.reciprocity_check,
                          hypersurface.frontier_hodge):
                with pytest.raises(ValueError):
                    check(p)
        cone = counting.cone_over_polytope(p)
        for k in range(4):
            cone.slice_count(k)
        stalks.stalk_table(lat)
        stalks.global_ih_class(lat)
        stalks.decomposition_summands(cone.polytope.face_lattice())
        cut = cutting.prime_cut(p)
        assert cut.polytope != p
        hypersurface.prime_cut_multipliers(cut, lat, cut.polytope.face_lattice())
        stalks.global_ih_class(cut.polytope.face_lattice())
        blowup = cutting.vertex_blowup(cone.polytope, (0,) * p.n + (1,), F(3, 2))
        for q in (p, cone.polytope):
            assert hypersurface.euler_relation_check(q.face_lattice())[0]
            for c in normal_fan(q).cones:
                is_smooth_cone(c.rays)
        for q in (p, cone.polytope, cut.polytope, blowup.figure):
            assert q._vertices is None
        with monkeypatch.context() as m:
            m.setattr(Polytope, "vertices", property(lambda q: pytest.fail("vertex view built")))
            cli.report_prime_cut(p, Namespace(epsilon="1/8"))
            if p.is_lattice:
                cli.report_hypersurface(p, Namespace(components=1))
