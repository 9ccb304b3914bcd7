"""Differential tests: integer rank, face lattice, fan, Euler relation and
smoothness against the Fraction oracle, the blow-up's integer chart against
the Fraction chart, and every constructed polytope's canonical data and
handed-over incidences against the pairing oracle."""

import itertools
import random
from fractions import Fraction as F
from math import gcd

import pytest

from toric_ih import cutting
from toric_ih.counting import cone_over_polytope
from toric_ih.errors import InvariantViolation, NonIntegralSpanError, ToricError, UnboundedError
from toric_ih.fixtures import (
    cone_fixtures,
    cone_over,
    cross_polytope,
    quadrant,
    cube,
    random_lattice_polytope,
    octahedron,
    point,
    random_unimodular_matrix,
    standard_fixtures,
)
from toric_ih.hypersurface import euler_relation_check
from toric_ih.identities import at_apex, facet_normal_sum
from toric_ih.lattice import mat_rank
from toric_ih.polytope import (
    Polytope,
    hull_of_canonical,
    hull_of_rows,
    is_smooth_cone,
    normal_fan,
)

from chart_oracle import oracle_affine_frame, oracle_to_coords
from face_oracle import (
    fraction_rank,
    oracle_euler_relation_check,
    oracle_down_sets,
    oracle_faces,
    oracle_is_smooth_cone,
    oracle_normal_fan,
    oracle_row_gens,
)
from hull_oracle import canonical_polytope, hull_cone_over


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
    """Every poset query and the down-set masks agree with containment of
    the faces' generator sets."""
    gens = [(set(f.vertex_ids), set(f.ray_ids)) for f in lat.faces]

    def leq(a, b):
        return gens[a][0] <= gens[b][0] and gens[a][1] <= gens[b][1]

    ups = [[] for _ in lat.faces]
    for lo, hi in lat._covers:
        ups[lo].append(hi)
    down = oracle_down_sets(lat)
    for f in lat.faces:
        above = tuple(g for g in lat.faces if leq(f.id, g.id))
        assert lat.faces_above(f.id, strict=False) == above
        assert lat.faces_above(f.id) == tuple(g for g in above if g.id != f.id)
        assert lat._below[f.id] == sum(1 << g.id for g in down[f.id])
        assert sorted(ups[f.id]) == [g.id for g in above if g.dim == f.dim + 1]
        assert lat.up_set(f.id) == sum(1 << g.id for g in above)


def check_against_oracle(p):
    lat = p.face_lattice()
    assert lat.faces == oracle_faces(p)
    # the masks every face lookup reads agree with the face tuples
    nv = len(p.homogenized)
    for f in lat.faces:
        assert lat._active[f.id] == sum(1 << j for j in f.active)
        gens = sum(1 << i for i in f.vertex_ids) | sum(1 << nv + k for k in f.ray_ids)
        assert lat._gens[f.id] == gens
        assert lat.by_active[lat._active[f.id]] == f.id
        assert lat.fid[lat._gens[f.id]] == f.id
    # the order the folds of _covers rely on: a face's last pair as the lower
    # cover comes before its first pair as the upper cover
    last_lo, first_hi = {}, {}
    for k, (lo, hi) in enumerate(lat._covers):
        last_lo[lo] = k
        first_hi.setdefault(hi, k)
    assert all(last_lo[f] < first_hi[f] for f in last_lo.keys() & first_hi.keys())
    poset_matches(lat)
    # the upper cover each face was first found through, which normal_fan reads
    assert lat._up[0] is None
    covers = set(lat._covers)
    assert all((f.id, lat._up[f.id]) in covers for f in lat.faces[1:])
    # the builder grades by cover depth; the rank of the active normals must agree
    assert all(f.dim == p.n - mat_rank([p.rows[j][0] for j in f.active]) for f in lat.faces)
    fan = normal_fan(p)
    assert fan == oracle_normal_fan(p)
    for cone in fan.cones:
        assert is_smooth_cone(cone.rays) == oracle_is_smooth_cone(cone.rays)
    assert euler_relation_check(lat) == oracle_euler_relation_check(lat) == (True, ())


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


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_random_cones_match_oracle(d):
    # cones over random lattice and rational (d - 1)-polytopes: the fan's
    # echelon carried down the covers, the Euler popcounts, the smoothness
    # test and the blow-up's integer chart, each against its oracle
    rng = random.Random(6100 + d)
    for _ in range(6 if d < 5 else 3):
        cone = cone_over(random_polyhedron(rng, d - 1, rng.choice(("lattice", "rational"))))
        check_against_oracle(cone)
        check_blowup_against_oracle(cone, facet_normal_sum(cone),
                                    F(rng.randint(1, 5), rng.randint(1, 3)))


def test_cone_over_matches_the_hull_route():
    # the cone read off P's own incidences against the hull of its apex and
    # rays: equal canonical data and equal face lattices, covers included
    rng = random.Random(6150)
    bases = [*standard_fixtures().values(), point(), Polytope.from_points([(0,), (2,)]),
             Polytope.from_points([(F(1, 2), 0), (5, 0), (0, F(7, 3))])]
    bases += [random_polyhedron(rng, d, kind) for d in (2, 3, 4)
              for kind in ("lattice", "rational") for _ in range(3)]
    for p in bases:
        fast, slow = cone_over(p), hull_cone_over(p)
        assert fast == slow, p
        fl, sl = fast.face_lattice(), slow.face_lattice()
        assert (fl.faces, fl.row_gens, fl._covers) == (sl.faces, sl.row_gens, sl._covers), p
    with pytest.raises(UnboundedError):
        cone_over(quadrant(2))


@pytest.mark.parametrize("corrupt", ["codim of a vertex", "codim of an edge",
                                     "codim of a facet", "row dropped from a facet"])
def test_fan_rank_check_fires_on_a_corrupted_lattice(corrupt):
    for p in (cube(3), octahedron(), cone_over(cube(3)), cross_polytope(4)):  # fresh lattices
        lat = p.face_lattice()
        dim = {"vertex": 0, "edge": 1}.get(corrupt.split()[-1], p.n - 1)
        f = next(f for f in lat.faces if f.dim == dim)
        bad = (f._replace(active=f.active[1:]) if corrupt.startswith("row")
               else f._replace(codim=f.codim + 1))
        lat.faces = tuple(bad if g.id == f.id else g for g in lat.faces)
        if corrupt.startswith("row"):  # the same row out of the face's mask
            lat._active[f.id] &= lat._active[f.id] - 1
        for route in (normal_fan, oracle_normal_fan):
            with pytest.raises(InvariantViolation, match="dual cone dimension"):
                route(p)


def check_blowup_against_oracle(cone, v, c):
    """vertex_blowup's figure against the Fraction chart of the Fraction
    figure vertices fv = c r / <r, v>: the points m fv, for the least m whose
    span holds a lattice point, charted in the lattice frame of their span,
    their coordinates divided by m."""
    result = cutting.vertex_blowup(cone, v, c)
    fv = tuple(tuple(c * F(x) / sum(a * b for a, b in zip(r, v)) for x in r) for r in cone.rays)
    for m in itertools.count(1):
        points = [tuple(m * x for x in w) for w in fv]
        try:
            frame = oracle_affine_frame(points)
            break
        except NonIntegralSpanError:
            continue
    assert result.figure == Polytope.from_points(
        [tuple(y / m for y in oracle_to_coords(frame, w)) for w in points])


@pytest.mark.parametrize("c", [1, F(3, 2), F(1, 3), 2])
def test_blowup_chart_matches_oracle_on_cone_fixtures(c):
    for cone in cone_fixtures().values():
        check_blowup_against_oracle(cone, facet_normal_sum(cone), c)


def test_normal_fan_leaves_the_up_and_down_sets_unbuilt():
    # the fan reads one upper cover per face, folded from the cover list
    for p in (cube(3), octahedron(), cone_over(cube(3)), quadrant(3)):  # fresh lattices
        normal_fan(p)
        built = vars(p.face_lattice())
        assert "_up" in built and "_above" not in built and "_below" not in built


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
    # primitive rays with no +-1 entry, so no unit pivot: the minors decide
    # on the whole matrix
    for _ in range(150):
        rays = [tuple(rng.choice((0, 2, -2, 3, -3, 5, -5)) for _ in range(d))
                for _ in range(rng.randint(1, d))]
        rays = [r for r in rays if gcd(*r) == 1]
        assert is_smooth_cone(rays) == oracle_is_smooth_cone(rays)
    # non-primitive and Fraction rays, scaled to their primitive forms first,
    # up to two more rays than coordinates
    for _ in range(150):
        k = rng.randint(1, d + 2)
        rays = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
        rays = [r for r in rays if any(r)]
        rays = [tuple(rng.choice((1, 2, 3, F(1, 2), F(2, 3))) * x for x in r) for r in rays]
        assert is_smooth_cone(rays) == oracle_is_smooth_cone(rays)
    # int rays, some scaled off their primitive forms, given as lists or
    # tuples: the primitive ones are taken as they are
    for _ in range(150):
        rays = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(1, d + 1))]
        rays = [[rng.choice((1, 1, 2, -3)) * x for x in r] for r in rays if any(r)]
        rays = [r if rng.random() < 0.5 else tuple(r) for r in rays]
        assert is_smooth_cone(rays) == oracle_is_smooth_cone(rays)


@pytest.mark.parametrize("rays, smooth", [
    ([(2, 0), (0, 3)], True),
    ([(2, 0, 0), (0, 3, 3)], True),
    ([(2, 0), (2, 4)], False),
    ([[1, 0], [0, 1]], True),
    ([[1, 0, 1], [1, 2, 1]], False),
    ([[4, 6], (0, 5)], False),
    ([(F(1, 2), 0), (0, F(2, 3))], True),
    ([(F(1, 2), F(1, 2)), (F(3), 1)], False),
    ([[F(2), 1], (1, 2)], False),
    ([(True, False), (False, True)], True),
    ([(True, True), (True, False)], True),
    ([(True, True, False), (True, False, True), (False, True, True)], False),
    ([(True, 2), (0, 2)], True),
])
def test_is_smooth_cone_takes_any_ray_form(rays, smooth):
    # non-primitive int rays, lists, Fraction rays and bool entries
    assert is_smooth_cone(rays) == oracle_is_smooth_cone(rays) == smooth


# -- every polytope's own incidences against the pairing oracle ---------------

def check_handed_over(p):
    """p holds canonical data, the row_gens it hands over are the pairings'
    tight sets, and its lattice equals the one built on the oracle incidence
    from the same data.  Its vertices are stored as primitive (x, t), t > 0,
    in the sorted order of the Fraction vertices x / t they give back."""
    assert all(w[-1] > 0 and gcd(*w) == 1 and all(type(c) is int for c in w)
               for w in p.homogenized)
    assert p.vertices == tuple(tuple(F(x, w[-1]) for x in w[:-1]) for w in p.homogenized)
    assert list(p.vertices) == sorted(p.vertices)
    lat = p.face_lattice()
    assert p._incidence is not oracle_row_gens
    assert list(lat.row_gens) == oracle_row_gens(p)
    paired = canonical_polytope(p.n, p.vertices, p.rays, p.rows)
    assert paired == p
    assert paired._incidence is oracle_row_gens
    plat = paired.face_lattice()
    assert plat.row_gens == lat.row_gens
    assert plat.faces == lat.faces
    assert [plat.vertex_mask(f.id) for f in plat.faces] == [lat.vertex_mask(f.id) for f in lat.faces]


def with_redundant_rows(rng, p):
    """p's facet rows plus loosened copies and sums of two rows, shuffled: H input
    whose facets are a strict subsequence of the sorted rows."""
    rows = list(p.rows)
    extra = [(a, b - rng.randint(1, 3)) for a, b in rng.sample(rows, min(2, len(rows)))]
    if len(rows) > 1:
        (a1, b1), (a2, b2) = rng.sample(rows, 2)
        if any(x + y for x, y in zip(a1, a2)):
            extra.append((tuple(x + y for x, y in zip(a1, a2)), b1 + b2))
    rows += extra
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["lattice", "rational", "rays"])
def test_handed_over_incidence_matches_pairings(d, kind):
    # V input (with non-extreme points) and H input (with redundant rows)
    rng = random.Random(6500 + 10 * d + ("lattice", "rational", "rays").index(kind))
    for _ in range(10 if d < 5 else 3):
        p = random_polyhedron(rng, d, kind)
        check_handed_over(p)
        h = Polytope.from_inequalities(with_redundant_rows(rng, p))
        assert h == p
        check_handed_over(h)


@pytest.mark.parametrize("name", sorted(n for n in FIXTURES if n != "point"))
def test_handed_over_incidence_on_fixtures(name):
    p = FIXTURES[name]
    check_handed_over(Polytope.from_points(p.vertices, p.rays))
    check_handed_over(Polytope.from_inequalities(p.rows))


def warm_hull_matching_cold(n, rows, start):
    """The integer stage of a round, which starts warm, checked against the
    cold public ``hull_of_rows`` of the same rows."""
    assert start is not None  # every hull call in cutting starts warm
    stage = hull_of_canonical(n, rows, start)
    assert stage == hull_of_rows(rows)
    return stage


def cut_round_polytopes(monkeypatch, polys):
    """The polytope of every round's integer hull of ``prime_cut`` on polys
    (prime_cut itself builds only the accepted round's)."""
    built = []

    def recording_hull(n, rows, start=None):
        stage = warm_hull_matching_cold(n, rows, start)
        built.append(stage)
        return stage

    monkeypatch.setattr(cutting, "hull_of_canonical", recording_hull)
    for p in polys:
        cutting.prime_cut(p)
    assert len(built) > len(polys)
    return [Polytope.from_hull(*stage) for stage in built]


def test_handed_over_incidence_on_every_cut_round(monkeypatch):
    # every round on the seeded 3- and 4-polytopes of test_identities
    from test_cutting import seeded_polytopes

    for q in cut_round_polytopes(monkeypatch, seeded_polytopes()):
        check_handed_over(q)


def test_prime_cuts_match_oracle(monkeypatch):
    # the cut route: prime_cut builds its polytope by Polytope.from_hull of
    # a hull started from the input's own cone, and these are the largest
    # lattices it builds
    starts = []

    def recording_hull(n, rows, start=None):
        starts.append(start)
        return warm_hull_matching_cold(n, rows, start)

    monkeypatch.setattr(cutting, "hull_of_canonical", recording_hull)
    rng = random.Random(6900)
    bases = [FIXTURES["square-pyramid"], FIXTURES["octahedron"]]
    bases += [random_lattice_polytope(rng, 3, npoints=rng.randint(6, 9), bound=2)
              for _ in range(4)]
    for p in bases:
        starts.clear()
        cut = cutting.prime_cut(p)
        assert cut.polytope != p and starts and all(s is p for s in starts)
        check_against_oracle(cut.polytope)


def random_bases(rng):
    """Random polyhedra of each kind in dimensions 1 to 4, and the point."""
    return [random_polyhedron(rng, d, kind) for d in (1, 2, 3, 4)
            for kind in ("lattice", "rational", "rays")] + [point()]


def compact_bases(rng):
    """The compact random bases, a rational segment and the octahedron."""
    return [p for p in random_bases(rng) if p.is_compact] + [
        Polytope.from_points([(F(1, 2),), (F(5, 3),)]), FIXTURES["octahedron"]]


def rational_vector(rng, n):
    return tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))


def blown_up(p):
    """The blow-up of a cone at its apex along its facet normal sum, as ``check`` does it."""
    return cutting.vertex_blowup(at_apex(p), facet_normal_sum(p), F(3, 2))


CUT_INPUTS = ("octahedron", "square-pyramid", "cube")
CONSTRUCTIONS = {
    "from_points": lambda rng, mp: random_bases(rng),
    "from_inequalities": lambda rng, mp: [
        Polytope.from_inequalities(with_redundant_rows(rng, p) if p.n else [((), 0)])
        for p in random_bases(rng)],
    "from_hull of every cut round": lambda rng, mp: cut_round_polytopes(
        mp, [FIXTURES[n] for n in CUT_INPUTS]),
    "translate": lambda rng, mp: [p.translate(rational_vector(rng, p.n)) for p in random_bases(rng)],
    "dilate": lambda rng, mp: [p.dilate(F(rng.randint(1, 7), rng.randint(1, 3)))
                               for p in random_bases(rng)],
    "apply_unimodular": lambda rng, mp: [
        p.apply_unimodular(random_unimodular_matrix(rng, p.n) if p.n else [])
        for p in random_bases(rng)],
    "cone_over_polytope": lambda rng, mp: [
        cone_over_polytope(p).polytope for p in compact_bases(rng)],
    "fixtures cone_over": lambda rng, mp: [cone_over(p) for p in compact_bases(rng)],
    "vertex_blowup figure": lambda rng, mp: [blown_up(c).figure for c in cone_fixtures().values()],
    "prime_cut": lambda rng, mp: [cutting.prime_cut(FIXTURES[n]).polytope for n in CUT_INPUTS],
}


@pytest.mark.parametrize("how", sorted(CONSTRUCTIONS))
def test_every_construction_hands_over_canonical_data(how, monkeypatch):
    # whatever made the polytope, it holds sorted primitive data as the
    # oracle constructor makes it, and its incidences are the pairings'
    rng = random.Random(6700 + sorted(CONSTRUCTIONS).index(how))
    polys = CONSTRUCTIONS[how](rng, monkeypatch)
    assert polys
    for q in polys:
        check_handed_over(q)


def test_images_match_their_hull_rebuild():
    # the lattices of translate, dilate and apply_unimodular images equal
    # those of the same polytope rebuilt by the hull, face by face
    rng = random.Random(6600)
    polys = [random_polyhedron(rng, d, kind) for d in (2, 3, 4)
             for kind in ("lattice", "rational", "rays")]
    polys += [FIXTURES[n] for n in ("cube-4", "cross-4") + tuple(sorted(cone_fixtures()))]
    for p in polys:
        u = random_unimodular_matrix(rng, p.n)
        t = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(p.n))
        for image in (p.translate(t), p.dilate(rng.randint(2, 4)), p.apply_unimodular(u)):
            rebuilt = Polytope.from_points(image.vertices, image.rays)
            assert rebuilt == image
            assert image.face_lattice().row_gens == rebuilt.face_lattice().row_gens
            assert image.face_lattice().faces == rebuilt.face_lattice().faces
