import itertools
import random
from fractions import Fraction as F

import pytest

from toric_ih import cutting
from toric_ih.cutting import (
    CutEntry,
    CutResult,
    CutSpec,
    _build_cut,
    _cut_once,
    _labeled_rows,
    _round_base,
    choose_cut_functionals,
    prime_cut,
    vertex_blowup,
)
from toric_ih.errors import (
    DimensionMismatchError,
    EmptyPolyhedronError,
    EpsilonUnstableError,
    NotFullDimensionalError,
)
from toric_ih.fixtures import (
    cone_fixtures,
    cone_over,
    cone_over_polygon,
    cross_polytope,
    cube,
    octahedron,
    quadrant,
    random_lattice_polytope,
    random_unimodular_matrix,
    square_pyramid,
    standard_fixtures,
)
from toric_ih.identities import facet_normal_sum
from toric_ih.lattice import mat_vec
from toric_ih import polytope
from toric_ih.polytope import Polytope, is_prime, normalize_row
from toric_ih.stalks import (
    T,
    TatePoly,
    decomposition_summands,
    global_ih_class,
    stalk_polynomials,
)

from chart_oracle import oracle_affine_frame, oracle_to_coords, pairing
from face_oracle import (
    cut_rows,
    minimizing_vertices,
    vertex_limits_by_solving,
    vertex_normal_cone_contains,
)


def cut_once(p, lattice, spec, eps):
    """_cut_once of the round at eps, on the round base of p, lattice and spec."""
    return _cut_once(p, _round_base(p, lattice, spec), eps)


def apex_face(p):
    lat = p.face_lattice()
    return next(f for f in lat.of_dim(0)
                if p.vertices[f.vertex_ids[0]] == (F(0), F(0), F(1)))


# -- choosing the functionals --------------------------------------------------

def test_cube_needs_no_cut():
    assert choose_cut_functionals(cube(3)).entries == ()


def test_pyramid_cut_spec():
    p = square_pyramid()
    spec = choose_cut_functionals(p)
    assert len(spec.entries) == 1
    (entry,) = spec.entries
    assert entry.face_id == apex_face(p).id
    lat = p.face_lattice()
    side_normals = [p.rows[j][0] for j in lat.faces[entry.face_id].active]
    assert entry.functional == tuple(sum(col) for col in zip(*side_normals))
    assert entry.base == min(sum(a * b for a, b in zip(entry.functional, v))
                             for v in p.vertices)


def test_cut_entry_is_least_exactly_on_its_face(rng):
    # base, the sum of the face's facet right-hand sides, is the functional's
    # minimum, and base + width its maximum
    polys = [p for p in standard_fixtures().values() if p.is_compact]
    polys += [random_lattice_polytope(rng, 3, npoints=rng.randint(5, 9)) for _ in range(10)]
    for p in polys:
        lat = p.face_lattice()
        for e in choose_cut_functionals(p).entries:
            vals = [pairing(x, e.functional) for x in p.vertices]
            assert e.base == min(vals)
            assert e.base + e.width == max(vals)
            least = {i for i, x in enumerate(vals) if x == e.base}
            assert least == set(lat.faces[e.face_id].vertex_ids)


def test_octahedron_cut_spec():
    spec = choose_cut_functionals(octahedron())
    assert len(spec.entries) == 6
    lat = octahedron().face_lattice()
    assert {e.face_id for e in spec.entries} == {f.id for f in lat.of_dim(0)}


# -- the cut itself --------------------------------------------------------------

def test_prime_cut_identity_on_cube():
    p = cube(3)
    r = prime_cut(p)
    assert r.polytope == p
    assert all(k == v for k, v in r.face_map.items())


def test_prime_cut_pyramid():
    p = square_pyramid()
    r = prime_cut(p)
    assert len(r.polytope.vertices) == 8
    assert is_prime(r.polytope)
    lat, cut_lat = p.face_lattice(), r.polytope.face_lattice()
    apex = apex_face(p)
    preimage_dims = sorted(cut_lat.faces[t].dim
                           for t, s in r.face_map.items() if s == apex.id)
    assert preimage_dims == [0, 0, 0, 0, 1, 1, 1, 1, 2]


def test_prime_cut_octahedron():
    r = prime_cut(octahedron())
    cut_lat = r.polytope.face_lattice()
    assert cut_lat.f_vector == (24, 36, 14, 1)
    assert is_prime(r.polytope)
    # every vertex truncation leaves a quadrilateral facet
    quad_facets = [f for f in cut_lat.of_dim(2) if len(f.vertex_ids) == 4]
    assert len(quad_facets) == 6


def test_octahedron_from_a_coarse_epsilon_retries():
    # at eps 1/2 the six vertex cuts meet at the origin: the cut is a point,
    # so that round is rejected and the halving goes on
    p = octahedron()
    lat = p.face_lattice()
    with pytest.raises(ValueError, match="not full-dimensional"):
        cut_once(p, lat, choose_cut_functionals(p), F(1, 2))
    r = prime_cut(p, epsilon=F(1, 2))
    assert r.epsilon < F(1, 2)
    assert r.history == ((F(1, 2), "cut polytope is not full-dimensional"),
                         (F(1, 4), "cut is not prime"))
    assert r.polytope == prime_cut(p).polytope


def test_face_map_respects_closure():
    p = square_pyramid()
    r = prime_cut(p)
    lat, cut_lat = p.face_lattice(), r.polytope.face_lattice()
    for t1 in cut_lat.faces:
        for t2 in cut_lat.faces:
            if cut_lat.up_set(t1.id) >> t2.id & 1:
                assert lat.up_set(r.face_map[t1.id]) >> r.face_map[t2.id] & 1


def test_untouched_faces_have_unique_equal_dim_preimage():
    p = square_pyramid()
    r = prime_cut(p)
    lat, cut_lat = p.face_lattice(), r.polytope.face_lattice()
    for f in lat.faces:
        if len(f.active) == f.codim:  # simplicial dual cone
            equal = [t for t in cut_lat.faces
                     if r.face_map[t.id] == f.id and t.dim == f.dim]
            assert len(equal) == 1


def test_fan_refinement():
    for p in (square_pyramid(), octahedron()):
        r = prime_cut(p)
        q = r.polytope
        plat, qlat = p.face_lattice(), q.face_lattice()
        for vf in qlat.of_dim(0):
            gens = [q.rows[j][0] for j in vf.active]
            hits = [u for u in plat.of_dim(0)
                    if all(vertex_normal_cone_contains(p, u, g) for g in gens)]
            assert len(hits) == 1


def fan_refines_oracle(q, p):
    """One vertex-cone containment test per (vertex of q, vertex of p, generator)."""
    return all(sum(all(vertex_normal_cone_contains(p, u, q.rows[j][0]) for j in vf.active)
                   for u in p.face_lattice().of_dim(0)) == 1
               for vf in q.face_lattice().of_dim(0))


def test_fan_refines_matches_vertex_cone_oracle():
    # a prime cut is rejected for its fan exactly where the cone oracle says it does not refine
    rng = random.Random(31)
    polys = [square_pyramid(), octahedron(), cube(3)]
    polys += [random_lattice_polytope(rng, 3, npoints=rng.randint(5, 8)) for _ in range(5)]
    polys += [p.dilate(F(1, 3)) for p in polys[3:6]]  # rational vertices
    outcomes = []
    for p in polys:
        lat = p.face_lattice()
        spec = choose_cut_functionals(p)
        for eps in (F(1, 2), F(1, 4), F(1, 8)):
            try:
                q = Polytope.from_inequalities(list(p.rows) + cut_rows(p, spec, eps))
            except (EmptyPolyhedronError, NotFullDimensionalError):
                continue
            if not is_prime(q):
                continue
            try:
                cut_once(p, lat, spec, eps)
                refines = True
            except ValueError as exc:
                assert str(exc) == "fan does not refine"
                refines = False
            assert refines == fan_refines_oracle(q, p)
            outcomes.append(refines)
    assert set(outcomes) == {True, False}


def test_prime_cut_random(rng):
    for _ in range(50):
        p = random_lattice_polytope(rng, 3, npoints=rng.randint(5, 9))
        r = prime_cut(p)
        assert is_prime(r.polytope)
        assert set(r.face_map.values()) <= {f.id for f in p.face_lattice().faces}


def test_prime_cut_cascade_on_octahedron_pyramid():
    # 4-dimensional pyramid over the octahedron: the apex (on 8 facets) sits
    # inside six edges that are each on 4 facets, so the shave depths must
    # genuinely cascade.  The apex preimage is the face poset of the cut
    # figure, a truncated octahedron: 24 + 36(L-1) + 14(L-1)^2 + (L-1)^3.
    from toric_ih.hypersurface import EPoly2, prime_cut_multipliers

    p = Polytope.from_points([(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0),
                              (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 0),
                              (0, 0, 0, 1)])
    lat = p.face_lattice()
    spec = choose_cut_functionals(p)
    assert sorted(lat.faces[e.face_id].dim for e in spec.entries) == [0] * 7 + [1] * 6
    assert {e.order for e in spec.entries} == {1, 2}
    r = prime_cut(p)
    assert is_prime(r.polytope)
    mult = prime_cut_multipliers(r, lat, r.polytope.face_lattice())
    apex = next(f for f in lat.of_dim(0)
                if p.vertices[f.vertex_ids[0]] == (0, 0, 0, 1))
    lm1 = EPoly2.lefschetz() - 1
    assert mult[apex.id] == 24 + 36 * lm1 + 14 * lm1 ** 2 + lm1 ** 3


def test_prime_cut_epsilon_halving_converges():
    # a deliberately coarse starting epsilon still stabilizes
    r = prime_cut(square_pyramid(), epsilon=F(2, 3))
    assert is_prime(r.polytope)
    assert r.epsilon <= F(2, 3)


def signed_permutations(n):
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            yield [tuple(signs[i] if j == perm[i] else 0 for j in range(n)) for i in range(n)]


def faces_by_vertices(p):
    """{vertex set: face id} over the faces of a polytope."""
    return {frozenset(p.vertices[i] for i in f.vertex_ids): f.id for f in p.face_lattice().faces}


def moved(u, p, f):
    """The vertex set of face f of p under the linear map u."""
    return frozenset(mat_vec(u, p.vertices[i]) for i in f.vertex_ids)


def test_prime_cut_commutes_with_unimodular_maps():
    # the signature is order-free, so a change of lattice basis changes no accepted eps;
    # the face map and the multipliers follow the faces, matched by vertex sets under the map
    from toric_ih.hypersurface import prime_cut_multipliers

    rng = random.Random(7)
    for _ in range(3):
        p = random_lattice_polytope(rng, 3, npoints=rng.randint(5, 7), bound=2)
        r = prime_cut(p)
        lat, cut_lat = p.face_lattice(), r.polytope.face_lattice()
        mult = prime_cut_multipliers(r, lat, cut_lat)
        maps = list(signed_permutations(3)) + [random_unimodular_matrix(rng, 3) for _ in range(4)]
        for u in maps:
            pu = p.apply_unimodular(u)
            image = prime_cut(pu)
            assert image.epsilon == r.epsilon, (p.vertices, u)
            assert image.polytope == r.polytope.apply_unimodular(u), (p.vertices, u)
            face_of, cut_face_of = faces_by_vertices(pu), faces_by_vertices(image.polytope)
            for t in cut_lat.faces:
                image_t = cut_face_of[moved(u, r.polytope, t)]
                source = lat.faces[r.face_map[t.id]]
                assert image.face_map[image_t] == face_of[moved(u, p, source)], (p.vertices, u)
            image_mult = prime_cut_multipliers(image, pu.face_lattice(),
                                               image.polytope.face_lattice())
            for f in lat.faces:
                assert image_mult[face_of[moved(u, p, f)]] == mult[f.id], (p.vertices, u, f.id)


def test_prime_cut_needs_compact():
    from toric_ih.errors import UnboundedError

    with pytest.raises(UnboundedError):
        prime_cut(quadrant(2))


# -- vertex blow-up ----------------------------------------------------------------

def test_blowup_quadrant():
    b = vertex_blowup(quadrant(2), (1, 1), 1)
    truncated = Polytope.from_inequalities(list(quadrant(2).rows) + [((1, 1), 1)])
    # the compact face on the two cut points, where the figure lies, is an edge
    cap = next(f for f in truncated.face_lattice().faces if not f.ray_ids
               and {truncated.vertices[i] for i in f.vertex_ids} == {(F(1), F(0)), (F(0), F(1))})
    assert cap.dim == 1
    assert b.figure.n == 1
    assert global_ih_class(b.figure.face_lattice()) == 1 + T


def test_blowup_cone_over_square():
    cone = cone_over_polygon(4)
    b = vertex_blowup(cone, (0, 0, 1), 1)
    fig_lat = b.figure.face_lattice()
    assert fig_lat.f_vector == (4, 4, 1)
    assert global_ih_class(fig_lat) == TatePoly((1, 2, 1))


def test_blowup_octant():
    b = vertex_blowup(quadrant(3), (1, 1, 1), 1)
    assert b.figure.face_lattice().f_vector == (3, 3, 1)


def test_blowup_face_correspondence_dims():
    cone = cone_over_polygon(5)
    b = vertex_blowup(cone, (0, 0, 1), 1)
    lat = cone.face_lattice()
    for fid, cid in b.face_map.items():
        assert lat.faces[cid].dim == b.figure.face_lattice().faces[fid].dim + 1
    assert len(b.face_map) == len(lat.faces) - 1


def test_blowup_two_path_agreement(rng):
    # the figure's global class equals the interval sum over the cone's faces
    for k in (3, 4, 5, 6):
        cone = cone_over_polygon(k)
        lat = cone.face_lattice()
        b = vertex_blowup(cone, (0, 0, 1), 1)
        ms = stalk_polynomials(lat)
        acc = TatePoly.zero()
        for f in lat.faces:
            if f.id != lat.cone_vertex_id:
                acc = acc + (T - 1) ** (f.dim - 1) * ms[f.id]
        assert acc == global_ih_class(b.figure.face_lattice())


def test_blowup_summands_match_figure_route():
    cone = cone_over_polygon(4)
    b = vertex_blowup(cone, (0, 0, 1), 1)
    from toric_ih.stalks import primitive_parts

    h = global_ih_class(b.figure.face_lattice())
    g = primitive_parts(h, cone.n - 1)
    table = decomposition_summands(cone.face_lattice())
    for k in range(cone.n):
        assert table.rank(2 * k) == h.coeff(k) - g.coeff(k)
    assert table.entries == ((2, 1, -1), (4, 1, -2))


def test_blowup_rejects_bad_direction():
    with pytest.raises(ValueError, match="dual cone"):
        vertex_blowup(quadrant(2), (1, -1), 1)


@pytest.mark.parametrize("v", [(1,), (1, 1, 1)])
def test_blowup_rejects_wrong_length_direction(v):
    with pytest.raises(DimensionMismatchError, match="length %d in ambient dimension 2" % len(v)):
        vertex_blowup(quadrant(2), v, 1)


def test_blowup_rejects_non_cone():
    with pytest.raises(ValueError):
        vertex_blowup(cube(3), (1, 1, 1), 1)


def test_blowup_rational_level():
    # the line x + 2y = 1/3 meets no lattice point, x + 2y = 1 (m = 3) does:
    # the points 3 (0, 1/6) and 3 (1/3, 0), one on each ray, are charted in
    # the frame of that line, and the chart is divided by 3
    b = vertex_blowup(quadrant(2), (1, 2), F(1, 3))
    assert b.figure.n == 1
    points = [(0, F(1, 2)), (1, 0)]
    frame = oracle_affine_frame(points)
    assert [oracle_to_coords(frame, w) for w in points] == [(F(1, 2),), (F(0),)]
    assert b.figure == Polytope.from_points([(F(1, 6),), (F(0),)])
    # a third of the figure at level 1
    assert vertex_blowup(quadrant(2), (1, 2), 1).figure == Polytope.from_points([(0,), (F(1, 2),)])
    # x + y = 2 holds lattice points: m = 1
    b = vertex_blowup(quadrant(2), (1, 1), 2)
    assert b.figure.n == 1
    assert len(b.figure.vertices) == 2


def blowup_cones():
    """The cone fixtures and the cones over 20 seeded random lattice polytopes."""
    rng = random.Random(5)
    return list(cone_fixtures().values()) + [
        cone_over(random_lattice_polytope(rng, rng.choice((2, 3)), 7, 2)) for _ in range(20)]


@pytest.mark.parametrize("c", [2, F(1, 3), F(3, 2), F(2, 7)])
def test_blowup_figure_is_a_translate_of_the_dilated_level_one_figure(c):
    # one chart on the hyperplane's direction lattice at every level
    for cone in blowup_cones():
        v = facet_normal_sum(cone)
        for w in (v, tuple(2 * x for x in v)):
            got = vertex_blowup(cone, w, c).figure
            want = vertex_blowup(cone, w, 1).figure.dilate(c)
            assert got == want.translate(tuple(a - b for a, b in zip(got.vertices[0],
                                                                      want.vertices[0])))


def seed_prime_cut(p, epsilon=F(1, 8)):
    """The retry loop on the solving oracle: both rounds of every comparison built
    afresh, and each rejected eps recorded with its reason."""
    lattice = p.face_lattice()
    spec = choose_cut_functionals(p)
    eps = epsilon
    if not spec.entries:
        return CutResult(p, {f.id: f.id for f in lattice.faces}, eps, spec)
    history = []
    for _ in range(12):
        try:
            q, face_map, signature = vertex_limits_by_solving(p, lattice, spec, eps)
        except (ValueError, EmptyPolyhedronError) as exc:
            history.append((eps, str(exc)))
            eps = eps / 2
            continue
        try:
            half_signature = vertex_limits_by_solving(p, lattice, spec, eps / 2)[2]
        except (ValueError, EmptyPolyhedronError):
            half_signature = None
        if signature == half_signature:
            return CutResult(q, face_map, eps, spec, tuple(history))
        history.append((eps, "unstable signature"))
        eps = eps / 2
    raise EpsilonUnstableError("unstable")


# Rejected at eps = 1/8: the accepted eps is 1/16.
RETRY = Polytope.from_points([(-2, -2, 1), (-2, -2, 2), (-2, 0, 2), (-2, 2, -1), (-2, 2, 1),
                              (0, -1, 1), (1, -2, -1)])

# Prime and refining at eps = 1/8 and 1/16, but with different signatures.
UNSTABLE = Polytope.from_points([(-2, -2, 2, 0), (1, 0, -2, 0), (1, 1, -2, -1), (1, 1, -1, 1),
                                 (2, -1, 1, -1), (2, 0, 1, 0)])


def test_prime_cut_matches_seed_loop_and_builds_each_cut_once(monkeypatch):
    built = []

    def recording_cut(p, base, eps):
        built.append(eps)
        return _cut_once(p, base, eps)

    monkeypatch.setattr(cutting, "_cut_once", recording_cut)
    rng = random.Random(11)
    cases = [RETRY, UNSTABLE, square_pyramid(), octahedron(), cube(3)]
    cases += [random_lattice_polytope(rng, 3, npoints=rng.randint(5, 8)) for _ in range(4)]
    for p in cases:
        built.clear()
        r = prime_cut(p)
        assert r == seed_prime_cut(p)
        assert built == sorted(set(built), reverse=True)
    built.clear()
    r = prime_cut(RETRY)
    assert (r.epsilon, r.history) == (F(1, 16), ((F(1, 8), "fan does not refine"),))
    assert built == [F(1, 8), F(1, 16), F(1, 32)]
    r = prime_cut(UNSTABLE)
    assert (r.epsilon, r.history) == (F(1, 16), ((F(1, 8), "unstable signature"),))


def round_outcome(cut, p, lattice, spec, eps):
    """(the round's result, None), or (None, its error's type and message)."""
    try:
        return cut(p, lattice, spec, eps), None
    except (ValueError, EmptyPolyhedronError) as exc:
        return None, (type(exc), str(exc))


def seeded_polytopes():
    """The seeded 3- and 4-polytopes of tests/test_identities.py."""
    rng = random.Random(2006)
    return [random_lattice_polytope(rng, d, npoints=rng.randint(d + 2, d + 5), bound=2)
            for d in (2, 3, 4) for _ in range(4)][4:]


def test_label_masks_match_minimizing_vertices():
    # each row's depth-0 mask, read off p's lattice by its label, is where its normal is least
    checked = 0
    for p in [RETRY] + seeded_polytopes():
        lattice = p.face_lattice()
        spec = choose_cut_functionals(p)
        for k in range(3, 12):
            try:
                labels = _labeled_rows(_round_base(p, lattice, spec), F(1, 2 ** k))
            except ValueError:
                continue
            try:
                q = Polytope.from_inequalities(labels)
            except (EmptyPolyhedronError, NotFullDimensionalError):
                continue
            for row in q.rows:
                assert labels[row][1] == minimizing_vertices(p, row[0]), (p.vertices, k, row)
                checked += 1
    assert checked > 1000


def test_vertex_limits_match_the_solving_oracle():
    # each round is decided as the oracle decides it, an accepted round builds the
    # oracle's cut and face map, and the vertex signatures of the rounds at eps and
    # eps/2 agree exactly where the oracle's face signatures do
    polys = list(standard_fixtures().values()) + [RETRY, UNSTABLE] + seeded_polytopes()
    seen, agree = set(), set()
    for p in polys:
        lattice = p.face_lattice()
        spec = choose_cut_functionals(p)
        signatures = []
        for k in range(3, 12):
            eps = F(1, 2 ** k)
            got, got_error = round_outcome(cut_once, p, lattice, spec, eps)
            want, want_error = round_outcome(vertex_limits_by_solving, p, lattice, spec, eps)
            assert got_error == want_error, (p.vertices, eps)
            if got:
                assert _build_cut(p, lattice, *got[:2]) == want[:2], (p.vertices, eps)
                signatures.append((got[2], want[2]))
            else:
                signatures.append(None)
            seen.add(got_error[1] if got_error else "accepted")
        for this, half in zip(signatures, signatures[1:]):
            if this and half:
                assert (this[0] == half[0]) == (this[1] == half[1]), p.vertices
                agree.add(this[0] == half[0])
    assert {"accepted", "cut is not prime", "fan does not refine"} <= seen
    assert agree == {True, False}


# -- the rounds in ints ---------------------------------------------------------------

CUT_EPS = [F(1, 2 ** k) for k in range(14)] + [F(3, 7), F(2, 9), F(5, 11), F(7, 5)]


def oracle_labeled_rows(p, spec, eps):
    """The canonical rows of the round at eps, p's rows first, each cut row
    normalized from its Fraction right-hand side; ValueError on a repeat."""
    rows = [normalize_row(a, b) for a, b in list(p.rows) + cut_rows(p, spec, eps)]
    if len(set(rows)) < len(rows):
        raise ValueError("cut row collides with another row")
    return rows


def colliding_specs(p, spec, eps):
    """Specs whose round at eps repeats a row: an entry listed twice, and an
    entry along facet 0's normal whose cut row at eps is facet 0's row."""
    (a, b), e = p.rows[0], spec.entries[0]
    scale = 3
    top = max(pairing(x, a) for x in p.vertices) * scale
    base = (scale * b - top * eps ** 2) / (1 - eps ** 2)
    along = CutEntry(e.face_id, tuple(scale * x for x in a), base, 2, top - base)
    return [CutSpec(spec.entries + spec.entries[:1]), CutSpec((along,) + spec.entries)]


def cut_row_inputs():
    """The compact fixtures, RETRY and UNSTABLE, seeded random 2- to
    4-polytopes, and rational-vertex images of the random ones."""
    rng = random.Random(7300)
    polys = [p for p in standard_fixtures().values() if p.is_compact] + [RETRY, UNSTABLE]
    polys += [random_lattice_polytope(rng, d, npoints=rng.randint(d + 2, d + 5), bound=2)
              for d in (2, 3, 4) for _ in range(3)]
    polys += [p.dilate(F(rng.randint(1, 5), rng.choice((3, 7)))).translate(
        tuple(F(rng.randint(-4, 4), rng.choice((2, 5))) for _ in range(p.n))) for p in polys[-9:]]
    return polys


def test_integer_cut_rows_match_normalized_fraction_rows():
    # each round's rows from the ints of base, width and eps are normalize_row of
    # the oracle's Fraction rows, on rational-vertex polytopes and non-dyadic eps,
    # with each cut row's label bit and its face's vertex mask; the 5-polytopes
    # shave 2-faces, at order 3
    polys = cut_row_inputs() + [cross_polytope(5), cross_polytope(5).dilate(F(5, 3))]
    rounds = collisions = rational = 0
    orders = set()
    for p in polys:
        lattice, spec = p.face_lattice(), choose_cut_functionals(p)
        rational += not p.is_lattice
        if not spec.entries:
            continue
        orders.update(e.order for e in spec.entries)
        base = _round_base(p, lattice, spec)
        for eps in CUT_EPS:
            labels = _labeled_rows(base, eps)
            assert list(labels) == oracle_labeled_rows(p, spec, eps), (p.vertices, eps)
            m = len(p.rows)
            assert list(labels.values())[m:] == [
                (1 << m + k, lattice.vertex_mask(e.face_id)) for k, e in enumerate(spec.entries)]
            rounds += 1
        for eps in (F(1, 8), F(3, 7)):
            for bad in colliding_specs(p, spec, eps):
                with pytest.raises(ValueError, match="collides") as got:
                    _labeled_rows(_round_base(p, lattice, bad), eps)
                with pytest.raises(ValueError) as want:
                    oracle_labeled_rows(p, bad, eps)
                assert str(got.value) == str(want.value)
                collisions += 1
    assert rounds > 250 and collisions > 40 and rational >= 10 and orders == {1, 2, 3}


def test_rounds_normalize_no_row(monkeypatch):
    # prime_cut hands its canonical rows straight to the hull's integer stage:
    # no round calls normalize_row or the normalizing hull_of_rows
    polys = cut_row_inputs()
    for q in polys:
        q.face_lattice()
    hulls = []
    canonical = polytope.hull_of_canonical

    def counted(*args):
        hulls.append(args)
        return canonical(*args)

    def forbidden(*args):
        raise AssertionError("a prime-cut round normalized its rows")

    for module in (polytope, cutting):
        monkeypatch.setattr(module, "normalize_row", forbidden, raising=False)
        monkeypatch.setattr(module, "hull_of_rows", forbidden, raising=False)
    monkeypatch.setattr(cutting, "hull_of_canonical", counted)
    cuts = [prime_cut(q) for q in polys]
    assert sum(r.polytope is not q for r, q in zip(cuts, polys)) > 12 and len(hulls) > 30
