"""Differential tests: the polar hull routine against the brute-force oracle."""

import random
from fractions import Fraction as F
from functools import reduce
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_ih import lattice, polytope
from toric_ih.errors import (
    EmptyPolyhedronError,
    NotFullDimensionalError,
    NotPointedError,
    ToricError,
)
from toric_ih.fixtures import cone_fixtures, cross_polytope, cube, standard_fixtures
from toric_ih.lattice import dot, integerize, mat_rank, primitive
from toric_ih.polytope import Polytope, _extreme_rays, _irredundant, normalize_row

from hull_oracle import (
    cofactor_kernel_vector,
    fraction_sorted_from_points,
    irredundant_by_rank,
    kernel_ray,
    oracle_from_inequalities,
    oracle_from_points,
)


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


# -- the bitmask rules against the rank rules they replaced ----------------------

def random_full_cone(rng, d):
    """Integer constraints of a full-dimensional pointed cone in Q^d: each is
    positive on a random vector x0, and they have rank d."""
    x0 = [rng.randint(-3, 3) or 1 for _ in range(d)]
    cons = []
    while len(cons) < d + rng.randint(0, 4) or mat_rank(cons) < d:
        c = tuple(rng.randint(-2, 2) for _ in range(d))
        if dot(c, x0) < 0:
            c = tuple(-x for x in c)
        if dot(c, x0) > 0:
            cons.append(c)
    return cons


def with_redundant_rows(rng, cons, d):
    """cons plus rows tight on one face of the cone: the sum of the constraints
    tight at a random ray or pair of rays (several rows through one face),
    a sum of two constraints, and a repeated constraint."""
    rays, tight = _extreme_rays(cons, d)
    extra = []
    for _ in range(rng.randint(1, 3)):
        face = reduce(and_, rng.sample(tight, min(len(tight), rng.randint(1, 2))))
        if face:
            extra.append(tuple(sum(cons[i][k] for i in bits(face)) for k in range(d)))
    a, b = rng.sample(cons, 2)
    extra += [tuple(x + y for x, y in zip(a, b)), rng.choice(cons)]
    return cons + extra


def bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def assert_filters_agree(cons, d):
    """The mask filter keeps the same constraints as the rank filter."""
    rays, tight = _extreme_rays(cons, d)
    assert not reduce(and_, tight), "the cone must be full-dimensional"
    want = irredundant_by_rank(cons, rays, tight, d)
    assert [cons[i] for i in _irredundant(cons, tight)] == want, cons
    return want


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_mask_filter_matches_rank_filter_on_random_cones(d):
    rng = random.Random(8000 + d)
    dropped = 0
    for _ in range(40 if d < 6 else 15):
        cons = with_redundant_rows(rng, random_full_cone(rng, d), d)
        dropped += len(cons) - len(assert_filters_agree(cons, d))
    assert dropped  # some rows were redundant


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_mask_filter_matches_rank_filter_on_both_hull_directions(n):
    """The facet rows of random (often unbounded) H input and the extreme
    generators of their vertices and rays, as from_inequalities and
    from_points build their cones."""
    rng = random.Random(8100 + n)
    seen_rays = 0
    for _ in range(25 if n < 6 else 8):
        u0 = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        rows = []
        for a in random_full_cone(rng, n) + random_full_cone(rng, n)[:rng.randint(0, n)]:
            rows.append((a, dot(a, u0) - rng.randint(0, 3)))
        try:
            p = Polytope.from_inequalities(rows)
        except ToricError:
            continue
        norm = sorted({normalize_row(a, b) for a, b in rows})
        cons = [a + (-b,) for a, b in norm] + [(0,) * n + (1,)]
        assert_filters_agree(cons, n + 1)
        # the vertices and rays, then redundant points: midpoints of two vertices, vertex + ray
        extra = [tuple((x + y) / 2 for x, y in zip(v, w))
                 for v, w in zip(p.vertices, p.vertices[1:])]
        extra += [tuple(x + y for x, y in zip(p.vertices[0], r)) for r in p.rays]
        gens = [integerize(v + (1,)) for v in p.vertices] + [r + (0,) for r in p.rays]
        gens = list(dict.fromkeys(gens + [integerize(v + (1,)) for v in extra]))
        duals, tight = _extreme_rays(gens, n + 1)
        keep = irredundant_by_rank(gens, duals, tight, n + 1)
        assert [gens[i] for i in _irredundant(gens, tight)] == keep
        assert keep == gens[:len(p.vertices) + len(p.rays)]
        seen_rays += bool(p.rays)
    assert seen_rays


def degenerate_inputs(rng, n):
    """V input and H input in Q^n, each either lower-dimensional, not pointed
    or (H) empty, mixed with well-formed input."""
    pts = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n + 2)]
    w = [rng.randint(-2, 2) for _ in range(n - 1)]
    flat = [p[:-1] + (dot(w, p[:-1]) + 1,) for p in pts]  # on a hyperplane
    r = tuple(rng.randint(-1, 1) for _ in range(n - 1))
    tangent = [r + (dot(w, r),)] if any(r) else []
    line = [(1,) + (0,) * (n - 1), (-1,) + (0,) * (n - 1)]
    v_inputs = [(flat, []), (flat, tangent), (pts, line), (pts, [])]
    a = tuple(rng.randint(-2, 2) for _ in range(n))
    if not any(a):
        a = (1,) + a[1:]
    neg = tuple(-x for x in a)
    box = [(tuple(int(i == k) for k in range(n)), 0) for i in range(n)]
    box += [(tuple(-int(i == k) for k in range(n)), -2) for i in range(n)]
    h_inputs = [box + [(a, 1), (neg, 0)],          # empty
                box + [(a, 1), (neg, -1)],         # an implicit equality
                [(a, 0), (neg, -3)],               # normals of rank 1
                [((0,) * n, 1)] + box,             # an infeasible zero row
                box[:n] + [(a, rng.randint(-2, 2))],
                box]
    return v_inputs, h_inputs


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_degenerate_inputs_raise_as_the_oracles(n):
    rng = random.Random(8200 + n)
    kinds = set()
    for _ in range(6 if n < 6 else 2):
        v_inputs, h_inputs = degenerate_inputs(rng, n)
        for pts, rays in v_inputs:
            got = outcome(Polytope.from_points, pts, rays)
            assert got == outcome(oracle_from_points, pts, rays)
            kinds.add(got if isinstance(got, type) else "polytope")
        for rows in h_inputs:
            got = outcome(Polytope.from_inequalities, rows)
            assert got == outcome(oracle_from_inequalities, rows)
            kinds.add(got if isinstance(got, type) else "polytope")
    assert kinds >= {NotFullDimensionalError, NotPointedError, EmptyPolyhedronError, "polytope"}


def test_hull_takes_no_rank_call(monkeypatch):
    """Both hull directions build every fixture with the echelon ranks
    (``echelon_push``, which ``normal_fan`` uses, and ``mat_rank``) gone:
    the double description's basis pick is the one rank decision."""
    fixtures = list(standard_fixtures().values()) + list(cone_fixtures().values())
    fixtures += [cube(6), cross_polytope(6)]

    def no_rank(*args):
        raise AssertionError("the hull called a rank routine")

    for module, name in ((polytope, "echelon_push"), (lattice, "echelon_push"),
                         (lattice, "mat_rank")):
        monkeypatch.setattr(module, name, no_rank)
    for p in fixtures:
        assert Polytope.from_points(p.vertices, p.rays) == p
        assert Polytope.from_inequalities(p.rows) == p


# -- integer-native from_points against the Fraction-sorted route ------------------

def spelled(rng, x):
    """The rational x as an int (when integral), a Fraction or a 'p/q' string."""
    forms = [F(x), str(F(x))] + ([int(x)] if F(x).denominator == 1 else [])
    return rng.choice(forms)


def respelled(rng, pts):
    """The points with each entry respelled, plus respelled copies of some of them, shuffled."""
    out = [tuple(spelled(rng, x) for x in p) for p in pts]
    out += [tuple(spelled(rng, x) for x in p) for p in rng.sample(pts, rng.randint(0, len(pts)))]
    rng.shuffle(out)
    return out


def points_outcome(build, pts, rays):
    """The polytope, its vertex order and its handed-over row_gens, or the
    type and message of the error raised."""
    try:
        p = build(pts, rays)
    except (ToricError, ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return p, p.vertices, p.face_lattice().row_gens


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["int", "rational", "rays"])
def test_from_points_matches_fraction_sorted_route(d, kind):
    rng = random.Random(8300 + 10 * d + ("int", "rational", "rays").index(kind))
    built = 0
    for _ in range(40):
        pts = [random_point(rng, d, kind != "int") for _ in range(rng.randint(1, d + 4))]
        rays = random_pointed_rays(rng, d, rng.randint(1, 3)) if kind == "rays" else []
        for spelling in (pts, respelled(rng, pts)):
            got = points_outcome(Polytope.from_points, spelling, rays)
            assert got == points_outcome(fraction_sorted_from_points, spelling, rays), spelling
            built += not isinstance(got[0], type)
    assert built >= 20


def test_from_points_raises_as_the_fraction_sorted_route():
    rng = random.Random(8400)
    cases = [([], []), ([(1, 2), (1,)], []), ([(0, 0), (1, 0), (0, 1)], [(0, 0)]),
             ([(0, 0), (1, "1/2"), (2, 1)], []), ([(0, 0), (1, 0)], [(0, 1), (0, -1)]),
             ([(0, 0), (0.5, 1), (1, 0)], []), ([(0, 0), 3], []), ([()], []), ([(), ()], [()]),
             ([(F(1, 2),), ("3/4",)], [])]
    for n in (2, 3, 4):
        cases += [(respelled(rng, pts), rays) for pts, rays in degenerate_inputs(rng, n)[0]]
    kinds = set()
    for pts, rays in cases:
        got = points_outcome(Polytope.from_points, pts, rays)
        assert got == points_outcome(fraction_sorted_from_points, pts, rays), (pts, rays)
        kinds.add(got[0] if isinstance(got[0], type) else "polytope")
    assert kinds == {ValueError, TypeError, NotFullDimensionalError, NotPointedError, "polytope"}
