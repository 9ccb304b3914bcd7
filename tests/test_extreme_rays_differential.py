"""Differential tests: the double-description routine against the subset scan it replaced."""

import random
from fractions import Fraction as F

import pytest

from toric_ih import cutting, polytope
from toric_ih.cutting import _cut_once, choose_cut_functionals
from toric_ih.errors import EmptyPolyhedronError, NotFullDimensionalError, ToricError
from toric_ih.fixtures import random_lattice_polytope
from toric_ih.lattice import dot, mat_rank

from hull_oracle import extreme_rays_by_subsets


def check_against_scan(cons, d):
    """Same sorted rays as the scan, and each tight bitmask names exactly the tight constraints."""
    rays, tight = polytope._extreme_rays(cons, d)
    assert rays == extreme_rays_by_subsets(cons, d), (cons, d)
    assert tight == [sum(1 << i for i, c in enumerate(cons) if not dot(c, r)) for r in rays]
    return rays


def random_cone(rng, d):
    """Integer constraints of a pointed cone in Q^d that holds a random vector x0.

    Constraints negative on x0 are flipped, so the cone is never {0} by
    construction; some are duplicated, some repeated as a positive multiple,
    and some orthogonal to x0 come with their negative, which makes the cone
    lower-dimensional (an implicit equality).
    """
    x0 = [rng.randint(-3, 3) for _ in range(d)]
    size = rng.randint(d, d + 5)
    cons = []
    while len(cons) < size or mat_rank(cons) < d:
        c = tuple(rng.randint(-2, 2) for _ in range(d))
        if not any(c):
            continue
        if dot(c, x0) < 0:
            c = tuple(-x for x in c)
        cons.append(c)
        roll = rng.random()
        if roll < 0.1:
            cons.append(c)
        elif roll < 0.2:
            cons.append(tuple(rng.randint(2, 3) * x for x in c))
        elif roll < 0.3 and not dot(c, x0):
            cons.append(tuple(-x for x in c))
    rng.shuffle(cons)
    return cons


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_random_cones_match_scan(d):
    rng = random.Random(5000 + d)
    sizes = set()
    for _ in range(60 if d < 6 else 25):
        sizes.add(len(check_against_scan(random_cone(rng, d), d)))
    assert len(sizes) > 1  # not every cone came out {0} or a single ray


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_duplicate_and_parallel_constraints_match_scan(d):
    rng = random.Random(6000 + d)
    for _ in range(30):
        cons = random_cone(rng, d)
        c = rng.choice(cons)
        cons = cons + [c, tuple(2 * x for x in c), c]
        rng.shuffle(cons)
        check_against_scan(cons, d)


def test_implicit_equalities_give_a_lower_dimensional_cone():
    rng = random.Random(7000)
    for d in (3, 4, 5):
        for _ in range(20):
            # hyperplanes through the first coordinate axis, taken with both signs
            eqs = [(0,) + tuple(rng.randint(-2, 2) for _ in range(d - 1)) for _ in range(2)]
            cons = eqs + [tuple(-x for x in e) for e in eqs]
            cons += [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d)]
            cons.append((1,) + (0,) * (d - 1))
            if mat_rank(cons) < d:
                continue
            rays = check_against_scan(cons, d)
            assert not rays or mat_rank(rays) <= d - mat_rank(eqs)


def test_hrep_with_implicit_equalities():
    # {(x, y, z) : x = 0, 0 <= y <= 1, 0 <= z <= 1}, homogenized as from_inequalities does
    rows = [((1, 0, 0), 0), ((-1, 0, 0), 0), ((0, 1, 0), 0), ((0, -1, 0), -1),
            ((0, 0, 1), 0), ((0, 0, -1), -1)]
    cons = [a + (-b,) for a, b in rows] + [(0, 0, 0, 1)]
    assert check_against_scan(cons, 4) == [(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1)]


def test_constraints_of_lower_rank_raise():
    with pytest.raises(ValueError):
        polytope._extreme_rays([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3)


def cut_systems(p, eps):
    """The (cons, d) of every hull call that one _cut_once round on p makes."""
    calls = []
    real = polytope._extreme_rays

    def record(cons, d, start=None):
        calls.append((list(cons), d))
        return real(cons, d, start)

    lattice = p.face_lattice()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytope, "_extreme_rays", record)
        try:
            _cut_once(p, lattice, choose_cut_functionals(p), eps)
        except ValueError:
            pass  # a rejected round still built its cut
    return calls


@pytest.fixture(scope="module")
def seeded_polytopes():
    """The seeded 3- and 4-polytopes of tests/test_identities.py, in the same draw."""
    rng = random.Random(2006)
    ps = [random_lattice_polytope(rng, d, npoints=rng.randint(d + 2, d + 5), bound=2)
          for d in (2, 3, 4) for _ in range(4)]
    return ps[4:]


@pytest.mark.parametrize("eps", [F(1, 8), F(1, 64)])
def test_cut_systems_of_seeded_3_polytopes_match_scan(seeded_polytopes, eps):
    for p in seeded_polytopes[:4]:
        systems = cut_systems(p, eps)
        assert systems and all(d == 4 for _, d in systems)
        for cons, d in systems:
            check_against_scan(cons, d)


def test_cut_systems_of_seeded_4_polytopes_match_scan(seeded_polytopes):
    big = seeded_polytopes[5]
    assert len(choose_cut_functionals(big).entries) == 32  # the 32-row cut system
    for p in (seeded_polytopes[4], big):
        for cons, d in cut_systems(p, F(1, 8)):
            check_against_scan(cons, d)


# -- the warm start from a polytope's own cone against the cold start ----------------

def warm_and_cold_stages(monkeypatch, run, *args):
    """Each hull_of_rows call that run(*args) makes in cutting, warm as made
    and cold without its start: (warm outcome, cold outcome) pairs, an
    outcome being the stage or the error's type and message."""
    calls = []
    real = polytope.hull_of_rows

    def outcome(rows, start=None):
        try:
            return real(rows, start)
        except (ToricError, ValueError) as exc:
            return type(exc), str(exc)

    def record(rows, start=None):
        assert start is not None  # every hull call in cutting starts warm
        calls.append((outcome(rows, start), outcome(rows)))
        return real(rows, start)

    with monkeypatch.context() as mp:
        mp.setattr(cutting, "hull_of_rows", record)
        run(*args)
    return calls


def decide_round(p, lattice, spec, eps):
    """_cut_once, a rejected round's error dropped: it still built its hull."""
    try:
        _cut_once(p, lattice, spec, eps)
    except (ValueError, EmptyPolyhedronError):
        pass


def test_warm_start_matches_cold_on_every_cut_round(monkeypatch, seeded_polytopes):
    # every round _cut_once decides on the seeded polytopes, from coarse eps
    # (rejected rounds, empty or flat cuts among them) to fine
    calls = []
    for p in seeded_polytopes:
        lattice, spec = p.face_lattice(), choose_cut_functionals(p)
        for k in range(12):
            calls += warm_and_cold_stages(monkeypatch, decide_round, p, lattice, spec, F(1, 2 ** k))
    for warm, cold in calls:
        assert warm == cold
    errors = {w[0] for w, _ in calls if isinstance(w[0], type)}
    assert len(calls) > 50 and errors == {EmptyPolyhedronError, NotFullDimensionalError}

