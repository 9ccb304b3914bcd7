"""Differential tests: the int-coefficient stalk recursion and global classes
against the ``TatePoly`` oracle."""

import random

import pytest

from toric_ih.errors import ToricError
from toric_ih.fixtures import (
    cone_fixtures,
    cross_polytope,
    cube,
    random_lattice_polytope,
    standard_fixtures,
)
from toric_ih.polytope import Polytope
from toric_ih.stalks import (
    ONE,
    decomposition_summands,
    global_ih_class,
    punctured_cone_classes,
    stalk_polynomials,
)

from stalk_oracle import (
    oracle_decomposition_summands,
    oracle_global_ih_class,
    oracle_punctured_cone_classes,
    oracle_stalk_polynomials,
)


def check_against_oracle(p):
    """Asserts agreement; returns whether some stalk is not 1."""
    lat = p.face_lattice()
    ms = stalk_polynomials(lat)
    assert list(ms.items()) == list(oracle_stalk_polynomials(lat).items())
    if lat.is_compact:
        assert global_ih_class(lat) == oracle_global_ih_class(lat)
    else:
        assert punctured_cone_classes(lat) == oracle_punctured_cone_classes(lat)
        assert decomposition_summands(lat) == oracle_decomposition_summands(lat)
    return any(m != ONE for m in ms.values())


FIXTURES = {**standard_fixtures(), **cone_fixtures(),
            "cube-6": cube(6), "cross-6": cross_polytope(6)}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_stalks_match_oracle(name):
    check_against_oracle(FIXTURES[name])


def random_cone(rng, d):
    """A pointed full-dimensional cone with its vertex at the origin."""
    while True:
        rays = [tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (rng.randint(1, 3),)
                for _ in range(rng.randint(d, d + 3))]
        try:
            return Polytope.from_points([(0,) * d], rays)
        except ToricError:
            continue


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_random_stalks_match_oracle(d):
    rng = random.Random(8000 + d)
    nontrivial = 0
    for _ in range(8 if d < 5 else 4):
        p = random_lattice_polytope(rng, d, npoints=rng.randint(d + 1, d + 5))
        nontrivial += check_against_oracle(p) + check_against_oracle(random_cone(rng, d))
    assert nontrivial or d < 3  # stalks are 1 on every polygon and 2-cone
