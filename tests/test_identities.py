"""Every entry of the shared identity table on seeded random lattice polytopes and their cones."""

import random

import pytest

from toric_ih.fixtures import cone_over, cross_polytope, random_lattice_polytope
from toric_ih.identities import COMPACT, CONES, PRIME_CUT


@pytest.fixture(scope="module")
def polytopes():
    rng = random.Random(2006)
    return [random_lattice_polytope(rng, d, npoints=rng.randint(d + 2, d + 5), bound=2)
            for d in (2, 3, 4) for _ in range(4)]


@pytest.fixture(scope="module")
def cones(polytopes):
    return [cone_over(p) for p in polytopes]


def run_entry(entry, inputs):
    label, applies, holds = entry
    chosen = [p for p in inputs if applies(p)]
    assert chosen, f"{label} applies to no input"
    for p in chosen:
        assert holds(p, p.face_lattice()), (label, p.vertices, p.rays)


@pytest.mark.parametrize("entry", COMPACT, ids=lambda e: e[0])
def test_compact_identity(entry, polytopes):
    run_entry(entry, polytopes)


@pytest.mark.parametrize("entry", CONES, ids=lambda e: e[0])
def test_cone_identity(entry, cones):
    run_entry(entry, cones)


@pytest.mark.parametrize("entry", PRIME_CUT, ids=lambda e: e[0])
def test_prime_cut_identity(entry, polytopes):
    run_entry(entry, polytopes)


# reciprocity needs the Ehrhart polynomial, so the walks of P .. 6P: 11.4 s in all, 6.4 s of
# it on 6P (Python 3.11, 2 cores); counting by a projection tower (ROADMAP item 4) would fix it
@pytest.mark.parametrize("entry", [e for e in COMPACT if e[0] != "reciprocity"], ids=lambda e: e[0])
def test_compact_identity_on_cross_polytope_6(entry):
    label, applies, holds = entry
    p = cross_polytope(6)
    if applies(p):
        assert holds(p, p.face_lattice()), label
