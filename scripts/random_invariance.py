#!/usr/bin/env python3
"""Randomized invariance sweep, a larger budget than the test suite uses.

Draws random lattice polytopes, runs the shared identity tables on each and
on its cone, checks the alternating identity on a random assignment, checks
the classified scan's counts of P against the one-walk dilate counts, and
confirms invariance under random unimodular changes of lattice basis.
"""

import argparse
import random
import time

from toric_ih.counting import (
    face_counts,
    interior_lattice_points,
    lattice_count,
    lattice_points,
    skeleton_count,
)
from toric_ih.fixtures import (
    cone_over,
    random_lattice_polytope,
    random_unimodular_matrix,
)
from toric_ih.hypersurface import alternating_identity_holds
from toric_ih.identities import COMPACT, CONES, evaluate
from toric_ih.lattice import unimodular_image
from toric_ih.stalks import global_ih_class


def check_one(rng, dim):
    p = random_lattice_polytope(rng, dim, npoints=rng.randint(5, 9), bound=2)
    lat = p.face_lattice()
    rows = evaluate(COMPACT, "polytope", p) + evaluate(CONES, "cone", cone_over(p))
    assert all(result == "pass" for _, result in rows), (p.vertices, rows)
    assert alternating_identity_holds(lat, {f.id: rng.randint(-50, 50) for f in lat.faces})
    assert face_counts(lat)[0] == (lattice_count(p), lattice_count(p, strict=True))

    q = unimodular_image(p, random_unimodular_matrix(rng, dim))
    assert global_ih_class(q.face_lattice()) == global_ih_class(lat)
    assert lattice_points(q)[0] == lattice_points(p)[0]
    assert interior_lattice_points(q)[0] == interior_lattice_points(p)[0]
    assert skeleton_count(q.face_lattice()) == skeleton_count(lat)
    assert lattice_count(q, 2, strict=True) == lattice_count(p, 2, strict=True)
    return len(lat.faces)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    t0 = time.time()
    faces = 0
    for i in range(args.rounds):
        faces += check_one(rng, rng.choice((2, 2, 3, 3, 4)))
        if (i + 1) % 10 == 0:
            print(f"{i + 1:4d} polytopes ok ({faces} faces so far, "
                  f"{time.time() - t0:.1f}s)")
    print(f"all {args.rounds} rounds passed in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
