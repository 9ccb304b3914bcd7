#!/usr/bin/env python3
"""Gallery of affine cone invariants over the bundled polygon fixtures.

For each cone over a k-gon (k = 3..8): the apex stalk polynomial, the compact
face figure's cohomology class, the punctured-cone classes, and the summand
table of the single-vertex blow-up.
"""

from toric_ih.cutting import vertex_blowup
from toric_ih.fixtures import cone_over_polygon
from toric_ih.stalks import (
    decomposition_summands,
    global_ih_class,
    punctured_cone_classes,
    stalk_polynomials,
)


def main():
    for k in range(3, 9):
        cone = cone_over_polygon(k)
        lat = cone.face_lattice()
        m = stalk_polynomials(lat)[lat.cone_vertex_id]
        ih, ihc = punctured_cone_classes(lat)
        table = decomposition_summands(lat)
        b = vertex_blowup(cone, (0, 0, 1), 1)
        h = global_ih_class(b.figure.face_lattice())
        print(f"k={k}  apex m(t) = {m}")
        print(f"     figure class = {h}")
        print(f"     punctured ih = {ih}   ih_c = {ihc}")
        print(f"     summands = {table.entries}")
        print()


if __name__ == "__main__":
    main()
