"""Stalk oracle: the original ``TatePoly`` recursion and global classes.

Every sum of (t - 1)^k * m here is a ``TatePoly`` product, one per distinct
k, and every stalk is truncated with ``TatePoly.truncate_below``.  The
library runs the same formulas on plain int coefficient lists; this is the
reference for its differential test.  Only the ``TatePoly`` ring,
``primitive_parts`` and ``SummandTable`` are shared.
"""

from __future__ import annotations

from fractions import Fraction

from toric_ih.stalks import ONE, T, SummandTable, TatePoly, primitive_parts


def _tm1_sum(terms) -> TatePoly:
    """The sum of (t - 1)^k * m over pairs (k, m), one product per distinct k."""
    by_k = {}
    for k, m in terms:
        by_k[k] = by_k[k] + m if k in by_k else m
    return sum(((T - 1) ** k * m for k, m in by_k.items()), TatePoly.zero())


def oracle_stalk_polynomials(lattice) -> dict[int, TatePoly]:
    """Local stalk polynomial of every face, from the top down."""
    out = {}
    for face in sorted(lattice.faces, key=lambda f: -f.dim):
        if face.codim == 0:
            out[face.id] = ONE
            continue
        acc = _tm1_sum((tau.dim - face.dim - 1, out[tau.id])
                       for tau in lattice.faces_above(face.id))
        out[face.id] = ((1 - T) * acc).truncate_below(Fraction(face.codim, 2))
    return out


def oracle_global_ih_class(lattice) -> TatePoly:
    ms = oracle_stalk_polynomials(lattice)
    return _tm1_sum((face.dim, ms[face.id]) for face in lattice.faces)


def oracle_punctured_cone_classes(lattice):
    apex = lattice.cone_vertex_id
    ms = oracle_stalk_polynomials(lattice)
    faces = [face for face in lattice.faces if face.id != apex]
    ih = (1 - T) * _tm1_sum((face.dim - 1, ms[face.id]) for face in faces)
    ihc = _tm1_sum((face.dim, ms[face.id]) for face in faces)
    return ih, ihc


def oracle_decomposition_summands(lattice) -> SummandTable:
    n = lattice.n
    apex = lattice.cone_vertex_id
    ms = oracle_stalk_polynomials(lattice)
    h = _tm1_sum((face.dim - 1, ms[face.id]) for face in lattice.faces if face.id != apex)
    g = primitive_parts(h, n - 1)
    entries = []
    for k in range(n):
        r = h.coeff(k) - g.coeff(k)
        if r:
            entries.append((2 * k, r, -k))
    return SummandTable(n, tuple(entries))
