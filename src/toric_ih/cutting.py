"""Prime cutting and the single-vertex toric blow-up.

A compact polytope is shaved into a prime one by pushing a supporting
hyperplane past every face whose dual cone is not simplicial.  The shave
depths form a cascade: a face of dimension d is cut at depth proportional to
eps^(d+1), so the depth ratio between a face and any larger face vanishes
with eps.  Exactness is restored by a stability protocol: the construction
is repeated with eps/2 and must reproduce the identical labeled face
structure and the identical limit face map, otherwise eps is halved and the
construction retried.

The limit face map sends each face of the cut polytope to the smallest face
of the original containing the eps -> 0 limit of its barycenter.  Every
vertex limit is a vertex of the original, since at depth zero each row of
the cut supports the original; so each limit is read off by incidence, as
the vertex of the original minimizing the normals of n independent rows
through the cut vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import and_

from .errors import (
    EmptyPolyhedronError,
    EpsilonUnstableError,
    InvariantViolation,
    NonIntegralSpanError,
    NotFullDimensionalError,
    UnboundedError,
)
from .lattice import (
    affine_frame,
    as_rat,
    dot,
    independent_rows,
    lattice_vector,
    pairing,
    rat_vector,
    rational_affine_basis,
    solve_consistent,
    vscale,
    vsub,
)
from .polytope import (
    FaceLattice,
    Polytope,
    is_prime,
    normalize_row,
)


@dataclass(frozen=True)
class CutEntry:
    """One face to shave: its supporting functional, base value and cascade order."""

    face_id: int
    functional: tuple[int, ...]
    base: Fraction
    order: int


@dataclass(frozen=True)
class CutSpec:
    entries: tuple[CutEntry, ...]


@dataclass(frozen=True)
class CutResult:
    """The prime cut polytope with its limit face map.

    ``face_map`` sends face ids of the cut polytope to face ids of the
    original; ``spec`` records the functionals used (the cut is canonical
    only relative to this choice).
    """

    polytope: Polytope
    face_map: dict
    epsilon: Fraction
    spec: CutSpec


def choose_cut_functionals(p: Polytope, lattice: FaceLattice | None = None) -> CutSpec:
    """Select the faces with non-simplicial dual cone and a functional for each.

    The functional is the sum of the primitive inner normals of the facets
    through the face, which lies in the relative interior of the dual cone,
    so its minimum face on the polytope is exactly the selected face.
    """
    if not p.is_compact:
        raise UnboundedError("prime cutting needs a compact polytope")
    lattice = lattice or p.face_lattice()
    entries = []
    for f in lattice.faces:
        if len(f.active) <= f.codim:
            continue
        v = tuple(sum(p.rows[j][0][i] for j in f.active) for i in range(p.n))
        base = min(pairing(x, v) for x in p.vertices)
        entries.append(CutEntry(f.id, v, base, f.dim + 1))
    return CutSpec(tuple(entries))


def _cut_widths(lattice: FaceLattice, spec: CutSpec):
    """Each cut entry's width: the maximum of its functional over p minus its base."""
    return tuple(lattice.maximum(e.functional) - e.base for e in spec.entries)


def _cut_once(p: Polytope, lattice: FaceLattice, spec: CutSpec, eps: Fraction, widths=None):
    """Build the cut polytope at one eps; returns (polytope, labels, face_map).

    ``widths`` are the ``_cut_widths`` of the spec, which do not depend on
    eps; they are computed here when not given.

    ``labels`` assigns each row of the cut polytope its origin: an original
    facet row of p, or the cut entry it came from.  Raises ValueError when the
    labeling is ambiguous, the cut is not full-dimensional or a vertex limit
    leaves p (each a signal to shrink eps).

    A vertex of the cut is followed to eps = 0 along n independent rows of
    its active set.  At depth zero each of them supports p: a facet row with
    minimum b, a cut entry with minimum ``base`` on exactly its face.  The
    limit is the one point of the n hyperplanes, so it lies in p exactly
    when some vertex of p minimizes all n normals, and it is that vertex.
    """
    rows = list(p.rows)
    label_of = {row: ("row", row) for row in p.rows}
    if widths is None:
        widths = _cut_widths(lattice, spec)
    for e, width in zip(spec.entries, widths):
        depth = width * eps ** e.order
        rows.append((e.functional, e.base + depth))
        canon = normalize_row(e.functional, e.base + depth)
        if canon in label_of:
            raise ValueError("cut row collides with another row")
        label_of[canon] = ("cut", e)
    try:
        q = Polytope.from_inequalities(rows)
    except NotFullDimensionalError:
        raise ValueError("cut polytope is not full-dimensional") from None
    qlat = q.face_lattice()

    # each row of q at depth 0: its normal and the vertices of p minimizing it
    normals = [data[0] if kind == "row" else data.functional
               for kind, data in (label_of[row] for row in q.rows)]
    masks = [lattice.minimizing_vertices(a) for a in normals]
    active_at = {f.vertex_ids[0]: frozenset(f.active) for f in lattice.of_dim(0)}

    # the rows of p tight at the limit of each vertex of q, by vertex index
    tight_at_limit = {}
    for vf in qlat.of_dim(0):
        pick = independent_rows([normals[j] for j in vf.active], p.n)
        limit = reduce(and_, (masks[vf.active[k]] for k in pick), -1)
        if not limit:
            raise ValueError("vertex limit escaped the polytope")
        tight_at_limit[vf.vertex_ids[0]] = active_at[limit.bit_length() - 1]

    # a row of p is tight at a face's limit barycenter iff tight at each vertex limit
    face_map = {f.id: lattice.by_active[frozenset.intersection(
                    *(tight_at_limit[i] for i in f.vertex_ids))].id
                for f in qlat.faces}

    labels = {f.id: frozenset(label_of[q.rows[j]] for j in f.active) for f in qlat.faces}
    return q, qlat, labels, face_map


def _signature(qlat, labels, face_map):
    return tuple(sorted((labels[f.id], f.dim, face_map[f.id]) for f in qlat.faces))


def _fan_refines(q: Polytope, p: Polytope) -> bool:
    """Every vertex normal cone of q sits inside exactly one of p (both compact):
    the AND of its rows' masks of minimizing vertices of p has exactly one bit."""
    plat = p.face_lattice()
    masks = [plat.minimizing_vertices(a) for a, _ in q.rows]
    return all(reduce(and_, (masks[j] for j in vf.active)).bit_count() == 1
               for vf in q.face_lattice().of_dim(0))


def prime_cut(p: Polytope, spec: CutSpec | None = None,
              epsilon=Fraction(1, 8), max_rounds: int = 12) -> CutResult:
    """Shave the polytope into a prime one, with the limit face map.

    The result is recomputed at eps/2 and must agree exactly (same labeled
    face lattice, same face map) before being accepted; disagreement, an
    empty intersection, a non-prime result or a non-refining fan all shrink
    eps and retry.  Raises EpsilonUnstableError after max_rounds failures.
    """
    lattice = p.face_lattice()
    if spec is None:
        spec = choose_cut_functionals(p, lattice)
    eps = as_rat(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if not spec.entries:
        return CutResult(p, {f.id: f.id for f in lattice.faces}, eps, spec)
    widths = _cut_widths(lattice, spec)
    last = {}  # the last cut built, by its eps: a rejected round's eps/2 cut opens the next

    def cut_at(e):
        if e not in last:
            last.clear()
            try:
                last[e] = _cut_once(p, lattice, spec, e, widths)
            except (ValueError, EmptyPolyhedronError):
                last[e] = None
        return last[e]

    for _ in range(max_rounds):
        cut = cut_at(eps)
        half = cut and cut_at(eps / 2)
        if (half and _signature(*cut[1:]) == _signature(*half[1:])
                and is_prime(cut[0]) and _fan_refines(cut[0], p)):
            return CutResult(cut[0], cut[3], eps, spec)
        eps = eps / 2
    raise EpsilonUnstableError(f"epsilon unstable after {max_rounds} halvings")


@dataclass(frozen=True)
class BlowupResult:
    """Data of the single-vertex toric blow-up of a cone.

    ``prime`` is the cone truncated below the cutting level (a closed
    polyhedron, so the compact figure is one of its faces); ``figure`` is
    that unique compact facet-level face, reduced to full dimension in its
    own span; ``face_map`` matches each face of the figure with the cone
    face of one dimension higher that it spans.
    """

    prime: Polytope
    figure: Polytope
    figure_vertices: tuple
    face_map: dict
    functional: tuple[int, ...]
    level: Fraction
    lattice_chart: bool


def vertex_blowup(p: Polytope, v, c) -> BlowupResult:
    """Truncate a cone with vertex at the origin along <., v> = c.

    ``v`` must pair strictly positively with every ray (the interior of the
    dual cone); the slice is then a compact polytope of one dimension less
    whose faces correspond to the positive-dimensional faces of the cone.
    """
    if not p.is_cone_with_vertex or p.vertices[0] != tuple([Fraction(0)] * p.n):
        raise ValueError("need a cone with vertex at the origin")
    v = lattice_vector(v)
    c = as_rat(c)
    if c <= 0:
        raise ValueError("cutting level must be positive")
    for r in p.rays:
        if dot(r, v) <= 0:
            raise ValueError("not interior to dual cone")
    prime = Polytope.from_inequalities(list(p.rows) + [(v, c)])
    figure_vertices = tuple(vscale(c / dot(r, v), tuple(map(Fraction, r)))
                            for r in p.rays)
    try:
        frame = affine_frame(figure_vertices)
        coords = [frame.to_coords(w) for w in figure_vertices]
        lattice_chart = True
    except NonIntegralSpanError:
        base, dirs = rational_affine_basis(figure_vertices)
        cols = [[d[i] for d in dirs] for i in range(p.n)]
        coords = [solve_consistent(cols, list(vsub(w, base))) for w in figure_vertices]
        lattice_chart = False
    figure = Polytope.from_points(coords)
    if figure.n != p.n - 1:
        raise InvariantViolation("compact figure has the wrong dimension")

    ray_of_coord = {rat_vector(y): i for i, y in enumerate(coords)}

    plat = p.face_lattice()
    cone_face_by_rays = {frozenset(f.ray_ids): f.id for f in plat.faces if f.dim > 0}
    figlat = figure.face_lattice()
    face_map = {}
    for f in figlat.faces:
        rays = frozenset(ray_of_coord[figure.vertices[i]] for i in f.vertex_ids)
        target = cone_face_by_rays.get(rays)
        if target is None or plat.faces[target].dim != f.dim + 1:
            raise InvariantViolation("figure faces do not match the cone faces")
        face_map[f.id] = target
    if len(face_map) != len(plat.faces) - 1:
        raise InvariantViolation("figure faces do not exhaust the cone faces")
    return BlowupResult(prime, figure, figure_vertices, face_map,
                        v, c, lattice_chart)
