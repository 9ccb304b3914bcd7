"""Prime cutting and the single-vertex toric blow-up.

A compact polytope is shaved into a prime one by pushing a supporting
hyperplane past every face whose dual cone is not simplicial.  The shave
depths form a cascade: a face of dimension d is cut at depth proportional to
eps^(d+1), so the depth ratio between a face and any larger face vanishes
with eps.  Exactness is restored by a stability protocol: the round at eps is
accepted when the round at eps/2 has the same signature; otherwise eps is
halved and the next round compared.

A round is decided in plain ints, on the integer hull of its rows
(``hull_of_canonical``) alone.  The rows of a round are the polytope's own
rows plus the cut rows.  The polytope's rows are canonical already, and
each cut row is put in canonical form from the numerators and denominators
of its base, width and eps, so the rows go to the hull's integer stage
without being normalized again.  What does not depend on eps (the
polytope's labeled rows, each cut entry's primitive functional and vertex
mask) is read once per cut (``_round_base``).  The hull starts from the
polytope's homogenized cone, whose generators and tight rows its face
lattice keeps once for every round, and adds only the cut rows.  Each row
of the cut carries a label bit: row j of the original is bit j, cut entry k
is bit m + k (m rows).  The cut is compact, so it is prime when each vertex
lies on exactly n facets, and a vertex's label mask is the OR of the bits
of its facets.  The round's signature is the set of its vertices' label
masks.  In a prime cut every subset of a vertex's facets is the active set
of a face, and every face's set is one, so this set determines each face's
label mask and, through the limits below, its limit face: comparing it
decides as comparing every face would.  Only the accepted round builds its
polytope, its face lattice and the face map.

The limit face map sends each face of the cut polytope to the smallest face
of the original containing the eps -> 0 limit of its barycenter.  At depth
zero each row of the cut supports the original, so a vertex of the cut
tends to the vertex of the original that minimizes the normals of all its
rows: the AND of their bitmasks of minimizing vertices, each read off the
original's lattice by the row's label (a facet's vertices, or those of the
face a cut entry shaves).  A label bit's mask does not depend on eps, so
the limit is a function of the label mask.  Those rows span, so the AND has
at most one bit, the limit vertex's generator mask (``fid``); a face of
the cut goes to the face whose tight-row mask (``by_active``) is the AND of
those of its vertices' limits.  With none, the limit leaves the polytope,
the vertex's normal cone lies in no vertex cone of the original (the fan
does not refine), and the round is rejected, as is a cut that is not prime.
Both are functions of the signature, so checking both rounds changes no eps.

The blow-up's figure, the slice of a cone at a level c, is charted once, on
the direction lattice of the cutting hyperplane: its vertices scaled by the
least m that puts a lattice point on the scaled hyperplane are read off one
integer frame, and the chart is scaled back by 1/m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import and_

from .errors import (
    EmptyPolyhedronError,
    EpsilonUnstableError,
    InvariantViolation,
    NotFullDimensionalError,
    UnboundedError,
)
from .lattice import (
    _require_length,
    as_rat,
    dot,
    homogenized_frame,
    lattice_vector,
    primitive,
)
from .polytope import FaceLattice, Polytope, _bits, hull_of_canonical

ROUNDS = 12  # halvings of eps before prime_cut gives up


@dataclass(frozen=True)
class CutEntry:
    """One face to shave: its supporting functional, base value, cascade
    order, and width (the functional's maximum over the polytope minus base)."""

    face_id: int
    functional: tuple[int, ...]
    base: Fraction
    order: int
    width: Fraction


@dataclass(frozen=True)
class CutSpec:
    entries: tuple[CutEntry, ...]


@dataclass(frozen=True)
class CutResult:
    """The prime cut polytope with its limit face map.

    ``face_map`` sends face ids of the cut polytope to face ids of the
    original; ``spec`` records the functionals used (the cut is canonical
    only relative to this choice); ``history`` holds one (eps, reason) per
    rejected eps, largest first: the rejected round's error message, or
    "unstable signature" when the round at eps/2 was rejected or differed.
    """

    polytope: Polytope
    face_map: dict
    epsilon: Fraction
    spec: CutSpec
    history: tuple = ()


def choose_cut_functionals(p: Polytope) -> CutSpec:
    """Select the faces with non-simplicial dual cone and a functional for each.

    The functional is the sum of the primitive inner normals of the facets
    through the face, which lies in the relative interior of the dual cone,
    so its minimum face on the polytope is exactly the selected face.  Each
    of those facet rows is tight on the face, so the minimum (``base``) is
    the sum of their right-hand sides.  The width, which every round's depth
    scales, is taken here once.
    """
    if not p.is_compact:
        raise UnboundedError("prime cutting needs a compact polytope")
    lattice = p.face_lattice()
    entries = []
    for f in lattice.faces:
        if len(f.active) <= f.codim:
            continue
        v = tuple(sum(p.rows[j][0][i] for j in f.active) for i in range(p.n))
        base = Fraction(sum(p.rows[j][1] for j in f.active))
        entries.append(CutEntry(f.id, v, base, f.dim + 1, lattice.maximum(v) - base))
    return CutSpec(tuple(entries))


def _round_base(p: Polytope, lattice: FaceLattice, spec: CutSpec):
    """What every round shares, in ints: (own, cuts).  ``own`` maps p's
    canonical rows, in row order, to their (label bit, depth-0 mask); each
    of ``cuts`` is (functional, its gcd, base, width, order, depth-0 mask)
    of one cut entry, base and width as (numerator, denominator) pairs.

    The depth-0 mask is the bitmask of the vertices of p where the row's
    normal is least, read off p's lattice by label: row j of p gives facet
    j's vertices, and entry e, whose functional lies in the relative
    interior of the normal cone of face e.face_id, that face's vertices.
    """
    own = {row: (1 << j, rg) for j, (row, rg) in enumerate(zip(p.rows, lattice.row_gens))}
    cuts = [(e.functional, gcd(*e.functional), (e.base.numerator, e.base.denominator),
             (e.width.numerator, e.width.denominator), e.order, lattice.vertex_mask(e.face_id))
            for e in spec.entries]
    return own, cuts


def _labeled_rows(base, eps: Fraction):
    """The rows of the round at eps in canonical form, each with its
    (label bit, depth-0 mask): a dict in row order, p's rows first, from
    the ``_round_base`` of p.

    Cut entry e is the row <e.functional, x> >= base + width * eps^order.
    With eps = en / ed, its right-hand side is num / den for den =
    lcm(base_den, width_den * ed^order) and num = base_num * (den /
    base_den) + width_num * en^order * (den / (width_den * ed^order)), so
    (functional * den, num) divided by the gcd of its entries is the
    row's primitive integer form, the one ``normalize_row`` gives.  Raises
    ValueError when a cut row collides with another row.
    """
    own, cuts = base
    labels = dict(own)
    en, ed = eps.numerator, eps.denominator
    for functional, g, (bn, bd), (wn, wd), order, mask in cuts:
        q = wd * ed ** order
        den = lcm(bd, q)
        num = bn * (den // bd) + wn * en ** order * (den // q)
        h = gcd(den * g, num)
        canon = tuple(x * den // h for x in functional), num // h
        if canon in labels:
            raise ValueError("cut row collides with another row")
        labels[canon] = (1 << len(labels), mask)
    return labels


def _cut_once(p: Polytope, base, eps: Fraction):
    """Decide one round at eps on the hull's integers; returns (labels,
    stage, signature), stage being the round's ``hull_of_canonical``
    result on the rows of ``_labeled_rows``, sorted.

    Raises ValueError when a cut row collides with another row, the cut is
    not full-dimensional, not prime, or its fan does not refine p's (each a
    signal to shrink eps).
    """
    labels = _labeled_rows(base, eps)
    rows = sorted(labels)
    try:
        stage = hull_of_canonical(p.n, rows, p)
    except NotFullDimensionalError:
        raise ValueError("cut polytope is not full-dimensional") from None
    n, cons, hull, tight, facets = stage
    # the cut is compact, so every hull ray is a vertex; prime: each on n facets
    fbits = sum(1 << i for i in facets)
    if any((z & fbits).bit_count() != n for z in tight):
        raise ValueError("cut is not prime")
    row_labels = {i: labels[rows[i]] for i in facets}

    signature = set()
    for z in tight:
        label, limit = 0, -1
        for i in _bits(z & fbits):
            bit, mask = row_labels[i]
            label |= bit
            limit &= mask
        if not limit:
            raise ValueError("fan does not refine")
        signature.add(label)
    return labels, stage, frozenset(signature)


def _build_cut(p: Polytope, lattice: FaceLattice, labels, stage):
    """The cut polytope of a round decided by ``_cut_once``, with its limit face map."""
    q = Polytope.from_hull(*stage)
    qlat = q.face_lattice()
    masks = [labels[row][1] for row in q.rows]

    # the rows of p tight at the limit of each vertex of q, in vertex order:
    # those of the vertex of p whose generator mask is the AND of its rows'
    tight_at_limit = [lattice._active[lattice.fid[reduce(and_, (masks[j] for j in vf.active))]]
                      for vf in qlat.of_dim(0)]

    # a row of p is tight at a face's limit barycenter iff tight at each vertex limit
    face_map = {f.id: lattice.by_active[reduce(and_, (tight_at_limit[i] for i in f.vertex_ids))]
                for f in qlat.faces}
    return q, face_map


def prime_cut(p: Polytope, epsilon=Fraction(1, 8)) -> CutResult:
    """Shave the polytope into a prime one, with the limit face map.

    The round at eps is accepted when the round at eps/2 has the same
    signature; a rejected or differing round halves eps, and the half round
    decided for the comparison opens the next one, so each eps is decided
    once, and each rejected eps goes into the result's history with its
    reason.  Only the accepted round's polytope is built.  Raises
    EpsilonUnstableError after ROUNDS halvings.
    """
    lattice = p.face_lattice()
    spec = choose_cut_functionals(p)
    eps = as_rat(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if not spec.entries:
        return CutResult(p, {f.id: f.id for f in lattice.faces}, eps, spec)
    base = _round_base(p, lattice, spec)

    def round_at(e):
        """(round, None), or (None, the reason the round at e is rejected)."""
        try:
            return _cut_once(p, base, e), None
        except (ValueError, EmptyPolyhedronError) as exc:
            return None, str(exc)

    this, why = round_at(eps)
    history = []
    for _ in range(ROUNDS):
        half, half_why = round_at(eps / 2)
        if this and half and this[2] == half[2]:
            q, face_map = _build_cut(p, lattice, *this[:2])
            return CutResult(q, face_map, eps, spec, tuple(history))
        history.append((eps, why or "unstable signature"))
        this, why, eps = half, half_why, eps / 2
    raise EpsilonUnstableError(f"epsilon unstable after {ROUNDS} halvings")


@dataclass(frozen=True)
class BlowupResult:
    """Data of the single-vertex toric blow-up of a cone.

    ``figure`` is the compact slice of the cone at the cutting level, the
    exceptional facet of the truncated cone, charted on the direction
    lattice of the cutting hyperplane; ``face_map`` matches each face of the
    figure with the cone face of one dimension higher that it spans.
    """

    figure: Polytope
    face_map: dict


def vertex_blowup(p: Polytope, v, c) -> BlowupResult:
    """Truncate a cone with vertex at the origin along <., v> = c.

    ``v`` must pair strictly positively with every ray (the interior of the
    dual cone); the slice is then a compact polytope of one dimension less
    whose faces correspond to the positive-dimensional faces of the cone.

    The figure is charted in ints on the direction lattice of the
    hyperplane, the same at every level.  For c = a / b, the hyperplane
    <., v> = m c holds a lattice point when m c is a multiple of gcd(v), so
    the least such m gives m c = k = lcm(a, gcd(v)), and m = k b / a.  The
    points k r / <r, v>, one on each ray r, are the integer points
    (k r, <r, v>) homogenized.  The frame is ``homogenized_frame`` of those
    points, and each figure vertex's primitive (y, m t) is the frame's chart
    (y, t) of its point (``AffineLatticeFrame.chart``) scaled by 1/m.  So the
    figure at level c is a translate of c times the figure at level 1.
    """
    if not p.is_cone_with_vertex or p.homogenized[0] != (0,) * p.n + (1,):
        raise ValueError("need a cone with vertex at the origin")
    v = _require_length(lattice_vector(v), p.n)
    c = as_rat(c)
    if c <= 0:
        raise ValueError("cutting level must be positive")
    for r in p.rays:
        if dot(r, v) <= 0:
            raise ValueError("not interior to dual cone")
    k = lcm(c.numerator, gcd(*v))
    m = k * c.denominator // c.numerator
    ws = [(*(k * x for x in r), dot(r, v)) for r in p.rays]
    frame = homogenized_frame(ws)
    gens = [primitive((*y, m * t)) for *y, t in map(frame.chart, ws)]
    figure = Polytope.from_homogenized(gens)
    if figure.n != p.n - 1:
        raise InvariantViolation("compact figure has the wrong dimension")

    # each figure vertex's bit in the cone's generator masks, found by its
    # primitive (y, t) as the figure keeps it: the apex is bit 0, ray k 1 + k
    ray_of_coord = {w: i for i, w in enumerate(gens)}
    bit = [2 << ray_of_coord[w] for w in figure.homogenized]

    plat = p.face_lattice()
    figlat = figure.face_lattice()
    face_map = {}
    for f in figlat.faces:
        target = plat.fid.get(1 | sum(bit[i] for i in f.vertex_ids))
        if target is None or plat.faces[target].dim != f.dim + 1:
            raise InvariantViolation("figure faces do not match the cone faces")
        face_map[f.id] = target
    if len(face_map) != len(plat.faces) - 1:
        raise InvariantViolation("figure faces do not exhaust the cone faces")
    return BlowupResult(figure, face_map)
