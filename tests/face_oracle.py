"""Face-lattice oracle: the original Fraction rank, closure search, smoothness
test and prime-cut vertex limits.

``fraction_rank`` row reduces over Q with ``Fraction`` entries.
``oracle_row_gens`` pairs each facet row with the vertices scaled to a
common denominator and with the rays: the incidence path the face lattice
took for polytopes the hull did not build, before every polytope came out
of the hull.  ``oracle_faces`` finds the faces by a closure search over
frozensets of tight generators and takes each face's dimension as the rank
of its vertex differences and rays.  ``oracle_is_smooth_cone`` expresses the rays in a
lattice basis of their span and takes a determinant.
``oracle_normal_fan`` takes the rank of each face's active normals afresh
with ``mat_rank``, and ``oracle_euler_relation_check`` sums (-1)^codim over
each face's ``faces_above`` records.
``vertex_normal_cone_contains`` tests one direction against one vertex's
normal cone by pairing it with every vertex.  ``cut_rows`` gives a prime-cut
round's shave rows from widths found by pairing.  ``vertex_limits_by_solving``
builds one prime-cut round with the library's hull, checks primality and
fan refinement with those cone tests, picks rows with ``fraction_rank``, and
follows each vertex of the cut to eps = 0 by solving those rows at depth
zero; the face map looks up the AND of the limits' tight-row masks in the
lattice's ``by_active``.  ``oracle_face_support`` tests each support point
with the ``Fraction`` ``Polytope.contains``, then pairs it with each active
row of the face.  Apart from these, none of this shares code with the
integer routines in ``toric_ih.lattice`` and ``toric_ih.polytope``; it is
the reference for their differential tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from operator import and_

from toric_ih.errors import InvariantViolation, NotFullDimensionalError
from toric_ih.lattice import (
    as_rat,
    det_int,
    dot,
    mat_rank,
    pairing,
    primitive,
    solve_integer_system,
)
from toric_ih.hypersurface import MonomialSupport
from toric_ih.polytope import Face, Fan, FanCone, Polytope, normalize_row

from chart_oracle import solve_consistent, vsub


def fraction_rank(rows) -> int:
    """Rank over Q by Gauss-Jordan elimination on Fractions."""
    m = [[as_rat(c) for c in r] for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def oracle_row_gens(p):
    """The generator bitmask of each row of p (vertex i is bit i, ray k bit
    nv + k) from pairings: <a, V> = b * den at the vertices V scaled by their
    common denominator den, and <a, r> = 0 at the rays."""
    den = lcm(*(c.denominator for v in p.vertices for c in v))
    scaled = [tuple(int(c * den) for c in v) for v in p.vertices]
    nv = len(scaled)
    return [sum(1 << i for i, v in enumerate(scaled) if dot(a, v) == b * den)
            | sum(1 << (nv + k) for k, r in enumerate(p.rays) if not dot(a, r))
            for a, b in p.rows]


def oracle_faces(p):
    """The faces of a polytope as ``Face`` records, in canonical face order."""
    nv, nr, nrow = len(p.vertices), len(p.rays), len(p.rows)
    vsets = [frozenset(i for i in range(nv) if dot(a, p.vertices[i]) == b) for a, b in p.rows]
    rsets = [frozenset(k for k in range(nr) if dot(a, p.rays[k]) == 0) for a, _ in p.rows]

    def close(vs, rs):
        act = frozenset(j for j in range(nrow) if vs <= vsets[j] and rs <= rsets[j])
        cvs, crs = set(range(nv)), set(range(nr))
        for j in act:
            cvs &= vsets[j]
            crs &= rsets[j]
        return act, frozenset(cvs), frozenset(crs)

    top = close(frozenset(range(nv)), frozenset(range(nr)))
    found = {top[0]: top}
    queue = [top]
    while queue:
        act, vs, rs = queue.pop()
        for j in range(nrow):
            if j in act:
                continue
            nvs = vs & vsets[j]
            if not nvs:
                continue
            cand = close(nvs, rs & rsets[j])
            if cand[0] not in found:
                found[cand[0]] = cand
                queue.append(cand)

    def fdim(vs, rs):
        vv = [p.vertices[i] for i in sorted(vs)]
        dirs = [vsub(v, vv[0]) for v in vv[1:]]
        dirs += [tuple(map(Fraction, p.rays[k])) for k in sorted(rs)]
        return fraction_rank(dirs)

    entries = sorted((fdim(vs, rs), tuple(sorted(vs)), tuple(sorted(rs)), tuple(sorted(act)))
                     for act, vs, rs in found.values())
    top_entry = max(entries, key=lambda e: e[0])
    if top_entry[0] != p.n:
        raise InvariantViolation("face enumeration lost the top face")
    entries.remove(top_entry)
    return tuple(Face(i, d, p.n - d, act, vs, rs)
                 for i, (d, vs, rs, act) in enumerate([top_entry] + entries))


def oracle_is_smooth_cone(rays) -> bool:
    """Simplicial, and the rays' coordinates in a lattice basis of their span have |det| = 1."""
    rr = [primitive(r) for r in rays]
    if not rr:
        return True
    d = fraction_rank(rr)
    if len(rr) != d:
        return False
    n = len(rr[0])
    if d == n:
        return abs(det_int([list(r) for r in rr])) == 1
    _, normals = solve_integer_system([list(r) for r in rr])
    _, span_basis = solve_integer_system([list(c) for c in normals])
    cols = [[Fraction(b[i]) for b in span_basis] for i in range(n)]
    coords = []
    for r in rr:
        y = solve_consistent(cols, list(r))
        coords.append([int(c) for c in y])
    return abs(det_int(coords)) == 1


def oracle_normal_fan(p) -> Fan:
    """The dual fan, each cone's dimension checked by a rank of its own."""
    cones = []
    for f in p.face_lattice().faces:
        rays = tuple(sorted(p.rows[j][0] for j in f.active))
        if mat_rank([list(r) for r in rays]) != f.codim:
            raise InvariantViolation("dual cone dimension differs from face codimension")
        cones.append(FanCone(f.id, f.codim, rays))
    return Fan(tuple(cones))


def oracle_euler_relation_check(lattice):
    """(all_ok, violations) of the Euler relation, summed over Face records."""
    violations = []
    for f in lattice.faces:
        if f.codim == 0:
            continue
        s = sum((-1) ** g.codim for g in lattice.faces_above(f.id, strict=False))
        if s != 0:
            violations.append((f.id, s))
    return not violations, tuple(violations)


def vertex_normal_cone_contains(p: Polytope, vertex_face: Face, w) -> bool:
    """Is w in the dual cone of a vertex? (<., w> is minimized over p there)."""
    v = p.vertices[vertex_face.vertex_ids[0]]
    val = pairing(v, w)
    if any(pairing(u, w) < val for u in p.vertices):
        return False
    return all(dot(r, w) >= 0 for r in p.rays)


def cut_rows(p, spec, eps):
    """The cut entries' rows at eps, each width read off the vertices by pairing."""
    return [(e.functional,
             e.base + (max(pairing(x, e.functional) for x in p.vertices) - e.base) * eps ** e.order)
            for e in spec.entries]


def vertex_limits_by_solving(p, lattice, spec, eps):
    """One prime-cut round, each vertex limit re-solved over Q at depth zero.

    Builds the cut as ``cutting._cut_once`` does and returns the same
    (polytope, face map, signature), or raises the same ValueError after the
    same checks in the same order.  Primality is read off the vertices: each
    lies on exactly n rows.  The fan refines when, for each vertex of the
    cut, exactly one vertex cone of p holds all its rows' normals
    (``vertex_normal_cone_contains``).  A vertex of the cut is then followed
    to eps = 0 by solving n independent rows of its active set with the shave
    depths set to zero, and the solution's tight rows of p name its face.
    """
    rows = list(p.rows) + cut_rows(p, spec, eps)
    depth_zero = list(p.rows) + cut_rows(p, spec, 0)
    index_of = {normalize_row(a, b): i for i, (a, b) in enumerate(rows)}
    if len(index_of) < len(rows):
        raise ValueError("cut row collides with another row")
    try:
        q = Polytope.from_inequalities(rows)
    except NotFullDimensionalError:
        raise ValueError("cut polytope is not full-dimensional") from None
    qlat = q.face_lattice()
    if any(len(vf.active) != p.n for vf in qlat.of_dim(0)):
        raise ValueError("cut is not prime")
    cones = [frozenset(u.id for u in lattice.of_dim(0) if vertex_normal_cone_contains(p, u, a))
             for a, _ in q.rows]
    tight_of = {}  # the rows of p tight at each limit point met so far
    tight_at_limit = {}
    for vf in qlat.of_dim(0):
        if len(frozenset.intersection(*(cones[j] for j in vf.active))) != 1:
            raise ValueError("fan does not refine")
        chosen, rhs = [], []
        for j in vf.active:
            a, b = depth_zero[index_of[q.rows[j]]]
            if fraction_rank(chosen + [a]) > len(chosen):
                chosen.append(a)
                rhs.append(b)
        w0 = solve_consistent(chosen, rhs)
        if w0 not in tight_of:
            tight_of[w0] = sum(1 << j for j, (a, b) in enumerate(p.rows) if dot(a, w0) == b)
        tight_at_limit[vf.vertex_ids[0]] = tight_of[w0]
    face_map = {f.id: lattice.by_active[reduce(and_, (tight_at_limit[i] for i in f.vertex_ids))]
                for f in qlat.faces}
    # label bits: row j of p is bit j, cut entry k is bit len(p.rows) + k
    signature = frozenset((sum(1 << index_of[q.rows[j]] for j in f.active), face_map[f.id])
                          for f in qlat.faces)
    return q, face_map, signature


def oracle_face_support(support, lattice, face):
    """The support points on the face, each tested for containment and then
    paired with the face's active rows one at a time."""
    p = lattice.polytope
    pts = []
    for m in support.exponents:
        if not p.contains(m):
            raise ValueError("support point outside the polytope")
        if all(dot(p.rows[j][0], m) == p.rows[j][1] for j in face.active):
            pts.append(m)
    return MonomialSupport.of(pts)
