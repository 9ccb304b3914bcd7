"""Face-lattice oracle: the original Fraction rank, closure search, smoothness
test and prime-cut vertex limits.

``fraction_rank`` row reduces over Q with ``Fraction`` entries.
``oracle_faces`` finds the faces by a closure search over frozensets of
tight generators and takes each face's dimension as the rank of its vertex
differences and rays.  ``oracle_is_smooth_cone`` expresses the rays in a
lattice basis of their span and takes a determinant.
``vertex_normal_cone_contains`` tests one direction against one vertex's
normal cone by pairing it with every vertex.  ``vertex_limits_by_solving``
builds one prime-cut round with the library's hull, picks rows with its
rank, and follows each vertex of the cut to eps = 0 by solving those rows
at depth zero.  Apart from these, none of this shares code with the
integer routines in ``toric_ih.lattice`` and ``toric_ih.polytope``; it is
the reference for their differential tests.
"""

from __future__ import annotations

from fractions import Fraction

from toric_ih.errors import InvariantViolation, NotFullDimensionalError
from toric_ih.lattice import (
    as_rat,
    det_int,
    dot,
    mat_rank,
    pairing,
    primitive,
    solve_consistent,
    solve_integer_system,
    vsub,
)
from toric_ih.polytope import Face, Polytope, normalize_row


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


def vertex_normal_cone_contains(p: Polytope, vertex_face: Face, w) -> bool:
    """Is w in the dual cone of a vertex? (<., w> is minimized over p there)."""
    v = p.vertices[vertex_face.vertex_ids[0]]
    val = pairing(v, w)
    if any(pairing(u, w) < val for u in p.vertices):
        return False
    return all(dot(r, w) >= 0 for r in p.rays)


def vertex_limits_by_solving(p, lattice, spec, eps):
    """One prime-cut round, each vertex limit re-solved over Q at depth zero.

    Builds the cut as ``cutting._cut_once`` does and returns the same
    (polytope, face lattice, labels, face map), or raises the same
    ValueError.  A vertex of the cut is followed to eps = 0 by solving n
    independent rows of its active set with the shave depths set to zero;
    the solution must lie in p, and its tight rows of p name its face.
    """
    rows = list(p.rows)
    label_of = {row: ("row", row) for row in p.rows}
    for e in spec.entries:
        width = max(pairing(x, e.functional) for x in p.vertices) - e.base
        rhs = e.base + width * eps ** e.order
        rows.append((e.functional, rhs))
        label_of[normalize_row(e.functional, rhs)] = ("cut", e)
    if len(label_of) < len(rows):
        raise ValueError("cut row collides with another row")
    try:
        q = Polytope.from_inequalities(rows)
    except NotFullDimensionalError:
        raise ValueError("cut polytope is not full-dimensional") from None
    qlat = q.face_lattice()
    tight_of = {}  # the rows of p tight at each limit point met so far
    tight_at_limit = {}
    for vf in qlat.of_dim(0):
        chosen, rhs = [], []
        for j in vf.active:
            kind, data = label_of[q.rows[j]]
            normal = data[0] if kind == "row" else data.functional
            if mat_rank(chosen + [normal]) > len(chosen):
                chosen.append(normal)
                rhs.append(Fraction(data[1]) if kind == "row" else data.base)
            if len(chosen) == p.n:
                break
        w0 = solve_consistent(chosen, rhs) if len(chosen) == p.n else None
        if w0 not in tight_of:
            if w0 is None or not p.contains(w0):
                raise ValueError("vertex limit escaped the polytope")
            tight_of[w0] = frozenset(j for j, (a, b) in enumerate(p.rows) if dot(a, w0) == b)
        tight_at_limit[vf.vertex_ids[0]] = tight_of[w0]
    face_map = {f.id: lattice.by_active[frozenset.intersection(
                    *(tight_at_limit[i] for i in f.vertex_ids))].id
                for f in qlat.faces}
    labels = {f.id: frozenset(label_of[q.rows[j]] for j in f.active) for f in qlat.faces}
    return q, qlat, labels, face_map
