"""The four benchmark workloads: seeded inputs, jobs, output checks and counters.

A job is one input pushed through the public calls that one command line
subcommand's report builder makes (``toric_ih.cli.report_*``), in the same
order; the ``hull`` workload's job is the parse step alone, in both
directions.  Every job builds its ``Polytope`` inside its timed region from
plain coordinate tuples or inequality rows, so the memos on ``Polytope`` and
``FaceLattice`` are shared inside one job, as for a command line user, and
never across jobs or passes.

Inputs are plain data (tuples of ints, Fractions and strings).  Named
fixtures do not depend on the seed.  The "seeded" polytopes come from a
fixed pool of random lattice point clouds, drawn once from a constant pool
seed; ``--seed`` translates each of them by a random lattice vector.  A
translation keeps the face lattice, the prime cut and every lattice-point
and bounding-box count, so the work of a pass does not depend on the seed
while the coordinates the program sees do.  (Signed coordinate permutations
would keep the counts too, but not the work: ``prime_cut`` accepts a
different eps for some permuted copies of the same polytope.)

Why each workload, the layer predicted to dominate it, and the inputs left
out for run length (timings before any optimisation, Python 3.11 on 2 cores):

- ``hull``: ``Polytope.from_points`` then ``Polytope.from_inequalities`` on
  the result's rows.  Subset enumeration is nearly all of the time and both
  directions run, so a gain on V->H that costs H->V shows.  Dominant layer:
  the polytope hull.  Left out: ``cube(5)`` (V->H about 31 s) and
  ``cross_polytope(5)`` (H->V about 22 s).
- ``faces``: the ``faces`` (plus the Euler relation), ``fan``, ``stalks``
  and ``ih`` subcommands, ``blowup`` instead of ``ih`` on cones.  The face
  lattice, fan and stalk recursion do most of the work; the hull is cheap
  and nothing is counted.  Dominant layers: face lattice, fan and stalks.
  Left out: ``cube(6)`` (729 faces; its four jobs take about 4 s) and
  ``cross_polytope(5)`` (243 faces; about 1.4 s).
- ``counting``: the ``ehrhart`` and ``hypersurface`` subcommands.  A box
  scan with ``Fraction`` membership is nearly all of the time; triangles
  leave about half their box empty, ``simplex(3, 4)`` about five sixths and
  ``cube(3, 2)`` none, so ``counting.hit_ratio`` separates the inputs that
  fiber counting would help most.  Dominant layers: counting and
  hypersurface.  Left out: the side-40 triangle (``ehrhart`` about 1.8 s),
  the side-300 triangle (``count_report`` about 32 s) and the side-3000
  triangle (does not finish).
- ``prime-cut``: the ``prime-cut`` subcommand.  Many small H->V calls on
  rational rows whose denominators grow as eps halves, with eps retries,
  plus one prime polygon that takes the no-cut path.  Dominant layer:
  cutting.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, prod
from typing import NamedTuple

from toric_ih import (
    Polytope,
    TatePoly,
    cone_over_polytope,
    count_report,
    curve_e_polynomial,
    decomposition_summands,
    ehrhart_eval,
    euler_relation_check,
    frontier_hodge,
    geometric_genus_count,
    global_ih_class,
    h_polynomial_from_f_vector,
    high_weight_table,
    ih_betti_numbers,
    is_prime,
    is_smooth_cone,
    lattice_points,
    normal_fan,
    prime_cut,
    prime_cut_multipliers,
    primitive,
    punctured_cone_classes,
    reciprocity_check,
    skeleton_count,
    stalk_polynomials,
    stalk_table,
    vertex_blowup,
)
from toric_ih.fixtures import LATTICE_POLYGONS
from toric_ih.lattice import mat_rank

WORKLOADS = ("hull", "faces", "counting", "prime-cut")
EPSILON = Fraction(1, 8)


class Job(NamedTuple):
    """One input and the subcommand whose calls it goes through.

    ``source`` is ``("points", points, rays)`` or ``("rows", rows)``;
    ``expect`` holds closed-form expectations as ``(key, value)`` pairs.
    """

    name: str
    command: str
    source: tuple
    expect: tuple = ()


class CheckFailed(Exception):
    """A job's output disagrees with a closed form or an identity."""


# ---------------------------------------------------------------------------
# Plain-data inputs.

def _unit(d, i, s=1):
    return tuple(s if j == i else 0 for j in range(d))


def simplex_points(d, scale=1):
    return ((0,) * d,) + tuple(_unit(d, i, scale) for i in range(d))


def cube_points(d, side=1):
    return tuple(product((0, side), repeat=d))


def cube_rows(d):
    return (tuple((_unit(d, i), 0) for i in range(d))
            + tuple((_unit(d, i, -1), -1) for i in range(d)))


def cross_points(d):
    return tuple(_unit(d, i, s) for i in range(d) for s in (1, -1))


PYRAMID = ((1, 1, 0), (-1, 1, 0), (1, -1, 0), (-1, -1, 0), (0, 0, 1))
PRISM = tuple(v + (h,) for h in (0, 1) for v in simplex_points(2))


def points(pts, rays=()):
    return ("points", tuple(pts), tuple(rays))


def cone_over(pts):
    """Apex at the origin, one ray through each point placed at height one."""
    d = len(pts[0]) + 1
    return points([(0,) * d], [tuple(v) + (1,) for v in pts])


def cone_sources():
    """The cone fixtures of ``toric_ih.fixtures.cone_fixtures`` as raw data,
    with closed forms: the class of each cone's compact figure (the polytope
    it is a cone over) and, over a k-gon, the apex stalk 1 + (k-3)t."""
    out = [("quadrant", ("rows", cube_rows(2)[:2]), (("figure_class", (1, 1)),)),
           ("octant", ("rows", cube_rows(3)[:3]), (("figure_class", (1, 1, 1)),))]
    for k in range(3, 9):
        out.append((f"cone-{k}gon", cone_over(LATTICE_POLYGONS[k]),
                    (("figure_class", (1, k - 2, 1)), ("apex_stalk", (1, k - 3)))))
    out.append(("cone-cube", cone_over(cube_points(3)), (("figure_class", (1, 3, 3, 1)),)))
    out.append(("cone-octahedron", cone_over(cross_points(3)),
                (("figure_class", (1, 5, 5, 1)),)))
    return out


def _cloud(rng, d, n, bound):
    """n distinct lattice points in [-bound, bound]^d spanning R^d."""
    while True:
        pts = set()
        while len(pts) < n:
            pts.add(tuple(rng.randint(-bound, bound) for _ in range(d)))
        pts = sorted(pts)
        if mat_rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) == d:
            return tuple(pts)


def _pool(pool_seed, shapes):
    """Fixed random clouds, one per (d, n, bound) in shapes."""
    rng = random.Random(pool_seed)
    return [_cloud(rng, d, n, bound) for d, n, bound in shapes]


def _move(rng, pts):
    """The points translated by a random lattice vector."""
    shift = [rng.randint(-3, 3) for _ in pts[0]]
    return tuple(tuple(c + t for c, t in zip(p, shift)) for p in pts)


# Pool shapes were chosen so that one pass of each workload takes about a
# second or two on the seed commit; see the module docstring for the inputs
# left out for the same reason.
HULL_CLOUDS = ((3, 10, 2), (3, 12, 2), (3, 14, 2), (3, 16, 2), (4, 10, 1), (4, 10, 1))
FACES_POLYTOPES = ((4, 9, 2), (4, 9, 2))
COUNTING_POLYTOPES = ((2, 6, 3), (2, 6, 3), (3, 6, 1))
CUT_POLYTOPES = ((3, 7, 2),) * 4
POOL_SEEDS = {"hull": 11, "faces": 12, "counting": 13, "prime-cut": 14}
POOL_SHAPES = {"hull": HULL_CLOUDS, "faces": FACES_POLYTOPES,
               "counting": COUNTING_POLYTOPES, "prime-cut": CUT_POLYTOPES}


def seeded_sources(workload, seed):
    """The workload's pool clouds, each translated by a vector drawn from seed."""
    rng = random.Random(seed)
    pool = _pool(POOL_SEEDS[workload], POOL_SHAPES[workload])
    return [(f"seeded-{len(c[0])}d-{len(c)}pt-{i}", points(_move(rng, c)))
            for i, c in enumerate(pool)]


def make_jobs(workload, seed):
    """The job list of one pass of the workload, as plain data."""
    if workload == "hull":
        named = []
        for d in range(2, 6):
            named.append((f"simplex({d})", points(simplex_points(d)),
                          (("vertices", d + 1), ("rays", 0), ("facets", d + 1))))
        for d in range(2, 5):
            named.append((f"cube({d})", points(cube_points(d)),
                          (("vertices", 2 ** d), ("rays", 0), ("facets", 2 * d))))
            named.append((f"cross_polytope({d})", points(cross_points(d)),
                          (("vertices", 2 * d), ("rays", 0), ("facets", 2 ** d))))
        named.append(("square-pyramid", points(PYRAMID),
                      (("vertices", 5), ("rays", 0), ("facets", 5))))
        named.append(("prism", points(PRISM), (("vertices", 6), ("rays", 0), ("facets", 5))))
        for k in range(3, 9):
            named.append((f"cone-{k}gon", cone_over(LATTICE_POLYGONS[k]),
                          (("vertices", 1), ("rays", k), ("facets", k))))
        inputs = named + [(n, s, ()) for n, s in seeded_sources(workload, seed)]
        return [Job(n, "hull", s, e) for n, s, e in inputs]

    if workload == "faces":
        inputs = []
        for d in range(3, 6):
            f_vector = tuple(comb(d, k) * 2 ** (d - k) for k in range(d + 1))
            h = tuple(comb(d, k) for k in range(d + 1))
            inputs.append((f"cube({d})", ("rows", cube_rows(d)),
                           (("f_vector", f_vector), ("prime", True), ("smooth", True),
                            ("class", h))))
        inputs.append(("octahedron", points(cross_points(3)),
                       (("prime", False), ("class", (1, 5, 5, 1)))))
        inputs.append(("square-pyramid", points(PYRAMID),
                       (("f_vector", (5, 8, 5, 1)), ("prime", False))))
        inputs.append(("prism", points(PRISM),
                       (("f_vector", (6, 9, 5, 1)), ("prime", True), ("smooth", True),
                        ("class", (1, 2, 2, 1)))))
        inputs += [(n, s, ()) for n, s in seeded_sources(workload, seed)]
        jobs = []
        for name, source, expect in inputs:
            for command in ("faces", "fan", "stalks", "ih"):
                jobs.append(Job(f"{name}/{command}", command, source, expect))
        for name, source, expect in cone_sources():
            for command in ("faces", "fan", "stalks", "blowup"):
                jobs.append(Job(f"{name}/{command}", command, source, expect))
        return jobs

    if workload == "counting":
        inputs = [("triangle-20", points(simplex_points(2, 20)), (("side", 20),)),
                  ("simplex(3,4)", points(simplex_points(3, 4)),
                   (("L1", 35), ("genus", 1))),
                  ("cube(3,2)", points(cube_points(3, 2)), (("L1", 27), ("genus", 1))),
                  ("octahedron", points(cross_points(3)), (("L1", 7), ("genus", 1)))]
        inputs += [(n, s, ()) for n, s in seeded_sources(workload, seed)]
        return [Job(f"{name}/{command}", command, source, expect)
                for name, source, expect in inputs
                for command in ("ehrhart", "hypersurface")]

    if workload == "prime-cut":
        inputs = [("square-pyramid", points(PYRAMID), ()),
                  ("octahedron", points(cross_points(3)), ()),
                  ("hexagon", points(LATTICE_POLYGONS[6]), (("bypass", True),))]
        inputs += [(n, s, ()) for n, s in seeded_sources(workload, seed)]
        return [Job(f"{name}/prime-cut", "prime-cut", source, expect)
                for name, source, expect in inputs]

    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def plain(obj):
    """True when obj holds only tuples, strings, ints, bools, Fractions and None,
    so that no ``toric_ih`` object can be shared through the job inputs."""
    if isinstance(obj, tuple):
        return all(plain(x) for x in obj)
    return obj is None or isinstance(obj, (str, int, Fraction))


# ---------------------------------------------------------------------------
# Jobs: the calls of one report builder, each through the tracer.

def _build(tr, source):
    if source[0] == "points":
        return tr.call("polytope.from_points", Polytope.from_points, source[1], source[2])
    return tr.call("polytope.from_inequalities", Polytope.from_inequalities, source[1])


def job_hull(tr, p):
    q = tr.call("polytope.from_inequalities", Polytope.from_inequalities, p.rows)
    return {"q": q}


def job_faces(tr, p):
    lat = tr.call("polytope.face_lattice", p.face_lattice)
    f_vector = lat.f_vector
    euler = tr.call("hypersurface.euler_relation_check", euler_relation_check, lat)
    return {"lat": lat, "f_vector": f_vector, "euler": euler}


def job_fan(tr, p):
    fan = tr.call("polytope.normal_fan", normal_fan, p)
    smooth = [tr.call("polytope.is_smooth_cone", is_smooth_cone, c.rays) if c.rays else True
              for c in fan.cones]
    prime = tr.call("polytope.is_prime", is_prime, p)
    return {"fan": fan, "prime": prime, "smooth": smooth}


def job_stalks(tr, p):
    lat = tr.call("polytope.face_lattice", p.face_lattice)
    ms = tr.call("stalks.stalk_polynomials", stalk_polynomials, lat)
    table = tr.call("stalks.stalk_table", stalk_table, lat)
    return {"lat": lat, "ms": ms, "table": table}


def job_ih(tr, p):
    lat = tr.call("polytope.face_lattice", p.face_lattice)
    h = tr.call("stalks.global_ih_class", global_ih_class, lat)
    betti = tr.call("stalks.ih_betti_numbers", ih_betti_numbers, lat)
    return {"lat": lat, "h": h, "betti": betti}


def job_blowup(tr, p):
    v = primitive(tuple(sum(a[i] for a, _ in p.rows) for i in range(p.n)))
    result = tr.call("cutting.vertex_blowup", vertex_blowup, p, v, 1)
    lat = tr.call("polytope.face_lattice", p.face_lattice)
    fig_lat = tr.call("polytope.face_lattice", result.figure.face_lattice)
    ih, ihc = tr.call("stalks.cone_classes", punctured_cone_classes, lat)
    summands = tr.call("stalks.cone_classes", decomposition_summands, lat)
    fig_h = tr.call("stalks.global_ih_class", global_ih_class, fig_lat)
    return {"result": result, "lat": lat, "fig_lat": fig_lat, "ih": ih, "ihc": ihc,
            "summands": summands, "fig_h": fig_h}


def job_ehrhart(tr, p):
    rep = tr.call("counting.count_report", count_report, p)
    cone = tr.call("counting.cone_over_polytope", cone_over_polytope, p)
    kmax = min(3, p.n) if p.n else 3
    slices = [(k, tr.call("counting.slice_count", cone.slice_count, k),
               tr.call("counting.ehrhart_eval", ehrhart_eval, rep.ehrhart_coeffs, k))
              for k in range(kmax + 1)]
    recip = tr.call("counting.reciprocity_check", reciprocity_check, p, kmax=3)
    return {"rep": rep, "slices": slices, "recip": recip}


def job_hypersurface(tr, p):
    lat = tr.call("polytope.face_lattice", p.face_lattice)
    genus = tr.call("hypersurface.geometric_genus_count", geometric_genus_count, p)
    frontier = tr.call("hypersurface.frontier_hodge", frontier_hodge, p, lat, components=1)
    table = tr.call("hypersurface.high_weight_table", high_weight_table, p.n)
    npoints = tr.call("counting.lattice_points", lattice_points, p)[0]
    skeleton = tr.call("counting.skeleton_count", skeleton_count, lat)
    e = (tr.call("hypersurface.curve_e_polynomial", curve_e_polynomial, p, components=1)
         if p.n == 2 else None)
    return {"genus": genus, "frontier": frontier, "table": table, "points": npoints,
            "skeleton": skeleton, "e": e}


def job_prime_cut(tr, p):
    lat = tr.call("polytope.face_lattice", p.face_lattice)
    result = tr.call("cutting.prime_cut", prime_cut, p, epsilon=EPSILON)
    cut_lat = tr.call("polytope.face_lattice", result.polytope.face_lattice)
    mult = tr.call("hypersurface.prime_cut_multipliers", prime_cut_multipliers,
                   result, lat, cut_lat)
    prime = tr.call("polytope.is_prime", is_prime, result.polytope)
    return {"lat": lat, "result": result, "cut_lat": cut_lat, "mult": mult, "prime": prime}


JOBS = {"hull": job_hull, "faces": job_faces, "fan": job_fan, "stalks": job_stalks,
        "ih": job_ih, "blowup": job_blowup, "ehrhart": job_ehrhart,
        "hypersurface": job_hypersurface, "prime-cut": job_prime_cut}


def run_job(tr, job):
    """Build the job's polytope and make its subcommand's calls; returns the outputs."""
    p = _build(tr, job.source)
    out = JOBS[job.command](tr, p)
    out["p"] = p
    return out


# ---------------------------------------------------------------------------
# Output checks, run outside the timed region.

def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _check_hull(job, out, expect):
    p, q = out["p"], out["q"]
    _require(q == p, "H->V of the V->H rows is not the same polytope")
    if expect:
        got = {"vertices": len(p.vertices), "rays": len(p.rays), "facets": len(p.rows)}
        _require(got == expect, f"counts {got} != {expect}")
    else:
        pts = job.source[1]
        _require(all(p.contains(x) for x in pts), "an input point lies outside the hull")
        _require(set(p.vertices) <= {tuple(map(Fraction, x)) for x in pts},
                 "a vertex is not an input point")


def _check_faces(job, out, expect):
    lat = out["lat"]
    _require(out["euler"][0], f"Euler relation fails at {out['euler'][1]}")
    if "f_vector" in expect:
        _require(out["f_vector"] == expect["f_vector"], f"f-vector {out['f_vector']}")
    if lat.is_compact:
        _require(sum((-1) ** f.dim for f in lat.faces) == 1, "Euler characteristic is not 1")


def _check_fan(job, out, expect):
    p = out["p"]
    _require(len(out["fan"].cones) == len(p.face_lattice().faces), "one cone per face")
    if "prime" in expect:
        _require(out["prime"] == expect["prime"], f"is_prime is {out['prime']}")
    if expect.get("smooth"):
        _require(all(out["smooth"]), "a cone of a smooth fan is not smooth")


def _check_stalks(job, out, expect):
    lat, ms = out["lat"], out["ms"]
    one = TatePoly.one()
    if is_prime(out["p"]):
        _require(all(m == one for m in ms.values()), "a prime polytope has a nontrivial stalk")
    if "apex_stalk" in expect:
        _require(ms[lat.cone_vertex_id] == TatePoly(expect["apex_stalk"]), "apex stalk")
    ranks = sum(e.rank for e in out["table"])
    _require(ranks == sum(sum(m.coeffs) for m in ms.values()), "stalk table ranks")


def _check_ih(job, out, expect):
    lat, h = out["lat"], out["h"]
    if "class" in expect:
        _require(h == TatePoly(expect["class"]), f"class {h}")
    if is_prime(out["p"]):
        _require(h == h_polynomial_from_f_vector(lat.f_vector), "h-polynomial oracle")
    _require(out["betti"][::2] == tuple(h.coeff(k) for k in range(lat.n + 1)), "betti numbers")


def _check_blowup(job, out, expect):
    lat, fig_lat, face_map = out["lat"], out["fig_lat"], out["result"].face_map
    _require(out["ih"] + out["ihc"] == TatePoly.zero(), "ih + ih_c != 0")
    _require(sorted(face_map) == [f.id for f in fig_lat.faces]
             and len(face_map) == len(lat.faces) - 1, "figure face map is not a bijection")
    _require(out["fig_h"] == TatePoly(expect["figure_class"]), f"figure class {out['fig_h']}")


def _check_ehrhart(job, out, expect):
    rep = out["rep"]
    _require(out["recip"], "Ehrhart reciprocity fails")
    for k, count, value in out["slices"]:
        _require(count == value, f"cone slice {k} has {count} points, L({k}) = {value}")
    for k, value in enumerate(rep.ehrhart_values):
        _require(ehrhart_eval(rep.ehrhart_coeffs, k) == value, f"Ehrhart polynomial at {k}")
    _require(rep.per_face[0][2] == rep.total, "top face count != L(1)")
    if "side" in expect:
        s = expect["side"]
        expect = {"L1": (s + 1) * (s + 2) // 2, "skeleton": 3 * s}
    if "L1" in expect:
        _require(rep.total == expect["L1"], f"L(1) = {rep.total}")
    if "skeleton" in expect:
        _require(rep.skeleton == expect["skeleton"], f"skeleton {rep.skeleton}")


def _check_hypersurface(job, out, expect):
    p, genus = out["p"], out["genus"]
    _require(out["frontier"][p.n - 1] == genus, "top frontier number != genus")
    _require(out["frontier"][0] == out["skeleton"] - 1, "frontier at p = 0")
    if "side" in expect:
        s = expect["side"]
        g, skel = (s - 1) * (s - 2) // 2, 3 * s
        _require((genus, out["skeleton"], out["points"]) == (g, skel, (s + 1) * (s + 2) // 2),
                 "triangle genus, skeleton or point count")
        _require(out["e"](1, 1) == 2 - 2 * g - skel, "curve Euler characteristic")
    if "genus" in expect:
        _require(genus == expect["genus"], f"genus {genus}")


def _check_prime_cut(job, out, expect):
    lat, cut_lat, result = out["lat"], out["cut_lat"], out["result"]
    _require(out["prime"], "the cut polytope is not prime")
    _require(sorted(result.face_map) == [f.id for f in cut_lat.faces], "face map is not total")
    _require(set(result.face_map.values()) == {f.id for f in lat.faces}, "face map misses a face")
    _require(sorted(out["mult"]) == [f.id for f in lat.faces], "multipliers per face")
    if expect.get("bypass"):
        _require(result.polytope is out["p"] and result.epsilon == EPSILON, "prime input was cut")
    else:
        _require(result.spec.entries and result.epsilon <= EPSILON, "non-prime input was not cut")


CHECKS = {"hull": _check_hull, "faces": _check_faces, "fan": _check_fan,
          "stalks": _check_stalks, "ih": _check_ih, "blowup": _check_blowup,
          "ehrhart": _check_ehrhart, "hypersurface": _check_hypersurface,
          "prime-cut": _check_prime_cut}


def check_job(job, out):
    """Raise CheckFailed when the job's outputs are wrong."""
    CHECKS[job.command](job, out, dict(job.expect))


# ---------------------------------------------------------------------------
# Work counters, derived from the traced calls of one job after it ends.

def _box_points(p, k):
    lo, hi = p.dilate(k).bounding_box()
    return prod(h - l + 1 for l, h in zip(lo, hi))


def job_counters(calls):
    """Work counts of one job from its ``(name, args, result)`` calls."""
    c = Counter()
    lattices, stalk_lattices = set(), set()
    for name, args, result in calls:
        c[name + ".calls"] += 1
        if name == "polytope.from_points":
            generators = len(set(args[0])) + len(set(args[1]))
            c["polytope.hull.subsets"] += comb(generators, result.n)
            c["polytope.hull.facets_out"] += len(result.rows)
        elif name == "polytope.from_inequalities":
            rows = len(set(args[0]))
            c["polytope.hull.subsets"] += comb(rows, result.n) + comb(rows, result.n - 1)
            c["polytope.hull.vertices_out"] += len(result.vertices) + len(result.rays)
        elif name == "polytope.face_lattice" and id(result) not in lattices:
            lattices.add(id(result))
            c["polytope.face_lattice.faces"] += len(result.faces)
        elif name.startswith("stalks.") and id(args[0]) not in stalk_lattices:
            lat = args[0]
            stalk_lattices.add(id(lat))
            c["stalks.interval_pairs"] += sum(len(lat.faces_above(f.id)) for f in lat.faces)
        elif name == "counting.count_report":
            p = args[0]
            c["counting.box_points"] += sum(_box_points(p, k) for k in range(1, p.n + 1))
            c["counting.points"] += sum(result.ehrhart_values[1:])
        elif name == "cutting.prime_cut":
            # log2(eps0 / eps) + 1, eps0 / eps being a power of two
            c["cutting.rounds"] += (EPSILON / result.epsilon).numerator.bit_length()
            c["cutting.cut_entries"] += len(result.spec.entries)
            c["cutting.cut_vertices"] += len(result.polytope.vertices)
    return c
