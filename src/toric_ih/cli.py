"""Command line surface: file formats, subcommands and reports.

Reports are trees of JSON primitives with every number exact (integers stay
integers, non-integral rationals become "p/q" strings), so the machine format
round-trips losslessly and the text format renders the same values.  Face
ordering in every report follows the canonical face-lattice order, keeping
outputs diff-stable.

Exit codes: 0 success, 1 input or usage error, 2 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import counting, cutting, fixtures, hypersurface, identities, stalks
from .errors import InvariantViolation, ParseError, ToricError, UnsupportedShapeError
from .lattice import as_rat
from .polytope import Polytope, is_prime, is_smooth_cone, normal_fan
from .hypersurface import MonomialSupport


# ---------------------------------------------------------------------------
# Input files.

def _tokens(path):
    """Yield (line_number, tokens) for non-empty, non-comment lines."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line.split()


# Integers and p/q only: Fraction(str) also reads exponent, decimal and
# underscore forms, and "1e2000000" would build a two-million-digit integer.
_NUMBER = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)


def _exact(tok):
    """The exact rational of an integer or 'p/q' token (or of a number given as such)."""
    if isinstance(tok, str) and not _NUMBER.fullmatch(tok):
        raise ValueError(f"not an integer or p/q: {tok!r}")
    return as_rat(tok)


def _parse_value(tok, lineno):
    try:
        return _exact(tok)
    except (ValueError, ZeroDivisionError, TypeError):
        raise ParseError(f"bad number {tok!r}", lineno)


def _rational_option(args, name, default):
    """The exact value of a rational command-line option."""
    tok = getattr(args, name, default)
    try:
        return _exact(tok)
    except (ValueError, ZeroDivisionError, TypeError):
        raise ParseError(f"bad --{name} value {tok!r}")


def parse_input(path):
    """Parse a `vrep`, `hrep` or `support` file.

    Formats are line oriented with '#' comments; entries are integers or
    'p/q' rationals (support files take integers only).  Returns a Polytope
    for vrep/hrep and a MonomialSupport for support files.
    """
    lines = list(_tokens(path))
    if not lines:
        raise ParseError("empty file: missing header")
    lineno, head = lines[0]
    if (len(head) != 2 or head[0] not in ("vrep", "hrep", "support")
            or not (head[1].isascii() and head[1].isdigit())):
        raise ParseError("malformed header: want 'vrep N', 'hrep N' or 'support N'", lineno)
    kind, n = head[0], int(head[1])
    if n <= 0:
        raise ParseError("ambient rank must be positive", lineno)
    body = lines[1:]
    if not body:
        raise ParseError("empty body", lineno)

    if kind == "support":
        pts = []
        for lineno, toks in body:
            if len(toks) != n:
                raise ParseError(f"expected {n} entries, got {len(toks)}", lineno)
            row = [_parse_value(t, lineno) for t in toks]
            if any(x.denominator != 1 for x in row):
                raise ParseError("support points must be lattice points", lineno)
            pts.append(tuple(int(x) for x in row))
        return MonomialSupport.of(pts)

    if kind == "hrep":
        rows = []
        for lineno, toks in body:
            if len(toks) != n + 1:
                raise ParseError(f"expected {n + 1} entries, got {len(toks)}", lineno)
            vals = [_parse_value(t, lineno) for t in toks]
            a, b = tuple(vals[:n]), vals[n]
            if not any(a):
                raise ParseError("zero row", lineno)
            rows.append((a, b))
        return Polytope.from_inequalities(rows)

    verts, rays = [], []
    in_rays = False
    for lineno, toks in body:
        if toks == ["rays"]:
            if in_rays:
                raise ParseError("duplicate rays section", lineno)
            in_rays = True
            continue
        want = n
        if len(toks) != want:
            raise ParseError(f"expected {want} entries, got {len(toks)}", lineno)
        vals = [_parse_value(t, lineno) for t in toks]
        if in_rays:
            if any(x.denominator != 1 for x in vals):
                raise ParseError("rays must be lattice vectors", lineno)
            rays.append(tuple(int(x) for x in vals))
        else:
            verts.append(tuple(vals))
    if not verts:
        raise ParseError("empty body: no vertices", lines[0][0])
    return Polytope.from_points(verts, rays=rays)


# ---------------------------------------------------------------------------
# Report values.

def fmt_q(x):
    x = as_rat(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fmt_vec(v):
    return " ".join(str(fmt_q(c)) for c in v)


def section(title, items=None, table=None):
    out = {"title": title}
    if items is not None:
        out["items"] = [[k, v] for k, v in items]
    if table is not None:
        out["columns"], out["rows"] = table
    return out


def render_text(report) -> str:
    lines = [f"{report['command']} report" + (f" for {report['input']}" if report.get("input") else "")]
    for sec in report["sections"]:
        lines.append("")
        lines.append(f"== {sec['title']} ==")
        for k, v in sec.get("items", []):
            lines.append(f"{k}: {v}")
        if "columns" in sec:
            rows = [sec["columns"]] + [[str(c) for c in r] for r in sec["rows"]]
            widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
            for r in rows:
                lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def render(report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=False) + "\n"
    return render_text(report)


# ---------------------------------------------------------------------------
# Subcommand report builders.

def _require_polytope(obj):
    if isinstance(obj, MonomialSupport):
        return hypersurface.newton_polytope(obj)
    return obj


def _face_row(lat, f):
    return [f.id, f.dim, f.codim,
            ",".join(map(str, f.vertex_ids)), ",".join(map(str, f.ray_ids)),
            ",".join(map(str, f.active))]


def report_faces(obj, args):
    p = _require_polytope(obj)
    lat = p.face_lattice()
    secs = [
        section("polytope", items=[
            ("ambient rank", p.n),
            ("vertices", len(p.vertices)),
            ("rays", len(p.rays)),
            ("facets", len(p.rows)),
            ("compact", p.is_compact),
        ]),
        section("vertices", table=(["id", "coordinates"],
                                   [[i, fmt_vec(v)] for i, v in enumerate(p.vertices)])),
        section("f-vector", items=[(f"dim {d}", c) for d, c in enumerate(lat.f_vector)]),
        section("faces", table=(["id", "dim", "codim", "vertex ids", "ray ids", "tight rows"],
                                [_face_row(lat, f) for f in lat.faces])),
    ]
    return secs


def report_fan(obj, args):
    p = _require_polytope(obj)
    fan = normal_fan(p)
    rows = []
    for c in fan.cones:
        rows.append([c.face_id, c.dim,
                     "; ".join(fmt_vec(r) for r in c.rays),
                     is_smooth_cone(c.rays) if c.rays else True])
    return [
        section("dual fan", items=[("prime (simplicial dual fan)", is_prime(p)),
                                   ("cones", len(fan.cones))]),
        section("cones", table=(["face", "dim", "rays", "smooth"], rows)),
    ]


def report_stalks(obj, args):
    p = _require_polytope(obj)
    lat = p.face_lattice()
    ms = stalks.stalk_polynomials(lat)
    rows = [[f.id, f.dim, f.codim, repr(ms[f.id])] for f in lat.faces]
    entries = [[e.face_id, e.degree, e.rank, e.twist] for e in stalks.stalk_table(lat)]
    return [
        section("stalk polynomials", table=(["face", "dim", "codim", "m(t)"], rows)),
        section("stalk table", table=(["face", "degree", "rank", "twist"], entries)),
    ]


def report_ih(obj, args):
    p = _require_polytope(obj)
    lat = p.face_lattice()
    h = stalks.global_ih_class(lat)
    betti = stalks.ih_betti_numbers(lat)
    return [
        section("intersection cohomology", items=[
            ("class", repr(h)),
            ("betti", " ".join(map(str, betti))),
            ("palindromic", h.is_palindromic(lat.n)),
            ("unimodal to middle", h.is_unimodal_to_middle(lat.n)),
        ]),
    ]


def report_ehrhart(obj, args):
    p = _require_polytope(obj)
    rep = counting.count_report(p)
    cone = counting.cone_over_polytope(p)
    kmax = min(3, p.n) if p.n else 3
    slices = [[k, cone.slice_count(k),
               fmt_q(counting.ehrhart_eval(rep.ehrhart_coeffs, k))] for k in range(kmax + 1)]
    return [
        section("counts per face", table=(["face", "dim", "points", "interior points"],
                                          [list(r) for r in rep.per_face])),
        section("ehrhart", items=[
            ("values k=0..n", " ".join(map(str, rep.ehrhart_values))),
            ("coefficients", " ".join(str(fmt_q(c)) for c in rep.ehrhart_coeffs)),
            ("skeleton points", rep.skeleton),
            ("reciprocity k<=3", counting.reciprocity_check(p, kmax=3)),
        ]),
        section("cone grading slices", table=(["grade", "points", "L(k)"], slices)),
    ]


def report_hypersurface(obj, args):
    p = _require_polytope(obj)
    lat = p.face_lattice()
    components = getattr(args, "components", 1)
    genus = hypersurface.geometric_genus_count(p)
    frontier = hypersurface.frontier_hodge(p, lat, components=components)
    table = hypersurface.high_weight_table(p.n) if p.n >= 2 else None
    secs = [
        section("newton polytope", items=[
            ("dimension", p.n),
            ("vertices", len(p.homogenized)),
            ("lattice points", counting.face_counts(lat)[0][0]),
            ("interior points", genus),
            ("skeleton points", counting.skeleton_count(lat)),
        ]),
        section("middle cohomology frontier", table=(
            ["p", "h_c value"], [[k, frontier[k]] for k in sorted(frontier, reverse=True)])),
        section("geometric genus", items=[("interior count", genus)]),
    ]
    if table is not None:
        secs.append(section("high weight table", table=(
            ["degree", "p", "q", "value"], [list(e) for e in table.entries])))
    if isinstance(obj, MonomialSupport):
        on_face = hypersurface.support_by_face(obj, lat)
        rows = [[f.id, f.dim, len(on_face[f.id])] for f in lat.faces]
        secs.append(section("support by face", table=(["face", "dim", "monomials"], rows)))
    if p.n == 2:
        e = hypersurface.curve_e_polynomial(p, components=components)
        secs.append(section("curve class", items=[
            ("E(u,v)", repr(e)),
            ("euler characteristic", e(1, 1)),
        ]))
    return secs


def report_prime_cut(obj, args):
    p = _require_polytope(obj)
    lat = p.face_lattice()
    eps = _rational_option(args, "epsilon", Fraction(1, 8))
    result = cutting.prime_cut(p, epsilon=eps)
    cut_lat = result.polytope.face_lattice()
    mult = hypersurface.prime_cut_multipliers(result, lat, cut_lat)
    spec_rows = [[e.face_id, fmt_vec(e.functional), fmt_q(e.base), e.order]
                 for e in result.spec.entries]
    pi_rows = [[t.id, t.dim, result.face_map[t.id], lat.faces[result.face_map[t.id]].dim]
               for t in cut_lat.faces]
    return [
        section("cut specification", items=[("epsilon", fmt_q(result.epsilon)),
                                            ("faces cut", len(result.spec.entries))],
                table=(["face", "functional", "base", "order"], spec_rows)),
        section("cut polytope", items=[
            ("vertices", len(result.polytope.homogenized)),
            ("facets", len(result.polytope.rows)),
            ("prime", is_prime(result.polytope)),
        ]),
        section("eps history", items=[("rejected", len(result.history))],
                table=(["epsilon", "reason"],
                       [[fmt_q(e), why] for e, why in result.history])),
        section("face map", table=(["cut face", "dim", "image face", "image dim"], pi_rows)),
        section("multipliers", table=(["face", "dim", "multiplier in L"],
                                      [[f.id, f.dim, repr(mult[f.id])] for f in lat.faces])),
    ]


def report_blowup(obj, args):
    p = identities.at_apex(_require_polytope(obj))
    if getattr(args, "direction", None):
        v = tuple(int(t) for t in args.direction.split(","))
    else:
        v = identities.facet_normal_sum(p)
    c = _rational_option(args, "level", 1)
    result = cutting.vertex_blowup(p, v, c)
    lat = p.face_lattice()
    fig_lat = result.figure.face_lattice()
    ih, ihc = stalks.punctured_cone_classes(lat)
    summands = stalks.decomposition_summands(lat)
    return [
        section("blowup", items=[
            ("direction", fmt_vec(v)),
            ("level", fmt_q(c)),
            ("figure f-vector", " ".join(map(str, fig_lat.f_vector))),
            ("figure class", repr(stalks.global_ih_class(fig_lat))),
        ]),
        section("punctured cone", items=[("ih", repr(ih)), ("ih_c", repr(ihc))]),
        section("summands", table=(["degree", "rank", "twist"],
                                   [list(e) for e in summands.entries])),
        section("face correspondence", table=(
            ["figure face", "dim", "cone face", "dim"],
            [[f.id, f.dim, result.face_map[f.id], lat.faces[result.face_map[f.id]].dim]
             for f in fig_lat.faces])),
    ]


def report_check(obj, args):
    """The identity tables over the bundled fixtures (and the input file's polytope)."""
    compact, cones = fixtures.standard_fixtures(), fixtures.cone_fixtures()
    if obj is not None:
        p = _require_polytope(obj)
        if not (p.is_compact or p.is_cone_with_vertex):
            raise UnsupportedShapeError(
                "unsupported shape: need a compact polytope or a cone with a vertex")
        (compact if p.is_compact else cones)["input"] = p
    cut = {name: compact[name] for name in ("square-pyramid", "octahedron")}
    runs = [(identities.COMPACT, compact), (identities.CONES, cones), (identities.PRIME_CUT, cut)]
    rows = [row for table, inputs in runs for name, p in inputs.items()
            for row in identities.evaluate(table, name, p)]
    ok = all(result == "pass" for _, result in rows)
    return [
        section("consistency checks", items=[("all passed", ok)],
                table=(["check", "result"], rows)),
    ], ok


# ---------------------------------------------------------------------------
# Driver.

_COMMANDS = {
    "faces": (report_faces, "face lattice summary"),
    "fan": (report_fan, "dual fan and simpliciality"),
    "stalks": (report_stalks, "local stalk polynomials and ranks"),
    "ih": (report_ih, "global intersection cohomology"),
    "ehrhart": (report_ehrhart, "lattice counts, Ehrhart polynomial, reciprocity"),
    "hypersurface": (report_hypersurface, "Newton polytope hypersurface invariants"),
    "prime-cut": (report_prime_cut, "prime cutting with face map and multipliers"),
    "blowup": (report_blowup, "single-vertex blow-up of a cone"),
    "check": (report_check, "run all consistency identities"),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _build_parser():
    parser = _Parser(prog="toric-ih", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        if name == "check":
            sp.add_argument("file", nargs="?", help="optional extra input file")
        else:
            sp.add_argument("file", help="vrep/hrep/support input file")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--out", help="write the report to this path")
        if name == "hypersurface":
            sp.add_argument("--components", type=int, default=1,
                            help="component count override for degenerate supports")
        if name == "prime-cut":
            sp.add_argument("--epsilon", default="1/8", help="initial shave depth (rational)")
        if name == "blowup":
            sp.add_argument("--direction", help="cocharacter 'a,b,...' interior to the dual cone")
            sp.add_argument("--level", default="1",
                            help="cutting level c (positive rational); the figure is charted on"
                                 " the cutting hyperplane's direction lattice, so at level c it"
                                 " is a translate of c times the level-1 figure")
    return parser


def run(argv=None):
    """Execute one subcommand; returns (exit_code, report or None)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise _UsageError(parser.format_usage())
        obj = None
        if getattr(args, "file", None):
            obj = parse_input(args.file)
        builder = _COMMANDS[args.command][0]
        if args.command == "check":
            sections, ok = builder(obj, args)
            code = 0 if ok else 2
        else:
            sections = builder(obj, args)
            code = 0
        report = {"command": args.command,
                  "input": getattr(args, "file", None),
                  "sections": sections}
        text = render(report, args.format)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code, report
    except _UsageError as exc:
        sys.stderr.write(str(exc).rstrip() + "\n")
        return 1, None
    except InvariantViolation as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return 2, None
    except (ParseError, ToricError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1, None


def main(argv=None):
    return run(argv)[0]


if __name__ == "__main__":
    sys.exit(main())
