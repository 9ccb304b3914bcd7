import json
import re
import time

import pytest

from toric_ih import identities
from toric_ih.cli import fmt_vec, main, parse_input, render, run
from toric_ih.errors import ParseError
from toric_ih.fixtures import cone_fixtures
from toric_ih.hypersurface import MonomialSupport, newton_polytope
from toric_ih.polytope import Polytope

from face_oracle import oracle_face_support


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TRIANGLE = "vrep 2\n0 0\n3 0\n0 3\n"
TRIANGLE_H = "hrep 2\n1 0 0\n0 1 0\n-1 -1 -3\n"
OCTA = "vrep 3\n1 0 0\n-1 0 0\n0 1 0\n0 -1 0\n0 0 1\n0 0 -1\n"
SUPPORT = "support 2\n0 0\n3 0\n0 3\n1 1\n"
QUAD = "hrep 2\n1 0 0\n0 1 0\n"
PYR = "vrep 3\n1 1 0\n-1 1 0\n1 -1 0\n-1 -1 0\n0 0 1\n"


# -- parsing -------------------------------------------------------------------

def test_parse_vrep(tmp_path):
    p = parse_input(write(tmp_path, "t.vrep", TRIANGLE))
    assert isinstance(p, Polytope)
    assert len(p.vertices) == 3


def test_parse_hrep_matches_vrep(tmp_path):
    a = parse_input(write(tmp_path, "a.vrep", TRIANGLE))
    b = parse_input(write(tmp_path, "b.hrep", TRIANGLE_H))
    assert a == b


def test_parse_support(tmp_path):
    s = parse_input(write(tmp_path, "s.support", SUPPORT))
    assert isinstance(s, MonomialSupport)
    assert len(s) == 4


def test_parse_rays_section(tmp_path):
    p = parse_input(write(tmp_path, "c.vrep", "vrep 2\n0 0\nrays\n1 0\n0 1\n"))
    assert p.rays == ((0, 1), (1, 0))


def test_parse_comments_and_rationals(tmp_path):
    text = "# a half-integral square\nvrep 2\n0 0\n1/2 0  # vertex\n0 1/2\n1/2 1/2\n"
    p = parse_input(write(tmp_path, "q.vrep", text))
    assert len(p.vertices) == 4


def test_parse_malformed_header(tmp_path):
    with pytest.raises(ParseError, match="line 1.*header"):
        parse_input(write(tmp_path, "x.vrep", "polytope 2\n0 0\n"))


@pytest.mark.parametrize("rank", ["\u00b2", "\u0662"], ids=["superscript-two", "arabic-indic-two"])
def test_non_ascii_digit_rank_is_a_malformed_header(tmp_path, capsys, rank):
    # str.isdigit() takes both; int() rejects the first and reads the second as 2
    path = write(tmp_path, "x.vrep", f"vrep {rank}\n0 0\n1 0\n0 1\n")
    with pytest.raises(ParseError, match="line 1: malformed header"):
        parse_input(path)
    assert run(["faces", path]) == (1, None)
    assert capsys.readouterr().err.startswith("error: line 1: malformed header")


def test_parse_wrong_arity(tmp_path):
    with pytest.raises(ParseError, match="line 3.*expected 2"):
        parse_input(write(tmp_path, "x.vrep", "vrep 2\n0 0\n1 2 3\n"))


def test_parse_zero_row(tmp_path):
    with pytest.raises(ParseError, match="line 2.*zero row"):
        parse_input(write(tmp_path, "x.hrep", "hrep 2\n0 0 0\n1 0 0\n"))


def test_parse_empty_body(tmp_path):
    with pytest.raises(ParseError, match="empty body"):
        parse_input(write(tmp_path, "x.vrep", "vrep 2\n"))


def test_parse_bad_number(tmp_path):
    with pytest.raises(ParseError, match="line 2.*bad number"):
        parse_input(write(tmp_path, "x.vrep", "vrep 2\n0 zero\n1 1\n"))


@pytest.mark.parametrize("token", ["1e2000000", "1E3", "1_000", "0.5", "1/2.0"])
def test_only_integers_and_fractions_parse(tmp_path, capsys, token):
    # Fraction(str) takes each of these, and 1e2000000 as a two-million-digit integer
    path = write(tmp_path, "x.vrep", f"vrep 2\n0 0\n{token} 0\n0 1\n")
    start = time.perf_counter()
    assert main(["faces", path]) == 1
    assert time.perf_counter() - start < 1
    assert re.match(r"error: line 3: bad number", capsys.readouterr().err)


# -- subcommands ----------------------------------------------------------------

def find_section(report, title):
    return next(s for s in report["sections"] if s["title"] == title)


def item(section, key):
    return dict((k, v) for k, v in section["items"])[key]


def test_stalks_on_triangle(tmp_path, capsys):
    code, report = run(["stalks", write(tmp_path, "t.vrep", TRIANGLE)])
    assert code == 0
    sec = find_section(report, "stalk polynomials")
    assert all(row[3] == "1" for row in sec["rows"])


def test_ih_on_octahedron(tmp_path):
    code, report = run(["ih", write(tmp_path, "o.vrep", OCTA)])
    assert code == 0
    sec = find_section(report, "intersection cohomology")
    assert item(sec, "betti") == "1 0 5 0 5 0 1"
    assert item(sec, "palindromic") is True


def test_hypersurface_on_support(tmp_path):
    code, report = run(["hypersurface", write(tmp_path, "s.support", SUPPORT)])
    assert code == 0
    front = find_section(report, "middle cohomology frontier")
    assert front["rows"] == [[1, 1], [0, 8]]
    genus = find_section(report, "geometric genus")
    assert item(genus, "interior count") == 1
    hw = find_section(report, "high weight table")
    assert hw["rows"] == [[2, 1, 1, 1]]
    curve = find_section(report, "curve class")
    assert item(curve, "euler characteristic") == -9
    # the triangle's three vertices and interior point: all four on the top
    # face (id 0), one on each vertex, two on each edge
    by_face = find_section(report, "support by face")
    assert by_face["rows"] == ([[0, 2, 4]] + [[i, 0, 1] for i in (1, 2, 3)]
                               + [[i, 1, 2] for i in (4, 5, 6)])


def test_hypersurface_support_by_face_matches_fraction_oracle(tmp_path):
    # points inside edges and facets too; each face's count against the
    # per-face Fraction route
    for text in ("support 2\n0 0\n3 0\n0 3\n1 1\n1 0\n2 1\n",
                 "support 3\n0 0 0\n2 0 0\n0 2 0\n0 0 2\n1 0 0\n1 1 0\n0 1 1\n1 0 1\n"):
        path = write(tmp_path, "s.support", text)
        code, report = run(["hypersurface", path])
        assert code == 0
        support = parse_input(path)
        lat = newton_polytope(support).face_lattice()
        want = [[f.id, f.dim, len(oracle_face_support(support, lat, f).exponents)]
                for f in lat.faces]
        assert find_section(report, "support by face")["rows"] == want


def test_hypersurface_rejects_a_component_count_below_one(tmp_path, capsys):
    path = write(tmp_path, "tri3.vrep", TRIANGLE)
    for components in ("0", "-3"):
        assert run(["hypersurface", path, "--components", components]) == (1, None)
        assert "component count must be at least 1" in capsys.readouterr().err
    code, report = run(["hypersurface", path, "--components", "2"])
    assert code == 0
    assert find_section(report, "middle cohomology frontier")["rows"] == [[1, 1], [0, 7]]


def test_faces_and_fan(tmp_path):
    code, report = run(["faces", write(tmp_path, "o.vrep", OCTA)])
    assert code == 0
    fv = find_section(report, "f-vector")
    assert [v for _, v in fv["items"]] == [6, 12, 8, 1]
    code, report = run(["fan", write(tmp_path, "o.vrep", OCTA)])
    assert code == 0
    assert item(find_section(report, "dual fan"), "prime (simplicial dual fan)") is False


def test_ehrhart_command(tmp_path):
    code, report = run(["ehrhart", write(tmp_path, "t.vrep", TRIANGLE)])
    assert code == 0
    sec = find_section(report, "ehrhart")
    assert item(sec, "values k=0..n") == "1 10 28"
    assert item(sec, "reciprocity k<=3") is True
    slices = find_section(report, "cone grading slices")
    assert [row[1] for row in slices["rows"]] == [1, 10, 28]


def test_prime_cut_command(tmp_path):
    code, report = run(["prime-cut", write(tmp_path, "p.vrep", PYR)])
    assert code == 0
    sec = find_section(report, "cut polytope")
    assert item(sec, "prime") is True
    assert item(sec, "vertices") == 8


def test_prime_cut_from_a_coarse_epsilon(tmp_path):
    # an exception escaping run() fails this test before the exit code is read
    assert main(["prime-cut", write(tmp_path, "o.vrep", OCTA), "--epsilon", "1/2"]) in (0, 1)


@pytest.mark.parametrize("command, option, file, text", [
    ("prime-cut", "--epsilon", "t.vrep", TRIANGLE), ("blowup", "--level", "q.hrep", QUAD)])
@pytest.mark.parametrize("value", ["1/0", "x", "0.5", "1e-3"])
def test_bad_rational_option_exits_one(tmp_path, capsys, command, option, file, text, value):
    path = write(tmp_path, file, text)
    assert main([command, path, option, value]) == 1
    assert f"bad {option} value" in capsys.readouterr().err


def test_blowup_command(tmp_path):
    code, report = run(["blowup", write(tmp_path, "q.hrep", QUAD)])
    assert code == 0
    sec = find_section(report, "summands")
    assert sec["rows"] == [[2, 1, -1]]


def test_blowup_flags(tmp_path):
    code, report = run(["blowup", write(tmp_path, "q.hrep", QUAD),
                        "--direction", "1,2", "--level", "2/3"])
    assert code == 0
    assert item(find_section(report, "blowup"), "level") == "2/3"


@pytest.mark.parametrize("level", ["1/3", "3/2"])
def test_blowup_report_at_a_rational_level_matches_level_one(tmp_path, level):
    # the figure at level c is a translate of c times the level-1 figure, so
    # apart from the level item the reports agree
    for name, p in cone_fixtures().items():
        text = "\n".join([f"vrep {p.n}"] + [fmt_vec(v) for v in p.vertices]
                         + ["rays"] + [fmt_vec(r) for r in p.rays]) + "\n"
        path = write(tmp_path, f"{name}.vrep", text)
        reports = []
        for c in ("1", level):
            code, report = run(["blowup", path, "--level", c])
            assert code == 0
            sec = find_section(report, "blowup")
            assert str(item(sec, "level")) == c
            sec["items"] = [kv for kv in sec["items"] if kv[0] != "level"]
            reports.append(report)
        assert reports[0] == reports[1], name


@pytest.mark.parametrize("direction", ["1,1", "1,1,1,1"])
def test_blowup_wrong_length_direction_exits_one(tmp_path, capsys, direction):
    octant = write(tmp_path, "o.hrep", "hrep 3\n1 0 0 0\n0 1 0 0\n0 0 1 0\n")
    code, report = run(["blowup", octant, "--direction", direction])
    assert (code, report) == (1, None)
    n = direction.count(",") + 1
    assert f"error: vector of length {n} in ambient dimension 3" in capsys.readouterr().err


def test_json_round_trip(tmp_path):
    code, report = run(["ih", write(tmp_path, "o.vrep", OCTA), "--format", "json"])
    assert code == 0
    assert json.loads(render(report, "json")) == report


def test_out_file(tmp_path):
    out = tmp_path / "report.json"
    code, report = run(["ih", write(tmp_path, "o.vrep", OCTA),
                        "--format", "json", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text()) == report


def test_unknown_command_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_no_command_exits_one(capsys):
    assert main([]) == 1


def test_missing_file_exits_one(capsys):
    assert main(["faces", "/nonexistent/file.vrep"]) == 1


def test_not_pointed_vrep_exits_one(tmp_path, capsys):
    path = write(tmp_path, "halfplane.vrep", "vrep 2\n0 0\nrays\n1 0\n-1 0\n0 1\n")
    assert main(["faces", path]) == 1
    assert "not pointed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["faces", "prime-cut"])
def test_lower_dimensional_hrep_exits_one(tmp_path, capsys, command):
    # x = 0, 0 <= y <= 1: a segment in the plane
    path = write(tmp_path, "seg.hrep", "hrep 2\n1 0 0\n-1 0 0\n0 1 0\n0 -1 -1\n")
    assert main([command, path]) == 1
    assert "not full-dimensional" in capsys.readouterr().err


def test_parse_error_exits_one(tmp_path, capsys):
    path = write(tmp_path, "bad.vrep", "vrep 2\n0\n")
    assert main(["faces", path]) == 1
    assert "line 2" in capsys.readouterr().err


def test_check_command(tmp_path, capsys):
    code, report = run(["check"])
    assert code == 0
    sec = find_section(report, "consistency checks")
    assert item(sec, "all passed") is True
    assert all(row[1] == "pass" for row in sec["rows"])


def test_check_with_extra_input(tmp_path):
    code, report = run(["check", write(tmp_path, "t.vrep", TRIANGLE)])
    assert code == 0
    sec = find_section(report, "consistency checks")
    assert any(row[0].startswith("input:") for row in sec["rows"])


def test_stalks_golden_octahedron(tmp_path):
    # diff-stable golden: canonical face ordering makes this reproducible
    code, report = run(["stalks", write(tmp_path, "o.vrep", OCTA)])
    assert code == 0
    polys = find_section(report, "stalk polynomials")
    assert polys["rows"][0] == [0, 3, 0, "1"]
    assert polys["rows"][1:7] == [[i, 0, 3, "1 + t"] for i in range(1, 7)]
    assert all(row[3] == "1" for row in polys["rows"][7:])
    table = find_section(report, "stalk table")
    vertex_entries = [r for r in table["rows"] if 1 <= r[0] <= 6]
    assert vertex_entries == sum(([[i, 0, 1, 0], [i, 2, 1, -1]]
                                  for i in range(1, 7)), [])


def test_check_with_cone_input(tmp_path):
    path = write(tmp_path, "cone.vrep", "vrep 2\n0 0\nrays\n1 0\n0 1\n")
    code, report = run(["check", path])
    assert code == 0
    sec = find_section(report, "consistency checks")
    assert any(row[0] == "input: punctured duality" for row in sec["rows"])


def test_check_with_translated_cone_input(tmp_path):
    path = write(tmp_path, "cone.vrep", "vrep 2\n1 1\nrays\n1 0\n1 2\n")
    code, report = run(["check", path])
    assert code == 0
    sec = find_section(report, "consistency checks")
    assert ["input: summand symmetry", "pass"] in sec["rows"]


def test_check_with_support_input_checks_its_newton_polytope(tmp_path):
    path = write(tmp_path, "s.support", SUPPORT)
    code, report = run(["check", path])
    assert code == 0
    sec = find_section(report, "consistency checks")
    newton = newton_polytope(parse_input(path))
    rows = identities.evaluate(identities.COMPACT, "input", newton)
    assert rows and all(result == "pass" for _, result in rows)
    assert [r for r in sec["rows"] if r[0].startswith("input:")] == rows


def test_check_rejects_an_unbounded_input_that_is_no_cone(tmp_path, capsys):
    # a half-strip: two vertices and a ray, neither compact nor a cone with a vertex
    path = write(tmp_path, "strip.vrep", "vrep 2\n0 0\n1 0\nrays\n0 1\n")
    assert main(["check", path]) == 1
    assert "unsupported shape" in capsys.readouterr().err


def test_check_fails_on_wrong_summand_table(monkeypatch):
    from toric_ih import stalks

    def wrong(lat, n=None):
        return stalks.SummandTable(lat.n, ((0, 1, 0),))

    monkeypatch.setattr(stalks, "decomposition_summands", wrong)
    code, report = run(["check"])
    assert code == 2
    sec = find_section(report, "consistency checks")
    assert item(sec, "all passed") is False
    assert ["quadrant: summand symmetry", "FAIL"] in sec["rows"]


def test_check_reports_an_identity_that_raises(monkeypatch):
    from toric_ih import hypersurface
    from toric_ih.errors import InvariantViolation

    euler = hypersurface.euler_relation_check

    def broken(lat):
        if lat.n == 3:
            raise InvariantViolation("broken on purpose")
        return euler(lat)

    monkeypatch.setattr(hypersurface, "euler_relation_check", broken)
    code, report = run(["check"])
    assert code == 2
    sec = find_section(report, "consistency checks")
    assert item(sec, "all passed") is False
    error = "ERROR: InvariantViolation: broken on purpose"
    assert ["cube: euler relation", error] in sec["rows"]
    assert ["cube: alternating identity", "pass"] in sec["rows"]
    assert ["square: euler relation", "pass"] in sec["rows"]
    assert ["octahedron: prime cut is prime", "pass"] in sec["rows"]
    errors = [r for r in sec["rows"] if r[1] != "pass"]
    assert errors and all(r[1] == error and r[0].endswith(": euler relation") for r in errors)


def test_check_reports_a_failing_euler_relation(monkeypatch):
    # face 1 of the cube, a vertex, loses the top face from its up-set
    # bitmask: its alternating sum reads -1, and only the cube's lattice
    # is corrupted
    from toric_ih import hypersurface
    from toric_ih.fixtures import cube
    from toric_ih.polytope import FaceLattice

    from face_oracle import oracle_euler_relation_check

    above, memo, target = FaceLattice.__dict__["_above"].func, {}, cube(3)

    def corrupted(lat):
        if lat not in memo:
            memo[lat] = above(lat)
            if lat.polytope == target:
                memo[lat][1] &= ~1
        return memo[lat]

    monkeypatch.setattr(FaceLattice, "_above", property(corrupted))
    lat = cube(3).face_lattice()
    assert lat.faces[1].dim == 0
    assert (hypersurface.euler_relation_check(lat) == oracle_euler_relation_check(lat)
            == (False, ((1, -1),)))
    code, report = run(["check"])
    assert code == 2
    sec = find_section(report, "consistency checks")
    assert item(sec, "all passed") is False
    assert ["cube: euler relation", "FAIL"] in sec["rows"]
    assert ["square: euler relation", "pass"] in sec["rows"]


def test_text_rendering_is_stable(tmp_path, capsys):
    path = write(tmp_path, "o.vrep", OCTA)
    code1, _ = run(["ih", path])
    first = capsys.readouterr().out
    code2, _ = run(["ih", path])
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second
    assert "1 0 5 0 5 0 1" in first


def test_blowup_on_translated_cone(tmp_path):
    moved = run(["blowup", write(tmp_path, "m.vrep", "vrep 2\n1 1\nrays\n1 0\n1 2\n")])
    origin = run(["blowup", write(tmp_path, "o.vrep", "vrep 2\n0 0\nrays\n1 0\n1 2\n")])
    assert moved[0] == origin[0] == 0
    for title in ("blowup", "summands", "face correspondence"):
        assert find_section(moved[1], title) == find_section(origin[1], title)


def test_check_fails_on_wrong_edge_count(monkeypatch):
    from toric_ih import counting

    classify = counting._classify

    def wrong(lat):
        inner = classify(lat)
        if lat.n >= 2:
            inner[lat.of_dim(1)[0].id] += 1
        return inner

    monkeypatch.setattr(counting, "_classify", wrong)
    code, report = run(["check"])
    assert code == 2
    sec = find_section(report, "consistency checks")
    assert item(sec, "all passed") is False
    assert ["square: skeleton decomposition", "FAIL"] in sec["rows"]
    assert ["square: frontier crosscheck", "FAIL"] in sec["rows"]


def test_check_fails_on_wrong_top_frontier_number(monkeypatch):
    from toric_ih import hypersurface

    frontier_hodge = hypersurface.frontier_hodge

    def wrong(p, lattice=None, components=1):
        out = frontier_hodge(p, lattice, components)
        out[p.n - 1] += 1
        return out

    monkeypatch.setattr(hypersurface, "frontier_hodge", wrong)
    code, report = run(["check"])
    assert code == 2
    rows = dict(map(tuple, find_section(report, "consistency checks")["rows"]))
    crosschecks = [r for label, r in rows.items() if label.endswith(": frontier crosscheck")]
    skeletons = [r for label, r in rows.items() if label.endswith(": skeleton decomposition")]
    assert crosschecks and set(crosschecks) == {"FAIL"}
    assert skeletons and set(skeletons) == {"pass"}


def test_check_fails_on_an_uncut_prime_cut(monkeypatch):
    # a cut that leaves the polytope as it is, with the identity face map:
    # the non-simple inputs of the prime-cut table are then not prime
    from toric_ih import cutting

    def uncut(p, lattice, labels, stage):
        return p, {f.id: f.id for f in lattice.faces}

    monkeypatch.setattr(cutting, "_build_cut", uncut)
    code, report = run(["check"])
    assert code == 2
    sec = find_section(report, "consistency checks")
    assert item(sec, "all passed") is False
    assert ["square-pyramid: prime cut is prime", "FAIL"] in sec["rows"]
    assert ["octahedron: prime cut is prime", "FAIL"] in sec["rows"]


def test_identities_read_is_prime_at_call_time(monkeypatch):
    # the prime rows look is_prime up through polytope when they run
    from toric_ih import polytope
    from toric_ih.fixtures import simplex

    p = simplex(2)
    rows = dict(map(tuple, identities.evaluate(identities.PRIME_CUT, "s", p)))
    assert rows == {"s: prime cut is prime": "pass"}
    monkeypatch.setattr(polytope, "is_prime", lambda q: False)
    rows = dict(map(tuple, identities.evaluate(identities.PRIME_CUT + identities.COMPACT, "s", p)))
    assert rows["s: prime cut is prime"] == "FAIL"
    assert "s: prime has trivial stalks" not in rows and "s: h-polynomial oracle" not in rows


@pytest.mark.parametrize("s", [300, 3000])
def test_big_triangle_counts(tmp_path, s):
    path = write(tmp_path, "t.vrep", f"vrep 2\n0 0\n{s} 0\n0 {s}\n")
    points, interior = (s + 1) * (s + 2) // 2, (s - 1) * (s - 2) // 2
    code, report = run(["ehrhart", path])
    assert code == 0
    sec = find_section(report, "ehrhart")
    assert item(sec, "values k=0..n").split()[:2] == ["1", str(points)]
    assert item(sec, "skeleton points") == 3 * s
    assert item(sec, "reciprocity k<=3") is True
    top = find_section(report, "counts per face")["rows"][0]
    assert top == [0, 2, points, interior]
    code, report = run(["hypersurface", path])
    assert code == 0
    sec = find_section(report, "newton polytope")
    assert item(sec, "lattice points") == points
    assert item(sec, "interior points") == interior
    assert item(sec, "skeleton points") == 3 * s
