"""Golden reports: every subcommand's output stays byte-identical.

For each subcommand, each `standard_fixtures()` and `cone_fixtures()` entry
written as a vrep and as an hrep file, and each output format, the table
``golden_reports.json`` holds the sha256 of the exit code, stdout and stderr
of one CLI run.  A change that alters any report, error message or exit code
fails here.  After an intended change of output, rewrite the rows of the
named subcommands (all rows when none is named) with

    PYTHONPATH=src python tests/test_golden_reports.py --write [COMMAND ...]
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from toric_ih import fixtures
from toric_ih.cli import _COMMANDS, fmt_vec, main

TABLE = Path(__file__).with_name("golden_reports.json")
FORMATS = ("text", "json")


def _inputs():
    """{file name: file text} for every fixture as vrep and hrep."""
    out = {}
    for name, p in {**fixtures.standard_fixtures(), **fixtures.cone_fixtures()}.items():
        vrep = [f"vrep {p.n}"] + [fmt_vec(v) for v in p.vertices]
        if p.rays:
            vrep += ["rays"] + [fmt_vec(r) for r in p.rays]
        hrep = [f"hrep {p.n}"] + [fmt_vec(tuple(a) + (b,)) for a, b in p.rows]
        out[f"{name}.vrep"] = "\n".join(vrep) + "\n"
        out[f"{name}.hrep"] = "\n".join(hrep) + "\n"
    return out


def _digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = json.dumps({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return hashlib.sha256(blob.encode()).hexdigest()


def command_digests(command, directory):
    """{"command/file/format": sha256} over the fixture files in directory."""
    old = os.getcwd()
    os.chdir(directory)
    try:
        out = {}
        for fname, text in _inputs().items():
            Path(fname).write_text(text)
            for fmt in FORMATS:
                out[f"{command}/{fname}/{fmt}"] = _digest([command, fname, "--format", fmt])
        return out
    finally:
        os.chdir(old)


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_reports_match_golden_table(command, tmp_path):
    want = {k: v for k, v in json.loads(TABLE.read_text()).items()
            if k.startswith(command + "/")}
    got = command_digests(command, tmp_path)
    assert want, "no golden entries for this command"
    changed = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not changed, f"{len(changed)} reports differ: {changed[:10]}"


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:2] != ["--write"] or not set(sys.argv[2:]) <= set(_COMMANDS):
        sys.exit("usage: test_golden_reports.py --write [COMMAND ...]")
    commands = sys.argv[2:] or list(_COMMANDS)
    table = json.loads(TABLE.read_text()) if sys.argv[2:] else {}
    with tempfile.TemporaryDirectory() as tmp:
        for command in commands:
            table = {k: v for k, v in table.items() if not k.startswith(command + "/")}
            table.update(command_digests(command, tmp))
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests for {', '.join(commands)} to {TABLE}")
