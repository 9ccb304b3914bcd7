"""Parser fuzzing: random token streams in .vrep/.hrep files through ``cli.run``
with the ``faces``, ``stalks``, ``ih``, ``prime-cut`` and ``blowup`` commands.

Every run must end in exit 0, or in exit 1 with a message on stderr; an
invariant violation (exit 2) or an uncaught exception fails the test.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings, strategies as st

from toric_ih.cli import run

NUMBERS = st.one_of(st.integers(-3, 3).map(str),
                    st.tuples(st.integers(-4, 4), st.integers(1, 3)).map("{0[0]}/{0[1]}".format))
JUNK = st.sampled_from(["rays", "vrep", "hrep", "#", "x", "1/", "/2", "1/0", "--1", "nan", "1.5",
                        "1e2000000", "1E3", "1_000", "0.5"])
HEADER = st.tuples(st.sampled_from(["vrep", "hrep"]), st.integers(1, 3).map(str))
JUNK_HEADER = st.lists(st.one_of(NUMBERS, JUNK, st.sampled_from(["support"])), max_size=3)


@st.composite
def input_files(draw):
    """(suffix, text): a header, then lines of numbers of the header's arity,
    in a vrep file perhaps followed by a rays section; a noisy file may have
    a junk header, lines of another arity and junk tokens."""
    noisy = draw(st.integers(0, 3)) == 0
    header = list(draw(st.one_of(HEADER, JUNK_HEADER) if noisy else HEADER))
    kind = header[0] if header and header[0] in ("vrep", "hrep") else "vrep"
    n = int(header[1]) if len(header) == 2 and header[1].isdigit() else 2
    width = n + (kind == "hrep")
    token = st.one_of(NUMBERS, NUMBERS, JUNK) if noisy else NUMBERS

    def body_line():
        size = draw(st.sampled_from([max(width - 1, 0), width, width + 1])) if noisy else width
        return " ".join(draw(st.lists(token, min_size=size, max_size=size)))

    rays = kind == "vrep" and draw(st.booleans())
    if noisy:
        points = st.integers(0, 6)
    elif rays:
        points = st.sampled_from([1, n + 1, n + 3])  # one point and rays: a cone
    else:
        points = st.integers(n + 1, n + 4)
    lines = [" ".join(header)] + [body_line() for _ in range(draw(points))]
    if rays:
        lines += ["rays"] + [body_line() for _ in range(draw(st.integers(n, n + 2)))]
    return "." + kind, "\n".join(lines) + "\n"


COMMANDS = st.one_of(
    st.sampled_from([["faces"], ["stalks"], ["ih"]]),
    st.sampled_from(["1/2", "1/8", "0", "-1", "1/0", "x"]).map(lambda e: ["prime-cut", "--epsilon", e]),
    st.sampled_from(["1", "2/3", "0", "-1", "1/0", "x"]).map(lambda c: ["blowup", "--level", c]),
    st.sampled_from(["1,1", "1,2,3", "1", "0,1", "x", "1,,2"]).map(
        lambda v: ["blowup", "--direction", v]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(input_files(), COMMANDS)
def test_random_token_streams_exit_cleanly(file, command):
    suffix, text = file
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input" + suffix)
        with open(path, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, _ = run([command[0], path] + command[1:])
    assert code in (0, 1), (text, command, err.getvalue())
    if code == 1:
        assert err.getvalue().startswith("error: "), (text, command, err.getvalue())
