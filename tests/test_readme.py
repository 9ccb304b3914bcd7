"""The README's Library snippet runs, and its commented outputs hold."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet():
    """The first python block after the README's "## Library" heading."""
    text = README.read_text().split("\n## Library\n", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_snippet_matches_its_comments():
    snippet = library_snippet()
    ns = {}
    exec(snippet, ns)
    said = {code.strip(): note.strip() for code, note in
            (line.split("#", 1) for line in snippet.splitlines() if "#" in line)}
    assert repr(eval("global_ih_class(lat)", ns)) == said["global_ih_class(lat)"]
    vertex_stalk = said["stalk_polynomials(lat)"].split("vertices give ", 1)[1]
    stalks, lat = eval("stalk_polynomials(lat)", ns), ns["lat"]
    assert lat.of_dim(0)
    assert {repr(stalks[v.id]) for v in lat.of_dim(0)} == {vertex_stalk}
