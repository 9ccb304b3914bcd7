"""The library's surface is what its callers use.

Every module-level function and class in ``src/toric_ih``, and every
method other than a dunder, needs a caller: a ``Name``, an ``Attribute`` or
an import of its name in the package outside its own definition and
outside ``__init__.py``, in ``scripts/``, in ``bench/`` or in a python block
of README.md.  The tests do not count as callers.  ``EXEMPT`` lists the
names that have none on purpose, each with its reason.

Matching is by bare name, so a callerless definition whose name collides
with a used one (a ``dim`` property next to another class's ``dim``) slips
through: the guard finds the names nothing refers to, not every unused one.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toric_ih"

EXEMPT = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "hypersurface.tate_to_e": "ROADMAP items 3-5 will call it",
    "hypersurface.torus_class": "ROADMAP items 3-5 will call it",
    "hypersurface.EPoly2.is_uv_symmetric": "ROADMAP items 3-5 will call it",
    "hypersurface.HodgeTable.known_value": "ROADMAP items 3-5 will call it",
}


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def callerless():
    """Qualified names (module.name, module.Class.method) of the package's
    definitions that nothing outside them refers to."""
    package = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    trees = list(package.values())
    for folder in ("scripts", "bench"):
        trees += [ast.parse(p.read_text()) for p in sorted((ROOT / folder).rglob("*.py"))]
    blocks = (ROOT / "README.md").read_text().split("```python\n")[1:]
    trees += [ast.parse(block.split("```", 1)[0]) for block in blocks]

    refs = defaultdict(list)  # bare name -> ids of the definitions around each reference

    def visit(node, enclosing):
        if isinstance(node, ast.Name):
            refs[node.id].append(enclosing)
        elif isinstance(node, ast.Attribute):
            refs[node.attr].append(enclosing)
        elif isinstance(node, ast.alias):
            refs[node.name.rsplit(".", 1)[-1]].append(enclosing)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {id(node)}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for tree in trees:
        visit(tree, frozenset())

    defs = []
    for module, tree in package.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{module}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, ast.FunctionDef) and not is_dunder(m.name)]
    return [qualname for qualname, node in defs
            if all(id(node) in enclosing for enclosing in refs[node.name])]


def test_every_library_name_has_a_caller():
    missing = [q for q in callerless() if q not in EXEMPT]
    assert not missing, "no caller in src/, scripts/, bench/ or README: " + ", ".join(missing)


def test_every_exemption_is_still_callerless():
    # an exempt name that is gone or has found a caller leaves EXEMPT
    assert sorted(q for q in callerless() if q in EXEMPT) == sorted(EXEMPT)
