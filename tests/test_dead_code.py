"""Every public top-level definition in `src/ttkit` has a caller outside the tests.

The roots are the command line (`cli`), the module-level statements of
every ttkit module (imports aside), and the `scripts/*.py` and `bench/*.py`
programs (`bench/test_bench.py` aside).  A top-level `def` or `class` is
reachable when a root or the body of a reachable definition uses its name,
as a bare name or as an attribute.  Names are matched by spelling alone,
so the walk can only over-approximate what is reachable: a name it reports
is used by nothing that the roots reach.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ttkit"

# Public definitions kept although no root reaches them, with the reason.
KEEP = {
    "s_poly": "the benchmark's per-layer metric polyring.s_poly.calls needs "
              "a public function to wrap",
    "report_schema": "loads the published schema that --json reports follow",
    "closed_equal": "equality of the ClosedSet values the README names",
}


def _used_names(node: ast.AST) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _reachability():
    """(module, name) of every public top-level definition, and the names reached."""
    bodies = {}      # name -> names its definitions use
    defined = []     # (module, name) of every public top-level definition
    roots = set()
    for path in sorted(SRC.glob("*.py")):
        tree = _parse(path)
        if path.stem == "cli":
            roots |= _used_names(tree)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bodies.setdefault(stmt.name, set()).update(_used_names(stmt))
                if not stmt.name.startswith("_"):
                    defined.append((path.stem, stmt.name))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _used_names(stmt)
    programs = sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("bench/*.py"))
    for path in programs:
        if path.name != "test_bench.py":
            roots |= _used_names(_parse(path))

    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(bodies.get(name, ()))
    return defined, reached


def test_every_public_definition_is_reachable_or_kept():
    defined, reached = _reachability()
    assert [(mod, name) for mod, name in defined
            if name not in reached and name not in KEEP] == []


def test_every_kept_name_is_defined_and_unreached():
    # A kept name that gains a caller, or loses its definition, leaves the list.
    defined, reached = _reachability()
    assert set(KEEP) <= {name for _, name in defined}
    assert not set(KEEP) & reached
