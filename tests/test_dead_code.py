"""Every public top-level definition and public method in `src/ttkit` has a
caller outside the tests, every module-level assignment is read, every
module-level import is used by its module, and every optional parameter of
a public function is passed by some caller outside the tests.

The roots are the module-level statements of every ttkit module (imports
and assignments aside), among them the `__main__` block of `cli` that
reaches `main`, and the `scripts/*.py` and `bench/*.py` programs
(`bench/test_bench.py` aside).  A top-level
`def` or `class`, a method other than a dunder, or a name that a
module-level assignment binds is reachable when a root or the body of a
reachable definition uses its name, as a bare name or as an attribute; the
body of an assignment is its value.
Names are matched by spelling alone, so the walk can only over-approximate
what is reachable: a name it reports is used by nothing that the roots
reach.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ttkit"

# Public definitions kept although no root reaches them, with the reason;
# a method is keyed as "Class.method".
KEEP = {
    "s_poly": "the benchmark's per-layer metric polyring.s_poly.calls needs "
              "a public function to wrap",
    "mono_div": "its one caller is the kept s_poly",
    "vector_divmod": "the benchmark's per-layer metrics polymod.vector_divmod.calls "
                     "and .zero_ratio wrap it by name; tests divide with it",
    "report_schema": "loads the published schema that --json reports follow",
    "closed_equal": "equality of the ClosedSet values the README names",
    "LEX": "the public lex order that the tests select",
}

# Module-level imports kept although their module never uses them, keyed
# as "module.name", with the reason.
KEEP_IMPORTS = {
    "corpus.supph_super": "bench/test_bench.py checks that the tracer patches "
                          "this binding",
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


def _programs() -> list:
    """The `scripts/*.py` and `bench/*.py` programs, `bench/test_bench.py`
    aside."""
    paths = sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("bench/*.py"))
    return [path for path in paths if path.name != "test_bench.py"]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_method(node: ast.AST) -> bool:
    return (isinstance(node, FUNCTIONS)
            and not (node.name.startswith("__") and node.name.endswith("__")))


ASSIGNMENTS = (ast.Assign, ast.AnnAssign)


def _reachability():
    """(module, qualified name, name) of every public definition, (module,
    name) of every module-level assignment, and the names reached.

    A method is reached by its own name, like a function; the rest of its
    class (bases, decorators, fields and dunder methods, which run
    implicitly) is reached with the class.
    """
    bodies = {}      # name -> names its definitions use
    defined = []     # (module, qualified name, name) of every public definition
    assigned = []    # (module, name) of every name a module-level assignment binds
    roots = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in _parse(path).body:
            if isinstance(stmt, FUNCTIONS + (ast.ClassDef,)):
                parts = [stmt]
                if isinstance(stmt, ast.ClassDef):
                    parts = stmt.bases + stmt.keywords + stmt.decorator_list
                    for item in stmt.body:
                        if not _is_method(item):
                            parts.append(item)
                            continue
                        bodies.setdefault(item.name, set()).update(_used_names(item))
                        if not item.name.startswith("_"):
                            defined.append((path.stem, f"{stmt.name}.{item.name}",
                                            item.name))
                used = bodies.setdefault(stmt.name, set())
                for part in parts:
                    used.update(_used_names(part))
                if not stmt.name.startswith("_"):
                    defined.append((path.stem, stmt.name, stmt.name))
            elif isinstance(stmt, ASSIGNMENTS):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for name in set().union(*map(_used_names, targets)):
                    bodies.setdefault(name, set()).update(_used_names(stmt.value))
                    assigned.append((path.stem, name))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _used_names(stmt)
    for path in _programs():
        roots |= _used_names(_parse(path))

    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(bodies.get(name, ()))
    return defined, assigned, reached


def test_every_public_definition_is_reachable_or_kept():
    defined, _, reached = _reachability()
    assert [(mod, qualname) for mod, qualname, name in defined
            if name not in reached and qualname not in KEEP] == []


def test_every_module_level_assignment_is_read_or_kept():
    _, assigned, reached = _reachability()
    assert [f"{mod}.{name}" for mod, name in assigned
            if name not in reached and name not in KEEP] == []


def test_every_kept_name_is_defined_and_unreached():
    # A kept name that gains a caller, or loses its definition, leaves the list.
    defined, assigned, reached = _reachability()
    defined = defined + [(mod, name, name) for mod, name in assigned]
    kept = {qualname: name for _, qualname, name in defined if qualname in KEEP}
    assert set(kept) == set(KEEP)
    assert not set(kept.values()) & reached


def _unused_imports() -> list:
    """The "module.name" of every name that a module-level import binds
    and its module never uses, as a bare name or as an attribute base."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = _parse(path)
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        out.append(f"{path.stem}.{name}")
    return out


def test_every_module_level_import_is_used_or_kept():
    assert [name for name in _unused_imports() if name not in KEEP_IMPORTS] == []


def test_every_kept_import_is_unused():
    # A kept import that gains a use, or goes, leaves the list.
    assert set(KEEP_IMPORTS) <= set(_unused_imports())


# Optional parameters kept although no caller outside the tests passes
# them, keyed as "function.parameter" or "Class.method.parameter", with the
# reason.
KEEP_PARAMS = {
    "GroebnerBasis.of.order": "tests select LEX, which is kept too",
    "super_support_corpus.count": "the pinned-profile test draws 6",
    "vector_divmod.order": "the benchmark wraps vector_divmod by name",
    "vector_divmod.quotients": "the benchmark wraps vector_divmod by name",
}


def _optional_parameters() -> list:
    """(key, callee, parameter, position) of each defaulted parameter of a
    public function, of a public method, or of the `__init__` of a public
    class.  The callee is the name a call spells (the class, for
    `__init__`); the position counts the arguments such a call passes
    before it, so `self` and `cls` are not counted, and is None for a
    keyword-only parameter."""
    functions = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in _parse(path).body:
            if isinstance(stmt, FUNCTIONS) and not stmt.name.startswith("_"):
                functions.append((stmt.name, stmt.name, stmt, 0))
            elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                for item in stmt.body:
                    if isinstance(item, FUNCTIONS) and (item.name == "__init__"
                                                        or not item.name.startswith("_")):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in item.decorator_list)
                        callee = stmt.name if item.name == "__init__" else item.name
                        functions.append((f"{stmt.name}.{item.name}", callee, item,
                                          0 if static else 1))
    out = []
    for qualname, callee, fn, bound in functions:
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        out += [(f"{qualname}.{arg.arg}", callee, arg.arg, i - bound)
                for i, arg in enumerate(positional) if i >= first]
        out += [(f"{qualname}.{arg.arg}", callee, arg.arg, None)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
    return out


def _calls() -> dict:
    """Callee name -> every call of that name in `src`, `scripts/*.py` and
    `bench/*.py` (`bench/test_bench.py` aside), as a bare name or as an
    attribute."""
    out = {}
    for path in sorted(SRC.glob("*.py")) + _programs():
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                out.setdefault(callee, []).append(node)
    return out


def _passes(call: ast.Call, name: str, position) -> bool:
    """Whether the call passes the parameter: by keyword, by position, or
    possibly through *args or **kwargs."""
    return (any(k.arg in (name, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or position is not None and len(call.args) > position)


def _unpassed_parameters() -> list:
    calls = _calls()
    return [key for key, callee, name, position in _optional_parameters()
            if not any(_passes(c, name, position) for c in calls.get(callee, ()))]


def test_every_optional_parameter_is_passed_or_kept():
    # An option that only tests set is a second code path no product runs:
    # give the one value in use as a constant instead.
    assert [key for key in _unpassed_parameters() if key not in KEEP_PARAMS] == []


def test_every_kept_parameter_is_defined_and_unpassed():
    # A kept parameter that gains a caller, or goes, leaves the list.
    assert set(KEEP_PARAMS) <= set(_unpassed_parameters())
