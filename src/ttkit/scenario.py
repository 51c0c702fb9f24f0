"""Declarative problem files and the engine that runs their queries.

A scenario is a JSON document naming a coefficient field, a polynomial
ring, and optionally a group action, a superalgebra, a site space, and a
dictionary of objects; its queries invoke the toolkit and state what the
answers must be.  Loading validates everything that can be validated
before any mathematics runs: the schema, every referenced label, every
polynomial string.  Those problems are input errors.  A query whose
declared expectation fails at run time is a verification failure, which
is report content, not an exception.  `run_scenario` returns one result
per query; `cli` lays the results out as the text and JSON reports, in the
same format as `verify-all`.

Polynomials and scalars are strings in the printing grammar of the
polynomial layer ("x^2 - 1/2*y"), matrices are row lists of scalar
strings, and group actions are given by one substitution matrix per
generator; element matrices are composed along the Cayley table.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from .balmer import (
    SupportDatum,
    SupportProfile,
    build_spc,
    check_classification,
    check_homeomorphism,
    verify_support_datum,
)
from .equivariant import (
    EquivariantModule,
    RingAction,
    cyclic_equivariant,
    direct_sum_equivariant,
    invariant_generators,
    module_support,
    molien_check,
    ring_as_equivariant,
    tower,
    twist_by_character,
)
from .errors import ToolkitError, ValidationError
from .fields import Field, Matrix
from .geometry import ClosedSet, PrimeSite, SiteSpace, closed_contains
from .grouprep import (
    CharacterTable,
    FiniteGroup,
    c2_character_table,
    c3_character_table,
    canonical_decompose,
    cyclic_group,
    images_from_generators,
    perm_cycle_name,
    regular_representation,
    s3_character_table,
    s3_group,
)
from .polymod import PresentedModule
from .polyring import GroebnerBasis, Poly, PolyRing
from .supermod import (
    SuperAlgebra,
    SuperComplex,
    direct_sum_supercomplex,
    koszul_complex_super,
    shift_supercomplex,
    supph_sites,
    supph_super,
    tensor_supercomplexes,
)


class ScenarioError(ValidationError):
    """A scenario file problem, annotated with the JSON path it sits at."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _fail(path: str, message: str):
    raise ScenarioError(path, message)


OBJECT_KINDS = (
    "module",
    "equivariant-ring",
    "equivariant-cyclic",
    "equivariant-sum",
    "super-unit",
    "super-zero",
    "super-koszul",
    "super-sum",
    "super-shift",
    "super-tensor",
)

_EQUIVARIANT_KINDS = ("equivariant-ring", "equivariant-cyclic", "equivariant-sum")
_SUPER_KINDS = ("super-unit", "super-zero", "super-koszul", "super-sum",
                "super-shift", "super-tensor")


@dataclass(frozen=True)
class ScenarioObject:
    object_id: str
    kind: str
    value: object  # PresentedModule, EquivariantModule, or SuperComplex


@dataclass(frozen=True)
class Query:
    label: str
    op: str
    args: dict


@dataclass
class Scenario:
    name: str
    ring: PolyRing
    action: Optional[RingAction]
    table: Optional[CharacterTable]
    superalgebra: Optional[SuperAlgebra]
    space: Optional[SiteSpace]
    objects: dict
    queries: tuple
    _pres: Optional[object] = field(default=None, repr=False)

    def presentation(self):
        """The invariant-ring presentation, computed once on first use."""
        if self._pres is None:
            self._pres = invariant_generators(self.action)
        return self._pres

    def object(self, object_id: str) -> ScenarioObject:
        return self.objects[object_id]


# -- schema -----------------------------------------------------------------------------


def _load_schema(name: str) -> dict:
    text = resources.files(__package__).joinpath("schemas", name).read_text()
    return json.loads(text)


def scenario_schema() -> dict:
    return _load_schema("scenario.schema.json")


def report_schema() -> dict:
    return _load_schema("report.schema.json")


def _schema_check(doc: dict) -> None:
    import jsonschema

    validator = jsonschema.Draft202012Validator(scenario_schema())
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        e = jsonschema.exceptions.best_match(errors)
        _fail(e.json_path, e.message)


# -- building blocks --------------------------------------------------------------------


def _parse_poly(ring: PolyRing, text, path: str) -> Poly:
    if not isinstance(text, str):
        _fail(path, f"expected a polynomial string, got {text!r}")
    try:
        return ring.parse_poly(text)
    except ToolkitError as e:
        _fail(path, str(e))


def _parse_scalar(ring: PolyRing, text, path: str):
    p = _parse_poly(ring, text, path)
    if not p.is_zero() and not p.is_constant():
        _fail(path, f"expected a scalar, got {text!r}")
    return ring.field.zero() if p.is_zero() else p.terms[0][1]


def _parse_matrix(ring: PolyRing, rows, path: str) -> Matrix:
    width = len(rows[0])
    parsed = []
    for i, row in enumerate(rows):
        if len(row) != width:
            _fail(f"{path}[{i}]", "ragged matrix rows")
        parsed.append([_parse_scalar(ring, v, f"{path}[{i}][{j}]")
                       for j, v in enumerate(row)])
    return Matrix.from_rows(ring.field, parsed)


def _build_group(desc, path: str):
    """The group plus the element indices its generator matrices refer to."""
    if isinstance(desc, str):
        if desc == "c2":
            return cyclic_group(2), (1,)
        if desc == "c3":
            return cyclic_group(3), (1,)
        if desc == "s3":
            g = s3_group()
            return g, (g.index("(12)"), g.index("(123)"))
        _fail(path, f"unknown group label {desc!r}")
    if "permutations" in desc:
        perms = desc["permutations"]
        try:
            g = FiniteGroup.from_permutations(perms)
            gens = tuple(g.index(perm_cycle_name(p)) for p in perms)
        except ToolkitError as e:
            _fail(f"{path}.permutations", str(e))
        return g, gens
    try:
        g = FiniteGroup.from_table(desc["names"], desc["table"])
    except ToolkitError as e:
        _fail(f"{path}.table", str(e))
    gens = tuple(desc["generators"])
    for i in gens:
        if not 0 <= i < g.order:
            _fail(f"{path}.generators", f"generator index {i} out of range")
    return g, gens


def _build_action(ring: PolyRing, desc: dict, path: str):
    group, gen_indices = _build_group(desc["group"], f"{path}.group")
    raw = desc["generator_matrices"]
    if len(raw) != len(gen_indices):
        _fail(f"{path}.generator_matrices",
              f"expected one matrix per generator ({len(gen_indices)}), got {len(raw)}")
    gen_mats = []
    for i, rows in enumerate(raw):
        m = _parse_matrix(ring, rows, f"{path}.generator_matrices[{i}]")
        if m.rows != ring.nvars or m.cols != ring.nvars:
            _fail(f"{path}.generator_matrices[{i}]",
                  f"substitution matrix must be {ring.nvars}x{ring.nvars}")
        gen_mats.append(m)
    mats = images_from_generators(group, list(zip(gen_indices, gen_mats)),
                                  Matrix.identity(ring.field, ring.nvars))
    if mats is None:
        _fail(f"{path}.generator_matrices", "the declared generators do not generate the group")
    try:
        act = RingAction(group, ring, mats)
        act.validate()
    except ToolkitError as e:
        _fail(path, str(e))
    return act


_BUILTIN_TABLES = {
    "c2": c2_character_table,
    "c3": c3_character_table,
    "s3": s3_character_table,
}


def _build_table(act: RingAction, desc, group_desc, path: str) -> CharacterTable:
    fld = act.ring.field
    if desc == "builtin" or desc is None:
        if not isinstance(group_desc, str):
            _fail(path, "builtin character tables exist only for the named groups")
        try:
            return _BUILTIN_TABLES[group_desc](fld)
        except ToolkitError as e:
            _fail(path, str(e))
    values = tuple(
        tuple(_parse_scalar(act.ring, v, f"{path}.values[{k}][{g}]")
              for g, v in enumerate(row))
        for k, row in enumerate(desc["values"])
    )
    try:
        table = CharacterTable(act.group, fld, tuple(desc["names"]),
                               tuple(desc["degrees"]), values)
        table.validate()
    except ToolkitError as e:
        _fail(path, str(e))
    return table


def _build_sites(ring: PolyRing, entries, path: str) -> SiteSpace:
    sites = []
    for i, entry in enumerate(entries):
        gens = tuple(_parse_poly(ring, g, f"{path}[{i}].generators[{j}]")
                     for j, g in enumerate(entry["generators"]))
        try:
            sites.append(PrimeSite(entry["label"], ring, gens,
                                   entry.get("kind", "declared")))
        except ToolkitError as e:
            _fail(f"{path}[{i}]", str(e))
    try:
        space = SiteSpace(ring, tuple(sites))
        space.validate()
    except ToolkitError as e:
        _fail(path, str(e))
    return space


def _character_values(table: Optional[CharacterTable], name: str, path: str):
    if table is None:
        _fail(path, "a character twist needs a character table")
    if name not in table.names:
        _fail(path, f"unknown character {name!r}")
    return table.values[table.names.index(name)]


def _build_objects(scn: Scenario, entries: dict, path: str) -> None:
    for oid, entry in entries.items():
        here = f"{path}.{oid}"
        kind = entry["kind"]
        if kind not in OBJECT_KINDS:
            _fail(f"{here}.kind", f"unknown object kind {kind!r}")
        if kind in _EQUIVARIANT_KINDS and scn.action is None:
            _fail(here, "equivariant objects need an action")
        if kind in _SUPER_KINDS and scn.superalgebra is None:
            _fail(here, "supercomplex objects need a superalgebra")
        try:
            value = _build_object(scn, oid, kind, entry, here)
        except ScenarioError:
            raise
        except ToolkitError as e:
            _fail(here, str(e))
        scn.objects[oid] = ScenarioObject(oid, kind, value)


def _resolve(scn: Scenario, ref, kinds, here: str):
    if not isinstance(ref, str) or ref not in scn.objects:
        _fail(here, f"unresolved object label {ref!r}")
    obj = scn.objects[ref]
    if obj.kind not in kinds:
        _fail(here, f"object {ref!r} has kind {obj.kind!r}, expected one of {kinds}")
    return obj.value


def _build_object(scn: Scenario, oid: str, kind: str, entry: dict, here: str):
    ring, alg = scn.ring, scn.superalgebra
    if kind == "module":
        rank = _required(entry, "rank", here)
        rels = []
        for i, rel in enumerate(entry.get("relations", ())):
            if not isinstance(rel, list) or len(rel) != rank:
                _fail(f"{here}.relations[{i}]", f"a relation is an array of {rank} polynomials")
            rels.append(tuple(_parse_poly(ring, p, f"{here}.relations[{i}][{j}]")
                              for j, p in enumerate(rel)))
        return PresentedModule(ring, rank, tuple(rels))
    if kind == "equivariant-ring":
        em = ring_as_equivariant(scn.action)
        return _maybe_twist(scn, em, entry, here)
    if kind == "equivariant-cyclic":
        gens = [_parse_poly(ring, p, f"{here}.relations[{i}]")
                for i, p in enumerate(entry.get("relations", ()))]
        em = cyclic_equivariant(scn.action, gens)
        return _maybe_twist(scn, em, entry, here)
    if kind == "equivariant-sum":
        return _fold(scn, entry, _EQUIVARIANT_KINDS, direct_sum_equivariant, here)
    if kind == "super-unit":
        return koszul_complex_super(alg, [])
    if kind == "super-zero":
        return SuperComplex(alg, 0, ((0, 0),), ())
    if kind == "super-koszul":
        cuts = [_parse_poly(ring, p, f"{here}.cuts[{i}]")
                for i, p in enumerate(_required(entry, "cuts", here))]
        return koszul_complex_super(alg, cuts)
    if kind == "super-sum":
        return _fold(scn, entry, _SUPER_KINDS, direct_sum_supercomplex, here)
    if kind == "super-shift":
        ref = entry.get("of")
        if not isinstance(ref, str):
            _fail(f"{here}.of", "a shift takes one object label")
        return shift_supercomplex(_resolve(scn, ref, _SUPER_KINDS, f"{here}.of"),
                                  entry.get("by", 1))
    if kind == "super-tensor":
        return _fold(scn, entry, _SUPER_KINDS, tensor_supercomplexes, here)
    raise AssertionError(kind)


def _required(entry: dict, key: str, here: str):
    if key not in entry:
        _fail(f"{here}.{key}", f"a {entry['kind']} object needs {key!r}")
    return entry[key]


def _fold(scn: Scenario, entry: dict, kinds, join, here: str):
    """join, left to right, over the objects named by the array under "of"."""
    refs = entry.get("of")
    if not isinstance(refs, list):
        _fail(f"{here}.of", "a sum or tensor takes an array of object labels")
    parts = [_resolve(scn, r, kinds, f"{here}.of[{i}]") for i, r in enumerate(refs)]
    return functools.reduce(join, parts)


def _maybe_twist(scn: Scenario, em: EquivariantModule, entry: dict, here: str):
    name = entry.get("character")
    if name is None:
        return em
    values = _character_values(scn.table, name, f"{here}.character")
    return twist_by_character(em, values)


# -- query validation at load time --------------------------------------------------------


_JSON_KINDS = {list: "an array", dict: "an object", int: "an integer", bool: "true or false"}

# The args each op reads; any other key is refused.
_ARG_KEYS = {
    "gb": ("generators", "members", "nonmembers", "basis"),
    "invariants": ("upto", "expect_degrees"),
    "decompose": ("degree", "regular", "expect"),
    "support": ("object", "expect", "expect_vanishing"),
    "tower": ("object", "components", "expect_pieces"),
    "spc": ("objects", "unit", "zero", "tensors", "sums", "triangles", "shifts",
            "twisted_units", "expect_profiles", "classify", "homeomorphism"),
}


def _typed(value, kind: type, path: str):
    """value, refused unless it is a JSON array, object, integer or boolean
    (as kind is list, dict, int or bool); true and false are not integers."""
    if type(value) is not kind:
        _fail(path, f"expected {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _arg(a: dict, key: str, kind: type, path: str):
    """The query arg under key, typed as by `_typed`; `kind()` when absent."""
    return _typed(a.get(key, kind()), kind, f"{path}.args.{key}")


def _check_query(scn: Scenario, q: Query, path: str) -> None:
    a = q.args
    for key in a:
        if key not in _ARG_KEYS[q.op]:
            _fail(f"{path}.args.{key}", f"unknown arg {key!r} for op {q.op!r}")
    if q.op == "gb":
        for key in _ARG_KEYS["gb"]:
            for i, p in enumerate(_arg(a, key, list, path)):
                _parse_poly(scn.ring, p, f"{path}.args.{key}[{i}]")
        if not a.get("generators"):
            _fail(f"{path}.args.generators", "at least one generator is required")
    elif q.op == "invariants":
        if scn.action is None:
            _fail(path, "an invariants query needs an action")
        if _arg(a, "upto", int, path) < 1 and "upto" in a:
            _fail(f"{path}.args.upto", f"expected an integer >= 1, got {a['upto']}")
        _arg(a, "expect_degrees", list, path)
    elif q.op == "decompose":
        if scn.action is None:
            _fail(path, "a decompose query needs an action")
        if ("degree" in a) == _arg(a, "regular", bool, path):
            _fail(f"{path}.args", "give exactly one of degree or regular")
        if _arg(a, "degree", int, path) < 0:
            _fail(f"{path}.args.degree", f"expected an integer >= 0, got {a['degree']}")
        for name in _arg(a, "expect", dict, path):
            if name not in scn.table.names:
                _fail(f"{path}.args.expect", f"unknown character {name!r}")
    elif q.op == "support":
        _require_object(scn, a, "object", OBJECT_KINDS, path)
        if "expect" in a:
            _require_sites(scn, _arg(a, "expect", list, path), f"{path}.args.expect")
        for i, p in enumerate(_arg(a, "expect_vanishing", list, path)):
            _parse_poly(scn.ring, p, f"{path}.args.expect_vanishing[{i}]")
    elif q.op == "tower":
        if scn.action is None or scn.table is None:
            _fail(path, "a tower query needs an action and a character table")
        _require_object(scn, a, "object", _EQUIVARIANT_KINDS, path)
        comps = _arg(a, "components", list, path)
        if not comps:
            _fail(f"{path}.args.components", "at least one component is required")
        for i, comp in enumerate(comps):
            here = f"{path}.args.components[{i}]"
            if not isinstance(comp, list) or len(comp) != 2 or not isinstance(comp[0], str):
                _fail(here, "a component is a [label, generator list] pair")
            for j, p in enumerate(_typed(comp[1], list, f"{here}[1]")):
                _parse_poly(scn.ring, p, f"{here}[1][{j}]")
        _arg(a, "expect_pieces", list, path)
    elif q.op == "spc":
        if scn.space is None:
            _fail(path, "an spc query needs a site space")
        ids = _arg(a, "objects", list, path) or [oid for oid, o in scn.objects.items()
                                                 if o.kind in _SUPER_KINDS]
        for i, r in enumerate(ids):
            _resolve(scn, r, _SUPER_KINDS, f"{path}.args.objects[{i}]")
        for key in ("classify", "homeomorphism"):
            _arg(a, key, bool, path)
        for key in ("unit", "zero"):
            if a.get(key) not in ids:
                _fail(f"{path}.args.{key}", f"{key} must name a registered object")
        for key, size, what in (("tensors", 3, "triple"), ("sums", 3, "triple"),
                                ("triangles", 3, "triple"), ("shifts", 2, "pair")):
            for i, t in enumerate(_arg(a, key, list, path)):
                if not isinstance(t, list) or len(t) != size:
                    _fail(f"{path}.args.{key}[{i}]", f"witness must be a {what}")
                for r in t:
                    if r not in ids:
                        _fail(f"{path}.args.{key}[{i}]", f"unresolved object label {r!r}")
        for r in _arg(a, "twisted_units", list, path):
            if r not in ids:
                _fail(f"{path}.args.twisted_units", f"unresolved object label {r!r}")
        for oid, labels in _arg(a, "expect_profiles", dict, path).items():
            if oid not in ids:
                _fail(f"{path}.args.expect_profiles", f"unresolved object label {oid!r}")
            here = f"{path}.args.expect_profiles.{oid}"
            _require_sites(scn, _typed(labels, list, here), here)


def _require_object(scn: Scenario, args: dict, key: str, kinds, path: str) -> None:
    ref = args.get(key)
    if ref is None:
        _fail(f"{path}.args.{key}", "an object label is required")
    _resolve(scn, ref, kinds, f"{path}.args.{key}")


def _require_sites(scn: Scenario, labels, path: str) -> None:
    if scn.space is None:
        _fail(path, "site expectations need a site space")
    known = set(scn.space.labels())
    for l in labels:
        if not isinstance(l, str) or l not in known:
            _fail(path, f"unknown site {l!r}")


# -- loading ------------------------------------------------------------------------------


def parse_scenario(doc: dict, field_override: Optional[str] = None) -> Scenario:
    _schema_check(doc)
    fld_text = field_override or doc["ring"]["field"]
    try:
        fld = Field.parse(fld_text)
        ring = PolyRing(fld, tuple(doc["ring"]["variables"]))
    except ToolkitError as e:
        _fail("$.ring", str(e))
    scn = Scenario(doc["name"], ring, None, None, None, None, {}, ())
    if "action" in doc:
        scn.action = _build_action(ring, doc["action"], "$.action")
        scn.table = _build_table(scn.action, doc["action"].get("character_table"),
                                 doc["action"]["group"], "$.action.character_table")
    if "superalgebra" in doc:
        scn.superalgebra = SuperAlgebra(ring, doc["superalgebra"]["odd_rank"])
    if "sites" in doc:
        scn.space = _build_sites(ring, doc["sites"], "$.sites")
    if "objects" in doc:
        _build_objects(scn, doc["objects"], "$.objects")
    queries = []
    seen = set()
    for i, entry in enumerate(doc.get("queries", ())):
        q = Query(entry["label"], entry["op"], entry.get("args", {}))
        if q.label in seen:
            _fail(f"$.queries[{i}].label", f"duplicate query label {q.label!r}")
        seen.add(q.label)
        _check_query(scn, q, f"$.queries[{i}]")
        queries.append(q)
    scn.queries = tuple(queries)
    return scn


def load_scenario(path_or_name: str, field_override: Optional[str] = None) -> Scenario:
    """Load a scenario from a file path or a bundled scenario name."""
    text = _scenario_text(path_or_name)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"line {e.lineno}, column {e.colno}", e.msg) from None
    if not isinstance(doc, dict):
        _fail("$", "a scenario must be a JSON object")
    return parse_scenario(doc, field_override)


def bundled_scenarios() -> tuple:
    names = []
    for item in resources.files(__package__).joinpath("scenarios").iterdir():
        if item.name.endswith(".json"):
            names.append(item.name[:-5])
    return tuple(sorted(names))


def _scenario_text(path_or_name: str) -> str:
    import os

    if os.path.exists(path_or_name):
        with open(path_or_name, "r") as fh:
            return fh.read()
    bundled = resources.files(__package__).joinpath(
        "scenarios", f"{path_or_name}.json")
    if bundled.is_file():
        return bundled.read_text()
    raise ScenarioError("$", f"no such scenario file or bundled name: {path_or_name!r}"
                        f" (bundled: {', '.join(bundled_scenarios())})")


# -- running ------------------------------------------------------------------------------


@dataclass(frozen=True)
class RunOptions:
    degree_bound: Optional[int] = None
    strict: bool = False


@dataclass(frozen=True)
class QueryResult:
    label: str
    op: str
    status: str  # pass | fail | error
    lines: tuple

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _yn(flag: bool) -> str:
    return "yes" if flag else "NO"


def run_scenario(scn: Scenario, options: RunOptions,
                 only_op: Optional[str] = None) -> list:
    results = []
    for q in scn.queries:
        if only_op is not None and q.op != only_op:
            continue
        try:
            results.append(_RUNNERS[q.op](scn, q, options))
        except ToolkitError as e:
            results.append(QueryResult(q.label, q.op, "error", (str(e),)))
            if options.strict:
                break
    return results


def _run_gb(scn: Scenario, q: Query, options: RunOptions) -> QueryResult:
    a = q.args
    gens = [scn.ring.parse_poly(p) for p in a["generators"]]
    gb = GroebnerBasis.of(gens)
    ok = True
    lines = [f"reduced basis: {', '.join(str(g) for g in gb.polys)}"]
    for p in a.get("members", ()):
        got = gb.contains(scn.ring.parse_poly(p))
        ok = ok and got
        lines.append(f"member {p}: in the ideal: {_yn(got)}")
    for p in a.get("nonmembers", ()):
        got = not gb.contains(scn.ring.parse_poly(p))
        ok = ok and got
        lines.append(f"nonmember {p}: outside the ideal: {_yn(got)}")
    if "basis" in a:
        want = tuple(scn.ring.parse_poly(p) for p in a["basis"])
        match = gb.polys == want
        ok = ok and match
        lines.append(f"basis matches the declared expectation: {_yn(match)}")
    return QueryResult(q.label, q.op, "pass" if ok else "fail", tuple(lines))


def _run_invariants(scn: Scenario, q: Query, options: RunOptions) -> QueryResult:
    a = q.args
    pres = scn.presentation()
    upto = a.get("upto") or options.degree_bound or 2 * scn.action.group.order
    dims, ok = molien_check(pres, upto)
    lines = [
        f"generators: {', '.join(str(g) for g in pres.generators)}",
        f"degrees 0..{upto} dims {dims} match the Molien series: {_yn(ok)}",
    ]
    if "expect_degrees" in a:
        got = list(pres.degrees)
        deg_ok = got == list(a["expect_degrees"])
        ok = ok and deg_ok
        lines.append(f"generator degrees {got} match the expectation: {_yn(deg_ok)}")
    return QueryResult(q.label, q.op, "pass" if ok else "fail", tuple(lines))


def _run_decompose(scn: Scenario, q: Query, options: RunOptions) -> QueryResult:
    from .corpus import monomial_representation

    a = q.args
    if a.get("regular"):
        rep = regular_representation(scn.action.group, scn.ring.field)
        what = "regular representation"
    else:
        rep = monomial_representation(scn.action, a["degree"])
        what = f"degree-{a['degree']} forms"
    pieces = canonical_decompose(rep, scn.table)
    mults = {p.name: p.multiplicity for p in pieces}
    lines = [f"{what}: dimension {rep.dim}"]
    lines.extend(f"{p.name}: multiplicity {p.multiplicity}" for p in pieces)
    lines.append("evaluation map invertible: yes")
    ok = True
    if "expect" in a:
        want = {k: v for k, v in a["expect"].items() if v}
        match = mults == want
        ok = match
        lines.append(f"multiplicities match the expectation: {_yn(match)}")
    return QueryResult(q.label, q.op, "pass" if ok else "fail", tuple(lines))


def _object_support(obj: ScenarioObject) -> ClosedSet:
    if obj.kind == "module":
        return module_support(obj.value)
    if obj.kind in _EQUIVARIANT_KINDS:
        return module_support(obj.value.module)
    return supph_super(obj.value)


def _run_support(scn: Scenario, q: Query, options: RunOptions) -> QueryResult:
    a = q.args
    obj = scn.object(a["object"])
    supp = _object_support(obj)
    gens = ", ".join(str(g) for g in supp.generators) or "0"
    lines = [f"support of {obj.object_id}: V({gens})"]
    ok = True
    if scn.space is not None and scn.space.ring == supp.ring:
        sites = scn.space.sites_in_closed(supp)
        ordered = [l for l in scn.space.labels() if l in sites]
        lines.append(f"sites: {', '.join(ordered) if ordered else '(none)'}")
        if "expect" in a:
            match = sites == frozenset(a["expect"])
            ok = ok and match
            lines.append(f"sites match the expectation: {_yn(match)}")
    if "expect_vanishing" in a:
        want = ClosedSet(supp.ring, tuple(scn.ring.parse_poly(p)
                                          for p in a["expect_vanishing"]))
        match = closed_contains(supp, want) and closed_contains(want, supp)
        ok = ok and match
        lines.append(f"support equals the declared vanishing locus: {_yn(match)}")
    return QueryResult(q.label, q.op, "pass" if ok else "fail", tuple(lines))


def _run_tower(scn: Scenario, q: Query, options: RunOptions) -> QueryResult:
    a = q.args
    obj = scn.object(a["object"])
    pres = scn.presentation()
    comps = tuple(
        (label, ClosedSet(scn.ring, tuple(scn.ring.parse_poly(p) for p in gens)))
        for label, gens in a["components"]
    )
    res = tower(obj.value, pres, comps, scn.table,
                degree_bound=options.degree_bound)
    ok = True
    lines = []
    for st in res.stages:
        drop, inside = st.support_checks(pres)
        ok = ok and drop and inside
        lines.append(f"stage {st.component} ({st.kind}): "
                     f"pieces {[p.label for p in st.pieces]}, "
                     f"support drops strictly: {_yn(drop)}, "
                     f"pieces inside the image: {_yn(inside)}")
    if "expect_pieces" in a:
        got = res.piece_labels()
        match = got == list(a["expect_pieces"])
        ok = ok and match
        lines.append(f"pieces {got} match the expectation: {_yn(match)}")
    return QueryResult(q.label, q.op, "pass" if ok else "fail", tuple(lines))


def _run_spc(scn: Scenario, q: Query, options: RunOptions) -> QueryResult:
    a = q.args
    space = scn.space
    ids = a.get("objects") or [oid for oid, o in scn.objects.items()
                               if o.kind in _SUPER_KINDS]
    profiles = tuple(SupportProfile(oid, supph_sites(scn.objects[oid].value, space))
                     for oid in ids)
    datum = SupportDatum(
        space, a["unit"], a["zero"], profiles,
        tensors=tuple(tuple(t) for t in a.get("tensors", ())),
        triangles=tuple(tuple(t) for t in a.get("triangles", ())),
        sums=tuple(tuple(t) for t in a.get("sums", ())),
        shifts=tuple(tuple(t) for t in a.get("shifts", ())),
        twisted_units=tuple(a.get("twisted_units", ())),
    )
    report = verify_support_datum(datum)
    ok = True
    lines = []
    for v in report.verdicts:
        ok = ok and v.passed
        lines.append(f"{v.axiom}: {_yn(v.passed)}")
        lines.extend(f"  {c}" for c in v.counterexamples)
    for oid, want in a.get("expect_profiles", {}).items():
        got = datum.profile(oid)
        match = got == frozenset(want)
        ok = ok and match
        ordered = [l for l in space.labels() if l in got]
        lines.append(f"profile of {oid}: {{{', '.join(ordered)}}} matches the "
                     f"expectation: {_yn(match)}")
    if a.get("classify"):
        cls = check_classification(datum)
        ok = ok and cls.passed
        lines.append(f"classification round trips over {len(cls.rows)} closed "
                     f"subsets: {_yn(cls.passed)}")
    if a.get("homeomorphism"):
        spc = build_spc(datum)
        homeo = check_homeomorphism(spc, space)
        ok = ok and homeo.passed
        lines.append(f"spectrum of {len(spc.primes)} primes is the declared "
                     f"space: {_yn(homeo.passed)}")
    return QueryResult(q.label, q.op, "pass" if ok else "fail", tuple(lines))


_RUNNERS = {
    "gb": _run_gb,
    "invariants": _run_invariants,
    "decompose": _run_decompose,
    "support": _run_support,
    "tower": _run_tower,
    "spc": _run_spc,
}
