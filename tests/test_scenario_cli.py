"""Scenario loading, query execution, and the command-line contract.

Exit codes: 0 all checks pass, 1 a verification failed, 2 the input was
bad.  Reports must be deterministic for a fixed (scenario, seed, version)
and every entry must cite its query label.
"""

import json

import jsonschema
import pytest

from ttkit.cli import main
from ttkit.scenario import (
    RunOptions,
    ScenarioError,
    bundled_scenarios,
    load_scenario,
    report_schema,
    run_scenario,
    scenario_schema,
)


def test_bundled_scenarios_are_present():
    names = bundled_scenarios()
    for expected in ("c2_line", "empty_ring", "sd5_violation", "superline"):
        assert expected in names


def test_c2_line_passes(capsys):
    assert main(["run", "c2_line"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS (7/7 queries)" in out
    # every entry cites its query label
    for label in ("orbit-ideal", "invariant-ring", "linear-forms",
                  "regular-rep", "sheaf-tower", "sign-tower",
                  "fat-origin-support"):
        assert f"[{label}]" in out


def test_empty_scenario_gives_an_empty_passing_report(capsys):
    assert main(["run", "empty_ring"]) == 0
    assert "result: PASS (0/0 queries)" in capsys.readouterr().out


def test_sd5_violation_fails_and_names_the_pair(capsys):
    assert main(["run", "sd5_violation"]) == 1
    out = capsys.readouterr().out
    assert "SD5: NO" in out
    assert "'K[x]'" in out and "'K[x-1]'" in out


def test_superline_spectrum_passes(capsys):
    assert main(["run", "superline"]) == 0
    out = capsys.readouterr().out
    assert "classification round trips over 9 closed subsets: yes" in out
    assert "spectrum of 4 primes is the declared space: yes" in out


def test_text_reports_are_byte_identical(capsys):
    main(["run", "c2_line", "--seed", "7"])
    first = capsys.readouterr().out
    main(["run", "c2_line", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_field_override_keeps_the_scenario_green(capsys):
    assert main(["run", "c2_line", "--field", "Fp:32003"]) == 0
    assert "result: PASS (7/7 queries)" in capsys.readouterr().out


def test_family_subcommand_filters_to_its_op(capsys):
    assert main(["gb", "c2_line"]) == 0
    out = capsys.readouterr().out
    assert "[orbit-ideal] gb: PASS" in out
    assert "invariants" not in out
    assert "result: PASS (1/1 queries)" in out


@pytest.mark.parametrize("argv, kind, name, labels", [
    (["run", "superline"], "scenario", "superline", ["support-data", "origin-support"]),
    (["verify-all"], "verify-all", "acceptance", [f"criterion {n}" for n in range(1, 11)]),
], ids=["run", "verify-all"])
def test_json_report_is_schema_valid(tmp_path, capsys, argv, kind, name, labels):
    out_path = tmp_path / "report.json"
    assert main(argv + ["--json", str(out_path)]) == 0
    capsys.readouterr()
    doc = json.loads(out_path.read_text())
    jsonschema.Draft202012Validator(report_schema()).validate(doc)
    assert doc["kind"] == kind
    assert doc["name"] == name
    assert doc["passed"] is True
    assert doc["timings"] is None
    assert [e["label"] for e in doc["entries"]] == labels


def test_bundled_scenarios_validate_against_the_published_schema():
    validator = jsonschema.Draft202012Validator(scenario_schema())
    from importlib import resources

    for name in bundled_scenarios():
        text = resources.files("ttkit").joinpath(
            "scenarios", f"{name}.json").read_text()
        validator.validate(json.loads(text))


# -- input errors ---------------------------------------------------------------------


def test_unparseable_json_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"name": "x"')
    assert main(["run", str(p)]) == 2
    assert "input error" in capsys.readouterr().err


def test_schema_violation_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"name": "x", "ring": {"field": "Z",
                                                   "variables": ["x"]}}))
    assert main(["run", str(p)]) == 2
    assert "$.ring.field" in capsys.readouterr().err


def test_unresolved_label_is_an_input_error(tmp_path, capsys):
    doc = {
        "name": "x",
        "ring": {"field": "Q", "variables": ["x"]},
        "queries": [{"label": "q", "op": "support",
                     "args": {"object": "ghost"}}],
    }
    p = tmp_path / "ghost.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p)]) == 2
    assert "ghost" in capsys.readouterr().err


def _object_doc(kind, of):
    """A scenario whose object S of the given kind is built from "of"."""
    doc = {"name": "of_shape", "ring": {"field": "Q", "variables": ["x"]},
           "queries": []}
    if kind.startswith("super-"):
        doc["superalgebra"] = {"odd_rank": 1}
        doc["objects"] = {"K": {"kind": "super-koszul", "cuts": ["x"]}}
    else:
        doc["action"] = {"group": "c2", "generator_matrices": [[["-1"]]],
                         "character_table": "builtin"}
        doc["objects"] = {"K": {"kind": "equivariant-ring"}}
    doc["objects"]["OX"] = dict(doc["objects"]["K"])
    doc["objects"]["S"] = {"kind": kind, "of": of}
    return doc


@pytest.mark.parametrize("kind, of", [
    ("super-shift", ["K"]),
    ("super-sum", "K"),
    ("super-tensor", "K"),
    ("super-sum", "OX"),
    ("equivariant-sum", "OX"),
])
def test_of_with_the_wrong_shape_is_an_input_error(tmp_path, capsys, kind, of):
    # a shift takes one label, sums and tensors take an array of labels
    p = tmp_path / "of_shape.json"
    p.write_text(json.dumps(_object_doc(kind, of)))
    assert main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert "$.objects.S.of: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("objects, path", [
    ({"M": {"kind": "module"}}, "$.objects.M.rank: "),
    ({"K": {"kind": "super-koszul"}}, "$.objects.K.cuts: "),
    ({"M": {"kind": "module", "rank": 2, "relations": ["xy"]}}, "$.objects.M.relations[0]: "),
], ids=["module-without-rank", "koszul-without-cuts", "relation-as-a-string"])
def test_a_missing_or_misshapen_object_key_is_an_input_error(tmp_path, capsys, objects, path):
    doc = {"name": "keys", "ring": {"field": "Q", "variables": ["x", "y"]},
           "superalgebra": {"odd_rank": 1}, "objects": objects, "queries": []}
    p = tmp_path / "keys.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert path in err
    assert "Traceback" not in err


def test_unknown_scenario_name_is_an_input_error(capsys):
    assert main(["run", "no_such_scenario"]) == 2
    assert "no_such_scenario" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_degree_bound_below_one_is_an_input_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["run", "c2_line", f"--degree-bound={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--degree-bound" in captured.err and captured.out == ""


def test_a_positive_degree_bound_is_used(capsys):
    assert main(["run", "c2_line", "--degree-bound=3"]) == 0
    assert "result: PASS (7/7 queries)" in capsys.readouterr().out


def test_bad_polynomial_carries_its_json_path():
    with pytest.raises(ScenarioError) as info:
        load_scenario_text({
            "name": "x",
            "ring": {"field": "Q", "variables": ["x"]},
            "queries": [{"label": "q", "op": "gb",
                         "args": {"generators": ["x +"]}}],
        })
    assert "$.queries[0].args.generators[0]" in str(info.value)


def _c2_line_with(edit):
    return _bundled_with("c2_line", edit)


def _bundled_with(name, edit):
    from importlib import resources

    doc = json.loads(resources.files("ttkit").joinpath("scenarios", f"{name}.json").read_text())
    edit(doc)
    return doc


@pytest.mark.parametrize("edit, field, path", [
    (lambda d: d["queries"][0]["args"].update(generators=["x^2 - 1/0"]),
     None, "$.queries[0].args.generators[0]"),
    (lambda d: d["action"].update(generator_matrices=[[["1/0"]]]),
     None, "$.action.generator_matrices[0][0][0]"),
    (lambda d: d["queries"][0]["args"].update(generators=["x^2 - 1/7"]),
     "Fp:7", "$.queries[0].args.generators[0]"),
], ids=["generator-over-Q", "matrix-entry-over-Q", "generator-over-F7"])
def test_zero_denominator_is_an_input_error(tmp_path, capsys, edit, field, path):
    p = tmp_path / "zero_denominator.json"
    p.write_text(json.dumps(_c2_line_with(edit)))
    argv = ["run", str(p)] + (["--field", field] if field else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert path in err and "zero denominator" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit, path", [
    (lambda d: d["queries"][0]["args"].update(generators=5),
     "$.queries[0].args.generators"),
    (lambda d: d["queries"][2]["args"].update(degree="1"), "$.queries[2].args.degree"),
    (lambda d: d["queries"][1]["args"].update(upto="4"), "$.queries[1].args.upto"),
    (lambda d: d["queries"][6]["args"].update(expect=5), "$.queries[6].args.expect"),
    (lambda d: d["queries"][4]["args"]["components"].__setitem__(0, ["line", 5]),
     "$.queries[4].args.components[0][1]"),
    # a string would be read letter by letter: as members x, or as the
    # vanishing polynomial x, which passes
    (lambda d: d["queries"][0]["args"].update(members="x"), "$.queries[0].args.members"),
    (lambda d: d["queries"][6]["args"].update(expect_vanishing="x"),
     "$.queries[6].args.expect_vanishing"),
    # integers out of range: upto is at least 1, degree at least 0
    (lambda d: d["queries"][1]["args"].update(upto=-1), "$.queries[1].args.upto"),
    (lambda d: d["queries"][1]["args"].update(upto=0), "$.queries[1].args.upto"),
    (lambda d: d["queries"][2]["args"].update(degree=-1), "$.queries[2].args.degree"),
    # expectation values: true was read as multiplicity 1 and passed; the
    # others never matched, so the run failed instead of the input
    (lambda d: d["queries"][2]["args"]["expect"].update(sign=True),
     "$.queries[2].args.expect.sign"),
    (lambda d: d["queries"][3]["args"]["expect"].update(triv="1"),
     "$.queries[3].args.expect.triv"),
    (lambda d: d["queries"][2]["args"]["expect"].update(triv=-1),
     "$.queries[2].args.expect.triv"),
    (lambda d: d["queries"][1]["args"].update(expect_degrees=["2"]),
     "$.queries[1].args.expect_degrees[0]"),
    (lambda d: d["queries"][1]["args"].update(expect_degrees=[2, -2]),
     "$.queries[1].args.expect_degrees[1]"),
    (lambda d: d["queries"][4]["args"].update(expect_pieces=[5]),
     "$.queries[4].args.expect_pieces[0]"),
], ids=["generators-number", "degree-string", "upto-string", "support-expect-number",
        "component-generators-number", "members-string", "expect-vanishing-string",
        "upto-negative", "upto-zero", "degree-negative", "multiplicity-boolean",
        "multiplicity-string", "multiplicity-negative", "expect-degree-string",
        "expect-degree-negative", "expect-piece-number"])
def test_a_mistyped_query_arg_is_an_input_error(tmp_path, capsys, edit, path):
    p = tmp_path / "mistyped.json"
    p.write_text(json.dumps(_c2_line_with(edit)))
    assert main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: expected a" in err
    assert "Traceback" not in err


# a flag given as a string was read by its truth: "no" ran the classification
@pytest.mark.parametrize("name, edit, path", [
    ("c2_line", lambda d: d["queries"][3]["args"].update(regular="yes"),
     "$.queries[3].args.regular"),
    ("superline", lambda d: d["queries"][0]["args"].update(classify="no"),
     "$.queries[0].args.classify"),
    ("superline", lambda d: d["queries"][0]["args"].update(homeomorphism=1),
     "$.queries[0].args.homeomorphism"),
], ids=["regular-string", "classify-string", "homeomorphism-integer"])
def test_a_flag_that_is_not_a_json_boolean_is_an_input_error(tmp_path, capsys, name, edit,
                                                             path):
    p = tmp_path / "flag.json"
    p.write_text(json.dumps(_bundled_with(name, edit)))
    assert main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: expected true or false, got" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, edit, path", [
    # a misspelt expectation was never read, so the query passed
    ("c2_line", lambda d: d["queries"][1]["args"].update(expect_degree=[9, 9]),
     "$.queries[1].args.expect_degree"),
    ("superline", lambda d: d["queries"][0]["args"].update(degree=1),
     "$.queries[0].args.degree"),
], ids=["invariants-typo", "spc-degree"])
def test_an_arg_its_op_does_not_take_is_an_input_error(tmp_path, capsys, name, edit, path):
    p = tmp_path / "unknown_arg.json"
    p.write_text(json.dumps(_bundled_with(name, edit)))
    assert main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: unknown arg" in err
    assert "Traceback" not in err


KLEIN_FOUR = {"names": ["e", "a", "b", "c"],
              "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]}


@pytest.mark.parametrize("group, matrices, path, message", [
    (dict(KLEIN_FOUR, generators=[1]), [[["-1"]]], "$.action.generator_matrices",
     "the declared generators do not generate the group"),
    (dict(KLEIN_FOUR, generators=[1, 4]), [[["-1"]], [["1"]]], "$.action.group.generators",
     "generator index 4 out of range"),
    ("c2", [[["-1"]], [["1"]]], "$.action.generator_matrices",
     "expected one matrix per generator (1), got 2"),
], ids=["not-generating", "index-out-of-range", "matrix-count"])
def test_bad_group_declaration_is_an_input_error(tmp_path, capsys, group, matrices,
                                                  path, message):
    doc = {"name": "bad_group", "ring": {"field": "Q", "variables": ["x"]},
           "action": {"group": group, "generator_matrices": matrices},
           "queries": []}
    p = tmp_path / "bad_group.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: {message}" in err
    assert "Traceback" not in err


def test_cyclic_object_without_relations_reports_like_the_ring(tmp_path, capsys):
    reports = []
    for kind in ("equivariant-ring", "equivariant-cyclic"):
        doc = _c2_line_with(lambda d: d["objects"].update({
            "OX": {"kind": kind},
            "OX[sign]": {"kind": kind, "character": "sign"},
        }))
        p = tmp_path / "c2_line.json"
        p.write_text(json.dumps(doc))
        assert main(["run", str(p)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert "[sign-tower] tower: PASS" in reports[1]


def load_scenario_text(doc):
    from ttkit.scenario import parse_scenario

    return parse_scenario(doc)


# -- per-query error isolation ----------------------------------------------------------


def _tower_error_doc():
    return {
        "name": "tower_error",
        "ring": {"field": "Q", "variables": ["x"]},
        "action": {"group": "c2", "generator_matrices": [[["-1"]]],
                   "character_table": "builtin"},
        "objects": {"OX": {"kind": "equivariant-ring"}},
        "queries": [
            {"label": "doomed", "op": "tower",
             "args": {"object": "OX", "components": [["origin", ["x"]]]}},
            {"label": "fine", "op": "gb",
             "args": {"generators": ["x"], "members": ["x^2"]}},
        ],
    }


def test_query_errors_do_not_abort_later_queries(tmp_path, capsys):
    p = tmp_path / "tower_error.json"
    p.write_text(json.dumps(_tower_error_doc()))
    assert main(["run", str(p)]) == 1
    out = capsys.readouterr().out
    assert "[doomed] tower: ERROR" in out
    assert "[fine] gb: PASS" in out


def test_strict_stops_at_the_first_erroring_query(tmp_path, capsys):
    p = tmp_path / "tower_error.json"
    p.write_text(json.dumps(_tower_error_doc()))
    assert main(["run", str(p), "--strict"]) == 1
    out = capsys.readouterr().out
    assert "[doomed] tower: ERROR" in out
    assert "[fine]" not in out


def test_an_exponent_past_the_limit_is_a_query_error(tmp_path, capsys):
    doc = {
        "name": "huge_exponent",
        "ring": {"field": "Q", "variables": ["x", "y"]},
        "queries": [
            {"label": "huge", "op": "gb", "args": {"generators": ["x^2147483648 - y"]}},
            {"label": "fine", "op": "gb", "args": {"generators": ["x"], "members": ["x^2"]}},
        ],
    }
    p = tmp_path / "huge_exponent.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p)]) == 1
    captured = capsys.readouterr()
    assert "[huge] gb: ERROR" in captured.out and "2147483647" in captured.out
    assert "[fine] gb: PASS" in captured.out
    assert "Traceback" not in captured.err


def _irreducible_sites_doc(quadratic):
    """The superline over F_7 with the closed points x^2 + 1 and x^3 - 2,
    neither of them rational, as `principal-irreducible` sites."""
    return {
        "name": "fp7_irreducible",
        "ring": {"field": "Fp:7", "variables": ["x"]},
        "superalgebra": {"odd_rank": 1},
        "sites": [
            {"label": "i", "generators": [quadratic], "kind": "principal-irreducible"},
            {"label": "c", "generators": ["x^3 - 2"], "kind": "principal-irreducible"},
            {"label": "generic", "generators": [], "kind": "declared"},
        ],
        "objects": {
            "zero": {"kind": "super-zero"},
            "unit": {"kind": "super-unit"},
            "K[i]": {"kind": "super-koszul", "cuts": ["x^2 + 1"]},
            "K[c]": {"kind": "super-koszul", "cuts": ["x^3 - 2"]},
            "K[ic]": {"kind": "super-koszul", "cuts": ["x^5 + x^3 - 2*x^2 - 2"]},
        },
        "queries": [
            {"label": "spectrum", "op": "spc",
             "args": {"unit": "unit", "zero": "zero",
                      "tensors": [["unit", "K[i]", "K[i]"]],
                      "expect_profiles": {"K[i]": ["i"], "K[c]": ["c"], "K[ic]": ["i", "c"],
                                          "unit": ["i", "c", "generic"]},
                      "classify": True, "homeomorphism": True}},
        ],
    }


def test_irreducible_sites_over_a_finite_field_give_the_spectrum(tmp_path, capsys):
    p = tmp_path / "fp7_irreducible.json"
    p.write_text(json.dumps(_irreducible_sites_doc("x^2 + 1")))
    assert main(["run", str(p)]) == 0
    out = capsys.readouterr().out
    for line in ("profile of K[i]: {i} matches the expectation: yes",
                 "profile of K[c]: {c} matches the expectation: yes",
                 "profile of K[ic]: {i, c} matches the expectation: yes",
                 "profile of unit: {i, c, generic} matches the expectation: yes",
                 "classification round trips over 5 closed subsets: yes",
                 "spectrum of 3 primes is the declared space: yes",
                 "result: PASS (1/1 queries)"):
        assert line in out


def test_a_reducible_irreducible_site_is_an_input_error(tmp_path, capsys):
    # x^2 - 2 = (x - 3)(x + 3) over F_7
    p = tmp_path / "fp7_reducible.json"
    p.write_text(json.dumps(_irreducible_sites_doc("x^2 - 2")))
    assert main(["run", str(p)]) == 2
    assert "$.sites: x^2 + 5 is reducible over GF(7)" in capsys.readouterr().err


# -- loader details -----------------------------------------------------------------------


def test_loader_runs_queries_directly():
    scn = load_scenario("c2_line")
    results = run_scenario(scn, RunOptions(), only_op="decompose")
    assert [r.label for r in results] == ["linear-forms", "regular-rep"]
    assert all(r.passed for r in results)


def test_custom_group_by_permutations(tmp_path, capsys):
    doc = {
        "name": "swap",
        "ring": {"field": "Q", "variables": ["x", "y"]},
        "action": {
            "group": {"permutations": [[1, 0]]},
            "generator_matrices": [[["0", "1"], ["1", "0"]]],
            "character_table": {
                "names": ["triv", "sign"],
                "degrees": [1, 1],
                "values": [["1", "1"], ["1", "-1"]],
            },
        },
        "queries": [
            {"label": "inv", "op": "invariants",
             "args": {"upto": 4, "expect_degrees": [1, 2]}},
            {"label": "forms", "op": "decompose",
             "args": {"degree": 2, "expect": {"triv": 2, "sign": 1}}},
        ],
    }
    p = tmp_path / "swap.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p)]) == 0
    assert "result: PASS (2/2 queries)" in capsys.readouterr().out
