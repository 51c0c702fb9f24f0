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


def test_json_report_is_schema_valid(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["run", "superline", "--json", str(out_path)]) == 0
    capsys.readouterr()
    doc = json.loads(out_path.read_text())
    jsonschema.Draft202012Validator(report_schema()).validate(doc)
    assert doc["kind"] == "scenario"
    assert doc["name"] == "superline"
    assert doc["passed"] is True
    assert doc["timings"] is None
    assert [e["label"] for e in doc["entries"]] == ["support-data", "origin-support"]


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


def test_unknown_scenario_name_is_an_input_error(capsys):
    assert main(["run", "no_such_scenario"]) == 2
    assert "no_such_scenario" in capsys.readouterr().err


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
    from importlib import resources

    doc = json.loads(resources.files("ttkit").joinpath(
        "scenarios", "c2_line.json").read_text())
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
