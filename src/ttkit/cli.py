"""Scenario-driven command line.

Subcommands: `run` executes every query of a scenario file, `verify-all`
runs the bundled acceptance suite, and each query family (`gb`,
`invariants`, `decompose`, `support`, `tower`, `spc`) reruns only its own
queries from a scenario.  A scenario argument is a file path or the name
of a bundled scenario.

Exit codes: 0 when every executed check passes, 1 on a verification
failure, 2 on an input problem (unparseable file, schema violation,
unresolved label).  Text reports are byte-identical across runs for a
fixed (input, seed, version); `--json` additionally writes the machine
report, which validates against the published report schema.

The report format of both `verify-all` and the scenario commands lives
here: `_report_text` lays out the text report and `_report_json` builds
the machine report; `verify` and `scenario` only produce the entries.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__, verify
from .scenario import (
    RunOptions,
    ScenarioError,
    bundled_scenarios,
    load_scenario,
    run_scenario,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _degree_bound(text: str) -> int:
    """A degree bound of at least 1; 0 and below would read as unset in some
    queries and as a real bound in others."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_scenario_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("scenario",
                     help="scenario file path or bundled scenario name")
    sub.add_argument("--field", default=None,
                     help="override the scenario field ('Q' or 'Fp:<p>')")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed recorded in the report (default 0)")
    sub.add_argument("--degree-bound", type=_degree_bound, default=None,
                     help="default degree bound for bounded computations "
                          "(at least 1)")
    sub.add_argument("--json", dest="json_path", default=None, metavar="PATH",
                     help="also write the machine report to PATH")
    sub.add_argument("--strict", action="store_true",
                     help="stop at the first query that raises")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttkit",
        description="scenario-driven checks for equivariant and "
                    "supercommutative module geometry",
        epilog=f"bundled scenarios: {', '.join(bundled_scenarios())}",
    )
    parser.add_argument("--version", action="version",
                        version=f"ttkit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="execute every query of a scenario")
    _add_scenario_args(run)
    run.set_defaults(only_op=None)

    for op, blurb in (
        ("gb", "basis and membership queries"),
        ("invariants", "invariant ring queries"),
        ("decompose", "canonical decomposition queries"),
        ("support", "support queries"),
        ("tower", "tower queries"),
        ("spc", "support-data and spectrum queries"),
    ):
        sub = subs.add_parser(op, help=f"run only the scenario's {blurb}")
        _add_scenario_args(sub)
        sub.set_defaults(only_op=op)

    va = subs.add_parser("verify-all", help="run the bundled acceptance suite")
    va.add_argument("--seed", type=int, default=verify.DEFAULT_SEED,
                    help=f"corpus seed (default {verify.DEFAULT_SEED})")
    va.add_argument("--json", dest="json_path", default=None, metavar="PATH",
                    help="also write the machine report to PATH")
    va.set_defaults(only_op=None)
    return parser


def _write_json(path: str, doc: dict) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as e:
        raise ScenarioError("--json", str(e)) from None


def _report_text(header: list, headings: list, results, noun: str) -> str:
    """The header lines, each entry's heading with its lines indented, and
    the tally of passed entries."""
    lines = [*header, ""]
    for heading, r in zip(headings, results):
        lines.append(heading)
        lines.extend(f"  {l}" for l in r.lines)
    passed = sum(1 for r in results if r.passed)
    lines.append("")
    lines.append(f"result: {'PASS' if passed == len(results) else 'FAIL'} "
                 f"({passed}/{len(results)} {noun})")
    return "\n".join(lines) + "\n"


def _report_json(kind: str, name: str, seed: int, entries: list) -> dict:
    """The machine report, matching the published report schema; timings
    stay null so reports are deterministic."""
    return {
        "version": __version__,
        "kind": kind,
        "name": name,
        "seed": seed,
        "passed": all(e["status"] == "pass" for e in entries),
        "timings": None,
        "entries": entries,
    }


def _finish(args, text: str, doc: dict) -> int:
    sys.stdout.write(text)
    if args.json_path:
        _write_json(args.json_path, doc)
    return EXIT_PASS if doc["passed"] else EXIT_FAIL


def _run_verify_all(args) -> int:
    results = verify.run_all(args.seed)
    header = [f"ttkit {__version__} verification report", f"seed: {args.seed}"]
    headings = [f"criterion {r.number} ({r.title}): {r.status.upper()}" for r in results]
    entries = [{"label": f"criterion {r.number}", "op": "verify", "status": r.status,
                "lines": [r.title, *r.lines]} for r in results]
    return _finish(args, _report_text(header, headings, results, "criteria"),
                   _report_json("verify-all", "acceptance", args.seed, entries))


def _run_scenario_command(args) -> int:
    scn = load_scenario(args.scenario, args.field)
    options = RunOptions(degree_bound=args.degree_bound, strict=args.strict)
    results = run_scenario(scn, options, args.only_op)
    header = [f"ttkit {__version__} scenario report", f"scenario: {scn.name}",
              f"seed: {args.seed}"]
    headings = [f"[{r.label}] {r.op}: {r.status.upper()}" for r in results]
    entries = [{"label": r.label, "op": r.op, "status": r.status, "lines": list(r.lines)}
               for r in results]
    return _finish(args, _report_text(header, headings, results, "queries"),
                   _report_json("scenario", scn.name, args.seed, entries))


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify-all":
            return _run_verify_all(args)
        return _run_scenario_command(args)
    except ScenarioError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
