#!/usr/bin/env python3
"""Print the report and benchmark digests of one checkout as one JSON object.

    python3 scripts/report_digests.py TREE [--seed N] [--scenario PATH ...]

For `ttkit verify-all --seed N`, for `ttkit run NAME` on each bundled
scenario (the JSON files in TREE/src/ttkit/scenarios) and for `ttkit run
PATH` on each `--scenario` file, the object holds the exit code and the
sha256 of the text report, of the `--json` report and of stderr, so a run
that exits 2 is compared by its input-error message too.  A scenario file is
keyed by its absolute path, so two checkouts compared on the same file
print the same key.
For each workload named in TREE/BENCHMARK.json it holds the digest, the
attempted count and the failure count of one
`TREE/bench/job.py --workload NAME --seed N --mode plain` job.

Every command runs in a subprocess, in a temporary directory, with
PYTHONHASHSEED=0, PYTHONDONTWRITEBYTECODE=1 and PYTHONPATH=TREE/src.  The
script imports nothing from ttkit and writes nothing under TREE.  Two
checkouts print the same object exactly when their reports and benchmark
digests agree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT_SEED = 20260819  # ttkit.verify.DEFAULT_SEED


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _python(args: list, env: dict, cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True)


def report_digests(tree: Path, seed: int, scenarios=()) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(tree / "src"))
    commands = {"verify-all": ["verify-all", "--seed", str(seed)]}
    for path in sorted((tree / "src" / "ttkit" / "scenarios").glob("*.json")):
        commands[f"run {path.stem}"] = ["run", path.stem]
    for path in scenarios:
        commands[f"run {path}"] = ["run", str(path)]
    workloads = [w["name"] for w in json.loads((tree / "BENCHMARK.json").read_text())["workloads"]]

    out = {"seed": seed, "reports": {}, "bench": {}}
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        for name, argv in commands.items():
            proc = _python(["-m", "ttkit.cli", *argv, "--json", str(report)], env, tmp)
            out["reports"][name] = {"exit": proc.returncode, "text": _sha(proc.stdout),
                                    "json": _sha(report.read_bytes()) if report.exists() else None,
                                    "stderr": _sha(proc.stderr)}
            report.unlink(missing_ok=True)
        for workload in workloads:
            proc = _python([str(tree / "bench" / "job.py"), "--workload", workload,
                            "--seed", str(seed), "--mode", "plain"], env, tmp)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode())
                raise SystemExit(f"bench job {workload} exited {proc.returncode}")
            job = json.loads(proc.stdout.decode().splitlines()[-1])
            out["bench"][workload] = {key: job[key] for key in ("digest", "attempted", "failures")}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="root of the checkout")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"corpus and workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--scenario", type=Path, action="append", default=[],
                        help="a scenario file to run as well; repeatable")
    args = parser.parse_args(argv)
    scenarios = [path.resolve() for path in args.scenario]
    print(json.dumps(report_digests(args.tree.resolve(), args.seed, scenarios),
                     indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
