#!/usr/bin/env python3
"""Run the benchmark in alternated pairs on a parent commit and on the
working tree, and print the runs and their comparison as JSON.

    python3 scripts/bench_pairs.py --parent REV --workload NAME [--workload NAME ...]
        [--seed N] [--pairs 10] [--seconds S] [--out PATH]

Two copies are made in a temporary directory: a `git archive` of REV, and
the working tree as git sees it (tracked files and untracked ones that are
not ignored, so no `__pycache__` or `bench/out`).  Each run is one
`python3 bench/run.py --workload NAME` in one copy, with
PYTHONDONTWRITEBYTECODE=1 so that neither copy ever holds bytecode.  The
parent runs first in even-numbered pairs (0, 2, ...) and second in odd
ones.  For each workload and each end-to-end metric the output gives every
run, each side's median and quartiles, the parent's interquartile range,
the ratio of the medians, the median of the per-pair ratios (change over
parent) and the number of pairs in which the change read lower; with the
failed counts and the output digests of both sides.

The script reads the benchmark's output only; it imports nothing from
ttkit and writes nothing under bench/ of this checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_parent(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest)


def copy_working_tree(dest: Path) -> None:
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, (n.decode() for n in names)):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def bench_run(tree: Path, workload: str, seed, seconds) -> dict:
    """One `bench/run.py` run in `tree`: its result object, with the
    digest of its first job."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    result["digest"] = detail["jobs"][0].get("digest")
    return result


def spread(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def compare(runs: list) -> dict:
    """Per metric: both sides' spreads, the parent's interquartile range,
    the ratio of the medians, the median of the per-pair ratios (None when
    the parent read 0 in some pair) and the pairs the change read lower."""
    out = {}
    for name in runs[0]["parent"]["metrics"]:
        sides = {side: [r[side]["metrics"][name]["value"] for r in runs]
                 for side in ("parent", "change")}
        parent, change = spread(sides["parent"]), spread(sides["change"])
        pairs = list(zip(sides["parent"], sides["change"]))
        wins = sum(c < p for p, c in pairs)
        out[name] = {"parent": parent, "change": change,
                     "parent_iqr": parent["q3"] - parent["q1"],
                     "ratio": change["median"] / parent["median"] if parent["median"] else None,
                     "pair_ratio_median": (statistics.median(c / p for p, c in pairs)
                                           if all(p for p, _ in pairs) else None),
                     "change_lower_in_pairs": f"{wins}/{len(runs)}"}
    for key in ("failed", "attempted", "digest"):
        out[key] = {side: sorted({r[side][key] for r in runs}) for side in ("parent", "change")}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent commit, any git revision")
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--out", default=None, help="also write the JSON here")
    args = parser.parse_args(argv)
    commit = git("rev-parse", args.parent).decode().strip()
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export_parent(commit, trees["parent"])
        copy_working_tree(trees["change"])
        report = {"parent": commit, "seed": args.seed, "pairs": args.pairs,
                  "seconds": args.seconds, "workloads": {}}
        for workload in args.workload:
            runs = []
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                runs.append({side: bench_run(trees[side], workload, args.seed, args.seconds)
                             for side in order})
                print(f"{workload} pair {k}: " + ", ".join(
                    f"{side} {runs[-1][side]['metrics']['wall_s']['value']:.4f}"
                    for side in order), file=sys.stderr)
            report["workloads"][workload] = {"runs": runs, "comparison": compare(runs)}
    text = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
