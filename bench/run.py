"""ttkit benchmark driver.  See README.md in this directory.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs jobs of one workload in sequence, each in a fresh interpreter
(closed loop, one client), while the next one fits in `--seconds` (see
`_fits`); at least one job always runs.  With `--trace 0` it prints the
end-to-end metrics, its times scaled to a nominal host speed by the probe
of probe.py; with `--trace 1` the per-layer metrics of a traced run.  The
names and units come from BENCHMARK.json at the repository root.  A
detail record goes on the line before the result; the last line of
standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import NOMINAL_PASS_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUPS = 3           # set-up samples per untraced run, at least
RUN_LIMIT_S = 170.0      # every job is killed before a run reaches this age
# Per-layer metrics that are timings: medians over the traced jobs of a run.
# Every other per-layer metric is a count and must repeat exactly.
TIMING_SUFFIXES = ("self_s", "ms_p50", "ms_p90")
FIXED_CORPORA = {"equivariant_spectra"}


class JobError(Exception):
    pass


def _job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, mode: str, started: float, spans=None) -> dict:
    """Run one job process; its record, with `setup_s` added."""
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = RUN_LIMIT_S - (time.monotonic() - started)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_job_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise JobError(f"{mode} job did not end within the run's time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise JobError(f"{mode} job exited {proc.returncode}: {' | '.join(tail)}")
    rec = json.loads(lines[-1])
    # set-up time less the probe's passes, and its scale to the nominal speed
    rec["setup_s"] = rec["ready"] - t_spawn - rec["setup_probe"]["wall_s"]
    rec["setup_scale"] = NOMINAL_PASS_S / rec["setup_probe"]["pass_s"]
    expected = ROOT / "src" / "ttkit"
    if Path(rec["ttkit"]).resolve().parent != expected.resolve():
        raise JobError(f"job imported ttkit from {rec['ttkit']}, not {expected}")
    return rec


def layer_lines() -> dict:
    from tracer import MODULE_LAYER

    lines: dict = {}
    for mod, layer in MODULE_LAYER.items():
        with open(ROOT / "src" / "ttkit" / f"{mod}.py") as fh:
            lines[layer] = lines.get(layer, 0) + sum(1 for _ in fh)
    return lines


def git_commit():
    """HEAD of the checkout, read from .git without running git; None
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(),
            "git_commit": git_commit(),
            "lines": layer_lines()}


class Tally:
    """Checks attempted and failed over every job of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def job(self, rec: dict) -> None:
        self.attempted += rec["attempted"]
        self.failures += rec["failures"]

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def crashed(self, err: JobError) -> None:
        self.check(str(err), False)


def job_summary(rec: dict) -> dict:
    keys = ("wall_s", "cpu_s", "setup_s", "setup_scale", "peak_rss_mb", "attempted",
            "caches", "digest", "probe")
    return {k: rec[k] for k in keys if k in rec}


def _fits(started: float, seconds: float, longest: float) -> bool:
    """Whether a process as long as `longest` would end nearer to the end
    of the run if it started now than if it did not start at all."""
    return time.monotonic() + longest / 2 < started + seconds


def untraced_run(args, started: float, tally: Tally):
    """Jobs while the next one fits in the run, then set-up samples.

    A run outlasts `--seconds` by at most half a job, and the time that
    holds no further job goes to set-up-only processes.
    """
    jobs, setups, longest = [], [], 0.0
    while not jobs or _fits(started, args.seconds, longest):
        t0 = time.monotonic()
        try:
            rec = spawn(args.workload, args.seed, "job", started)
        except JobError as e:
            tally.crashed(e)
            break
        longest = max(longest, time.monotonic() - t0)
        tally.job(rec)
        jobs.append(rec)
        setups.append(rec)
    longest = 0.0
    while jobs and (len(setups) < MIN_SETUPS or _fits(started, args.seconds, longest)):
        t0 = time.monotonic()
        try:
            setups.append(spawn(args.workload, args.seed, "setup", started))
        except JobError as e:
            tally.crashed(e)
            break
        longest = max(longest, time.monotonic() - t0)
    if not jobs:
        return None, {}
    for k, rec in enumerate(jobs[1:], 2):
        tally.check(f"job {k} output digest equals job 1's", rec["digest"] == jobs[0]["digest"])
    # Times at the nominal host speed (see probe.py), each scaled by the
    # probe passes made while it was measured.
    scale = [NOMINAL_PASS_S / r["probe"]["pass_s"] for r in jobs]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] * k for r, k in zip(jobs, scale)),
        "cpu_s": statistics.median(r["cpu_s"] * k for r, k in zip(jobs, scale)),
        "setup_s": statistics.median(r["setup_s"] * r["setup_scale"] for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in jobs),
    }
    measured = {"wall_s": statistics.median(r["wall_s"] for r in jobs),
                "cpu_s": statistics.median(r["cpu_s"] for r in jobs),
                "setup_s": statistics.median(r["setup_s"] for r in setups)}
    detail = {"jobs": [job_summary(r) for r in jobs],
              "setups": [[r["setup_s"], r["setup_scale"]] for r in setups],
              "measured_s": measured}
    return metrics, detail


def traced_run(args, started: float, tally: Tally):
    """Untraced and traced jobs in turn while the next pair fits in the run;
    the first traced job writes its spans."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"{args.workload}.spans.tsv.gz"
    plain, traced, longest = [], [], 0.0
    while not traced or _fits(started, args.seconds, longest):
        t0 = time.monotonic()
        try:
            plain.append(spawn(args.workload, args.seed, "plain", started))
            traced.append(spawn(args.workload, args.seed, "traced", started,
                                spans=None if traced else spans))
        except JobError as e:
            tally.crashed(e)
            break
        longest = max(longest, time.monotonic() - t0)
        tally.job(plain[-1])
        tally.job(traced[-1])
    if not traced:
        return None, {}
    for rec in plain + traced[1:]:
        tally.check("untraced and traced output digests agree",
                    rec["digest"] == traced[0]["digest"])
    layers = [r["layers"] for r in traced]
    values = {}
    for name in layers[0]:
        series = [lay.get(name) for lay in layers]
        if name.endswith(TIMING_SUFFIXES):
            values[name] = statistics.median(series)
        else:
            if len(series) > 1:
                tally.check(f"{name} repeats exactly", len(set(series)) == 1)
            values[name] = series[0]
    values.update({f"{layer}.lines": n for layer, n in layer_lines().items()})
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in plain))
    detail = {"untraced_jobs": [job_summary(r) for r in plain],
              "traced_jobs": [job_summary(r) for r in traced],
              "functions": traced[0]["functions"],
              "spans": {"file": str(spans.relative_to(ROOT)), "count": traced[0].get("spans")}}
    return values, detail


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: ttkit.verify.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ttkit" / "__init__.py").is_file():
        print(f"no ttkit source under {ROOT / 'src'}; run from a ttkit checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    if args.seed is None:
        from ttkit.verify import DEFAULT_SEED
        args.seed = DEFAULT_SEED
    started = time.monotonic()
    env = environment()
    tally = Tally()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values, detail = traced_run(args, started, tally)
    else:
        values, detail = untraced_run(args, started, tally)
    env["loadavg_end"] = os.getloadavg()
    if values is None:
        print(f"no job completed: {tally.failures}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    failed = len(tally.failures)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        inputs=("fixed corpora; --seed is not used" if args.workload in FIXED_CORPORA
                else "generated from --seed"),
        trace=args.trace,
        fail_ratio=failed / tally.attempted,
        failures=tally.failures[:20],
        environment=env,
    )
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
