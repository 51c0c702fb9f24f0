"""One benchmark job in a fresh interpreter; `run.py` starts it.

    python3 bench/job.py --workload NAME --seed N --mode setup|job|plain|traced [--spans PATH]

Set-up imports every ttkit module (and jsonschema, which scenario
validation uses) and builds the workload's inputs, under the host-speed
probe of probe.py.  `setup` mode stops there; `job` runs the workload
once untraced, under a second probe; `plain` runs it untraced without
one; `traced` installs the layer wrappers first.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time

from probe import HostProbe


def main(argv=None) -> int:
    setup_probe = HostProbe()
    with setup_probe:
        parser = argparse.ArgumentParser()
        parser.add_argument("--workload", required=True)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--mode", choices=("setup", "job", "plain", "traced"),
                            required=True)
        parser.add_argument("--spans", default=None)
        args = parser.parse_args(argv)

        import jsonschema  # noqa: F401  ttkit's one runtime dependency

        import tracer
        import workloads

        modules = tracer.ttkit_modules()
        make_inputs, run = workloads.WORKLOADS[args.workload]
        inputs = make_inputs(args.seed)

        tr = None
        if args.mode == "traced":
            tr = tracer.Tracer()
            tr.install(modules)
    out = {"ttkit": modules["cli"].__file__, "ready": time.monotonic(),
           "setup_probe": setup_probe.record()}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    checks = workloads.Checks()
    digest = hashlib.sha256()
    probe = HostProbe() if args.mode == "job" else contextlib.nullcontext()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with probe:
        run(inputs, checks, digest)
    t1 = time.perf_counter()
    cpu1 = time.process_time()
    if tr is not None:
        tr.uninstall()
    if args.mode == "job":
        out["probe"] = probe.record()
        t1 -= probe.wall_s
        cpu1 -= probe.cpu_s
    out.update(
        wall_s=t1 - t0,
        cpu_s=cpu1 - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=checks.attempted,
        failures=checks.failures,
        digest=digest.hexdigest(),
        caches={"rel_gb": len(modules["polymod"]._REL_GB_CACHE),
                "spec_map": len(modules["geometry"]._SPEC_MAP_CACHE)},
    )
    if tr is not None:
        out["layers"] = tr.layer_metrics(modules)
        out["functions"] = tr.function_stats()
        if args.spans:
            out["spans"] = tr.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
