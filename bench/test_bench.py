"""Self-tests of the benchmark harness:  python3 -m pytest bench -q"""

from __future__ import annotations

import hashlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import probe  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MODULES = tracer.ttkit_modules()


def _bindings() -> dict:
    """(namespace, attribute) -> function for every public layer function."""
    return {(name, attr): obj
            for name, mod in MODULES.items()
            for attr, obj in vars(mod).items()
            if tracer._is_public_layer_function(attr, obj)}


def _run(workload: str, inputs, tr=None):
    checks = workloads.Checks()
    digest = hashlib.sha256()
    if tr is not None:
        tr.install(MODULES)
    try:
        workloads.WORKLOADS[workload][1](inputs, checks, digest)
    finally:
        if tr is not None:
            tr.uninstall()
    return checks, digest.hexdigest()


def test_installer_patches_every_binding_and_restores_the_originals():
    before = _bindings()
    poly = MODULES["polyring"].Poly
    class_attrs = [(poly, "__mul__"), (poly, "__rmul__")] + [
        (getattr(MODULES[m], c), a) for m, c, a in tracer.METHODS]
    originals = {(cls, a): cls.__dict__[a] for cls, a in class_attrs}
    tr = tracer.Tracer()
    tr.install(MODULES)
    try:
        for (name, attr), fn in before.items():
            now = getattr(MODULES[name], attr)
            assert now is not fn and now.__wrapped__ is fn, f"{name}.{attr}"
        # module-level copies made by `from .x import f` share one wrapper
        assert MODULES["polymod"].annihilator is MODULES["supermod"].annihilator
        sup = MODULES["supermod"].supph_super
        assert MODULES["corpus"].supph_super is sup
        assert MODULES["scenario"].supph_super is sup
        for cls, a in class_attrs:
            assert cls.__dict__[a] is not originals[(cls, a)]
        assert len(tr._patched) == len(before) + len(class_attrs)
    finally:
        tr.uninstall()
    assert _bindings() == before
    for cls, a in class_attrs:
        assert cls.__dict__[a] is originals[(cls, a)]


def test_traced_and_untraced_jobs_give_the_same_output_digest():
    for workload, inputs in (
            ("groebner_ideals", workloads.groebner_inputs(7, per_field=4)),
            ("equivariant_spectra", None)):
        plain, d_plain = _run(workload, inputs)
        tr = tracer.Tracer()
        traced, d_traced = _run(workload, inputs, tr)
        assert plain.failures == traced.failures == []
        assert plain.attempted == traced.attempted > 0
        assert d_plain == d_traced
        assert tr.layer_metrics(MODULES)["polyring.calls"] > 0


def test_a_traced_job_gives_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tr = tracer.Tracer()
    _run("groebner_ideals", workloads.groebner_inputs(3, per_field=2), tr)
    got = tr.layer_metrics(MODULES)
    for m in spec["per_layer"]:
        name = m["name"]
        if not (name.endswith(".lines") or name == "trace.overhead_s"):
            assert name in got, name
    assert got["polyring.buchberger.QQ.self_s"] > 0
    assert got["polyring.buchberger.GF.self_s"] > 0
    assert got["fields.rref.entries"] > 0
    assert got["polyring.poly_mul.calls"] > 0


def test_an_injected_wrong_verdict_is_counted_as_a_failure(monkeypatch):
    inputs = workloads.groebner_inputs(11, per_field=2)
    clean, _ = _run("groebner_ideals", inputs)
    assert clean.failures == []
    # the oracle now accepts everything, so each nonmember verdict disagrees
    monkeypatch.setattr(MODULES["polymod"], "bounded_membership", lambda *a: True)
    bad, _ = _run("groebner_ideals", inputs)
    assert bad.attempted == clean.attempted
    assert len(bad.failures) == 2 * len(inputs)
    assert all("membership verdict" in f for f in bad.failures)


def test_an_exception_is_counted_and_the_job_goes_on(monkeypatch):
    inputs = workloads.groebner_inputs(5, per_field=2)

    def boom(*args):
        raise ArithmeticError("injected")

    monkeypatch.setattr(MODULES["polyring"], "radical_member", boom)
    checks, _ = _run("groebner_ideals", inputs)
    assert len(checks.failures) == len(inputs)
    assert all("ArithmeticError: injected" in f for f in checks.failures)


def test_the_probe_samples_during_a_job_and_restores_the_signal_state():
    before = signal.getsignal(signal.SIGALRM)
    with probe.HostProbe(interval=0.02) as p:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
    assert p.passes >= 3
    assert p.pass_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with probe.HostProbe(interval=10.0) as short:
        pass
    assert short.passes == 1     # a job shorter than one interval still gets a pass


def test_the_probe_does_not_change_a_job_output():
    inputs = workloads.groebner_inputs(13, per_field=3)
    plain, d_plain = _run("groebner_ideals", inputs)
    with probe.HostProbe(interval=0.005) as p:
        probed, d_probed = _run("groebner_ideals", inputs)
    assert p.passes > 0
    assert plain.failures == probed.failures == []
    assert d_plain == d_probed


def test_p90_of_101_samples_leaves_ten_beyond_it():
    values = [float(v) for v in range(101)]
    p90 = tracer._quantile(values, 0.9)
    assert sum(1 for v in values if v > p90) == 10
    assert tracer._quantile(values, 0.5) == 50.0
    assert tracer._quantile([], 0.9) == 0.0


def test_run_without_the_ttkit_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "groebner_ideals",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
