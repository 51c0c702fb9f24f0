"""Every per-function metric that `BENCHMARK.json` names, as
`<layer>.<name>.calls` or `<layer>.<name>.self_s`, names something that
the benchmark's tracer wraps by name: a public function of `ttkit.<layer>`,
a public method of one of its classes, or `poly_mul`, the count of
`Poly.__mul__`.  A rename in `src` then fails here, and not only in a
traced benchmark run, which refuses with "metrics not measured".
"""

import importlib
import json
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _wrappable(layer: str) -> set:
    mod = importlib.import_module(f"ttkit.{layer}")
    names = {"poly_mul"} if layer == "polyring" else set()
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            names.add(name)
        elif isinstance(obj, type):
            names.update(a for a, f in vars(obj).items()
                         if not a.startswith("_") and isinstance(f, types.FunctionType))
    return names


def test_every_per_function_metric_names_a_wrappable_function():
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    named = [m.split(".") for m in metrics]
    named = [(parts[0], parts[1]) for parts in named
             if len(parts) >= 3 and parts[-1] in ("calls", "self_s")]
    assert ("polymod", "syzygy_basis") in named
    missing = [f"{layer}.{name}" for layer, name in named if name not in _wrappable(layer)]
    assert missing == []
