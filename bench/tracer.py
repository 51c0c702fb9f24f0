"""Span tracing of ttkit's layers from outside the package.

`Tracer.install()` replaces every public function of the layer modules,
in every `ttkit` module namespace that binds it, by a wrapper that records
a span (name, start, end, parent) and per-function call, error and
self-time tallies.  Module-level `from .x import f` copies are separate
bindings and are patched one by one; function-local imports read the
module attribute at call time, so they see the wrapper too.  A few methods
named by the per-layer metrics are wrapped the same way, and
`Poly.__mul__` (with its `__rmul__` alias) gets a wrapper that only
counts.  `uninstall()` puts every original object back.

Nothing under `src/ttkit` is edited.  Spans stay in memory in flat arrays
and are written out by `write_spans` once the job is over.
"""

from __future__ import annotations

import gzip
import importlib
import math
import pkgutil
import time
import types
from array import array

# Layer of each ttkit module; `verify` and `errors` belong to no layer.
LAYERS = ("fields", "polyring", "polymod", "geometry", "grouprep",
          "equivariant", "supermod", "balmer", "scenario", "corpus")
MODULE_LAYER = {**{m: m for m in LAYERS}, "cli": "scenario"}

# Methods that the per-layer metrics name, as (module, class, attribute).
METHODS = (
    ("polymod", "PresentedModule", "relation_gb"),
    ("geometry", "SiteSpace", "sites_in_closed"),
)


def ttkit_modules() -> dict:
    """Every module of the ttkit package, imported, by short name."""
    pkg = importlib.import_module("ttkit")
    return {info.name: importlib.import_module(f"ttkit.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)}


def _is_public_layer_function(name: str, obj) -> bool:
    if name.startswith("_") or not isinstance(obj, types.FunctionType):
        return False
    mod = obj.__module__ or ""
    return mod.startswith("ttkit.") and mod[6:] in MODULE_LAYER


def _qualified(fn) -> str:
    return f"{MODULE_LAYER[fn.__module__[6:]]}.{fn.__name__}"


class Tracer:
    """Wrappers, spans and tallies for one traced job."""

    def __init__(self):
        self.names: list = []
        self._name_index: dict = {}
        self.calls: list = []
        self.errors: list = []
        self.self_s: list = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.poly_mul = 0
        self.extra: dict = {}       # name -> number, filled by the hooks
        self.samples: dict = {}     # name -> list of per-call durations
        self._stack: list = []      # [span id, time covered by children]
        self._patched: list = []    # (owner, attribute, original)
        self._wrappers: dict = {}   # id(original) -> wrapper

    # -- installing -----------------------------------------------------------

    def install(self, modules: dict) -> None:
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if _is_public_layer_function(attr, obj):
                    self._patch(mod, attr, obj, self._wrapper(obj))
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            fn = cls.__dict__[attr]
            self._patch(cls, attr, fn, self._wrapper(fn, f"{mod_name}.{attr}"))
        poly = modules["polyring"].Poly
        mul = poly.__dict__["__mul__"]
        rmul = poly.__dict__["__rmul__"]
        counted = self._counter(mul)
        self._patch(poly, "__mul__", mul, counted)
        self._patch(poly, "__rmul__", rmul,
                    counted if rmul is mul else self._counter(rmul))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._wrappers.clear()

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _counter(self, fn):
        def counted(a, b):
            self.poly_mul += 1
            return fn(a, b)
        counted.__wrapped__ = fn
        return counted

    def _wrapper(self, fn, qualname: str = None):
        known = self._wrappers.get(id(fn))
        if known is not None:
            return known
        name = qualname or _qualified(fn)
        nid = self._name_index.get(name)
        if nid is None:
            nid = self._name_index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.errors.append(0)
            self.self_s.append(0.0)
        before, after = HOOKS.get(name, (None, None))
        clock = time.perf_counter
        stack = self._stack
        calls, errors, self_s = self.calls, self.errors, self.self_s
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        tracer = self

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            sid = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            s_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise
            finally:
                t1 = clock()
                s_end[sid] = t1
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                self_s[nid] += own
                calls[nid] += 1
            if after is not None:
                after(tracer, args, kwargs, result, dur, own, token)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__module__ = fn.__module__
        self._wrappers[id(fn)] = wrapper
        return wrapper

    # -- reading --------------------------------------------------------------

    def add(self, name: str, value) -> None:
        self.extra[name] = self.extra.get(name, 0) + value

    def top(self, name: str, value) -> None:
        self.extra[name] = max(self.extra.get(name, 0), value)

    def function_stats(self) -> dict:
        return {n: {"calls": self.calls[i], "self_s": self.self_s[i],
                    "errors": self.errors[i]}
                for i, n in enumerate(self.names) if self.calls[i] or self.errors[i]}

    def layer_metrics(self, modules: dict) -> dict:
        """The per-layer metrics this job can give (all but `lines` and the
        harness overhead, which need more than one job)."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
            out[f"{layer}.errors"] = 0
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += self.self_s[i]
            out[f"{layer}.calls"] += self.calls[i]
            out[f"{layer}.errors"] += self.errors[i]
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        out.update(EXTRA_ZEROS)
        out.update(self.extra)
        for name, count, ratio in (("polyring.normal_form", "zero", "zero_ratio"),
                                   ("polymod.vector_divmod", "zero", "zero_ratio"),
                                   ("polymod.relation_gb", "misses", "miss_ratio")):
            calls = out[f"{name}.calls"]
            out[f"{name}.{ratio}"] = out.pop(f"{name}.{count}", 0) / calls if calls else 0.0
        ms = sorted(1000.0 * d for d in self.samples.get("supermod.supph_super", ()))
        out["supermod.supph_super.ms_p50"] = _quantile(ms, 0.5)
        out["supermod.supph_super.ms_p90"] = _quantile(ms, 0.9)
        out["polyring.poly_mul.calls"] = self.poly_mul
        out["polymod.rel_gb_cache.entries"] = len(modules["polymod"]._REL_GB_CACHE)
        out["geometry.spec_map_cache.entries"] = len(modules["geometry"]._SPEC_MAP_CACHE)
        return out

    def write_spans(self, path) -> int:
        """Gzipped, tab-separated `id parent name start end`, one span a line."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{names[self.span_name[i]]}"
                         f"\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")
        return len(self.span_name)


# -- per-function hooks: (before(args, kwargs) -> token, after(...)) -----------------


def _after_buchberger(tr, args, kwargs, result, dur, own, token):
    tr.top("polyring.buchberger.basis_len_max", len(result))
    fld = next((p.ring.field for p in (args[0] if args else kwargs["gens"])), None)
    if fld is not None:
        tr.add(f"polyring.buchberger.{'QQ' if fld.is_rational else 'GF'}.self_s", own)


def _after_normal_form(tr, args, kwargs, result, dur, own, token):
    tr.add("polyring.normal_form.zero", 1 if result.is_zero() else 0)


def _after_module_groebner(tr, args, kwargs, result, dur, own, token):
    basis = result[0] if isinstance(result, tuple) else result
    tr.top("polymod.module_groebner.basis_len_max", len(basis))


def _after_vector_divmod(tr, args, kwargs, result, dur, own, token):
    tr.add("polymod.vector_divmod.zero", 1 if all(p.is_zero() for p in result[1]) else 0)


def _before_cohomology(args, kwargs):
    c = args[0] if args else kwargs["c"]
    i = args[1] if len(args) > 1 else kwargs["i"]
    return c.module_at(i).rank


def _after_cohomology(tr, args, kwargs, result, dur, own, token):
    tr.add("polymod.cohomology.input_rank", token)


def _before_relation_gb(args, kwargs):
    return len(importlib.import_module("ttkit.polymod")._REL_GB_CACHE)


def _after_relation_gb(tr, args, kwargs, result, dur, own, token):
    grew = len(importlib.import_module("ttkit.polymod")._REL_GB_CACHE) > token
    tr.add("polymod.relation_gb.misses", 1 if grew else 0)


def _after_rref(tr, args, kwargs, result, dur, own, token):
    m = args[0] if args else kwargs["m"]
    tr.add("fields.rref.entries", m.rows * m.cols)


def _after_supph_super(tr, args, kwargs, result, dur, own, token):
    tr.samples.setdefault("supermod.supph_super", []).append(dur)


# Values the hooks fill in, as they read when the function never ran.
EXTRA_ZEROS = {
    "polyring.buchberger.basis_len_max": 0,
    "polyring.buchberger.QQ.self_s": 0.0,
    "polyring.buchberger.GF.self_s": 0.0,
    "polymod.module_groebner.basis_len_max": 0,
    "polymod.cohomology.input_rank": 0,
    "fields.rref.entries": 0,
}

HOOKS = {
    "polyring.buchberger": (None, _after_buchberger),
    "polyring.normal_form": (None, _after_normal_form),
    "polymod.module_groebner": (None, _after_module_groebner),
    "polymod.vector_divmod": (None, _after_vector_divmod),
    "polymod.cohomology": (_before_cohomology, _after_cohomology),
    "polymod.relation_gb": (_before_relation_gb, _after_relation_gb),
    "fields.rref": (None, _after_rref),
    "supermod.supph_super": (None, _after_supph_super),
}


def _quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile; 0.0 for no samples."""
    if not sorted_values:
        return 0.0
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]
