"""Spans around the package's layer boundaries, installed from outside it.

``Tracer.install()`` replaces each traced function at every name a caller
looks it up by (for example ``cycloschur.verify.epsilon_u`` as well as
``cycloschur.affine.epsilon_u``) and each traced method on its class.  A
wrapper records one span per call while ``tracer.active`` is true: layer,
start, end, parent span and op id, kept in flat arrays in memory and
written out by ``write``.  A layer's self time is its spans' durations
minus their child spans.  Only the traced run imports this module; the
end-to-end run has no wrapper at all.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

# (module, function, layer): wrapped at every cycloschur module that binds it.
FUNCTIONS = [
    ("cycloschur.affine", "epsilon_u", "affine.epsilon_u"),
    ("cycloschur.schur", "express_in_hom_basis", "schur.express_in_hom_basis"),
    ("cycloschur.schur", "multiply_basis", "schur.multiply_basis"),
    ("cycloschur.hecke", "module_coords", "hecke.module_coords"),
    ("cycloschur.permutations", "right_coset_factor", "permutations.coset_factor"),
    ("cycloschur.permutations", "left_coset_factor", "permutations.coset_factor"),
    ("cycloschur.permutations", "double_coset_factor", "permutations.coset_factor"),
    ("cycloschur.permutations", "matrices_with_margins", "wreath.margins"),
    ("cycloschur.wreath", "colored_row_sums", "wreath.margins"),
    ("cycloschur.wreath", "colored_col_sums", "wreath.margins"),
    ("cycloschur.wreath", "enumerate_colored", "wreath.margins"),
    ("cycloschur.wreath", "enumerate_colored_with_margins", "wreath.margins"),
    ("cycloschur.ring", "rank_mod_p", "ring.rank_mod_p"),
    ("cycloschur.cache", "store", "cache.store"),
    ("cycloschur.cache", "load", "cache.load"),
    ("cycloschur.verify", "run_suite", "verify.run_suite"),
    ("cycloschur.cli", "main", "cli"),
]

# (module, class, method, layer): wrapped on the class.
METHODS = [
    ("cycloschur.ring", "RingElem", "__mul__", "ring.mul"),
    ("cycloschur.ring", "RingElem", "__add__", "ring.add"),
    ("cycloschur.ring", "RingElem", "specialize_mod", "ring.specialize_mod"),
    ("cycloschur.hecke", "HeckeElement", "__mul__", "hecke.mul"),
    ("cycloschur.hecke", "HeckeElement", "rmul_gen_L", "hecke.rmul_gen_L"),
    ("cycloschur.affine", "AffineElement", "__mul__", "affine.mul"),
    ("cycloschur.schur", "SchurContext", "b_element", "schur.basis_cache"),
    ("cycloschur.schur", "SchurContext", "tail", "schur.basis_cache"),
    ("cycloschur.schur", "SchurContext", "b_coords", "schur.basis_cache"),
]

LAYERS = sorted({layer for *_, layer in FUNCTIONS + METHODS})

MARK = "__perfbench_wrapped__"


def _cycloschur_modules() -> list:
    import cycloschur

    names = [f"cycloschur.{m}" for m in (
        "affine", "cache", "cli", "expressions", "guards", "hecke",
        "permutations", "ring", "schur", "typeb", "verify", "wreath",
    )]
    return [cycloschur] + [importlib.import_module(n) for n in names]


def find_wrappers() -> list[str]:
    """Names in the package currently bound to a tracer wrapper."""
    found = []
    for module in _cycloschur_modules():
        for name, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{module.__name__}.{name}")
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                found.extend(
                    f"{module.__name__}.{name}.{attr}"
                    for attr, member in vars(value).items()
                    if getattr(member, MARK, False)
                )
    return found


class Tracer:
    def __init__(self):
        self.layer_names: list[str] = []
        self.layer_ids: dict[str, int] = {}
        # Calls per layer inside ops (op id >= 0) and outside them, as in
        # a round trip after the passes.
        self.calls: list[int] = []
        self.calls_outside: list[int] = []
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op = -1
        self.active = False
        self.counts = {
            "ring.mul.term_pairs": 0,
            "ring.mul.small_operand": 0,
            "ring.mul.out_terms": 0,
            "hecke.mul.out_terms": 0,
            "schur.multiply_basis.out_terms": 0,
            "schur.basis_cache.hits": 0,
            "cache.load.hits": 0,
        }
        self._seen: dict[int, tuple] = {}
        self._restore: list[tuple] = []
        for layer in LAYERS:
            self._layer_id(layer)

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layer_ids:
            self.layer_ids[layer] = len(self.layer_names)
            self.layer_names.append(layer)
            self.calls.append(0)
            self.calls_outside.append(0)
        return self.layer_ids[layer]

    def new_pass(self) -> None:
        """Forget which basis-cache arguments were seen (one context per pass)."""
        self._seen.clear()

    # -- wrappers -----------------------------------------------------------

    def _measure(self, layer: str):
        counts = self.counts
        if layer == "ring.mul":
            def measure(args, result):
                la, lb = len(args[0].terms), len(args[1].terms)
                counts["ring.mul.term_pairs"] += la * lb
                counts["ring.mul.small_operand"] += la <= 2 or lb <= 2
                counts["ring.mul.out_terms"] += len(result.terms)
            return measure
        if layer == "hecke.mul":
            def measure(args, result):
                counts["hecke.mul.out_terms"] += len(result.terms)
            return measure
        if layer == "schur.multiply_basis":
            def measure(args, result):
                counts["schur.multiply_basis.out_terms"] += len(result)
            return measure
        if layer == "cache.load":
            def measure(args, result):
                counts["cache.load.hits"] += result is not None
            return measure
        return None

    def _wrap(self, fn, layer: str, kind: str = ""):
        tracer = self
        lid = self._layer_id(layer)
        calls, calls_outside = self.calls, self.calls_outside
        layers, parents, ops = self.span_layer, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self.stack
        perf = time.perf_counter
        measure = self._measure(layer)
        seen = self._seen

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                (calls if tracer.op >= 0 else calls_outside)[lid] += 1
                it = fn(*args, **kwargs)
                while True:
                    sid = len(layers)
                    layers.append(lid)
                    parents.append(stack[-1])
                    ops.append(tracer.op)
                    ends.append(0.0)
                    stack.append(sid)
                    starts.append(perf())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[sid] = perf()
                        stack.pop()
                    yield item
        else:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                (calls if tracer.op >= 0 else calls_outside)[lid] += 1
                if kind == "basis_cache":
                    ctx, key = args[0], (fn.__name__, args[1])
                    keys = seen.setdefault(id(ctx), (ctx, set()))[1]
                    if key in keys:
                        tracer.counts["schur.basis_cache.hits"] += 1
                    keys.add(key)
                sid = len(layers)
                layers.append(lid)
                parents.append(stack[-1])
                ops.append(tracer.op)
                ends.append(0.0)
                stack.append(sid)
                starts.append(perf())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[sid] = perf()
                    stack.pop()
                if measure is not None:
                    measure(args, result)
                return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = getattr(fn, "__qualname__", fn.__name__)
        setattr(wrapper, MARK, True)
        return wrapper

    def install(self) -> None:
        modules = _cycloschur_modules()
        for module_name, attr, layer in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, layer)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)
        for module_name, cls_name, attr, layer in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            kind = "basis_cache" if layer == "schur.basis_cache" else ""
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, layer, kind))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- results --------------------------------------------------------------

    def self_times(self) -> tuple[list[float], list[float]]:
        """Self time per layer id (span durations minus child spans), inside
        ops and outside them."""
        n = len(self.span_layer)
        child = [0.0] * n
        inside = [0.0] * len(self.layer_names)
        outside = [0.0] * len(self.layer_names)
        layers, parents, ops = self.span_layer, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        # A child span is always recorded after its parent, so walking
        # backwards sees every child before its parent.
        for sid in range(n - 1, -1, -1):
            dur = ends[sid] - starts[sid]
            (inside if ops[sid] >= 0 else outside)[layers[sid]] += dur - child[sid]
            parent = parents[sid]
            if parent >= 0:
                child[parent] += dur
        return inside, outside

    def layer_metrics(self, passes: int, wall_s: float) -> dict[str, tuple[float, str]]:
        """Layer metrics with units: work inside ops per pass, plus work
        outside ops (done once per run); ``wall_s`` is the traced pass time."""
        inside, outside = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for lid, layer in enumerate(self.layer_names):
            calls = self.calls[lid] / passes + self.calls_outside[lid]
            out[f"{layer}.calls"] = (calls, "count")
            out[f"{layer}.self_s"] = (inside[lid] / passes + outside[lid], "s")
        c = self.counts
        muls = self.calls[self.layer_ids["ring.mul"]]
        out["ring.mul.term_pairs"] = (c["ring.mul.term_pairs"] / passes, "count")
        out["ring.mul.small_operand_share"] = (c["ring.mul.small_operand"] / max(muls, 1), "ratio")
        out["ring.mul.fill"] = (
            c["ring.mul.out_terms"] / max(c["ring.mul.term_pairs"], 1), "ratio")
        out["hecke.mul.out_terms"] = (c["hecke.mul.out_terms"] / passes, "count")
        out["schur.multiply_basis.out_terms"] = (
            c["schur.multiply_basis.out_terms"] / passes, "count")
        cache_calls = self.calls[self.layer_ids["schur.basis_cache"]]
        out["schur.basis_cache.hit_ratio"] = (
            c["schur.basis_cache.hits"] / max(cache_calls, 1), "ratio")
        lid = self.layer_ids["cache.load"]
        loads = self.calls[lid] + self.calls_outside[lid]
        out["cache.hit_ratio"] = (c["cache.load.hits"] / max(loads, 1), "ratio")
        spanned = sum(inside) / passes
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.unspanned_s"] = (wall_s - spanned, "s")
        out["trace.spans"] = (len(self.span_layer) / passes, "count")
        return out

    def write(self, directory: Path) -> None:
        """Spans as flat columns in native byte order, plus a JSON index."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = {
            "layer": self.span_layer, "parent": self.span_parent, "op": self.span_op,
            "start": self.span_start, "end": self.span_end,
        }
        for name, column in columns.items():
            with open(directory / f"{name}.{column.typecode}", "wb") as fh:
                column.tofile(fh)
        with open(directory / "index.json", "w", encoding="utf-8") as fh:
            json.dump({"layers": self.layer_names, "spans": len(self.span_layer),
                       "columns": {n: f"{n}.{c.typecode}" for n, c in columns.items()}}, fh)
