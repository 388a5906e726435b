"""Outside-in tracing for the benchmark's traced run, and the per-layer
metrics computed from its spans.

`Tracer.install()` wraps the public functions and public methods of the
`cli`, `harness`, `meta`, `engine`, `nn` and `data` modules, and rebinds each
wrapper at every module attribute that held the original, so calls through
imported names (`cli.build_dataset`, `harness.grad`, `meta.grad`,
`harness.load_dataset`, ...) are recorded too. Nothing under `src/` changes.

The engine's primitive operations (`add`, `matmul`, `softmax`, `linear`, ...)
get no span: they run hundreds of times per batch and a span each would cost
more than the operation. Their time stays in the self time of the span that
called them, and their number shows in the count of `Tensor` objects built.
In the engine only `grad` and `_toposort` are spanned.

Spans stay in memory as tuples `(name, start, end, parent, tensors, extra)` and
`dump()` writes them out once, at the end of the traced process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import time

LAYERS = ("cli", "harness", "meta", "engine", "nn", "data")
ENGINE_SPANNED = {"grad", "_toposort"}

# per-span integer recorded beside the timing: (args, kwargs, result) -> int
EXTRAS = {
    "engine.grad": lambda a, k, r: int(bool(k.get("create_graph", False))),
    "engine._toposort": lambda a, k, r: len(r),
    "harness.save_checkpoint": lambda a, k, r: os.path.getsize(a[0]),
    "data.save_dataset": lambda a, k, r: os.path.getsize(a[1]),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]
        self.tensors = [0]

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, tensors = self.spans, self.stack, self.tensors
        hook = EXTRAS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            n0 = tensors[0]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (nid, t0, clock(), parent, tensors[0] - n0, 0)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            spans[idx] = (nid, t0, t1, parent, tensors[0] - n0,
                          hook(args, kwargs, result) if hook else 0)
            return result

        return traced

    def install(self) -> None:
        import metalabel
        from metalabel import engine

        modules = {m: importlib.import_module(f"metalabel.{m}") for m in LAYERS}
        originals: dict[int, tuple] = {}
        for short, mod in modules.items():
            for attr, val in list(vars(mod).items()):
                if getattr(val, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(val) and (
                        attr in ENGINE_SPANNED if short == "engine"
                        else not attr.startswith("_")):
                    originals[id(val)] = (val, self._wrap(val, f"{short}.{attr}"))
                elif inspect.isclass(val) and short != "engine" and not attr.startswith("_"):
                    self._wrap_methods(val, f"{short}.{attr}")
        for mod in list(modules.values()) + [metalabel,
                                             importlib.import_module("metalabel.gradcheck")]:
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

        counter = self.tensors
        init = engine.Tensor.__init__

        def counting_init(tensor, value, _parents=(), _vjps=()):
            counter[0] += 1
            init(tensor, value, _parents, _vjps)

        engine.Tensor.__init__ = counting_init

    def _wrap_methods(self, cls, prefix: str) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_") and name != "__call__":
                continue
            if isinstance(member, (classmethod, staticmethod)):
                setattr(cls, name, type(member)(self._wrap(member.__func__,
                                                           f"{prefix}.{name}")))
            elif inspect.isfunction(member):
                setattr(cls, name, self._wrap(member, f"{prefix}.{name}"))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from one traced process


def span_stats(doc: dict) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds (duration minus
    the time covered by child spans), durations, tensors built and extras."""
    spans = doc["spans"]
    covered = [0.0] * len(spans)
    for _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    stats: dict[str, dict] = {}
    for (nid, t0, t1, _, tensors, extra), child in zip(spans, covered):
        st = stats.setdefault(doc["names"][nid], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                                  "durations": [], "tensors": 0, "extra": 0})
        st["calls"] += 1
        st["s"] += t1 - t0
        st["self_s"] += t1 - t0 - child
        st["durations"].append(t1 - t0)
        st["tensors"] += tensors
        st["extra"] += extra
    return stats


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def layer_metrics(doc: dict) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced process."""
    stats = span_stats(doc)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [], "tensors": 0, "extra": 0}

    def get(*names):
        out = dict(empty, durations=[])
        for n in names:
            st = stats.get(n, empty)
            for k in ("calls", "s", "self_s", "tensors", "extra"):
                out[k] += st[k]
            out["durations"] += st["durations"]
        return out

    def self_of(layer):
        return sum(st["self_s"] for n, st in stats.items() if n.startswith(layer + "."))

    meta, conv = get("meta.meta_step"), get("meta.conventional_step")
    grad, topo = get("engine.grad"), get("engine._toposort")
    opt, fwd = get("nn.SgdMomentum.step", "nn.Adam.step"), get("nn.Mlp.forward")
    ev, ck = get("harness.evaluate"), get("harness.save_checkpoint")
    save, load = get("data.save_dataset"), get("data.load_dataset")
    return {
        "meta.meta_step.calls": meta["calls"],
        "meta.meta_step.s": meta["s"],
        "meta.meta_step.us_p50": 1e6 * percentile(meta["durations"], 50),
        "meta.meta_step.us_p99": 1e6 * percentile(meta["durations"], 99),
        "meta.conventional_step.calls": conv["calls"],
        "meta.conventional_step.s": conv["s"],
        "meta.conventional_step.us_p50": 1e6 * percentile(conv["durations"], 50),
        "engine.grad.calls": grad["calls"],
        "engine.grad.create_graph_calls": grad["extra"],
        "engine.grad.self_s": grad["self_s"],
        "engine.toposort.s": topo["s"],
        "engine.nodes_per_grad": topo["extra"] / max(topo["calls"], 1),
        "engine.tensors_per_phase2_batch": (meta["tensors"] + conv["tensors"])
        / max(meta["calls"], 1),
        "nn.optimizer_step.calls": opt["calls"],
        "nn.optimizer_step.s": opt["s"],
        "nn.forward.calls": fwd["calls"],
        "nn.forward.s": fwd["s"],
        "harness.train_margin_oracle.s": get("harness.train_margin_oracle")["s"],
        "harness.evaluate.calls": ev["calls"],
        "harness.evaluate.s": ev["s"],
        "harness.evaluate.ms_p50": 1e3 * percentile(ev["durations"], 50),
        "harness.save_checkpoint.calls": ck["calls"],
        "harness.save_checkpoint.ms_p50": 1e3 * percentile(ck["durations"], 50),
        "harness.save_checkpoint.bytes": ck["extra"] / max(ck["calls"], 1),
        "harness.load_checkpoint.s": get("harness.load_checkpoint")["s"],
        "harness.self_s": self_of("harness"),
        "data.save_dataset.s": save["s"],
        "data.save_dataset.bytes": save["extra"],
        "data.load_dataset.calls": load["calls"],
        "data.load_dataset.s": load["s"],
        "data.inject_feature_dependent.s": get("data.inject_feature_dependent")["s"],
        "cli.self_s": self_of("cli"),
    }
