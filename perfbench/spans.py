"""In-memory span tracer for the adawavenet library, applied from outside.

`Tracer.install` replaces library callables with timing wrappers at every
place they are looked up: the defining module, each module that bound them
with ``from ... import``, and the class for methods. `Tracer.uninstall` puts
the originals back. Nothing in the library is edited, and the wrappers never
touch the arithmetic: they only read the clock and, for tensor ops, wrap the
backward closure of the returned tensor in the same way.

A span is ``[name, start, end, parent, step]``. ``parent`` is the index of
the enclosing span (-1 at the top level). ``step`` numbers the training step
or eval batch the span belongs to: a step starts at each `AdaWaveNet.forward`
called inside a step region (`train.train` for training, `bench.evaluate_*`
for evaluation) and lasts until the next one. Validation inside
`train.evaluate` and everything outside a step region has step ``None``.
"""
from __future__ import annotations

import statistics
import sys
import time
import types

# (module, attribute, span name, workload tags that must record the span)
FUNCTIONS = [
    ("train", "train", "train.train", {"train"}),
    ("train", "evaluate", "train.evaluate", {"train"}),
    ("train", "_prepare_batch", "train.prepare_batch", {"train"}),
    ("train", "clip_gradients", "train.clip_gradients", {"train"}),
    ("train", "adam_step", "train.adam_step", {"train"}),
    ("train", "build_model", "train.build_model", {"train", "eval"}),
    ("data", "build_dataset", "data.build_dataset", {"train", "eval"}),
    ("data", "windows", "data.windows", {"train", "eval"}),
    ("data", "make_mask", "data.make_mask", {"eval"}),
    ("data", "downsample", "data.downsample", {"eval"}),
    ("decompose", "decompose", "decompose.decompose", {"train", "eval"}),
    ("lifting", "analyze", "lifting.analyze", {"train", "eval"}),
    ("lifting", "synthesize", "lifting.synthesize", {"train", "eval"}),
    ("grouped", "fit_clustering", "grouped.fit_clustering", {"cluster"}),
    ("model", "save_checkpoint", "model.save_checkpoint", {"eval"}),
    ("model", "load_checkpoint", "model.load_checkpoint", {"eval"}),
    ("model", "restore_model", "model.restore_model", {"eval"}),
    ("bench", "evaluate_forecast", "bench.evaluate_forecast", {"eval"}),
    ("bench", "evaluate_impute", "bench.evaluate_impute", {"eval"}),
    ("bench", "evaluate_superres", "bench.evaluate_superres", {"eval"}),
]

# (module, class, method, span name, tags)
METHODS = [
    ("model", "AdaWaveNet", "forward", "model.forward", {"train", "eval"}),
    ("attention", "AttentionHead", "project_approximation",
     "attention.project_approximation", {"train", "eval"}),
    ("grouped", "GroupedLinear", "project_trend", "grouped.project_trend",
     {"train", "eval"}),
    ("tensor", "Tensor", "backward", "tensor.backward", {"train"}),
]

# Tensor ops with their own per-layer metrics; every other public function
# of the tensor module is traced too and reported as ``tensor.other``.
NAMED_OPS = ("moving_average", "grouped_linear_op", "matmul", "softmax",
             "layer_norm", "depthwise_conv1d", "depthwise_conv_transpose1d")

# Calls whose inner forwards are steps, per workload kind, and the calls
# that start a region of their own (a forward inside one is not a step).
STEP_REGIONS = {
    "train": {"train.train"},
    "eval": {"bench.evaluate_forecast", "bench.evaluate_impute",
             "bench.evaluate_superres"},
}
REGIONS = STEP_REGIONS["train"] | STEP_REGIONS["eval"] | {"train.evaluate"}
GENERATORS = {"data.windows"}


class Tracer:
    def __init__(self, kind: str, tags: set[str]):
        self.step_regions = STEP_REGIONS[kind]
        self.tags = tags
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.regions: list[str] = []
        self.step: int | None = None
        self.n_steps = 0
        self.op_depth = 0
        self.ops = 0
        self.closures = 0
        self.forwards: list[tuple[int, int, int]] = []  # ops, closures, bytes
        self.expected: dict[str, set[str]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def in_step_region(self) -> bool:
        return bool(self.regions) and self.regions[-1] in self.step_regions

    def open(self, name: str) -> int:
        if name in REGIONS:
            self.regions.append(name)
            if name in self.step_regions:
                self.step = None
        idx = len(self.spans)
        step = self.step if self.in_step_region() else None
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1, step])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self.stack.pop()
        if span[0] in REGIONS:
            self.regions.pop()

    # -- wrappers ------------------------------------------------------------
    def wrap_call(self, name, fn):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.traced_as = name
        return traced

    def wrap_generator(self, name, fn):
        # every caller drains `windows` at once into a list, so materializing
        # it inside the span times the work without changing what callers see
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return iter(list(fn(*args, **kwargs)))
            finally:
                self.close(idx)

        return traced

    def wrap_op(self, op, fn, tensor_cls):
        fwd, bwd = f"tensor.{op}.fwd", f"tensor.{op}.bwd"

        def traced(*args, **kwargs):
            idx = self.open(fwd)
            self.op_depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self.op_depth -= 1
                self.close(idx)
            if not isinstance(out, tensor_cls) or any(out is a for a in args):
                return out      # e.g. pad_edge_last(a, 0) returns `a` itself
            closure = out._backward
            if closure is not None and not hasattr(closure, "traced_as"):
                out._backward = self.wrap_call(bwd, closure)
            if self.op_depth == 0:
                self.ops += 1
                self.closures += closure is not None
            return out

        return traced

    def wrap_forward(self, fn):
        def traced(model, x):
            is_step = self.in_step_region()
            if is_step:
                self.n_steps += 1
                self.step = self.n_steps
            ops, closures = self.ops, self.closures
            idx = self.open("model.forward")
            try:
                out = fn(model, x)
            finally:
                self.close(idx)
            if is_step:
                graph = sum(n.data.nbytes for n in out.build_tape().nodes)
                self.forwards.append((self.ops - ops,
                                      self.closures - closures, graph))
            return out

        return traced

    # -- patching ------------------------------------------------------------
    def _bind_everywhere(self, original, replacement):
        """Replace `original` in every loaded adawavenet module that holds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("adawavenet"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        lib = lambda name: sys.modules[f"adawavenet.{name}"]
        tensor = lib("tensor")
        for modname, attr, span, tags in FUNCTIONS:
            fn = getattr(lib(modname), attr)
            wrap = self.wrap_generator if span in GENERATORS else self.wrap_call
            self._bind_everywhere(fn, wrap(span, fn))
            self.expected[span] = tags
        for modname, clsname, attr, span, tags in METHODS:
            cls = getattr(lib(modname), clsname)
            fn = vars(cls)[attr]
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self.wrap_forward(fn) if span == "model.forward"
                    else self.wrap_call(span, fn))
            self.expected[span] = tags
        for name, fn in list(vars(tensor).items()):
            if (isinstance(fn, types.FunctionType) and not name.startswith("_")
                    and fn.__module__ == tensor.__name__):
                self._bind_everywhere(fn, self.wrap_op(name, fn, tensor.Tensor))
        for op in NAMED_OPS:
            self.expected[f"tensor.{op}.fwd"] = {"train", "eval"}
            self.expected[f"tensor.{op}.bwd"] = {"train"}

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def unbound(self) -> list[str]:
        """Wrapped callables this workload should exercise but never did."""
        seen = {span[0] for span in self.spans}
        return sorted(name for name, tags in self.expected.items()
                      if tags & self.tags and name not in seen)


# -- reduction to per-layer metrics ------------------------------------------

def _median_per_step(rows):
    """Median over steps of the summed value per step; steps that never ran
    the layer are left out, and a layer that never ran gives 0."""
    per_step: dict[int, float] = {}
    for step, value in rows:
        if step is not None:
            per_step[step] = per_step.get(step, 0.0) + value
    return statistics.median(per_step.values()) if per_step else 0.0


def layer_metrics(tracer: Tracer, window: tuple[float, float]) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.

    ``*_ms`` metrics are medians per step in milliseconds, ``*_s`` metrics
    are totals over the whole traced run in seconds. ``window`` is the
    (start, end) of the traced work unit, used for the coverage ratio.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _step in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def rows(names, self_time=False):
        for name in names:
            for i in by_name.get(name, ()):
                _, start, end, _, step = spans[i]
                yield step, (end - start) - (child[i] if self_time else 0.0)

    def ms(*names, self_time=False):
        return 1e3 * _median_per_step(rows(names, self_time))

    def total(*names, self_time=False):
        return sum(v for _, v in rows(names, self_time))

    def other_ops(suffix):
        """Outermost spans of the ops that have no metric of their own."""
        for name, idxs in by_name.items():
            op = name[len("tensor."):-len(suffix)]
            if not (name.startswith("tensor.") and name.endswith(suffix)
                    and op not in NAMED_OPS):
                continue
            for i in idxs:
                _, start, end, parent, step = spans[i]
                if parent < 0 or not spans[parent][0].endswith(".fwd"):
                    yield step, end - start

    out = {}
    for op in NAMED_OPS:
        out[f"tensor.{op}.fwd_ms"] = ms(f"tensor.{op}.fwd")
        out[f"tensor.{op}.bwd_ms"] = ms(f"tensor.{op}.bwd")
    out["tensor.other.fwd_ms"] = 1e3 * _median_per_step(other_ops(".fwd"))
    out["tensor.other.bwd_ms"] = 1e3 * _median_per_step(other_ops(".bwd"))
    out["tensor.tape_ms"] = ms("tensor.backward", self_time=True)
    out["train.backward_ms"] = ms("tensor.backward")
    out["train.optimizer_ms"] = ms("train.clip_gradients", "train.adam_step")
    out["train.prepare_batch_ms"] = ms("train.prepare_batch")
    out["model.forward_ms"] = ms("model.forward")
    out["attention.project_approximation_ms"] = ms("attention.project_approximation")
    out["grouped.project_trend_ms"] = ms("grouped.project_trend")
    out["lifting.analyze_ms"] = ms("lifting.analyze")
    out["lifting.synthesize_ms"] = ms("lifting.synthesize")
    out["decompose.decompose_ms"] = ms("decompose.decompose")
    out["data.make_mask_ms"] = ms("data.make_mask")
    forwards = tracer.forwards or [(0, 0, 0)]
    out["tensor.ops_per_forward"] = statistics.median(f[0] for f in forwards)
    out["tensor.closures_per_forward"] = statistics.median(f[1] for f in forwards)
    out["tensor.graph_mb"] = statistics.median(f[2] for f in forwards) / 1e6
    out["data.windows_s"] = total("data.windows")
    out["data.build_dataset_s"] = total("data.build_dataset")
    out["grouped.fit_clustering_s"] = total("grouped.fit_clustering")
    out["model.checkpoint_save_s"] = total("model.save_checkpoint")
    out["model.checkpoint_load_s"] = total("model.load_checkpoint",
                                           "model.restore_model")
    out["train.evaluate_s"] = total("train.evaluate")
    out["train.self_s"] = total("train.train", self_time=True)
    for task in ("forecast", "impute", "superres"):
        out[f"bench.evaluate_{task}_s"] = total(f"bench.evaluate_{task}")
    out["trace.coverage"] = _coverage(spans, window)
    return out


def _coverage(spans, window):
    """Share of the traced unit's wall time spent inside a library layer:
    time in spans below an entry point (`train.train`, `bench.evaluate_*`)
    or in top-level spans that are not entry points themselves."""
    start, end = window
    entries = REGIONS - {"train.evaluate"}
    covered = 0.0
    for name, s, e, parent, _step in spans:
        if s < start or e > end:
            continue
        if parent < 0:
            covered += 0.0 if name in entries else e - s
        elif spans[parent][0] in entries:
            covered += e - s
    return covered / (end - start)


def write_spans(path: str, spans: list[list]):
    with open(path, "w") as fh:
        fh.write("name,start_s,end_s,parent,step\n")
        for name, start, end, parent, step in spans:
            fh.write(f"{name},{start:.9f},{end:.9f},{parent},"
                     f"{'' if step is None else step}\n")
