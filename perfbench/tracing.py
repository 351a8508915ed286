"""Spans around the calls into each convcnp module, recorded from outside.

The benchmark wraps public functions of the package in place (module
attributes and model methods) while a traced block runs, and restores the
originals afterwards.  Spans are kept in memory as tuples and written out
when the run ends.  A function that no longer exists is skipped and reported
as an absent layer; the per-layer metrics that depend on it are left out.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

# (layer name, module, attribute); an attribute "Class.method" wraps a method.
TARGETS = (
    ("synthdata.sample_task", "convcnp.synthdata", "sample_task"),
    ("synthdata.gillespie_lv", "convcnp.synthdata", "gillespie_lv"),
    ("synthdata.lv_to_task", "convcnp.synthdata", "lv_to_task"),
    ("embedding.embed", "convcnp.embedding", "embed"),
    ("kernels.psi_eval", "convcnp.kernels", "learnable_psi_eval"),
    ("models.forward", "convcnp.models", "ConvCNP.forward"),
    ("models.forward", "convcnp.models", "ConvCNPOnGrid.forward"),
    ("models.cnn_forward", "convcnp.models", "cnn_forward"),
    ("autodiff.conv", "convcnp.autodiff", "conv1d"),
    ("autodiff.conv", "convcnp.autodiff", "conv2d"),
    ("autodiff.backward", "convcnp.autodiff", "backward"),
    ("autodiff.adam_step", "convcnp.autodiff", "adam_step"),
    ("autodiff.save_checkpoint", "convcnp.autodiff", "save_checkpoint"),
    ("autodiff.load_checkpoint", "convcnp.autodiff", "load_checkpoint"),
    ("training.train", "convcnp.training", "train"),
    ("training.evaluate", "convcnp.training", "evaluate"),
    ("oracle.task_ll", "convcnp.oracle", "gp_task_ll"),
)


def _count_tape(loss) -> int | None:
    """Nodes reachable from ``loss`` through ``_parents``, or None if unknown."""
    if not hasattr(loss, "_parents"):
        return None
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _counts(layer, args, kwargs, result, raised):
    """Work counts recorded at a span's boundary."""
    if layer == "embedding.embed":
        grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
        n = getattr(grid, "n_points", None)
        return None if n is None else {"grid_points": int(n)}
    if layer == "synthdata.gillespie_lv":
        times = getattr(result, "times", None)
        return None if times is None else {"events": len(times) - 1}
    if layer == "synthdata.lv_to_task":
        return {"rejected": int(raised)}
    return None


class Tracer:
    """Installs wrappers, records spans (name, start, end, parent, counts)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []  # (holder, attribute, original)
        self.missing: list = []  # targets not found, as "module.attribute"
        self._plan = self._resolve()
        found = {layer for layer, *_ in self._plan}
        self.absent = sorted({layer for layer, *_ in TARGETS} - found)

    def _resolve(self):
        plan = []
        for layer, module_name, attr in TARGETS:
            owner = sys.modules.get(module_name)
            name = attr
            if owner is not None and "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
            else:
                plan.append((layer, owner, name, original))
        return plan

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            extra = None
            if layer == "autodiff.backward" and args:
                nodes = _count_tape(args[0])
                extra = None if nodes is None else {"tape_nodes": nodes}
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result, raised = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                counts = extra or _counts(layer, args, kwargs, result, raised)
                spans[index] = (layer, start, end, parent, counts)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (name, start, time.perf_counter(), parent, None)

    def install(self):
        """Wrap every planned target, in every convcnp module that binds it."""
        modules = [m for n, m in sys.modules.items() if n.startswith("convcnp") and m]
        for layer, owner, name, original in self._plan:
            wrapper = self._wrap(layer, original)
            holders = [(owner, name)]
            if not isinstance(owner, type):
                holders += [
                    (m, a) for m in modules if m is not owner
                    for a, v in list(vars(m).items()) if v is original
                ]
            for holder, attr in holders:
                setattr(holder, attr, wrapper)
                self._patches.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as f:
            for i, (name, start, end, parent, counts) in enumerate(self.spans):
                doc = {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                if counts:
                    doc["counts"] = counts
                f.write(json.dumps(doc) + "\n")


def _child_time(spans):
    """Seconds each span spent inside its direct child spans."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return child_time


def layer_table(spans):
    """Per span name: calls, total ms and self ms (total minus child spans)."""
    child_time = _child_time(spans)
    table = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (end - start) * 1e3
        row[2] += (end - start - child_time[i]) * 1e3
    return table


def _ancestors(spans, i):
    names = []
    parent = spans[i][3]
    while parent >= 0:
        names.append(spans[parent][0])
        parent = spans[parent][3]
    return names


def per_layer_metrics(spans, absent_layers):
    """Derive the per-layer metrics (see README.md) from recorded spans.

    Forward-path metrics are per task forwarded inside timed blocks;
    backward and tape size are per training task; the LV sampler counters
    come from the fixed held-out set sampled during set-up, so they repeat
    exactly; oracle and checkpoint timings come from the checks.
    """
    child_time = _child_time(spans)
    acc: dict = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    for i, (name, start, end, parent, counts) in enumerate(spans):
        if name.startswith("bench."):
            continue
        up = _ancestors(spans, i)
        dur = (end - start) * 1e3
        own = dur - child_time[i] * 1e3
        in_block = "bench.train_block" in up or "bench.eval_block" in up
        in_setup = "bench.setup" in up
        if name == "synthdata.sample_task":
            add("sample_calls", 1)
            add("sample_ms", dur)
        elif name == "synthdata.gillespie_lv" and in_setup:
            add("lv_events", counts["events"] if counts else 0)
        elif name == "synthdata.lv_to_task" and in_setup:
            add("lv_attempts", 1)
            add("lv_accepted", 1 - counts["rejected"])
        elif not in_block:
            if name == "oracle.task_ll":
                add("oracle_calls", 1)
                add("oracle_ms", dur)
            elif name in ("autodiff.save_checkpoint", "autodiff.load_checkpoint"):
                add("ckpt_ms", dur)
                add("ckpt_rounds", name == "autodiff.save_checkpoint")
        elif name == "models.forward":
            add("tasks", 1)
            add("forward_ms", dur)
            if "bench.train_block" in up and "training.evaluate" not in up:
                add("train_tasks", 1)
            elif "training.train" in up:
                add("val_tasks", 1)
        elif name == "embedding.embed":
            add("embed_ms", own)
            add("grid_points", counts["grid_points"] if counts else 0)
        elif name == "kernels.psi_eval":
            add("psi_ms", own)
        elif name == "models.cnn_forward":
            add("cnn_ms", dur)
        elif name == "autodiff.conv":
            add("conv_ms", own)
            add("conv_calls", 1)
        elif name == "autodiff.backward":
            add("backward_ms", own)
            if counts:
                add("tape_nodes", counts["tape_nodes"])
        elif name == "autodiff.adam_step":
            add("adam_ms", own)
            add("adam_calls", 1)
        elif name == "training.evaluate" and "training.train" in up:
            add("val_ms", dur)

    def ratio(num, den):
        return acc.get(num, 0.0) / acc[den] if acc.get(den) else 0.0

    out = {}

    def put(name, unit, value, *layers):
        if not any(layer in absent_layers for layer in layers):
            out[name] = {"value": value, "unit": unit}

    put("synthdata.sample_task_ms", "ms/call", ratio("sample_ms", "sample_calls"),
        "synthdata.sample_task")
    put("synthdata.lv_events_per_task", "events/task",
        ratio("lv_events", "lv_accepted"), "synthdata.gillespie_lv", "synthdata.lv_to_task")
    put("synthdata.lv_accept_ratio", "ratio", ratio("lv_accepted", "lv_attempts"),
        "synthdata.lv_to_task")
    put("embedding.embed_ms", "ms/task", ratio("embed_ms", "tasks"), "embedding.embed")
    put("embedding.grid_points_per_task", "points/task",
        ratio("grid_points", "tasks"), "embedding.embed")
    put("kernels.psi_eval_ms", "ms/task", ratio("psi_ms", "tasks"), "kernels.psi_eval")
    put("models.forward_ms", "ms/task", ratio("forward_ms", "tasks"), "models.forward")
    put("models.cnn_forward_ms", "ms/task", ratio("cnn_ms", "tasks"), "models.cnn_forward")
    put("autodiff.conv_fwd_ms", "ms/task", ratio("conv_ms", "tasks"), "autodiff.conv")
    put("autodiff.conv_calls_per_task", "calls/task", ratio("conv_calls", "tasks"),
        "autodiff.conv")
    if "tape_nodes" in acc:  # absent when the tape's node type changes
        put("autodiff.tape_nodes_per_task", "nodes/task",
            ratio("tape_nodes", "train_tasks"), "autodiff.backward")
    put("autodiff.backward_ms", "ms/task", ratio("backward_ms", "train_tasks"),
        "autodiff.backward")
    put("autodiff.adam_step_ms", "ms/step", ratio("adam_ms", "adam_calls"),
        "autodiff.adam_step")
    put("training.validation_ms", "ms/task", ratio("val_ms", "val_tasks"),
        "training.evaluate")
    put("oracle.task_ll_ms", "ms/task", ratio("oracle_ms", "oracle_calls"), "oracle.task_ll")
    put("autodiff.checkpoint_roundtrip_ms", "ms", ratio("ckpt_ms", "ckpt_rounds"),
        "autodiff.save_checkpoint", "autodiff.load_checkpoint")
    return out
