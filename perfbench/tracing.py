"""In-memory span tracer that wraps the program's public entry points.

Nothing under ``src/`` is edited: :func:`install` swaps module attributes for
timing wrappers, and the ``restore()`` method of what it returns puts the
originals back. Every wrapped call becomes a span (name, start, end, parent);
spans stay in memory and are written out once, at the end of the run.

Autodiff ops get two spans each: ``autodiff.<op>.fwd`` around the op function
and ``autodiff.<op>.bwd`` around the backward closure it records on the tape
(``Tape.record`` is wrapped to substitute a timed closure).
"""

from __future__ import annotations

import inspect
import json
import time
import weakref
from collections import defaultdict

import numpy as np

# The 16 autodiff ops at the time the benchmark was defined. Ops added later
# are traced too (any public autodiff function whose first parameter is
# ``tape``), but only these have named per-layer metrics.
AUTODIFF_OPS = (
    "add", "sub", "mul", "matmul", "reshape", "transpose", "embedding", "first_rows",
    "select_cls", "layer_norm", "gelu", "masked_softmax", "dropout", "mean_all",
    "logsumexp_rows", "gather_rows",
)  # fmt: skip

NO_PARENT = -1


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.active = True
        self.closures_recorded = 0
        self.closures_run = 0
        self.backward_calls = 0
        self.backward_nodes = 0  # closures recorded on tapes that were backpropagated
        self.rows_touched: list[float] = []  # per training embedding lookup
        self._tape_nodes: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def begin(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else NO_PARENT]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        """Write spans as {"names": [...], "spans": [[name_idx, start_ns, end_ns, parent], ...]}."""
        names: dict[str, int] = {}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [names.setdefault(n, len(names)), round((s - t0) * 1e9), round((e - t0) * 1e9), p]
            for n, s, e, p in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))


class _Patches:
    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _autodiff_ops(ad) -> list[str]:
    ops = []
    for name, fn in vars(ad).items():
        if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != ad.__name__:
            continue
        params = list(inspect.signature(fn).parameters)
        if params and params[0] == "tape":
            ops.append(name)
    return ops


def install(tracer: Tracer) -> _Patches:
    """Wrap the program's entry points; call ``.restore()`` on the result to undo."""
    from miniaffect import augment, data, ensemble, metrics, optim, predictions, text
    from miniaffect import train as mt
    from miniaffect.nn import autodiff as ad
    from miniaffect.nn import encoder, losses

    patches = _Patches()

    def wrap_all(modules, attr: str, name: str) -> None:
        original = getattr(modules[0], attr)
        wrapped = tracer.wrap(original, name)
        for module in modules:
            if getattr(module, attr, None) is original:
                patches.set(module, attr, wrapped)

    for op in _autodiff_ops(ad):
        fwd = tracer.wrap(getattr(ad, op), f"autodiff.{op}.fwd")
        if op == "embedding":
            fwd = _count_rows(tracer, fwd)
        patches.set(ad, op, fwd)

    original_record = ad.Tape.record

    def record(tape, out, backward):
        if tracer.active:
            op = tracer.current()
            name = op[:-4] + ".bwd" if op and op.endswith(".fwd") else "autodiff.unknown.bwd"
            backward = _timed_closure(tracer, backward, name)
            tracer.closures_recorded += 1
            tracer._tape_nodes[tape] = tracer._tape_nodes.get(tape, 0) + 1
        original_record(tape, out, backward)

    patches.set(ad.Tape, "record", record)

    original_backward = ad.Tape.backward
    traced_backward = tracer.wrap(original_backward, "autodiff.backward")

    def backward(tape, loss):
        if tracer.active:
            tracer.backward_calls += 1
            tracer.backward_nodes += tracer._tape_nodes.pop(tape, 0)
        return traced_backward(tape, loss)

    patches.set(ad.Tape, "backward", backward)
    patches.set(optim.AdamW, "step", tracer.wrap(optim.AdamW.step, "optim.step"))

    for attr, name in (("forward", "encoder.forward"), ("head_apply", "encoder.head"), ("run_model", "encoder.run_model")):
        wrap_all([encoder, mt], attr, name)
    for attr in ("loss_mse", "loss_multitask", "loss_cross_entropy"):
        wrap_all([losses, mt], attr, "losses.loss")
    for attr, name in (
        ("train", "train.train"),
        ("predict", "train.predict"),
        ("make_batches", "train.make_batches"),
        ("encode_dataset", "text.encode"),
        ("save_checkpoint", "train.checkpoint_save"),
        ("load_checkpoint", "train.checkpoint_load"),
    ):
        wrap_all([mt], attr, name)
    wrap_all([data], "load_task_tsv", "data.load")
    wrap_all([data], "load_pool_tsv", "data.load")
    wrap_all([augment], "balanced_augment", "augment.balanced")
    wrap_all([text], "build_vocab", "text.build_vocab")
    wrap_all([text], "load_vocab", "text.load_vocab")
    wrap_all([predictions], "write_predictions", "predictions.write")
    wrap_all([predictions], "read_predictions", "predictions.read")
    wrap_all([ensemble], "ensemble_classification", "ensemble.combine")
    wrap_all([metrics], "build_report", "metrics.report")
    return patches


def _timed_closure(tracer: Tracer, fn, name: str):
    def timed(g):
        tracer.closures_run += 1
        span = tracer.begin(name)
        try:
            fn(g)
        finally:
            tracer.end(span)

    return timed


def _count_rows(tracer: Tracer, traced_embedding):
    def embedding(tape, table, ids):
        out = traced_embedding(tape, table, ids)
        if tracer.active and tape.rng is not None:  # training-mode tapes only
            tracer.rows_touched.append(len(np.unique(ids)) / table.value.shape[0])
        return out

    return embedding


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover.

    Children are clipped to their parent's interval and merged before
    subtracting, so overlapping or out-of-range children are never counted
    twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent != NO_PARENT:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start  # children sorted by start: everything before reach is counted
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(max(0.0, (end - start) - covered))
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """name -> {"calls", "self_s", "total_s"} (total is inclusive duration)."""
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for span, self_s in zip(spans, self_times(spans)):
        row = table[span[0]]
        row["calls"] += 1
        row["self_s"] += self_s
        row["total_s"] += span[2] - span[1]
    return dict(table)


def inclusive_under(spans, name: str, ancestor: str) -> float:
    """Summed duration of ``name`` spans that have an ``ancestor`` span above them."""
    inside = [False] * len(spans)
    total = 0.0
    for idx, (span_name, start, end, parent) in enumerate(spans):
        if parent != NO_PARENT:
            inside[idx] = inside[parent] or spans[parent][0] == ancestor
        if span_name == name and inside[idx]:
            total += end - start
    return total


# per-layer metric -> the span name whose summed self time it reports
_SELF_TIME_METRICS = {
    "autodiff.backward_s": "autodiff.backward",
    "encoder.forward_s": "encoder.forward",
    "encoder.head_s": "encoder.head",
    "encoder.run_model_s": "encoder.run_model",
    "optim.step_s": "optim.step",
    "losses.loss_s": "losses.loss",
    "train.make_batches_s": "train.make_batches",
    "train.self_s": "train.train",
    "train.predict_s": "train.predict",
    "data.load_s": "data.load",
    "augment.balanced_s": "augment.balanced",
    "text.build_vocab_s": "text.build_vocab",
    "text.load_vocab_s": "text.load_vocab",
    "text.encode_s": "text.encode",
    "train.checkpoint_load_s": "train.checkpoint_load",
    "train.checkpoint_save_s": "train.checkpoint_save",
    "predictions.write_s": "predictions.write",
    "predictions.read_s": "predictions.read",
    "ensemble.combine_s": "ensemble.combine",
    "metrics.report_s": "metrics.report",
}


def per_layer_units(end_to_end_units: dict[str, str]) -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for op in AUTODIFF_OPS:
        units[f"autodiff.{op}.fwd_s"] = "s"
        units[f"autodiff.{op}.bwd_s"] = "s"
        units[f"autodiff.{op}.calls"] = "count"
    units.update(dict.fromkeys(_SELF_TIME_METRICS, "s"))
    units["train.dev_eval_s"] = "s"
    units["autodiff.nodes_per_step"] = "count"
    units["autodiff.backward_used_ratio"] = "ratio"
    units["autodiff.embedding.rows_touched_ratio"] = "ratio"
    units["optim.steps"] = "count"
    units["trace.spans"] = "count"
    # the traced run's own end-to-end figures; against an untraced run's they
    # give the tracing overhead
    units.update({f"traced.{name}": unit for name, unit in end_to_end_units.items()})
    return units


def layer_metrics(tracer: Tracer, table: dict, end_to_end: dict[str, float], end_to_end_units: dict[str, str]) -> dict[str, float]:
    """Per-layer metric values from the run's spans, their summary table and counters."""
    spans = tracer.spans

    def self_s(name: str) -> float:
        return table[name]["self_s"] if name in table else 0.0

    def calls(name: str) -> int:
        return table[name]["calls"] if name in table else 0

    values: dict[str, float] = {}
    for op in AUTODIFF_OPS:
        values[f"autodiff.{op}.fwd_s"] = self_s(f"autodiff.{op}.fwd")
        values[f"autodiff.{op}.bwd_s"] = self_s(f"autodiff.{op}.bwd")
        values[f"autodiff.{op}.calls"] = calls(f"autodiff.{op}.fwd")
    for metric, span_name in _SELF_TIME_METRICS.items():
        values[metric] = self_s(span_name)
    # model time of the per-epoch dev evaluation inside train()
    values["train.dev_eval_s"] = inclusive_under(spans, "encoder.run_model", "train.train")
    values["autodiff.nodes_per_step"] = tracer.backward_nodes / max(tracer.backward_calls, 1)
    # nothing recorded means nothing wasted
    values["autodiff.backward_used_ratio"] = (
        tracer.closures_run / tracer.closures_recorded if tracer.closures_recorded else 1.0
    )
    values["autodiff.embedding.rows_touched_ratio"] = float(np.mean(tracer.rows_touched)) if tracer.rows_touched else 0.0
    values["optim.steps"] = calls("optim.step")
    values["trace.spans"] = len(spans)
    values.update({f"traced.{name}": value for name, value in end_to_end.items()})
    return {name: values[name] for name in per_layer_units(end_to_end_units)}


def format_table(by_name: dict[str, dict[str, float]]) -> str:
    """Per-span-name table, largest self time first."""
    total = sum(row["self_s"] for row in by_name.values()) or 1.0
    lines = [f"  {'span':36s} {'calls':>9s} {'self s':>10s} {'self %':>7s} {'incl s':>10s}"]
    for name, row in sorted(by_name.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(
            f"  {name:36s} {row['calls']:9d} {row['self_s']:10.4f} {100 * row['self_s'] / total:6.1f}% {row['total_s']:10.4f}"
        )
    return "\n".join(lines)
