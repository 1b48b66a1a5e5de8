"""Spans around the program's layers, recorded from outside the program.

A ``Tracer`` replaces public functions and methods of the ``jointslu``
modules, at the attribute each caller looks up, with wrappers that record one
span per call: layer name, start, end, parent span, and the unit of work the
call belongs to (a training step, an eval pass or a predict request). While
the benchmark has a tape open it also records the tape's node count at both
ends of the span, so every layer's share of the tape is a node-index range.
Garbage-collector pauses are recorded through ``gc.callbacks``.

Nothing is wrapped until ``install`` and everything is restored by
``uninstall``; untraced runs never call either.
"""

from __future__ import annotations

import functools
import gc
import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, layer). A module appears once per namespace a
# caller reads the function from: training imports pad_batch and build_model
# by name, so those are wrapped there as well as at their home module.
WRAPPED = [
    ("jointslu.data", "pad_batch", "data.pad_batch"),
    ("jointslu.training", "pad_batch", "data.pad_batch"),
    ("jointslu.encoder", "encode_batch", "encoder.encode_batch"),
    ("jointslu.interaction", "intuitive_slot_decode", "interaction.slot_intuitive"),
    ("jointslu.interaction", "rational_intent_decode", "interaction.intent_rational"),
    ("jointslu.interaction", "intuitive_intent_decode", "interaction.intent_intuitive"),
    ("jointslu.interaction", "rational_slot_decode", "interaction.slot_rational"),
    ("jointslu.cooperation", "gate", "cooperation.gate"),
    ("jointslu.cooperation", "fuse", "cooperation.fuse"),
    ("jointslu.cooperation", "fuse_slot", "cooperation.fuse"),
    ("jointslu.cooperation", "fuse_intent", "cooperation.fuse"),
    ("jointslu.cooperation", "predict", "cooperation.predict"),
    ("jointslu.model", "JointModel.forward", "model.forward"),
    ("jointslu.training", "build_model", "model.build_model"),
    ("jointslu.training", "batch_loss", "training.batch_loss"),
    ("jointslu.autodiff", "backward", "autodiff.backward"),
    ("jointslu.training", "Adam.step", "training.adam_step"),
    ("jointslu.training", "evaluate_model", "training.evaluate_model"),
    ("jointslu.metrics", "compute_report", "metrics.compute_report"),
    ("jointslu.training", "load_checkpoint", "training.load_checkpoint"),
    ("jointslu.training", "Checkpoint.build_model", "training.checkpoint_build"),
    ("jointslu.cli", "main", "cli.predict"),
]

# span fields
NAME, START, END, PARENT, UNIT, NESTED, NODES0, NODES1 = range(8)

GEMM_OPS = ("linear", "matmul", "matmul_nt")


class Tracer:
    """Records spans and GC pauses in memory; ``dump`` writes them out."""

    def __init__(self):
        self.spans: list[list] = []
        self.gc_pauses: list[tuple[str | None, float, float]] = []
        self.unit: str | None = None   # e.g. "step:17"; set by the workload
        self.tape = None               # the Tape now recording, if any
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for module_name, path, layer in WRAPPED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _nodes(self) -> int:
        return len(self.tape.nodes) if self.tape is not None else 0

    def _wrap(self, layer: str, fn):
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n0 = self._nodes()
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.unit,
                    active[layer] > 0, n0, n0]
            stack.append(len(spans))
            spans.append(span)
            active[layer] += 1
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                active[layer] -= 1
                stack.pop()
                span[NODES1] = self._nodes()

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_pauses.append((self.unit, self._gc_start, perf_counter()))

    # -- summarising ------------------------------------------------------

    def layer_table(self, units: set[str]) -> dict[str, dict[str, float]]:
        """Per layer, totals over the spans of ``units``: inclusive ms (outermost
        span of the layer only), self ms (minus direct children) and tape nodes
        recorded inside the layer."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_s[s[PARENT]] += s[END] - s[START]
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"ms": 0.0, "self_ms": 0.0, "nodes": 0, "calls": 0})
        for i, s in enumerate(self.spans):
            if s[UNIT] not in units:
                continue
            row = table[s[NAME]]
            dur = s[END] - s[START]
            row["self_ms"] += (dur - child_s[i]) * 1e3
            if not s[NESTED]:
                row["ms"] += dur * 1e3
                row["nodes"] += s[NODES1] - s[NODES0]
                row["calls"] += 1
        return dict(table)

    def gc_totals(self, units: set[str]) -> tuple[float, int]:
        pauses = [end - start for unit, start, end in self.gc_pauses if unit in units]
        return sum(pauses) * 1e3, len(pauses)

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "unit", "nested",
                       "nodes_before", "nodes_after"],
            "spans": self.spans,
            "gc_pauses": self.gc_pauses,
        }


def tape_stats(tape) -> dict:
    """Counts computed from the recorded nodes' shapes (not timed): nodes,
    linear calls, GEMM GFLOP for forward plus the backward products the
    inputs need, MB held in node outputs, and a histogram of op names."""
    flop = 0
    out_bytes = 0
    ops: Counter = Counter()
    for node in tape.nodes:
        ops[node.name] += 1
        out_bytes += node.out.values.nbytes
        if node.name in GEMM_OPS:
            a, b = node.inputs[0], node.inputs[1]
            m, k = a.values.shape
            n = b.values.shape[1] if node.name == "matmul" else b.values.shape[0]
            per_product = 2 * m * k * n
            flop += per_product * (1 + a.requires_grad + b.requires_grad)
    return {"tape_nodes": len(tape.nodes), "linear_calls": ops["linear"],
            "gemm_gflop": flop / 1e9, "tape_mb": out_bytes / 2**20, "ops": ops}
