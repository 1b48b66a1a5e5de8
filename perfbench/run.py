"""Benchmark of jointslu: train_small, train_paper and infer_paper.

Run from the repository root:

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps the program's layers (see tracer.py) and reports the
per-layer metrics instead. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The full result, with its context and (when traced) the
spans, is written under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train_small", "train_paper", "infer_paper")

# per-layer metric -> unit; the order is the order of BENCHMARK.json
PER_LAYER_UNITS = {
    "autodiff.tape_nodes": "count",
    "autodiff.backward.ms": "ms",
    "autodiff.linear_calls": "count",
    "autodiff.gemm_gflop": "GFLOP",
    "autodiff.tape_mb": "MB",
    "training.adam_step.ms": "ms",
    "encoder.encode_batch.ms": "ms",
    "encoder.nodes": "count",
    "interaction.slot_intuitive.ms": "ms",
    "interaction.intent_rational.ms": "ms",
    "interaction.intent_intuitive.ms": "ms",
    "interaction.slot_rational.ms": "ms",
    "interaction.nodes": "count",
    "cooperation.gate.ms": "ms",
    "cooperation.fuse.ms": "ms",
    "cooperation.predict.ms": "ms",
    "cooperation.nodes": "count",
    "training.batch_loss.ms": "ms",
    "training.loss.nodes": "count",
    "model.forward.ms": "ms",
    "model.forward.self_ms": "ms",
    "training.load_checkpoint.ms": "ms",
    "training.checkpoint_build.ms": "ms",
    "model.build_model.ms": "ms",
    "cli.predict.self_ms": "ms",
    "data.pad_batch.ms": "ms",
    "metrics.compute_report.ms": "ms",
    "training.evaluate_model.ms": "ms",
    "eval.model.forward.ms": "ms",
    "python.gc_ms": "ms",
    "python.gc_collections": "count",
    "trace_overhead_frac": "frac",
}
# node counts summed over a group of layers
NODE_GROUPS = {
    "encoder.nodes": ("encoder.encode_batch",),
    "interaction.nodes": ("interaction.slot_intuitive", "interaction.intent_rational",
                          "interaction.intent_intuitive", "interaction.slot_rational"),
    "cooperation.nodes": ("cooperation.gate", "cooperation.fuse", "cooperation.predict"),
    "training.loss.nodes": ("training.batch_loss",),
}
# metrics taken per evaluation pass; the rest are per step or per predict request
PER_EVAL_PASS = {"training.evaluate_model.ms", "metrics.compute_report.ms",
                 "eval.model.forward.ms"}


def cap_blas_threads() -> None:
    """BLAS may use at most one thread per core this process may run on."""
    for var in BLAS_ENV:
        raw = os.environ.get(var, "")
        want = int(raw) if raw.isdigit() and 1 <= int(raw) <= NPROC else NPROC
        os.environ[var] = str(want)


def openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if found."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, encoding="utf-8") as f:
        head = f.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "jointslu")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def context() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "blas_threads_env": {var: os.environ[var] for var in BLAS_ENV},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rec) -> dict[str, tuple[float, str]]:
    op_total = sum(rec.op_s)
    return {
        "setup_s": (statistics.median(rec.setup_s), "s"),
        "op_ms_p50": (statistics.median(rec.op_s) * 1e3, "ms"),
        "op_utt_per_s": (rec.op_utts * len(rec.op_s) / op_total, "1/s"),
        "eval_utt_per_s": (statistics.median(rec.eval_utts / t for t in rec.eval_s), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def row(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<18} {value:12.4f} {unit:<5} {note}".rstrip()


def report_lines(rec) -> list[str]:
    """The end-to-end figures under their per-workload names, with sample counts."""
    ms = [t * 1e3 for t in rec.op_s]
    n = len(ms)
    op = rec.op_name
    e2e = end_to_end(rec)
    lines = [
        row("setup_s", e2e["setup_s"][0], "s", f"median of {len(rec.setup_s)} set-ups"),
        row("train_utt_per_s" if op == "step" else "predict_utt_per_s",
            e2e["op_utt_per_s"][0], "1/s",
            f"{rec.op_utts} utterance(s) x {n} {op}s / their summed time"),
        row(f"{op}_ms_p50", e2e["op_ms_p50"][0], "ms", f"n={n}"),
        row(f"{op}_ms_p90", statistics.quantiles(ms, n=10, method="inclusive")[8], "ms",
            f"n={n}") if n >= 100
        else f"  {op}_ms_p90 not reported: n={n} < 100",
        row("eval_utt_per_s", e2e["eval_utt_per_s"][0], "1/s",
            f"median of {len(rec.eval_s)} passes of {rec.eval_utts} utterances"),
        row("peak_rss_mb", e2e["peak_rss_mb"][0], "MB"),
        row("failed_frac", len(rec.failures) / rec.attempted, "frac",
            f"{len(rec.failures)} failed of {rec.attempted} operations attempted"),
    ]
    return lines


def per_layer(rec, tracer) -> tuple[dict[str, float], dict]:
    units, eval_units = rec.traced_units, rec.traced_eval_units
    n, n_eval = len(units), len(eval_units)
    table = tracer.layer_table(units)
    eval_table = tracer.layer_table(eval_units)
    get = lambda t, layer, key: t.get(layer, {}).get(key, 0.0)
    values: dict[str, float] = {}
    for metric in PER_LAYER_UNITS:
        layer, _, key = metric.rpartition(".")
        if metric in NODE_GROUPS:
            values[metric] = sum(get(table, g, "nodes") for g in NODE_GROUPS[metric]) / n
        elif metric in PER_EVAL_PASS:
            values[metric] = get(eval_table, layer.removeprefix("eval."), key) / n_eval
        elif key in ("ms", "self_ms"):
            values[metric] = get(table, layer, key) / n
    for key in ("tape_nodes", "linear_calls", "gemm_gflop", "tape_mb"):
        values[f"autodiff.{key}"] = sum(t[key] for t in rec.tape) / n
    gc_ms, gc_count = tracer.gc_totals(units)
    values["python.gc_ms"] = gc_ms / n
    values["python.gc_collections"] = gc_count / n
    values["trace_overhead_frac"] = (statistics.median(rec.traced_op_s)
                                     / statistics.median(rec.op_s) - 1.0)
    ops = sum((t["ops"] for t in rec.tape), Counter())
    shapes = sorted({(tuple(t["batch"]), t["tape_nodes"]) for t in rec.tape})
    detail = {"units": n, "eval_units": n_eval, "layers": table, "eval_layers": eval_table,
              "ops_per_step": {k: v / n for k, v in ops.most_common()},
              "nodes_by_batch_shape": [[list(s), nodes] for s, nodes in shapes]}
    return values, detail


def layer_lines(values: dict[str, float], detail: dict, op_name: str) -> list[str]:
    lines = [f"  per-layer figures: per {op_name} over {detail['units']} traced {op_name}s, "
             f"eval.* / evaluate_model / compute_report per pass over "
             f"{detail['eval_units']} traced passes;",
             "  autodiff tape_nodes, linear_calls, gemm_gflop and tape_mb are computed from "
             "the recorded nodes' shapes, not timed"]
    for metric, unit in PER_LAYER_UNITS.items():
        lines.append(f"  {metric:<32} {values[metric]:12.4f} {unit}")
    if detail["ops_per_step"]:
        top = ", ".join(f"{k} {v:.1f}" for k, v in list(detail["ops_per_step"].items())[:12])
        lines.append(f"  tape ops per step: {top}")
        for shape, nodes in detail["nodes_by_batch_shape"]:
            lines.append(f"  tape nodes for a {shape[0]}x{shape[1]} batch: {nodes}")
    return lines


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "jointslu", "__init__.py")):
        print(f"error: the jointslu sources are not in {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, SRC)
    import workloads
    from tracer import Tracer

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        rec = workloads.run_workload(args.workload, args.seed, args.seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ctx = context()
    header = (f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
              f"trace {args.trace}  (closed loop, one client)")
    lines = [header, "  context " + json.dumps(ctx)]
    if rec.losses:
        first = workloads.TRAIN_SHAPES[args.workload].steps_per_eval
        lines.append(f"  loss digest: first {first} steps {rec.loss_digest(first)}, "
                     f"all {len(rec.losses)} steps {rec.loss_digest()}")
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": ctx, "failures": rec.failures[:20]}
    if args.trace:
        values, detail = per_layer(rec, tracer)
        metrics = {m: {"value": values[m], "unit": u} for m, u in PER_LAYER_UNITS.items()}
        lines += layer_lines(values, detail, rec.op_name)
        result.update(detail=detail, trace=tracer.dump())
    else:
        metrics = {m: {"value": v, "unit": u} for m, (v, u) in end_to_end(rec).items()}
        lines += report_lines(rec)
        result.update(op_s=rec.op_s, eval_s=rec.eval_s, setup_s=rec.setup_s)
    for failure in rec.failures[:5]:
        lines.append(f"  FAILED: {failure}")
    summary = {"correct": not rec.failures, "attempted": rec.attempted,
               "failed": len(rec.failures), "metrics": metrics}
    result["summary"] = summary
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    lines.append(f"  full result: {os.path.relpath(path, ROOT)}")
    print("\n".join(lines))
    print(json.dumps(summary), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, one after another, so that
    peak memory is per workload."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
