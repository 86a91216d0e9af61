"""gmkit benchmark driver.

Usage, from the root of a gmkit checkout:

    python3 perfbench/run.py --workload enroll --seed 1 --seconds 15 --trace 0

Runs the workload in a fresh child process (``child.py``), checks its
outputs, and prints one JSON line of run metadata followed by the result
line ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the workload runs traced and the metrics are the per-layer
ones, including the tracing overhead.  Exits nonzero without a result when
the checkout has no gmkit sources or the child fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
TIME_LIMIT_S = 175

# Operation kinds in the order per-layer metrics look for them: a metric is
# the mean per operation of the first kind whose operations do that work, and
# 0 when none does.  The benchmark's own checks (kind ``check``) never count.
KIND_ORDER = {
    "enroll": ("train", "eval", "store", "setup", "selfcheck"),
    "verify-batch": ("eval", "setup"),
    "protocol-session": ("query", "setup"),
}
# The timed operation kinds, whose traced time the layer self-shares split.
TIMED_KINDS = {"enroll": ("train", "eval"), "verify-batch": ("eval",), "protocol-session": ("query",)}

LAYERS = ("bench", "cli", "core", "data", "evaluation", "learning", "modelio", "protocol")
# Spans that only give structure: train and run_protocol hold the step and
# round spans, and cli.main is reported as its self time.
UNREPORTED_SPANS = ("learning.train", "protocol.run", "cli.main")


def nearest_rank(values: list, q: float) -> float:
    """The q-quantile by nearest rank: at n = 200, q = 0.95 leaves 10 samples above."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(raw: dict) -> dict:
    """End-to-end metric values from one untraced child's raw samples."""
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "train_s": statistics.median(raw["train_s"]),
        "eval_qps": (statistics.median(raw["eval_qps"]) if raw["eval_qps"]
                     else 1e3 * len(raw["query_ms"]) / sum(raw["query_ms"])),
        "query_p50_ms": statistics.median(raw["query_ms"]),
        "query_p95_ms": nearest_rank(raw["query_ms"], 0.95),
        "wire_bytes_per_query": statistics.fmean(raw["wire_bytes"]),
        "peak_rss_mib": raw["peak_rss_mib"],
        **raw["quality"],
        "success_rate": 1.0 - raw["failed"] / raw["attempted"],
    }


def _per_operation(workload: str, traces: dict, read) -> float:
    """Mean of ``read(trace)`` over the operations of the first kind where it is nonzero."""
    for kind in KIND_ORDER[workload]:
        values = [read(t) for t in traces.values() if t["kind"] == kind]
        if any(values):
            return statistics.fmean(values)
    return 0.0


def per_layer(workload: str, traced: dict) -> dict:
    """Per-layer metric values from the traced child, plus the tracing overhead."""
    traces = traced["traces"]
    metrics = {}
    for name in (span for _, _, span in tracing.SPANNED if span not in UNREPORTED_SPANS):
        metrics[f"{name}_s"] = _per_operation(workload, traces, lambda t, n=name: t["inclusive"].get(n, 0.0))
    metrics["cli.self_s"] = _per_operation(workload, traces, lambda t: t["self"].get("cli.main", 0.0))
    metrics["core.ternarize_columns_calls"] = _per_operation(
        workload, traces, lambda t: t["calls"].get("core.ternarize_columns", 0))
    metrics["learning.outer_iters"] = _per_operation(workload, traces, lambda t: t["calls"].get("learning.objective", 0))
    for name in [counter for _, _, counter in tracing.COUNTED] + ["learning.kmeans_iters"]:
        metrics[name] = _per_operation(workload, traces, lambda t, n=name: t["counts"].get(n, 0))
    train_s = _per_operation(workload, traces, lambda t: t["train_s"])
    steps_s = _per_operation(workload, traces, lambda t: t["train_steps_s"])
    metrics["learning.step_coverage"] = steps_s / train_s if train_s else 0.0

    timed = [t for t in traces.values() if t["kind"] in TIMED_KINDS[workload]]
    timed_s = sum(t["root_s"] for t in timed)
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_share"] = sum(t["layer_self"].get(layer, 0.0) for t in timed) / timed_s

    rounds = traced["round_bytes"]
    for k in range(5):
        metrics[f"protocol.round{k + 1}_bytes"] = statistics.fmean(r[k] if k < len(r) else 0 for r in rounds)
    metrics["protocol.limbs_per_value"] = statistics.fmean(traced["limbs_per_value"])
    # Repeats of the timed operation (an evaluation pass, an eval-verify call,
    # a query) ran alternately with and without the wrappers in this child.
    repeat_s = traced["repeat_s"]
    metrics["trace.overhead_share"] = (statistics.median(repeat_s["traced"]) / statistics.median(repeat_s["untraced"])
                                       - 1.0 if repeat_s["traced"] and repeat_s["untraced"] else 0.0)
    return metrics


def run_child(args, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size, "--out-root", args.out_root]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{args.workload} child (trace={args.trace}) ran past the {TIME_LIMIT_S} s limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{args.workload} child (trace={args.trace}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree; git does not look above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(".")))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def metadata(args, raw: dict) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "cpu_count": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas_name,
        "blas_threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                        "MKL_NUM_THREADS")},
        "git_sha": _git_sha(),
        "samples": {"setup": len(raw["setup_s"]), "train": len(raw["train_s"]), "eval": len(raw["eval_qps"]),
                    "query_latency": len(raw["query_ms"]), "wire": len(raw["wire_bytes"])},
        "info": raw["info"], "failures": raw["failures"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=tuple(KIND_ORDER))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shapes are for the smoke test only")
    parser.add_argument("--out-root", default=".perfbench-out",
                        help="directory for span dumps, the digest store and scratch files")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "gmkit", "__init__.py")):
        print("no gmkit sources under ./src; run from the root of a gmkit checkout", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(args.out_root, exist_ok=True)

    raw = run_child(args, time.monotonic() + TIME_LIMIT_S)
    if args.trace:
        values, listed = per_layer(args.workload, raw), spec["per_layer"]
    else:
        values, listed = end_to_end(raw), spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    meta = metadata(args, raw)
    if args.trace:
        meta["unwrapped"] = raw["info"]["unwrapped"]
        meta["samples"]["overhead_repeats"] = {k: len(v) for k, v in raw["repeat_s"].items()}
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": raw["failed"] == 0, "attempted": raw["attempted"], "failed": raw["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
