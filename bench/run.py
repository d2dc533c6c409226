"""qvn benchmark: one workload, measured end to end or layer by layer.

    python3 bench/run.py --workload run_demo --seed 1 --seconds 25 --trace 0

Runs PARTS worker processes one after another, each single-threaded (BLAS
pinned to one thread) with its share of `--seconds` of operation time, and
prints as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
ones (ops_per_s, setup_s, peak_rss_mb); with `--trace 1` the workers wrap
the qvn layers and the metrics are the per-layer ones, per operation. The
full report, with every traced layer, is also written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from calibrate import NOMINAL_CHUNKS_PER_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("run_demo", "compose_wide", "topo_ring")

# Each part is a fresh process with its own set-up, so one run measures
# set-up PARTS times; setup_s is their median.
PARTS = 4
DEADLINE_S = 170.0  # every run ends within 180 s
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # the benchmark writes no bytecode; worker.py compiles qvn from source
    "PYTHONDONTWRITEBYTECODE": "1",
}

# (metric, unit, traced layer, field); field is an index into the layer's
# [calls, total s, self s] totals, each reported per operation.
LAYER_METRICS = (
    ("cli.parse_run_file.ms", "ms/op", "cli.parse_run_file", 1),
    ("cli.parse_diagram.ms", "ms/op", "cli.parse_diagram", 1),
    ("control.execute.self_ms", "ms/op", "control.execute", 2),
    ("memory.synthesize.calls", "calls/op", "memory.synthesize", 0),
    ("memory.synthesize.ms", "ms/op", "memory.synthesize", 1),
    ("memory.MemoryUnit.restore.calls", "calls/op", "memory.MemoryUnit.restore", 0),
    ("memory.MemoryUnit.fetch_consume.calls", "calls/op", "memory.MemoryUnit.fetch_consume", 0),
    ("memory.MemoryUnit.verify_conservation.ms", "ms/op", "memory.MemoryUnit.verify_conservation", 1),
    ("uqt.stored_program.calls", "calls/op", "uqt.stored_program", 0),
    ("uqt.stored_program.self_ms", "ms/op", "uqt.stored_program", 2),
    ("uqt.compose.self_ms", "ms/op", "uqt.compose", 2),
    ("uqt.symmetric_decompose.ms", "ms/op", "uqt.symmetric_decompose", 1),
    ("uqt.bell_measure_pair.calls", "calls/op", "uqt.bell_measure_pair", 0),
    ("uqt.bell_measure_pair.ms", "ms/op", "uqt.bell_measure_pair", 1),
    ("duality.choi_of_unitary.ms", "ms/op", "duality.choi_of_unitary", 1),
    ("kernel.DensityOperator.ms", "ms/op", "kernel.DensityOperator", 1),
    ("kernel.eig_unitary.ms", "ms/op", "kernel.eig_unitary", 1),
    ("kernel.apply_to_subsystems.calls", "calls/op", "kernel.apply_to_subsystems", 0),
    ("kernel.apply_to_subsystems.ms", "ms/op", "kernel.apply_to_subsystems", 1),
    ("kernel.measure_wire_computational.calls", "calls/op", "kernel.measure_wire_computational", 0),
    ("tailed.inject.calls", "calls/op", "tailed.inject", 0),
    ("tailed.inject.self_ms", "ms/op", "tailed.inject", 2),
    ("tailed.eval_topological.ms", "ms/op", "tailed.eval_topological", 1),
    ("qec.logical_compose.ms", "ms/op", "qec.logical_compose", 1),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True, help="operation time measured per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be between 1 and 60")
    return args


def run_part(args, part, deadline):
    spawned = time.monotonic()
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload, "--seed", str(args.seed), "--part", str(part),
        "--seconds", repr(args.seconds / PARTS), "--trace", str(args.trace),
        "--spawned", repr(spawned),
    ]
    env = dict(os.environ, **BLAS_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        print(f"worker {part} did not finish before the run deadline", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"worker {part} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_speed(parts):
    """Calibration rate of the given workers relative to the nominal host."""
    chunks = sum(p["calibration_chunks"] for p in parts)
    seconds = sum(p["calibration_s"] for p in parts)
    return chunks / seconds / NOMINAL_CHUNKS_PER_S


def per_op_layers(parts, attempted):
    """Sum the workers' raw layer totals and express them per operation."""
    totals = {}
    for part in parts:
        for name, (calls, total_s, self_s) in part["layers"].items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total_s
            acc[2] += self_s
    return {
        name: {"calls": c / attempted, "ms": t * 1e3 / attempted, "self_ms": s * 1e3 / attempted}
        for name, (c, t, s) in sorted(totals.items())
    }


def layer_metrics(layers, ops_per_s):
    metrics = {}
    for metric, unit, layer, field in LAYER_METRICS:
        entry = layers[layer]
        value = (entry["calls"], entry["ms"], entry["self_ms"])[field]
        metrics[metric] = {"value": value, "unit": unit}
    fetches = layers["memory.MemoryUnit.fetch_consume"]["calls"]
    syntheses = layers["memory.synthesize"]["calls"]
    compositions = layers["uqt.compose"]["calls"] + layers["qec.logical_compose"]["calls"]
    bell_rounds = layers["uqt.bell_measure_pair"]["calls"]
    # ratios of attempts to useful outcomes; 0 where the layer saw no outcome
    metrics["memory.syntheses_per_fetch"] = {
        "value": syntheses / fetches if fetches else 0.0, "unit": "ratio"}
    metrics["uqt.bell_rounds_per_composition"] = {
        "value": bell_rounds / compositions if compositions else 0.0, "unit": "ratio"}
    metrics["trace.ops_per_s"] = {"value": ops_per_s, "unit": "1/s"}
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qvn", "__init__.py")):
        print(f"no qvn sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    parts = []
    for part in range(PARTS):
        result = run_part(args, part, deadline)
        if result is None:
            return 1
        parts.append(result)

    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    wall_ops_per_s = (attempted - failed) / sum(p["timed_s"] for p in parts)
    speed = host_speed(parts)
    ops_per_s = wall_ops_per_s / speed
    report = {
        "correct": all(p["correct"] for p in parts),
        "attempted": attempted,
        "failed": failed,
    }
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "wall_ops_per_s": wall_ops_per_s, "host_speed": speed,
              "parts": parts}
    if args.trace:
        layers = per_op_layers(parts, attempted)
        report["metrics"] = layer_metrics(layers, ops_per_s)
        detail["layers_per_op"] = layers
    else:
        report["metrics"] = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(p["setup_s"] * host_speed([p]) for p in parts),
                        "unit": "s"},
            "peak_rss_mb": {"value": max(p["peak_rss_mb"] for p in parts), "unit": "MB"},
        }
    for part in parts:
        part.pop("layers")
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(dict(detail, result=report), fh, indent=2)
        fh.write("\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
