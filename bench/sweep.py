"""Reference sweep of single-layer costs against size; not a timed workload.

    python3 bench/sweep.py

Measures `stored_program` for n = 1..5, `compose` for each strategy at
n = 1..4 (programs built beforehand), `inject` per call at n = 1..4, the
README demo per shot, and `eval_topological` on closed rings of
m = 8..24 vertices. Each case repeats until about MAX_SECONDS have
passed (at least once) and reports the median. Results go to stdout and
to bench/out/sweep.json.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from qvn import tailed, uqt  # noqa: E402
from qvn.kernel import RngStream  # noqa: E402

import workloads  # noqa: E402

MAX_SECONDS = 1.0


def median_time(fn, max_seconds, max_reps=1000):
    times = []
    start = time.perf_counter()
    while not times or (time.perf_counter() - start < max_seconds and len(times) < max_reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


def ring(m, rng):
    gates = [workloads.haar_unitary(rng, 2) for _ in range(m)]
    vertices = tuple(tailed.TopoVertex(u, 1) for u in gates)
    segments = tuple(((v, "h", 0), ((v + 1) % m, "t", 0)) for v in range(m))
    return tailed.TopoDiagram(vertices, segments)


def main():
    rng = np.random.default_rng(2112)
    rows = []

    def record(case, size, seconds, reps, **extra):
        rows.append(dict(case=case, size=size, ms=seconds * 1e3, reps=reps, **extra))
        more = " ".join(f"{k}={v}" for k, v in extra.items())
        print(f"{case:<32} {size:>3} {seconds * 1e3:>12.3f} ms  ({reps} reps) {more}", flush=True)

    for n in range(1, 6):
        u = workloads.haar_unitary(rng, 2**n)
        record("stored_program", n, *median_time(lambda: uqt.stored_program(u), MAX_SECONDS))

    for strategy in uqt.ByproductStrategy:
        for n in range(1, 5):
            p1 = uqt.stored_program(workloads.haar_unitary(rng, 2**n))
            p2 = uqt.stored_program(workloads.haar_unitary(rng, 2**n))
            stream = RngStream(7, stream_id=n)
            trials = []

            def once():
                trials.append(uqt.compose(p1, p2, strategy, stream)[1])

            seconds, reps = median_time(once, MAX_SECONDS)
            record(f"compose.{strategy.value}", n, seconds, reps,
                   mean_trials=round(statistics.mean(trials), 2))

    for n in range(1, 5):
        state = tailed.program_state(uqt.stored_program(np.eye(2**n)))
        spec = tailed.InjectionSpec(tuple(range(n)))
        stream = RngStream(7, stream_id=n)
        record("inject", n, *median_time(lambda: tailed.inject(state, spec, stream, num_ebits=n),
                                         MAX_SECONDS))

    shots = 1000
    seconds, reps = median_time(
        lambda: workloads.run_cli(["run", workloads.DEMO_RUN_FILE, "--shots", str(shots)]),
        MAX_SECONDS)
    record("demo_per_shot", 1, seconds / shots, reps, shots=shots)

    for m in range(8, 25, 2):
        diagram = ring(m, rng)
        record("eval_topological.ring", m, *median_time(lambda: tailed.eval_topological(diagram),
                                                        MAX_SECONDS))

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
