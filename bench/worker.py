"""One worker process of a benchmark run; started by run.py.

Sets up the workload from the seed, runs one untimed warm-up round, then
times whole rounds of operations until `--seconds` of operation time have
passed, checking every output outside the timed region and running the
host-speed calibration between rounds. Prints one JSON object: set-up
time, operation counts, timed and calibration seconds, peak RSS and, with
`--trace 1`, the raw per-layer totals. All times are raw wall time.

qvn and the benchmark's own modules are always compiled from source, so
set-up time does not depend on whatever `__pycache__` directories the tree
holds; numpy and scipy load as installed.
"""

from __future__ import annotations

import argparse
import importlib.machinery
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class _SourceOnlyLoader(importlib.machinery.SourceFileLoader):
    """Source loader that neither reads nor writes bytecode: without the
    source's stats, `get_code` skips the cache and compiles the source."""

    def path_stats(self, path):
        raise OSError("bytecode cache not used")


def compile_from_source(*roots):
    """Load every module under `roots` with `_SourceOnlyLoader`."""
    finder = importlib.machinery.FileFinder.path_hook(
        (_SourceOnlyLoader, importlib.machinery.SOURCE_SUFFIXES))

    def hook(path):
        path = os.path.abspath(path)
        if any(path == root or path.startswith(root + os.sep) for root in roots):
            return finder(path)
        raise ImportError(path)

    sys.path_hooks.insert(0, hook)
    sys.path_importer_cache.clear()


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--part", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() of the parent just before this process started")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    compile_from_source(SRC, HERE)
    import qvn

    if not os.path.abspath(qvn.__file__).startswith(SRC + os.sep):
        print(f"qvn imported from {qvn.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from calibrate import Calibration
    from tracer import Tracer

    workdir = os.path.join(HERE, "out", f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.part, workdir)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        calibration = Calibration()
        correct = True
        for op, check in workload.round(0):  # warm-up: fills lazy caches
            correct = check(op()) and correct
        calibration.warm_up()
        if tracer:
            tracer.reset()

        attempted = failed = 0
        timed = 0.0
        setup_s = None
        wall_limit = time.monotonic() + 2 * args.seconds + 30
        r = 1
        while timed < args.seconds and time.monotonic() < wall_limit:
            for op, check in workload.round(r):
                start = time.perf_counter()
                if setup_s is None:
                    setup_s = time.monotonic() - args.spawned
                attempted += 1
                try:
                    out = op()
                except Exception:  # a failed op is counted and reported, not fatal
                    timed += time.perf_counter() - start
                    failed += 1
                    traceback.print_exc()
                    continue
                timed += time.perf_counter() - start
                correct = check(out) and correct
            calibration.keep_up(timed)
            r += 1
        # the final check runs qvn too; keep its calls out of the layer totals
        layers = {name: list(stat) for name, stat in tracer.stats.items()} if tracer else {}
        correct = workload.final_check() and correct
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "timed_s": timed,
        "rounds": r - 1,
        "calibration_chunks": calibration.chunks,
        "calibration_s": calibration.seconds,
        "correct": bool(correct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
