"""One benchmark process: set up, run the workload's passes, report JSON.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and the BLAS thread
count fixed in the environment.  It prints ``ready`` once ``liectrl``,
numpy and scipy are imported and the seeded inputs exist, so the parent
can time set-up from outside, then ``kernel [...]``, three timings of the
calibration kernel of :mod:`speed`; with ``--setup-only`` it stops there.
Otherwise it runs whole passes over the case list until ``--seconds`` is
used (always at least one), checks every answer, runs the fixed accuracy
probes and prints one JSON line with the per-pass records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import liectrl
import speed
import workloads
from tracer import CASE_SPAN, TRACED, Tracer

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, read from the library."""
    import ctypes
    import glob
    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def machine_record() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "liectrl": liectrl.__version__,
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def run_case(case, tracer: Tracer | None) -> dict:
    """Solve (timed) then check (untimed); a raise or a wrong answer fails."""
    rec = {"case": case.id, "largest": case.largest}
    start = time.perf_counter()
    try:
        if tracer is None:
            answer = workloads.solve(case)
        else:
            tracer.case = case.id
            answer = tracer.span(CASE_SPAN, workloads.solve, case)
    except Exception:
        rec.update(seconds=time.perf_counter() - start, ok=False,
                   error=traceback.format_exc(limit=3))
        return rec
    rec["seconds"] = time.perf_counter() - start
    try:
        error, counters = workloads.check(case, answer)
    except Exception:
        error, counters = traceback.format_exc(limit=3), {}
    rec.update(ok=error is None, error=error, **counters)
    return rec


def run_pass(cases, tracer: Tracer | None) -> dict:
    first = len(tracer.spans) if tracer else 0
    probe = speed.SpeedProbe()
    records = []
    for case in cases:
        probe.tick()
        records.append(run_case(case, tracer))
    probe.tick(force=True)
    out = {"wall_s": sum(r["seconds"] for r in records), "cases": records,
           "kernel_s": probe.samples}
    if tracer is not None:
        out["layers"] = tracer.spans_of_pass(first, len(tracer.spans))
    return out


def run_passes(cases, budget: float, tracer: Tracer | None) -> list[dict]:
    """Whole passes until the next one would overrun ``budget`` seconds."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cases, tracer))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes


def layer_metrics(traced: list[dict], plain: list[dict], absent: list[str]) -> dict:
    """Per-layer metrics: medians over the traced passes."""
    def med(values):
        return float(statistics.median(values))

    out = {}
    for name in TRACED:
        if name in absent:
            continue
        out[f"{name}.calls"] = med(p["layers"]["calls"].get(name, 0) for p in traced)
        out[f"{name}.self_s"] = med(p["layers"]["self_s"].get(name, 0.0) for p in traced)
    dims = med(sum(r.get("dimension", 0) for r in p["cases"]) for p in traced)
    out["closure.depth_total"] = med(sum(r.get("depth", 0) for r in p["cases"])
                                     for p in traced)
    out["closure.dimension_total"] = dims
    if "pauli.commutator_arrays" not in absent:
        candidates = out["pauli.commutator_arrays.calls"]
        out["closure.accept_ratio"] = dims / candidates if candidates else 0.0
    out["trace.overhead_s"] = (med(p["wall_s"] for p in traced)
                               - med(p["wall_s"] for p in plain))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the traced run's spans")
    args = ap.parse_args(argv)

    cases = workloads.generate(args.workload, args.seed, args.smoke)
    probes = workloads.load_probes()
    print("ready", flush=True)
    print("kernel " + json.dumps([speed.kernel_s() for _ in range(3)]), flush=True)
    if args.setup_only:
        return 0

    # let lazy imports and first-call costs land outside the timed passes
    for case in workloads.generate(args.workload, args.seed, smoke=True):
        workloads.solve(case)

    budget = args.seconds / 2 if args.trace else args.seconds
    plain = run_passes(cases, budget, None)
    result = {"machine": machine_record(),
              "probes": workloads.run_probes(workloads.probe_kind(args.workload), probes),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "passes": plain}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced = run_passes(cases, budget, tracer)
        result["absent"] = tracer.absent
        result["layers"] = layer_metrics(traced, plain, tracer.absent)
        result["traced_passes"] = traced
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
