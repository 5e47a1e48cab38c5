"""The liectrl benchmark: one workload, one seed, one result line.

Run from the repository root::

    python3 bench/run.py --workload chain_sweep --seed 1 --seconds 20 --trace 0

Workloads (inputs generated from ``--seed``; the library only sees them):

* ``chain_sweep``: every reflection class of break patterns at N=5 plus
  the bare N=6 chain, one cold ``check_universality_qubit`` per case.
  The Pauli-string closure does all the work.
* ``sector_closure``: fermion, boson and spinful superlattice controls
  and the NNN identities on the dense closure backend.
* ``unitary_pulses``: random valid pulses on 3-, 6- and 8-atom chains
  through ``propagate_unitary`` and ``observables``.
* ``lindblad_pulses``: random valid pulses on 3- and 4-atom chains
  through ``propagate_lindblad`` with the fitted noise model.

Load comes from one closed-loop client: one process answers one case at
a time, with BLAS fixed to one thread.  Set-up is timed from outside, from
spawning a fresh process until it has imported ``liectrl``, numpy and
scipy and generated its inputs; that is repeated and the median reported.
Reported times are scaled to a reference machine speed measured alongside
them (``speed.py``); the raw times are kept in the run record.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of ``tracer.py``.  The line
before it is the machine record.  The full record (every case, every
pass, the probes and, when traced, the spans) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import speed
from tracer import metric_units

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

BLAS_THREADS = 1
SETUP_REPEATS = 7
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "case_max_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "ratio", "max_err": "norm", "setup_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Start a worker; return (seconds until it printed ``ready``, the
    lines after that one)."""
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return setup, rest.splitlines()


def end_to_end(result: dict, setup: list[float],
               setup_kernel: list[float]) -> tuple[dict, int, int]:
    """Times are scaled to the reference machine speed (``speed.py``).
    Each case is timed by its median over the untraced passes, which keeps
    a burst of interference in one pass out of the figures."""
    times, largest = defaultdict(list), set()
    for p in result["passes"]:
        scale = speed.scale(p["kernel_s"])
        for c in p["cases"]:
            times[c["case"]].append(c["seconds"] * scale)
            if c["largest"]:
                largest.add(c["case"])
    per_case = {k: statistics.median(v) for k, v in times.items()}
    cases = [c for p in result["passes"] + result.get("traced_passes", [])
             for c in p["cases"]]
    attempted = len(cases)
    failed = sum(not c["ok"] for c in cases)
    values = {
        "wall_s": sum(per_case.values()),
        "case_max_s": statistics.median(per_case[k] for k in largest),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
        "max_err": max(p["err"] for p in result["probes"]),
        "setup_s": statistics.median(setup) * speed.scale(setup_kernel),
    }
    return values, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced case lists, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "liectrl" / "__init__.py").is_file():
        print(f"no liectrl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT_S
    load_at_start = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    common += ["--smoke"] if args.smoke else []
    setup, kernel = [], []
    worker_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        worker_args += ["--spans", str(OUT / f"spans-{tag}.csv.gz")]
    for k in range(SETUP_REPEATS):
        last = k == SETUP_REPEATS - 1
        seconds, lines = spawn(worker_args if last else common + ["--setup-only"],
                               deadline)
        setup.append(seconds)
        kernel += json.loads(lines[0].removeprefix("kernel "))
    result = json.loads(lines[-1])

    e2e, attempted, failed = end_to_end(result, setup, kernel)
    if args.trace:
        units = metric_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    machine = dict(result["machine"], load_avg_at_start=load_at_start)
    record = {**{k: v for k, v in result.items() if k != "machine"},
              "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "setup_raw_s": setup,
              "setup_kernel_s": kernel, "end_to_end": e2e}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"machine": machine, "absent": result.get("absent", [])}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
