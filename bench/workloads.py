"""Seeded inputs, case runners and answer checks for the four workloads.

A case is solved by one timed call sequence into ``liectrl``; its answer
is then checked, untimed, against :mod:`oracle`.  Library functions are
always reached through their module (``closure.close``, not a bare
``close``) so that the trace wrappers installed on the modules see every
call the benchmark makes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from liectrl import closure, models, propagation, sectors

import oracle

WORKLOADS = ("chain_sweep", "sector_closure", "unitary_pulses", "lindblad_pulses")

PROBES_FILE = Path(__file__).with_name("probes.json")
PROFILE = propagation.ConstraintProfile()

# Knots every 0.1 us; 31 knots make a 3 us pulse.
KNOT_STEP_US = 0.1
SPACING_UM = (6.0, 10.0)
# Keep amplitudes strictly inside the hardware profile, so every generated
# pulse validates exactly whatever the draw.  The slew limits then hold
# too: the largest knot-to-knot jump, 2 * 0.9 * 19.9 MHz of detuning in
# 0.1 us, is 358 MHz/us against 397 (Rabi: 21.7 against 39.7).
AMPLITUDE_MARGIN = 0.9

# atoms -> (pulses, knots).  An 8-atom pulse is bound by eigh on 256x256
# matrices, a 3-atom one by the per-step Python loop; the counts give each
# size class a comparable share of the pass.  The 8-atom pulses last 1 us
# so that three fit, and case_max_s is a median rather than one sample.
# The Lindblad pass is kept short so that a run holds several passes.
UNITARY_CLASSES = {3: (400, 31), 6: (20, 31), 8: (3, 11)}
LINDBLAD_CLASSES = {3: (3, 31), 4: (2, 31)}


@dataclass
class Case:
    id: str
    kind: str
    inputs: dict = field(repr=False)
    # one of the workload's largest answers, timed for ``case_max_s``
    largest: bool = False


# -- input generation -------------------------------------------------------

def reflection_classes(n: int) -> list[tuple[int, ...]]:
    """One break pattern per orbit of the chain reflection j -> n + 1 - j."""
    out, seen = [], set()
    for r in range(n + 1):
        for s in combinations(range(1, n + 1), r):
            mirror = tuple(sorted(n + 1 - j for j in s))
            key = min(s, mirror)
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


def _chain_cases(smoke: bool) -> list[Case]:
    n_sweep, n_big = (3, 4) if smoke else (5, 6)
    specs = [(n_sweep, s) for s in reflection_classes(n_sweep)] + [(n_big, ())]
    return [Case(f"chain N={n} S={','.join(map(str, s)) or '-'}", "chain",
                 {"n": n, "pattern": s}, largest=n == n_big) for n, s in specs]


def _sector_cases(smoke: bool) -> list[Case]:
    if smoke:
        chains = [("fermion", 3, 1), ("boson", 3, 2)]
        spinful, nnn_sizes, labels = (1,), (5,), sectors.NNN_LABELS[:2]
    else:
        chains = [("fermion", 5, 2), ("fermion", 7, 2), ("fermion", 7, 3),
                  ("boson", 5, 2), ("boson", 7, 2), ("boson", 5, 3)]
        spinful, nnn_sizes, labels = (1, 2), (5, 7), sectors.NNN_LABELS
    dims = [oracle.sector_dimension(kind, n, p) for kind, n, p in chains]
    cases = [Case(f"{kind} N={n} n={p}", "hubbard", {"kind": kind, "n": n, "p": p},
                  largest=d == max(dims))
             for (kind, n, p), d in zip(chains, dims)]
    cases += [Case(f"spinful N=3 n={p}", "spinful", {"p": p}) for p in spinful]
    cases += [Case(f"nnn {label} {size}x{size}", "nnn", {"label": label, "size": size})
              for size in nnn_sizes for label in labels]
    return cases


def random_pulse(rng: np.random.Generator, n_knots: int) -> propagation.ControlPulse:
    """Piecewise-linear pulse with random knot values inside the profile."""
    om_max = models.mhz(AMPLITUDE_MARGIN * PROFILE.omega_max)
    de_max = models.mhz(AMPLITUDE_MARGIN * PROFILE.delta_range)
    times = np.arange(n_knots) * KNOT_STEP_US
    omegas = np.concatenate([[0.0], rng.uniform(0.0, om_max, n_knots - 2), [0.0]])
    deltas = rng.uniform(-de_max, de_max, n_knots)
    pulse = propagation.ControlPulse(times, omegas, deltas)
    pulse.validate(PROFILE)
    return pulse


def _pulse_cases(kind: str, classes: dict, rng: np.random.Generator,
                 smoke: bool) -> list[Case]:
    if smoke:
        classes = {min(classes): (2, 11)}
    noise = models.NoiseModel.fitted() if kind == "lindblad" else None
    cases = []
    for n_atoms, (count, n_knots) in classes.items():
        for k in range(count):
            spacing = float(rng.uniform(*SPACING_UM))
            cases.append(Case(
                f"{kind} {n_atoms} atoms #{k} a={spacing:.3f}um", kind,
                {"geom": models.AtomGeometry.chain(n_atoms, spacing),
                 "pulse": random_pulse(rng, n_knots), "noise": noise},
                largest=n_atoms == max(classes)))
    return cases


def generate(workload: str, seed: int, smoke: bool = False) -> list[Case]:
    """The workload's case list; the seed sets the order and every draw."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "chain_sweep":
        cases = _chain_cases(smoke)
    elif workload == "sector_closure":
        cases = _sector_cases(smoke)
    elif workload == "unitary_pulses":
        cases = _pulse_cases("unitary", UNITARY_CLASSES, rng, smoke)
    elif workload == "lindblad_pulses":
        cases = _pulse_cases("lindblad", LINDBLAD_CLASSES, rng, smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [cases[i] for i in rng.permutation(len(cases))]


# -- solving (timed) and checking (untimed) ----------------------------------

def _ground_state(dim: int) -> np.ndarray:
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    return psi


def solve(case: Case):
    c = case.inputs
    if case.kind == "chain":
        return closure.check_universality_qubit(c["n"], c["pattern"])
    if case.kind == "hubbard":
        return closure.close(sectors.build_hubbard_chain_controls(c["kind"], c["n"], c["p"]))
    if case.kind == "spinful":
        tilted = sectors.build_spinful_controls(3, c["p"], 1.0, 0.0)
        uniform = sectors.build_spinful_controls(3, c["p"], 0.0, 1.0)
        gens = tilted.generators + [uniform.generators[5]]
        return closure.close(closure.GeneratorSet("dense", gens))
    if case.kind == "nnn":
        return sectors.verify_nnn_identity(c["label"], c["size"], c["size"])
    if case.kind == "unitary":
        u = propagation.propagate_unitary(c["pulse"], c["geom"], profile=PROFILE)
        return u, propagation.observables(u, _ground_state(u.shape[0]))
    if case.kind == "lindblad":
        final = propagation.propagate_lindblad(c["pulse"], c["geom"], c["noise"],
                                               profile=PROFILE)[-1]
        return final, propagation.observables(final)
    raise ValueError(f"unknown case kind {case.kind!r}")


def _in_child(fn, *args) -> bool:
    """``bool(fn(*args))`` computed in a forked child, which is waited for.

    The child's scratch memory then stays out of this process's peak RSS:
    the reflection check of the N=6 basis needs more than its closure.
    A raise in the child reads as False.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if fn(*args) else 1
        finally:
            os._exit(code)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0


def check(case: Case, answer) -> tuple[str | None, dict]:
    """(error or None, counters) for a solved case."""
    c = case.inputs
    if case.kind == "nnn":
        return oracle.check_nnn(*answer), {}
    if case.kind == "unitary":
        u, rec = answer
        return oracle.check_unitary(u, _ground_state(u.shape[0]), rec.expect_z), {}
    if case.kind == "lindblad":
        final, rec = answer
        return oracle.check_density(final.rho, rec.expect_z), {}
    counters = {"dimension": answer.dimension, "depth": answer.depth_reached}
    if case.kind == "chain":
        symmetric = oracle.is_reflection_symmetric(c["n"], c["pattern"])
        even = (_in_child(closure.reflection_sector_check, answer, c["n"])
                if symmetric else True)
        return oracle.check_chain(c["n"], c["pattern"], answer.dimension,
                                  answer.universality, even), counters
    kind, n_modes = (c["kind"], c["n"]) if case.kind == "hubbard" else ("fermion", 6)
    d = oracle.sector_dimension(kind, n_modes, c["p"])
    return oracle.check_sector(d, answer.dimension, answer.universality), counters


# -- accuracy probes ---------------------------------------------------------

def probe_kind(workload: str) -> str:
    """Probe family whose error a workload reports as ``max_err``.

    The closure workloads run the cheap unitary probes, untimed and
    untraced, because every end-to-end metric is reported on every
    workload; nothing those workloads exercise can move them.
    """
    return "lindblad" if workload == "lindblad_pulses" else "unitary"


def load_probes() -> dict:
    return json.loads(PROBES_FILE.read_text())


def _complex(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def run_probes(kind: str, probes: dict) -> list[dict]:
    """Distance of each fixed probe's final state to its stored reference."""
    out = []
    for probe in probes[kind]:
        geom = models.AtomGeometry.chain(probe["n_atoms"], probe["spacing_um"])
        knots = probes["pulses"][probe["pulse"]]
        pulse = propagation.ControlPulse(
            np.asarray(knots["t_us"]), models.mhz(np.asarray(knots["omega_mhz"])),
            models.mhz(np.asarray(knots["delta_mhz"])))
        if kind == "unitary":
            u = propagation.propagate_unitary(pulse, geom, profile=PROFILE)
            state = u[:, 0]  # the probe starts in the ground state
        else:
            noise = models.NoiseModel(**probes["noise"])
            state = propagation.propagate_lindblad(pulse, geom, noise,
                                                   profile=PROFILE)[-1].rho
        err = float(np.linalg.norm(state - _complex(probe["reference"])))
        out.append({"probe": probe["name"], "err": err})
    return out
