"""Regenerate ``bench/probes.json``: the fixed accuracy probes and their
reference final states.

Run from the repository root::

    PYTHONPATH=src python3 bench/make_refs.py

The references come from ``scipy.integrate.solve_ivp`` (DOP853,
rtol = atol = 1e-12) on H(t) = (omega/2) X_tot - delta n_tot + V, with
the three pieces built once by ``liectrl.models.rydberg_terms``.  Nothing
from ``liectrl.propagation`` is used: the pulse interpolation, the noise
offsets and the decay operators are written out here.  Each knot interval
is integrated on its own, so the kinks of the piecewise-linear controls
fall on step boundaries.  A second solve at rtol = atol = 1e-13 gives the
reference's own error, stored as ``ref_err``.

The file is committed; the benchmark only reads it, so a change to the
library cannot move the yardstick.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from liectrl.models import AtomGeometry, NoiseModel, rydberg_terms

OUT = Path(__file__).with_name("probes.json")
RTOL = ATOL = 1e-12
CHECK_TOL = 1e-13

# Two fixed probe pulses, with values on a 1 kHz grid so the JSON text
# holds them exactly.  "mild" is shaped like the unit-test pulse (0.05 us
# knots, |delta| <= 5 MHz); its 3-atom, 6 um case is the known accuracy
# defect of the default unitary substep.  "sweep" is shaped like the
# workload pulses (0.1 us knots, amplitudes across the hardware profile).
_rng = np.random.default_rng(2508)


def _knots(n: int, step: float, omega: tuple, delta: tuple) -> dict:
    om = _rng.uniform(*omega, n - 2)
    return {"t_us": [round(step * k, 10) for k in range(n)],
            "omega_mhz": [0.0] + [round(float(v), 3) for v in om] + [0.0],
            "delta_mhz": [round(float(v), 3) for v in _rng.uniform(*delta, n)]}


PULSES = {"mild": _knots(21, 0.05, (0.2, 1.9), (-5.0, 5.0)),
          "sweep": _knots(21, 0.1, (0.3, 2.2), (-15.0, 15.0))}
# (pulse, atoms, spacing in um)
UNITARY_PROBES = [("mild", 3, 6.0), ("mild", 3, 8.0), ("mild", 3, 10.0),
                  ("sweep", 3, 6.0), ("sweep", 4, 7.0)]
LINDBLAD_PROBES = [("mild", 3, 6.0), ("sweep", 3, 6.0), ("sweep", 4, 8.0)]


def _controls(pulse: dict, noise: dict | None):
    t = np.asarray(pulse["t_us"])
    om = 2 * np.pi * np.asarray(pulse["omega_mhz"])
    de = 2 * np.pi * np.asarray(pulse["delta_mhz"])

    def at(time: float) -> tuple[float, float]:
        w, d = np.interp(time, t, om), np.interp(time, t, de)
        if noise is None:
            return w, d
        return (w + noise["delta_rabi_shift"] + noise["rabi_scale_error"] * w,
                d + noise["delta_detuning_shift"])
    return at


def _evolve(rhs, y0: np.ndarray, times: list, tol: float) -> np.ndarray:
    y = y0.astype(complex)
    for t0, t1 in zip(times[:-1], times[1:]):
        sol = solve_ivp(rhs, (t0, t1), y, method="DOP853", rtol=tol, atol=tol)
        if not sol.success:
            raise RuntimeError(sol.message)
        y = sol.y[:, -1]
    return y


def unitary_reference(pulse: dict, n_atoms: int, spacing: float,
                      tol: float) -> np.ndarray:
    """Final state from the ground state |g...g> (index 0)."""
    x_tot, n_tot, v = rydberg_terms(AtomGeometry.chain(n_atoms, spacing))
    controls = _controls(pulse, None)

    def rhs(t, psi):
        w, d = controls(t)
        return -1j * (((w / 2) * x_tot - d * n_tot + v) @ psi)

    psi0 = np.zeros(2 ** n_atoms, dtype=complex)
    psi0[0] = 1.0
    return _evolve(rhs, psi0, pulse["t_us"], tol)


def _lowering(n_atoms: int, site: int) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for k in range(n_atoms):
        op = np.array([[0, 1], [0, 0]]) if k == site else np.eye(2)  # |g><r|
        out = np.kron(out, op)
    return out


def lindblad_reference(pulse: dict, n_atoms: int, spacing: float, noise: dict,
                       tol: float) -> np.ndarray:
    """Final density matrix from |g...g><g...g| under per-atom decay."""
    x_tot, n_tot, v = rydberg_terms(AtomGeometry.chain(n_atoms, spacing))
    controls = _controls(pulse, noise)
    dim = 2 ** n_atoms
    lows = [_lowering(n_atoms, s) for s in range(n_atoms)]
    gamma = noise["gamma"]

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        w, d = controls(t)
        h = (w / 2) * x_tot - d * n_tot + v
        out = -1j * (h @ rho - rho @ h)
        for low in lows:
            num = low.conj().T @ low
            out += gamma * (low @ rho @ low.conj().T - 0.5 * (num @ rho + rho @ num))
        return out.ravel()

    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0] = 1.0
    return _evolve(rhs, rho0.ravel(), pulse["t_us"], tol).reshape(dim, dim)


def _pairs(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], axis=-1).tolist()


def main() -> None:
    fitted = NoiseModel.fitted()
    noise = {"gamma": fitted.gamma,
             "delta_detuning_shift": fitted.delta_detuning_shift,
             "delta_rabi_shift": fitted.delta_rabi_shift,
             "rabi_scale_error": fitted.rabi_scale_error}
    out = {"solver": f"scipy solve_ivp DOP853 rtol=atol={RTOL:g}, per knot interval",
           "noise": noise, "pulses": PULSES, "unitary": [], "lindblad": []}
    for kind, probes in (("unitary", UNITARY_PROBES), ("lindblad", LINDBLAD_PROBES)):
        for name, n, a in probes:
            def solve(tol):
                if kind == "unitary":
                    return unitary_reference(PULSES[name], n, a, tol)
                return lindblad_reference(PULSES[name], n, a, noise, tol)
            ref = solve(RTOL)
            ref_err = float(np.linalg.norm(ref - solve(CHECK_TOL)))
            label = f"{kind} {name} {n} atoms {a:g}um"
            out[kind].append({"name": label, "pulse": name, "n_atoms": n,
                              "spacing_um": a, "ref_err": ref_err,
                              "reference": _pairs(ref)})
            print(f"{label}: ref_err {ref_err:.2e}")
    OUT.write_text(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
