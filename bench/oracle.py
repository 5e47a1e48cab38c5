"""Answer checks for the benchmark, written without importing ``liectrl``.

Every check here re-derives the expected answer from the mathematics (the
reflection-sector dimension formula, sector dimensions from binomial
counts) or from the state itself (unitarity, trace, hermiticity, Z
statistics), so a change inside ``src/`` cannot move the yardstick.
"""

from __future__ import annotations

from math import ceil, comb

import numpy as np

UNITARITY_TOL = 1e-9
TRACE_TOL = 1e-8
HERMITICITY_TOL = 1e-10
OBSERVABLE_TOL = 1e-10
NNN_SCALE_TOL = 1e-9


def is_reflection_symmetric(n: int, pattern) -> bool:
    s = set(pattern)
    return {n + 1 - j for j in s} == s


def chain_dimension(n: int, pattern) -> int:
    """Dimension of the closure of H_X, H_Z, H_ZZ and the partial X field.

    A pattern that is not reflection-symmetric gives su(2^N).  A symmetric
    one stays in the reflection-even operators, whose algebra splits over
    the two reflection eigenspaces of dimensions
    d+- = (2^N +- 2^ceil(N/2)) / 2, plus one shared U(1) for even N.
    """
    if not is_reflection_symmetric(n, pattern):
        return 4 ** n - 1
    half = 2 ** ceil(n / 2)
    d_plus, d_minus = (2 ** n + half) // 2, (2 ** n - half) // 2
    return (d_plus ** 2 - 1) + (d_minus ** 2 - 1) + (1 if n % 2 == 0 else 0)


def sector_dimension(kind: str, n_modes: int, n_particles: int) -> int:
    """Hilbert-space dimension of a fixed-particle-number sector."""
    if kind == "boson":
        return comb(n_particles + n_modes - 1, n_particles)
    return comb(n_modes, n_particles)


def z_expectations(probs: np.ndarray) -> np.ndarray:
    """<Z_s> from basis-state probabilities, qubit 1 the most significant bit."""
    n = int(round(np.log2(len(probs))))
    k = np.arange(len(probs))
    return np.array([np.sum(probs * (1 - 2 * ((k >> (n - 1 - s)) & 1)))
                     for s in range(n)])


def check_chain(n: int, pattern, dimension: int, universality: str,
                reflection_even: bool) -> str | None:
    want = chain_dimension(n, pattern)
    if dimension != want:
        return f"dimension {dimension}, oracle {want}"
    symmetric = is_reflection_symmetric(n, pattern)
    want_verdict = "non_universal" if symmetric else "universal"
    if universality != want_verdict:
        return f"verdict {universality}, oracle {want_verdict}"
    if symmetric and not reflection_even:
        return "reflection_sector_check failed for a symmetric pattern"
    return None


def check_sector(d: int, dimension: int, universality: str) -> str | None:
    if dimension != d * d or universality != "universal":
        return f"u({d}) expected, got dimension {dimension} ({universality})"
    return None


def check_nnn(passed: bool, scale: float) -> str | None:
    if not passed or abs(scale - 1.0) > NNN_SCALE_TOL:
        return f"identity failed (passed={passed}, scale={scale!r})"
    return None


def check_unitary(u: np.ndarray, psi0: np.ndarray, expect_z: np.ndarray) -> str | None:
    defect = float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))
    if not defect <= UNITARITY_TOL:
        return f"unitarity defect {defect:.3g}"
    want = z_expectations(np.abs(u @ psi0) ** 2)
    if not np.allclose(expect_z, want, rtol=0.0, atol=OBSERVABLE_TOL):
        return "Z expectations disagree with |U psi0|^2"
    return None


def check_density(rho: np.ndarray, expect_z: np.ndarray) -> str | None:
    trace_defect = abs(np.trace(rho).real - 1.0)
    if not trace_defect <= TRACE_TOL:
        return f"trace defect {trace_defect:.3g}"
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if not herm <= HERMITICITY_TOL:
        return f"hermiticity defect {herm:.3g}"
    want = z_expectations(np.real(np.diag(rho)))
    if not np.allclose(expect_z, want, rtol=0.0, atol=OBSERVABLE_TOL):
        return "Z expectations disagree with diag(rho)"
    return None
