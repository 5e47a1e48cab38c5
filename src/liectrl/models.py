"""Concrete Hamiltonians: Rydberg chains, the three-body ZXZ target, the
blockade-regime PXP model, and the phenomenological noise model used for
open-system runs.

Unit convention: library functions take and return angular frequencies in
rad/us.  File formats speak MHz and convert at the boundary with
2*pi rad/us = 1 MHz; use :func:`mhz` / :func:`to_mhz` to cross over.
Lengths are in micrometres, times in microseconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .pauli import MAX_DENSE_QUBITS, PauliSum

TWO_PI = 2.0 * np.pi

# van der Waals coefficient of the 70S Rydberg state, rad/us * um^6
DEFAULT_C6 = 862690.0 * TWO_PI


def mhz(value: float) -> float:
    """MHz -> rad/us."""
    return value * TWO_PI


def to_mhz(value: float) -> float:
    """rad/us -> MHz."""
    return value / TWO_PI


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class AtomGeometry:
    """Planar atom positions (um) with a van der Waals coefficient."""

    positions: tuple
    c6: float = DEFAULT_C6

    def __post_init__(self):
        pos = tuple((float(x), float(y)) for x, y in self.positions)
        object.__setattr__(self, "positions", pos)
        if not np.isfinite([self.c6, *(x for p in pos for x in p)]).all():
            raise ModelError(f"atom positions and c6 must be finite, got {pos} and {self.c6}")
        for a in range(len(pos)):
            for b in range(a + 1, len(pos)):
                if np.hypot(pos[a][0] - pos[b][0], pos[a][1] - pos[b][1]) <= 0:
                    raise ModelError(f"atoms {a + 1} and {b + 1} coincide")

    @classmethod
    def chain(cls, n_atoms: int, spacing: float, c6: float = DEFAULT_C6) -> "AtomGeometry":
        if n_atoms < 1 or spacing <= 0:
            raise ModelError("need n_atoms >= 1 and positive spacing")
        return cls(tuple((i * spacing, 0.0) for i in range(n_atoms)), c6)

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    def interaction(self, j: int, l: int) -> float:
        """V_jl = C6 / |x_j - x_l|^6 in rad/us (atoms 1-based)."""
        xj, yj = self.positions[j - 1]
        xl, yl = self.positions[l - 1]
        return self.c6 / np.hypot(xj - xl, yj - yl) ** 6

    def blockade_radius(self, omega_max: float) -> float:
        """R_b = (C6 / Omega_max)^(1/6) in um, Omega_max in rad/us."""
        if omega_max <= 0:
            raise ModelError("omega_max must be positive")
        return float((self.c6 / omega_max) ** (1.0 / 6.0))

    def to_json(self) -> str:
        return json.dumps([[x, y] for x, y in self.positions])

    @classmethod
    def from_json(cls, text: str, c6: float = DEFAULT_C6) -> "AtomGeometry":
        return cls(tuple((p[0], p[1]) for p in json.loads(text)), c6)


@dataclass(frozen=True)
class NoiseModel:
    """Per-atom decay plus constant control offsets (all angular units).

    The realized controls are Delta + delta_detuning_shift and
    Omega + delta_rabi_shift + rabi_scale_error * Omega.
    """

    gamma: float = 0.0  # 1/us
    delta_detuning_shift: float = 0.0  # rad/us
    delta_rabi_shift: float = 0.0  # rad/us
    rabi_scale_error: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = [self.gamma, self.delta_detuning_shift, self.delta_rabi_shift, self.rabi_scale_error]
        if not (self.gamma >= 0 and np.isfinite(vals).all()):
            raise ModelError(f"need gamma >= 0 and finite rates and shifts, got {vals}")

    @classmethod
    def fitted(cls) -> "NoiseModel":
        """Best-fit error model for the three-atom experiment.

        The decay rate is quoted without units in the source data; we
        read it as 1/us, consistent with the microsecond pulse scale,
        and record that reading in the metadata.
        """
        return cls(
            gamma=0.049,
            delta_detuning_shift=mhz(-0.049),
            delta_rabi_shift=mhz(-0.032),
            rabi_scale_error=-0.05,
            metadata={"gamma_units": "1/us (assumed; source quotes a bare number)"},
        )

    def realized_controls(self, omega, delta):  # floats or arrays
        return (omega + self.delta_rabi_shift + self.rabi_scale_error * omega,
                delta + self.delta_detuning_shift)


# -- Pauli-sum building blocks -------------------------------------------

def density_operator(n_qubits: int, site: int) -> PauliSum:
    """Rydberg density n = |r><r| = (I - Z)/2 at one site."""
    ident = PauliSum(n_qubits, {(0, 0): 0.5})
    return ident + PauliSum.single_site(n_qubits, site, "Z", -0.5)


def rydberg_hamiltonian(geom: AtomGeometry, omega: float, delta: float) -> PauliSum:
    """Global-drive Rydberg chain Hamiltonian (rad/us) as a PauliSum.

    H = (Omega/2) sum_l X_l - Delta sum_l n_l + sum_{j<l} V_jl n_j n_l
    with n = (I - Z)/2; every pairwise tail term is kept.
    """
    if not np.isfinite(omega) or not np.isfinite(delta):
        raise ModelError("omega and delta must be finite")
    n = geom.n_atoms
    site = [("X", omega / 2.0), ("I", -0.5 * delta), ("Z", 0.5 * delta)]
    pair = [("II", 0.25), ("ZI", -0.25), ("IZ", -0.25), ("ZZ", 0.25)]  # n_j n_l
    rows = [((l,), kinds, c) for l in range(1, n + 1) for kinds, c in site]
    rows += [((j, l), kinds, c * geom.interaction(j, l))
             for j in range(1, n + 1) for l in range(j + 1, n + 1) for kinds, c in pair]
    return _placed(n, rows)


def _placed(n: int, rows) -> PauliSum:
    """Sum of ``(sites, kinds, coeff)`` rows, ``kinds[i]`` (one of IXYZ) on
    site ``sites[i]``; coefficients of one string add up in row order."""
    terms: dict[tuple, float] = {}
    for sites, kinds, coeff in rows:
        x = sum(1 << (s - 1) for s, k in zip(sites, kinds) if k in "XY")
        z = sum(1 << (s - 1) for s, k in zip(sites, kinds) if k in "YZ")
        terms[x, z] = terms.get((x, z), 0.0) + coeff
    return PauliSum(n, terms)


def basis_bits(n_qubits: int) -> np.ndarray:
    """(2^N, N) table of computational-basis bits: row k holds the bits of
    index k, column l-1 qubit l, qubit 1 the most significant bit."""
    return (np.arange(2 ** n_qubits)[:, None] >> np.arange(n_qubits - 1, -1, -1)) & 1


def rydberg_terms(geom: AtomGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense real (sum X_l, sum n_l, interaction) pieces for fast H(controls).

    H(omega, delta) = (omega/2) * X_total - delta * n_total + V.  All three
    are symmetric; n_total and V are diagonal in the basis bits (qubit 1 is
    the most significant bit, bit 1 the Rydberg state).
    """
    n = geom.n_atoms
    if n > MAX_DENSE_QUBITS:
        raise ModelError(f"geometry with {n} atoms exceeds the dense budget "
                         f"of {MAX_DENSE_QUBITS} atoms")
    k = np.arange(2 ** n)
    bits = basis_bits(n)
    x_total = np.zeros((2 ** n, 2 ** n))
    for shift in range(n):
        x_total[k, k ^ (1 << shift)] = 1.0
    v = sum((geom.interaction(j, l) * bits[:, j - 1] * bits[:, l - 1]
             for j in range(1, n + 1) for l in range(j + 1, n + 1)), np.zeros(2 ** n))
    return x_total, np.diag(bits.sum(axis=1).astype(float)), np.diag(v)


def zxz_hamiltonian(n_qubits: int, j_eff: float = 1.0) -> PauliSum:
    """Cluster three-body chain J * sum_j Z_{j-1} X_j Z_{j+1} (bulk sites)."""
    if n_qubits < 3:
        raise ModelError("the three-body chain needs at least 3 qubits")
    return _placed(n_qubits, [((j - 1, j, j + 1), "ZXZ", j_eff) for j in range(2, n_qubits)])


def pxp_hamiltonian(n_qubits: int, omega: float, delta: float) -> PauliSum:
    """Blockade-regime effective model
    (Omega/2) sum_{i=2}^{N-1} P_{i-1} X_i P_{i+1} - Delta sum_i n_i
    with P = (I + Z)/2 the ground-state projector.
    """
    if n_qubits < 3:
        raise ModelError("the blockade model needs at least 3 qubits")
    n = n_qubits
    # P X P = (X + ZX + XZ + ZXZ)/4 on sites (i-1, i, i+1)
    pxp = [((i - 1, i, i + 1), kinds, omega / 8.0)
           for i in range(2, n) for kinds in ("IXI", "ZXI", "IXZ", "ZXZ")]
    density = [((i,), kinds, c) for i in range(1, n + 1)  # -delta * n_i
               for kinds, c in (("I", -0.5 * delta), ("Z", 0.5 * delta))]
    return _placed(n, pxp + density)


def boundary_operators(n_qubits: int) -> tuple[PauliSum, PauliSum]:
    """Left-edge operators X_1 Z_2 and Z_1 of the cluster chain."""
    if n_qubits < 2:
        raise ModelError("need at least 2 qubits")
    x1z2 = PauliSum.from_label("XZ" + "I" * (n_qubits - 2))
    z1 = PauliSum.single_site(n_qubits, 1, "Z")
    return x1z2, z1


def doubly_excited_indices(n_qubits: int) -> np.ndarray:
    """Computational-basis indices with at least two adjacent excitations.

    Qubit 1 is the most significant bit, matching the dense kron order.
    """
    bits = basis_bits(n_qubits)
    return np.flatnonzero((bits[:, :-1] & bits[:, 1:]).any(axis=1))
