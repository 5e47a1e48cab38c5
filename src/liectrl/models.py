"""Concrete Hamiltonians: Rydberg chains, the three-body ZXZ target, and
the phenomenological noise model used for open-system runs.

Unit convention: library functions take and return angular frequencies in
rad/us.  :func:`mhz` and :func:`to_mhz` (2*pi rad/us = 1 MHz) are the one
crossing between rad/us and MHz.
Lengths are in micrometres, times in microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pauli import MAX_DENSE_QUBITS, PauliSum, _is_int, _is_real

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
        if not all(np.shape(p) == (2,) for p in self.positions):  # before unpacking x, y
            raise ModelError(f"atom positions must be (x, y) pairs, got {self.positions!r}")
        if not all(map(_is_real, (self.c6, *(x for p in self.positions for x in p)))):
            raise ModelError(f"atom positions and c6 must be real numbers, got {self.positions!r} "
                             f"and {self.c6!r}")
        pos = tuple((float(x), float(y)) for x, y in self.positions)
        object.__setattr__(self, "positions", pos)
        if not np.isfinite([self.c6, *(x for p in pos for x in p)]).all():
            raise ModelError(f"atom positions and c6 must be finite, got {pos} and {self.c6}")
        if not self.c6 > 0:
            raise ModelError(f"c6 must be positive (repulsive van der Waals), got {self.c6}")
        for a in range(len(pos)):
            for b in range(a + 1, len(pos)):
                if np.hypot(pos[a][0] - pos[b][0], pos[a][1] - pos[b][1]) <= 0:
                    raise ModelError(f"atoms {a + 1} and {b + 1} coincide")

    @classmethod
    def chain(cls, n_atoms: int, spacing: float, c6: float = DEFAULT_C6) -> "AtomGeometry":
        if not _is_int(n_atoms):
            raise ModelError(f"n_atoms must be an integer, got {n_atoms!r}")
        if not _is_real(spacing):
            raise ModelError(f"spacing must be a real number, got {spacing!r}")
        if n_atoms < 1 or spacing <= 0:
            raise ModelError("need n_atoms >= 1 and positive spacing")
        return cls(tuple((i * spacing, 0.0) for i in range(n_atoms)), c6)

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    def interaction(self, j: int, l: int) -> float:
        """V_jl = C6 / |x_j - x_l|^6 in rad/us (atoms 1-based)."""
        if not (all(_is_int(a) and 1 <= a <= self.n_atoms for a in (j, l)) and j != l):
            raise ModelError(f"need two distinct atoms in 1..{self.n_atoms}, got {j} and {l}")
        xj, yj = self.positions[j - 1]
        xl, yl = self.positions[l - 1]
        return self.c6 / np.hypot(xj - xl, yj - yl) ** 6


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
        if not all(map(_is_real, vals)):
            raise ModelError(f"rates and shifts must be real numbers, got {vals}")
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


def basis_bits(n_qubits: int) -> np.ndarray:
    """(2^N, N) table of computational-basis bits: row k holds the bits of
    index k, column l-1 qubit l, qubit 1 the most significant bit."""
    return (np.arange(2 ** n_qubits)[:, None] >> np.arange(n_qubits - 1, -1, -1)) & 1


def _interaction_diagonal(geom: AtomGeometry) -> np.ndarray:
    """V's diagonal over the basis bits; refuses geometries over the dense budget."""
    n = geom.n_atoms
    if n > MAX_DENSE_QUBITS:
        raise ModelError(f"geometry with {n} atoms exceeds the dense budget "
                         f"of {MAX_DENSE_QUBITS} atoms")
    bits = basis_bits(n)
    return sum((geom.interaction(j, l) * (bits[:, j - 1] & bits[:, l - 1])
                for j in range(1, n + 1) for l in range(j + 1, n + 1)), np.zeros(2 ** n))


def rydberg_terms(geom: AtomGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense real (sum X_l, sum n_l, V), the reference H pieces of tests and make_refs.

    H(omega, delta) = (omega/2) * X_total - delta * n_total + V.  All three
    are symmetric; n_total and V are diagonal in the basis bits (qubit 1 is
    the most significant bit, bit 1 the Rydberg state).
    """
    v = _interaction_diagonal(geom)
    k = np.arange(v.size)
    x_total = np.zeros((v.size, v.size))
    for shift in range(geom.n_atoms):
        x_total[k, k ^ (1 << shift)] = 1.0
    return x_total, np.diag(np.bitwise_count(k).astype(float)), np.diag(v)


def zxz_hamiltonian(n_qubits: int) -> PauliSum:
    """Cluster three-body chain sum_j Z_{j-1} X_j Z_{j+1} (bulk sites)."""
    if n_qubits < 3:
        raise ModelError("the three-body chain needs at least 3 qubits")
    # X on site j (bit j-1), Z on sites j-1 and j+1 (bits j-2 and j)
    return PauliSum(n_qubits, {(1 << (j - 1), 5 << (j - 2)): 1.0 for j in range(2, n_qubits)})
