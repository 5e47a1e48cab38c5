"""Exact algebra of N-qubit Pauli strings and real linear combinations.

A Pauli string is encoded symplectically by a pair of bit masks
``(x_mask, z_mask)``: bit ``j`` of ``x_mask`` flags an X component on
qubit ``j`` and bit ``j`` of ``z_mask`` a Z component; a bit set in both
is a Y.  The canonical Hermitian operator attached to a mask pair is

    P(x, z) = i**popcount(x & z) * (X-part) * (Z-part),

which is exactly the tensor product of literal I/X/Y/Z factors.  A
:class:`PauliSum` keeps a real coefficient per mask pair and therefore
always represents a Hermitian operator.

Qubit indices are 1-based in the public interface (bit 0 of the masks is
qubit 1).  Masks are kept as Python ints but must fit 64 bits.

Dense matrices use the kron order: qubit 1 is the most significant bit of
the basis index k, as in ``models.basis_bits``.  With x', z' the masks
bit-reversed by :func:`reflect_masks`, column k of P(x, z) holds
i**popcount(x & z) * (-1)**popcount(k & z') at row k ^ x'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

MAX_QUBITS = 64
MAX_DENSE_QUBITS = 10  # most qubits whose 2^N x 2^N matrices are built

# Coefficients below this magnitude are dropped after every arithmetic op.
PRUNE_TOL = 1e-12

_PHASES = np.array([1, 1j, -1, -1j])  # i**e for e mod 4
_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_CHAR = {v: k for k, v in _CHAR_TO_BITS.items()}


class PauliError(ValueError):
    pass


def _check_n_qubits(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise PauliError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


def _label(n_qubits: int, x: int, z: int) -> str:
    return "".join(_BITS_TO_CHAR[(x >> j) & 1, (z >> j) & 1] for j in range(n_qubits))


@dataclass(frozen=True)
class PauliTerm:
    """One Pauli string with an exact phase, tracked as a power of i mod 4."""

    n_qubits: int
    x_mask: int
    z_mask: int
    phase_exp: int = 0  # operator = i**phase_exp * X^x * Z^z

    def __post_init__(self):
        _check_n_qubits(self.n_qubits)
        full = (1 << self.n_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise PauliError("mask has bits outside the qubit register")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @classmethod
    def from_label(cls, label: str) -> "PauliTerm":
        """Build the canonical Hermitian term from a string like ``"XIZ"``.

        Position 1 of the label is qubit 1.
        """
        x = z = 0
        for j, ch in enumerate(label):
            try:
                bx, bz = _CHAR_TO_BITS[ch]
            except KeyError:
                raise PauliError(f"invalid Pauli character {ch!r}") from None
            x |= bx << j
            z |= bz << j
        # phase i**popcount(x&z) turns the XZ products into literal Y's
        return cls(len(label), x, z, (x & z).bit_count())

    @property
    def phase(self) -> complex:
        return 1j ** self.phase_exp

    def _relative_phase(self) -> int:
        # power of i relative to the canonical Hermitian string
        return (self.phase_exp - (self.x_mask & self.z_mask).bit_count()) % 4

    def is_hermitian(self) -> bool:
        # (X^x Z^z)^dag = (-1)^{x.z} X^x Z^z
        return self._relative_phase() % 2 == 0

    def label(self) -> str:
        return _label(self.n_qubits, self.x_mask, self.z_mask)

    def to_dense(self) -> np.ndarray:
        canonical = PauliSum(self.n_qubits, {(self.x_mask, self.z_mask): 1.0})
        return _PHASES[self._relative_phase()] * canonical.to_dense()

    def __repr__(self):
        # fold the canonical Y phases into the label for readability
        pre = ("", "i*", "-", "-i*")[self._relative_phase()]
        return f"{pre}{self.label()}"


def multiply(a: PauliTerm, b: PauliTerm) -> PauliTerm:
    """Exact product of two Pauli terms via the symplectic sign rule."""
    if a.n_qubits != b.n_qubits:
        raise PauliError("size mismatch in Pauli product")
    # X^x1 Z^z1 X^x2 Z^z2 = (-1)^{z1.x2} X^(x1^x2) Z^(z1^z2)
    phase = a.phase_exp + b.phase_exp + 2 * (a.z_mask & b.x_mask).bit_count()
    return PauliTerm(a.n_qubits, a.x_mask ^ b.x_mask, a.z_mask ^ b.z_mask, phase % 4)


def terms_commute(a: PauliTerm, b: PauliTerm) -> bool:
    return ((a.z_mask & b.x_mask).bit_count() + (a.x_mask & b.z_mask).bit_count()) % 2 == 0


class PauliSum:
    """Real linear combination of canonical Hermitian Pauli strings.

    The terms map ``(x_mask, z_mask) -> coefficient`` with real
    coefficients only, so every PauliSum is Hermitian by construction.
    """

    __slots__ = ("n_qubits", "terms")

    def __init__(self, n_qubits: int, terms: Mapping[tuple, float] | None = None):
        _check_n_qubits(n_qubits)
        self.n_qubits = n_qubits
        self.terms: dict[tuple, float] = {
            key: float(coeff) for key, coeff in (terms or {}).items()
            if abs(coeff) >= PRUNE_TOL}
        if any((x | z) >> n_qubits for x, z in self.terms):
            raise PauliError("mask has bits outside the qubit register")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_label(cls, label: str, coeff: float = 1.0) -> "PauliSum":
        term = PauliTerm.from_label(label)
        return cls(term.n_qubits, {(term.x_mask, term.z_mask): coeff})

    @classmethod
    def single_site(cls, n_qubits: int, site: int, kind: str, coeff: float = 1.0) -> "PauliSum":
        """One-qubit operator on 1-based ``site`` embedded in N qubits."""
        if not 1 <= site <= n_qubits:
            raise PauliError(f"site {site} out of range 1..{n_qubits}")
        bx, bz = _CHAR_TO_BITS[kind]
        j = site - 1
        return cls(n_qubits, {(bx << j, bz << j): coeff})

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliSum":
        return cls(n_qubits)

    # -- bookkeeping -------------------------------------------------

    def _prune(self) -> None:
        dead = [k for k, c in self.terms.items() if abs(c) < PRUNE_TOL]
        for k in dead:
            del self.terms[k]

    def copy(self) -> "PauliSum":
        out = PauliSum(self.n_qubits)
        out.terms = dict(self.terms)
        return out

    def __len__(self) -> int:
        return len(self.terms)

    def coeff(self, label: str) -> float:
        term = PauliTerm.from_label(label)
        if term.n_qubits != self.n_qubits:
            raise PauliError("label length does not match qubit count")
        return self.terms.get((term.x_mask, term.z_mask), 0.0)

    # -- linear algebra ----------------------------------------------

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise PauliError("size mismatch in PauliSum addition")
        out = self.copy()
        for k, c in other.terms.items():
            out.terms[k] = out.terms.get(k, 0.0) + c
        out._prune()
        return out

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (other * -1.0)

    def __mul__(self, scalar: float) -> "PauliSum":
        out = PauliSum(self.n_qubits)
        if abs(scalar) >= PRUNE_TOL:
            out.terms = {k: c * scalar for k, c in self.terms.items()
                         if abs(c * scalar) >= PRUNE_TOL}
        return out

    __rmul__ = __mul__

    def hs_inner(self, other: "PauliSum") -> float:
        """Hilbert-Schmidt inner product Tr(A B) = 2^N * (coefficient dot)."""
        if self.n_qubits != other.n_qubits:
            raise PauliError("size mismatch in inner product")
        small, big = (self.terms, other.terms) if len(self) <= len(other) else (other.terms, self.terms)
        dot = sum(c * big[k] for k, c in small.items() if k in big)
        return (2 ** self.n_qubits) * dot

    # -- products ----------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Exact dense matrix; refuses N above ``MAX_DENSE_QUBITS``."""
        if self.n_qubits > MAX_DENSE_QUBITS:
            raise PauliError(
                f"dense budget exceeded: N={self.n_qubits} > {MAX_DENSE_QUBITS}")
        k = np.arange(2 ** self.n_qubits)
        out = np.zeros((len(k), len(k)), dtype=complex)
        masks = np.array(list(self.terms), dtype=np.uint64).reshape(-1, 2)
        reflected = reflect_masks(masks, self.n_qubits).astype(np.int64).tolist()
        for ((x, z), c), (xr, zr) in zip(self.terms.items(), reflected):
            signs = np.where(np.bitwise_count(k & zr) & 1, -1.0, 1.0)
            out[k ^ xr, k] += c * _PHASES[(x & z).bit_count() % 4] * signs
        return out

    def reflection_image(self) -> "PauliSum":
        """Map qubit j -> N-j+1 (mask bit reversal), coefficients unchanged."""
        masks = np.array(list(self.terms), dtype=np.uint64).reshape(-1, 2)
        out = PauliSum(self.n_qubits)
        out.terms = dict(zip(map(tuple, reflect_masks(masks, self.n_qubits).tolist()),
                             self.terms.values()))
        return out

    # -- text form ---------------------------------------------------

    def to_text(self) -> str:
        """Serialize as lines ``coeff PAULI_STRING``, sorted for stable bytes."""
        return "\n".join(f"{self.terms[k]:.17g} {_label(self.n_qubits, *k)}"
                         for k in sorted(self.terms))

    @classmethod
    def from_text(cls, text: str, n_qubits: int | None = None) -> "PauliSum":
        terms: dict[tuple, float] = {}
        n = n_qubits
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                coeff_s, label = line.split()
                coeff, t = float(coeff_s), PauliTerm.from_label(label)
            except ValueError as exc:  # PauliError included
                raise PauliError(
                    f"line {lineno} {line!r} is not 'coeff PAULI_STRING': {exc}") from None
            if n is None:
                n = len(label)
            elif len(label) != n:
                raise PauliError(f"inconsistent string length in line {line!r}")
            key = (t.x_mask, t.z_mask)
            terms[key] = terms.get(key, 0.0) + coeff
        if n is None:
            raise PauliError("empty Pauli text")
        return cls(n, terms)

    def __repr__(self):
        if not self.terms:
            return f"PauliSum(N={self.n_qubits}, 0)"
        return " ".join(f"{self.terms[k]:+.6g}*{_label(self.n_qubits, *k)}"
                        for k in sorted(self.terms))


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """Normalized commutator (1/(2i))[A, B] of two Hermitian PauliSums.

    For canonical terms P1, P2 that anticommute, (1/(2i))[P1,P2] = P1 P2 / i
    which is again +/- a canonical term; commuting pairs drop out.
    """
    if a.n_qubits != b.n_qubits:
        raise PauliError("size mismatch in commutator")
    return arrays_to_sum(a.n_qubits, *commutator_arrays(*sum_to_arrays(a), *sum_to_arrays(b)))


# -- batched term arrays (used by the closure engine) ------------------

def sum_to_arrays(p: PauliSum) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x_masks, z_masks, coeffs) as uint64/float64 arrays."""
    if not p.terms:
        return (np.zeros(0, np.uint64), np.zeros(0, np.uint64), np.zeros(0))
    keys = list(p.terms)
    xs = np.array([k[0] for k in keys], dtype=np.uint64)
    zs = np.array([k[1] for k in keys], dtype=np.uint64)
    cs = np.array([p.terms[k] for k in keys])
    return xs, zs, cs


def arrays_to_sum(n_qubits: int, xs: np.ndarray, zs: np.ndarray, cs: np.ndarray) -> PauliSum:
    out = PauliSum(n_qubits)
    out.terms = {(int(x), int(z)): float(c)
                 for x, z, c in zip(xs, zs, cs) if abs(c) >= PRUNE_TOL}
    return out


def commutator_arrays(xs1, zs1, cs1, xs2, zs2, cs2, labels=None):
    """Vectorized (1/(2i))[A,B] on term arrays; returns merged term arrays.

    Coefficients may be float or integer arrays; integer results are exact
    while every merged sum of products fits int64.  ``labels = (l1, l2)``
    forms many brackets in one call: the term pair (i, j) belongs to
    bracket ``l1[i] + l2[j]``, terms merge only within a bracket, and the
    bracket of each output term comes back as a fourth array.
    """
    X1, Z1 = xs1[:, None], zs1[:, None]
    X2, Z2 = xs2[None, :], zs2[None, :]
    sym = (np.bitwise_count(Z1 & X2) + np.bitwise_count(X1 & Z2)) % 2
    i1, i2 = np.nonzero(sym)
    x1, z1, c1 = xs1[i1], zs1[i1], cs1[i1]
    x2, z2, c2 = xs2[i2], zs2[i2], cs2[i2]
    x3, z3 = x1 ^ x2, z1 ^ z2
    e = (np.bitwise_count(x1 & z1).astype(np.int64)
         + np.bitwise_count(x2 & z2)
         + 2 * np.bitwise_count(z1 & x2)
         - 1
         - np.bitwise_count(x3 & z3)) % 4
    coeff = np.where(e == 0, c1, -c1) * c2
    lab = (np.zeros(len(i1), np.int64) if labels is None
           else labels[0][i1] + labels[1][i2])
    # merge duplicate strings within each bracket
    order = np.lexsort((z3, x3, lab))
    x3, z3, coeff, lab = x3[order], z3[order], coeff[order], lab[order]
    new_group = np.ones(len(x3), dtype=bool)
    new_group[1:] = (lab[1:] != lab[:-1]) | (x3[1:] != x3[:-1]) | (z3[1:] != z3[:-1])
    starts = np.flatnonzero(new_group)
    merged = np.add.reduceat(coeff, starts) if len(starts) else coeff
    keep = np.abs(merged) >= PRUNE_TOL
    out = x3[starts][keep], z3[starts][keep], merged[keep]
    return out if labels is None else out + (lab[starts][keep],)


def reflect_masks(masks: np.ndarray, n_qubits: int) -> np.ndarray:
    """Bit-reverse each mask within an N-bit window (vectorized)."""
    out = np.zeros_like(masks)
    v = masks.copy()
    for _ in range(n_qubits):
        out = (out << np.uint64(1)) | (v & np.uint64(1))
        v = v >> np.uint64(1)
    return out
