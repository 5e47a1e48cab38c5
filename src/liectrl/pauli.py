"""Exact algebra of N-qubit Pauli strings and real linear combinations.

A Pauli string is encoded symplectically by a pair of bit masks
``(x_mask, z_mask)``: bit ``j`` of ``x_mask`` flags an X component on
qubit ``j`` and bit ``j`` of ``z_mask`` a Z component; a bit set in both
is a Y.  The canonical Hermitian operator attached to a mask pair is

    P(x, z) = i**popcount(x & z) * (X-part) * (Z-part),

which is exactly the tensor product of literal I/X/Y/Z factors.  A
:class:`PauliSum` keeps a real coefficient per mask pair and therefore
always represents a Hermitian operator.  It is the only string type (one
string is a one-term sum); the sign rule lives in :func:`commutator_arrays`.

Qubit indices are 1-based in the public interface (bit 0 of the masks is
qubit 1).  Masks are kept as Python ints but must fit 64 bits.

Dense matrices use the kron order: qubit 1 is the most significant bit of
the basis index k, as in ``models.basis_bits``.  With x', z' the masks
bit-reversed by :func:`reflect_masks`, column k of P(x, z) holds
i**popcount(x & z) * (-1)**popcount(k & z') at row k ^ x'.
"""

from __future__ import annotations

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


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _check_n_qubits(n_qubits: int) -> None:
    if not _is_int(n_qubits):
        raise PauliError(f"n_qubits must be an integer, got {n_qubits!r}")
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise PauliError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


def _label(n_qubits: int, x: int, z: int) -> str:
    return "".join(_BITS_TO_CHAR[(x >> j) & 1, (z >> j) & 1] for j in range(n_qubits))


def _masks(label: str) -> tuple[int, int]:
    """(x_mask, z_mask) of a string like ``"XIZ"``; position 1 is qubit 1."""
    x = z = 0
    for j, ch in enumerate(label):
        try:
            bx, bz = _CHAR_TO_BITS[ch]
        except KeyError:
            raise PauliError(f"invalid Pauli character {ch!r}") from None
        x |= bx << j
        z |= bz << j
    return x, z


class PauliSum:
    """Real linear combination of canonical Hermitian Pauli strings.

    The terms map ``(x_mask, z_mask) -> coefficient`` with real
    coefficients only, so every PauliSum is Hermitian by construction.
    """

    __slots__ = ("n_qubits", "terms")

    def __init__(self, n_qubits: int, terms: Mapping[tuple, float] | None = None):
        _check_n_qubits(n_qubits)
        self.n_qubits = n_qubits
        self.terms: dict[tuple, float] = {  # NaN is kept, to be rejected
            key: float(coeff) for key, coeff in (terms or {}).items()
            if not abs(coeff) < PRUNE_TOL}
        if any((x | z) >> n_qubits for x, z in self.terms):
            raise PauliError("mask has bits outside the qubit register")
        if not np.isfinite(list(self.terms.values())).all():
            raise PauliError("coefficients must be finite")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_label(cls, label: str, coeff: float = 1.0) -> "PauliSum":
        return cls(len(label), {_masks(label): coeff})

    @classmethod
    def single_site(cls, n_qubits: int, site: int, kind: str, coeff: float = 1.0) -> "PauliSum":
        """One-qubit operator on 1-based ``site`` embedded in N qubits."""
        if not _is_int(site):
            raise PauliError(f"site must be an integer, got {site!r}")
        if not 1 <= site <= n_qubits:
            raise PauliError(f"site {site} out of range 1..{n_qubits}")
        if kind not in _CHAR_TO_BITS:
            raise PauliError(f"invalid Pauli character {kind!r}")
        x, z = _masks(kind)
        return cls(n_qubits, {(x << (site - 1), z << (site - 1)): coeff})

    # -- bookkeeping -------------------------------------------------

    def __len__(self) -> int:
        return len(self.terms)

    def coeff(self, label: str) -> float:
        key = _masks(label)
        if len(label) != self.n_qubits:
            raise PauliError("label length does not match qubit count")
        return self.terms.get(key, 0.0)

    # -- linear algebra ----------------------------------------------

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise PauliError("size mismatch in PauliSum addition")
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0.0) + c
        return PauliSum(self.n_qubits, terms)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (other * -1.0)

    def __mul__(self, scalar: float) -> "PauliSum":
        return PauliSum(self.n_qubits, {k: c * scalar for k, c in self.terms.items()})

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
        xs, zs, cs = sum_to_arrays(self)
        reflected = reflect_masks(np.stack([xs, zs]), self.n_qubits).tolist()
        for c, phase, xr, zr in zip(cs, _PHASES[np.bitwise_count(xs & zs) % 4], *reflected):
            signs = np.where(np.bitwise_count(k & zr) & 1, -1.0, 1.0)
            out[k ^ xr, k] += c * phase * signs
        return out

    def reflection_image(self) -> "PauliSum":
        """Map qubit j -> N-j+1 (mask bit reversal), coefficients unchanged."""
        xs, zs, cs = sum_to_arrays(self)
        xr, zr = reflect_masks(np.stack([xs, zs]), self.n_qubits).tolist()
        return PauliSum(self.n_qubits, dict(zip(zip(xr, zr), cs)))

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
    """(x_masks, z_masks, coeffs) of p's terms, in term order, as uint64/uint64/float64 arrays."""
    xs, zs = np.array(list(p.terms), dtype=np.uint64).reshape(-1, 2).T
    return xs, zs, np.array(list(p.terms.values()), dtype=float)


def arrays_to_sum(n_qubits: int, xs: np.ndarray, zs: np.ndarray, cs: np.ndarray) -> PauliSum:
    """PauliSum of term arrays; the coefficients of a repeated string add up."""
    terms: dict[tuple, float] = {}
    for key, c in zip(zip(xs.tolist(), zs.tolist()), cs.tolist()):
        terms[key] = terms.get(key, 0.0) + c
    return PauliSum(n_qubits, terms)


def commutator_arrays(xs1, zs1, cs1, xs2, zs2, cs2, labels=None):
    """Vectorized (1/(2i))[A,B] on term arrays: one term per anticommuting pair.

    The term of the pair (i, j) is +/- cs1[i] * cs2[j] on the string
    (xs1[i] ^ xs2[j], zs1[i] ^ zs2[j]).  Nothing is merged or pruned, so a
    string may repeat; :func:`arrays_to_sum` adds the repeats up.  Integer
    coefficients give exact integer products.  ``labels = (l1, l2)`` forms
    many brackets in one call: the pair (i, j) belongs to bracket
    ``l1[i] + l2[j]``, returned as a fourth array.
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
    out = x3, z3, np.where(e == 0, c1, -c1) * c2
    return out if labels is None else out + (labels[0][i1] + labels[1][i2],)


def reflect_masks(masks: np.ndarray, n_qubits: int) -> np.ndarray:
    """Bit-reverse each mask within an N-bit window (vectorized)."""
    out = np.zeros_like(masks)
    v = masks.copy()
    for _ in range(n_qubits):
        out = (out << np.uint64(1)) | (v & np.uint64(1))
        v = v >> np.uint64(1)
    return out
