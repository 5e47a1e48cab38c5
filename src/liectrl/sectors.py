"""Fixed-particle-number operators for fermions and bosons.

Operators are dense matrices on the occupation-number basis of one
particle-number sector, which keeps them exact (no Fock truncation) and
feeds directly into the dense closure backend.  Every operator is built
from the basis's (dim, n_modes) integer occupation array: diagonal
generators are weighted sums of its columns, and every hopping is one
vectorized sum of c_i^dag c_j over a list of mode pairs.  Fermionic matrix
elements carry Jordan-Wigner parity signs in a fixed mode order; for
spinful fermions the modes are ordered (site 1 up, site 1 down,
site 2 up, ...).

Sites, modes and lattice coordinates are 1-based in the public
interface, matching the chain and superlattice conventions used by the
builders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Literal

import numpy as np

from .closure import GeneratorSet
from .pauli import _is_int

SectorKind = Literal["fermion", "boson", "spinful_fermion"]

DENSE_SECTOR_BUDGET = 512


class SectorError(ValueError):
    pass


@dataclass(frozen=True)
class SectorBasis:
    """Occupation basis of one fixed-particle-number sector: ``states`` in
    ascending lexicographic order, and ``_occ`` the same as an integer array."""

    kind: SectorKind
    n_modes: int
    n_particles: int
    states: tuple = field(repr=False)
    index: dict = field(repr=False, hash=False, compare=False)
    _occ: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def build(cls, kind: SectorKind, n_modes: int, n_particles: int) -> "SectorBasis":
        if not (_is_int(n_modes) and _is_int(n_particles)):
            raise SectorError(f"need integer n_modes and n_particles, got ({n_modes!r}, "
                              f"{n_particles!r})")
        if n_modes < 1 or n_particles < 0:
            raise SectorError("need n_modes >= 1 and n_particles >= 0")
        if kind in ("fermion", "spinful_fermion"):
            if n_particles > n_modes:
                raise SectorError("more fermions than modes")
            pick, dim = combinations, comb(n_modes, n_particles)
        elif kind == "boson":
            pick = combinations_with_replacement
            dim = comb(n_particles + n_modes - 1, n_particles)
        else:
            raise SectorError(f"unknown sector kind {kind!r}")
        if dim > DENSE_SECTOR_BUDGET:
            raise SectorError(f"sector dimension {dim} exceeds budget {DENSE_SECTOR_BUDGET}")
        # the modes each particle sits in, one row per state, counted per mode
        picked = np.array(list(pick(range(n_modes), n_particles)), dtype=int)
        flat = np.arange(dim)[:, None] * n_modes + picked.reshape(dim, n_particles)
        occ = np.bincount(flat.ravel(), minlength=dim * n_modes).reshape(dim, n_modes)
        occ = occ[np.lexsort(occ.T[::-1])]
        states = tuple(map(tuple, occ.tolist()))
        return cls(kind, n_modes, n_particles, states,
                   {s: k for k, s in enumerate(states)}, occ)

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def fermionic(self) -> bool:
        return self.kind in ("fermion", "spinful_fermion")


def _check_mode(basis: SectorBasis, i: int) -> int:
    if not _is_int(i):
        raise SectorError(f"mode must be an integer, got {i!r}")
    if not 1 <= i <= basis.n_modes:
        raise SectorError(f"mode {i} out of range 1..{basis.n_modes}")
    return i - 1


def _transfers(basis: SectorBasis, pairs) -> np.ndarray:
    """Sum of c_i^dag c_j over 0-based mode pairs (i, j), i != j, built in
    one pass over every (state, pair) that can move a particle j -> i."""
    occ, dim = basis._occ, basis.dim
    i, j = np.array(pairs, dtype=int).reshape(-1, 2).T
    movable = occ[:, j] > 0
    if basis.fermionic:
        movable &= occ[:, i] == 0
    col, p = np.nonzero(movable)
    i, j = i[p], j[p]
    if basis.fermionic:
        # parity of the modes c_j passes, then of those c_i^dag passes once j is empty
        before = np.cumsum(occ, axis=1) - occ
        amp = (-1.0) ** (before[col, j] + before[col, i] - (j < i))
    else:
        amp = np.sqrt(occ[col, j]) * np.sqrt(occ[col, i] + 1)
    step = np.eye(basis.n_modes, dtype=int)
    moved = occ[col] + step[i] - step[j]
    row = np.array([basis.index[s] for s in map(tuple, moved.tolist())], dtype=int)
    out = np.bincount(row * dim + col, amp, minlength=dim * dim)
    return out.reshape(dim, dim).astype(complex)


def _hopping(basis: SectorBasis, pairs) -> np.ndarray:
    """Sum of c_i^dag c_j + c_j^dag c_i over 0-based mode pairs."""
    t = _transfers(basis, pairs)
    return t + t.conj().T


def _diag(values: np.ndarray) -> np.ndarray:
    return np.diag(np.asarray(values, dtype=complex))


def transfer(basis: SectorBasis, i: int, j: int) -> np.ndarray:
    """Matrix of c_i^dag c_j on the sector (modes 1-based, i != j)."""
    mi, mj = _check_mode(basis, i), _check_mode(basis, j)
    if mi == mj:
        raise SectorError("transfer needs distinct modes; use number_op")
    return _transfers(basis, [(mi, mj)])


def hopping(basis: SectorBasis, i: int, j: int) -> np.ndarray:
    """Matrix of c_i^dag c_j + c_j^dag c_i on the sector."""
    t = transfer(basis, i, j)
    return t + t.conj().T


def number_op(basis: SectorBasis, i: int) -> np.ndarray:
    return _diag(basis._occ[:, _check_mode(basis, i)])


def build_hubbard_chain_controls(kind: SectorKind, n_sites: int,
                                 n_particles: int) -> GeneratorSet:
    """Alternating superlattice control set for a spinless chain.

    Generators, in order: odd-bond hopping, even-bond hopping, odd-site
    chemical potential, even-site chemical potential, Hubbard
    interaction (nearest-neighbor n_i n_{i+1} for fermions, on-site
    n_i (n_i - 1) for bosons).
    """
    if kind not in ("fermion", "boson"):
        raise SectorError("spinless chain supports fermion or boson kinds")
    if not _is_int(n_sites):
        raise SectorError(f"need an integer n_sites, got {n_sites!r}")
    if n_sites < 3 or n_sites % 2 == 0:
        raise SectorError(
            "the alternating-control universality statements assume an odd "
            f"number of sites >= 3; got n_sites={n_sites}")
    basis = SectorBasis.build(kind, n_sites, n_particles)
    occ = basis._occ
    bonds = [(s, s + 1) for s in range(n_sites - 1)]  # 0-based, odd bonds first
    h_u = occ[:, :-1] * occ[:, 1:] if kind == "fermion" else occ * (occ - 1)
    gens = [_hopping(basis, bonds[0::2]), _hopping(basis, bonds[1::2]),
            _diag(occ[:, 0::2].sum(1)), _diag(occ[:, 1::2].sum(1)), _diag(h_u.sum(1))]
    return GeneratorSet("dense", gens, label=f"{kind} chain N={n_sites} n={n_particles}",
                        basis=basis)


def build_spinful_controls(n_sites: int, n_particles: int,
                           a: float = 1.0, b: float = 0.0) -> GeneratorSet:
    """Superlattice control set for the spinful fermion chain.

    Generators, in order: odd/even-bond spin-preserving hopping,
    odd/even-site charge chemical potential, uniform spin-X field,
    spin-Z field with per-site weight (a*i + b), on-site Hubbard
    interaction.
    """
    if n_sites < 3 or n_sites % 2 == 0:
        raise SectorError(
            "the spinful universality statement assumes an odd number of "
            f"sites >= 3; got n_sites={n_sites}")
    basis = SectorBasis.build("spinful_fermion", 2 * n_sites, n_particles)
    up, down = basis._occ[:, 0::2], basis._occ[:, 1::2]  # column s: site s + 1
    odd, even = ([(2 * s + spin, 2 * s + 2 + spin)  # 0-based modes, both spins
                  for s in range(first, n_sites - 1, 2) for spin in (0, 1)]
                 for first in (0, 1))
    gens = [_hopping(basis, odd), _hopping(basis, even),
            _diag((up + down)[:, 0::2].sum(1)), _diag((up + down)[:, 1::2].sum(1)),
            _hopping(basis, [(2 * s, 2 * s + 1) for s in range(n_sites)]),
            _diag((up - down) @ (a * np.arange(1, n_sites + 1) + b)),
            _diag((up * down).sum(1))]
    return GeneratorSet("dense", gens, label=f"spinful chain N={n_sites} n={n_particles}",
                        basis=basis)


# -- 2D superlattice with four species ----------------------------------

def _species(row: int, col: int) -> int:
    """Species of a 1-based (row, col): 1 odd/odd, 2 odd/even, 3 even/odd, 4 even/even."""
    return 4 - 2 * (row % 2) - col % 2


def lattice_mode(row: int, col: int, cols: int) -> int:
    if not all(map(_is_int, (row, col, cols))):
        raise SectorError(f"need integer row, col and cols, got ({row!r}, {col!r}, {cols!r})")
    if row < 1 or not 1 <= col <= cols:
        raise SectorError(f"need row >= 1 and col in 1..{cols}, got ({row}, {col})")
    return (row - 1) * cols + col


def build_nnn_lattice(rows: int, cols: int) -> GeneratorSet:
    """Four species-resolved chemical potentials and four bond-class
    hoppings on a rows x cols superlattice, in the single-particle
    sector: the NNN identities relate quadratic hoppings, so it decides them.

    Generator order: H1_mu..H4_mu, H1_hop..H4_hop, where hoppings 1/2
    are horizontal bonds starting on odd/even columns and hoppings 3/4
    vertical bonds starting on odd/even rows.
    """
    if not (_is_int(rows) and _is_int(cols)):
        raise SectorError(f"need integer rows and cols, got ({rows!r}, {cols!r})")
    if rows < 3 or cols < 3 or rows % 2 == 0 or cols % 2 == 0:
        raise SectorError(
            "superlattice needs odd rows, cols >= 3 so every species and "
            f"bond class occurs; got {rows}x{cols}")
    basis = SectorBasis.build("fermion", rows * cols, 1)
    sites = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]  # mode order
    species = np.array([_species(r, c) for r, c in sites])
    mus = [_diag(basis._occ[:, species == s].sum(1)) for s in (1, 2, 3, 4)]
    # 0-based (right or lower neighbour, site) per class, starting on odd then even
    hops = [[(m + 1, m) for m, (r, c) in enumerate(sites) if c < cols and c % 2 == parity]
            for parity in (1, 0)]
    hops += [[(m + cols, m) for m, (r, c) in enumerate(sites) if r < rows and r % 2 == parity]
             for parity in (1, 0)]
    return GeneratorSet("dense", mus + [_hopping(basis, h) for h in hops],
                        label=f"NNN superlattice {rows}x{cols}", basis=basis)


def _nnn_target(basis: SectorBasis, rows: int, cols: int,
                src_species: int, direction: Literal["L", "R"]) -> np.ndarray:
    """Direct construction of the diagonal next-nearest-neighbor hopping."""
    dc = 1 if direction == "R" else -1
    pairs = [(lattice_mode(r + 1, c + dc, cols) - 1, lattice_mode(r, c, cols) - 1)
             for r in range(1, rows) for c in range(1, cols + 1)
             if _species(r, c) == src_species and 1 <= c + dc <= cols]
    return _hopping(basis, pairs)


# (label) -> (mu_a, [mu_b, hop_1], [mu_c, hop_2]) indices into the
# generator order of build_nnn_lattice, plus the direct-target species
_NNN_RECIPES = {
    "14R": ((0, (1, 4), (3, 6)), 1, "R"),
    "23L": ((1, (0, 4), (2, 6)), 2, "L"),
    "23R": ((1, (0, 5), (2, 6)), 2, "R"),
    "14L": ((0, (1, 5), (3, 6)), 1, "L"),
    "32R": ((2, (3, 4), (1, 7)), 3, "R"),
    "41L": ((3, (2, 4), (0, 7)), 4, "L"),
    "41R": ((3, (2, 5), (0, 7)), 4, "R"),
    "32L": ((2, (3, 5), (1, 7)), 3, "L"),
}
NNN_LABELS = tuple(_NNN_RECIPES)


def verify_nnn_identity(which: str, rows: int, cols: int) -> tuple[bool, float]:
    """Compare one triple-nested-commutator construction with the direct
    next-nearest-neighbor hopping in integers: returns (built == k * target
    exactly, float(k)), with k the integer quotient at the target's first nonzero."""
    if which not in _NNN_RECIPES:
        raise SectorError(f"unknown identity label {which!r}; "
                          f"expected one of {NNN_LABELS}")
    (outer, inner1, inner2), species, direction = _NNN_RECIPES[which]
    gen = build_nnn_lattice(rows, cols)
    g = [m.real.astype(np.int64) for m in gen.generators]  # integer matrices

    def comm(x, y):
        return x @ y - y @ x

    built = comm(g[outer], comm(comm(g[inner1[0]], g[inner1[1]]),
                                comm(g[inner2[0]], g[inner2[1]])))
    target = _nnn_target(gen.basis, rows, cols, species, direction).real.astype(np.int64)
    first = np.flatnonzero(target)[0]
    k, rem = divmod(built.flat[first], target.flat[first])
    return bool(rem == 0 and np.array_equal(built, k * target)), float(k)
