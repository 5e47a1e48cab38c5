"""Fixed-particle-number operators for fermions and bosons.

Operators are dense matrices on the occupation-number basis of one
particle-number sector, which keeps them exact (no Fock truncation) and
feeds directly into the dense closure backend.  Fermionic matrix
elements carry Jordan-Wigner parity signs in a fixed mode order; for
spinful fermions the modes are ordered (site 1 up, site 1 down,
site 2 up, ...).

Sites, modes and lattice coordinates are 1-based in the public
interface, matching the chain and superlattice conventions used by the
builders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Literal

import numpy as np

from .closure import GeneratorSet

SectorKind = Literal["fermion", "boson", "spinful_fermion"]

DENSE_SECTOR_BUDGET = 512


class SectorError(ValueError):
    pass


@dataclass(frozen=True)
class SectorBasis:
    """Occupation basis of one fixed-particle-number sector."""

    kind: SectorKind
    n_modes: int
    n_particles: int
    states: tuple = field(repr=False)
    index: dict = field(repr=False, hash=False, compare=False)

    @classmethod
    def build(cls, kind: SectorKind, n_modes: int, n_particles: int,
              budget: int = DENSE_SECTOR_BUDGET) -> "SectorBasis":
        if n_modes < 1 or n_particles < 0:
            raise SectorError("need n_modes >= 1 and n_particles >= 0")
        if kind in ("fermion", "spinful_fermion"):
            if n_particles > n_modes:
                raise SectorError("more fermions than modes")
            dim = comb(n_modes, n_particles)
            if dim > budget:
                raise SectorError(f"sector dimension {dim} exceeds budget {budget}")
            states = []
            for occupied in combinations(range(n_modes), n_particles):
                occ = [0] * n_modes
                for m in occupied:
                    occ[m] = 1
                states.append(tuple(occ))
        elif kind == "boson":
            dim = comb(n_particles + n_modes - 1, n_particles)
            if dim > budget:
                raise SectorError(f"sector dimension {dim} exceeds budget {budget}")
            states = list(_boson_states(n_modes, n_particles))
        else:
            raise SectorError(f"unknown sector kind {kind!r}")
        states.sort()
        index = {s: k for k, s in enumerate(states)}
        return cls(kind, n_modes, n_particles, tuple(states), index)

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def fermionic(self) -> bool:
        return self.kind in ("fermion", "spinful_fermion")


def _boson_states(n_modes: int, n_particles: int):
    if n_modes == 1:
        yield (n_particles,)
        return
    for head in range(n_particles + 1):
        for tail in _boson_states(n_modes - 1, n_particles - head):
            yield (head,) + tail


@dataclass
class SectorOperator:
    basis: SectorBasis
    matrix: np.ndarray


def _check_mode(basis: SectorBasis, i: int) -> int:
    if not 1 <= i <= basis.n_modes:
        raise SectorError(f"mode {i} out of range 1..{basis.n_modes}")
    return i - 1


def transfer(basis: SectorBasis, i: int, j: int) -> np.ndarray:
    """Matrix of c_i^dag c_j on the sector (modes 1-based, i != j)."""
    mi, mj = _check_mode(basis, i), _check_mode(basis, j)
    if mi == mj:
        raise SectorError("transfer needs distinct modes; use number_op")
    dim = basis.dim
    out = np.zeros((dim, dim), dtype=complex)
    for col, occ in enumerate(basis.states):
        if basis.fermionic:
            if occ[mj] == 0 or occ[mi] == 1:
                continue
            sign = (-1) ** sum(occ[:mj])
            mid = list(occ)
            mid[mj] = 0
            sign *= (-1) ** sum(mid[:mi])
            mid[mi] = 1
            out[basis.index[tuple(mid)], col] += sign
        else:
            if occ[mj] == 0:
                continue
            amp = np.sqrt(occ[mj]) * np.sqrt(occ[mi] + 1)
            mid = list(occ)
            mid[mj] -= 1
            mid[mi] += 1
            out[basis.index[tuple(mid)], col] += amp
    return out


def hopping(basis: SectorBasis, i: int, j: int) -> SectorOperator:
    """c_i^dag c_j + c_j^dag c_i on the sector."""
    t = transfer(basis, i, j)
    return SectorOperator(basis, t + t.conj().T)


def number_op(basis: SectorBasis, i: int) -> SectorOperator:
    mi = _check_mode(basis, i)
    diag = np.array([occ[mi] for occ in basis.states], dtype=float)
    return SectorOperator(basis, np.diag(diag).astype(complex))


def _zero(basis: SectorBasis) -> SectorOperator:
    return SectorOperator(basis, np.zeros((basis.dim, basis.dim), dtype=complex))


def _diag_product(basis: SectorBasis, i: int, j: int) -> np.ndarray:
    """n_i n_j as a diagonal matrix (i, j may coincide)."""
    mi, mj = _check_mode(basis, i), _check_mode(basis, j)
    diag = np.array([occ[mi] * occ[mj] for occ in basis.states], dtype=float)
    return np.diag(diag).astype(complex)


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
    if n_sites < 3 or n_sites % 2 == 0:
        raise SectorError(
            "the alternating-control universality statements assume an odd "
            f"number of sites >= 3; got n_sites={n_sites}")
    basis = SectorBasis.build(kind, n_sites, n_particles)
    h_odd_hop, h_even_hop = _zero(basis), _zero(basis)
    for i in range(1, n_sites):
        (h_odd_hop if i % 2 == 1 else h_even_hop).matrix[...] += hopping(basis, i, i + 1).matrix
    h_odd_mu, h_even_mu = _zero(basis), _zero(basis)
    for i in range(1, n_sites + 1):
        (h_odd_mu if i % 2 == 1 else h_even_mu).matrix[...] += number_op(basis, i).matrix
    h_u = _zero(basis)
    for i in range(1, n_sites):
        if kind == "fermion":
            h_u.matrix[...] += _diag_product(basis, i, i + 1)
        else:
            h_u.matrix[...] += _diag_product(basis, i, i) - number_op(basis, i).matrix
    gens = [h_odd_hop, h_even_hop, h_odd_mu, h_even_mu, h_u]
    names = ["H_odd_hop", "H_even_hop", "H_odd_mu", "H_even_mu", "H_U"]
    return GeneratorSet("dense", [g.matrix for g in gens],
                        label=f"{kind} chain N={n_sites} n={n_particles}",
                        names=names, basis=basis)


def spinful_mode(site: int, spin: Literal["up", "down"]) -> int:
    """1-based mode index of (site, spin) with up ordered before down."""
    return 2 * (site - 1) + (1 if spin == "up" else 2)


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
    h_odd_hop, h_even_hop = _zero(basis), _zero(basis)
    for i in range(1, n_sites):
        target = h_odd_hop if i % 2 == 1 else h_even_hop
        for spin in ("up", "down"):
            target.matrix[...] += hopping(
                basis, spinful_mode(i, spin), spinful_mode(i + 1, spin)).matrix
    h_odd_mu, h_even_mu = _zero(basis), _zero(basis)
    for i in range(1, n_sites + 1):
        target = h_odd_mu if i % 2 == 1 else h_even_mu
        for spin in ("up", "down"):
            target.matrix[...] += number_op(basis, spinful_mode(i, spin)).matrix
    h_bx = _zero(basis)
    for i in range(1, n_sites + 1):
        h_bx.matrix[...] += hopping(
            basis, spinful_mode(i, "up"), spinful_mode(i, "down")).matrix
    h_bz = _zero(basis)
    for i in range(1, n_sites + 1):
        w = a * i + b
        h_bz.matrix[...] += w * (number_op(basis, spinful_mode(i, "up")).matrix
                                 - number_op(basis, spinful_mode(i, "down")).matrix)
    h_u = _zero(basis)
    for i in range(1, n_sites + 1):
        h_u.matrix[...] += _diag_product(
            basis, spinful_mode(i, "up"), spinful_mode(i, "down"))
    gens = [h_odd_hop, h_even_hop, h_odd_mu, h_even_mu, h_bx, h_bz, h_u]
    names = ["H_odd_hop", "H_even_hop", "H_odd_mu", "H_even_mu",
             "H_BX", f"H_BZ(a={a},b={b})", "H_U"]
    return GeneratorSet("dense", [g.matrix for g in gens],
                        label=f"spinful chain N={n_sites} n={n_particles}",
                        names=names, basis=basis)


# -- 2D superlattice with four species ----------------------------------

NNN_LABELS = ("14R", "23L", "23R", "14L", "32R", "41L", "41R", "32L")

# species of a lattice coordinate (row, col), all 1-based
_SPECIES = {(1, 1): 1, (1, 0): 2, (0, 1): 3, (0, 0): 4}


def _species(row: int, col: int) -> int:
    return _SPECIES[(row % 2, col % 2)]


def lattice_mode(row: int, col: int, cols: int) -> int:
    return (row - 1) * cols + col


def build_nnn_lattice(rows: int, cols: int, n_particles: int = 1) -> GeneratorSet:
    """Four species-resolved chemical potentials and four bond-class
    hoppings on a rows x cols superlattice, in the single-particle
    sector by default.

    Generator order: H1_mu..H4_mu, H1_hop..H4_hop, where hoppings 1/2
    are horizontal bonds starting on odd/even columns and hoppings 3/4
    vertical bonds starting on odd/even rows.
    """
    if rows < 3 or cols < 3 or rows % 2 == 0 or cols % 2 == 0:
        raise SectorError(
            "superlattice needs odd rows, cols >= 3 so every species and "
            f"bond class occurs; got {rows}x{cols}")
    basis = SectorBasis.build("fermion", rows * cols, n_particles)
    mus = [_zero(basis) for _ in range(4)]
    for r in range(1, rows + 1):
        for c in range(1, cols + 1):
            mus[_species(r, c) - 1].matrix[...] += number_op(
                basis, lattice_mode(r, c, cols)).matrix
    hops = [_zero(basis) for _ in range(4)]
    for r in range(1, rows + 1):
        for c in range(1, cols):
            which = 0 if c % 2 == 1 else 1
            hops[which].matrix[...] += hopping(
                basis, lattice_mode(r, c + 1, cols), lattice_mode(r, c, cols)).matrix
    for r in range(1, rows):
        for c in range(1, cols + 1):
            which = 2 if r % 2 == 1 else 3
            hops[which].matrix[...] += hopping(
                basis, lattice_mode(r + 1, c, cols), lattice_mode(r, c, cols)).matrix
    return GeneratorSet("dense", [m.matrix for m in mus] + [h.matrix for h in hops],
                        label=f"NNN superlattice {rows}x{cols}",
                        names=["H1_mu", "H2_mu", "H3_mu", "H4_mu",
                               "H1_hop", "H2_hop", "H3_hop", "H4_hop"],
                        basis=basis)


def _nnn_target(basis: SectorBasis, rows: int, cols: int,
                src_species: int, direction: Literal["L", "R"]) -> np.ndarray:
    """Direct construction of the diagonal next-nearest-neighbor hopping."""
    dc = 1 if direction == "R" else -1
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    found = False
    for r in range(1, rows):
        for c in range(1, cols + 1):
            if _species(r, c) != src_species or not 1 <= c + dc <= cols:
                continue
            t = transfer(basis, lattice_mode(r + 1, c + dc, cols),
                         lattice_mode(r, c, cols))
            out += t + t.conj().T
            found = True
    if not found:
        raise SectorError("lattice too small to contain the requested bond class")
    return out


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


def verify_nnn_identity(which: str, rows: int, cols: int,
                        residual_tol: float = 1e-9) -> tuple[bool, float]:
    """Compare one triple-nested-commutator construction with the direct
    next-nearest-neighbor hopping; returns (passed, fitted constant)."""
    if which not in _NNN_RECIPES:
        raise SectorError(f"unknown identity label {which!r}; "
                          f"expected one of {NNN_LABELS}")
    (outer, inner1, inner2), species, direction = _NNN_RECIPES[which]
    gen = build_nnn_lattice(rows, cols)
    g = gen.generators

    def comm(x, y):
        return x @ y - y @ x

    built = comm(g[outer], comm(comm(g[inner1[0]], g[inner1[1]]),
                                comm(g[inner2[0]], g[inner2[1]])))
    target = _nnn_target(gen.basis, rows, cols, species, direction)
    scale = np.vdot(target, built).real / np.vdot(target, target).real
    residual = np.linalg.norm(built - scale * target) / np.linalg.norm(built)
    return bool(residual < residual_tol), float(scale)
