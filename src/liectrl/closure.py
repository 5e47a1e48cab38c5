"""Dynamical Lie algebra closure and universality decisions.

Two backends compute the real Lie algebra generated by a set of Hermitian
operators under the normalized bracket (1/(2i))[A, B]:

* ``pauli``  - exact.  Elements are :class:`~liectrl.pauli.PauliSum`
  values.  The coefficients of each generator must be integer multiples
  of its smallest one, and N <= 31 so that a string fits one int64 key
  (x << N) | z; anything else raises :class:`ClosureError` (use
  ``representation="dense"``).  The bracket of two canonical strings is
  +/- a string, so the closure stays integral and is computed over GF(p),
  kept as sparse reduced row-echelon rows mod p.  The primes lie below
  2**24: a bracket term, the product of two residues, is below 2**48 and
  is reduced mod p before the terms are summed, so int64 sums are exact.
  A GF(p) dimension never exceeds the rational one, so ``theoretical_cap``
  rows mod p certify universality over the rationals.  So do rows spanning
  X_j, Z_j and Z_j Z_{j+1}, which are not mirror invariant: the span mod p
  is closed under brackets, which take these to every string, and with an
  identity term the algebra is u(2^N), as su(2^N) has no subalgebra of
  codimension 1.  A non-universal dimension is a lower bound, short only
  if p divides an elementary divisor of the integer matrix of bracket
  words.  It is exact when it meets the upper bound of mirror-invariant
  generators (:func:`_mirror_bound`), whose closure is kept on one key per
  mirror orbit, never spans those strings, and is unfolded to both keys
  when the result is built.  For 3 <= N <= MAX_MIRRORED_QUBITS it also ends,
  "mirrored locals", once the rows mod p hold the paper's Lemma B2 targets
  T_N (X_j + X_{N+1-j}, Z_j + Z_{N+1-j}, Z_j Z_{j+1} + its mirror) and the
  generators' I/R-perp parts have the same rank mod p as over the rationals:
  the rows then contain closure_p(T_N), pinned at T_N's own bound, so its
  brackets span M_N mod p; a GF(p) rank is at most the rational one, and the
  upper bound is M_N plus the generators' I/R-perp part.  Otherwise it is
  rerun on a second prime: a universal rerun makes the verdict universal, a
  rerun meeting the bound decides, and two non-universal dimensions must
  agree, or :class:`ClosureError` names both.  A universal result, or one at
  its mirror bound ("mirror bound", "mirrored locals"), is a known space, with
  ``basis`` and ``contains`` in closed form; otherwise they lift the rows to
  the rationals by CRT over the two primes and rational reconstruction,
  exact for entries with numerator and denominator up to about 1.2e7.
  Every generator must reduce to exactly 0 against the lift, or
  :class:`ClosureError` is raised.
* ``dense``  - floating point.  Elements are Hermitian matrices, stored
  as real vectors of length D**2 in Hermitian coordinates (diagonal,
  sqrt(2) Re and sqrt(2) Im of the upper triangle), whose dot product is
  the Hilbert-Schmidt inner product, and orthonormalized against an
  absolute residual floor.  A diagonal sign conjugation diag(+/-1) that
  takes every generator to +/- itself grades the algebra, and so does
  complex conjugation when every generator is real: [p, p] and [k, k] lie
  in k and [p, k] in p, for p the real symmetric and k the imaginary
  antisymmetric matrices.  Every bracket is exactly zero outside one
  character of these gradings, a slice of the coordinates, so a basis is
  kept per slice, each of its own width, real generators bracket in real
  arithmetic, and a result keeps the rows per slice: ``basis`` builds
  D**2-wide rows only on request.  ``rank_margin`` reports how far the
  accepted residuals stayed from the rejected ones.

Both run a breadth-first expansion that commutes every new basis element
with every *generator* only.  By the Jacobi identity the span of such
left-nested brackets equals the full Lie closure, so convergence of this
cheaper iteration certifies closure under arbitrary pairwise brackets.

The qubit-side entry points build the uniform chain controls
H_X = sum_j X_j, H_Z = sum_j Z_j, H_ZZ = sum_j Z_j Z_{j+1} plus an
optional partial X field, decide universality against su(2^N), and
expose the reflection-sector diagnostics used by the chain theorem.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt
from typing import Literal

import numpy as np

from .pauli import (
    PauliSum,
    _is_int,
    arrays_to_sum,
    commutator_arrays,
    reflect_masks,
    sum_to_arrays,
)

Representation = Literal["pauli", "dense"]

# GF(p) runs of the pauli backend, in order; both below 2**24.
PRIMES = (16777213, 16777199)
MAX_EXACT_QUBITS = 31
MAX_MIRRORED_QUBITS = 8  # closure_p(T_N) pinned at its bound mod PRIMES for 3 <= N <= this
_MAX_GENERATOR_TERMS = 2 ** 15  # input bound: a bracket pairs every row entry with each term
_INTEGER_TOL = 1e-12
_TRACE_TOL = 1e-9
_HERM_TOL = 1e-12
_ZERO_FLOOR = 1e-14
_MEMBER_TOL = 1e-8  # a unit-norm element whose residual is below this is in the span
# Dense backend only: residuals below this floor are treated as roundoff.
# Candidates have norm <= 1 (normalized brackets of unit-norm operands) and
# are processed oldest first, so genuine directions enter at large residuals
# before deep, noisier brackets arrive.  Measured on the bench's sector chains
# (fermion and boson N=5, 7 at n=2, 3; spinful N=3), accepted residuals go
# down to 1.1e-5 and rejected ones up to 8.8e-8, both on boson N=5 n=3
# (rank margin 127); the others stop at 3.1e-4 and 6.7e-10 (fermion N=7 n=3).
# Every result reports its ratio as ``rank_margin``, which tests/test_sectors.py::
# test_bench_sector_closures_clear_the_margin_warning requires at least _MARGIN_WARN
# on all of them.  Coefficient ratios near 1e6 push genuine brackets under the floor.
_ABS_FLOOR = 1e-6
_SQRT2 = np.sqrt(2.0)
_CHUNK = 384
# a dense result whose rank margin falls below this is logged as a warning
_MARGIN_WARN = 100.0

log = logging.getLogger("liectrl")


class ClosureError(ValueError):
    pass


@dataclass
class GeneratorSet:
    """Hermitian generators in one shared representation."""

    representation: Representation
    generators: list
    label: str = ""
    basis: object = None  # sectors.SectorBasis of sector-built dense generators

    def __post_init__(self):
        if not isinstance(self.generators, (Sequence, np.ndarray)):  # PauliSum has a len
            raise ClosureError("generators must be a sequence, "
                               f"got {type(self.generators).__name__}")
        if len(self.generators) == 0:  # a stacked array has no truth value
            raise ClosureError("empty generator set")
        if self.representation == "pauli":
            bad = [type(g).__name__ for g in self.generators if not isinstance(g, PauliSum)]
            if bad:
                raise ClosureError(f"pauli generators must be PauliSum values, got {bad[0]}")
            n = self.generators[0].n_qubits
            if any(g.n_qubits != n for g in self.generators):
                raise ClosureError("inconsistent qubit counts in generator set")
        elif self.representation == "dense":
            try:  # a PauliSum or ragged nesting is no numeric array
                gens = [np.asarray(g, dtype=complex) for g in self.generators]
            except (TypeError, ValueError) as err:
                raise ClosureError("dense generators must be numeric matrices") from err
            for g in gens:
                _check_hermitian(g, "dense generator")
            if any(g.shape != gens[0].shape for g in gens):
                raise ClosureError("inconsistent generator dimensions")
            self.generators = gens
        else:
            raise ClosureError(f"unknown representation {self.representation!r}")
        if all(np.linalg.norm(g) < _ZERO_FLOOR if self.representation == "dense" else not g.terms
               for g in self.generators):
            raise ClosureError("all generators are zero")

    @property
    def n_qubits(self) -> int:
        if self.representation != "pauli":
            raise ClosureError("n_qubits only defined for the pauli representation")
        return self.generators[0].n_qubits


# -- exact rows over GF(p) (pauli backend) --------------------------------

def _merge(ids, keys, vals, p):
    """COO entries summed per (id, key) mod p, sorted, zeros dropped."""
    order = np.lexsort((keys, ids))
    ids, keys, vals = ids[order], keys[order], vals[order]
    starts = np.flatnonzero((np.diff(ids, prepend=-1) != 0) | (np.diff(keys, prepend=-1) != 0))
    vals = (np.add.reduceat(vals, starts) if len(starts) else vals) % p
    keep = vals != 0
    return ids[starts][keep], keys[starts][keep], vals[keep]


class _Rows:
    """Sparse rows over GF(p) in reduced echelon form.

    Row i is 1 at the string key ``pivots[i]`` and every row is 0 at every
    other row's pivot, so reducing a vector against all rows is one sparse
    product.  Entries ``(row, key, val)`` are COO arrays sorted by row,
    values are residues mod ``p``.
    """

    def __init__(self, p, pivots, row, key, val):
        self.p, self.pivots = p, pivots
        self.row, self.key, self.val = row, key, val
        order = np.argsort(pivots, kind="stable")
        self._sorted, self._row_of = pivots[order], order

    @property
    def n_rows(self) -> int:
        return len(self.pivots)

    def entries(self, rows: np.ndarray):
        """(position in ``rows``, key, value) of the entries of ``rows``."""
        lo = np.searchsorted(self.row, rows, "left")
        counts = np.searchsorted(self.row, rows, "right") - lo
        idx = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)
        return np.repeat(np.arange(len(rows)), counts), self.key[idx], self.val[idx]

    def reduce(self, ids, keys, vals):
        """COO vectors minus their pivot coefficients times these rows.

        The result is zero at every pivot, merged per (id, key) and sorted.
        """
        if self.n_rows:
            pos = np.minimum(np.searchsorted(self._sorted, keys), self.n_rows - 1)
            hit = np.flatnonzero(self._sorted[pos] == keys)
            which, r_key, r_val = self.entries(self._row_of[pos[hit]])
            ids = np.concatenate([ids, ids[hit][which]])
            keys = np.concatenate([keys, r_key])
            vals = np.concatenate([vals, vals[hit][which] * (self.p - r_val) % self.p])
        return _merge(ids, keys, vals, self.p)

    def absorb(self, ids, keys, vals) -> list[int]:
        """Append the candidates' new directions; return their indices."""
        ids, keys, vals = self.reduce(ids, keys, vals)
        if not len(ids):
            return []
        new = _echelon_block(ids, keys, vals, self.p)
        n0 = self.n_rows
        # back-substitute the new pivots out of the old rows
        row, key, val = new.reduce(self.row, self.key, self.val)
        self.__init__(self.p, np.concatenate([self.pivots, new.pivots]),
                      np.concatenate([row, new.row + n0]),
                      np.concatenate([key, new.key]), np.concatenate([val, new.val]))
        return list(range(n0, self.n_rows))


def _axpy(row: dict, a: int, other: dict, p: int) -> None:
    """row += a * other mod p, dropping zeros."""
    for k, v in other.items():
        w = (row.get(k, 0) + a * v) % p
        if w:
            row[k] = w
        else:
            del row[k]


def _echelon_block(ids, keys, vals, p: int) -> _Rows:
    """Reduced echelon rows spanning candidate vectors, in candidate order.

    Candidates are COO entries sorted by id.  Each is reduced against the
    rows found before it; a nonzero remainder, scaled to 1 at its largest
    key, becomes a row and is eliminated from the earlier rows.
    """
    k_list, v_list = keys.tolist(), vals.tolist()
    edges = [0, *(np.flatnonzero(np.diff(ids)) + 1).tolist(), len(k_list)]
    rows: list[dict] = []
    index: dict[int, int] = {}  # pivot key -> row
    for lo, hi in zip(edges[:-1], edges[1:]):
        row = dict(zip(k_list[lo:hi], v_list[lo:hi]))
        for k in [k for k in row if k in index]:
            _axpy(row, p - row[k], rows[index[k]], p)
        if not row:
            continue
        piv = max(row)
        inv = pow(row[piv], p - 2, p)
        row = {k: v * inv % p for k, v in row.items()}
        for other in rows:
            if piv in other:
                _axpy(other, p - other[piv], row, p)
        index[piv] = len(rows)
        rows.append(row)
    entries = [(i, k, v) for i, row in enumerate(rows) for k, v in row.items()]
    row, key, val = np.array(entries, dtype=np.int64).reshape(-1, 3).T
    return _Rows(p, np.array(list(index), dtype=np.int64), row, key, val)


def _string_keys(xs: np.ndarray, zs: np.ndarray, n: int) -> np.ndarray:
    return (xs.astype(np.int64) << n) | zs.astype(np.int64)


def _split_keys(keys: np.ndarray, n: int):
    return keys >> n, keys & ((1 << n) - 1)


def _reflect_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """Keys of the mirror images R S R of the strings S (R the site reversal)."""
    xr, zr = reflect_masks(np.stack(_split_keys(keys, n)).astype(np.uint64), n)
    return _string_keys(xr, zr, n)


def _integer_terms(g: PauliSum, n: int):
    """(keys, integer coefficients) of g, itself or divided by its smallest |coefficient|."""
    xs, zs, cs = sum_to_arrays(g)
    if len(cs) > _MAX_GENERATOR_TERMS:
        raise ClosureError(f"pauli generator has more than {_MAX_GENERATOR_TERMS} terms")
    for ratio in (cs, cs / np.min(np.abs(cs), initial=np.inf)):
        ints = np.rint(ratio)
        if np.all(np.abs(ratio - ints) <= _INTEGER_TOL):
            return _string_keys(xs, zs, n), [int(c) for c in ints]
    raise ClosureError("pauli generator coefficients must be integers or integer multiples "
                       "of the smallest one; use representation=\"dense\" otherwise")


class _ModPEngine:
    """Closure state for the pauli backend over GF(p).

    With ``orbits`` (every generator mirror invariant) rows are kept on the
    canonical keys (key <= R(key)) alone, which fix an invariant vector, and
    unfolded to both keys of each orbit for brackets and for the result.
    """

    def __init__(self, n: int, terms: Sequence[tuple], p: int, orbits: bool):
        self.n, self.p, self.n_gens, self.orbits = n, p, len(terms), orbits
        self.rows = _Rows(p, *[np.zeros(0, np.int64)] * 4)
        self.g_key = np.concatenate([k for k, _ in terms])
        self.g_val = np.array([c % p for _, cs in terms for c in cs], dtype=np.int64)
        self.g_lab = np.repeat(np.arange(self.n_gens), [len(k) for k, _ in terms])

    def seed(self) -> list[int]:
        return self.absorb(self.g_lab, self.g_key, self.g_val)

    def expand(self, block: list[int]) -> list[int]:
        """Bracket a block of rows with every generator in one call and absorb."""
        pos, keys, vals = self.unfold(*self.rows.entries(np.asarray(block)))
        x3, z3, c3, lab = commutator_arrays(
            *_split_keys(keys, self.n), vals, *_split_keys(self.g_key, self.n), self.g_val,
            labels=(pos * self.n_gens, self.g_lab))
        return self.absorb(lab, (x3 << self.n) | z3, c3 % self.p)

    def unfold(self, ids, keys, vals):
        if not self.orbits:
            return ids, keys, vals
        mirrored = _reflect_keys(keys, self.n)
        reps = 1 + (mirrored != keys)  # a palindrome is its own mirror
        keys = np.repeat(keys, reps)
        keys[np.cumsum(reps) - 1] = mirrored
        return np.repeat(ids, reps), keys, np.repeat(vals, reps)

    def absorb(self, ids, keys, vals) -> list[int]:
        if self.orbits:
            keep = keys <= _reflect_keys(keys, self.n)
            ids, keys, vals = ids[keep], keys[keep], vals[keep]
        return self.rows.absorb(ids, keys, vals)


def _rational(u: int, m: int, bound: int) -> tuple[int, int]:
    """(a, b) with a = b u mod m, |a| <= bound and 0 < b <= bound."""
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        raise ClosureError(f"residue {u} mod {m} has no rational lift below {bound}")
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _lift(runs: Sequence[_Rows], terms: Sequence[tuple]):
    """The echelon rows over the rationals, from their residues in every run.

    Entries are matched by (pivot, key), combined by CRT mod the product m
    of the runs' primes and rationally reconstructed with numerator and
    denominator at most sqrt(m/2): about 1.2e7 for the two PRIMES.  A
    larger true entry fails the reconstruction or comes back as a wrong
    fraction, so every generator in ``terms`` must then reduce to exactly
    0 against the lifted rows.  Returns (pivot, key, value) float entries
    sorted by pivot; raises :class:`ClosureError` on any failure.
    """
    ref = np.sort(runs[-1].pivots)
    if any(not np.array_equal(np.sort(r.pivots), ref) for r in runs):
        raise ClosureError("echelon pivots differ between primes")
    pairs, inv = np.unique(np.concatenate([np.stack([r.pivots[r.row], r.key], 1) for r in runs]),
                           axis=0, return_inverse=True)
    inv, u, m, start = inv.reshape(-1), np.zeros(len(pairs), np.int64), 1, 0
    for r in runs:  # u < m <= p**2 < 2**48
        v = np.zeros(len(pairs), np.int64)
        v[inv[start: start + len(r.key)]] = r.val
        start += len(r.key)
        u += m * ((v - u) % r.p * pow(m, -1, r.p) % r.p)
        m *= r.p
    bound = isqrt(m // 2)
    num, den = np.where(u > m // 2, u - m, u), np.ones(len(u), np.int64)
    for i in np.flatnonzero(np.abs(num) > bound):
        num[i], den[i] = _rational(int(u[i]), m, bound)
    piv, key = pairs[:, 0], pairs[:, 1]
    for g_key, g_val in terms:
        resid = dict(zip(g_key.tolist(), map(Fraction, g_val)))
        for k, c in zip(g_key.tolist(), g_val):
            lo, hi = np.searchsorted(piv, [k, k + 1])
            for kk, a, b in zip(key[lo:hi].tolist(), num[lo:hi].tolist(), den[lo:hi].tolist()):
                resid[kk] = resid.get(kk, 0) - c * Fraction(a, b)
        if any(resid.values()):
            raise ClosureError(f"rows lifted mod {m} miss a generator: an exact entry "
                               f"exceeds the reconstruction bound {bound}")
    return piv, key, num / den


# -- float rows (dense backend) --------------------------------------------

def _hermitian_coords(d: int):
    """Flat indices of the diagonal, upper and lower triangles of a d x d matrix."""
    up_r, up_c = np.triu_indices(d, 1)
    return np.arange(d) * (d + 1), up_r * d + up_c, up_c * d + up_r


def _stack_matrix(m: np.ndarray) -> np.ndarray:
    """Hermitian m as (diag, sqrt2 Re upper, sqrt2 Im upper), length d**2.

    The dot product of two such rows is Re tr(A^dagger B), the
    Hilbert-Schmidt inner product, so norms and residuals are unchanged.
    """
    diag, up, _ = _hermitian_coords(m.shape[0])
    flat = m.ravel()
    return np.concatenate([flat[diag].real, _SQRT2 * flat[up].real, _SQRT2 * flat[up].imag])


def _unstack_rows(rows: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`_stack_matrix` for a stack of rows: (n, d, d) complex."""
    diag, up, lo = _hermitian_coords(d)
    re, im = rows[:, d: d + len(up)] / _SQRT2, rows[:, d + len(up):] * (1j / _SQRT2)
    out = np.zeros((len(rows), d * d), dtype=complex)
    out[:, diag], out[:, up], out[:, lo] = rows[:, :d], re + im, re - im
    return out.reshape(-1, d, d)


def _check_hermitian(m: np.ndarray, what: str) -> None:
    if (m.ndim != 2 or m.shape[0] != m.shape[1] or not np.isfinite(m).all()  # before inf - inf
            or np.max(np.abs(m - m.conj().T)) >= _HERM_TOL):
        raise ClosureError(f"{what} is not a finite Hermitian matrix")


class _Basis:
    """Row-orthonormal basis of one coordinate slice, with amortized growth.

    The floor _ABS_FLOOR decides a candidate: its residual must exceed it
    after one pass against the stored rows, and again after a second pass
    and two against the rows added earlier in the block; the accepted row
    is that residual normalized.  Records the smallest residual accepted
    and the largest rejected; their ratio is the rank margin.
    """

    def __init__(self, n_cols: int):
        self._rows = np.zeros((64, n_cols))
        self.n_rows = 0
        self.min_accepted, self.max_rejected = np.inf, 0.0

    @property
    def matrix(self) -> np.ndarray:
        return self._rows[: self.n_rows]

    def absorb(self, cands: np.ndarray) -> list[int]:
        """Project candidate rows, append the independent ones, return indices."""
        cands = cands[np.linalg.norm(cands, axis=1) > _ZERO_FLOOR]
        B = self.matrix
        # one classical Gram-Schmidt pass decides accept/reject (its roundoff
        # sits far below the floor); survivors get a second pass
        cands = cands - (cands @ B.T) @ B
        resid = np.linalg.norm(cands, axis=1)
        survivors = resid > _ABS_FLOOR
        self.max_rejected = max(self.max_rejected, resid[~survivors].max(initial=0.0))
        cands = cands[survivors]
        cands = cands - (cands @ B.T) @ B
        added: list[int] = []
        for row in cands:
            New = self._rows[self.n_rows - len(added): self.n_rows]
            row = row - (row @ New.T) @ New
            row = row - (row @ New.T) @ New
            r = np.linalg.norm(row)
            if r <= _ABS_FLOOR:
                self.max_rejected = max(self.max_rejected, r)
                continue
            self.min_accepted = min(self.min_accepted, r)
            if self.n_rows == len(self._rows):  # full: double the storage
                self._rows = np.concatenate([self._rows, np.zeros_like(self._rows)])
            self._rows[self.n_rows] = row / r
            added.append(self.n_rows)
            self.n_rows += 1
        return added


def _sign_labels(gens: Sequence[np.ndarray]) -> tuple[list[int], list[int]]:
    """Per-state labels lam and per-generator shifts e of the diagonal sign gradings.

    Solves lam_a + lam_b = e_g over GF(2) on every nonzero entry (a, b) of
    each generator g; a solution is Gamma = diag((-1)^lam) with Gamma g Gamma
    = (-1)^e_g g.  Bit k of a label or shift is its value in the k-th basis
    solution (a constant lam adds a bit that cancels in lam_a ^ lam_b).
    """
    d, n = len(gens[0]), len(gens[0]) + len(gens)
    rows: dict[int, int] = {}  # pivot bit -> equation over bits (lam, e), no other pivot set
    for eq in {1 << a ^ 1 << b ^ 1 << (d + g)  # a diagonal entry leaves e_g alone
               for g, m in enumerate(gens) for a, b in np.argwhere(np.triu(m)).tolist()}:
        for piv, row in rows.items():
            eq ^= row if eq >> piv & 1 else 0
        if eq:
            piv = eq.bit_length() - 1
            rows = {p: r ^ eq if r >> piv & 1 else r for p, r in rows.items()} | {piv: eq}
    # one basis solution per free bit f: 1 at f, and at each pivot p the bit f of row p
    sols = [1 << f | sum(1 << p for p, r in rows.items() if r >> f & 1)
            for f in range(n) if f not in rows]
    bits = [sum((x >> i & 1) << k for k, x in enumerate(sols)) for i in range(n)]
    return bits[:d], bits[d:]


class _DenseEngine:
    """Closure state for the dense backend: one basis per sign key.

    The Hermitian coordinates of entry (a, b) get the key (lam_a ^ lam_b) << 1
    of :func:`_sign_labels`, plus 1 on the imaginary ones when every
    generator is real (the p/k grading); each key is one slice.  Generator
    g lies in key e_g << 1 and bracketing with it adds e_g << 1, plus the
    p/k bit, so every left-nested bracket is exactly zero outside one
    slice.  Row i of slice t has id i * n_slices + t.
    """

    def __init__(self, gens: Sequence[np.ndarray]):
        self.d = d = gens[0].shape[0]
        self.n_gens = len(gens)
        norms = [np.linalg.norm(g) for g in gens]
        # zero generators stay as zeros and produce no candidates
        self.gen_mats = [g / n if n >= _ZERO_FLOOR else g * 0.0 for g, n in zip(gens, norms)]
        self.real = all(not g.imag.any() for g in gens)
        self._gen_rows = np.array([g.real if self.real else g for g in self.gen_mats])
        # W of one generator on _bfs's largest block, reused: fresh pages per product cost more
        self._w = np.empty(d * d * max(1, _CHUNK // self.n_gens), self._gen_rows.dtype)
        labels, shifts = _sign_labels(self.gen_mats)
        diag, up, _ = _hermitian_coords(d)
        a, b = np.divmod(np.r_[diag, up, up], d)  # entry (a, b) of each coordinate
        n_p = d * (d + 1) // 2  # the diagonal and real coordinates come first
        keys = [(labels[i] ^ labels[j]) << 1 | (self.real and c >= n_p)
                for c, (i, j) in enumerate(zip(a.tolist(), b.tolist()))]
        index = {k: t for t, k in enumerate(sorted(set(keys)))}
        key_of = np.array([index[k] for k in keys])
        self.slices = [np.flatnonzero(key_of == t) for t in range(len(index))]
        self.bases = [_Basis(len(s)) for s in self.slices]
        # per slice: entries (a, b), count not imaginary, scales reading W, divisors writing V
        scale = np.r_[np.full(d, 0.5), np.full(len(up), 1 / _SQRT2), np.full(len(up), -1 / _SQRT2)]
        div = np.r_[np.ones(d), np.full(len(up), _SQRT2)]
        self._coords = [(a[s], b[s], np.searchsorted(s, n_p), scale[s], div[s[s < n_p]])
                        for s in self.slices]
        live = [n >= _ZERO_FLOOR for n in norms]
        self._seeds = [index[e << 1] if ok else -1 for e, ok in zip(shifts, live)]
        self._next = np.array([[index.get(k ^ (e << 1 | self.real), -1) if ok else -1
                                for e, ok in zip(shifts, live)] for k in index])

    def _flat(self, t: int, at: np.ndarray, n_v: int):
        """Flat indices in a (d, n_v, d) array of entries (a, b), (b, a) of slice t, rows at."""
        a, b, d = self._coords[t][0], self._coords[t][1], self.d
        base = (at * d)[:, None]
        return base + a * n_v * d + b, base + b * n_v * d + a

    def _absorb(self, t: int, cands: np.ndarray) -> list[int]:
        return [i * len(self.bases) + t for i in self.bases[t].absorb(cands)]

    def seed(self) -> list[int]:
        return [i for g, t in zip(self.gen_mats, self._seeds) if t >= 0
                for i in self._absorb(t, _stack_matrix(g)[None, self.slices[t]])]

    def expand(self, block: list[int]) -> list[int]:
        """Bracket a block of rows with each generator in one GEMM and absorb.

        V[a, v, b] is row v of the block as a matrix, written slice by slice as
        :func:`_unstack_rows` would.  W = G V for all v takes one product per
        generator G; as G and V are Hermitian, V G = W^dagger, so
        C = (W - W^dagger)/(2i) is read off W in the coordinates of its target
        slice alone: Im(W_ab + W_ba) on the diagonal and real ones,
        Re(W_ba - W_ab) on the imaginary ones.  Real generators bracket the
        real Re V + Im V in real arithmetic, and W then stands for the one part
        its target reads.  Generator by generator and, for each, row key by
        row key, the candidates go to their target slice in block order.
        """
        d, n_v, n, ids = self.d, len(block), len(self.bases), np.asarray(block)
        keys, new, unit = ids % n, [], (1 if self.real else 1j) / _SQRT2
        rows_of = [(c, np.flatnonzero(keys == c)) for c in np.unique(keys).tolist()]
        V = np.zeros(d * n_v * d, self._gen_rows.dtype)
        for c, at in rows_of:
            (u, lo), (_, _, cut, _, div) = self._flat(c, at, n_v), self._coords[c]
            x = self.bases[c].matrix[ids[at] // n]
            V[u[:, :cut]] = V[lo[:, :cut]] = x[:, :cut] / div
            V[u[:, cut:]] += (imag := x[:, cut:] * unit)
            V[lo[:, cut:]] -= imag
        V = V.reshape(d, n_v * d)
        for g in range(self.n_gens):
            W = np.matmul(self._gen_rows[g], V, out=self._w[: V.size].reshape(V.shape)).ravel()
            re, im = (W, W) if self.real else (W.real, W.imag)
            for c, at in rows_of:
                if (t := int(self._next[c, g])) < 0:
                    continue
                (u, lo), (_, _, cut, scale, _) = self._flat(t, at, n_v), self._coords[t]
                new += self._absorb(t, scale * np.concatenate(
                    [im[u[:, :cut]] + im[lo[:, :cut]], re[u[:, cut:]] - re[lo[:, cut:]]], axis=1))
        return new


# -- breadth-first closure ----------------------------------------------------

def _bfs(engine, bound: int, certify=lambda: None):
    """Expand the frontier against the generators until the dimension
    reaches ``bound``, an upper bound on it, nothing new appears or
    ``certify()`` names a certificate after a block.  Returns (dimension,
    depth at the stop, "bound", "converged" or that name); every depth but
    the last adds a row, so that is within ``bound`` depths.  Frontier blocks
    are expanded oldest first: on the dense backend shallow brackets carry
    the least numerical noise, so genuine directions enter at large residuals.
    """
    block_size = max(1, _CHUNK // engine.n_gens)
    frontier = engine.seed()
    depth, dim = 0, len(frontier)  # seed and expand return every row they add
    while True:
        stop = "bound" if dim >= bound else "converged" if not frontier else certify()
        if stop:
            return dim, depth, stop
        depth += 1
        new: list[int] = []
        for lo in range(0, len(frontier), block_size):
            new.extend(engine.expand(frontier[lo: lo + block_size]))
            if dim + len(new) >= bound or certify():
                break
        dim += len(new)
        frontier = new


@dataclass
class ClosureResult:
    """Basis of the generated algebra plus the verdict.

    ``primes`` lists the GF(p) runs behind a pauli verdict, in order, and
    ``certificate`` how it was reached: "full rank", "local generators",
    "mirror bound", "mirrored locals" or "two primes" (module docstring), and
    "float rank" on the dense backend; ``depth_reached`` is the depth at the
    stop.  A "two primes" result keeps the exact echelon rows of both runs,
    which ``basis`` and ``contains`` lift; every other pauli result is a known
    space.  A dense one keeps rows per sign key; ``basis`` widens them to d**2.
    ``rank_margin`` (dense backend) is the smallest residual accepted as a
    new direction over the largest rejected one: ``inf`` when nothing was
    rejected, ``None`` on the exact pauli backend.
    """

    dimension: int
    depth_reached: int
    universality: Literal["universal", "non_universal"]
    representation: Representation
    theoretical_cap: int
    n_qubits: int | None = None
    elapsed_s: float = 0.0
    # pauli: every generator mirror invariant; for chain controls, a symmetric break pattern
    pattern_reflection_symmetric: bool | None = None  # None on the dense backend
    primes: tuple[int, ...] = ()
    rank_margin: float | None = None
    certificate: str | None = None
    _slices: tuple = field(default=(), repr=False)  # dense: per sign key, (coordinates, rows)
    _runs: tuple[_Rows, ...] = field(default=(), repr=False)
    _terms: list = field(default_factory=list, repr=False)  # generators the rows span

    @cached_property
    def _lifted(self):
        return _lift(self._runs, self._terms)

    @property
    def basis(self) -> list:
        """Orthonormalized basis elements (unit Hilbert-Schmidt norm)."""
        if self.representation == "pauli" and self.universality == "universal":
            n = self.n_qubits  # every string, the identity (key 0) only under u(2^N)
            xs, zs = _split_keys(np.arange(4 ** n - self.theoretical_cap, 4 ** n), n)
            return [PauliSum(n, {key: 2.0 ** (-n / 2)}) for key in zip(xs.tolist(), zs.tolist())]
        if self.certificate in ("mirror bound", "mirrored locals"):
            n, parts = self.n_qubits, _center_parts(self._terms, self.n_qubits)
            keys, s = np.arange(4 ** n), 2.0 ** (-n / 2)
            mirrored, on_r = _reflect_keys(keys, n), _r_strings(keys, n)
            r_keys, m = keys[on_r], on_r.sum()
            terms = [([k, r], [s / _SQRT2] * 2) for k, r in zip(keys.tolist(), mirrored.tolist())
                     if k < r]  # the orbit sums, then the palindromes with tr(R S) = 0
            terms += [([k], [s]) for k in keys[(keys == mirrored) & (keys != 0) & ~on_r].tolist()]
            # Helmert contrasts: an orthonormal basis of the zero-sum combinations of r_keys
            terms += [(r_keys[: i + 1], s * np.r_[np.ones(i), -i] / np.sqrt(i * (i + 1)))
                      for i in range(1, m)]
            # the generators' parts along I and (R-perp)/|R-perp|, orthonormalized
            rows = np.linalg.svd(np.array(parts, float) / [1, np.sqrt(m)])[2][: _rank2(parts)]
            terms += [(np.r_[0, r_keys], s * np.r_[a, np.full(m, b / np.sqrt(m))]) for a, b in rows]
            return [arrays_to_sum(n, *_split_keys(np.asarray(k), n), np.asarray(c, float))
                    for k, c in terms]
        if self.representation == "pauli":
            # float QR over the exact rows lifted to the rationals
            n, (piv, key, val) = self.n_qubits, self._lifted
            pivots, row = np.unique(piv, return_inverse=True)
            support, col = np.unique(key, return_inverse=True)
            m = np.zeros((len(support), len(pivots)))
            m[col, row] = val
            q = np.linalg.qr(m)[0] * 2.0 ** (-n / 2)
            xs, zs = _split_keys(support, n)
            return [arrays_to_sum(n, xs, zs, q[:, i]) for i in range(len(pivots))]
        out, at = np.zeros((self.dimension, sum(len(c) for c, _ in self._slices))), 0
        for cols, rows in self._slices:  # slice by slice, row by row
            out[at: (at := at + len(rows)), cols] = rows
        return list(_unstack_rows(out, isqrt(out.shape[1])))

    def contains(self, element) -> tuple[bool, float]:
        """Span membership of a Hermitian element; returns (member, residual).

        The residual is that of the unit-norm element, a member below _MEMBER_TOL.
        On the pauli backend it is the norm of v - v[pivots] R over the exact
        rows R (lifted, or in closed form on a known space), an upper bound on the
        distance to the span.
        """
        if isinstance(element, PauliSum) != (self.representation == "pauli"):
            raise ClosureError(f"{type(element).__name__} on a {self.representation} result")
        if self.representation == "pauli":
            if element.n_qubits != self.n_qubits:
                raise ClosureError("qubit count mismatch")
            xs, zs, v = sum_to_arrays(element)
        else:
            m = np.asarray(element, dtype=complex)
            _check_hermitian(m, "element")
            if m.size != sum(len(cols) for cols, _ in self._slices):
                raise ClosureError("matrix dimension mismatch")
            v = _stack_matrix(m)
        nrm = np.linalg.norm(v)
        if nrm < _ZERO_FLOOR:
            return True, 0.0
        v = v / nrm
        if self.representation == "pauli" and self.universality == "universal":
            # the residual is the identity component, out of the span under su(2^N) only
            v = v[((xs | zs) == 0) & (self.theoretical_cap < 4 ** self.n_qubits)]
        elif self.certificate in ("mirror bound", "mirrored locals"):
            # what the rows of a run to the bound leave: v[RSR] - v[S] on each orbit pair, and on
            # I and the R-strings the constraints left by the generators' parts, 1 at the lowest key
            n, parts = self.n_qubits, _center_parts(self._terms, self.n_qubits)
            mirrored = _reflect_keys(keys := _string_keys(xs, zs, n), n)
            orbit = np.unique(np.minimum(keys, mirrored), return_inverse=True)[1]
            c0, f = v[keys == 0].sum(), v[_r_strings(keys, n)].sum()
            (a, b), rank = next((q for q in parts if any(q)), (0, 0)), _rank2(parts)
            left = [] if rank == 2 else [c0, f] if rank == 0 else [c0 - a * f / b if b else f]
            v = np.r_[np.bincount(orbit, np.sign(keys - mirrored) * v), left]
        elif self.representation == "pauli":
            piv, key, val = self._lifted
            keys = _string_keys(xs, zs, self.n_qubits)
            order = np.argsort(keys)
            pos = np.minimum(np.searchsorted(keys[order], piv), len(keys) - 1)
            hit = keys[order][pos] == piv  # entries of the rows pivoted in v
            _, inv = np.unique(np.concatenate([keys, key[hit]]), return_inverse=True)
            v = np.bincount(inv, np.concatenate([v, -v[order][pos][hit] * val[hit]]))
        else:  # two passes against the rows of each sign key
            w = [v[cols] - (v[cols] @ rows.T) @ rows for cols, rows in self._slices]
            v = np.concatenate([x - (x @ r.T) @ r for x, (_, r) in zip(w, self._slices)])
        resid = float(np.linalg.norm(v))
        return resid < _MEMBER_TOL, resid


def _r_strings(keys: np.ndarray, n: int) -> np.ndarray:
    """Mask of the strings S != I with tr(R S) != 0 (R the site reversal): the
    palindromes with I on the middle site of odd N, on which tr(R S) is the same."""
    mid = ((1 << n) | 1) << (n // 2) if n % 2 else 0  # the middle site's x and z bits
    return (keys == _reflect_keys(keys, n)) & (keys & mid == 0) & (keys != 0)


def _center_parts(terms, n: int) -> list[tuple[int, int]] | None:
    """Per generator its identity coefficient and its coefficient sum over :func:`_r_strings`,
    its parts along I and R-perp; None unless every generator is mirror invariant (the
    same integer coefficient on mirrored strings)."""
    parts = []
    for keys, cs in terms:
        if dict(zip(keys.tolist(), cs)) != dict(zip(_reflect_keys(keys, n).tolist(), cs)):
            return None
        parts.append((sum(c for k, c in zip(keys.tolist(), cs) if k == 0),
                      sum(c for c, hit in zip(cs, _r_strings(keys, n)) if hit)))
    return parts


def _rank2(parts, p: int = 0) -> int:
    """Rank of integer pairs over the rationals, or over GF(p) for p > 0."""
    red = (lambda v: v % p) if p else (lambda v: v)
    lead = next(((a, b) for a, b in parts if red(a) or red(b)), None)
    return 0 if lead is None else 1 + any(red(lead[0] * b - lead[1] * a) for a, b in parts)


def _mirror_bound(parts, n: int) -> int:
    """dim M_N plus the rank of the generators' parts along I and R-perp.

    Brackets of invariant elements are invariant, so they lie in the span of
    the (4**N + 4**ceil(N/2))/2 string orbits of R; they are traceless, and
    tr(R[A, B]) = tr([R, A]B) = 0 for invariant A.  So they lie in M_N, the
    invariant elements orthogonal to I and R (R = I for N = 1).  R-perp is
    R - tr(R) I / 2**N."""
    return (4 ** n + 4 ** -(-n // 2)) // 2 - 1 - (n >= 2) + _rank2(parts)


def _close_pauli(gen: GeneratorSet) -> ClosureResult:
    n = gen.n_qubits
    if n > MAX_EXACT_QUBITS:
        raise ClosureError(f"pauli backend needs N <= {MAX_EXACT_QUBITS}, got {n}")
    terms = [_integer_terms(g, n) for g in gen.generators]
    # u(2^N) once a generator has an identity term (key 0), su(2^N) otherwise
    theoretical = 4 ** n - 1 + any(0 in keys for keys, _ in terms)
    mirror = (parts := _center_parts(terms, n)) is not None
    bound = _mirror_bound(parts, n) if mirror else theoretical
    # X_j, Z_j and Z_j Z_{j+1} reach every string by brackets; on orbit keys they are T_N
    local = np.array([1 << (n + j) for j in range(n)] + [1 << j for j in range(n)]
                     + [3 << j for j in range(n - 1)], dtype=np.int64)
    name, targets = (("mirrored locals", np.unique(np.minimum(local, _reflect_keys(local, n))))
                     if mirror else ("local generators", local))
    runs = []
    for p in PRIMES:
        engine = _ModPEngine(n, terms, p, orbits=mirror)
        stops = not mirror or 3 <= n <= MAX_MIRRORED_QUBITS and _rank2(parts, p) == _rank2(parts)
        dim, depth, stop = _bfs(engine, bound, lambda: name if stops and not len(engine.rows.reduce(
            np.arange(len(targets)), targets, np.ones_like(targets))[0]) else None)
        rows = engine.rows  # unfolded, each stays 1 at its pivot (and mirror), 0 at other pivots
        runs.append(_Rows(p, rows.pivots, *engine.unfold(rows.row, rows.key, rows.val)))
        if stop != "converged":
            break
    dims, primes = [r.n_rows for r in runs], PRIMES[: len(runs)]
    if stop == "converged" and len(set(dims)) > 1:
        raise ClosureError(f"closure dimensions {dims} differ over GF(p) for p in {primes}")
    universal = dim >= theoretical or stop == "local generators"
    certificate = ("full rank" if dim >= theoretical else "mirror bound" if stop == "bound"
                   else "two primes" if stop == "converged" else stop)
    return ClosureResult(
        dimension=theoretical if universal else dim if stop == "converged" else bound,
        depth_reached=depth, universality="universal" if universal else "non_universal",
        representation="pauli", theoretical_cap=theoretical, n_qubits=n,
        pattern_reflection_symmetric=mirror, primes=primes, certificate=certificate, _terms=terms,
        _runs=tuple(runs if stop == "converged" else ()))


def close(gen: GeneratorSet) -> ClosureResult:
    """Breadth-first Lie closure of a generator set.

    It stops once the dimension reaches ``theoretical_cap``, read off the
    generators: d**2 (u(d)) once one has a trace, or an identity term on the
    pauli backend, and d**2 - 1 (su(d)) otherwise.  Reaching it is the
    universal verdict, converging below it the non-universal one.  The
    pauli backend is exact and may stop early on a certificate, the dense
    one decides rank against _ABS_FLOOR.  One DEBUG record on the
    ``liectrl`` logger names the verdict, certificate, depth and primes,
    and on the dense backend the number of sign keys and the widest slice.
    """
    t0, slices = time.perf_counter(), ""
    if gen.representation == "pauli":
        result = _close_pauli(gen)
    else:
        d = gen.generators[0].shape[0]
        has_trace = any(abs(np.trace(g)) > _TRACE_TOL * np.linalg.norm(g)
                        for g in gen.generators)
        theoretical = d * d if has_trace else d * d - 1
        engine = _DenseEngine(gen.generators)
        dim, depth, stop = _bfs(engine, theoretical)
        if dim > theoretical:  # roundoff passed the rank floor
            raise ClosureError(f"dense closure found {dim} directions, above its cap {theoretical}")
        bases = engine.bases
        slices = f", {len(bases)} keys, widest slice {max(map(len, engine.slices))}"
        acc, rej = min(b.min_accepted for b in bases), max(b.max_rejected for b in bases)
        result = ClosureResult(
            dimension=dim, depth_reached=depth, representation="dense", certificate="float rank",
            universality="universal" if stop == "bound" else "non_universal",
            theoretical_cap=theoretical, rank_margin=float(acc / rej) if rej else np.inf,
            _slices=tuple((s, b.matrix.copy()) for s, b in zip(engine.slices, bases)))
        if result.rank_margin < _MARGIN_WARN:
            log.warning("dense closure %s: rank margin %.3g is below %g; dimension %d "
                        "may be wrong", gen.label or "(unlabelled)", result.rank_margin,
                        _MARGIN_WARN, result.dimension)
    result.elapsed_s = time.perf_counter() - t0
    log.debug("closure %s: %s, dimension %d by %s at depth %d, primes %s%s",
              gen.label or "(unlabelled)", result.universality, result.dimension,
              result.certificate, result.depth_reached, result.primes, slices)
    return result


# -- uniform qubit chain controls ---------------------------------------

def uniform_qubit_generators(n_qubits: int, break_pattern: Sequence[int] = ()) -> GeneratorSet:
    """H_X, H_Z, H_ZZ on the open chain plus an optional partial X field."""
    if not _is_int(n_qubits):
        raise ClosureError(f"chain needs an integer qubit count, got {n_qubits!r}")
    if n_qubits < 2:
        raise ClosureError("chain needs at least 2 qubits")
    sites = list(break_pattern)
    if not all(map(_is_int, sites)):
        raise ClosureError(f"break pattern sites must be integers, got {sites}")
    pattern = sorted(set(sites))
    if pattern and (pattern[0] < 1 or pattern[-1] > n_qubits):
        raise ClosureError(f"break pattern {pattern} out of range 1..{n_qubits}")
    # (x_mask, z_mask) tables: bit j-1 is site j
    tables = [[(1 << j, 0) for j in range(n_qubits)],
              [(0, 1 << j) for j in range(n_qubits)],
              [(0, 3 << j) for j in range(n_qubits - 1)]]
    if pattern:
        tables.append([(1 << (j - 1), 0) for j in pattern])
    gens = [PauliSum(n_qubits, dict.fromkeys(table, 1.0)) for table in tables]
    tag = ",".join(map(str, pattern)) if pattern else "none"
    return GeneratorSet("pauli", gens, label=f"chain N={n_qubits} break={tag}")


def check_universality_qubit(n_qubits: int, break_pattern: Sequence[int] = ()) -> ClosureResult:
    """Universality of the uniform chain controls plus a partial X field."""
    return close(uniform_qubit_generators(n_qubits, break_pattern))


def reflection_sector_check(result: ClosureResult, n_qubits: int) -> bool:
    """True iff every basis element is invariant under the chain reflection.

    Exact: that holds iff every generator is (``pattern_reflection_symmetric``),
    as the algebra contains them and brackets of invariant elements are invariant.
    """
    if result.representation != "pauli":
        raise ClosureError("reflection check requires the pauli representation")
    if result.n_qubits != n_qubits:
        raise ClosureError("qubit count mismatch")
    return result.pattern_reflection_symmetric
