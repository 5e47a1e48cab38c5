"""Dynamical Lie algebra closure and universality decisions.

Two interchangeable backends compute the real Lie algebra generated by a
set of Hermitian operators under the normalized bracket (1/(2i))[A, B]:

* ``pauli``  - elements are :class:`~liectrl.pauli.PauliSum` values,
  orthonormalized as coefficient vectors over the Pauli strings seen so
  far.  Exact string bookkeeping, scales with the closure's support.
* ``dense``  - elements are Hermitian matrices, orthonormalized as
  real-stacked vectors of length 2*D**2.

Both run a breadth-first expansion that commutes every new basis element
with every *generator* only.  By the Jacobi identity the span of such
left-nested brackets equals the full Lie closure, so convergence of this
cheaper iteration certifies closure under arbitrary pairwise brackets.

The qubit-side entry points build the uniform chain controls
H_X = sum_j X_j, H_Z = sum_j Z_j, H_ZZ = sum_j Z_j Z_{j+1} plus an
optional partial X field, decide universality against the su(2^N) cap,
and expose the reflection-sector diagnostics used by the chain theorem.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np
import scipy.linalg

from .pauli import (
    PauliSum,
    arrays_to_sum,
    commutator_arrays,
    reflect_masks,
    sum_to_arrays,
)

Representation = Literal["pauli", "dense"]

DEFAULT_TOL = 1e-9
DEFAULT_DEPTH_LIMIT = 64
_TRACE_TOL = 1e-9
_HERM_TOL = 1e-12
_ZERO_FLOOR = 1e-14
# Residuals below this floor are treated as roundoff regardless of the
# relative rule.  Operands are unit-norm, candidates are processed oldest
# first (so genuine directions enter at large residuals before deep, noisier
# brackets arrive), and stored rows are denoised (components below _SNAP
# zeroed).  Measured on the chain/sector algebras this build targets,
# genuine new directions carry residuals of 2e-3 and above while
# accumulated noise stays below 2e-8; the floor sits between the scales
# with >2 orders of margin on each side.
_ABS_FLOOR = 1e-6
_SNAP = 1e-12
_CHUNK = 384


class ClosureError(ValueError):
    pass


@dataclass
class GeneratorSet:
    """Hermitian generators in one shared representation."""

    representation: Representation
    generators: list
    label: str = ""
    names: list[str] = field(default_factory=list)  # one per generator, if named
    basis: object = None  # sectors.SectorBasis of sector-built dense generators

    def __post_init__(self):
        if not self.generators:
            raise ClosureError("empty generator set")
        if self.representation == "pauli":
            n = self.generators[0].n_qubits
            if any(g.n_qubits != n for g in self.generators):
                raise ClosureError("inconsistent qubit counts in generator set")
        elif self.representation == "dense":
            gens = [np.asarray(g, dtype=complex) for g in self.generators]
            d = gens[0].shape[0]
            for g in gens:
                if g.shape != (d, d):
                    raise ClosureError("inconsistent generator dimensions")
                if np.max(np.abs(g - g.conj().T)) >= _HERM_TOL:
                    raise ClosureError("dense generator is not Hermitian")
            self.generators = gens
        else:
            raise ClosureError(f"unknown representation {self.representation!r}")

    @property
    def n_qubits(self) -> int:
        if self.representation != "pauli":
            raise ClosureError("n_qubits only defined for the pauli representation")
        return self.generators[0].n_qubits

    @property
    def dim(self) -> int:
        if self.representation == "pauli":
            return 2 ** self.n_qubits
        return self.generators[0].shape[0]


@dataclass
class ClosureResult:
    """Orthonormal basis of the generated algebra plus the verdict."""

    dimension: int
    converged: bool
    depth_reached: int
    universality: Literal["universal", "non_universal", "undetermined"]
    representation: Representation
    theoretical_cap: int
    n_qubits: int | None = None
    elapsed_s: float = 0.0
    pattern_reflection_symmetric: bool | None = None  # chain checks only
    _matrix: np.ndarray = field(default=None, repr=False)
    _keys_x: np.ndarray = field(default=None, repr=False)
    _keys_z: np.ndarray = field(default=None, repr=False)

    @property
    def basis(self) -> list:
        """Orthonormalized basis elements (unit Hilbert-Schmidt norm)."""
        if self.representation == "pauli":
            scale = 2.0 ** (-self.n_qubits / 2)
            out = []
            for row in self._matrix:
                nz = np.nonzero(np.abs(row) > 1e-15)[0]
                out.append(arrays_to_sum(
                    self.n_qubits, self._keys_x[nz], self._keys_z[nz], row[nz] * scale))
            return out
        d = int(np.sqrt(self._matrix.shape[1] // 2))
        out = []
        for row in self._matrix:
            m = (row[: d * d] + 1j * row[d * d:]).reshape(d, d)
            out.append(m)
        return out

    def contains(self, element, tol: float = 1e-8) -> tuple[bool, float]:
        """Span membership of a Hermitian element; returns (member, residual)."""
        if self.representation == "pauli":
            xs, zs, cs = sum_to_arrays(element)
            v = _terms_to_vector(xs, zs, cs, self._keys_x, self._keys_z,
                                 self._matrix.shape[1])
            if v is None:  # has strings outside the closure's support
                return False, 1.0
        else:
            v = _stack_matrix(np.asarray(element, dtype=complex))
        nrm = np.linalg.norm(v)
        if nrm < _ZERO_FLOOR:
            return True, 0.0
        v = v / nrm
        v = v - (v @ self._matrix.T) @ self._matrix
        v = v - (v @ self._matrix.T) @ self._matrix
        resid = float(np.linalg.norm(v))
        return resid < tol, resid


def _terms_to_vector(xs, zs, cs, keys_x, keys_z, n_cols):
    """Coefficient vector of a PauliSum over an existing string index."""
    if len(xs) == 0:
        return np.zeros(n_cols)
    packed = _pack_keys(xs, zs)
    table = _pack_keys(keys_x[:n_cols], keys_z[:n_cols])
    order = np.argsort(table, kind="stable")
    sorted_table = table[order]
    pos = np.searchsorted(sorted_table, packed)
    pos = np.clip(pos, 0, len(sorted_table) - 1)
    if not np.all(sorted_table[pos] == packed):
        return None
    v = np.zeros(n_cols)
    np.add.at(v, order[pos], cs)
    return v


def _pack_keys(xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    # single-word key; masks beyond 32 bits take the slow object path
    if len(xs) and (int(xs.max()) >= 1 << 32 or int(zs.max()) >= 1 << 32):
        return np.array([(int(x) << 64) | int(z) for x, z in zip(xs, zs)], dtype=object)
    return (xs.astype(np.uint64) << np.uint64(32)) | zs.astype(np.uint64)


class _Basis:
    """Row-orthonormal basis with amortized growth and chunked projection."""

    def __init__(self, n_cols_hint: int = 64):
        self._rows = np.zeros((64, max(n_cols_hint, 1)))
        self.n_rows = 0
        self.n_cols = 0

    @property
    def matrix(self) -> np.ndarray:
        return self._rows[: self.n_rows, : self.n_cols]

    def ensure_cols(self, n_cols: int) -> None:
        if n_cols > self._rows.shape[1]:
            width = max(n_cols, 2 * self._rows.shape[1])
            grown = np.zeros((self._rows.shape[0], width))
            grown[:, : self._rows.shape[1]] = self._rows
            self._rows = grown
        self.n_cols = max(self.n_cols, n_cols)

    def _ensure_rows(self, extra: int) -> None:
        if self.n_rows + extra > self._rows.shape[0]:
            depth = max(2 * self._rows.shape[0], self.n_rows + extra)
            grown = np.zeros((depth, self._rows.shape[1]))
            grown[: self.n_rows] = self._rows[: self.n_rows]
            self._rows = grown

    def absorb(self, cands: np.ndarray, tol: float, cap: int | None) -> list[int]:
        """Project candidate rows, append the independent ones, return indices."""
        if cands.shape[0] == 0:
            return []
        self.ensure_cols(cands.shape[1])
        if cands.shape[1] < self.n_cols:
            padded = np.zeros((cands.shape[0], self.n_cols))
            padded[:, : cands.shape[1]] = cands
            cands = padded
        orig = np.linalg.norm(cands, axis=1)
        live = orig > _ZERO_FLOOR
        cands, orig = cands[live], orig[live]
        added: list[int] = []
        B = self.matrix
        if self.n_rows:
            # one classical Gram-Schmidt pass decides accept/reject (its
            # roundoff sits far below the acceptance floor); survivors get a
            # second pass before entering the basis ("twice is enough")
            cands = cands - (cands @ B.T) @ B
            gate = np.maximum(tol * orig, _ABS_FLOOR)
            survivors = np.linalg.norm(cands, axis=1) > gate
            cands, orig = cands[survivors], orig[survivors]
            if cands.shape[0] == 0:
                return []
            cands = cands - (cands @ B.T) @ B
        for i in range(cands.shape[0]):
            row = cands[i]
            if added:
                New = self._rows[added[0]: added[-1] + 1, : self.n_cols]
                row = row - (row @ New.T) @ New
                row = row - (row @ New.T) @ New
            r = np.linalg.norm(row)
            if r <= max(tol * orig[i], _ABS_FLOOR):
                continue
            row = row / r
            if r < 1e-2 * orig[i]:
                # heavy cancellation amplifies projection roundoff; clean the
                # normalized row against everything before trusting it
                M = self.matrix
                row = row - (row @ M.T) @ M
                rr = np.linalg.norm(row)
                if rr <= 0.5:
                    continue
                row = row / rr
            # snap noise components so they cannot be recycled into later
            # candidates and masquerade as new directions
            row[np.abs(row) < _SNAP] = 0.0
            row = row / np.linalg.norm(row)
            self._ensure_rows(1)
            self._rows[self.n_rows, : self.n_cols] = row
            added.append(self.n_rows)
            self.n_rows += 1
            if cap is not None and self.n_rows >= cap:
                break
        return added


class _PauliEngine:
    """Closure state for the Pauli-string backend."""

    def __init__(self, gens: Sequence[PauliSum]):
        self.n_qubits = gens[0].n_qubits
        self.keys_x = np.zeros(64, dtype=np.uint64)
        self.keys_z = np.zeros(64, dtype=np.uint64)
        self.n_keys = 0
        self._sorted_packed = np.zeros(0, dtype=np.uint64)
        self._sorted_cols = np.zeros(0, dtype=np.int64)
        self.basis = _Basis()
        norm_terms = []
        for g in gens:
            xs, zs, cs = sum_to_arrays(g)
            nrm = np.linalg.norm(cs)
            if nrm < _ZERO_FLOOR:
                # zero generators contribute nothing but keep their slot so
                # generator indices stay stable for warm starts
                norm_terms.append((xs[:0], zs[:0], cs[:0]))
            else:
                norm_terms.append((xs, zs, cs / nrm))
        self.gen_terms = norm_terms

    def _register_keys(self, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Columns for the given strings, creating columns for unseen ones."""
        packed = _pack_keys(xs, zs)
        if self.n_keys:
            pos = np.searchsorted(self._sorted_packed, packed)
            pos = np.clip(pos, 0, self.n_keys - 1)
            hit = self._sorted_packed[pos] == packed
        else:
            pos = np.zeros(len(packed), dtype=np.int64)
            hit = np.zeros(len(packed), dtype=bool)
        cols = np.empty(len(packed), dtype=np.int64)
        cols[hit] = self._sorted_cols[pos[hit]]
        if not np.all(hit):
            miss = ~hit
            miss_idx = np.nonzero(miss)[0]
            new_packed, first_local, inverse = np.unique(
                packed[miss], return_index=True, return_inverse=True)
            first_idx = miss_idx[first_local]
            start = self.n_keys
            need = start + len(new_packed)
            if need > len(self.keys_x):
                grow = max(need, 2 * len(self.keys_x))
                for name in ("keys_x", "keys_z"):
                    old = getattr(self, name)
                    g = np.zeros(grow, dtype=np.uint64)
                    g[: self.n_keys] = old[: self.n_keys]
                    setattr(self, name, g)
            self.keys_x[start:need] = xs[first_idx]
            self.keys_z[start:need] = zs[first_idx]
            self.n_keys = need
            all_packed = np.concatenate([self._sorted_packed, new_packed])
            all_cols = np.concatenate([self._sorted_cols,
                                       np.arange(start, need, dtype=np.int64)])
            order = np.argsort(all_packed, kind="stable")
            self._sorted_packed = all_packed[order]
            self._sorted_cols = all_cols[order]
            cols[miss] = start + inverse
        return cols

    def vectorize(self, xs, zs, cs) -> np.ndarray:
        cols = self._register_keys(xs, zs)
        self.basis.ensure_cols(self.n_keys)
        v = np.bincount(cols, weights=cs, minlength=self.n_keys)
        return v

    def ingest(self, keys_x: np.ndarray, keys_z: np.ndarray, matrix: np.ndarray) -> None:
        """Preload a converged basis (columns re-mapped to this engine's keys)."""
        cols = self._register_keys(keys_x.astype(np.uint64), keys_z.astype(np.uint64))
        self.basis.ensure_cols(self.n_keys)
        self.basis._ensure_rows(matrix.shape[0])
        for row in matrix:
            dest = np.zeros(self.basis._rows.shape[1])
            dest[cols] = row
            self.basis._rows[self.basis.n_rows, :] = dest
            self.basis.n_rows += 1

    def row_terms(self, row_idx: int):
        row = self.basis._rows[row_idx, : self.n_keys]
        nz = np.nonzero(np.abs(row) > 1e-13)[0]
        return self.keys_x[nz], self.keys_z[nz], row[nz]

    def candidate_rows(self, frontier: Sequence[int],
                       gen_subset: Sequence[int] | None = None) -> np.ndarray:
        gens = (self.gen_terms if gen_subset is None
                else [self.gen_terms[i] for i in gen_subset])
        rows = []
        for idx in frontier:
            vx, vz, vc = self.row_terms(idx)
            for gx, gz, gc in gens:
                xs, zs, cs = commutator_arrays(gx, gz, gc, vx, vz, vc)
                if len(xs) == 0:
                    rows.append(None)
                else:
                    rows.append(self.vectorize(xs, zs, cs))
        out = np.zeros((len(rows), self.n_keys))
        for i, r in enumerate(rows):
            if r is not None:
                out[i, : len(r)] = r
        return out


class _DenseEngine:
    """Closure state for the dense-matrix backend."""

    def __init__(self, gens: Sequence[np.ndarray]):
        self.d = gens[0].shape[0]
        self.basis = _Basis(n_cols_hint=2 * self.d * self.d)
        self.basis.ensure_cols(2 * self.d * self.d)
        self.gen_mats = []
        for g in gens:
            nrm = np.linalg.norm(g)
            # zero generators keep their slot (as zeros) so generator
            # indices stay stable; they produce no candidates
            self.gen_mats.append(g / nrm if nrm >= _ZERO_FLOOR else g * 0.0)
        if all(np.linalg.norm(g) < _ZERO_FLOOR for g in self.gen_mats):
            raise ClosureError("all generators are zero")
        self._gen_stack = np.stack(self.gen_mats)

    def vectorize(self, mat: np.ndarray) -> np.ndarray:
        return _stack_matrix(mat)

    def row_matrix(self, row_idx: int) -> np.ndarray:
        row = self.basis._rows[row_idx, : self.basis.n_cols]
        d = self.d
        return (row[: d * d] + 1j * row[d * d:]).reshape(d, d)

    def candidate_rows(self, frontier: Sequence[int],
                       gen_subset: Sequence[int] | None = None) -> np.ndarray:
        V = np.stack([self.row_matrix(i) for i in frontier])
        G = (self._gen_stack if gen_subset is None
             else self._gen_stack[list(gen_subset)])
        GV = np.einsum("gab,vbc->vgac", G, V)
        VG = np.einsum("vab,gbc->vgac", V, G)
        C = (GV - VG) / 2j
        k = C.shape[0] * C.shape[1]
        C = C.reshape(k, self.d, self.d)
        out = np.empty((k, 2 * self.d * self.d))
        out[:, : self.d * self.d] = C.real.reshape(k, -1)
        out[:, self.d * self.d:] = C.imag.reshape(k, -1)
        return out


def _stack_matrix(m: np.ndarray) -> np.ndarray:
    return np.concatenate([m.real.ravel(), m.imag.ravel()])


def _pauli_seed_rows(engine: _PauliEngine, gens: Sequence[PauliSum]) -> np.ndarray:
    rows = [engine.vectorize(*sum_to_arrays(g)) for g in gens]
    seeds = np.zeros((len(rows), engine.n_keys))
    for i, r in enumerate(rows):
        seeds[i, : len(r)] = r
    return seeds


def close(gen: GeneratorSet, cap: int | None = None, tol: float = DEFAULT_TOL,
          depth_limit: int = DEFAULT_DEPTH_LIMIT,
          warm_base: "ClosureResult | None" = None,
          warm_closed_gens: int = 0) -> ClosureResult:
    """Breadth-first Lie closure of a generator set.

    ``cap`` bounds the basis size; hitting it terminates with
    ``converged=True`` (the closure then provably contains a
    cap-dimensional algebra).  With cap equal to the representation's
    theoretical maximum, hitting it certifies universality.

    ``warm_base`` may hold the converged closure of the first
    ``warm_closed_gens`` generators; only the remaining generators are
    then expanded against it.  A converged closure is a Lie algebra, so
    an extra generator already inside the base span changes nothing.
    """
    if tol <= 0:
        raise ClosureError("tol must be positive")
    if cap is not None and cap < 1:
        raise ClosureError("cap must be >= 1")
    t0 = time.perf_counter()
    if gen.representation == "pauli":
        n = gen.n_qubits
        theoretical = 4 ** n - 1
        engine = _PauliEngine(gen.generators)
    else:
        d = gen.dim
        has_trace = any(abs(np.trace(g)) > _TRACE_TOL * np.linalg.norm(g)
                        for g in gen.generators)
        theoretical = d * d if has_trace else d * d - 1
        engine = _DenseEngine(gen.generators)
    hard_cap = theoretical if cap is None else min(cap, theoretical)
    block_size = max(1, _CHUNK // max(1, len(gen.generators)))
    depth = 0

    if warm_base is not None:
        if gen.representation != "pauli" or warm_base.representation != "pauli":
            raise ClosureError("warm start requires the pauli representation")
        if warm_base.n_qubits != gen.n_qubits or not warm_base.converged:
            raise ClosureError("warm base must be a converged closure of equal size")
        engine.ingest(warm_base._keys_x, warm_base._keys_z, warm_base._matrix)
        new_gen_idx = list(range(warm_closed_gens, len(gen.generators)))
        seeds = _pauli_seed_rows(engine, [gen.generators[i] for i in new_gen_idx])
        frontier = engine.basis.absorb(seeds, tol, hard_cap)
        if frontier and engine.basis.n_rows < hard_cap:
            # the base was never commuted against the genuinely new fields
            depth = 1
            base_rows = list(range(warm_base.dimension))
            for lo in range(0, len(base_rows), block_size):
                cands = engine.candidate_rows(base_rows[lo: lo + block_size],
                                              gen_subset=new_gen_idx)
                frontier.extend(engine.basis.absorb(cands, tol, hard_cap))
                if engine.basis.n_rows >= hard_cap:
                    break
    else:
        if gen.representation == "pauli":
            seeds = _pauli_seed_rows(engine, gen.generators)
        else:
            seeds = np.stack([engine.vectorize(g) for g in engine.gen_mats])
        frontier = engine.basis.absorb(seeds, tol, hard_cap)

    # an empty frontier at this point means every generator already lies in
    # a converged base span, so there is nothing left to expand
    converged = engine.basis.n_rows >= hard_cap or not frontier
    while frontier and not converged and depth < depth_limit:
        depth += 1
        new: list[int] = []
        # oldest elements first: shallow brackets carry the least numerical
        # noise, so genuine directions enter at large residuals
        for lo in range(0, len(frontier), block_size):
            block = frontier[lo: lo + block_size]
            cands = engine.candidate_rows(block)
            new.extend(engine.basis.absorb(cands, tol, hard_cap))
            if engine.basis.n_rows >= hard_cap:
                converged = True
                break
        if converged:
            break
        if not new:
            converged = True
            break
        frontier = new

    dim = engine.basis.n_rows
    if dim >= theoretical:
        verdict = "universal"
    elif converged and (cap is None or dim < hard_cap):
        verdict = "non_universal"
    else:
        verdict = "undetermined"
    result = ClosureResult(
        dimension=dim,
        converged=converged,
        depth_reached=depth,
        universality=verdict,
        representation=gen.representation,
        theoretical_cap=theoretical,
        n_qubits=gen.n_qubits if gen.representation == "pauli" else None,
        elapsed_s=time.perf_counter() - t0,
        _matrix=engine.basis.matrix.copy(),
    )
    if gen.representation == "pauli":
        result._keys_x = engine.keys_x[: engine.n_keys].copy()
        result._keys_z = engine.keys_z[: engine.n_keys].copy()
    return result


# -- uniform qubit chain controls ---------------------------------------

def uniform_qubit_generators(n_qubits: int, break_pattern: Sequence[int] = ()) -> GeneratorSet:
    """H_X, H_Z, H_ZZ on the open chain plus an optional partial X field."""
    if n_qubits < 2:
        raise ClosureError("chain needs at least 2 qubits")
    pattern = sorted(set(break_pattern))
    if pattern and (pattern[0] < 1 or pattern[-1] > n_qubits):
        raise ClosureError(f"break pattern {pattern} out of range 1..{n_qubits}")
    hx = PauliSum.zero(n_qubits)
    hz = PauliSum.zero(n_qubits)
    for j in range(1, n_qubits + 1):
        hx = hx + PauliSum.single_site(n_qubits, j, "X")
        hz = hz + PauliSum.single_site(n_qubits, j, "Z")
    hzz = PauliSum.zero(n_qubits)
    for j in range(1, n_qubits):
        label = "I" * (j - 1) + "ZZ" + "I" * (n_qubits - j - 1)
        hzz = hzz + PauliSum.from_label(label)
    gens = [hx, hz, hzz]
    if pattern:
        hbreak = PauliSum.zero(n_qubits)
        for j in pattern:
            hbreak = hbreak + PauliSum.single_site(n_qubits, j, "X")
        gens.append(hbreak)
    tag = ",".join(map(str, pattern)) if pattern else "none"
    return GeneratorSet("pauli", gens, label=f"chain N={n_qubits} break={tag}")


def pattern_is_reflection_symmetric(n_qubits: int, break_pattern: Sequence[int]) -> bool:
    pattern = set(break_pattern)
    return {n_qubits - j + 1 for j in pattern} == pattern


def check_universality_qubit(n_qubits: int, break_pattern: Sequence[int] = (),
                             backend: Representation = "pauli",
                             tol: float = DEFAULT_TOL,
                             warm_uniform: "ClosureResult | None" = None) -> ClosureResult:
    """Universality of the uniform chain controls plus a partial X field.

    ``warm_uniform`` may carry the converged closure of the bare
    {H_X, H_Z, H_ZZ} set for the same N (pauli backend) to skip
    re-deriving the shared part across many break patterns.
    """
    gen = uniform_qubit_generators(n_qubits, break_pattern)
    if backend == "dense":
        gen = GeneratorSet("dense", [g.to_dense() for g in gen.generators],
                           label=gen.label)
        result = close(gen, cap=4 ** n_qubits - 1, tol=tol)
    elif warm_uniform is not None and len(gen.generators) > 3:
        result = close(gen, cap=4 ** n_qubits - 1, tol=tol,
                       warm_base=warm_uniform, warm_closed_gens=3)
    else:
        result = close(gen, cap=4 ** n_qubits - 1, tol=tol)
    result.pattern_reflection_symmetric = pattern_is_reflection_symmetric(
        n_qubits, break_pattern)
    if result.representation == "dense":
        result.n_qubits = n_qubits
    return result


def reflection_sector_check(result: ClosureResult, n_qubits: int,
                            tol: float = 1e-9) -> bool:
    """True iff every basis element is invariant under the chain reflection."""
    if result.representation != "pauli":
        raise ClosureError("reflection check requires the pauli representation")
    if result.n_qubits != n_qubits:
        raise ClosureError("qubit count mismatch")
    keys_x, keys_z = result._keys_x, result._keys_z
    rx = reflect_masks(keys_x, n_qubits)
    rz = reflect_masks(keys_z, n_qubits)
    packed = _pack_keys(keys_x, keys_z)
    rpacked = _pack_keys(rx, rz)
    order = np.argsort(packed, kind="stable")
    pos = np.searchsorted(packed[order], rpacked)
    pos = np.clip(pos, 0, len(order) - 1)
    hit = packed[order][pos] == rpacked
    perm = order[pos]
    B = result._matrix
    if not np.all(hit):
        # reflected strings outside the support: their coefficients must vanish
        bad_cols = np.nonzero(~hit)[0]
        if np.max(np.abs(B[:, bad_cols])) > tol:
            return False
    reflected = np.zeros_like(B)
    reflected[:, perm[hit]] = B[:, hit]
    return bool(np.max(np.abs(reflected - B)) < tol) if B.size else True


def verify_lemma_b2_targets(n_qubits: int, tol: float = 1e-8) -> bool:
    """Mirrored-pair X/Z/ZZ targets all lie in the uniform-control closure."""
    if n_qubits < 3:
        raise ClosureError("target check needs N >= 3")
    result = close(uniform_qubit_generators(n_qubits))
    ok = True
    for j in range(1, n_qubits // 2 + 1):
        mirror = n_qubits - j + 1
        hxj = (PauliSum.single_site(n_qubits, j, "X")
               + PauliSum.single_site(n_qubits, mirror, "X"))
        hzj = (PauliSum.single_site(n_qubits, j, "Z")
               + PauliSum.single_site(n_qubits, mirror, "Z"))
        ok &= result.contains(hxj, tol)[0]
        ok &= result.contains(hzj, tol)[0]
        za = "I" * (j - 1) + "ZZ" + "I" * (n_qubits - j - 1)
        k = n_qubits - j  # left index of the mirrored bond
        zb = "I" * (k - 1) + "ZZ" + "I" * (n_qubits - k - 1)
        hzzj = PauliSum.from_label(za)
        if zb != za:
            hzzj = hzzj + PauliSum.from_label(zb)
        ok &= result.contains(hzzj, tol)[0]
    if n_qubits % 2 == 1:
        mid = n_qubits // 2 + 1
        ok &= result.contains(PauliSum.single_site(n_qubits, mid, "X"), tol)[0]
        ok &= result.contains(PauliSum.single_site(n_qubits, mid, "Z"), tol)[0]
    return bool(ok)


# -- Trotter product formulas -------------------------------------------

def trotter_linear_error(A: np.ndarray, B: np.ndarray, n: int) -> float:
    """Spectral-norm error of the n-step product formula for exp(A+B)."""
    A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        raise ClosureError("dimension mismatch")
    if n < 1:
        raise ClosureError("n must be >= 1")
    exact = scipy.linalg.expm(A + B)
    step = scipy.linalg.expm(A / n) @ scipy.linalg.expm(B / n)
    approx = np.linalg.matrix_power(step, n)
    return float(np.linalg.norm(exact - approx, 2))


def trotter_commutator_error(A: np.ndarray, B: np.ndarray, n: int) -> float:
    """Spectral-norm error of the n-step group-commutator formula for exp([A,B])."""
    A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        raise ClosureError("dimension mismatch")
    if n < 1:
        raise ClosureError("n must be >= 1")
    exact = scipy.linalg.expm(A @ B - B @ A)
    s = np.sqrt(n)
    step = (scipy.linalg.expm(A / s) @ scipy.linalg.expm(B / s)
            @ scipy.linalg.expm(-A / s) @ scipy.linalg.expm(-B / s))
    approx = np.linalg.matrix_power(step, n)
    return float(np.linalg.norm(exact - approx, 2))


def loglog_slope(ns: Sequence[int], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(n)."""
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > 0
    return float(np.polyfit(np.log(ns[keep]), np.log(errors[keep]), 1)[0])
