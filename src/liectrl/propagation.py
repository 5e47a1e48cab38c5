"""Time evolution engines for globally driven atom chains.

Unitary propagation splits every knot interval of a piecewise-linear
pulse into equal steps of the fourth-order commutator-free Magnus scheme
(CF4, exactly unitary).  H(t) is affine inside an interval, so each CF4
step is two exponentials of length h/2 with H sampled at 1/6 and 5/6 of
the step.  A chain's H(t) commutes with the site reflection j -> N+1-j,
so a propagator U is held as its parity blocks U_b = P_b^T U P_b, with
P_b real isometries zero-padded to the even size (2^N + 2^ceil(N/2))/2
(one of 2^N if the interaction is not reflection symmetric), stored as a
block position and weight per basis state.  Each batch of exponentials
takes one ``eigh`` per block; U_j = W_j Y_j stays in the eigenbasis W_j of
its last exponential, Y_j = diag(e^{-i lambda h/2}) W_j^T W_{j-1} Y_{j-1}
being one real matrix product, and U_j = sum_b P_b (W_j Y_j)_b P_b^T, the
only 2^N x 2^N matrix built, is gathered once, at the pulse's end.
Open-system propagation (per-atom decay |g><r|, constant control offsets)
takes the same CF4 steps, each between two half steps of exact amplitude
damping (Strang splitting), so every step is a quantum channel.  The
damping D acts on all atoms at once, as one gather and segmented sum over
the 5^N (entry, source) pairs of rho that it couples, built once per call.

All frequencies are angular (rad/us), except the hardware limits of a
:class:`ConstraintProfile`, which are in MHz and cross over through
``models.mhz``, the one crossing between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .models import AtomGeometry, NoiseModel, _interaction_diagonal, basis_bits, mhz
from .pauli import _is_int, _is_real, reflect_masks

# us per CF4 step; fourth order: from |g..g> on 3 atoms at 6 um, the 1 us
# "mild" probe pulse ends 2.1e-3 and the 2 us "sweep" probe 1.07e-2 from the
# converged state
DEFAULT_STEP = 0.034
_BATCH_BYTES = 1 << 17  # stacked block eigenvectors per batch; Lindblad temporaries take ~8x
# max|v - v o r| <= _MIRROR_ULPS * eps * max|v| counts as reflection symmetric;
# AtomGeometry.chain roundoff reaches 9 eps on chains of 2 to 10 atoms
_MIRROR_ULPS = 32
# us per Strang step; from |g..g> on 3 atoms at 6 um with fitted noise, the 1 us
# "mild" probe pulse ends 7.8e-6 from the converged state
DEFAULT_LINDBLAD_DT = DEFAULT_STEP / 4
# most CF4 steps in one propagation, checked before the step grid is allocated
_MAX_STEPS = 1 << 20


class PulseError(ValueError):
    pass


class PropagationError(RuntimeError):
    pass


@dataclass(frozen=True)
class ConstraintProfile:
    """Hardware limits for laser pulse shaping, in MHz and us."""

    omega_max: float = 2.41
    delta_range: float = 19.9
    slew_omega: float = 39.7
    slew_delta: float = 397.0
    dt_min: float = 0.05

    def __post_init__(self):
        limits = (self.omega_max, self.delta_range, self.slew_omega, self.slew_delta)
        if not all(map(_is_real, (*limits, self.dt_min))):
            raise PulseError(f"constraint limits must be real numbers: {self}")
        if not (np.isfinite([*limits, self.dt_min]).all() and min(limits) > 0 and self.dt_min >= 0):
            raise PulseError(f"constraint limits must be finite and > 0, dt_min >= 0: {self}")


@dataclass(frozen=True)
class ControlPulse:
    """Piecewise-linear (time, Rabi, detuning) knots, angular units."""

    times: np.ndarray
    omegas: np.ndarray
    deltas: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            knots = np.asarray(getattr(self, f.name))
            if knots.dtype.kind not in "iuf":  # bool, str and object knots used to convert
                raise PulseError(f"knot arrays must be integer or float, got {f.name} of "
                                 f"dtype {knots.dtype}")
            object.__setattr__(self, f.name, np.asarray(knots, dtype=float))
        t, om, de = self.times, self.omegas, self.deltas
        if not (t.shape == om.shape == de.shape) or t.ndim != 1 or len(t) < 2:
            raise PulseError("need matching 1-d knot arrays with at least 2 knots")
        if not np.isfinite([t, om, de]).all():
            raise PulseError("knot times and controls must be finite")
        if np.any(np.diff(t) <= 0):
            raise PulseError("knot times must be strictly increasing")

    @property
    def n_knots(self) -> int:
        return len(self.times)

    def sample(self, t):  # floats for a scalar t, arrays for an array
        om = np.interp(t, self.times, self.omegas)
        de = np.interp(t, self.times, self.deltas)
        return (float(om), float(de)) if om.ndim == 0 else (om, de)

    def validate(self, profile: ConstraintProfile | None = None) -> None:
        """Raise PulseError on any violated invariant.

        Structural checks always run: t_0 = 0 and zero Rabi amplitude at
        both endpoints.  With a profile, amplitude bounds and slew rates on
        knot differences are enforced exactly; a knot spacing passes down
        to dt_min * (1 - 1e-12), a relative allowance for knot roundoff.
        """
        problems = []
        if self.times[0] != 0.0:
            problems.append(f"pulse must start at t=0, got {self.times[0]}")
        if self.omegas[0] != 0.0 or self.omegas[-1] != 0.0:
            problems.append("Rabi amplitude must be zero at both endpoints")
        if profile is not None:
            if np.any(self.omegas < 0) or np.any(self.omegas > mhz(profile.omega_max)):
                problems.append(f"Rabi amplitude outside [0, {profile.omega_max} MHz]")
            if np.any(np.abs(self.deltas) > mhz(profile.delta_range)):
                problems.append(f"detuning outside +-{profile.delta_range} MHz")
            dt = np.diff(self.times)
            if np.any(dt < profile.dt_min * (1 - 1e-12)):
                problems.append(f"knot spacing below {profile.dt_min} us")
            if np.any(np.abs(np.diff(self.omegas)) / dt > mhz(profile.slew_omega)):
                problems.append(f"Rabi slew above {profile.slew_omega} MHz/us")
            if np.any(np.abs(np.diff(self.deltas)) / dt > mhz(profile.slew_delta)):
                problems.append(f"detuning slew above {profile.slew_delta} MHz/us")
        if problems:
            raise PulseError("; ".join(problems))


@dataclass
class DensityState:
    rho: np.ndarray
    time: float

    def trace(self) -> float:
        return float(np.trace(self.rho).real)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.rho - self.rho.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh((self.rho + self.rho.conj().T) / 2)[0])


def _parity_blocks(geom: AtomGeometry) -> tuple[list[int], tuple, tuple]:
    """The Rydberg terms in reflection-parity blocks, from bit masks alone.

    If the interaction v is reflection symmetric (see ``_MIRROR_ULPS``),
    the blocks are the parity sectors of the bit reversal r: the even one
    spans |k> for k = r(k) and (|k> + |r(k)>)/sqrt(2) for k < r(k), the odd
    one (|k> - |r(k)>)/sqrt(2), each in the order of k.  Otherwise, or when
    the odd block is empty, one block of 2^N holds everything.  Returns the
    block sizes, P as (pos, wt) (nb, 2^N): state k at pos[b, k] of block b
    with weight wt[b, k] (1, +-1/sqrt(2) or 0), and the blocks of sum X
    (nb, d, d) and diagonals of sum n and V (nb, d), zero past a block's
    size, d the first size.
    """
    v = _interaction_diagonal(geom)  # raises over the dense budget before any 2^N array
    k = np.arange(v.size)
    r = reflect_masks(k.astype(np.uint64), geom.n_atoms).astype(np.intp)
    if np.abs(v - v[r]).max() > _MIRROR_ULPS * np.finfo(float).eps * np.abs(v).max():
        r = k
    even, odd, half = k <= r, k < r, np.sqrt(0.5)
    sizes = [int(n) for n in (even.sum(), odd.sum()) if n]
    nb, d = len(sizes), sizes[0]
    # block position of each state's orbit {k, r(k)}; palindromes get weight 0 in the odd block
    pos = np.maximum(np.cumsum([even, odd], axis=1) - 1, 0)[:nb, np.minimum(k, r)]
    wt = np.stack([np.where(r == k, 1, half), np.sign(r - k) * half])[:nb]
    cell = pos + d * np.arange(nb)[:, None]  # row of each state in the stacked blocks
    flips = k ^ (1 << np.arange(geom.n_atoms))[:, None]  # sum X couples k to each of these
    x = np.bincount((cell[:, None] * d + pos[:, flips]).ravel(),
                    (wt[:, None] * wt[:, flips]).ravel(), nb * d * d).reshape(nb, d, d)
    n_b, v_b = (np.bincount(cell.ravel(), (wt * wt * f).ravel(), nb * d).reshape(nb, d)
                for f in (np.bitwise_count(k), v))
    return sizes, (pos, wt), (x, n_b, v_b)


def _unfold(m: np.ndarray, pos: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """Full matrices sum_b (w_b w_b^T) * M_b[pos_b, pos_b] of blocks M (..., nb, d, d)."""
    out = np.zeros(m.shape[:-3] + 2 * pos.shape[1:], m.dtype)
    for b, (p, w) in enumerate(zip(pos, wt)):
        g = m[..., b, p[:, None], p]
        g *= w[:, None]
        g *= w
        out += g
    return out


def _step_grid(pulse: ControlPulse, step: float,
               substeps: int | None) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, list]:
    """(omega, delta) at each CF4 step's nodes, step lengths, steps done by each knot.

    A knot interval takes ``substeps`` equal steps, or the fewest no longer
    than ``step``, the ratio rounded before its ceil against knot roundoff.
    Node c of step s of n sits at fraction (s + c)/n of its interval, read
    off that interval's knots (absolute times biased CF4 by 2e-12 in 45 us).
    More than ``_MAX_STEPS`` steps in all raise before any step is stored.
    """
    gaps = np.diff(pulse.times)
    with np.errstate(over="ignore"):  # a subnormal step counts inf steps
        steps = (np.maximum(1, np.ceil(np.round(gaps / step, 9)))
                 if substeps is None else np.full(gaps.size, float(substeps)))
    if not steps.sum() <= _MAX_STEPS:
        raise PropagationError(f"the pulse needs {steps.sum():.0f} steps, more than {_MAX_STEPS}")
    steps = steps.astype(int)
    knot_ends = np.cumsum(steps)
    k = np.repeat(np.arange(gaps.size), steps)  # knot interval of each step
    s = np.arange(k.size) - np.repeat(knot_ends - steps, steps)  # step within it
    # the Gauss-node CF4 step for H affine in t: exp(-i h/2 H(t + 5h/6)) exp(-i h/2 H(t + h/6))
    frac = ((s[:, None] + np.array([1 / 6, 5 / 6])) / steps[k, None]).ravel()
    kn = np.repeat(k, 2)  # knot interval of each node
    om = pulse.omegas[kn] + frac * np.diff(pulse.omegas)[kn]
    de = pulse.deltas[kn] + frac * np.diff(pulse.deltas)[kn]
    return (om, de), (gaps / steps)[k], knot_ends.tolist()


def _cf4_exponentials(pulse: ControlPulse, geom: AtomGeometry, step: float,
                      substeps: int | None, noise: NoiseModel):
    """CF4 exponentials of a pulse in parity blocks, batches of whole steps.

    Returns the ``_step_grid`` step lengths and knot ends, the sizes and P
    of ``_parity_blocks``, and batches (lo, W, phases) from one ``eigh`` per
    block of (omega/2) X + diag(V - delta n): exponential lo + 2s + c is
    W diag(phases) W^T, phases e^{-i lambda h/2} as columns, node c of step s.
    """
    (om, de), h, knot_ends = _step_grid(pulse, step, substeps)
    om, de = noise.realized_controls(om, de)
    dts = np.repeat(h, 2) / 2
    sizes, fold, (x_b, n_b, v_b) = _parity_blocks(geom)
    batch = 2 * max(1, _BATCH_BYTES // (2 * x_b.nbytes))  # stacked real W of whole steps

    def batches():
        for lo in range(0, dts.size, batch):
            sl = slice(lo, lo + batch)
            w = np.zeros((dts[sl].size,) + x_b.shape)
            lam = np.zeros(w.shape[:3])
            for b, d in enumerate(sizes):
                hs = (om[sl, None, None] / 2.0) * x_b[b, :d, :d]
                hs[:, np.arange(d), np.arange(d)] += v_b[b, :d] - de[sl, None] * n_b[b, :d]
                lam[:, b, :d], w[:, b, :d, :d] = np.linalg.eigh(hs)
            yield lo, w, np.exp(-1j * lam * dts[sl, None, None])[..., None]

    return h, knot_ends, sizes, fold, batches()


def propagate_unitary(pulse: ControlPulse, geom: AtomGeometry,
                      substeps: int | None = None, force: bool = False,
                      profile: ConstraintProfile | None = None,
                      noise: NoiseModel | None = None) -> np.ndarray:
    """Final propagator of the pulse (CF4 product); unitary to roundoff by construction.

    Each knot interval takes ``substeps`` equal CF4 steps of two
    exponentials each, or by default the fewest steps no longer than
    ``DEFAULT_STEP``.  ``noise`` applies only the coherent control offsets
    here; decay needs ``propagate_lindblad``.  ``force`` skips
    ``pulse.validate``, so it takes no ``profile``.

    The propagator is held in the reflection-parity blocks of
    ``_parity_blocks``.  The interaction counts as reflection symmetric
    when max|v - v o r| <= 32 eps max|v| (``_MIRROR_ULPS``); the blocks
    are then built from the reflection-averaged V, moving the propagator
    by at most T max|v - v o r| / 2 (spectral norm, pulse length T);
    beyond it one block of size 2^N runs with the exact V.
    """
    if not force:
        pulse.validate(profile)
    elif profile is not None:
        raise PropagationError("force skips validation; pass no profile with it")
    if substeps is not None and not (_is_int(substeps) and substeps >= 1):
        raise PropagationError(f"substeps must be >= 1 and an integer, got {substeps!r}")
    _, _, sizes, fold, batches = _cf4_exponentials(pulse, geom, DEFAULT_STEP, substeps,
                                                   noise or NoiseModel())
    d = sizes[0]
    w_prev = np.eye(d) * (np.arange(d) < np.array(sizes)[:, None, None])  # 1 on blocks, 0 on pads
    y = w_prev.astype(complex).view(np.float64)  # Y_0 = W_0, on (D, 2D) real views
    for _, w, phases in batches:
        m = w.mT @ np.concatenate([w_prev[None], w[:-1]])  # W_j^T W_{j-1}
        for mj, phase in zip(m, phases):
            y = mj @ y  # Y_j = diag(phase) W_j^T W_{j-1} Y_{j-1}
            yc = y.view(complex)
            yc *= phase
        w_prev = w[-1]
    del m, mj, phases, phase  # the last batch's products, freed before the 2^N x 2^N unfold
    return _unfold((w_prev @ y).view(complex), *fold)


def _damping_plan(n_atoms: int) -> tuple:
    """The gather of ``_amplitude_damping`` on n atoms: 5^N (entry, source) pairs.

    Entry t = a d + b of rho (d = 2^N) sums the sources (a|m) d + (b|m) =
    t + m (d + 1) over the submasks m of the atoms ~(a|b) in g on both
    sides, each atom contributing 2 sources if so and 1 otherwise.  Returns
    the sources in entry order, each entry's first source, and the cell
    |m| (2N + 1) + |a| + |b| of each source's weight in the table of
    :func:`_damping_weights`.
    """
    d = 2 ** n_atoms
    a, b = np.divmod(np.arange(d * d), d)
    free = ~(a | b) & (d - 1)
    count = 1 << np.bitwise_count(free).astype(np.intp)
    starts = np.cumsum(count) - count
    entry = np.repeat(np.arange(d * d), count)
    j = np.arange(entry.size) - starts[entry]  # index of the submask, deposited into free bits
    f, m = free[entry], np.zeros_like(entry)
    for i in range(n_atoms):
        bit = f >> i & 1
        m |= (j & bit) << i
        j >>= bit
    excited = (np.bitwise_count(a) + np.bitwise_count(b))[entry]
    cell = np.bitwise_count(m).astype(np.uint16) * (2 * n_atoms + 1) + excited
    return entry + m * (d + 1), starts, cell


def _damping_weights(plan: tuple, n_atoms: int, p: float) -> np.ndarray:
    """The weight p^|m| sqrt(1 - p)^(|a| + |b|) of each source of ``plan``,
    gathered from the (N + 1) x (2N + 1) table of p^m sqrt(1 - p)^e."""
    table = p ** np.arange(n_atoms + 1)[:, None] * np.sqrt(1 - p) ** np.arange(2 * n_atoms + 1)
    return table.ravel()[plan[2]]


def _amplitude_damping(rho: np.ndarray, plan: tuple, weights: np.ndarray) -> np.ndarray:
    """The decay channel with Kraus operators diag(1, sqrt(1 - p)) and
    sqrt(p)|g><r| on every atom (qubit 1 the most significant bit):
    D(rho)_ab = (1 - p)^((|a| + |b|)/2) sum_{m <= ~(a|b)} p^|m| rho_{a|m, b|m}
    as one gather over ``_damping_plan``, with the ``_damping_weights`` of p."""
    src, starts, _ = plan
    return np.add.reduceat(rho.ravel()[src] * weights, starts).reshape(rho.shape)


def propagate_lindblad(pulse: ControlPulse, geom: AtomGeometry,
                       noise: NoiseModel, dt: float = DEFAULT_LINDBLAD_DT,
                       initial_state: np.ndarray | None = None,
                       force: bool = False,
                       profile: ConstraintProfile | None = None) -> list[DensityState]:
    """Density-matrix trajectory recorded at every knot time.

    Solves drho/dt = -i[H(t), rho] + gamma * sum_l D[sigma_l^-] rho, with H
    from the noise-shifted controls, by the Strang splitting
    rho <- D(h/2) U (D(h/2) rho) U^dag per step: U is the CF4 step of
    ``propagate_unitary`` and D(t) the exact amplitude damping with
    p = 1 - e^{-gamma t} on every atom; inside a knot interval the two half
    steps between steps run as one D(h).  D is one gather over the 5^N
    (entry, source) pairs of rho that it couples (``_damping_plan``; 4^N
    entries, 390,625 pairs at 8 atoms and 9.8 M at 10), built once per call
    and weighted once per run of intervals of one rounded gap / dt, the
    rounding that sets the step count.  Each knot interval takes the fewest
    equal steps no longer than ``dt``.  Every factor is a completely
    positive, trace-preserving map, so each state is positive semidefinite
    with unit trace to roundoff at any ``dt``.
    ``initial_state`` is a unit vector or a density matrix.
    """
    if not force:
        pulse.validate(profile)
    elif profile is not None:
        raise PropagationError("force skips validation; pass no profile with it")
    if not (_is_real(dt) and dt > 0):
        raise PropagationError(f"dt must be positive and a number, got {dt!r}")
    h, knot_ends, _, fold, batches = _cf4_exponentials(pulse, geom, float(dt), None, noise)
    dim = 2 ** geom.n_atoms
    rho0 = np.asarray(np.eye(dim)[0] if initial_state is None else initial_state, complex)
    if not np.isfinite(rho0).all():  # before inf * 0 and inf - inf
        raise PropagationError("initial_state must be finite")
    if rho0.shape == (dim,):
        rho0 = np.outer(rho0, rho0.conj())
    elif rho0.shape != (dim, dim) or np.abs(rho0 - rho0.conj().T).max() > 1e-12:
        raise PropagationError(f"initial_state must be a ({dim},) vector or a Hermitian ({dim}, "
                               f"{dim}) matrix for {geom.n_atoms} atoms, got shape {rho0.shape}")
    if abs(np.trace(rho0) - 1) > 1e-12 or np.linalg.eigvalsh(rho0)[0] < -1e-12:
        raise PropagationError("initial_state must have unit trace and no negative eigenvalue")
    plan = _damping_plan(geom.n_atoms)
    ratio = np.round(np.diff(pulse.times) / float(dt), 9)  # one per step length, as in _step_grid

    def weights(i):  # of interval i's two maps: D(h/2), and D(h/2)^2 = D(h) between two steps
        p = -np.expm1(-0.5 * noise.gamma * h[knot_ends[i] - 1])  # decay probability per half step
        return [_damping_weights(plan, geom.n_atoms, q) for q in (p, p * (2 - p))]

    states, damp_w = [DensityState(rho0.copy(), float(pulse.times[0]))], weights(0)
    rho = _amplitude_damping(rho0, plan, damp_w[0])  # each later rho is a new array, never written
    for lo, w, phases in batches:
        e = (w * phases.mT) @ w.mT  # each exponential's blocks
        us = _unfold(e[1::2] @ e[0::2], *fold)  # each step's propagator
        for j, (u, u_dag) in enumerate(zip(us, us.conj().mT), lo // 2):
            rho = u @ rho @ u_dag
            knot = j + 1 == knot_ends[len(states) - 1]
            rho = _amplitude_damping(rho, plan, damp_w[not knot])
            if knot:
                states.append(DensityState(rho, float(pulse.times[len(states)])))
                if (i := len(states) - 1) < ratio.size:  # the next interval's first half step
                    if ratio[i] != ratio[i - 1]:
                        damp_w = None  # 5^N floats each: drop the last ones before the next
                        damp_w = weights(i)
                    rho = _amplitude_damping(rho, plan, damp_w[0])
    return states


# -- observables ----------------------------------------------------------

@dataclass
class ObservableRecord:
    """Per-site densities/Z values plus the full ZZ correlation matrices."""

    n_sites: int
    expect_n: np.ndarray
    expect_z: np.ndarray
    zz: np.ndarray
    connected: np.ndarray = field(init=False)

    def __post_init__(self):
        self.connected = self.zz - np.outer(self.expect_z, self.expect_z)
        np.fill_diagonal(self.connected, 1.0 - self.expect_z ** 2)


def observables(state: np.ndarray | DensityState,
                initial_state: np.ndarray | None = None) -> ObservableRecord:
    """Exact single-site and pairwise Z statistics of a state.

    Accepts a state vector, a density matrix, a DensityState, or a
    unitary together with a vector ``initial_state`` (then propagated).
    """
    density = isinstance(state, DensityState)
    arr = np.asarray(state.rho if density else state, dtype=complex)
    if arr.ndim == 2 and arr.shape[0] != arr.shape[1]:
        raise PropagationError(f"a matrix state must be square, got shape {arr.shape}")
    if initial_state is not None:
        if density or arr.ndim != 2 or np.shape(initial_state) != arr.shape[:1]:
            raise PropagationError("unrecognized state input: initial_state needs a unitary state "
                                   f"and a vector of its length, got {np.shape(initial_state)}")
        arr = arr @ np.asarray(initial_state, dtype=complex)
    if not np.isfinite(arr).all():
        raise PropagationError("state must be finite")
    if arr.ndim == 1:
        probs = np.abs(arr) ** 2
    elif arr.ndim == 2:
        probs = np.real(np.diag(arr))
    else:
        raise PropagationError("unrecognized state input")
    dim = len(probs)
    if dim < 1 or dim & (dim - 1):
        raise PropagationError("state dimension is not a power of two")
    n_sites = dim.bit_length() - 1
    zdiag = np.ascontiguousarray(1.0 - 2.0 * basis_bits(n_sites).T)  # row s: Z_{s+1}
    expect_z = zdiag @ probs
    return ObservableRecord(n_sites, (1.0 - expect_z) / 2.0, expect_z, (zdiag * probs) @ zdiag.T)
