"""Time evolution engines for globally driven atom chains.

Unitary propagation splits every knot interval of a piecewise-linear
pulse into equal steps of the fourth-order commutator-free Magnus scheme
(CF4, exactly unitary).  H(t) is affine inside an interval, so each CF4
step is two exponentials of length h/2 with H sampled at 1/6 and 5/6 of
the step.  A chain's H(t) commutes with the site reflection j -> N+1-j,
so the propagator is held as its even and odd parity blocks, of sizes
(2^N +- 2^ceil(N/2))/2, the odd one zero-padded and stacked with the
even one; an interaction that is not reflection symmetric runs as one
block of 2^N.  Each batch of exponentials takes one batched ``eigh`` per
block; the propagator U_j = W_j Y_j stays in the eigenbasis W_j of its last
exponential, Y_j = diag(e^{-i lambda h/2}) W_j^T W_{j-1} Y_{j-1} being one
real matrix product, and W_j Y_j is formed only at a returned knot.
Open-system propagation (per-atom decay |g><r|, constant control offsets)
takes the same CF4 steps, each between two half steps of exact amplitude
damping (Strang splitting), so every step is a quantum channel.

All frequencies are angular (rad/us); CSV pulse files are in MHz with
header ``t_us,omega_MHz,delta_MHz`` and are converted at the boundary.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .models import AtomGeometry, NoiseModel, basis_bits, mhz, rydberg_terms, to_mhz
from .pauli import reflect_masks

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

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ConstraintProfile":
        return cls(**json.loads(text))


@dataclass(frozen=True)
class ControlPulse:
    """Piecewise-linear (time, Rabi, detuning) knots, angular units."""

    times: np.ndarray
    omegas: np.ndarray
    deltas: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, np.asarray(getattr(self, f.name), dtype=float))
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
        both endpoints.  With a profile, amplitude bounds, slew rates on
        knot differences and minimum knot spacing are enforced exactly
        (no tolerance slack).
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

    # -- CSV interchange (MHz) ----------------------------------------

    def to_csv(self) -> str:
        rows = (f"{float(t)!r},{float(to_mhz(om))!r},{float(to_mhz(de))!r}\n"
                for t, om, de in zip(self.times, self.omegas, self.deltas))
        return "t_us,omega_MHz,delta_MHz\n" + "".join(rows)

    @classmethod
    def from_csv(cls, text: str) -> "ControlPulse":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].replace(" ", "") != "t_us,omega_MHz,delta_MHz":
            raise PulseError("pulse CSV must start with header t_us,omega_MHz,delta_MHz")
        rows = []
        for ln in lines[1:]:
            try:
                t, om, de = map(float, ln.split(","))
            except ValueError:
                raise PulseError(f"pulse CSV row {ln!r} is not three numbers") from None
            rows.append((t, mhz(om), mhz(de)))
        return cls(*np.array(rows).reshape(-1, 3).T.copy())

    @classmethod
    def constant(cls, duration: float, omega: float, delta: float,
                 n_knots: int = 2) -> "ControlPulse":
        """Flat pulse, mainly for tests; violates the zero-endpoint rule."""
        t = np.linspace(0.0, duration, n_knots)
        return cls(t, np.full(n_knots, float(omega)), np.full(n_knots, float(delta)))


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


def _parity_blocks(geom: AtomGeometry) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """The Rydberg terms and the identity in reflection-parity blocks.

    If the interaction v is reflection symmetric (see ``_MIRROR_ULPS``),
    the blocks are the parity sectors of the bit reversal r: the even one
    spans |k> for k = r(k) and (|k> + |r(k)>)/sqrt(2) for k < r(k), the odd
    one (|k> - |r(k)>)/sqrt(2), each in the order of k.  Otherwise, or when
    the odd block is empty, one block holds the identity map.  Returns the
    block sizes, the blocks of (sum X, sum n, V, 1) zero-padded to the first
    size and stacked, and the gather back: full entry (m, n) is
    sum_b coef[b, m, n] * blocks.flat[idx[b, m, n]].
    """
    terms = rydberg_terms(geom)
    v = np.diag(terms[2])
    k = np.arange(v.size)
    r = reflect_masks(k.astype(np.uint64), geom.n_atoms).astype(np.intp)
    if np.abs(v - v[r]).max() > _MIRROR_ULPS * np.finfo(float).eps * np.abs(v).max():
        r = k
    even, odd, half = k <= r, k < r, np.sqrt(0.5)
    sizes = [int(n) for n in (even.sum(), odd.sum()) if n]
    nb, dim = len(sizes), sizes[0]
    # block position of each state's orbit {k, r(k)}; palindromes get weight 0 in the odd block
    pos = np.stack([np.cumsum(even) - 1, np.maximum(np.cumsum(odd) - 1, 0)])[:nb, np.minimum(k, r)]
    coef = np.stack([np.where(r == k, 1.0, half), np.sign(r - k) * half])[:nb]
    coef = coef[:, :, None] * coef[:, None, :]
    idx = (dim * np.arange(nb)[:, None, None] + pos[:, :, None]) * dim + pos[:, None, :]
    # P_b^T A P_b as a scatter onto the stacked blocks, the pads staying zero
    blocks = [np.bincount(idx.ravel(), (coef * a).ravel(), nb * dim * dim)
              for a in (*terms, np.eye(v.size))]
    return sizes, np.reshape(blocks, (4, nb, dim, dim)), idx, coef


def _step_grid(pulse: ControlPulse, step: float,
               substeps: int | None) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, list]:
    """(omega, delta) at each CF4 step's nodes, step lengths, steps done by each knot.

    A knot interval takes ``substeps`` equal steps, or the fewest no longer
    than ``step``, the ratio rounded before its ceil against knot roundoff.
    Node c of step s of n sits at fraction (s + c)/n of its interval, read
    off that interval's knots (absolute times biased CF4 by 2e-12 in 45 us).
    """
    gaps = np.diff(pulse.times)
    steps = (np.maximum(1, np.ceil(np.round(gaps / step, 9))).astype(int)
             if substeps is None else np.full(gaps.size, substeps))
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

    Returns the ``_step_grid`` step lengths and knot ends, the identity
    blocks and gather (idx, coef) of ``_parity_blocks``, and batches (lo, W,
    phases) from one ``eigh`` per block: exponential lo + 2s + c is
    W diag(phases) W^T, phases e^{-i lambda h/2} as columns, node c of step s.
    """
    (om, de), h, knot_ends = _step_grid(pulse, step, substeps)
    om, de = noise.realized_controls(om, de)
    dts = np.repeat(h, 2) / 2
    sizes, (x_b, n_b, v_b, eye), idx, coef = _parity_blocks(geom)
    batch = 2 * max(1, _BATCH_BYTES // (2 * eye.nbytes))  # stacked real W of whole steps

    def batches():
        for lo in range(0, dts.size, batch):
            sl = slice(lo, lo + batch)
            w = np.zeros((dts[sl].size,) + x_b.shape)
            lam = np.zeros(w.shape[:3])
            for b, d in enumerate(sizes):
                hs = (om[sl, None, None] / 2.0) * x_b[b] - de[sl, None, None] * n_b[b] + v_b[b]
                lam[:, b, :d], w[:, b, :d, :d] = np.linalg.eigh(hs[:, :d, :d])
            yield lo, w, np.exp(-1j * lam * dts[sl, None, None])[..., None]

    return h, knot_ends, eye, idx, coef, batches()


def _unitary_knots(pulse: ControlPulse, geom: AtomGeometry, substeps: int | None, force: bool,
                   profile: ConstraintProfile | None, noise: NoiseModel | None):
    """(time, thunk) at every knot after the first; a thunk returns the full W Y."""
    if not force:
        pulse.validate(profile)
    if substeps is not None and substeps < 1:
        raise PropagationError("substeps must be >= 1")
    _, knot_ends, w_prev, idx, coef, batches = _cf4_exponentials(pulse, geom, DEFAULT_STEP,
                                                                 substeps, noise or NoiseModel())
    y = w_prev.astype(complex).view(np.float64)  # Y_0 = W_0 = 1, on (D, 2D) real views
    knot_times = dict(zip(2 * np.array(knot_ends), pulse.times[1:]))  # by its last exponential
    for lo, w, phases in batches:
        m = w.mT @ np.concatenate([w_prev[None], w[:-1]])  # W_j^T W_{j-1}
        for j, (mj, phase) in enumerate(zip(m, phases), lo + 1):
            y = mj @ y  # Y_j = diag(phase) W_j^T W_{j-1} Y_{j-1}
            yc = y.view(complex)
            yc *= phase
            if j in knot_times:  # sum_b P_b W_b Y_b P_b^T
                yield float(knot_times[j]), lambda wj=w[j - lo - 1], yj=y: (
                    coef * (wj @ yj).view(complex).take(idx)).sum(0)
        w_prev = w[-1]


def unitary_trajectory(pulse: ControlPulse, geom: AtomGeometry,
                       substeps: int | None = None, force: bool = False,
                       profile: ConstraintProfile | None = None,
                       noise: NoiseModel | None = None) -> list[tuple[float, np.ndarray]]:
    """Propagator snapshots at every knot time (CF4 product).

    Each knot interval takes ``substeps`` equal CF4 steps of two
    exponentials each, or by default the fewest steps no longer than
    ``DEFAULT_STEP``.  ``noise`` applies only the coherent control offsets
    here; decay needs ``propagate_lindblad``.

    The propagator is held in the reflection-parity blocks of
    ``_parity_blocks``.  The interaction counts as reflection symmetric
    when max|v - v o r| <= 32 eps max|v| (``_MIRROR_ULPS``); the blocks
    are then built from the reflection-averaged V, moving the propagator
    by at most T max|v - v o r| / 2 (spectral norm, pulse length T);
    beyond it one block of size 2^N runs with the exact V.
    """
    return [(float(pulse.times[0]), np.eye(2 ** geom.n_atoms, dtype=complex)),
            *((t, u()) for t, u in _unitary_knots(pulse, geom, substeps, force, profile, noise))]


def propagate_unitary(pulse: ControlPulse, geom: AtomGeometry,
                      substeps: int | None = None, force: bool = False,
                      profile: ConstraintProfile | None = None,
                      noise: NoiseModel | None = None) -> np.ndarray:
    """Final propagator of the pulse; unitary to roundoff by construction.

    ``substeps`` is the number of CF4 steps (two exponentials each) per
    knot interval; by default it follows ``DEFAULT_STEP``.
    """
    for _, u in _unitary_knots(pulse, geom, substeps, force, profile, noise):
        pass
    return u()


def _amplitude_damping(rho: np.ndarray, n_atoms: int, p: float) -> None:
    """rho <- the decay channel with Kraus operators diag(1, sqrt(1 - p)) and
    sqrt(p)|g><r| on every atom, in place (qubit 1 the most significant bit)."""
    q = np.sqrt(1 - p)
    scale = np.array([[1, q], [q, 1 - p]])[:, None, None, :, None]  # rows/columns g, r of an atom
    for l in range(n_atoms):
        r = rho.reshape(2 ** l, 2, 2 ** (n_atoms - l - 1), 2 ** l, 2, 2 ** (n_atoms - l - 1))
        r[:, 0, :, :, 0] += p * r[:, 1, :, :, 1]
        r *= scale


def propagate_lindblad(pulse: ControlPulse, geom: AtomGeometry,
                       noise: NoiseModel, dt: float = DEFAULT_LINDBLAD_DT,
                       initial_state: np.ndarray | None = None,
                       force: bool = False,
                       profile: ConstraintProfile | None = None) -> list[DensityState]:
    """Density-matrix trajectory recorded at every knot time.

    Solves drho/dt = -i[H(t), rho] + gamma * sum_l D[sigma_l^-] rho, with H
    from the noise-shifted controls, by the Strang splitting
    rho <- D(h/2) U (D(h/2) rho) U^dag per step: U is the CF4 step of
    ``unitary_trajectory`` and D(t) the exact amplitude damping with
    p = 1 - e^{-gamma t} on every atom; inside a knot interval the two half
    steps between steps run as one D(h).  Each knot interval takes the
    fewest equal steps no longer than ``dt``.  Every factor is a completely
    positive, trace-preserving map, so each state is positive semidefinite
    with unit trace to roundoff at any ``dt``.  ``initial_state`` is a
    unit vector or a density matrix.
    """
    if not force:
        pulse.validate(profile)
    if not dt > 0:
        raise PropagationError("dt must be positive")
    h, knot_ends, _, idx, coef, batches = _cf4_exponentials(pulse, geom, dt, None, noise)
    n, dim = geom.n_atoms, idx.shape[1]
    rho0 = np.asarray(np.eye(dim)[0] if initial_state is None else initial_state, complex)
    if rho0.shape == (dim,):
        rho0 = np.outer(rho0, rho0.conj())
    elif rho0.shape != (dim, dim) or np.abs(rho0 - rho0.conj().T).max() > 1e-12:
        raise PropagationError(f"initial_state must be a ({dim},) vector or a Hermitian ({dim}, "
                               f"{dim}) matrix for {geom.n_atoms} atoms, got shape {rho0.shape}")
    if abs(np.trace(rho0) - 1) > 1e-12 or np.linalg.eigvalsh(rho0)[0] < -1e-12:
        raise PropagationError("initial_state must have unit trace and no negative eigenvalue")
    p = -np.expm1(-0.5 * noise.gamma * h)  # decay probability per half step
    rho, states = rho0.copy(), [DensityState(rho0.copy(), float(pulse.times[0]))]
    _amplitude_damping(rho, n, p[0])
    for lo, w, phases in batches:
        e = (w * phases.mT) @ w.mT  # each exponential's blocks
        steps = (e[1::2] @ e[0::2]).reshape(len(e) // 2, -1)  # each step's blocks
        for j, u in enumerate(sum(c * steps[:, i] for c, i in zip(coef, idx)), lo // 2):
            rho = u @ rho @ u.conj().T
            knot = j + 1 == knot_ends[len(states) - 1]
            _amplitude_damping(rho, n, p[j] if knot else p[j] * (2 - p[j]))  # D(h/2)^2 = D(h)
            if knot:
                states.append(DensityState(rho.copy(), float(pulse.times[len(states)])))
                if j + 1 < p.size:  # the next interval's first half step
                    _amplitude_damping(rho, n, p[j + 1])
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
    if initial_state is not None:
        if density or arr.ndim != 2 or np.ndim(initial_state) != 1:
            raise PropagationError("unrecognized state input: initial_state needs a unitary state")
        arr = arr @ np.asarray(initial_state, dtype=complex)
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
