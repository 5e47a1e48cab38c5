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
block, and each exponential is applied in its eigenbasis as one stacked
pair of real matrix products.  Open-system propagation integrates the
master equation (per-atom decay |g><r|, constant control offsets) by
fixed-step RK4 over stacks of non-Hermitian generators on the same step
grid, and raises ``PropagationError`` when the trace drifts at a knot.

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
_BATCH_BYTES = 1 << 20  # stacked block eigenvectors or G per batch; more only adds memory
# max|v - v o r| <= _MIRROR_ULPS * eps * max|v| counts as reflection symmetric;
# AtomGeometry.chain roundoff reaches 9 eps on chains of 2 to 10 atoms
_MIRROR_ULPS = 32
# us; fourth order: from |g..g> on 3 atoms at 6 um with fitted noise, the 1 us
# "mild" probe pulse ends 1.2e-5 from the converged state (1.2e-3 on bench pulses)
DEFAULT_LINDBLAD_DT = 1e-3
TRACE_DRIFT_LIMIT = 1e-6


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
            om_max = mhz(profile.omega_max)
            de_max = mhz(profile.delta_range)
            if np.any(self.omegas < 0) or np.any(self.omegas > om_max):
                problems.append(
                    f"Rabi amplitude outside [0, {profile.omega_max} MHz]")
            if np.any(np.abs(self.deltas) > de_max):
                problems.append(
                    f"detuning outside +-{profile.delta_range} MHz")
            dt = np.diff(self.times)
            if np.any(dt < profile.dt_min * (1 - 1e-12)):
                problems.append(f"knot spacing below {profile.dt_min} us")
            slew_om = np.abs(np.diff(self.omegas)) / dt
            slew_de = np.abs(np.diff(self.deltas)) / dt
            if np.any(slew_om > mhz(profile.slew_omega)):
                problems.append(
                    f"Rabi slew above {profile.slew_omega} MHz/us")
            if np.any(slew_de > mhz(profile.slew_delta)):
                problems.append(
                    f"detuning slew above {profile.slew_delta} MHz/us")
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
        t, om, de = [], [], []
        for ln in lines[1:]:
            try:
                a, b, c = map(float, ln.split(","))
            except ValueError:
                raise PulseError(f"pulse CSV row {ln!r} is not three numbers") from None
            t.append(a)
            om.append(mhz(b))
            de.append(mhz(c))
        return cls(np.array(t), np.array(om), np.array(de))

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


def _step_grid(pulse: ControlPulse, step: float, substeps: int | None,
               nodes: tuple[float, ...]) -> tuple[tuple[np.ndarray, np.ndarray], list, list]:
    """(omega, delta) at each step's nodes, step lengths, steps done by each knot.

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
    frac = ((s[:, None] + np.asarray(nodes)) / steps[k, None]).ravel()
    kn = np.repeat(k, len(nodes))  # knot interval of each node
    om = pulse.omegas[kn] + frac * np.diff(pulse.omegas)[kn]
    de = pulse.deltas[kn] + frac * np.diff(pulse.deltas)[kn]
    return (om, de), (gaps / steps)[k].tolist(), knot_ends.tolist()


def unitary_trajectory(pulse: ControlPulse, geom: AtomGeometry,
                       substeps: int | None = None, force: bool = False,
                       profile: ConstraintProfile | None = None,
                       noise: NoiseModel | None = None) -> list[tuple[float, np.ndarray]]:
    """Propagator snapshots at every knot time (CF4 product).

    Each knot interval takes ``substeps`` equal CF4 steps of two
    exponentials each, or by default the fewest steps no longer than
    ``DEFAULT_STEP``.  ``noise`` applies only the coherent control offsets
    here; decay needs the open-system integrator.

    The propagator is held in the reflection-parity blocks of
    ``_parity_blocks``; each knot snapshot is gathered back into the
    computational basis as it is reached.  The interaction counts as
    reflection symmetric when max|v - v o r| <= 32 eps max|v|
    (``_MIRROR_ULPS``); the blocks are then built from the
    reflection-averaged V, which moves the propagator by at most
    T max|v - v o r| / 2 in the spectral norm over a pulse of length T.
    Beyond that tolerance one block of size 2^N runs with the exact V.
    """
    if not force:
        pulse.validate(profile)
    if substeps is not None and substeps < 1:
        raise PropagationError("substeps must be >= 1")
    # the Gauss-node CF4 step for H affine in t: exp(-i h/2 H(t + 5h/6)) exp(-i h/2 H(t + h/6))
    (om, de), h, knot_ends = _step_grid(pulse, DEFAULT_STEP, substeps, (1 / 6, 5 / 6))
    if noise is not None:
        om, de = noise.realized_controls(om, de)
    dts = np.repeat(h, 2) / 2
    sizes, (x_b, n_b, v_b, u), idx, coef = _parity_blocks(geom)
    batch = max(1, _BATCH_BYTES // u.nbytes)  # stacked real W per exponential
    u = u.astype(complex).view(np.float64)  # (D, 2D) real views of the blocks
    out = [(float(pulse.times[0]), np.eye(idx.shape[1], dtype=complex))]
    for lo in range(0, dts.size, batch):
        sl = slice(lo, lo + batch)
        w = np.zeros((dts[sl].size,) + x_b.shape)
        lam = np.zeros(w.shape[:3])
        for b, d in enumerate(sizes):
            hs = (om[sl, None, None] / 2.0) * x_b[b] - de[sl, None, None] * n_b[b] + v_b[b]
            lam[:, b, :d], w[:, b, :d, :d] = np.linalg.eigh(hs[:, :d, :d])
        phases = np.exp(-1j * lam * dts[sl, None, None])[..., None]
        for j, (wj, wtj, phase) in enumerate(zip(w, w.transpose(0, 1, 3, 2), phases), lo + 1):
            # u <- W (e^{-i lambda dt} * (W^T u)) per block, as real GEMMs
            y = wtj @ u
            yc = y.view(complex)
            yc *= phase
            u = wj @ y
            if j == 2 * knot_ends[len(out) - 1]:  # sum_b P_b U_b P_b^T, gathered as reached
                full = sum(c * u.view(complex).take(i) for c, i in zip(coef, idx))
                out.append((float(pulse.times[len(out)]), full))
    return out


def propagate_unitary(pulse: ControlPulse, geom: AtomGeometry,
                      substeps: int | None = None, force: bool = False,
                      profile: ConstraintProfile | None = None,
                      noise: NoiseModel | None = None) -> np.ndarray:
    """Final propagator of the pulse; unitary to roundoff by construction.

    ``substeps`` is the number of CF4 steps (two exponentials each) per
    knot interval; by default it follows ``DEFAULT_STEP``.
    """
    return unitary_trajectory(pulse, geom, substeps, force, profile, noise)[-1][1]


def _jump_gather(n_atoms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices of J(rho) = sum_l sigma_l^- rho sigma_l^+ for ``reduceat``.

    Entry (i, j) sums rho[i | m, j | m] over the atom bit masks m clear in
    both i and j.  Returns the entries that receive a term, the sources in
    entry order, and where each entry's run of sources starts.
    """
    dim = 2 ** n_atoms
    i, j, m = np.meshgrid(np.arange(dim), np.arange(dim), 1 << np.arange(n_atoms),
                          indexing="ij")
    keep = ((i | j) & m) == 0
    targets, starts = np.unique((i * dim + j)[keep], return_index=True)
    return targets, ((i | m) * dim + (j | m))[keep], starts


def _master_rhs(g: np.ndarray, rho: np.ndarray, gamma: float, jump) -> np.ndarray:
    """drho/dt = G rho + (G rho)^dag + gamma J(rho), for Hermitian rho."""
    a = g @ rho
    a += a.conj().T
    targets, src, starts = jump
    a.reshape(-1)[targets] += gamma * np.add.reduceat(rho.take(src), starts)
    return a


def propagate_lindblad(pulse: ControlPulse, geom: AtomGeometry,
                       noise: NoiseModel, dt: float = DEFAULT_LINDBLAD_DT,
                       initial_state: np.ndarray | None = None,
                       force: bool = False,
                       profile: ConstraintProfile | None = None) -> list[DensityState]:
    """Density-matrix trajectory recorded at every knot time.

    Integrates drho/dt = -i[H(t), rho] + gamma * sum_l D[sigma_l^-] rho by
    fixed-step RK4, each stage G rho + (G rho)^dag + gamma sum_l sigma_l^- rho
    sigma_l^+ with G = -i(H - (i gamma/2) n_total) from the noise-shifted
    controls, stacked over consecutive steps' stage times.  ``initial_state``
    is a vector or a Hermitian matrix.  A trace off 1 by more than 1e-6 (or
    NaN) at a knot raises, naming the knot time and suggesting dt/2.
    """
    if not force:
        pulse.validate(profile)
    if not dt > 0:
        raise PropagationError("dt must be positive")
    x_tot, n_tot, v = rydberg_terms(geom)
    dim = len(x_tot)
    rho0 = np.asarray(np.eye(dim)[0] if initial_state is None else initial_state, complex)
    if rho0.shape == (dim,):
        rho0 = np.outer(rho0, rho0.conj())
    elif rho0.shape != (dim, dim) or np.abs(rho0 - rho0.conj().T).max() > 1e-12:
        raise PropagationError(f"initial_state must be a ({dim},) vector or a Hermitian ({dim}, "
                               f"{dim}) matrix for {geom.n_atoms} atoms, got shape {rho0.shape}")
    gamma, jump, n_diag = noise.gamma, _jump_gather(geom.n_atoms), np.diag(n_tot)
    g_diag = -1j * np.diag(v) - 0.5 * gamma * n_diag  # the control-free part of G
    # stage times: every step's start and midpoint, then the pulse's end
    (om, de), h, knot_ends = _step_grid(pulse, dt, None, (0.0, 0.5))
    om, de = noise.realized_controls(np.append(om, pulse.omegas[-1]),
                                     np.append(de, pulse.deltas[-1]))
    # steps per G stack of at most _BATCH_BYTES / 8; full-budget stacks cost 3% peak RSS
    chunk = max(1, (_BATCH_BYTES // (128 * dim * dim) - 1) // 2)
    rho, states = rho0, [DensityState(rho0.copy(), float(pulse.times[0]))]
    for lo in range(0, len(h), chunk):
        sl = slice(2 * lo, 2 * min(len(h), lo + chunk) + 1)
        g = (-0.5j * om[sl])[:, None, None] * x_tot  # G at every stage time
        g.reshape(len(g), -1)[:, ::dim + 1] += 1j * de[sl, None] * n_diag + g_diag
        for j, (s, hj) in enumerate(zip(range(0, len(g) - 1, 2), h[lo:lo + chunk]), lo + 1):
            k1 = _master_rhs(g[s], rho, gamma, jump)
            k2 = _master_rhs(g[s + 1], rho + hj / 2 * k1, gamma, jump)
            k3 = _master_rhs(g[s + 1], rho + hj / 2 * k2, gamma, jump)
            k4 = _master_rhs(g[s + 2], rho + hj * k3, gamma, jump)
            rho = rho + hj / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            if j == knot_ends[len(states) - 1]:
                t = float(pulse.times[len(states)])
                if not abs(np.trace(rho).real - 1.0) <= TRACE_DRIFT_LIMIT:
                    raise PropagationError(f"trace drift beyond {TRACE_DRIFT_LIMIT} at the knot "
                                           f"t={t} us; suggested dt <= {dt / 2}")
                states.append(DensityState(rho, t))  # rho is never written in place
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
    unitary together with ``initial_state`` (which is then propagated).
    """
    if isinstance(state, DensityState):
        mat = state.rho
        probs = np.real(np.diag(mat))
    else:
        arr = np.asarray(state, dtype=complex)
        if arr.ndim == 2 and initial_state is not None:
            psi = arr @ np.asarray(initial_state, dtype=complex)
            probs = np.abs(psi) ** 2
        elif arr.ndim == 1:
            probs = np.abs(arr) ** 2
        elif arr.ndim == 2:
            probs = np.real(np.diag(arr))
        else:
            raise PropagationError("unrecognized state input")
    dim = len(probs)
    n_sites = int(round(np.log2(dim)))
    if 2 ** n_sites != dim:
        raise PropagationError("state dimension is not a power of two")
    zdiag = np.ascontiguousarray(1.0 - 2.0 * basis_bits(n_sites).T)  # row s: Z_{s+1}
    expect_z = zdiag @ probs
    zz = (zdiag * probs) @ zdiag.T
    expect_n = (1.0 - expect_z) / 2.0
    return ObservableRecord(n_sites, expect_n, expect_z, zz)
