import numpy as np
import pytest
import scipy.linalg

from liectrl import propagation
from liectrl.models import AtomGeometry, NoiseModel, mhz, rydberg_terms, zxz_hamiltonian
from liectrl.propagation import (
    ConstraintProfile,
    ControlPulse,
    DensityState,
    PropagationError,
    PulseError,
    observables,
    propagate_lindblad,
    propagate_unitary,
    unitary_trajectory,
)
from oracles import (
    stepwise_lindblad_trajectory,
    stepwise_strang_trajectory,
    stepwise_unitary_trajectory,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def lone_atom():
    return AtomGeometry.chain(1, 5.0)


def quiet_noise():
    return NoiseModel()


class TestConstraintProfile:
    def test_defaults_match_hardware_table(self):
        p = ConstraintProfile()
        assert (p.omega_max, p.delta_range) == (2.41, 19.9)
        assert (p.slew_omega, p.slew_delta) == (39.7, 397.0)
        assert p.dt_min == 0.05

    def test_json_roundtrip(self):
        p = ConstraintProfile(omega_max=3.0)
        assert ConstraintProfile.from_json(p.to_json()) == p


class TestControlPulse:
    def test_rejects_bad_shapes(self):
        with pytest.raises(PulseError):
            ControlPulse(np.array([0.0]), np.array([0.0]), np.array([0.0]))
        with pytest.raises(PulseError):
            ControlPulse(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("times, omegas, deltas", [
        ([0.0, 0.5, 1.0], [0.0, np.nan, 0.0], [0.0, 1.0, 0.0]),
        ([0.0, np.nan, 1.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]),
        ([0.0, 0.5, np.inf], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]),
        ([0.0, 0.5, 1.0], [0.0, 1.0, 0.0], [0.0, -np.inf, 0.0]),
    ], ids=["nan-rabi", "nan-time", "inf-time", "inf-detuning"])
    def test_rejects_non_finite_knots(self, times, omegas, deltas):
        # a NaN control used to pass validate() and then break eigh or
        # return NaN density matrices; a NaN time slipped past the order check
        with pytest.raises(PulseError, match="finite"):
            ControlPulse(np.array(times), np.array(omegas), np.array(deltas))

    def test_validate_endpoints(self):
        p = ControlPulse(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.zeros(2))
        with pytest.raises(PulseError, match="endpoints"):
            p.validate()

    def test_validate_profile_bounds(self):
        prof = ConstraintProfile()
        t = np.array([0.0, 0.05, 0.1])
        ok = ControlPulse(t, np.array([0.0, mhz(1.0), 0.0]), np.zeros(3))
        ok.validate(prof)
        hot = ControlPulse(t, np.array([0.0, mhz(5.0), 0.0]), np.zeros(3))
        with pytest.raises(PulseError, match="Rabi"):
            hot.validate(prof)
        fast = ControlPulse(t, np.array([0.0, mhz(1.0), 0.0]),
                            np.array([0.0, mhz(19.9), 0.0]))
        with pytest.raises(PulseError, match="slew"):
            fast.validate(prof)
        tight = ControlPulse(np.array([0.0, 0.01, 0.06]),
                             np.array([0.0, mhz(0.3), 0.0]), np.zeros(3))
        with pytest.raises(PulseError, match="spacing"):
            tight.validate(prof)

    def test_sample_interpolates(self):
        p = ControlPulse(np.array([0.0, 1.0]), np.array([0.0, 2.0]),
                         np.array([1.0, -1.0]))
        om, de = p.sample(0.25)
        assert om == pytest.approx(0.5)
        assert de == pytest.approx(0.5)

    def test_sample_array_matches_interp(self):
        rng = np.random.default_rng(3)
        t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.3, 8))])
        p = ControlPulse(t, rng.uniform(0, 10, 9), rng.uniform(-50, 50, 9))
        times = np.concatenate([t, rng.uniform(-0.1, t[-1] + 0.1, 50)])
        om, de = p.sample(times)
        np.testing.assert_array_equal(om, np.interp(times, p.times, p.omegas))
        np.testing.assert_array_equal(de, np.interp(times, p.times, p.deltas))
        assert type(p.sample(0.3)[0]) is float and type(p.sample(0.3)[1]) is float

    def test_csv_roundtrip(self):
        t = np.array([0.0, 0.05, 0.1])
        p = ControlPulse(t, np.array([0.0, mhz(1.23456789), 0.0]),
                         np.array([mhz(-3.1), 0.0, mhz(2.0)]))
        q = ControlPulse.from_csv(p.to_csv())
        np.testing.assert_allclose(q.times, p.times, rtol=0, atol=0)
        np.testing.assert_allclose(q.omegas, p.omegas, rtol=1e-15)
        np.testing.assert_allclose(q.deltas, p.deltas, rtol=1e-15)
        assert p.to_csv().splitlines()[0] == "t_us,omega_MHz,delta_MHz"

    def test_csv_rejects_bad_header(self):
        with pytest.raises(PulseError):
            ControlPulse.from_csv("time,om,de\n0,0,0\n1,0,0\n")

    @pytest.mark.parametrize("row", ["0.1,0", "0.1,0,0,0", "0.1,x,0", "0.1,,0"])
    def test_csv_rejects_bad_row(self, row):
        text = f"t_us,omega_MHz,delta_MHz\n0,0,0\n{row}\n0.2,0,0\n"
        with pytest.raises(PulseError, match=repr(row)):
            ControlPulse.from_csv(text)

    def test_csv_write_is_deterministic(self):
        t = np.array([0.0, 0.05, 0.1])
        p = ControlPulse(t, np.array([0.0, mhz(0.7), 0.0]), np.zeros(3))
        assert p.to_csv() == p.to_csv()


class TestUnitary:
    def test_zero_pulse_identity(self):
        p = ControlPulse(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2))
        u = propagate_unitary(p, lone_atom())
        np.testing.assert_allclose(u, np.eye(2), atol=1e-12)

    def test_constant_rabi_closed_form(self):
        omega = mhz(1.0)
        p = ControlPulse.constant(0.5, omega, 0.0)
        u = propagate_unitary(p, lone_atom(), force=True)
        want = scipy.linalg.expm(-1j * (omega / 2) * 0.5 * X)
        np.testing.assert_allclose(u, want, atol=1e-10)

    def test_unitarity(self):
        rng = np.random.default_rng(0)
        t = np.arange(0, 21) * 0.05
        om = np.concatenate([[0.0], mhz(rng.uniform(0, 2.0, 19)), [0.0]])
        de = mhz(rng.uniform(-5, 5, 21))
        p = ControlPulse(t, om, de)
        u = propagate_unitary(p, AtomGeometry.chain(3, 8.9), force=True)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-9)

    def test_fourth_order_self_convergence(self):
        rng = np.random.default_rng(1)
        t = np.arange(0, 11) * 0.05
        om = np.concatenate([[0.0], mhz(rng.uniform(0.2, 2.0, 9)), [0.0]])
        de = mhz(rng.uniform(-3, 3, 11))
        p = ControlPulse(t, om, de)
        geom = AtomGeometry.chain(2, 8.9)
        ref = propagate_unitary(p, geom, substeps=80, force=True)
        err = []
        for s in (1, 2, 4, 8):
            u = propagate_unitary(p, geom, substeps=s, force=True)
            err.append(np.linalg.norm(u - ref))
        # each halving of the step divides the error by 16
        for coarse, fine in zip(err, err[1:]):
            assert coarse / fine == pytest.approx(16.0, abs=1.0)

    @pytest.mark.parametrize("n_atoms, n_knots", [(3, 31), (6, 31), (8, 11)])
    def test_unitary_to_roundoff_bench_shaped(self, n_atoms, n_knots):
        # the docstring's "unitary to roundoff" on pulses shaped like the
        # bench's: 0.1 us knots, amplitudes up to 0.9 of the hardware profile
        # (measured: 1.6e-14 to 2.9e-14)
        rng, prof = np.random.default_rng(n_atoms), ConstraintProfile()
        om = mhz(rng.uniform(0.0, 0.9 * prof.omega_max, n_knots))
        om[[0, -1]] = 0.0
        de = mhz(rng.uniform(-0.9 * prof.delta_range, 0.9 * prof.delta_range, n_knots))
        p = ControlPulse(np.arange(n_knots) * 0.1, om, de)
        u = propagate_unitary(p, AtomGeometry.chain(n_atoms, rng.uniform(6.0, 10.0)), profile=prof)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2 ** n_atoms))) <= 1e-12

    @pytest.mark.parametrize("geom", [AtomGeometry.chain(3, 6.5),
                                      AtomGeometry(((0.0, 0.0), (6.5, 0.0), (13.5, 0.0),
                                                    (19.0, 0.0)))],
                             ids=["3-chain", "asymmetric-4"])
    def test_final_propagator_is_trajectory_end(self, geom):
        # both entry points run one loop: the same bits at the last knot
        p = uneven_pulse(geom.n_atoms, 1.0)
        np.testing.assert_array_equal(propagate_unitary(p, geom),
                                      unitary_trajectory(p, geom)[-1][1])

    def test_zero_substeps_rejected(self):
        p = ControlPulse.constant(0.5, mhz(1.0), 0.0)
        with pytest.raises(PropagationError, match="substeps must be >= 1"):
            propagate_unitary(p, lone_atom(), substeps=0, force=True)

    def test_refuses_unvalidated_without_force(self):
        p = ControlPulse.constant(0.5, mhz(1.0), 0.0)
        with pytest.raises(PulseError):
            propagate_unitary(p, lone_atom())

    def test_trajectory_records_knots(self):
        t = np.array([0.0, 0.1, 0.25, 0.4])
        p = ControlPulse(t, np.array([0.0, mhz(1.0), mhz(1.0), 0.0]),
                         np.zeros(4))
        traj = unitary_trajectory(p, lone_atom())
        assert [pt for pt, _ in traj] == pytest.approx(t.tolist())
        np.testing.assert_allclose(traj[0][1], np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("spacing", [0.1, 3 * propagation.DEFAULT_STEP],
                             ids=["bench-grid", "three-steps"])
    def test_knot_roundoff_adds_no_step(self, spacing):
        # 0.1 us is the bench's knot grid; at 3 DEFAULT_STEP every gap is
        # three steps up to roundoff, which a bare ceil(gap / step) turns
        # into four on some intervals
        p = halving_pulse()
        p = ControlPulse(np.arange(31) * spacing, p.omegas, p.deltas)
        geom = AtomGeometry.chain(3, 6.857)
        got = unitary_trajectory(p, geom, force=True)
        want = unitary_trajectory(p, geom, substeps=3, force=True)
        for (_, u), (_, w) in zip(got, want):
            assert np.max(np.abs(u - w)) <= 1e-15


def uneven_pulse(seed, duration):
    """Valid pulse with knot gaps of 0.05-0.4 us, so intervals differ in steps."""
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.05, 0.4, int(duration / 0.2) + 1)
    t = np.concatenate([[0.0], np.cumsum(gaps * duration / gaps.sum())])
    om = np.concatenate([[0.0], mhz(rng.uniform(0.2, 2.4, len(t) - 2)), [0.0]])
    return ControlPulse(t, om, mhz(rng.uniform(-19, 19, len(t))))


def sweep_probe_pulse():
    """The 2 us "sweep" probe pulse: bench-shaped, 0.1 us knots and
    amplitudes across the hardware profile (MHz knots)."""
    omega = [0.0, 1.51, 1.463, 2.167, 1.487, 1.461, 1.374, 1.982, 1.512,
             0.429, 0.766, 1.661, 1.96, 0.51, 0.867, 1.73, 0.847, 1.795,
             0.925, 1.209, 0.0]
    delta = [-3.457, 6.109, -10.562, -5.911, -12.082, -1.532, 3.727, 13.983,
             8.964, -7.782, 14.74, -9.921, -5.973, -0.215, -6.799, -6.61,
             12.875, -13.241, 8.392, -1.064, -12.211]
    return ControlPulse(np.round(np.arange(21) * 0.1, 10),
                        mhz(np.array(omega)), mhz(np.array(delta)))


def mild_probe_pulse():
    """The 1 us "mild" probe pulse of the accuracy contracts (MHz knots)."""
    omega = [0.0, 0.956, 0.765, 1.143, 1.811, 0.209, 1.722, 0.674, 1.309,
             1.62, 1.107, 0.484, 1.338, 1.297, 0.963, 1.541, 0.29, 1.59,
             1.57, 0.501, 0.0]
    delta = [2.03, -2.783, -0.826, 2.048, -0.664, 4.317, 3.109, -4.78,
             3.668, -2.55, 4.669, -3.823, -2.201, 3.667, 0.37, 3.883,
             -2.048, -0.06, 2.666, 0.383, -1.38]
    return ControlPulse(np.round(np.arange(21) * 0.05, 10),
                        mhz(np.array(omega)), mhz(np.array(delta)))


class TestBatchedUnitary:
    """The batched propagator against the one-step-at-a-time CF4 oracle."""

    @pytest.mark.parametrize("atoms, noise, substeps, duration", [
        (1, None, None, 1.0),
        (3, None, None, 1.0),
        (3, NoiseModel.fitted(), None, 1.5),
        (3, None, None, 80.0),  # over 5000 exponentials: several batches
        (6, NoiseModel.fitted(), 7, 0.8),
        (6, None, None, 1.2),
        (2, None, None, 1.0),  # parity blocks of 3 and 1
        (6, None, None, 2.0),  # 130 exponentials: 22 batches
        (8, None, None, 0.3),  # parity blocks of 136 and 120
        pytest.param((0.0, 6.5, 13.5, 19.0), None, None, 1.0, id="uneven-4-chain"),
    ])
    def test_matches_stepwise_oracle(self, atoms, noise, substeps, duration):
        # atoms: the size of a 6.5 um chain, or the x positions of an uneven one
        geom = (AtomGeometry.chain(atoms, 6.5) if isinstance(atoms, int)
                else AtomGeometry(tuple((x, 0.0) for x in atoms)))
        pulse = uneven_pulse(geom.n_atoms, duration)
        got = unitary_trajectory(pulse, geom, substeps=substeps, noise=noise)
        want = stepwise_unitary_trajectory(pulse, geom, substeps=substeps, noise=noise)
        assert [t for t, _ in got] == [t for t, _ in want] == pulse.times.tolist()
        for (_, u), (_, w) in zip(got, want):
            assert np.max(np.abs(u - w)) <= 1e-12

    def test_oracle_cases_span_several_batches(self):
        # a batch stacks whole CF4 steps of two exponentials, each the real
        # eigenvectors of both parity blocks padded to the even size
        # d+ = (2^N + 2^ceil(N/2)) / 2
        for n_atoms, duration in ((3, 80.0), (6, 2.0)):
            d_even = (2 ** n_atoms + 2 ** -(-n_atoms // 2)) // 2
            batch = 2 * (propagation._BATCH_BYTES // (2 * 8 * 2 * d_even ** 2))
            steps = np.ceil(np.round(np.diff(uneven_pulse(n_atoms, duration).times)
                                     / propagation.DEFAULT_STEP, 9))
            assert 2 * steps.sum() > 2 * batch  # exponentials, over two batches
            assert len(set(steps.tolist())) > 1

    def test_default_step_error_contract(self):
        # the 1 us "mild" probe pulse; DEFAULT_STEP quotes its 2.1e-3 state
        # error on 3 atoms at 6 um, a fourth-order CF4 defect
        p = mild_probe_pulse()
        geom = AtomGeometry.chain(3, 6.0)
        measured = 2.1e-3
        ref = propagate_unitary(p, geom, substeps=160)[:, 0]
        err = np.linalg.norm(propagate_unitary(p, geom)[:, 0] - ref)
        assert measured / 2 < err < 2 * measured
        # in the asymptotic range (the default's 2 steps per interval is not)
        # halving the step divides the error by 16
        e8, e16 = (np.linalg.norm(propagate_unitary(p, geom, substeps=s)[:, 0] - ref)
                   for s in (8, 16))
        assert e8 / e16 == pytest.approx(16.0, abs=2.0)

    def test_default_step_error_contract_bench_shaped(self):
        # the 2 us "sweep" probe pulse; DEFAULT_STEP quotes its 1.07e-2
        # state error on 3 atoms at 6 um (3 CF4 steps per 0.1 us interval)
        p = sweep_probe_pulse()
        geom = AtomGeometry.chain(3, 6.0)
        measured = 1.07e-2
        ref = propagate_unitary(p, geom, substeps=60)[:, 0]
        err = np.linalg.norm(propagate_unitary(p, geom)[:, 0] - ref)
        assert measured / 2 < err < 2 * measured


def mirror_defect(geom):
    """max|v - v o r| of the interaction diagonal, r the bit reversal."""
    n = geom.n_atoms
    v = np.diag(rydberg_terms(geom)[2])
    r = [int(format(k, f"0{n}b")[::-1], 2) for k in range(2 ** n)]
    return np.max(np.abs(v - v[r]))


@pytest.fixture
def eigh_sizes(monkeypatch):
    """The matrix sizes handed to np.linalg.eigh while the test runs."""
    sizes, eigh = set(), np.linalg.eigh

    def recording(a):
        sizes.add(a.shape[-1])
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return sizes


def moved_chain(n_atoms, shift):
    """A 6.5 um chain whose last atom sits ``shift`` um further out."""
    return AtomGeometry(tuple((6.5 * i + shift * (i == n_atoms - 1), 0.0)
                              for i in range(n_atoms)))


class TestParityBlocks:
    """Unitary runs on chains use the even/odd blocks of the reflection."""

    SHORT = ControlPulse(np.array([0.0, 0.05]), np.zeros(2), np.array([1.0, -2.0]))

    @pytest.mark.parametrize("n_atoms", range(1, 9))
    def test_chain_block_sizes(self, n_atoms, eigh_sizes):
        unitary_trajectory(self.SHORT, AtomGeometry.chain(n_atoms, 6.5))
        half = 2 ** -(-n_atoms // 2)
        # the odd block is empty for one atom and then dropped
        assert eigh_sizes == {(2 ** n_atoms + half) // 2, (2 ** n_atoms - half) // 2} - {0}
        assert max(eigh_sizes) <= 136

    def test_asymmetric_geometry_is_one_block(self, eigh_sizes):
        geom = AtomGeometry(((0.0, 0.0), (6.5, 0.0), (13.5, 0.0), (19.0, 0.0)))
        unitary_trajectory(self.SHORT, geom)
        assert eigh_sizes == {16}

    def test_chain_roundoff_counts_as_symmetric(self, eigh_sizes):
        # the chain's own interaction sums are not bit-symmetric
        geom = AtomGeometry.chain(8, 6.0)
        assert mirror_defect(geom) > 0
        unitary_trajectory(self.SHORT, geom)
        assert eigh_sizes == {136, 120}

    def test_moved_atom_takes_one_block(self, eigh_sizes):
        pulse, geom = uneven_pulse(6, 1.0), moved_chain(6, 1e-9)
        got = unitary_trajectory(pulse, geom)
        assert eigh_sizes == {64}
        for (_, u), (_, w) in zip(got, stepwise_unitary_trajectory(pulse, geom)):
            assert np.max(np.abs(u - w)) <= 1e-12

    def test_averaged_interaction_deviation_bound(self, monkeypatch, eigh_sizes):
        # with the tolerance opened up, a visibly asymmetric chain runs on
        # the blocks of the reflection-averaged V; the docstring bounds the
        # change of the propagator by T max|v - v o r| / 2
        monkeypatch.setattr(propagation, "_MIRROR_ULPS", 1e16)
        pulse, geom = uneven_pulse(4, 1.0), moved_chain(4, 1e-3)
        got = unitary_trajectory(pulse, geom)
        assert eigh_sizes == {10, 6}
        bound = pulse.times[-1] * mirror_defect(geom) / 2
        dev = max(np.linalg.norm(u - w, 2) for (_, u), (_, w)
                  in zip(got, stepwise_unitary_trajectory(pulse, geom)))
        assert bound / 2 < dev <= bound  # measured: 0.86 of the bound


def halving_pulse():
    """A 3 us, 31-knot pulse of the bench's Lindblad workload (seed 1, on
    3 atoms 6.857 um apart), knots rounded to 1 kHz.  With fitted noise,
    RK4 lost positivity on it: minimum eigenvalue -0.80 at dt=8e-3, -0.015
    at dt=1e-2 halved to 5e-3."""
    omega = [0.0, 1.435, 1.872, 0.343, 0.9, 1.166, 2.118, 2.12, 2.11, 2.067,
             0.161, 0.659, 1.354, 2.027, 1.76, 0.562, 0.745, 0.075, 0.757,
             1.831, 0.116, 1.024, 1.484, 2.126, 0.097, 0.693, 0.602, 1.413,
             1.428, 1.172, 0.0]
    delta = [6.202, -6.418, 11.144, 15.331, -9.063, 2.122, 4.684, -3.454,
             11.519, 12.688, 15.534, 12.986, -10.487, -17.844, -12.498,
             11.185, -7.856, -0.985, 1.145, 4.538, -15.323, -0.47, -15.71,
             17.734, -3.431, 11.264, 8.148, -13.296, -17.368, -5.847, -11.042]
    return ControlPulse(np.arange(31) * 0.1, mhz(np.array(omega)), mhz(np.array(delta)))


def random_state(dim, seed, mixed):
    """A random pure state vector, or a random full-rank density matrix."""
    rng = np.random.default_rng(seed)
    if not mixed:
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return psi / np.linalg.norm(psi)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho = (rho + rho.conj().T) / 2  # Hermitian to the last bit
    return rho / np.trace(rho).real


def assert_channel_output(states):
    """Every knot state positive semidefinite with unit trace, to roundoff."""
    for s in states:
        assert s.min_eigenvalue() >= -1e-12
        assert abs(s.trace() - 1.0) <= 1e-11


class TestBatchedLindblad:
    """The Strang-split propagator against the one-step-at-a-time oracle."""

    CASES = {  # id: (pulse, atoms, spacing, noise, initial state, dt)
        "1 atom quiet": (lambda: uneven_pulse(1, 1.0), 1, 6.5, NoiseModel(), None, None),
        "2 atoms fitted mixed": (lambda: uneven_pulse(2, 1.0), 2, 6.5,
                                 NoiseModel.fitted(), "mixed", None),
        "3 atoms quiet pure": (lambda: uneven_pulse(3, 1.2), 3, 6.5, NoiseModel(), "pure", None),
        "3 atoms fitted mixed": (lambda: uneven_pulse(5, 1.5), 3, 7.5,
                                 NoiseModel.fitted(), "mixed", None),
        "4 atoms fitted pure": (lambda: uneven_pulse(4, 0.6), 4, 6.5,
                                NoiseModel.fitted(), "pure", None),
        "3 atoms halving": (halving_pulse, 3, 6.857, NoiseModel.fitted(), None, 5e-3),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_stepwise_oracle(self, case):
        make_pulse, n_atoms, spacing, noise, state, dt = self.CASES[case]
        pulse, geom = make_pulse(), AtomGeometry.chain(n_atoms, spacing)
        init = None if state is None else random_state(2 ** n_atoms, n_atoms, state == "mixed")
        kwargs = {} if dt is None else {"dt": dt}
        got = propagate_lindblad(pulse, geom, noise, initial_state=init, **kwargs)
        want = stepwise_strang_trajectory(pulse, geom, noise, dt=dt, initial_state=init)
        assert [s.time for s in got] == [t for t, _ in want] == pulse.times.tolist()
        for s, (_, rho) in zip(got, want):
            assert np.max(np.abs(s.rho - rho)) <= 1e-12

    def test_oracle_cases_span_several_chunks(self):
        # a batch stacks the real block eigenvectors of whole steps (two
        # exponentials each), both parity blocks padded to the even size
        # d+ = (2^N + 2^ceil(N/2)) / 2, so at most this many steps
        for case in ("3 atoms quiet pure", "3 atoms fitted mixed", "4 atoms fitted pure"):
            make_pulse, n_atoms = self.CASES[case][:2]
            d_even = (2 ** n_atoms + 2 ** -(-n_atoms // 2)) // 2
            per_batch = propagation._BATCH_BYTES // (2 * 8 * 2 * d_even ** 2)
            steps = np.ceil(np.round(np.diff(make_pulse().times)
                                     / propagation.DEFAULT_LINDBLAD_DT, 9))
            assert steps.sum() > per_batch
            assert len(set(steps.tolist())) > 1

    def test_halving_case_stays_positive(self):
        # the steps at which RK4 lost positivity or drifted in trace
        make_pulse, n_atoms, spacing, noise = self.CASES["3 atoms halving"][:4]
        geom = AtomGeometry.chain(n_atoms, spacing)
        for dt in (8e-3, 1e-2, 5e-3):
            states = propagate_lindblad(make_pulse(), geom, noise, dt=dt)
            assert len(states) == 31
            assert_channel_output(states)

    def test_knot_roundoff_adds_no_step(self, monkeypatch):
        # 30 intervals of 0.1 us at dt=1e-3 are 3000 steps; the damping maps
        # between two steps of an interval merge into one, so each interval
        # of n steps takes n + 1 maps; a bare ceil(gap / dt) turns 16 of the
        # intervals into 101 steps (3046 maps)
        calls, damp = [], propagation._amplitude_damping
        monkeypatch.setattr(propagation, "_amplitude_damping",
                            lambda *a: calls.append(1) or damp(*a))
        propagate_lindblad(halving_pulse(), lone_atom(), NoiseModel.fitted(), dt=1e-3)
        assert len(calls) == 3000 + 30

    def test_coarse_long_pulse_stays_positive(self):
        # RK4 at dt=0.05 overflowed to NaN on this 30 us pulse on 3 atoms at
        # 6 um; a composition of channels stays a state at any step
        pulse = ControlPulse(np.array([0.0, 30.0, 30.1]), mhz(np.full(3, 2.0)),
                             mhz(np.full(3, 19.9)))
        geom = AtomGeometry.chain(3, 6.0)
        states = propagate_lindblad(pulse, geom, NoiseModel.fitted(), dt=0.05, force=True)
        assert [s.time for s in states] == [0.0, 30.0, 30.1]
        assert_channel_output(states)

    def test_default_lindblad_dt_error_contract(self):
        # DEFAULT_LINDBLAD_DT quotes the mild probe pulse's 7.8e-6 state
        # error on 3 atoms at 6 um with fitted noise, mostly the CF4 defect
        p, geom, noise = mild_probe_pulse(), AtomGeometry.chain(3, 6.0), NoiseModel.fitted()
        measured = 7.83e-6
        # RK4 on the master equation itself, 7.6e-7 from the converged state
        ref = stepwise_lindblad_trajectory(p, geom, noise, dt=5e-4)[-1][1]
        err = np.linalg.norm(propagate_lindblad(p, geom, noise)[-1].rho - ref)
        assert measured / 2 < err < 2 * measured
        fine = propagate_lindblad(p, geom, noise, dt=propagation.DEFAULT_LINDBLAD_DT / 16)
        assert np.linalg.norm(fine[-1].rho - ref) < 1e-6
        # against the converged splitting, halving the step divides the
        # error by 16, the order of CF4 (measured: 15.0)
        e1, e2 = (np.linalg.norm(propagate_lindblad(p, geom, noise, dt=dt)[-1].rho
                                 - fine[-1].rho)
                  for dt in (propagation.DEFAULT_LINDBLAD_DT, propagation.DEFAULT_LINDBLAD_DT / 2))
        assert measured / 2 < e1 < 2 * measured
        assert e1 / e2 == pytest.approx(16.0, abs=2.0)


class TestLindblad:
    def test_noiseless_matches_unitary(self):
        rng = np.random.default_rng(2)
        t = np.arange(0, 9) * 0.05
        om = np.concatenate([[0.0], mhz(rng.uniform(0.2, 1.5, 7)), [0.0]])
        de = mhz(rng.uniform(-2, 2, 9))
        p = ControlPulse(t, om, de)
        geom = AtomGeometry.chain(2, 8.9)
        states = propagate_lindblad(p, geom, quiet_noise(), force=True)
        # 20 CF4 steps per 0.05 us interval keep the unitary's own error
        # far below the 1e-6 scale
        u = propagate_unitary(p, geom, substeps=20, force=True)
        psi0 = np.zeros(4, dtype=complex)
        psi0[0] = 1.0
        want = np.outer(u @ psi0, (u @ psi0).conj())
        assert np.linalg.norm(states[-1].rho - want) < 1e-6

    def test_single_atom_exponential_decay(self):
        gamma = 0.049
        noise = NoiseModel(gamma=gamma)
        psi_r = np.array([0.0, 1.0], dtype=complex)
        for t_final in (1.0, 2.0, 4.0):
            p = ControlPulse(np.array([0.0, t_final]), np.zeros(2), np.zeros(2))
            states = propagate_lindblad(p, lone_atom(), noise,
                                        initial_state=psi_r)
            n_t = observables(states[-1]).expect_n[0]
            assert n_t == pytest.approx(np.exp(-gamma * t_final), abs=1e-6)

    def test_density_state_sanity(self):
        noise = NoiseModel(gamma=0.2)
        p = ControlPulse(np.array([0.0, 0.5, 1.0]),
                         np.array([0.0, mhz(1.0), 0.0]), np.zeros(3))
        states = propagate_lindblad(p, lone_atom(), noise)
        for s in states:
            assert abs(s.trace() - 1.0) < 1e-8
            assert s.hermiticity_defect() < 1e-10
            assert s.min_eigenvalue() > -1e-8

    def test_driven_self_convergence(self):
        # CF4 is exact for a constant one-atom H, so what is left is the
        # Strang splitting's own second order: halving the step divides the
        # error by 4 (measured: 4.004)
        noise = NoiseModel(gamma=0.3)
        p = ControlPulse.constant(0.4, mhz(1.0), mhz(0.5))
        geom = lone_atom()
        psi = np.array([0.6, 0.8], dtype=complex)
        ref = propagate_lindblad(p, geom, noise, dt=1e-4, initial_state=psi, force=True)[-1].rho
        errs = []
        for dt in (0.04, 0.02):
            rho = propagate_lindblad(p, geom, noise, dt=dt, initial_state=psi, force=True)[-1].rho
            errs.append(np.linalg.norm(rho - ref))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.1)

    def test_bad_dt_rejected(self):
        p = ControlPulse(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2))
        for dt in (-1.0, np.nan):
            with pytest.raises(PropagationError, match="dt must be positive"):
                propagate_lindblad(p, lone_atom(), quiet_noise(), dt=dt)

    def test_initial_state_list_accepted(self):
        p = ControlPulse(np.array([0.0, 0.5, 1.0]),
                         np.array([0.0, mhz(1.0), 0.0]), np.zeros(3))
        noise = NoiseModel(gamma=0.2)
        for state in ([0.6, 0.8], [[0.5, 0.1], [0.1, 0.5]]):
            got = propagate_lindblad(p, lone_atom(), noise, initial_state=state)
            want = propagate_lindblad(p, lone_atom(), noise,
                                      initial_state=np.array(state, dtype=complex))
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a.rho, b.rho)

    def test_initial_state_wrong_shape_rejected(self):
        p = ControlPulse(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2))
        for bad in (np.ones(4), np.eye(4), np.ones((2, 2, 2)), [[1.0, 0.0]], 1.0):
            with pytest.raises(PropagationError, match=r"\(2,\) vector or a Hermitian \(2, 2\)"):
                propagate_lindblad(p, lone_atom(), quiet_noise(), initial_state=bad)

    def test_non_hermitian_initial_state_rejected(self):
        # input validation: a density matrix is Hermitian, and the damping
        # and unitary maps only keep Hermitian input Hermitian
        p = ControlPulse(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2))
        with pytest.raises(PropagationError, match="Hermitian"):
            propagate_lindblad(p, lone_atom(), quiet_noise(),
                               initial_state=np.array([[0.5, 0.2], [0.0, 0.5]]))

    @pytest.mark.parametrize("state", [np.array([2.0, 0.0]), np.diag([1.5, -0.5])],
                             ids=["trace-4-vector", "negative-eigenvalue"])
    def test_non_density_initial_state_rejected(self, state):
        # the channels keep trace and positivity, so they cannot repair a
        # state without them: unchecked, these ended at trace 4.0 and at a
        # minimum eigenvalue of -0.476
        p = ControlPulse(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2))
        with pytest.raises(PropagationError, match="unit trace and no negative eigenvalue"):
            propagate_lindblad(p, lone_atom(), NoiseModel.fitted(), initial_state=state)


class TestObservables:
    @pytest.mark.parametrize("state", [np.zeros(0), np.zeros(3), np.zeros((6, 6))])
    def test_dimension_not_a_power_of_two_rejected(self, state):
        # an empty state used to take log2(0) and raise OverflowError
        with pytest.raises(PropagationError, match="not a power of two"):
            observables(state)

    def test_ground_state(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0
        rec = observables(psi)
        np.testing.assert_allclose(rec.expect_z, np.ones(3))
        np.testing.assert_allclose(rec.expect_n, np.zeros(3))
        np.testing.assert_allclose(rec.connected, np.zeros((3, 3)), atol=1e-14)

    def test_ghz_pair(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        rec = observables(psi)
        np.testing.assert_allclose(rec.expect_z, [0.0, 0.0], atol=1e-14)
        assert rec.zz[0, 1] == pytest.approx(1.0)
        assert rec.connected[0, 1] == pytest.approx(1.0)

    def test_unitary_plus_initial_state(self):
        u = np.kron(X, np.eye(2))
        psi0 = np.zeros(4, dtype=complex)
        psi0[0] = 1.0
        rec = observables(u, psi0)
        np.testing.assert_allclose(rec.expect_n, [1.0, 0.0], atol=1e-14)

    def test_unitary_plus_density_matrix_rejected(self):
        # diag(U rho0) is not the propagated state's populations; this used
        # to return a (1, 2) expect_z of zeros for a Hadamard on |0><0|
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        with pytest.raises(PropagationError, match="unrecognized state input"):
            observables(h, np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("state", [np.array([1.0, 0.0]),
                                       DensityState(np.diag([1.0, 0.0]), 0.0)])
    def test_initial_state_without_unitary_rejected(self, state):
        # a vector state used to return its own populations, ignoring initial_state
        with pytest.raises(PropagationError, match="initial_state needs a unitary"):
            observables(state, np.array([0.0, 1.0]))

    def test_edge_mode_invariants_exact_evolution(self):
        n = 8
        h = zxz_hamiltonian(n).to_dense()
        psi0 = np.zeros(2 ** n, dtype=complex)
        psi0[0] = 1.0
        evals, vecs = np.linalg.eigh(h)
        base = observables(psi0)
        for tau in np.arange(0.1, 0.85, 0.1):
            u = (vecs * np.exp(-1j * evals * tau)) @ vecs.conj().T
            rec = observables(u @ psi0)
            assert rec.expect_z[0] == pytest.approx(base.expect_z[0], abs=1e-10)
            assert rec.expect_z[-1] == pytest.approx(base.expect_z[-1], abs=1e-10)
            assert rec.zz[0, -1] == pytest.approx(base.zz[0, -1], abs=1e-10)
        # bulk sites decay away from the boundary value at late tau
        rec = observables(((vecs * np.exp(-1j * evals * 0.8)) @ vecs.conj().T) @ psi0)
        assert np.max(np.abs(rec.expect_z[1:-1] - 1.0)) > 0.1
