import numpy as np
import pytest
import scipy.linalg

from liectrl.closure import uniform_qubit_generators
from liectrl.models import (
    DEFAULT_C6,
    AtomGeometry,
    ModelError,
    NoiseModel,
    mhz,
    rydberg_terms,
    to_mhz,
    zxz_hamiltonian,
)
from liectrl.pauli import PauliSum, commutator
from oracles import pauli_rydberg_terms


def ground_state(n):
    psi = np.zeros(2 ** n, dtype=complex)
    psi[0] = 1.0
    return psi


def rydberg_dense(geom, omega, delta):
    """H = (omega/2) sum X - delta sum n + V from the rydberg_terms pieces."""
    x_total, n_total, v = rydberg_terms(geom)
    return omega / 2 * x_total - delta * n_total + v


class TestGeometry:
    def test_chain_positions(self):
        g = AtomGeometry.chain(3, 8.9)
        assert g.n_atoms == 3
        assert g.positions[1] == (8.9, 0.0)

    def test_interaction_value(self):
        g = AtomGeometry.chain(2, 8.9)
        # frozen from direct evaluation of 862690 / 8.9^6 (in MHz)
        assert to_mhz(g.interaction(1, 2)) == pytest.approx(1.7358601132, abs=1e-9)

    def test_coincident_atoms_rejected(self):
        with pytest.raises(ModelError):
            AtomGeometry(((0.0, 0.0), (0.0, 0.0)))

    @pytest.mark.parametrize("make", [
        lambda: AtomGeometry.chain(3, np.nan),
        lambda: AtomGeometry.chain(3, 6.0, c6=np.nan),
        lambda: AtomGeometry(((0.0, 0.0), (np.inf, 0.0))),
        lambda: AtomGeometry(((0.0, 0.0), (6.0, -np.inf))),
        lambda: AtomGeometry(((0.0, 0.0), (6.0, 0.0)), c6=np.inf),
    ], ids=["nan-spacing", "nan-c6", "inf-x", "inf-y", "inf-c6"])
    def test_non_finite_input_rejected(self, make):
        # a NaN spacing used to give all-NaN positions that failed late in
        # eigh; an infinite position was accepted
        with pytest.raises(ModelError, match="finite"):
            make()

    @pytest.mark.parametrize("c6", [-1.0, 0.0])
    def test_non_positive_c6_rejected(self, c6):
        # the chain is a repulsive van der Waals model
        with pytest.raises(ModelError, match="c6 must be positive"):
            AtomGeometry.chain(3, 6.0, c6=c6)


class TestNoiseModel:
    def test_fitted_values(self):
        nm = NoiseModel.fitted()
        assert nm.gamma == pytest.approx(0.049)
        assert to_mhz(nm.delta_detuning_shift) == pytest.approx(-0.049)
        assert to_mhz(nm.delta_rabi_shift) == pytest.approx(-0.032)
        assert nm.rabi_scale_error == pytest.approx(-0.05)
        assert "gamma_units" in nm.metadata

    def test_realized_controls(self):
        nm = NoiseModel(gamma=0.0, delta_detuning_shift=1.0,
                        delta_rabi_shift=0.5, rabi_scale_error=-0.1)
        om, de = nm.realized_controls(2.0, 3.0)
        assert om == pytest.approx(2.0 + 0.5 - 0.2)
        assert de == pytest.approx(4.0)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ModelError):
            NoiseModel(gamma=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("gamma", np.nan), ("gamma", np.inf), ("delta_detuning_shift", -np.inf),
        ("delta_rabi_shift", np.inf), ("rabi_scale_error", np.nan)])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ModelError, match="finite"):
            NoiseModel(**{field: value})


class TestRydberg:
    def test_single_atom_rabi(self):
        g = AtomGeometry.chain(1, 5.0)
        h = rydberg_dense(g, mhz(1.0), 0.0)
        np.testing.assert_allclose(h, np.pi * np.array([[0, 1], [1, 0]]),
                                   atol=1e-12)

    def test_two_atom_interaction_block(self):
        g = AtomGeometry.chain(2, 8.9)
        h = rydberg_dense(g, 0.0, 0.0)
        v = g.interaction(1, 2)
        want = np.diag([0.0, 0.0, 0.0, v])
        np.testing.assert_allclose(h, want, atol=1e-12)

    def test_detuning_term(self):
        g = AtomGeometry.chain(1, 5.0)
        h = rydberg_dense(g, 0.0, mhz(1.0))
        np.testing.assert_allclose(h, np.diag([0.0, -mhz(1.0)]), atol=1e-12)

    @pytest.mark.parametrize("geom", [
        *(AtomGeometry.chain(n, 6.5) for n in range(1, 7)),
        AtomGeometry(((0.0, 0.0), (7.0, 0.0), (0.5, 6.5), (7.5, 8.0), (3.0, 12.0))),
    ])
    def test_terms_real_symmetric_and_match_pauli_sums(self, geom):
        pieces = rydberg_terms(geom)
        for got, want in zip(pieces, pauli_rydberg_terms(geom)):
            assert np.isrealobj(got)
            np.testing.assert_array_equal(got, got.T)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        x_tot, n_tot, v = pieces
        for diagonal in (n_tot, v):
            np.testing.assert_array_equal(diagonal, np.diag(np.diag(diagonal)))

    def test_terms_budget(self):
        with pytest.raises(ModelError, match="dense budget of 10 atoms"):
            rydberg_terms(AtomGeometry.chain(11, 9.0))

    def test_uniform_rabi_eigenvalues(self):
        # Delta = 0 and no interactions: eigenvalues are sums of +-Omega/2
        g = AtomGeometry(((0.0, 0.0), (1e6, 0.0)))  # effectively non-interacting
        omega = mhz(2.0)
        evals = np.linalg.eigvalsh(rydberg_dense(g, omega, 0.0))
        want = np.sort([s1 * omega / 2 + s2 * omega / 2
                        for s1 in (-1, 1) for s2 in (-1, 1)])
        np.testing.assert_allclose(evals, want, atol=1e-9)


class TestZXZ:
    def test_single_bulk_term(self):
        h = zxz_hamiltonian(3)
        assert h.coeff("ZXZ") == pytest.approx(1.0)
        assert len(h) == 1

    def test_boundary_z_conserved(self):
        for n in (3, 4, 6, 8):
            h = zxz_hamiltonian(n)
            z1 = PauliSum.single_site(n, 1, "Z")
            zn = PauliSum.single_site(n, n, "Z")
            assert len(commutator(z1, h)) == 0
            assert len(commutator(zn, h)) == 0
            z1zn = commutator(z1, zn)  # zero, they commute; sanity only
            assert len(z1zn) == 0

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_pi_half_reaches_domain_wall_state(self, n):
        h = zxz_hamiltonian(n).to_dense()
        u = scipy.linalg.expm(-1j * (np.pi / 2) * h)
        psi = u @ ground_state(n)
        # |011...10>: qubit 1 is the most significant bit
        target = int("0" + "1" * (n - 2) + "0", 2)
        assert abs(psi[target]) == pytest.approx(1.0, abs=1e-12)

    def test_min_size(self):
        with pytest.raises(ModelError):
            zxz_hamiltonian(2)


class TestDensityAndBoundary:
    def test_boundary_operators_anticommute(self):
        # the cluster chain's left-edge operators X_1 Z_2 and Z_1
        p1l, p2l = PauliSum.from_label("XZII"), PauliSum.single_site(4, 1, "Z")
        # anticommutator via dense form
        a, b = p1l.to_dense(), p2l.to_dense()
        np.testing.assert_allclose(a @ b + b @ a, np.zeros_like(a), atol=1e-13)

    @pytest.mark.parametrize("n", [4, 6])
    def test_boundary_operators_commute_with_chain(self, n):
        h = zxz_hamiltonian(n)
        p1l, p2l = PauliSum.from_label("XZ" + "I" * (n - 2)), PauliSum.single_site(n, 1, "Z")
        assert len(commutator(p1l, h)) == 0
        assert len(commutator(p2l, h)) == 0


class TestControlFamily:
    def test_two_qubit_generators(self):
        gen = uniform_qubit_generators(2)
        assert len(gen.generators) == 3
        hx = gen.generators[0]
        assert hx.coeff("XI") == 1.0 and hx.coeff("IX") == 1.0

    def test_empty_pattern_three_generators(self):
        assert len(uniform_qubit_generators(5).generators) == 3
        assert len(uniform_qubit_generators(5, {2}).generators) == 4

    def test_alternating_pattern_matches_split_fields(self):
        # H_Z = H_A + H_B where A, B are the even/odd sublattice Z fields
        n = 6
        gen = uniform_qubit_generators(n, {1, 3, 5})
        hz = gen.generators[1]
        ha = sum((PauliSum.single_site(n, j, "Z") for j in range(2, n + 1, 2)),
                 PauliSum(n))
        hb = sum((PauliSum.single_site(n, j, "Z") for j in range(1, n + 1, 2)),
                 PauliSum(n))
        assert (ha + hb).terms == pytest.approx(hz.terms)


class TestInputChecks:
    @pytest.mark.parametrize("make, message", [
        (lambda: AtomGeometry.chain(0, 6.0), "need n_atoms >= 1 and positive spacing"),
        (lambda: AtomGeometry.chain(3, 0.0), "need n_atoms >= 1 and positive spacing"),
        (lambda: AtomGeometry.chain(3, -6.0), "need n_atoms >= 1 and positive spacing"),
        # the negative index wrapped to V_31
        (lambda: AtomGeometry.chain(3, 6.0).interaction(0, 1),
         "need two distinct atoms in 1..3, got 0 and 1"),
        # numpy's divide-by-zero RuntimeWarning
        (lambda: AtomGeometry.chain(3, 6.0).interaction(1, 1),
         "need two distinct atoms in 1..3, got 1 and 1"),
        # IndexError
        (lambda: AtomGeometry.chain(3, 6.0).interaction(1, 4),
         "need two distinct atoms in 1..3, got 1 and 4"),
        # TypeError from range and from the position index
        (lambda: AtomGeometry.chain(3.0, 6.0), "n_atoms must be an integer, got 3.0"),
        (lambda: AtomGeometry.chain(3, 6.0).interaction(1.0, 2),
         "need two distinct atoms in 1..3, got 1.0 and 2"),
        # accepted as one atom and as atom 1
        (lambda: AtomGeometry.chain(True, 6.0), "n_atoms must be an integer, got True"),
        (lambda: AtomGeometry.chain(3, 6.0).interaction(True, 2),
         "need two distinct atoms in 1..3, got True and 2"),
        # accepted as C6 = 1, x = 1 um, positions read by float(), 1 um spacing and unit rates
        (lambda: AtomGeometry(((0, 0), (6, 0)), c6=True),
         "atom positions and c6 must be real numbers, got ((0, 0), (6, 0)) and True"),
        (lambda: AtomGeometry(((True, 0), (6, 0))),
         f"atom positions and c6 must be real numbers, got ((True, 0), (6, 0)) and {DEFAULT_C6}"),
        (lambda: AtomGeometry((("0", "0"), ("6", "0"))),
         "atom positions and c6 must be real numbers, got (('0', '0'), ('6', '0')) and "
         f"{DEFAULT_C6}"),
        (lambda: AtomGeometry.chain(3, True), "spacing must be a real number, got True"),
        (lambda: NoiseModel(gamma=True),
         "rates and shifts must be real numbers, got [True, 0.0, 0.0, 0.0]"),
        (lambda: NoiseModel(rabi_scale_error=True),
         "rates and shifts must be real numbers, got [0.0, 0.0, 0.0, True]"),
        # numpy's TypeError from isfinite, and Python's from <= and >=
        (lambda: AtomGeometry(((0, 0), (6, 0)), c6="x"),
         "atom positions and c6 must be real numbers, got ((0, 0), (6, 0)) and 'x'"),
        (lambda: AtomGeometry.chain(3, "6"), "spacing must be a real number, got '6'"),
        (lambda: NoiseModel(gamma="x"),
         "rates and shifts must be real numbers, got ['x', 0.0, 0.0, 0.0]"),
        (lambda: NoiseModel(delta_rabi_shift="x"),
         "rates and shifts must be real numbers, got [0.0, 0.0, 'x', 0.0]"),
        # Python's ValueError from unpacking x, y
        (lambda: AtomGeometry(((0, 0, 0), (6, 0, 0))),
         "atom positions must be (x, y) pairs, got ((0, 0, 0), (6, 0, 0))"),
        (lambda: AtomGeometry(((0,), (6,))),
         "atom positions must be (x, y) pairs, got ((0,), (6,))"),
    ], ids=["no atoms", "zero spacing", "negative spacing", "interaction 0", "interaction self",
            "interaction past N", "chain float", "interaction float", "chain bool",
            "interaction bool", "bool c6", "bool position", "string positions", "bool spacing",
            "bool gamma", "bool rabi scale", "string c6", "string spacing", "string gamma",
            "string rabi shift", "3-d positions", "1-d positions"])
    def test_rejected_with_message(self, make, message):
        with pytest.raises(ModelError) as info:
            make()
        assert str(info.value) == message
