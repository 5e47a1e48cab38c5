import numpy as np
import pytest
import scipy.linalg

from liectrl.closure import uniform_qubit_generators
from liectrl.models import (
    DEFAULT_C6,
    AtomGeometry,
    ModelError,
    NoiseModel,
    boundary_operators,
    density_operator,
    doubly_excited_indices,
    mhz,
    pxp_hamiltonian,
    rydberg_hamiltonian,
    rydberg_terms,
    to_mhz,
    zxz_hamiltonian,
)
from liectrl.pauli import PauliError, PauliSum, commutator
from oracles import pauli_rydberg_terms


def ground_state(n):
    psi = np.zeros(2 ** n, dtype=complex)
    psi[0] = 1.0
    return psi


class TestGeometry:
    def test_chain_positions(self):
        g = AtomGeometry.chain(3, 8.9)
        assert g.n_atoms == 3
        assert g.positions[1] == (8.9, 0.0)

    def test_interaction_value(self):
        g = AtomGeometry.chain(2, 8.9)
        # frozen from direct evaluation of 862690 / 8.9^6 (in MHz)
        assert to_mhz(g.interaction(1, 2)) == pytest.approx(1.7358601132, abs=1e-9)

    def test_blockade_radius_formula(self):
        g = AtomGeometry.chain(2, 10.0)
        rb = g.blockade_radius(mhz(2.4))
        # direct evaluation of (862690 / 2.4)^(1/6); the 2*pi factors cancel
        assert rb == pytest.approx((862690 / 2.4) ** (1 / 6), abs=1e-9)
        assert rb == pytest.approx(8.432, abs=1e-3)

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

    def test_json_roundtrip(self):
        g = AtomGeometry.chain(4, 8.9)
        g2 = AtomGeometry.from_json(g.to_json())
        assert g2.positions == g.positions


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
        h = rydberg_hamiltonian(g, mhz(1.0), 0.0)
        np.testing.assert_allclose(h.to_dense(), np.pi * np.array([[0, 1], [1, 0]]),
                                   atol=1e-12)

    def test_two_atom_interaction_block(self):
        g = AtomGeometry.chain(2, 8.9)
        h = rydberg_hamiltonian(g, 0.0, 0.0)
        dense = h.to_dense()
        v = g.interaction(1, 2)
        want = np.diag([0.0, 0.0, 0.0, v])
        np.testing.assert_allclose(dense, want, atol=1e-12)

    def test_detuning_term(self):
        g = AtomGeometry.chain(1, 5.0)
        h = rydberg_hamiltonian(g, 0.0, mhz(1.0))
        np.testing.assert_allclose(h.to_dense(), np.diag([0.0, -mhz(1.0)]), atol=1e-12)

    def test_terms_match_pauli_form(self):
        g = AtomGeometry.chain(3, 8.9)
        x_tot, n_tot, v = rydberg_terms(g)
        omega, delta = mhz(1.7), mhz(-0.9)
        dense = omega / 2 * x_tot - delta * n_tot + v
        np.testing.assert_allclose(
            dense, rydberg_hamiltonian(g, omega, delta).to_dense(), atol=1e-10)

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
        omega, delta = mhz(1.7), mhz(-0.9)
        np.testing.assert_allclose(
            omega / 2 * x_tot - delta * n_tot + v,
            rydberg_hamiltonian(geom, omega, delta).to_dense(), rtol=0, atol=1e-10)

    def test_terms_budget(self):
        with pytest.raises(ModelError, match="dense budget of 10 atoms"):
            rydberg_terms(AtomGeometry.chain(11, 9.0))

    def test_uniform_rabi_eigenvalues(self):
        # Delta = 0 and no interactions: eigenvalues are sums of +-Omega/2
        g = AtomGeometry(((0.0, 0.0), (1e6, 0.0)))  # effectively non-interacting
        omega = mhz(2.0)
        evals = np.linalg.eigvalsh(rydberg_hamiltonian(g, omega, 0.0).to_dense())
        want = np.sort([s1 * omega / 2 + s2 * omega / 2
                        for s1 in (-1, 1) for s2 in (-1, 1)])
        np.testing.assert_allclose(evals, want, atol=1e-9)

    def test_eleven_atoms_build_but_refuse_dense(self):
        # the PauliSum has no dense budget; to_dense keeps its own
        h = rydberg_hamiltonian(AtomGeometry.chain(11, 9.0), 1.0, 1.0)
        assert h.n_qubits == 11
        with pytest.raises(PauliError):
            h.to_dense()


class TestZXZ:
    def test_single_bulk_term(self):
        h = zxz_hamiltonian(3, 1.0)
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


class TestPXP:
    def test_three_site_decomposition(self):
        h = pxp_hamiltonian(3, mhz(1.0), 0.0)
        om = mhz(1.0)
        for label in ("IXI", "ZXI", "IXZ", "ZXZ"):
            assert h.coeff(label) == pytest.approx(om / 8)
        assert len(h) == 4

    def test_detuning_part_diagonal(self):
        h = pxp_hamiltonian(4, 0.0, mhz(1.0))
        dense = h.to_dense()
        np.testing.assert_allclose(dense, np.diag(np.diag(dense)), atol=1e-12)

    def test_no_transition_to_adjacent_excitations(self):
        n = 4
        h = pxp_hamiltonian(n, mhz(1.3), mhz(0.7)).to_dense()
        psi0 = ground_state(n)
        target = int("1100", 2)
        for t in (0.1, 0.5, 1.7, 4.0):
            psi = scipy.linalg.expm(-1j * h * t) @ psi0
            assert abs(psi[target]) < 1e-12

    def test_blockade_subspace_preserved(self):
        n = 5
        h = pxp_hamiltonian(n, mhz(2.0), mhz(-1.0)).to_dense()
        bad = doubly_excited_indices(n)
        psi0 = ground_state(n)
        rng = np.random.default_rng(0)
        for _ in range(5):
            t = rng.uniform(0.1, 3.0)
            psi = scipy.linalg.expm(-1j * h * t) @ psi0
            assert np.sum(np.abs(psi[bad]) ** 2) < 1e-20


class TestDensityAndBoundary:
    def test_density_matrix_form(self):
        d = density_operator(1, 1).to_dense()
        np.testing.assert_allclose(d, np.diag([0.0, 1.0]), atol=1e-15)

    def test_boundary_operators_anticommute(self):
        p1l, p2l = boundary_operators(4)
        # anticommutator via dense form
        a, b = p1l.to_dense(), p2l.to_dense()
        np.testing.assert_allclose(a @ b + b @ a, np.zeros_like(a), atol=1e-13)

    @pytest.mark.parametrize("n", [4, 6])
    def test_boundary_operators_commute_with_chain(self, n):
        h = zxz_hamiltonian(n)
        p1l, p2l = boundary_operators(n)
        assert len(commutator(p1l, h)) == 0
        assert len(commutator(p2l, h)) == 0

    def test_doubly_excited_indices_n3(self):
        idx = set(doubly_excited_indices(3).tolist())
        assert idx == {0b110, 0b011, 0b111}


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
                 PauliSum.zero(n))
        hb = sum((PauliSum.single_site(n, j, "Z") for j in range(1, n + 1, 2)),
                 PauliSum.zero(n))
        assert (ha + hb).terms == pytest.approx(hz.terms)
