import numpy as np
import pytest

from liectrl import closure
from liectrl.closure import (
    MAX_EXACT_QUBITS,
    PRIMES,
    ClosureError,
    GeneratorSet,
    check_universality_qubit,
    close,
    loglog_slope,
    pattern_is_reflection_symmetric,
    reflection_sector_check,
    trotter_commutator_error,
    trotter_linear_error,
    uniform_qubit_generators,
    verify_lemma_b2_targets,
)
from liectrl.pauli import PauliSum, commutator, sum_to_arrays
from liectrl.sectors import build_hubbard_chain_controls

from oracles import dense_closure_dimension, reflection_sector_dimension

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def random_pauli_set(rng, n_qubits, n_gens, n_terms=2):
    gens = []
    for _ in range(n_gens):
        terms = {}
        for _ in range(n_terms):
            label = "".join(rng.choice(list("IXYZ"), size=n_qubits))
            if set(label) == {"I"}:
                label = "X" + label[1:]
            p = PauliSum.from_label(label)
            key = next(iter(p.terms))
            terms[key] = float(rng.integers(1, 4))
        gens.append(PauliSum(n_qubits, terms))
    return GeneratorSet("pauli", gens)


class TestCloseBasics:
    def test_su2_from_x_and_z(self):
        gen = GeneratorSet("pauli", [PauliSum.from_label("X"), PauliSum.from_label("Z")])
        res = close(gen)
        assert res.dimension == 3
        assert res.converged
        assert res.universality == "universal"

    def test_single_generator_is_abelian(self):
        gen = GeneratorSet("pauli", [PauliSum.from_label("XX")])
        res = close(gen)
        assert res.dimension == 1
        assert res.universality == "non_universal"

    def test_dense_matches_pauli_su2(self):
        gen = GeneratorSet("dense", [X, Z])
        res = close(gen)
        assert res.dimension == 3
        assert res.universality == "universal"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ClosureError):
            GeneratorSet("pauli", [])
        with pytest.raises(ClosureError):
            GeneratorSet("pauli", [PauliSum.from_label("X"), PauliSum.from_label("XX")])
        with pytest.raises(ClosureError):
            GeneratorSet("dense", [np.array([[0, 1], [0, 0]], dtype=complex)])
        with pytest.raises(ClosureError):
            close(GeneratorSet("pauli", [PauliSum.from_label("X")]), tol=-1.0)

    def test_basis_orthonormal_and_closed(self):
        gen = uniform_qubit_generators(3, {1})
        res = close(gen)
        basis = res.basis
        n = len(basis)
        gram = np.array([[a.hs_inner(b) for b in basis] for a in basis])
        np.testing.assert_allclose(gram, np.eye(n), atol=1e-9)
        # converged closure is a Lie algebra: pairwise brackets stay inside
        rng = np.random.default_rng(0)
        for _ in range(10):
            i, j = rng.integers(0, n, size=2)
            member, resid = res.contains(commutator(basis[i], basis[j]), tol=1e-9)
            assert member, f"bracket ({i},{j}) left the span, residual {resid}"

    def test_cap_early_exit_is_flagged(self):
        gen = uniform_qubit_generators(3, {1})
        res = close(gen, cap=10)
        assert res.dimension == 10
        assert res.converged
        assert res.universality == "undetermined"


class TestChainTheorem:
    # dimensions below were frozen from the all-pairs dense SVD oracle
    FROZEN = {
        (3, ()): 38,
        (3, (1,)): 63,
        (4, ()): 135,
        (4, (1, 4)): 135,
        (4, (3, 4)): 255,
        (5, ()): 542,
    }

    @pytest.mark.parametrize("n,pattern", sorted(FROZEN))
    def test_frozen_dimensions(self, n, pattern):
        res = check_universality_qubit(n, set(pattern))
        assert res.dimension == self.FROZEN[(n, pattern)]

    @pytest.mark.parametrize("n,pattern", [(3, ()), (3, (1,)), (4, (1, 4))])
    def test_oracle_agreement(self, n, pattern):
        gens = [p.to_dense() for p in uniform_qubit_generators(n, set(pattern)).generators]
        assert dense_closure_dimension(gens) == self.FROZEN[(n, pattern)]

    def test_universal_examples(self):
        res = check_universality_qubit(3, {1})
        assert res.universality == "universal"
        assert res.dimension == 4 ** 3 - 1
        res = check_universality_qubit(4, {3, 4})
        assert res.universality == "universal"
        assert res.dimension == 255

    def test_symmetric_patterns_stay_non_universal(self):
        for n, pat in [(4, set()), (4, {2, 3}), (5, {1, 5}), (5, {3})]:
            res = check_universality_qubit(n, pat)
            assert res.pattern_reflection_symmetric
            assert res.universality == "non_universal"
            assert reflection_sector_check(res, n)

    def test_abab_pattern_universal_for_even_n(self):
        res = check_universality_qubit(6, {1, 3, 5})
        assert not res.pattern_reflection_symmetric
        assert res.universality == "universal"
        assert res.dimension == 4 ** 6 - 1

    def test_dense_result_declares_chain_fields(self):
        res = check_universality_qubit(3, {1}, backend="dense")
        assert res.representation == "dense"
        assert res.n_qubits == 3
        assert res.pattern_reflection_symmetric is False
        assert res.dimension == 4 ** 3 - 1

    def test_warm_start_matches_cold(self):
        for pat, want in [({1}, 1023), ({2, 4}, 542), ({5}, 1023)]:
            cold = check_universality_qubit(5, pat)
            assert cold.dimension == want

    def test_reflection_oracle_matches_frozen(self):
        for n in (3, 4, 5):
            assert reflection_sector_dimension(n) == self.FROZEN[(n, ())]

    @pytest.mark.parametrize("pattern", [(1, 6), (3, 4)])
    def test_symmetric_n6_matches_reflection_oracle(self, pattern):
        res = check_universality_qubit(6, set(pattern))
        assert res.universality == "non_universal"
        assert res.dimension == reflection_sector_dimension(6) == 2079
        assert reflection_sector_check(res, 6)

    def test_n7_single_break_universal(self):
        res = check_universality_qubit(7, {1})
        assert res.universality == "universal"
        assert res.dimension == 4 ** 7 - 1

    def test_monotone_in_generators(self):
        base = check_universality_qubit(4, set()).dimension
        extended = check_universality_qubit(4, {2}).dimension
        assert extended >= base

    def test_basis_recombination_invariance(self):
        rng = np.random.default_rng(1)
        gen = uniform_qubit_generators(3, {1, 2})
        dim0 = close(gen).dimension
        gens = gen.generators
        for _ in range(3):
            m = rng.integers(-2, 3, size=(len(gens), len(gens)))
            while abs(np.linalg.det(m)) < 0.5:
                m = rng.integers(-2, 3, size=(len(gens), len(gens)))
            mixed = [sum((float(m[i, j]) * gens[j] for j in range(len(gens))),
                         PauliSum.zero(3)) for i in range(len(gens))]
            assert close(GeneratorSet("pauli", mixed)).dimension == dim0


class TestExactPauliBackend:
    def test_large_coefficient_ratio(self):
        # su(2) on qubit 1 plus X on qubit 2; with unit-norm operands the
        # first bracket has norm 1e-6, under a float rank floor
        x1 = PauliSum.from_label("XI")
        z1_x2 = PauliSum.from_label("ZI") + PauliSum.from_label("IX", 1e6)
        res = close(GeneratorSet("pauli", [x1, z1_x2]))
        assert res.dimension == 4
        assert res.universality == "non_universal"
        assert res.primes == PRIMES

    def test_primes_that_disagree_raise(self):
        # the IX coefficient vanishes mod the first prime only: dims 3 and 4
        x1 = PauliSum.from_label("XI")
        z1_x2 = PauliSum.from_label("ZI") + PauliSum.from_label("IX", float(PRIMES[0]))
        with pytest.raises(ClosureError, match=r"\[3, 4\]"):
            close(GeneratorSet("pauli", [x1, z1_x2]))

    def test_universal_verdict_needs_one_prime(self):
        res = check_universality_qubit(3, {1})
        assert res.universality == "universal"
        assert res.primes == PRIMES[:1]

    def test_non_integer_generator_rejected(self):
        x1 = PauliSum.from_label("XI")
        irrational = PauliSum.from_label("ZI") + PauliSum.from_label("IX", np.sqrt(2))
        with pytest.raises(ClosureError, match='representation="dense"'):
            close(GeneratorSet("pauli", [x1, irrational]))
        # integer multiples of the smallest coefficient are accepted
        scaled = PauliSum.from_label("ZI", 0.3) + PauliSum.from_label("IX", 0.9)
        assert close(GeneratorSet("pauli", [x1 * 0.5, scaled])).dimension == 4

    def test_too_many_qubits_rejected(self):
        gen = GeneratorSet("pauli", [PauliSum.single_site(MAX_EXACT_QUBITS + 1, 1, "X")])
        with pytest.raises(ClosureError, match=f"N <= {MAX_EXACT_QUBITS}"):
            close(gen)

    @pytest.mark.parametrize("c", [2.0, 5000.0])
    def test_fractional_rows_lift_exactly(self, c):
        # the echelon row of ZI + c IX is IX + ZI/c, stored as residues; a
        # denominator of 5000 is above one prime's lift bound
        g = PauliSum.from_label("ZI") + PauliSum.from_label("IX", c)
        res = close(GeneratorSet("pauli", [g]))
        assert res.dimension == 1
        member, resid = res.contains(g * 3.0, tol=1e-12)
        assert member, resid
        assert not res.contains(PauliSum.from_label("ZI"))[0]
        (b,) = res.basis
        assert b.hs_inner(b) == pytest.approx(1.0)
        assert b.coeff("IX") == pytest.approx(c * b.coeff("ZI"))

    def test_row_beyond_the_lift_bound_raises(self):
        g = PauliSum.from_label("ZI") + PauliSum.from_label("IX", 2.0 ** 40)
        res = close(GeneratorSet("pauli", [g]))
        assert res.dimension == 1
        with pytest.raises(ClosureError):
            res.contains(g)
        with pytest.raises(ClosureError):
            res.basis

    def test_cap_below_generator_count_still_lifts(self):
        res = close(uniform_qubit_generators(3, {1}), cap=2)
        assert res.dimension == 2
        assert res.contains(uniform_qubit_generators(3).generators[0])[0]


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return m + m.conj().T


@pytest.fixture
def absorb_widths(monkeypatch):
    """The candidate widths handed to the dense _Basis.absorb while the test runs."""
    widths, absorb = set(), closure._Basis.absorb

    def recording(self, cands, tol, cap):
        widths.add(cands.shape[1])
        return absorb(self, cands, tol, cap)

    monkeypatch.setattr(closure._Basis, "absorb", recording)
    return widths


class TestDenseCoordinates:
    """Hermitian coordinates of the dense backend against complex traces."""

    @pytest.fixture
    def closed(self):
        # two random complex 3x3 blocks embedded in 4x4: u(3), not all of u(4)
        rng = np.random.default_rng(11)
        gens = [np.zeros((4, 4), dtype=complex) for _ in range(2)]
        for g in gens:
            g[:3, :3] = random_hermitian(rng, 3)
        return close(GeneratorSet("dense", gens)), rng

    def test_basis_hermitian_and_orthonormal(self, closed):
        res, _ = closed
        assert res.dimension == 9
        basis = res.basis
        for b in basis:
            np.testing.assert_allclose(b, b.conj().T, atol=1e-14)
        gram = np.array([[np.trace(a.conj().T @ b) for b in basis] for a in basis])
        np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-12)

    def test_basis_closed_under_brackets(self, closed):
        res, _ = closed
        basis = res.basis
        for a in basis:
            for b in basis:
                member, resid = res.contains((a @ b - b @ a) / 2j, tol=1e-9)
                assert member, resid

    def test_contains_residual_matches_complex_projection(self, closed):
        res, rng = closed
        basis = res.basis
        for _ in range(5):
            m = random_hermitian(rng, 4)
            m /= np.linalg.norm(m)
            r = m - sum(np.trace(b.conj().T @ m) * b for b in basis)
            member, resid = res.contains(m)
            assert not member
            assert resid == pytest.approx(np.linalg.norm(r), rel=1e-10)

    def test_complex_generators_absorb_full_width(self, absorb_widths, closed):
        # absorb_widths is requested first, so it records the closure in closed
        assert closed[0].dimension == 9
        assert absorb_widths == {16}

    def test_contains_rejects_non_hermitian(self, closed):
        res, _ = closed
        with pytest.raises(ClosureError, match="Hermitian"):
            res.contains(np.triu(np.ones((4, 4))))

    def test_low_rank_margin_is_logged(self, caplog):
        # commuting generators; with tol=0.5 the second one's residual
        # (0.1/sqrt(1.01) of its norm) is rejected against the first
        gen = GeneratorSet("dense", [np.diag([1.0, 0, 0]), np.diag([1.0, 0.1, 0])])
        with caplog.at_level("WARNING", logger="liectrl"):
            res = close(gen, tol=0.5)
        assert res.dimension == 1
        assert res.rank_margin == pytest.approx(np.sqrt(101))
        assert "rank margin" in caplog.text

    def test_margin_inf_without_rejections_and_none_on_pauli(self):
        assert close(GeneratorSet("dense", [X, Z])).rank_margin == np.inf
        assert close(uniform_qubit_generators(3)).rank_margin is None


class TestDenseGrading:
    """Real generators close on the real-symmetric/imaginary-antisymmetric grading."""

    @pytest.mark.parametrize("n,pattern", [(3, ()), (3, (1,)), (4, ()), (4, (1, 4))])
    def test_grades_match_exact_backend(self, n, pattern):
        dense = check_universality_qubit(n, pattern, backend="dense")
        exact = check_universality_qubit(n, pattern)
        assert dense.dimension == exact.dimension
        basis = dense.basis
        assert all(not b.imag.any() or not b.real.any() for b in basis)
        # a Pauli string is a real matrix iff it holds an even number of Y
        n_real = 0
        for b in exact.basis:
            xs, zs, cs = sum_to_arrays(b)
            even = np.bitwise_count(xs & zs) % 2 == 0
            n_real += np.sum(cs[even] ** 2) >= (1 - 1e-9) * np.sum(cs ** 2)
        assert sum(not b.imag.any() for b in basis) == n_real

    def test_real_generators_absorb_per_grade(self, absorb_widths):
        # d = 10: 55 real-symmetric and 45 imaginary-antisymmetric coordinates
        assert close(build_hubbard_chain_controls("fermion", 5, 2)).dimension == 100
        assert absorb_widths == {55, 45}


class TestReflectionChecks:
    def test_pattern_symmetry_predicate(self):
        assert pattern_is_reflection_symmetric(4, set())
        assert pattern_is_reflection_symmetric(4, {2, 3})
        assert not pattern_is_reflection_symmetric(4, {3, 4})
        assert pattern_is_reflection_symmetric(3, {2})
        assert not pattern_is_reflection_symmetric(6, {1, 3, 5})

    def test_sector_check_true_for_uniform(self):
        res = close(uniform_qubit_generators(4))
        assert reflection_sector_check(res, 4)

    def test_sector_check_false_with_x1(self):
        res = check_universality_qubit(3, {1})
        assert not reflection_sector_check(res, 3)

    def test_center_site_generator_is_symmetric(self):
        gen = GeneratorSet("pauli", [PauliSum.single_site(3, 2, "X")])
        res = close(gen)
        assert reflection_sector_check(res, 3)

    def test_antisymmetric_element_is_not_invariant(self):
        # X1 - X3 has a reflection-invariant support but flips sign
        g = PauliSum.single_site(3, 1, "X") - PauliSum.single_site(3, 3, "X")
        res = close(GeneratorSet("pauli", [g]))
        assert not reflection_sector_check(res, 3)

    def test_rejects_dense_representation(self):
        res = close(GeneratorSet("dense", [X, Z]))
        with pytest.raises(ClosureError):
            reflection_sector_check(res, 1)


class TestLemmaTargets:
    def test_even_chain(self):
        assert verify_lemma_b2_targets(4)

    def test_odd_chain_includes_center(self):
        assert verify_lemma_b2_targets(5)

    def test_unpaired_boundary_not_member(self):
        res = close(uniform_qubit_generators(3))
        member, _ = res.contains(PauliSum.single_site(3, 1, "X"), tol=1e-8)
        assert not member


class TestBackendAgreement:
    def test_random_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            n = int(rng.integers(2, 5))
            gen = random_pauli_set(rng, n, int(rng.integers(2, 4)))
            pauli_dim = close(gen).dimension
            dense = GeneratorSet("dense", [g.to_dense() for g in gen.generators])
            assert close(dense).dimension == pauli_dim


class TestTrotter:
    def test_commuting_case_exact(self):
        a = 1j * np.kron(X, np.eye(2))
        assert trotter_linear_error(a, a, 3) < 1e-12
        assert trotter_commutator_error(a, a, 4) < 1e-12

    def test_n1_bound(self):
        a, b = 1j * X, 1j * Z
        err = trotter_linear_error(a, b, 1)
        bound = 5 * np.exp(np.linalg.norm(a, 2) + np.linalg.norm(b, 2))
        assert 0 < err < bound

    def test_linear_slope_minus_one(self):
        a, b = 1j * X, 1j * Z
        ns = [2 ** k for k in range(1, 11)]
        errs = [trotter_linear_error(a, b, n) for n in ns]
        assert loglog_slope(ns, errs) == pytest.approx(-1.0, abs=0.1)

    def test_commutator_slope_minus_half(self):
        a, b = 1j * X, 1j * Z
        ns = [4 ** k for k in range(1, 6)]
        errs = [trotter_commutator_error(a, b, n) for n in ns]
        assert loglog_slope(ns, errs) == pytest.approx(-0.5, abs=0.1)

    def test_commutator_target_two_qubit(self):
        import scipy.linalg
        a = 1j * np.kron(X, np.eye(2))
        b = 1j * np.kron(Z, Z)
        n = 4 ** 6
        err = trotter_commutator_error(a, b, n)
        m = 2 ** 6 * (np.linalg.norm(a, 2) + np.linalg.norm(b, 2) + 1) ** 4
        assert err < m / np.sqrt(n)
        # the limit object is exp([A, B])
        lhs = scipy.linalg.expm(a @ b - b @ a)
        assert np.linalg.norm(lhs.conj().T @ lhs - np.eye(4)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ClosureError):
            trotter_linear_error(1j * X, 1j * np.kron(X, X), 2)

    def test_randomized_slopes(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            d = 4
            m1 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m2 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            a = m1 - m1.conj().T
            b = m2 - m2.conj().T
            a /= np.linalg.norm(a, 2) * 1.2
            b /= np.linalg.norm(b, 2) * 1.2
            ns = [2 ** k for k in range(2, 11)]
            lin = [trotter_linear_error(a, b, n) for n in ns]
            assert loglog_slope(ns, lin) == pytest.approx(-1.0, abs=0.1)
            com = [trotter_commutator_error(a, b, n) for n in ns]
            assert loglog_slope(ns, com) == pytest.approx(-0.5, abs=0.1)
