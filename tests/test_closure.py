import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from liectrl import closure
from liectrl.closure import (
    MAX_EXACT_QUBITS,
    PRIMES,
    ClosureError,
    ClosureResult,
    GeneratorSet,
    check_universality_qubit,
    close,
    reflection_sector_check,
    uniform_qubit_generators,
)
from liectrl.models import zxz_hamiltonian
from liectrl.pauli import PauliSum, commutator, sum_to_arrays
from liectrl.sectors import build_hubbard_chain_controls

from oracles import dense_closure_dimension, reflection_sector_dimension, sign_keys, string_bfs

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
    @pytest.mark.parametrize("bad", [Z * np.nan, np.diag([np.inf, -np.inf])], ids=["nan", "inf"])
    def test_non_finite_dense_input_rejected(self, bad):
        # NaN used to close as dimension 1, "non_universal", converged; the answer is su(2)
        with pytest.raises(ClosureError, match="finite"):
            close(GeneratorSet("dense", [X, bad]))
        with pytest.raises(ClosureError, match="finite"):
            close(GeneratorSet("dense", [X, Z])).contains(bad)

    def test_su2_from_x_and_z(self):
        gen = GeneratorSet("pauli", [PauliSum.from_label("X"), PauliSum.from_label("Z")])
        res = close(gen)
        assert res.dimension == 3
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

    def test_stacked_dense_generators_accepted(self):
        # an array of matrices is a sequence of generators; its truth value used to escape
        assert close(GeneratorSet("dense", np.stack([X, Z]))).dimension == 3

    def test_rejects_bad_inputs(self):
        with pytest.raises(ClosureError):
            GeneratorSet("pauli", [])
        with pytest.raises(ClosureError):
            GeneratorSet("pauli", [PauliSum.from_label("X"), PauliSum.from_label("XX")])
        with pytest.raises(ClosureError):
            GeneratorSet("dense", [np.array([[0, 1], [0, 0]], dtype=complex)])

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
            _, resid = res.contains(commutator(basis[i], basis[j]))
            assert resid < 1e-9, f"bracket ({i},{j}) left the span, residual {resid}"

    def test_thin_closure_runs_to_convergence(self):
        # one new row per depth: the run ends where the rows run out, past any depth count
        class Chain:
            n_gens, ids = 1, 0

            def seed(self):
                self.ids = 1
                return [0]

            def expand(self, block):
                if self.ids == 100:
                    return []
                self.ids += 1
                return [self.ids - 1]

        assert closure._bfs(Chain(), 10 ** 6) == (100, 100, "converged")


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
                         PauliSum(3)) for i in range(len(gens))]
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

    def test_prime_deficiency_settled_by_the_mirror_bound(self):
        # the ZZ coefficient vanishes mod the first prime only: dims 3 and 9,
        # and 9 is the mirror bound of these invariant generators
        x, z = (PauliSum.from_label(c + "I") + PauliSum.from_label("I" + c) for c in "XZ")
        z = z + PauliSum.from_label("ZZ", float(PRIMES[0]))
        res = close(GeneratorSet("pauli", [x, z]))
        assert (res.dimension, res.universality) == (9, "non_universal")
        assert (res.certificate, res.primes) == ("mirror bound", PRIMES)
        # at the bound the result is a known space: basis and contains lift no rows
        assert res.contains(z) == (True, 0.0) and res._runs == ()

    def test_mirror_bound_answers_past_the_one_prime_lift(self):
        # the echelon rows at this bound hold 1/5000, past one prime's lift bound (2.9e3)
        x, z = uniform_qubit_generators(4).generators[:2]
        gens = [x, z, PauliSum.from_label("IIII") + PauliSum.from_label("IZZI", 5000.0),
                PauliSum.from_label("ZZII") + PauliSum.from_label("IIZZ")]
        res = close(GeneratorSet("pauli", gens))
        assert (res.dimension, res.certificate, res.primes) == (135, "mirror bound", PRIMES[:1])
        assert all(res.contains(g) == (True, 0.0) for g in gens)
        assert len(res.basis) == 135

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
        _, resid = res.contains(g * 3.0)
        assert resid < 1e-12, resid
        assert not res.contains(PauliSum.from_label("ZI"))[0]
        (b,) = res.basis
        assert b.hs_inner(b) == pytest.approx(1.0)
        assert b.coeff("IX") == pytest.approx(c * b.coeff("ZI"))

    def test_row_beyond_the_lift_bound_raises(self):
        # the entry 1/c has a denominator above the two-prime bound: it lifts to a
        # wrong fraction, or to none
        for c, message in [
                (2.0 ** 40, "rows lifted mod 281474641166387 miss a generator: an exact "
                            "entry exceeds the reconstruction bound 11863276"),
                (2.0 ** 24 + 3, "residue 44566818044868 mod 281474641166387 has no rational "
                                "lift below 11863276")]:
            g = PauliSum.from_label("ZI") + PauliSum.from_label("IX", c)
            res = close(GeneratorSet("pauli", [g]))
            assert res.dimension == 1
            with pytest.raises(ClosureError) as info:
                res.contains(g)
            assert str(info.value) == message
            with pytest.raises(ClosureError):
                res.basis

    def test_identity_term_counts_toward_u_bound(self):
        # I + X and Z generate u(2); the bound used to be 4**N - 1 = 3, which
        # stopped the closure at {Z, (I+X)/sqrt2, Y} without X or I
        i, x, z = (PauliSum.from_label(c) for c in "IXZ")
        gen = GeneratorSet("pauli", [i + x, z])
        res = close(gen)
        assert (res.dimension, res.theoretical_cap, res.universality) == (4, 4, "universal")
        assert res.contains(x)[0] and res.contains(i)[0]
        dense = close(GeneratorSet("dense", [g.to_dense() for g in gen.generators]))
        assert (dense.dimension, dense.theoretical_cap, dense.universality) == (4, 4, "universal")
        res = close(GeneratorSet("pauli", [i * 2.0, z]))
        assert (res.dimension, res.universality) == (2, "non_universal")


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return m + m.conj().T


@pytest.fixture
def absorb_widths(monkeypatch):
    """The candidate widths handed to the dense _Basis.absorb while the test runs."""
    widths, absorb = set(), closure._Basis.absorb

    def recording(self, cands):
        widths.add(cands.shape[1])
        return absorb(self, cands)

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
                _, resid = res.contains((a @ b - b @ a) / 2j)
                assert resid < 1e-9, resid

    def test_contains_residual_matches_complex_projection(self, closed):
        block, rng = closed
        # and the bare N=4 chain, whose rows are kept on four sign keys
        gens = [g.to_dense() for g in uniform_qubit_generators(4).generators]
        assert len(closure._DenseEngine(gens).slices) == 4
        for res in (block, close(GeneratorSet("dense", gens))):
            basis = res.basis
            for _ in range(5):
                m = random_hermitian(rng, len(basis[0]))
                m /= np.linalg.norm(m)
                r = m - sum(np.trace(b.conj().T @ m) * b for b in basis)
                member, resid = res.contains(m)
                assert not member
                assert resid == pytest.approx(np.linalg.norm(r), rel=1e-10)

    def test_complex_generators_absorb_full_width(self, absorb_widths, closed):
        # absorb_widths is requested first, so it records the closure in closed;
        # state 4 is isolated, so its 6 coordinates coupling it to the 3x3 block
        # form a sign key that no generator reaches
        assert closed[0].dimension == 9
        assert absorb_widths == {10}

    def test_contains_rejects_non_hermitian(self, closed):
        res, _ = closed
        with pytest.raises(ClosureError, match="Hermitian"):
            res.contains(np.triu(np.ones((4, 4))))

    def test_low_rank_margin_is_logged(self, caplog):
        # commuting generators; against the first, the second one's residual
        # (about 1e-5) is accepted and the third one's (about 5e-7) rejected
        gen = GeneratorSet("dense", [np.diag([1.0, 0, 0]), np.diag([1.0, 1e-5, 0]),
                                     np.diag([1.0, 0, 5e-7])])
        with caplog.at_level("WARNING", logger="liectrl"):
            res = close(gen)
        assert res.dimension == 2
        assert res.rank_margin == pytest.approx(20, rel=1e-6)
        assert "rank margin" in caplog.text

    @pytest.mark.parametrize("d", [2, 3])
    def test_dimension_above_the_cap_raises(self, monkeypatch, d):
        # with no rank floor, roundoff residuals pass as new directions
        monkeypatch.setattr(closure, "_ABS_FLOOR", 0.0)
        rng = np.random.default_rng(d)
        gen = GeneratorSet("dense", [random_hermitian(rng, d) for _ in range(2)])
        with pytest.raises(ClosureError, match=rf"found \d+ directions, above its cap {d * d}"):
            close(gen)

    def test_result_keeps_rows_per_sign_key(self):
        # d = 35, universal: one dimension x d**2 matrix of its rows would take 11.4 MiB
        gen = build_hubbard_chain_controls("boson", 5, 3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = close(gen)
            retained, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert res.dimension == 35 ** 2
        assert retained < 4 * 2 ** 20, retained
        assert peak < 10 * 2 ** 20, peak

    def test_margin_inf_without_rejections_and_none_on_pauli(self):
        assert close(GeneratorSet("dense", [X, Z])).rank_margin == np.inf
        assert close(uniform_qubit_generators(3)).rank_margin is None


class TestDenseGrading:
    """Real generators close on the real-symmetric/imaginary-antisymmetric grading."""

    @pytest.mark.parametrize("n,pattern", [(3, ()), (3, (1,)), (4, ()), (4, (1, 4))])
    def test_grades_match_exact_backend(self, n, pattern):
        dense = close(GeneratorSet(
            "dense", [g.to_dense() for g in uniform_qubit_generators(n, pattern).generators]))
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
        # d = 10: the p/k grading and two sign gradings split the 100 coordinates
        # into eight slices, one of 9, six of 12 and one of 19
        assert close(build_hubbard_chain_controls("fermion", 5, 2)).dimension == 100
        assert absorb_widths == {9, 12, 19}

    @pytest.mark.parametrize("case", ["fermion 5/2", "chain N=4"])
    def test_basis_elements_lie_in_one_sign_key(self, case):
        gens = (build_hubbard_chain_controls("fermion", 5, 2).generators if case == "fermion 5/2"
                else [g.to_dense() for g in uniform_qubit_generators(4).generators])
        key = sign_keys(gens)
        # real generators: a real entry of key k has character (k, 0), an imaginary one (k, 1)
        upper = np.triu(np.ones(key.shape, dtype=bool))
        n_keys = len(np.unique(key[upper])) + len(np.unique(key[np.triu(upper, 1)]))
        assert len(closure._DenseEngine(gens).slices) == n_keys == {"fermion 5/2": 8,
                                                                    "chain N=4": 4}[case]
        for b in close(GeneratorSet("dense", gens)).basis:
            support = {(k, 0) for k in key[b.real != 0]} | {(k, 1) for k in key[b.imag != 0]}
            assert len(support) == 1, support

    def test_full_support_complex_set_absorbs_full_width(self, absorb_widths):
        rng = np.random.default_rng(5)
        gens = [random_hermitian(rng, 4) for _ in range(2)]
        assert all(np.all(g != 0) for g in gens)
        assert close(GeneratorSet("dense", gens)).dimension == 16
        assert absorb_widths == {16}

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sign_graded_sets_match_oracle(self, seed):
        # sparse real generators, each zero off one parity class of a random sign pattern
        rng = np.random.default_rng(seed)
        lam = rng.permutation([0, 0, 0, 1, 1, 1])
        gens = []
        for e in rng.integers(0, 2, 3):
            m = np.triu(rng.normal(size=(6, 6)) * (rng.random((6, 6)) < 0.6))
            m = m + m.T
            m[(lam[:, None] ^ lam) != e] = 0
            gens.append(m)
        assert len(closure._DenseEngine(gens).slices) >= 4
        assert close(GeneratorSet("dense", gens)).dimension == dense_closure_dimension(gens)

    def test_two_to_one_chain_n6_meets_the_exact_dimension(self):
        # [H_X, H_Z, sum 2 Z_j Z_{j+1} + sum Z_j Z_{j+2}] is mirror invariant, so at most
        # 2079, never universal; the exact backend gives 2024 ("two primes") in about 6 s
        n = 6
        terms = {(0, 3 << j): 2.0 for j in range(n - 1)}
        terms.update({(0, 5 << j): 1.0 for j in range(n - 2)})
        gens = [g.to_dense() for g in uniform_qubit_generators(n).generators[:2]]
        gens.append(PauliSum(n, terms).to_dense())
        res = close(GeneratorSet("dense", gens))
        assert (res.dimension, res.universality) == (2024, "non_universal")
        assert res.rank_margin >= closure._MARGIN_WARN

    def test_debug_record_names_keys_and_widest_slice(self, caplog):
        with caplog.at_level("DEBUG", logger="liectrl"):
            close(build_hubbard_chain_controls("fermion", 5, 2))
        assert caplog.records[-1].getMessage().endswith(", 8 keys, widest slice 19")


def lemma_targets(n):
    """Lemma B2's T_N: X_j + X_{N+1-j} and Z_j + Z_{N+1-j} on the left half and the
    center, and Z_j Z_{j+1} + its mirror on the left half."""
    masks = [m for j in range(-(-n // 2)) for m in ((1 << j, 0), (0, 1 << j))]
    masks += [(0, 3 << j) for j in range(n // 2)]
    return [PauliSum(n, {m: 1.0}) + PauliSum(n, {m: 1.0}).reflection_image() for m in masks]


LOCAL_GENERATORS = {  # X_j, Z_j and Z_j Z_{j+1} as (x_mask, z_mask), keyed by N
    n: [(1 << j, 0) for j in range(n)] + [(0, 1 << j) for j in range(n)]
    + [(0, 3 << j) for j in range(n - 1)] for n in range(2, 7)}


class TestCertificates:
    @pytest.mark.parametrize("n", sorted(LOCAL_GENERATORS))
    def test_local_generators_reach_every_string(self, n):
        assert len(string_bfs(LOCAL_GENERATORS[n])) == 4 ** n - 1
        # without Z_j Z_{j+1}, only the 3N one-site strings
        assert len(string_bfs(LOCAL_GENERATORS[n][: 2 * n])) == 3 * n

    def test_local_generators_end_a_universal_run(self):
        res = check_universality_qubit(8, {1})
        assert (res.dimension, res.universality) == (4 ** 8 - 1, "universal")
        assert (res.certificate, res.primes) == ("local generators", PRIMES[:1])

    def test_mirror_bound_ends_a_symmetric_run_on_one_prime(self, monkeypatch):
        monkeypatch.setattr(closure, "MAX_MIRRORED_QUBITS", 2)  # no "mirrored locals" stop
        res = check_universality_qubit(6, ())
        assert (res.dimension, res.universality) == (2079, "non_universal")
        assert (res.certificate, res.primes) == ("mirror bound", PRIMES[:1])

    def test_mirror_bound_ends_the_bare_n7_chain_on_one_prime(self, monkeypatch):
        monkeypatch.setattr(closure, "MAX_MIRRORED_QUBITS", 2)
        res = check_universality_qubit(7, ())
        assert (res.dimension, res.universality) == (reflection_sector_dimension(7), "non_universal")
        assert (res.dimension, res.certificate, res.primes, res.depth_reached) == (
            8318, "mirror bound", PRIMES[:1], 24)

    def test_mirrored_locals_end_the_bare_n7_chain_at_depth_14(self):
        res = check_universality_qubit(7, ())
        assert (res.dimension, res.universality) == (reflection_sector_dimension(7), "non_universal")
        assert (res.certificate, res.primes, res.depth_reached, res._runs) == (
            "mirrored locals", PRIMES[:1], 14, ())

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("n", range(3, 8))
    def test_lemma_targets_close_to_their_mirror_bound(self, n, p):
        # the premise of the "mirrored locals" stop: closure_p(T_N) is all of M_N plus
        # T_N's part along R-perp (the middle bond of even N); N=8 is pinned in the CI
        terms = [closure._integer_terms(t, n) for t in lemma_targets(n)]
        bound = closure._mirror_bound(closure._center_parts(terms, n), n)
        assert bound == reflection_sector_dimension(n)
        dim, _, stop = closure._bfs(closure._ModPEngine(n, terms, p, orbits=True), bound)
        assert (dim, stop) == (bound, "bound")

    @pytest.mark.parametrize("labels", [["XI+IX", "ZI+IZ", "II+ZZ"],
                                        ["XI+IX", "ZI+IZ", "II", "XZ+ZX"]],
                             ids=["identity and R part", "pure identity"])
    def test_exact_center_rank_ends_a_run_at_the_bound(self, labels):
        # the bound counts the rank of the generators' I and R-perp parts: one generator
        # holding both adds 1, and the identity string is no R part; a bound one too
        # high on either ran these on both primes to "two primes"
        gens = [sum((PauliSum.from_label(t) for t in g.split("+")), PauliSum(2)) for g in labels]
        res = close(GeneratorSet("pauli", gens))
        dense = close(GeneratorSet("dense", [g.to_dense() for g in gens]))
        assert (res.dimension, res.universality) == (dense.dimension, "non_universal") == (
            9, "non_universal")
        assert (res.certificate, res.primes) == ("mirror bound", PRIMES[:1])

    def test_invariant_set_below_its_bound_runs_every_prime(self):
        res = close(GeneratorSet("pauli", [PauliSum.from_label("XX")]))
        assert reflection_sector_check(res, 2)
        assert (res.dimension, res.certificate, res.primes) == (1, "two primes", PRIMES)

    def test_universal_contains_reads_the_identity_component(self):
        i, x, z = (PauliSum.from_label(c) for c in "IXZ")
        assert close(GeneratorSet("pauli", [i + x, z])).contains(i) == (True, 0.0)
        res = check_universality_qubit(4, {3, 4})
        assert res.contains(PauliSum.from_label("IIII")) == (False, 1.0)
        member, resid = res.contains(PauliSum.from_label("IIII") + PauliSum.from_label("XYZI"))
        assert not member and resid == pytest.approx(np.sqrt(0.5))
        assert len(res.basis) == 255

    def test_certificate_names_and_log(self, caplog):
        i, x, z = (PauliSum.from_label(c) for c in "IXZ")
        with caplog.at_level("DEBUG", logger="liectrl"):
            # X is in the span only at depth 2, where the rank reaches 4
            exact = close(GeneratorSet("pauli", [i + x, z]))
            dense = close(GeneratorSet("dense", [X, Z]))
        assert (exact.certificate, dense.certificate) == ("full rank", "float rank")
        assert [r.levelname for r in caplog.records] == ["DEBUG", "DEBUG"]
        assert caplog.records[0].getMessage() == ("closure (unlabelled): universal, dimension 4 "
                                                  f"by full rank at depth 2, primes {PRIMES[:1]}")


class TestReflectionChecks:
    def test_pattern_symmetry_predicate(self):
        assert check_universality_qubit(4, set()).pattern_reflection_symmetric
        assert check_universality_qubit(4, {2, 3}).pattern_reflection_symmetric
        assert not check_universality_qubit(4, {3, 4}).pattern_reflection_symmetric
        assert check_universality_qubit(3, {2}).pattern_reflection_symmetric
        assert not check_universality_qubit(6, {1, 3, 5}).pattern_reflection_symmetric

    @pytest.mark.parametrize("n, pattern", [(4, {2, 3}), (5, {1, 2})],
                             ids=["symmetric", "asymmetric"])
    def test_chain_check_is_the_closure(self, n, pattern):
        # the chain entry point adds nothing to close(): every field but the timing agrees
        got = check_universality_qubit(n, pattern)
        want = close(uniform_qubit_generators(n, pattern))
        assert got.pattern_reflection_symmetric == ({n + 1 - j for j in pattern} == pattern)
        for f in dataclasses.fields(ClosureResult):
            if f.name == "elapsed_s":
                continue
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name == "_runs":  # echelon rows, compared by content
                a, b = ([(r.p, r.pivots, r.row, r.key, r.val) for r in x] for x in (a, b))
            np.testing.assert_equal(a, b, err_msg=f.name)

    def test_sector_check_on_every_n5_reflection_class(self):
        classes = {min(p, tuple(sorted(6 - j for j in p))) for r in range(6)
                   for p in itertools.combinations(range(1, 6), r)}
        assert len(classes) == 20
        for p in classes:
            res = check_universality_qubit(5, p)
            assert reflection_sector_check(res, 5) == ({6 - j for j in p} == set(p)), p

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

    def test_single_site_is_its_own_mirror(self):
        res = close(GeneratorSet("pauli", [PauliSum.from_label("X"), PauliSum.from_label("Z")]))
        assert reflection_sector_check(res, 1)

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
        res = close(uniform_qubit_generators(4))
        assert all(res.contains(t) == (True, 0.0) for t in lemma_targets(4))

    def test_odd_chain_includes_center(self):
        res = close(uniform_qubit_generators(5))
        assert all(res.contains(t) == (True, 0.0) for t in lemma_targets(5))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_targets_lie_in_the_bounded_space(self, n, monkeypatch):
        # the second route: a "mirror bound" closure spans every mirror
        # invariant, traceless element, orthogonal to R if every generator is.
        # For even N the middle bond Z_{N/2} Z_{N/2+1} is a palindrome, so
        # H_ZZ is not orthogonal to R and neither is that bond's target
        k = np.arange(2 ** n)
        reflection = np.zeros((2 ** n, 2 ** n))
        reflection[[int(f"{i:0{n}b}"[::-1], 2) for i in k], k] = 1.0
        gen = uniform_qubit_generators(n)
        orthogonal = [abs(np.trace(reflection @ g.to_dense())) < 1e-12 for g in gen.generators]
        assert all(orthogonal) == (n % 2 == 1)
        ops = [PauliSum.single_site(n, j, c) for j in range(1, -(-n // 2) + 1) for c in "XZ"]
        ops += [PauliSum.from_label("I" * (j - 1) + "ZZ" + "I" * (n - j - 1))
                for j in range(1, n // 2 + 1)]
        for op in ops:
            target = op + op.reflection_image()
            assert target.reflection_image().terms == target.terms
            dense = target.to_dense()
            assert abs(np.trace(dense)) < 1e-12
            assert not all(orthogonal) or abs(np.trace(reflection @ dense)) < 1e-12
        monkeypatch.setattr(closure, "MAX_MIRRORED_QUBITS", 2)  # no "mirrored locals" stop
        res = close(gen)
        assert res.certificate == "mirror bound"
        assert all(res.contains(t) == (True, 0.0) for t in lemma_targets(n))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_three_body_target_is_a_member(self, n):
        # the closure-side half of the ZXZ claim: sum_j Z_{j-1} X_j Z_{j+1}
        # lies in the algebra of the bare uniform chain
        res = close(uniform_qubit_generators(n))
        assert res.certificate == "mirrored locals"
        assert res.contains(zxz_hamiltonian(n)) == (True, 0.0)

    def test_unpaired_boundary_not_member(self):
        res = close(uniform_qubit_generators(3))
        _, resid = res.contains(PauliSum.single_site(3, 1, "X"))
        assert not resid < 1e-8


class TestBackendAgreement:
    def test_random_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            n = int(rng.integers(2, 5))
            gen = random_pauli_set(rng, n, int(rng.integers(2, 4)))
            pauli_dim = close(gen).dimension
            dense = GeneratorSet("dense", [g.to_dense() for g in gen.generators])
            assert close(dense).dimension == pauli_dim

    def test_random_mirror_invariant_sets(self):
        # the mirror-bound stop against the dense backend, off the chains
        rng = np.random.default_rng(5)
        certificates = []
        for _ in range(12):
            n = int(rng.integers(2, 5))
            gen = random_pauli_set(rng, n, int(rng.integers(2, 4)))
            gen = GeneratorSet("pauli", [g + g.reflection_image() for g in gen.generators])
            res = close(gen)
            assert reflection_sector_check(res, n)
            certificates.append(res.certificate)
            dense = GeneratorSet("dense", [g.to_dense() for g in gen.generators])
            assert close(dense).dimension == res.dimension
        assert {"mirror bound", "two primes"} <= set(certificates)


class TestOrbitRows:
    # invariant sets are closed on one key per mirror orbit; these check the
    # unfolded rows through routes that do not read the engine
    @pytest.fixture(scope="class")
    def closed(self):
        rng = np.random.default_rng(19)
        out = []
        for _ in range(10):
            n = int(rng.integers(2, 6))
            gen = random_pauli_set(rng, n, int(rng.integers(2, 4)))
            gen = GeneratorSet("pauli", [g + g.reflection_image() for g in gen.generators])
            out.append((gen, close(gen)))
        assert {res.certificate for _, res in out} == {"mirror bound", "two primes"}
        return out

    def test_generators_and_their_brackets_are_members(self, closed):
        for gen, res in closed:
            gens = gen.generators
            for g in gens + [commutator(a, b) for a, b in itertools.combinations(gens, 2)]:
                member, resid = res.contains(g)
                assert member and resid < 1e-12, (gen.generators, g, resid)

    def test_antisymmetric_element_is_not_a_member(self, closed):
        for gen, res in closed:
            n = gen.n_qubits
            x1_minus_xn = PauliSum.single_site(n, 1, "X") - PauliSum.single_site(n, n, "X")
            member, resid = res.contains(x1_minus_xn)
            assert not member and resid > 0.5, (gen.generators, resid)

    def test_basis_orthonormal_and_mirror_invariant(self, closed):
        for gen, res in closed:
            basis = res.basis
            assert len(basis) == res.dimension
            keys = sorted({k for b in basis for k in b.terms})
            m = np.array([[b.terms.get(k, 0.0) for k in keys] for b in basis])
            np.testing.assert_allclose(2 ** gen.n_qubits * m @ m.T, np.eye(len(basis)),
                                       atol=1e-9)
            for b in basis:
                image = b.reflection_image().terms
                assert image.keys() == b.terms.keys()
                assert max(abs(image[k] - c) for k, c in b.terms.items()) < 1e-12


class TestMirroredLocals:
    """Results at the mirror bound, in closed form, against the rows of a run to the bound."""

    CASES = {  # label: (N, chain generators kept, extra generators, certificate)
        "bare 3": (3, 3, [], "mirrored locals"), "bare 4": (4, 3, [], "mirrored locals"),
        "bare 5": (5, 3, [], "mirrored locals"), "bare 6": (6, 3, [], "mirrored locals"),
        # the generators' I/R-perp parts of rank 2, rank 1 with both, rank 1 on I alone
        "4 + I + 3 ZIIZ": (4, 3, [[("IIII", 1.0), ("ZIIZ", 3.0)]], "mirrored locals"),
        "5 + 2 I + 3 XIIIX": (5, 3, [[("IIIII", 2.0), ("XIIIX", 3.0)]], "mirrored locals"),
        "5 + I": (5, 3, [[("IIIII", 1.0)]], "mirrored locals"),
        # the middle bond only with an identity term: T_4 is never in the span
        "4, I + IZZI": (4, 2, [[("IIII", 1.0), ("IZZI", 1.0)], [("ZZII", 1.0), ("IIZZ", 1.0)]],
                        "mirror bound"),
        "2, II + ZZ": (2, 2, [[("II", 1.0), ("ZZ", 1.0)]], "mirror bound"),
    }

    @pytest.fixture(scope="class", params=sorted(CASES))
    def pair(self, request):
        n, kept, extra, certificate = self.CASES[request.param]
        gens = uniform_qubit_generators(n).generators[:kept] + [
            sum((PauliSum.from_label(t, c) for t, c in g), PauliSum(n)) for g in extra]
        gen = GeneratorSet("pauli", gens)
        res = close(gen)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(closure, "MAX_MIRRORED_QUBITS", 2)
            forced = close(gen)
        assert (res.certificate, forced.certificate) == (certificate, "mirror bound")
        assert res.dimension == forced.dimension and res._runs == forced._runs == ()
        # the rows at the bound, read through the lift as those of any other result
        engine = closure._ModPEngine(n, res._terms, PRIMES[0], orbits=True)
        assert closure._bfs(engine, res.dimension)[::2] == (res.dimension, "bound")
        r = engine.rows
        rows = closure._Rows(PRIMES[0], r.pivots, *engine.unfold(r.row, r.key, r.val))
        return n, res, dataclasses.replace(res, certificate=None, _runs=(rows,))

    def test_contains_matches_the_rows(self, pair):
        n, stopped, rows = pair
        rng = np.random.default_rng(n)
        keys = np.arange(4 ** n)
        r_strings = [PauliSum(n, {(int(k) >> n, int(k) & (2 ** n - 1)): 1.0})
                     for k in keys[closure._r_strings(keys, n)]]
        x1, xn = PauliSum.single_site(n, 1, "X"), PauliSum.single_site(n, n, "X")
        zxz = [zxz_hamiltonian(n)] if n >= 3 else []
        elements = lemma_targets(n) + zxz + [x1 - xn, x1, PauliSum(n, {(0, 0): 1.0}),
                                             sum(r_strings, PauliSum(n)),
                                             r_strings[0] - r_strings[-1],
                                             r_strings[1] + PauliSum(n, {(0, 0): 2.0})]
        elements += [PauliSum(n, {(int(x), int(z)): float(c) for x, z, c in zip(
            rng.integers(2 ** n, size=6), rng.integers(2 ** n, size=6), rng.normal(size=6))})
            for _ in range(10)]
        for e in elements:
            got, want = stopped.contains(e), rows.contains(e)
            assert got[0] == want[0] and abs(got[1] - want[1]) < 1e-12, (e, got, want)
        assert all(stopped.contains(e) == (True, 0.0) for e in zxz)
        assert not stopped.contains(x1 - xn)[0]

    def test_basis_spans_the_rows(self, pair):
        n, stopped, rows = pair
        basis = stopped.basis
        assert len(basis) == stopped.dimension == rows._runs[0].n_rows
        # orthonormal, so len(basis) independent members span the rows' space
        index = {}
        coo = [(i, index.setdefault(k, len(index)), c)
               for i, b in enumerate(basis) for k, c in b.terms.items()]
        row, col, val = np.array(coo).T
        m = scipy.sparse.csr_matrix((val, (row.astype(int), col.astype(int))))
        gram = (2 ** n * m @ m.T - scipy.sparse.identity(len(basis))).tocoo()
        assert np.abs(gram.data).max(initial=0.0) < 1e-12
        assert max(rows.contains(b)[1] for b in basis) < 1e-12
        for b in basis:
            image = b.reflection_image().terms
            assert image.keys() == b.terms.keys()
            assert max(abs(image[k] - c) for k, c in b.terms.items()) < 1e-12


class TestInputChecks:
    @pytest.mark.parametrize("make, message", [
        (lambda: GeneratorSet("dense", [X, np.eye(3)]), "inconsistent generator dimensions"),
        (lambda: GeneratorSet("sparse", [X]), "unknown representation 'sparse'"),
        (lambda: GeneratorSet("dense", [X]).n_qubits,
         "n_qubits only defined for the pauli representation"),
        (lambda: close(GeneratorSet("pauli", [PauliSum(8, dict.fromkeys(
            [(x, z) for x in range(256) for z in range(256)], 1.0))])),
         f"pauli generator has more than {closure._MAX_GENERATOR_TERMS} terms"),
        (lambda: close(GeneratorSet("dense", [0 * X, 0 * Z])), "all generators are zero"),
        (lambda: close(uniform_qubit_generators(2)).contains(PauliSum.from_label("XXX")),
         "qubit count mismatch"),
        (lambda: close(GeneratorSet("dense", [X, Z])).contains(np.eye(4)),
         "matrix dimension mismatch"),
        (lambda: uniform_qubit_generators(1), "chain needs at least 2 qubits"),
        (lambda: uniform_qubit_generators(3, [4, 1]), "break pattern [1, 4] out of range 1..3"),
        (lambda: uniform_qubit_generators(3, [0]), "break pattern [0] out of range 1..3"),
        (lambda: reflection_sector_check(close(uniform_qubit_generators(3)), 4),
         "qubit count mismatch"),
        # numpy's ValueError from the truth value of an array
        (lambda: GeneratorSet("dense", np.zeros((0, 2, 2))), "empty generator set"),
        # TypeError from range
        (lambda: uniform_qubit_generators(4.0), "chain needs an integer qubit count, got 4.0"),
        # AttributeError
        (lambda: GeneratorSet("pauli", [np.eye(2)]),
         "pauli generators must be PauliSum values, got ndarray"),
        # numpy's TypeError
        (lambda: GeneratorSet("dense", [PauliSum.from_label("X")]),
         "dense generators must be numeric matrices"),
        # IndexError
        (lambda: GeneratorSet("dense", [1.0]), "dense generator is not a finite Hermitian matrix"),
        # accepted as site 1, labelled break=True
        (lambda: uniform_qubit_generators(4, [True]),
         "break pattern sites must be integers, got [True]"),
        # TypeError from the shift
        (lambda: uniform_qubit_generators(4, [1.0]),
         "break pattern sites must be integers, got [1.0]"),
        # AttributeError and TypeError
        (lambda: close(uniform_qubit_generators(2)).contains(np.eye(4)),
         "ndarray on a pauli result"),
        (lambda: close(GeneratorSet("dense", [X, Z])).contains(PauliSum.from_label("X")),
         "PauliSum on a dense result"),
        # TypeError from len, and for a PauliSum (it has a len) from iterating it
        (lambda: GeneratorSet("dense", 1.0), "generators must be a sequence, got float"),
        (lambda: GeneratorSet("pauli", 1.0), "generators must be a sequence, got float"),
        (lambda: GeneratorSet("pauli", PauliSum.from_label("X")),
         "generators must be a sequence, got PauliSum"),
    ], ids=["dense shapes", "representation", "dense n_qubits", "too many terms", "all zero",
            "pauli contains", "dense contains", "short chain", "break past N", "break 0",
            "reflection N", "empty stack", "float chain", "pauli ndarray", "dense PauliSum",
            "dense scalar", "break bool", "break float", "pauli contains matrix",
            "dense contains pauli", "dense bare scalar", "pauli bare scalar", "pauli bare sum"])
    def test_rejected_with_message(self, make, message):
        with pytest.raises(ClosureError) as info:
            make()
        assert str(info.value) == message

    @pytest.mark.parametrize("representation, zero, one", [
        ("pauli", PauliSum(2), PauliSum.from_label("XI")),
        ("dense", 1e-15 * np.eye(4), np.kron(X, np.eye(2))),
    ], ids=["pauli", "dense"])
    def test_all_zero_generators_rejected_on_both_backends(self, representation, zero, one):
        # the pauli backend used to answer dimension 0, "non_universal", "two primes"
        with pytest.raises(ClosureError) as info:
            GeneratorSet(representation, [zero, zero])
        assert str(info.value) == "all generators are zero"
        # one zero generator among others is kept and adds nothing
        assert close(GeneratorSet(representation, [zero, one])).dimension == 1
