import numpy as np
import pytest

from liectrl import sectors
from liectrl.closure import _MARGIN_WARN, GeneratorSet, close
from liectrl.sectors import (
    NNN_LABELS,
    SectorBasis,
    SectorError,
    build_hubbard_chain_controls,
    build_nnn_lattice,
    build_spinful_controls,
    hopping,
    lattice_mode,
    number_op,
    transfer,
    verify_nnn_identity,
)

from oracles import dense_closure_dimension


def jw_fock_operator(n_modes, mode):
    """Annihilation operator on the full Fock space via Jordan-Wigner.

    Independent construction used as the sign oracle: mode 0 is the
    leftmost tensor factor, parity string to the left of the mode.
    """
    lower = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
    z = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    out = np.array([[1.0 + 0j]])
    for k in range(n_modes):
        if k < mode:
            out = np.kron(out, z)
        elif k == mode:
            out = np.kron(out, lower)
        else:
            out = np.kron(out, eye)
    return out


def project_to_sector(op, basis):
    """Restrict a Fock-space operator to the sector's occupation states."""
    n = basis.n_modes
    idx = []
    for occ in basis.states:
        k = 0
        for bit in occ:
            k = (k << 1) | bit
        idx.append(k)
    return op[np.ix_(idx, idx)]


def boson_fock_operator(n_modes, mode, n_max):
    """Annihilation operator a = sum_k sqrt(k) |k-1><k| of one mode on the
    product of (n_max + 1)-level mode spaces, mode 0 the leftmost factor."""
    lower = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)
    out = np.eye(1)
    for k in range(n_modes):
        out = np.kron(out, lower if k == mode else np.eye(n_max + 1))
    return out


def project_boson_to_sector(op, basis):
    """Restrict an operator on the truncated boson Fock space to the sector."""
    levels = (basis.n_particles + 1,) * basis.n_modes
    idx = [int(np.ravel_multi_index(occ, levels)) for occ in basis.states]
    return op[np.ix_(idx, idx)]


class TestBasis:
    def test_fermion_dimensions(self):
        b = SectorBasis.build("fermion", 5, 2)
        assert b.dim == 10
        assert all(sum(s) == 2 for s in b.states)
        assert sorted(b.states) == list(b.states)

    def test_boson_dimensions(self):
        b = SectorBasis.build("boson", 3, 2)
        assert b.dim == 6
        assert all(sum(s) == 2 for s in b.states)

    def test_index_bijection(self):
        b = SectorBasis.build("boson", 4, 3)
        assert len(b.index) == b.dim
        for k, s in enumerate(b.states):
            assert b.index[s] == k

    def test_budget(self):
        with pytest.raises(SectorError):
            SectorBasis.build("boson", 12, 12)


class TestLadderOperators:
    def test_fermion_two_mode_hopping(self):
        b = SectorBasis.build("fermion", 2, 1)
        np.testing.assert_allclose(hopping(b, 1, 2),
                                   [[0, 1], [1, 0]], atol=1e-15)

    def test_boson_two_mode_hopping(self):
        b = SectorBasis.build("boson", 2, 2)
        got = hopping(b, 1, 2)
        s2 = np.sqrt(2)
        want = [[0, s2, 0], [s2, 0, s2], [0, s2, 0]]
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_fermion_long_range_sign(self):
        b = SectorBasis.build("fermion", 3, 2)
        got = hopping(b, 1, 3)
        i_110 = b.index[(1, 1, 0)]
        i_011 = b.index[(0, 1, 1)]
        assert got[i_110, i_011] == pytest.approx(-1.0)

    def test_number_ops(self):
        b = SectorBasis.build("fermion", 2, 1)
        np.testing.assert_allclose(number_op(b, 1), np.diag([0, 1.0]))
        bb = SectorBasis.build("boson", 2, 2)
        diag = np.diag(number_op(bb, 1)).real
        assert sorted(diag) == [0, 1, 2]

    def test_total_number_is_identity_multiple(self):
        for kind, m, n in [("fermion", 4, 2), ("boson", 3, 3)]:
            b = SectorBasis.build(kind, m, n)
            total = sum(number_op(b, i) for i in range(1, m + 1))
            np.testing.assert_allclose(total, n * np.eye(b.dim), atol=1e-14)

    def test_mode_out_of_range(self):
        b = SectorBasis.build("fermion", 2, 1)
        with pytest.raises(SectorError):
            number_op(b, 3)
        with pytest.raises(SectorError):
            hopping(b, 0, 1)

    def test_fermion_matches_jordan_wigner_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(8):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(1, m))
            b = SectorBasis.build("fermion", m, n)
            i, j = rng.choice(m, size=2, replace=False) + 1
            c_i = jw_fock_operator(m, i - 1)
            c_j = jw_fock_operator(m, j - 1)
            want = project_to_sector(c_i.conj().T @ c_j, b)
            np.testing.assert_allclose(transfer(b, int(i), int(j)), want, atol=1e-13)

    def test_boson_matches_ladder_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(8):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            b = SectorBasis.build("boson", m, n)
            i, j = (int(k) for k in rng.choice(m, size=2, replace=False) + 1)
            for x, y in ((i, j), (j, i)):
                a_x = boson_fock_operator(m, x - 1, n)
                a_y = boson_fock_operator(m, y - 1, n)
                want = project_boson_to_sector(a_x.conj().T @ a_y, b)
                np.testing.assert_allclose(transfer(b, x, y), want, rtol=0, atol=1e-13)

    def test_canonical_commutation_on_sector(self):
        # [n_i, c_i^dag c_j] = c_i^dag c_j projected identity
        for kind in ("fermion", "boson"):
            b = SectorBasis.build(kind, 3, 2)
            n1 = number_op(b, 1)
            t = transfer(b, 1, 2)
            np.testing.assert_allclose(n1 @ t - t @ n1, t, atol=1e-13)


class TestChainControls:
    def test_rejects_even_sites(self):
        with pytest.raises(SectorError, match="odd"):
            build_hubbard_chain_controls("fermion", 4, 2)
        with pytest.raises(SectorError, match="odd"):
            build_spinful_controls(4, 2)

    def test_generator_structure(self):
        gen = build_hubbard_chain_controls("fermion", 5, 2)
        assert len(gen.generators) == 5
        for g in gen.generators:
            np.testing.assert_allclose(g, g.conj().T, atol=1e-14)
        # particle number commutes with everything built
        b = gen.basis
        total = sum(number_op(b, i) for i in range(1, b.n_modes + 1))
        for g in gen.generators:
            assert np.max(np.abs(g @ total - total @ g)) < 1e-12

    # dimensions frozen from the all-pairs dense SVD oracle
    @pytest.mark.parametrize("kind,n,p,want", [
        ("fermion", 3, 1, 9),
        ("fermion", 5, 2, 100),
        ("boson", 3, 2, 36),
    ])
    def test_universality_dimensions(self, kind, n, p, want):
        gen = build_hubbard_chain_controls(kind, n, p)
        res = close(gen)
        assert res.dimension == want
        assert res.universality == "universal"
        assert res.theoretical_cap == want

    @pytest.mark.parametrize("n,p", [(3, 2), (5, 3), (7, 2)])
    def test_boson_interaction_covers_every_site(self, n, p):
        # H_U = sum over all N sites of n_i (n_i - 1), so the site reflection keeps it
        gen = build_hubbard_chain_controls("boson", n, p)
        h_u, b = gen.generators[4], gen.basis
        want = [sum(k * (k - 1) for k in occ) for occ in b.states]
        np.testing.assert_array_equal(h_u, np.diag(want))
        mirror = np.zeros((b.dim, b.dim))
        for col, occ in enumerate(b.states):
            mirror[b.index[occ[::-1]], col] = 1.0
        np.testing.assert_array_equal(mirror @ h_u @ mirror.T, h_u)

    def test_oracle_agreement_small(self):
        gen = build_hubbard_chain_controls("boson", 3, 2)
        live = [g for g in gen.generators if np.linalg.norm(g) > 1e-12]
        assert dense_closure_dimension(live) == 36

    def test_interaction_ablation_shrinks(self):
        gen = build_hubbard_chain_controls("fermion", 5, 2)
        free = close(GeneratorSet("dense", gen.generators[:4]))
        assert free.dimension == 25  # u(5) in the two-particle representation
        assert free.dimension < 100
        genb = build_hubbard_chain_controls("boson", 3, 2)
        freeb = close(GeneratorSet("dense", genb.generators[:4]))
        assert freeb.dimension == 9
        assert freeb.dimension < 36


class TestDenseRankDecisions:
    # (dimension, depth_reached) frozen from the real-stacked float closure
    # that preceded Hermitian coordinates; they guard the BFS order
    @pytest.mark.parametrize("case,want", [
        (("fermion", 5, 2), (100, 7)),
        (("fermion", 7, 2), (441, 11)),
        (("boson", 5, 2), (225, 9)),
        (("spinful", 3, 1), (36, 5)),
        (("spinful", 3, 2), (225, 9)),
    ])
    def test_dimension_depth_and_margin(self, case, want):
        kind, n, p = case
        if kind == "spinful":
            tilted = build_spinful_controls(n, p, 1.0, 0.0)
            uniform = build_spinful_controls(n, p, 0.0, 1.0)
            gen = GeneratorSet("dense", tilted.generators + [uniform.generators[5]])
        else:
            gen = build_hubbard_chain_controls(kind, n, p)
        res = close(gen)
        assert (res.dimension, res.depth_reached) == want
        # smallest accepted residual over largest rejected one
        assert res.rank_margin > 100
        # the stored basis is orthonormal in the Hilbert-Schmidt product
        rows = np.array(res.basis).reshape(res.dimension, -1)
        gram = rows.conj() @ rows.T
        assert np.max(np.abs(gram - np.eye(res.dimension))) <= 1e-13


BENCH_SECTOR_CLOSURES = [("fermion", 5, 2), ("fermion", 7, 2), ("fermion", 7, 3),
                         ("boson", 5, 2), ("boson", 7, 2), ("boson", 5, 3),
                         ("spinful", 3, 1), ("spinful", 3, 2)]


@pytest.mark.parametrize("case", BENCH_SECTOR_CLOSURES, ids=lambda c: "%s-%d-%d" % c)
def test_bench_sector_closures_clear_the_margin_warning(case, caplog):
    kind, n, p = case
    if kind == "spinful":
        tilted = build_spinful_controls(n, p, 1.0, 0.0)
        uniform = build_spinful_controls(n, p, 0.0, 1.0)
        gen = GeneratorSet("dense", tilted.generators + [uniform.generators[5]])
    else:
        gen = build_hubbard_chain_controls(kind, n, p)
    with caplog.at_level("WARNING", logger="liectrl"):
        res = close(gen)
    assert res.universality == "universal"
    assert res.rank_margin >= _MARGIN_WARN
    assert not caplog.records


class TestSpinfulControls:
    def test_universality_with_both_field_profiles(self):
        tilted = build_spinful_controls(3, 1, 1.0, 0.0)
        uniform = build_spinful_controls(3, 1, 0.0, 1.0)
        gens = tilted.generators + [uniform.generators[5]]
        res = close(GeneratorSet("dense", gens))
        assert res.dimension == 36
        assert res.universality == "universal"

    def test_dropping_spin_mixing_decouples(self):
        tilted = build_spinful_controls(3, 1, 1.0, 0.0)
        uniform = build_spinful_controls(3, 1, 0.0, 1.0)
        gens = tilted.generators + [uniform.generators[5]]
        no_bx = [g for k, g in enumerate(gens) if k != 4]
        res = close(GeneratorSet("dense", no_bx))
        assert res.dimension == 18
        assert res.dimension < 36

    def test_uniform_bz_does_not_commute_with_bx(self):
        tilted = build_spinful_controls(3, 1, 1.0, 0.0)
        uniform = build_spinful_controls(3, 1, 0.0, 1.0)
        bx, bz = tilted.generators[4], uniform.generators[5]
        assert np.linalg.norm(bx @ bz - bz @ bx) > 1.0


class TestNNNLattice:
    def test_lattice_validation(self):
        with pytest.raises(SectorError):
            build_nnn_lattice(2, 3)
        with pytest.raises(SectorError):
            build_nnn_lattice(3, 4)

    def test_single_particle_dimension(self):
        gen = build_nnn_lattice(3, 3)
        assert gen.basis.dim == 9

    def test_species1_potential_sites(self):
        gen = build_nnn_lattice(3, 3)
        h1 = gen.generators[0]
        diag = np.real(np.diag(h1))
        want = np.zeros(9)
        for r, c in [(1, 1), (1, 3), (3, 1), (3, 3)]:
            want[lattice_mode(r, c, 3) - 1] = 1.0
        np.testing.assert_allclose(diag, want)

    def test_vertical_hopping_class_bonds(self):
        gen = build_nnn_lattice(3, 3)
        basis = gen.basis
        h3 = gen.generators[6]  # vertical bonds from odd rows
        nz = {(int(i), int(j)) for i, j in zip(*np.nonzero(h3)) if i < j}

        def state_index(mode_1based):
            occ = [0] * basis.n_modes
            occ[mode_1based - 1] = 1
            return basis.index[tuple(occ)]

        want = set()
        for r in (1, 3):  # odd rows; r=3 has no downward neighbor on 3x3
            if r + 1 > 3:
                continue
            for c in range(1, 4):
                a = state_index(lattice_mode(r, c, 3))
                b = state_index(lattice_mode(r + 1, c, 3))
                want.add((min(a, b), max(a, b)))
        assert nz == want

    def test_unknown_label(self):
        with pytest.raises(SectorError):
            verify_nnn_identity("99X", 3, 3)

    def test_labels_keep_their_order(self):
        # the recipes' keys, in the order the benchmark's sector workload slices
        assert NNN_LABELS == ("14R", "23L", "23R", "14L", "32R", "41L", "41R", "32L")

    @pytest.mark.parametrize("label", NNN_LABELS)
    def test_identities_3x3(self, label):
        passed, scale = verify_nnn_identity(label, 3, 3)
        assert passed
        assert scale == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("label", NNN_LABELS)
    def test_identities_5x5(self, label):
        passed, scale = verify_nnn_identity(label, 5, 5)
        assert passed
        assert scale == pytest.approx(1.0, abs=1e-9)

    def test_swapped_hopping_fails_exactly(self, monkeypatch):
        # 14R with the even-column hopping in place of the odd one builds the
        # 14L hopping, which is zero where the 14R target is not
        (outer, (mu_b, _), inner2), species, direction = sectors._NNN_RECIPES["14R"]
        monkeypatch.setitem(sectors._NNN_RECIPES, "14R",
                            ((outer, (mu_b, 5), inner2), species, direction))
        assert verify_nnn_identity("14R", 5, 5) == (False, 0.0)
        assert verify_nnn_identity("14L", 5, 5) == (True, 1.0)


class TestInputChecks:
    @pytest.mark.parametrize("make, message", [
        (lambda: SectorBasis.build("fermion", 0, 0), "need n_modes >= 1 and n_particles >= 0"),
        (lambda: SectorBasis.build("fermion", 2, 3), "more fermions than modes"),
        (lambda: SectorBasis.build("anyon", 2, 1), "unknown sector kind 'anyon'"),
        (lambda: transfer(SectorBasis.build("fermion", 3, 1), 2, 2),
         "transfer needs distinct modes; use number_op"),
        (lambda: build_hubbard_chain_controls("spinful_fermion", 3, 1),
         "spinless chain supports fermion or boson kinds"),
        # these returned 6, 3 and 7
        (lambda: lattice_mode(0, 9, 3), "need row >= 1 and col in 1..3, got (0, 9)"),
        (lambda: lattice_mode(2, 0, 3), "need row >= 1 and col in 1..3, got (2, 0)"),
        (lambda: lattice_mode(2, 4, 3), "need row >= 1 and col in 1..3, got (2, 4)"),
        # returned 2.5
        (lambda: lattice_mode(1.5, 1, 3), "need integer row, col and cols, got (1.5, 1, 3)"),
        # equal to transfer(b, 1, 2) and hopping(b, 1, 2)
        (lambda: transfer(SectorBasis.build("fermion", 3, 1), 1.5, 2),
         "mode must be an integer, got 1.5"),
        (lambda: hopping(SectorBasis.build("fermion", 3, 1), True, 2),
         "mode must be an integer, got True"),
        # numpy's IndexError
        (lambda: number_op(SectorBasis.build("fermion", 3, 1), 1.5),
         "mode must be an integer, got 1.5"),
        # Python's TypeError from comb or range
        (lambda: SectorBasis.build("fermion", 3.0, 1),
         "need integer n_modes and n_particles, got (3.0, 1)"),
        (lambda: SectorBasis.build("fermion", True, 1),
         "need integer n_modes and n_particles, got (True, 1)"),
        (lambda: build_nnn_lattice(3.0, 3), "need integer rows and cols, got (3.0, 3)"),
        (lambda: build_hubbard_chain_controls("fermion", 5.0, 2),
         "need an integer n_sites, got 5.0"),
    ], ids=["no modes", "too many fermions", "unknown kind", "same mode", "spinful chain",
            "lattice row 0", "lattice col 0", "lattice col past cols", "lattice float row",
            "transfer float mode", "hopping bool mode", "number float mode",
            "float modes", "bool modes", "float lattice", "float sites"])
    def test_rejected_with_message(self, make, message):
        with pytest.raises(SectorError) as info:
            make()
        assert str(info.value) == message
