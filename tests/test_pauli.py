from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liectrl.closure import GeneratorSet, close
from liectrl.pauli import (
    PauliError,
    PauliSum,
    arrays_to_sum,
    commutator,
    commutator_arrays,
    reflect_masks,
    sum_to_arrays,
)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def all_labels(n):
    return ["".join(letters) for letters in product("IXYZ", repeat=n)]


def masks(label):
    (key,) = PauliSum.from_label(label).terms
    return key


def dense_from_label(label, coeff=1.0):
    out = np.array([[coeff]], dtype=complex)
    for ch in label:
        out = np.kron(out, MATS[ch])
    return out


def random_sum(rng, n_qubits, n_terms):
    terms = {}
    for _ in range(n_terms):
        label = "".join(rng.choice(list("IXYZ"), size=n_qubits))
        if set(label) == {"I"}:
            continue
        terms[masks(label)] = float(rng.integers(-3, 4)) or 1.0
    return PauliSum(n_qubits, terms)


class TestCommutator:
    def test_sum_x_with_zz(self):
        # (1/2i)[X1+X2, Z1Z2] = -(Y1 Z2 + Z1 Y2)
        hx = PauliSum.from_label("XI") + PauliSum.from_label("IX")
        hzz = PauliSum.from_label("ZZ")
        got = commutator(hx, hzz)
        want = PauliSum.from_label("YZ", -1.0) + PauliSum.from_label("ZY", -1.0)
        assert got.terms == pytest.approx(want.terms)

    def test_uniform_fields(self):
        n = 3
        hx = sum((PauliSum.single_site(n, j, "X") for j in range(1, n + 1)), PauliSum(n))
        hz = sum((PauliSum.single_site(n, j, "Z") for j in range(1, n + 1)), PauliSum(n))
        got = commutator(hx, hz)
        want = sum((PauliSum.single_site(n, j, "Y", -1.0) for j in range(1, n + 1)), PauliSum(n))
        assert got.terms == pytest.approx(want.terms)

    def test_hyy_hzz_three_site_strings(self):
        # open chain N=4: (1/2i)[H_YY, H_ZZ] lands on ZXY + YXZ strings
        n = 4
        hyy = PauliSum(4)
        hzz = PauliSum(4)
        for j in range(1, n):
            hyy = hyy + PauliSum.from_label("I" * (j - 1) + "YY" + "I" * (n - j - 1))
            hzz = hzz + PauliSum.from_label("I" * (j - 1) + "ZZ" + "I" * (n - j - 1))
        got = commutator(hyy, hzz)
        labels = {"ZXYI", "YXZI", "IZXY", "IYXZ"}
        assert set() == {k for k in got.terms} - {masks(s) for s in labels}
        coeffs = set(round(c, 12) for c in got.terms.values())
        assert len(coeffs) == 1  # all four strings share one coefficient

    def test_commutator_matches_dense(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            a = random_sum(rng, n, 3)
            b = random_sum(rng, n, 3)
            got = commutator(a, b).to_dense()
            A, B = a.to_dense(), b.to_dense()
            np.testing.assert_allclose(got, (A @ B - B @ A) / 2j, atol=1e-12)

    def test_bilinearity_and_antisymmetry_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            a, b, c = (random_sum(rng, n, 3) for _ in range(3))
            lhs = commutator(a + b, c)
            rhs = commutator(a, c) + commutator(b, c)
            assert lhs.terms == pytest.approx(rhs.terms)
            anti = commutator(b, a) * -1.0
            assert commutator(a, b).terms == pytest.approx(anti.terms)

    def test_jacobi_identity_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            a, b, c = (random_sum(rng, n, 3) for _ in range(3))
            total = (
                commutator(a, commutator(b, c))
                + commutator(b, commutator(c, a))
                + commutator(c, commutator(a, b))
            )
            assert total.terms == pytest.approx({}, abs=1e-12)


class TestDense:
    def test_z_and_x_single_qubit(self):
        np.testing.assert_allclose(PauliSum.from_label("Z").to_dense(), np.diag([1, -1]))
        np.testing.assert_allclose(PauliSum.from_label("X").to_dense(), X)

    def test_hzz_diagonal_n3(self):
        h = PauliSum.from_label("ZZI") + PauliSum.from_label("IZZ")
        got = np.real(np.diag(h.to_dense()))
        # basis order |000>,|001>,... with qubit 1 leftmost
        want = [2, 0, -2, 0, 0, -2, 0, 2]
        np.testing.assert_allclose(got, want)

    def test_budget(self):
        with pytest.raises(PauliError):
            PauliSum.single_site(12, 1, "X").to_dense()

    def test_sums_with_y_terms_match_kron_exactly(self):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            labels = {masks(s): s for s in all_labels(n)}
            for _ in range(15):
                y = PauliSum.single_site(n, int(rng.integers(1, n + 1)), "Y", 5.0)
                p = random_sum(rng, n, 6) + y  # |coefficients| <= 3 cannot cancel it
                assert any(x & z for x, z in p.terms)
                want = sum(dense_from_label(labels[key], c) for key, c in p.terms.items())
                np.testing.assert_array_equal(p.to_dense(), want)

    def test_roundtrip_decompose(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            p = random_sum(rng, n, 4)
            dense = p.to_dense()
            # independent decomposition: project onto literal kron strings
            rebuilt = {}
            for label in all_labels(n):
                coeff = np.trace(dense_from_label(label).conj().T @ dense) / 2**n
                assert abs(coeff.imag) < 1e-12
                if abs(coeff.real) > 1e-12:
                    rebuilt[masks(label)] = coeff.real
            assert rebuilt == pytest.approx(p.terms, abs=1e-12)


class TestReflection:
    def test_examples(self):
        assert PauliSum.from_label("XII").reflection_image().terms == PauliSum.from_label("IIX").terms
        assert PauliSum.from_label("IXI").reflection_image().terms == PauliSum.from_label("IXI").terms
        assert PauliSum.from_label("ZZII").reflection_image().terms == PauliSum.from_label("IIZZ").terms

    @given(st.integers(1, 6), st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_involution(self, n, seed):
        rng = np.random.default_rng(seed)
        p = random_sum(rng, n, 3)
        back = p.reflection_image().reflection_image()
        assert back.terms == pytest.approx(p.terms)

    def test_automorphism(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a, b = random_sum(rng, n, 3), random_sum(rng, n, 3)
            lhs = commutator(a, b).reflection_image()
            rhs = commutator(a.reflection_image(), b.reflection_image())
            assert lhs.terms == pytest.approx(rhs.terms)


class TestSumBasics:
    def test_inner_product_scaling(self):
        p = PauliSum.from_label("XI", 2.0) + PauliSum.from_label("ZZ", -1.0)
        assert p.hs_inner(p) == pytest.approx(4 * (4.0 + 1.0))
        dense = p.to_dense()
        assert np.trace(dense @ dense).real == pytest.approx(p.hs_inner(p))

    def test_prune(self):
        p = PauliSum.from_label("X", 1.0) + PauliSum.from_label("X", -1.0)
        assert len(p) == 0

    def test_repr_labels_terms_in_key_order(self):
        p = (PauliSum.from_label("XZ", 2.0) + PauliSum.from_label("YI", -1.5)
             + PauliSum.from_label("IZ", 0.25))
        assert repr(p) == "+0.25*IZ -1.5*YI +2*XZ"
        assert repr(PauliSum(2)) == "PauliSum(N=2, 0)"

    @pytest.mark.parametrize("label", [s for n in (1, 2, 3) for s in all_labels(n)])
    def test_label_parsers_agree_on_masks(self, label):
        n = len(label)
        want = (sum(1 << j for j, ch in enumerate(label) if ch in "XY"),
                sum(1 << j for j, ch in enumerate(label) if ch in "YZ"))
        assert PauliSum.from_label(label, 0.5).terms == {want: 0.5}
        assert PauliSum(n, {want: 0.5}).coeff(label) == 0.5
        assert PauliSum(n, {(want[0] ^ 1, want[1]): 0.5}).coeff(label) == 0.0
        sites = [PauliSum.single_site(n, j + 1, ch).terms for j, ch in enumerate(label)]
        assert tuple(np.bitwise_or.reduce([key for (key,) in sites])) == want

    @pytest.mark.parametrize("key", [(4, 0), (0, 7), (-1, 0)])
    def test_masks_outside_register_rejected(self, key):
        # to_dense used to drop the stray bits: {(4, 0): 1} on 2 qubits became the identity
        with pytest.raises(PauliError, match="outside the qubit register"):
            PauliSum(2, {key: 1.0})

    @pytest.mark.parametrize("make", [
        lambda: PauliSum.from_label("X", np.nan),
        lambda: PauliSum.from_label("X", -np.inf),
        lambda: arrays_to_sum(1, np.array([1], np.uint64), np.array([0], np.uint64),
                              np.array([np.nan])),
        lambda: PauliSum.from_label("X") * np.nan,
        lambda: PauliSum.from_label("X", 1e308) + PauliSum.from_label("X", 1e308),
    ], ids=["label nan", "label -inf", "arrays nan", "times nan", "overflow"])
    def test_non_finite_coefficient_rejected(self, make):
        # a NaN coefficient used to be pruned, so X * nan was the zero sum
        with pytest.raises(PauliError, match="finite"):
            make()

    def test_scalar_product_prunes_per_coefficient(self):
        # a scalar below PRUNE_TOL used to give the zero sum
        p = PauliSum.from_label("XI", 1e6) + PauliSum.from_label("IZ", 1.0)
        assert (p * 1e-13).terms == {(1, 0): pytest.approx(1e-7)}
        assert (1e-13 * p).terms == (p * 1e-13).terms


class TestArrayKernels:
    def test_commutator_arrays_matches_scalar(self):
        from oracles import scalar_commutator as commutator
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            a, b = random_sum(rng, n, 4), random_sum(rng, n, 4)
            want = commutator(a, b)
            xs, zs, cs = commutator_arrays(*sum_to_arrays(a), *sum_to_arrays(b))
            got = arrays_to_sum(n, xs, zs, cs)
            assert got.terms == pytest.approx(want.terms)

    def test_commutator_arrays_one_term_per_anticommuting_pair(self):
        from oracles import scalar_commutator
        rng = np.random.default_rng(11)
        # [XI, ZZ] and [IX, YY] both give YZ; [XI, YY] and [IX, ZZ] both give ZY
        repeats = (PauliSum.from_label("XI") + PauliSum.from_label("IX"),
                   PauliSum.from_label("ZZ") + PauliSum.from_label("YY"))
        cases = [repeats] + [(random_sum(rng, n, 4), random_sum(rng, n, 4))
                             for n in rng.integers(1, 7, 30)]
        for a, b in cases:
            n, (xs1, zs1, cs1), (xs2, zs2, cs2) = a.n_qubits, sum_to_arrays(a), sum_to_arrays(b)
            l1, l2 = rng.integers(0, 50, len(cs1)), rng.integers(0, 50, len(cs2))
            want = []  # (x, z, coeff, label) of each anticommuting pair, from the scalar oracle
            for i, key1 in enumerate(zip(xs1.tolist(), zs1.tolist())):
                for j, key2 in enumerate(zip(xs2.tolist(), zs2.tolist())):
                    term = scalar_commutator(PauliSum(n, {key1: cs1[i]}), PauliSum(n, {key2: cs2[j]}))
                    want += [(*key, c, l1[i] + l2[j]) for key, c in term.terms.items()]
            got = commutator_arrays(xs1, zs1, cs1, xs2, zs2, cs2)
            assert sorted(zip(*(g.tolist() for g in got))) == sorted(w[:3] for w in want)
            got = commutator_arrays(xs1, zs1, cs1, xs2, zs2, cs2, labels=(l1, l2))
            assert sorted(zip(*(g.tolist() for g in got))) == sorted(want)

    def test_arrays_to_sum_adds_repeated_strings(self):
        xs, zs = np.array([1, 1, 2, 2], np.uint64), np.array([0, 0, 1, 1], np.uint64)
        got = arrays_to_sum(2, xs, zs, np.array([0.5, 0.25, 1.0, -1.0]))
        assert got.terms == {(1, 0): 0.75}  # the cancelled string is pruned

    def test_sum_to_arrays_of_zero_sum(self):
        xs, zs, cs = sum_to_arrays(PauliSum(3))
        assert (len(xs), len(zs), len(cs)) == (0, 0, 0)
        assert (xs.dtype, zs.dtype, cs.dtype) == (np.uint64, np.uint64, np.float64)

    def test_reflect_masks_matches_scalar(self):
        rng = np.random.default_rng(8)
        n = 5
        masks = rng.integers(0, 2**n, size=20).astype(np.uint64)
        got = reflect_masks(masks, n)
        for m, g in zip(masks, got):
            assert int(g) == int(format(int(m), f"0{n}b")[::-1], 2)  # reversed bit string
            p = PauliSum(n, {(int(m), 0): 1.0})
            (xr, _), = p.reflection_image().terms
            assert int(g) == xr


class TestInputChecks:
    @pytest.mark.parametrize("make, message", [
        (lambda: PauliSum(0), "n_qubits must be in [1, 64], got 0"),
        (lambda: PauliSum(65), "n_qubits must be in [1, 64], got 65"),
        (lambda: PauliSum.single_site(2, 3, "X"), "site 3 out of range 1..2"),
        (lambda: PauliSum.single_site(2, 0, "Z"), "site 0 out of range 1..2"),
        (lambda: PauliSum.single_site(3, 1, "W"), "invalid Pauli character 'W'"),
        (lambda: PauliSum.from_label("XIZ").coeff("XI"), "label length does not match qubit count"),
        (lambda: PauliSum.from_label("XQ"), "invalid Pauli character 'Q'"),
        (lambda: PauliSum.from_label("XI").coeff("XQ"), "invalid Pauli character 'Q'"),
        (lambda: PauliSum.from_label("X") + PauliSum.from_label("XX"),
         "size mismatch in PauliSum addition"),
        (lambda: PauliSum.from_label("X").hs_inner(PauliSum.from_label("XX")),
         "size mismatch in inner product"),
        (lambda: commutator(PauliSum.from_label("X"), PauliSum.from_label("XX")),
         "size mismatch in commutator"),
        # TypeError from the mask shift
        (lambda: PauliSum(2.0, {(1, 0): 1.0}).to_dense(), "n_qubits must be an integer, got 2.0"),
        (lambda: close(GeneratorSet("pauli", [PauliSum(2.0, {(1, 0): 1.0})])),
         "n_qubits must be an integer, got 2.0"),
        (lambda: PauliSum.single_site(3, 1.5, "X"), "site must be an integer, got 1.5"),
        # accepted as one qubit and as site 1
        (lambda: PauliSum(True, {(1, 0): 1.0}), "n_qubits must be an integer, got True"),
        (lambda: PauliSum.single_site(3, True, "X"), "site must be an integer, got True"),
    ], ids=["N 0", "N 65", "site past N", "site 0", "site kind",
            "coeff label", "label char", "coeff char", "add", "hs_inner", "commutator",
            "N float to_dense", "N float close", "site float", "N bool", "site bool"])
    def test_rejected_with_message(self, make, message):
        with pytest.raises(PauliError) as info:
            make()
        assert str(info.value) == message
