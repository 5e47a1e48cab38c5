import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liectrl.pauli import (
    MAX_DENSE_QUBITS,
    PauliError,
    PauliSum,
    PauliTerm,
    arrays_to_sum,
    commutator,
    commutator_arrays,
    multiply,
    reflect_masks,
    sum_to_arrays,
    terms_commute,
)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


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
        t = PauliTerm.from_label(label)
        terms[(t.x_mask, t.z_mask)] = float(rng.integers(-3, 4)) or 1.0
    return PauliSum(n_qubits, terms)


class TestTermProduct:
    def test_single_qubit_table_matches_dense(self):
        for a in "IXYZ":
            for b in "IXYZ":
                ta, tb = PauliTerm.from_label(a), PauliTerm.from_label(b)
                got = multiply(ta, tb).to_dense()
                np.testing.assert_allclose(got, MATS[a] @ MATS[b], atol=1e-15)

    def test_x_times_z_is_minus_i_y(self):
        prod = multiply(PauliTerm.from_label("X"), PauliTerm.from_label("Z"))
        np.testing.assert_allclose(prod.to_dense(), -1j * Y, atol=1e-15)

    def test_identity_is_neutral(self):
        rng = np.random.default_rng(0)
        ident = PauliTerm.from_label("III")
        for _ in range(20):
            label = "".join(rng.choice(list("IXYZ"), size=3))
            t = PauliTerm.from_label(label)
            assert multiply(ident, t) == t
            assert multiply(t, ident) == t

    def test_two_qubit_phase_cancellation(self):
        # (X1 Z2)(Z1 X2) = (XZ)(ZX) per qubit = (-iY)(iY) = Y1 Y2
        a = PauliTerm.from_label("XZ")
        b = PauliTerm.from_label("ZX")
        prod = multiply(a, b)
        assert prod == PauliTerm.from_label("YY")

    def test_size_mismatch(self):
        with pytest.raises(PauliError):
            multiply(PauliTerm.from_label("X"), PauliTerm.from_label("XX"))

    def test_hermiticity_flag(self):
        assert PauliTerm.from_label("XYZ").is_hermitian()
        anti = PauliTerm(1, 1, 1, 0)  # plain XZ product, phase +1
        assert not anti.is_hermitian()

    def test_random_products_match_dense(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            la = "".join(rng.choice(list("IXYZ"), size=4))
            lb = "".join(rng.choice(list("IXYZ"), size=4))
            ta, tb = PauliTerm.from_label(la), PauliTerm.from_label(lb)
            np.testing.assert_allclose(
                multiply(ta, tb).to_dense(),
                dense_from_label(la) @ dense_from_label(lb),
                atol=1e-12,
            )


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
        hx = sum((PauliSum.single_site(n, j, "X") for j in range(1, n + 1)), PauliSum.zero(n))
        hz = sum((PauliSum.single_site(n, j, "Z") for j in range(1, n + 1)), PauliSum.zero(n))
        got = commutator(hx, hz)
        want = sum((PauliSum.single_site(n, j, "Y", -1.0) for j in range(1, n + 1)), PauliSum.zero(n))
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
        assert set() == {k for k in got.terms} - {
            (PauliTerm.from_label(s).x_mask, PauliTerm.from_label(s).z_mask) for s in labels
        }
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

    def test_term_budget(self):
        n = MAX_DENSE_QUBITS + 1
        with pytest.raises(PauliError, match="dense budget"):
            PauliTerm(n, 1, 1 << (n - 1)).to_dense()

    def test_sums_with_y_terms_match_kron_exactly(self):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            for _ in range(15):
                y = PauliSum.single_site(n, int(rng.integers(1, n + 1)), "Y", 5.0)
                p = random_sum(rng, n, 6) + y  # |coefficients| <= 3 cannot cancel it
                assert any(x & z for x, z in p.terms)
                want = sum(dense_from_label(PauliTerm(n, x, z).label(), c)
                           for (x, z), c in p.terms.items())
                np.testing.assert_array_equal(p.to_dense(), want)

    def test_term_products_exact_at_every_phase(self):
        rng = np.random.default_rng(12)
        phases = set()
        for _ in range(60):
            n = int(rng.integers(1, 5))
            la = "".join(rng.choice(list("IXYZ"), size=n))
            lb = "".join(rng.choice(list("IXYZ"), size=n))
            ta, tb = PauliTerm.from_label(la), PauliTerm.from_label(lb)
            for extra in range(4):
                shifted = PauliTerm(n, ta.x_mask, ta.z_mask, ta.phase_exp + extra)
                prod = multiply(shifted, tb)
                phases.add(prod.phase_exp)
                np.testing.assert_array_equal(
                    prod.to_dense(), 1j ** extra * (dense_from_label(la) @ dense_from_label(lb)))
        assert phases == {0, 1, 2, 3}

    def test_roundtrip_decompose(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            p = random_sum(rng, n, 4)
            dense = p.to_dense()
            # independent decomposition: project onto literal kron strings
            from itertools import product as iproduct
            rebuilt = {}
            for labels in iproduct("IXYZ", repeat=n):
                label = "".join(labels)
                coeff = np.trace(dense_from_label(label).conj().T @ dense) / 2**n
                assert abs(coeff.imag) < 1e-12
                if abs(coeff.real) > 1e-12:
                    t = PauliTerm.from_label(label)
                    rebuilt[(t.x_mask, t.z_mask)] = coeff.real
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

    def test_text_roundtrip(self):
        p = PauliSum.from_label("XIZ", 1.0) + PauliSum.from_label("IYI", -0.25)
        q = PauliSum.from_text(p.to_text())
        assert q.terms == pytest.approx(p.terms)
        assert q.n_qubits == 3

    def test_text_example_format(self):
        assert PauliSum.from_label("XIZ").to_text() == "1 XIZ"

    @pytest.mark.parametrize("key", [(4, 0), (0, 7), (-1, 0)])
    def test_masks_outside_register_rejected(self, key):
        # to_dense used to drop the stray bits: {(4, 0): 1} on 2 qubits became the identity
        with pytest.raises(PauliError, match="outside the qubit register"):
            PauliSum(2, {key: 1.0})

    def test_from_text_rejects_ragged(self):
        with pytest.raises(PauliError):
            PauliSum.from_text("1.0 XI\n1.0 XIZ")

    @pytest.mark.parametrize("line", ["XI", "1.0 XI ZZ", "one XI", "1.0", "1.0 XQ"])
    def test_from_text_rejects_malformed_line(self, line):
        with pytest.raises(PauliError, match=f"line 2 {line!r}"):
            PauliSum.from_text(f"1.0 ZZ\n{line}\n-2 XX")


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

    def test_terms_commute(self):
        assert terms_commute(PauliTerm.from_label("XX"), PauliTerm.from_label("YY"))
        assert not terms_commute(PauliTerm.from_label("XI"), PauliTerm.from_label("ZI"))
