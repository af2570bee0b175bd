import itertools
import os
import sys
from collections import Counter

import numpy as np
import pytest

from trisim import classify
from trisim.classify import (
    canonicalize,
    gram_condition_check,
    is_class_matrix,
    verify_j_symmetric,
)
from trisim.core import (
    ConjugationMap,
    ConsistencyError,
    InputError,
    PreconditionError,
    TridiagonalSymmetric,
    random_class_matrix,
)
from trisim.moments import spectral_moments

# the brute-force Gram determinant, pinned by test_core.TestGramDet
from test_core import gram_det

CHAIN2 = np.array([[0, 1], [1, 0]], dtype=complex)


def relative_gram_det(vecs):
    return gram_det(vecs) / np.prod([np.vdot(v, v).real for v in vecs])


def e0(d):
    v = np.zeros(d, dtype=complex)
    v[0] = 1.0
    return v


class TestIsClassMatrix:
    def test_minimal_member(self):
        ok, tri, _ = is_class_matrix(CHAIN2)
        assert ok
        assert np.array_equal(tri.diag, [0, 0])
        assert np.array_equal(tri.offdiag, [1])

    def test_rejects_antisymmetric(self):
        ok, tri, reason = is_class_matrix([[0, 1], [-1, 0]])
        assert not ok and tri is None
        assert "symmetric" in reason

    def test_rejects_zero_offdiagonal(self):
        ok, _, reason = is_class_matrix([[1, 0], [0, 2]])
        assert not ok
        assert "a_0" in reason

    def test_rejects_wide_band(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 2] = m[2, 0] = 1
        m[0, 1] = m[1, 0] = m[1, 2] = m[2, 1] = 1
        ok, _, reason = is_class_matrix(m)
        assert not ok
        assert "tridiagonal" in reason
        # near the float64 limit, where |m[0, 0]| overflows though each of
        # its parts is finite, the off-band entry is still what fails
        m *= 1e308
        m[0, 0] = 1.3e308 * (1 + 1j)
        assert is_class_matrix(m)[::2] == (False, "not tridiagonal: off-band entry of magnitude 1.000e+308")

    def test_rejects_dim_1(self):
        with pytest.raises(InputError):
            is_class_matrix([[1]])

    def test_relative_threshold(self):
        # a stray off-band entry far below eps * ||M|| does not kick the
        # matrix out
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = m[1, 0] = m[1, 2] = m[2, 1] = 1e6
        m[0, 2] = m[2, 0] = 1e-6
        ok, _, _ = is_class_matrix(m)
        assert ok

    def test_band_check_agrees_with_dense(self):
        cases = [random_class_matrix(400 + seed, 2 + seed % 7) for seed in range(30)]
        weak = random_class_matrix(7, 5)
        weak.offdiag[1] = 1e-12
        cases.append(weak)
        # at eps 0.4 the threshold is 0.4 to 0.8 of max|entry|, so some of
        # the random |a_k| in [0.5, 2] vanish and some do not; both branches
        # judge c m as m at every scale, a subnormal one too
        grid = [(c, eps) for c in (1.0, 1e150, 1e-150, 1e-300, 1e-310) for eps in (1e-9, 0.4)]
        for (c, eps), base in itertools.product(grid, cases):
            m = base if c == 1.0 else TridiagonalSymmetric(c * base.diag, c * base.offdiag)
            ok, tri, reason = is_class_matrix(m, eps)
            ok_dense, tri_dense, reason_dense = is_class_matrix(m.dense(), eps)
            assert (ok, reason) == (ok_dense, reason_dense)
            ok_base, _, reason_base = is_class_matrix(base, eps)
            assert (ok, reason.split(" (")[0]) == (ok_base, reason_base.split(" (")[0])
            if ok:
                assert tri is m
                assert np.array_equal(tri_dense.diag, m.diag)
                # sub + (super - sub) / 2 is exact, subnormal entries too
                assert np.array_equal(tri_dense.offdiag, m.offdiag)
            else:
                assert tri is None and tri_dense is None
        assert "a_1 vanishes" in is_class_matrix(weak)[2]
        # members at the float64 edges, in both document kinds: a subnormal
        # one, and one whose |b_0| overflows though each of its parts is finite
        for m in (
            TridiagonalSymmetric([1e-310, 0, 0], [1e-310, 1e-318]),
            TridiagonalSymmetric([1.3e308 * (1 + 1j), 0, 0], [1e308, 1e308]),
        ):
            assert is_class_matrix(m, 1e-9)[::2] == is_class_matrix(m.dense(), 1e-9)[::2] == (True, "ok")

    @pytest.mark.parametrize("dense", [False, True], ids=["banded", "dense"])
    def test_zero_matrix_has_a_vanishing_a_0(self, dense):
        m = TridiagonalSymmetric(np.zeros(3), np.zeros(2))
        ok, tri, reason = is_class_matrix(m.dense() if dense else m)
        assert (ok, tri, reason) == (False, None, "sub-diagonal entry a_0 vanishes (|a_0| = 0.000e+00)")

    @staticmethod
    def reference_dense(m, eps):
        """The dense branch as it read with np.triu / np.tril masks: A is
        divided by its largest real or imaginary part, each part as a real,
        and every test is against eps times its largest |entry|, at every
        finite scale."""
        a = np.asarray(m, dtype=complex)
        scale = max(float(np.abs(a.real).max()), float(np.abs(a.imag).max())) or 1.0
        unit = a.real / scale + 1j * (a.imag / scale)
        thresh = eps * float(np.abs(unit).max())
        off_band = float(np.abs(np.triu(unit, 2) + np.tril(unit, -2)).max())
        if off_band > thresh:
            return False, None, f"not tridiagonal: off-band entry of magnitude {off_band * scale:.3e}"
        asym = float(np.abs(unit - unit.T).max())
        if asym > thresh:
            return False, None, f"not complex symmetric: max |m[k,l] - m[l,k]| = {asym * scale:.3e}"
        sub = a.diagonal(1)
        small = np.abs(unit.diagonal(1)) <= thresh
        if small.any():
            k = int(small.argmax())
            return False, None, f"sub-diagonal entry a_{k} vanishes (|a_{k}| = {abs(sub[k]):.3e})"
        # the midpoint as sub + (super - sub) / 2: (sub + super) / 2 halves
        # a subnormal entry inexactly, even for an exactly symmetric input
        return True, (a.diagonal().copy(), sub + 0.5 * (a.diagonal(-1) - sub)), "ok"

    @staticmethod
    def dense_cases():
        """Members, off-band entries on both sides of the threshold,
        asymmetric and vanishing sub-diagonal entries, at four scales, a
        subnormal one too, and near the float64 limit, with |m[0, 0]|
        past it; in C order, Fortran order and as a transposed view."""
        rng = np.random.default_rng(27)
        for seed in range(24):
            d = 2 + seed % 11
            m = random_class_matrix(2700 + seed, d).dense()
            variants = [m]
            if d > 2:
                for size in (1e-10, 1e-9, 2e-9, 1e-3, 5.0):
                    k = int(rng.integers(0, d - 2))
                    l = int(rng.integers(k + 2, d))
                    wide = m.copy()
                    wide[l, k] += size * np.exp(2j * np.pi * rng.uniform())
                    variants.append(wide)
                    if seed % 2:
                        wide = wide.copy()
                        wide[k, l] = wide[l, k]  # still symmetric
                        variants.append(wide)
            for size in (1e-10, 1e-6):
                lop = m.copy()
                k = int(rng.integers(0, d - 1))
                lop[k, k + 1] += size
                variants.append(lop)
            gap = m.copy()
            k = int(rng.integers(0, d - 1))
            gap[k, k + 1] = gap[k + 1, k] = 1e-12 * (1 + 1j)
            variants.append(gap)
            for v in variants:
                edge = v * (1e308 / np.abs(v).max())
                edge[0, 0] = 1.3e308 * (1 + 1j)
                for w in (v, v * 1e150, v * 1e-150, v * 1e-310, edge):
                    yield from (w, np.asfortranarray(w), w.T)

    def test_dense_band_test_matches_the_mask_formula(self):
        outcomes = Counter()
        for m in self.dense_cases():
            for eps in (1e-9, 0.4):
                ok, tri, reason = is_class_matrix(m, eps)
                ok_ref, bands, reason_ref = self.reference_dense(m, eps)
                assert (ok, reason) == (ok_ref, reason_ref)
                if ok:
                    assert np.array_equal(tri.diag, bands[0])
                    assert np.array_equal(tri.offdiag, bands[1])
                else:
                    assert tri is None
                outcomes[reason.split(":")[0].split(" (")[0]] += 1
        # every verdict occurs, so each branch was compared
        assert {"ok", "not tridiagonal", "not complex symmetric"} <= set(outcomes)
        assert any(r.startswith("sub-diagonal entry") for r in outcomes)
        # a member is one at every scale, 1e-310 too
        for seed, c in itertools.product(range(24), (1.0, 1e150, 1e-150, 1e-310)):
            m = random_class_matrix(2700 + seed, 2 + seed % 11).dense()
            assert is_class_matrix(c * m)[::2] == (True, "ok")


class TestVerifyJSymmetric:
    def test_real_symmetric_plain_conjugation(self):
        assert verify_j_symmetric(CHAIN2, ConjugationMap.standard(2)) == pytest.approx(0)

    def test_complex_symmetric_example(self):
        a = np.array([[1j, 1], [1, -1j]])
        assert verify_j_symmetric(a, ConjugationMap.standard(2)) == pytest.approx(0)

    def test_nilpotent_jordan_block_fails(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        assert verify_j_symmetric(a, ConjugationMap.standard(2)) == pytest.approx(1)

    @pytest.mark.parametrize(
        "a, want",
        [pytest.param(s * np.array([[0, 1], [0, 0]], dtype=complex), 1.0, id=str(s)) for s in (1e-300, 1e300, 1.7e308)]
        + [pytest.param([[1.3e308 * (1 + 1j), 1e308], [0, 0]], 1 / (1.3 * np.sqrt(2)), id="modulus-overflow")],
    )
    def test_residual_is_relative(self, a, want):
        # the residual is relative to max|A|: a Jordan block reads 1 at
        # every scale, and max|A| counts also where it overflows float64
        assert verify_j_symmetric(a, ConjugationMap.standard(2)) == pytest.approx(want, rel=1e-12)

    def test_residual_below_normal_range(self):
        # numpy divides a complex array by a real as A * (1 / max|A|), which
        # overflows below max|A| = 2^-1024; the zero matrix is J-symmetric
        j = ConjugationMap.standard(2)
        for scale in (1e-310, 5e-324):
            a = scale * np.array([[0, 1], [0, 0]], dtype=complex)
            assert verify_j_symmetric(a, j) == 1.0
        assert verify_j_symmetric(np.zeros((2, 2)), j) == 0.0

    def test_invalid_conjugation_rejected(self):
        with pytest.raises(InputError):
            verify_j_symmetric(CHAIN2, ConjugationMap(2 * np.eye(2)))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            verify_j_symmetric(CHAIN2, ConjugationMap.standard(3))


class TestGramCondition:
    @pytest.mark.parametrize(
        "x0, j",
        [(e0(3), ConjugationMap.standard(2)), (e0(2), ConjugationMap.standard(3))],
        ids=["x0", "J"],
    )
    def test_dimension_mismatch(self, x0, j):
        with pytest.raises(InputError) as exc:
            gram_condition_check(CHAIN2, x0, j)
        assert str(exc.value) == "dimension mismatch between A, x0 and J"

    def test_chain_passes(self):
        report = gram_condition_check(CHAIN2, e0(2), ConjugationMap.standard(2))
        assert report.passed
        (g,) = report.gammas  # Gamma_1 only
        assert abs(g) < 1e-12

    def test_class_member_passes_in_own_basis(self):
        for seed in range(5):
            m = random_class_matrix(seed, 5)
            report = gram_condition_check(m.dense(), e0(5), ConjugationMap.standard(5))
            assert report.passed

    def test_non_symmetric_matrix_fails(self):
        # a cyclic but non-complex-symmetric matrix; n = 1 puts only three
        # vectors into the 3-dimensional space, so the determinant is an
        # honest non-zero.  (In dimension 2 every Gamma_1 involves three
        # vectors of a 2-dimensional space and vanishes identically.)
        a = np.array([[1, 1, 0], [0, 2, 1], [0, 0, 3]], dtype=complex)
        x0 = np.array([1, 2, 3], dtype=complex) / np.sqrt(14)
        report = gram_condition_check(a, x0, ConjugationMap.standard(3))
        # brute-force oracle: the 3x3 Gram determinant of the unit vectors
        expected = relative_gram_det([x0, a @ x0, a.conj().T @ x0])
        assert abs(expected) > 1e-4
        assert not report.passed
        assert report.gammas[0] == pytest.approx(expected)

    @pytest.mark.parametrize("d", [3, 6, 12, 16])
    def test_every_gamma_matches_oracle(self, d):
        # each Gamma_n against gram_det over the product of squared norms
        # of the n + 2 vectors, built one by one
        rng = np.random.default_rng(d)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x0 = rng.normal(size=d) + 0j
        report = gram_condition_check(a, x0, ConjugationMap.standard(d))
        assert len(report.gammas) == d - 1  # Gamma_1..Gamma_{d-1}
        xs = [x0]
        xstar = x0
        for g in report.gammas:
            xs.append(a @ xs[-1])
            xstar = a.conj().T @ xstar
            assert abs(g - relative_gram_det(xs + [xstar])) <= 1e-12
        assert abs(report.gammas[0]) > 1e-3
        assert report.max_relative() == max(abs(g) for g in report.gammas)
        assert not report.passed

    def test_gamma_at_top_index_is_trivially_zero(self):
        # n = d-1 involves d+1 vectors, which are always dependent
        m = random_class_matrix(11, 3)
        report = gram_condition_check(m.dense(), e0(3), ConjugationMap.standard(3))
        assert abs(report.gammas[-1]) < 1e-9

    @staticmethod
    def random_draw(seed):
        """A random complex A at d = 2..16 with a real x0, which J = conj fixes."""
        d = 2 + seed % 15
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return a, rng.normal(size=d) + 0j, ConjugationMap.standard(d)

    def test_gammas_are_one_read_only_real_array(self):
        # the 100 criterion-5 members and 1000 random draws, non-members
        # from d = 3 on (at d = 2 three vectors in C^2 make Gamma_1 vanish):
        # Gamma_n of unit vectors lies in [0, 1], and Gamma_{d-1} of d + 1
        # vectors in C^d is read off as an exact 0
        inputs = [criterion5_triple(seed) for seed in range(100)]
        inputs += [self.random_draw(seed) for seed in range(1000)]
        for k, (a, x0, j) in enumerate(inputs):
            report = gram_condition_check(a, x0, j, 1e-8)
            g = report.gammas
            assert g.dtype == np.float64 and g.shape == (len(x0) - 1,)
            assert not g.flags.writeable
            assert g.min() >= 0.0 and g.max() <= 1.0
            assert g[-1] == 0.0
            assert report.max_relative() == g.max()
            assert report.passed == (k < 100 or len(x0) == 2)

    def test_large_dimension_without_overflow(self):
        # at d = 32 the product of squared Krylov norms overflowed, and every
        # Gamma_n passed against an infinite scale; an off-band entry breaks
        # the condition and must still fail
        a = random_class_matrix(0, 32).dense()
        assert gram_condition_check(a, e0(32), ConjugationMap.standard(32)).passed
        a[0, 5] = a[5, 0] = 0.3
        report = gram_condition_check(a, e0(32), ConjugationMap.standard(32))
        assert report.max_relative() > 1e-2 and not report.passed

    def test_zero_adjoint_power(self):
        # A^* e_2 = 0 while e_2 is cyclic for the shift: a zero column has
        # no direction, and the Gammas it enters vanish
        a = np.diag(np.ones(2), 1).astype(complex)
        x0 = np.array([0, 0, 1], dtype=complex)
        report = gram_condition_check(a, x0, ConjugationMap.standard(3))
        assert report.gammas.tolist() == [0, 0]

    def test_adjoint_power_past_float64(self):
        # x0, A x0, A^2 x0 are e_0, e_1, 1e300 e_2 and (A^*)^2 x0 is 1e600 e_1:
        # A is scaled down before any power is formed, so no Krylov vector
        # overflows and each keeps its direction
        a = np.array([[0, 0, 1e300], [1, 0, 0], [0, 1e300, 0]], dtype=complex)
        assert gram_condition_check(a, e0(3), ConjugationMap.standard(3)).gammas.tolist() == [1, 0]

    def test_adjoint_power_below_normal_range(self):
        # e_0 is cyclic for the lower shift, and A^* e_0 = 2^-1020 e_2 lies
        # outside span(e_0, e_1), so Gamma_1 = 1; A scaled to norm below 1
        # takes that vector into the subnormal range, and it must not read
        # as a vanished Gamma_1
        a = np.diag(np.ones(3), -1).astype(complex)
        a[0, 2] = 2.0**-1020
        report = gram_condition_check(a, e0(4), ConjugationMap.standard(4))
        assert report.gammas.tolist() == [1, 0, 0] and not report.passed

    def test_shift_past_float64(self):
        # A e_0 = 1e200 e_1 and A^2 e_0 = 1e400 e_2: e_0 is cyclic, and
        # (A^*)^n e_0 = 0 enters every Gamma_n as a zero column
        shift = np.diag([1e200, 1e200], -1).astype(complex)
        assert gram_condition_check(shift, e0(3), ConjugationMap.standard(3)).gammas.tolist() == [0, 0]
        # A e_0 = 0, while (A^*)^2 e_0 = 1e400 e_2
        with pytest.raises(PreconditionError, match="not a cyclic vector"):
            gram_condition_check(shift.T, e0(3), ConjugationMap.standard(3))

    @pytest.mark.parametrize("call", [gram_condition_check, canonicalize])
    @pytest.mark.parametrize(
        "c, law",
        [(np.diag([1, 2, 3, 5]), "unitary"), (np.roll(np.eye(4), 1, axis=0), "symmetric")],
    )
    def test_conjugation_is_checked(self, call, c, law):
        # both entry points check J, in the one Krylov pass they share
        m = random_class_matrix(3, 4).dense()
        with pytest.raises(InputError, match=f"not {law}"):
            call(m, e0(4), ConjugationMap(c))

    def test_x0_not_fixed_by_j(self):
        with pytest.raises(PreconditionError, match="x0"):
            gram_condition_check(CHAIN2, np.array([1j, 0]), ConjugationMap.standard(2))

    def test_x0_not_cyclic(self):
        a = np.eye(2, dtype=complex) + np.diag([0, 1e-30])
        with pytest.raises(PreconditionError, match="cyclic"):
            gram_condition_check(a, e0(2), ConjugationMap.standard(2))


class TestCyclicityGuard:
    def test_class_members_are_cyclic_from_e0(self):
        # the criterion checks cyclicity before any Gram determinant
        for seed in range(10):
            m = random_class_matrix(100 + seed, 4)
            gram_condition_check(m.dense(), e0(4), ConjugationMap.standard(4))

    @pytest.mark.parametrize("seed", [22, 24, 25, 45, 46, 56])
    def test_growing_krylov_columns_stay_cyclic(self, seed):
        # e0 is cyclic for every class matrix, but ||A^j e0|| grows like
        # ||A||^j: on these d = 16 inputs sigma_min/sigma_max of the raw
        # Krylov matrix fell below the rank threshold
        d = 16
        m = random_class_matrix(seed, d)
        form = canonicalize(m.dense(), e0(d), ConjugationMap.standard(d), 1e-8)
        want = spectral_moments(m, 2 * d + 1).values
        got = spectral_moments(form.matrix, 2 * d + 1).values
        assert np.max(np.abs(got - want) / np.maximum(1, np.abs(want))) <= 1e-7

    def test_zero_krylov_column_has_ratio_zero(self):
        with pytest.raises(PreconditionError, match=r"cyclic.* = 0\.000e\+00"):
            gram_condition_check(CHAIN2, np.zeros(2), ConjugationMap.standard(2))
        # A e_1 = e_0 and A^2 e_1 = 0
        nilpotent = np.diag(np.ones(2), 1)
        with pytest.raises(PreconditionError, match=r"cyclic.* = 0\.000e\+00"):
            gram_condition_check(nilpotent, np.array([0.0, 1.0, 0.0]), ConjugationMap.standard(3))

    @pytest.mark.parametrize("s", [3, 9, 10, 18])
    def test_disguised_members_past_d20_are_cyclic(self, s):
        # the unit-column r_kk of these d = 22 members stay above 1e-8, where
        # sigma_min / sigma_max of the same Krylov matrix fell below it
        m, a, x0, j = envelope_member(22, s)
        form = canonicalize(a, x0, j, 1e-8)
        want = spectral_moments(m, 45).values
        got = spectral_moments(form.matrix, 45).values
        assert np.max(np.abs(got - want) / np.maximum(1, np.abs(want))) <= 1e-7

    def test_message_names_the_order_and_r_kk(self):
        # A e_0 = e_0 + 1e-9 e_1 lies within 1e-9 of span(e_0), while A^2 e_0
        # is about 1e-6 from span(e_0, e_1)
        a = np.diag([1e-9, 1e3], -1).astype(complex) + np.diag([1, 2, 3])
        with pytest.raises(PreconditionError, match=r"cyclic .*k = 1 .*r_kk = 1\.000e-09"):
            gram_condition_check(a, e0(3), ConjugationMap.standard(3))

    def test_krylov_vector_below_normal_range_is_cyclic(self):
        # A^3 e_0 = 2^-1200 e_3 is past float64, but e_0 is cyclic: each
        # order is brought back to the normal range, so no column underflows
        # to zero; (A^*)^n e_0 = 0 is a genuine zero column
        shift = np.diag([1, 2.0**-600, 2.0**-600], -1).astype(complex)
        assert gram_condition_check(shift, e0(4), ConjugationMap.standard(4)).gammas.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("scale", [1e-105, 1e-108])
    def test_tiny_member_stays_cyclic(self, scale):
        # A^3 e_0 of the scaled member is subnormal in float64, yet x0 is
        # cyclic and Gamma is scale-free: no NaN Gamma, no LinAlgError
        m = random_class_matrix(3, 4).dense()
        j = ConjugationMap.standard(4)
        want = gram_condition_check(m, e0(4), j).gammas
        report = gram_condition_check(scale * m, e0(4), j)
        assert report.passed and np.max(np.abs(report.gammas - want)) <= 1e-12
        # the class test of the canonical matrix is relative to its own scale,
        # so the bands are the member's, scaled
        want = canonicalize(m, e0(4), j).matrix
        got = canonicalize(scale * m, e0(4), j).matrix
        for band in ("diag", "offdiag"):
            w = getattr(want, band)
            assert np.max(np.abs(getattr(got, band) - scale * w)) <= 1e-12 * scale * np.max(np.abs(w))


class TestCanonicalize:
    def test_already_canonical(self):
        form = canonicalize(CHAIN2, e0(2), ConjugationMap.standard(2))
        assert np.allclose(form.basis, np.eye(2), atol=1e-12)
        assert np.allclose(form.matrix.dense(), CHAIN2, atol=1e-12)
        assert np.allclose(form.phases, 0, atol=1e-12)

    def test_phase_halving(self):
        # Krylov gives g_1 = i e_1, so J g_1 = -g_1 and the half-phase
        # rotation must land on a J-fixed u_1
        a = np.array([[0, 1j], [1j, 0]])
        j = ConjugationMap.standard(2)
        form = canonicalize(a, e0(2), j)
        assert form.phases[1] == pytest.approx(np.pi)
        for r in range(2):
            u = form.basis[:, r]
            assert np.linalg.norm(j.apply(u) - u) < 1e-9

    def test_output_invariants(self):
        for seed in range(20):
            d = 2 + seed % 5
            m = random_class_matrix(300 + seed, d)
            j = ConjugationMap.standard(d)
            form = canonicalize(m.dense(), e0(d), j)
            u = form.basis
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-10
            for r in range(d):
                assert np.linalg.norm(j.apply(u[:, r]) - u[:, r]) < 1e-9
            assert np.max(np.abs(u.conj().T @ m.dense() @ u - form.matrix.dense())) < 1e-8

    def test_disguised_copy_recovers_moments(self):
        # round-trip oracle: spectral moments are independent of the basis
        # and of the leftover sign gauge, so they identify the class matrix
        for seed in range(10):
            d = 2 + seed % 5
            m = random_class_matrix(400 + seed, d)
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            a = q @ m.dense() @ q.conj().T
            j = ConjugationMap(q @ q.T)
            form = canonicalize(a, np.ascontiguousarray(q[:, 0]), j)
            s_orig = spectral_moments(m, 2 * d + 1).values
            s_rec = spectral_moments(form.matrix, 2 * d + 1).values
            assert np.max(np.abs(s_orig - s_rec) / np.maximum(1, np.abs(s_orig))) < 1e-8

    @staticmethod
    def disguised(seed, d):
        m = random_class_matrix(500 + seed, d)
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        return q @ m.dense() @ q.conj().T, np.ascontiguousarray(q[:, 0]), ConjugationMap(q @ q.T)

    def test_gram_schmidt_gauge(self):
        # undoing the half-phase rotation leaves the Gram-Schmidt basis G of
        # the Krylov vectors: G^H K is upper triangular with a real positive
        # diagonal
        for seed in range(20):
            d = 2 + seed % 11
            a, x0, j = self.disguised(seed, d)
            form = canonicalize(a, x0, j)
            g = form.basis * np.exp(-0.5j * form.phases)
            k = np.column_stack([np.linalg.matrix_power(a, n) @ x0 for n in range(d)])
            r = (g.conj().T @ k) / np.linalg.norm(k, axis=0)
            assert np.max(np.abs(np.tril(r, -1))) < 1e-10
            assert np.max(np.abs(r.diagonal().imag)) < 1e-10
            assert np.all(r.diagonal().real > 0)

    def test_first_basis_vector_is_x0(self):
        # J x0 = x0 makes phi_0 = 0; rounding may put it on either side of
        # the cut, and must not flip the sign of u_0
        for seed in range(20):
            d = 2 + seed % 11
            a, x0, j = self.disguised(seed, d)
            form = canonicalize(a, x0, j)
            assert abs(form.phases[0]) < 1e-12
            assert np.max(np.abs(form.basis[:, 0] - x0 / np.linalg.norm(x0))) < 1e-12

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_scale_of_x0_is_immaterial(self, scale):
        # Gamma and the canonical form see only the direction of x0; at
        # 1e300 the norm of x0 in the J x0 = x0 test overflowed
        a, x0, j = self.disguised(3, 6)
        rng = np.random.default_rng(1)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for op, v, conj in ((a, x0, j), (b + b.T, e0(4), ConjugationMap.standard(4))):
            want = gram_condition_check(op, v, conj).gammas
            got = gram_condition_check(op, scale * v, conj).gammas
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-15
        assert want[0] > 0.5  # the non-member's Gamma_1 is far from 0
        want = canonicalize(a, x0, j).matrix.dense()
        got = canonicalize(a, scale * x0, j).matrix.dense()
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("d", [4, 8, 12])
    def test_power_of_two_scale_of_a_is_exact(self, d):
        # scaling A by c = 2^k moves no bit of Gamma, the basis or the
        # phases, and multiplies the bands by exactly c; at 2^300 (d = 8, 12)
        # and 2^1000 the raw Krylov vectors overflow float64, at 2^-300 and
        # 2^-1000 they underflow
        a, x0, j = self.disguised(d, d)
        want = canonicalize(a, x0, j)
        for k in (-64, -300, -1000):
            assert gram_condition_check(2.0**k * a, x0, j).gammas.tobytes() == want.gram.gammas.tobytes()
        for k in (64, 300, 1000):
            c = 2.0**k
            assert gram_condition_check(c * a, x0, j).gammas.tobytes() == want.gram.gammas.tobytes()
            got = canonicalize(c * a, x0, j)
            assert got.basis.tobytes() == want.basis.tobytes()
            assert got.phases.tobytes() == want.phases.tobytes()
            assert np.array_equal(got.matrix.diag, c * want.matrix.diag)
            assert np.array_equal(got.matrix.offdiag, c * want.matrix.offdiag)

    @pytest.mark.parametrize("d", [4, 8, 12])
    def test_scaled_down_member_canonicalizes(self, d):
        # the class test of the canonical matrix m is relative to max|m|, so
        # small members pass it: a scale of 10^-p moves the bands by at most
        # 1e-12 relative, and one of 2^-k moves no bit of the basis or phases
        a, x0, j = self.disguised(d, d)
        want = canonicalize(a, x0, j)
        w_diag, w_off = want.matrix.diag, want.matrix.offdiag
        top = max(np.max(np.abs(w_diag)), np.max(np.abs(w_off)))
        for p in (10, 20, 100, 300):
            c = 10.0**-p
            got = canonicalize(c * a, x0, j).matrix
            dev = max(np.max(np.abs(got.diag - c * w_diag)), np.max(np.abs(got.offdiag - c * w_off)))
            assert dev <= 1e-12 * c * top
        for k in (64, 300, 1000):
            c = 2.0**-k
            assert verify_j_symmetric(c * a, j) == verify_j_symmetric(a, j)
            got = canonicalize(c * a, x0, j)
            assert got.basis.tobytes() == want.basis.tobytes()
            assert got.phases.tobytes() == want.phases.tobytes()
            assert np.array_equal(got.matrix.diag, c * w_diag)
            assert np.array_equal(got.matrix.offdiag, c * w_off)

    def test_tol_is_used(self):
        # a J-symmetry residual of 5e-9 relative lies between the tol and
        # 1e-8: rejected at tol 1e-9, accepted at 1e-8
        m = random_class_matrix(21, 4).dense()
        scale = float(np.max(np.abs(m)))
        m[0, 1] += 5e-9 * scale
        j = ConjugationMap.standard(4)
        with pytest.raises(PreconditionError, match="J-symmetric"):
            canonicalize(m, e0(4), j, 1e-9)
        canonicalize(m, e0(4), j, 1e-8)

    def test_rejects_non_j_symmetric(self):
        # e0 is cyclic and Gamma_1 = 0 (d = 2), so only J-symmetry fails
        a = np.array([[0, 1], [2, 0]], dtype=complex)
        with pytest.raises(PreconditionError, match=r"^A is not J-symmetric \(relative residual 5\.000e-01\)$"):
            canonicalize(a, e0(2), ConjugationMap.standard(2))

    def test_check_order(self):
        # the Krylov pass, which checks J and cyclicity, runs before the
        # J-symmetry test: a bad C, then a non-cyclic x0, is named first
        a = np.array([[0, 1], [2, 0]], dtype=complex)
        with pytest.raises(InputError, match="not unitary"):
            canonicalize(a, e0(2), ConjugationMap(np.diag([1, 2])))
        jordan = np.array([[0, 1], [0, 0]], dtype=complex)  # A e0 = 0, and not J-symmetric
        assert verify_j_symmetric(jordan, ConjugationMap.standard(2)) == 1
        with pytest.raises(PreconditionError, match="not a cyclic vector"):
            canonicalize(jordan, e0(2), ConjugationMap.standard(2))

    def test_rejects_gram_violation(self):
        a = np.array([[1, 1], [0, 2]], dtype=complex)
        with pytest.raises(PreconditionError):
            canonicalize(a, e0(2), ConjugationMap.standard(2))

    def test_ill_conditioned_krylov_basis_is_a_precondition(self):
        # this d = 28 member passes the Gram condition at 1e-8, but its
        # monomial Krylov basis is too ill-conditioned for J g_r to stay on
        # its line at that tol: a precondition of the input, not a broken
        # invariant
        _, a, x0, j = envelope_member(28, 7)
        assert gram_condition_check(a, x0, j, 1e-8).passed
        with pytest.raises(
            PreconditionError,
            match=r"^Krylov basis too ill-conditioned at tol 1\.000e-08: "
            r"J g_(\d+) is not proportional to g_\1 \(deviation \d\.\d{3}e-0[5-8]\)$",
        ):
            canonicalize(a, x0, j, 1e-8)

    @pytest.mark.parametrize("d", [8, 24, 32, 48, 64])
    def test_random_complex_symmetric_is_no_member(self, d):
        # A = G + G^T for complex normal G is J-symmetric for C = I, but not
        # tridiagonal in any orthonormal basis that starts at e_0: none is
        # accepted, however ill-conditioned its Krylov basis
        j = ConjugationMap.standard(d)
        for s in range(20):
            rng = np.random.default_rng(13000 + 100 * d + s)
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            with pytest.raises(PreconditionError, match="Gram-determinant|not a cyclic"):
                canonicalize(g + g.T, e0(d), j, 1e-8)


def criterion5_triple(seed):
    """The unitarily disguised member of acceptance criterion 5 at ``seed``."""
    d = 2 + seed % 5
    m = random_class_matrix(3000 + seed, d)
    rng = np.random.default_rng(9000 + seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q @ m.dense() @ q.conj().T, q[:, 0], ConjugationMap(q @ q.T)


class TestKrylovMemo:
    """gram_condition_check then canonicalize on one input factor the Krylov
    matrix once; the kept factorization is never stale and never shared."""

    @pytest.fixture(autouse=True)
    def factorizations(self, monkeypatch):
        # start from an empty memo and count the factorizations that run
        calls = []
        factor = classify._krylov_qr

        def counted(*args):
            calls.append(args)
            return factor(*args)

        monkeypatch.setattr(classify, "_last_qr", (None, None))
        monkeypatch.setattr(classify, "_krylov_qr", counted)
        return calls

    def test_one_factorization_per_input(self, factorizations):
        a, x0, j = criterion5_triple(3)
        assert gram_condition_check(a, x0, j, 1e-8).passed
        canonicalize(a, x0, j, 1e-8)
        assert len(factorizations) == 1
        b, y0, k = criterion5_triple(4)
        gram_condition_check(b, y0, k, 1e-8)
        canonicalize(b, y0, k, 1e-8)
        assert len(factorizations) == 2

    def test_holds_one_entry(self, factorizations):
        first, second = criterion5_triple(3), criterion5_triple(4)
        for triple in (first, second, first):
            gram_condition_check(*triple)
        assert len(factorizations) == 3

    def test_keyed_on_content_not_identity(self, factorizations):
        a, x0, j = criterion5_triple(5)
        gram_condition_check(a, x0, j, 1e-8)
        canonicalize(a.copy(), x0.copy(), ConjugationMap(j.matrix.copy()), 1e-8)
        assert len(factorizations) == 1

    def test_other_tol_x0_or_j_recomputes(self, factorizations):
        d = 4
        a = random_class_matrix(7, d).dense()
        std = ConjugationMap.standard(d)
        flip = ConjugationMap(np.diag([1, -1, 1, -1]).astype(complex))  # also fixes e0
        gram_condition_check(a, e0(d), std, 1e-8)
        gram_condition_check(a, e0(d), std, 1e-9)
        gram_condition_check(a, 2 * e0(d), std, 1e-9)
        gram_condition_check(a, 2 * e0(d), flip, 1e-9)
        assert [args[3] for args in factorizations] == [1e-8, 1e-9, 1e-9, 1e-9]
        assert len(factorizations) == 4

    def test_sees_in_place_edit(self, factorizations):
        # the same array object, turned into a non-member between the calls:
        # canonicalize must see the edit and reject the Gram condition, as a
        # fresh call does, not reuse the member's basis
        d = 5
        a = random_class_matrix(8, d).dense()
        j = ConjugationMap.standard(d)
        assert gram_condition_check(a, e0(d), j).passed
        a[0, 2] = a[2, 0] = 0.7  # still complex symmetric, no longer tridiagonal
        with pytest.raises(PreconditionError, match="Gram-determinant condition fails"):
            canonicalize(a, e0(d), j)
        assert not gram_condition_check(a, e0(d), j).passed
        assert len(factorizations) == 2

    def test_kept_gammas_are_read_only(self, factorizations):
        # every report wraps the one kept array, so no caller may write it
        a, x0, j = criterion5_triple(6)
        first = gram_condition_check(a, x0, j)
        want = first.gammas.tobytes()
        with pytest.raises(ValueError):
            first.gammas[0] = 5.0
        second = gram_condition_check(a, x0, j)
        assert second.gammas.tobytes() == want and second is not first
        assert second.passed
        assert len(factorizations) == 1

    def test_canonical_form_carries_the_report_it_judged(self, factorizations):
        # on the 100 criterion-5 inputs the form's report wraps the very
        # array the criterion read, so its bits are the same, and the pair of
        # calls factors each input once
        for seed in range(100):
            args = (*criterion5_triple(seed), 1e-8)
            gram = gram_condition_check(*args)
            form = canonicalize(*args)
            assert form.gram.gammas is gram.gammas
            assert form.gram.tol == 1e-8 and form.gram.passed
        assert len(factorizations) == 100

    def test_kept_q_is_read_only_and_not_aliased(self):
        a, x0, j = criterion5_triple(7)
        q, _ = classify._memo_krylov_qr(a, x0, j, 1e-8)
        with pytest.raises(ValueError):
            q[0, 0] = 1.0
        basis = canonicalize(a, x0, j, 1e-8).basis
        assert not np.shares_memory(basis, q)
        basis[0, 0] = 1.0  # the caller's basis is its own, and writable
        assert classify._memo_krylov_qr(a, x0, j, 1e-8)[0][0, 0] != 1.0

    def test_failing_input_raises_on_every_call(self, factorizations):
        j = ConjugationMap.standard(2)
        for _ in range(2):
            with pytest.raises(PreconditionError, match="x0"):
                gram_condition_check(CHAIN2, np.array([1j, 0]), j)
        a = np.eye(2, dtype=complex) + np.diag([0, 1e-30])
        for call in (gram_condition_check, canonicalize, gram_condition_check):
            with pytest.raises(PreconditionError, match="cyclic"):
                call(a, e0(2), j)
        assert len(factorizations) == 5

    def test_parity_with_a_fresh_factorization(self, monkeypatch):
        # on the 100 criterion-5 inputs each call gives the same bits whether
        # or not the other call on the same input came first
        def fresh(call, *args):
            monkeypatch.setattr(classify, "_last_qr", (None, None))
            return call(*args)

        def bits(form):
            return [form.basis.tobytes(), form.matrix.diag.tobytes(),
                    form.matrix.offdiag.tobytes(), form.phases.tobytes()]

        for seed in range(100):
            args = (*criterion5_triple(seed), 1e-8)
            gram_alone = fresh(gram_condition_check, *args).gammas.tobytes()
            form_alone = bits(fresh(canonicalize, *args))
            fresh(gram_condition_check, *args)
            assert bits(canonicalize(*args)) == form_alone
            fresh(canonicalize, *args)
            assert gram_condition_check(*args).gammas.tobytes() == gram_alone


def envelope_member(d, s):
    """The membership-envelope input (d, s): a class matrix disguised by the
    Q of complex normals, with C = Q Q^T and x0 = Q e_0."""
    m = random_class_matrix(7000 + 100 * d + s, d)
    rng = np.random.default_rng(11000 + 100 * d + s)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return m, q @ m.dense() @ q.conj().T, q[:, 0], ConjugationMap(q @ q.T)


class TestMembershipEnvelope:
    """Verdicts on 20 disguised members per d, at tol 1e-8, as (accepted,
    not cyclic, J-line precondition, internal invariant).  Cyclicity is read
    off the r_kk of the Krylov QR; past d = 20 the monomial Krylov basis is
    so ill-conditioned that some members still fail as not cyclic or have a
    J g_r off its line, both exit 3.  No member reaches the class test of
    the canonical matrix and fails it.  An orthogonal Krylov basis (ROADMAP
    item 7) is expected to change these counts, and this table with them."""

    WANT = {
        8: (20, 0, 0, 0),
        16: (20, 0, 0, 0),
        20: (20, 0, 0, 0),
        22: (20, 0, 0, 0),
        24: (18, 1, 1, 0),
        28: (11, 4, 5, 0),
        32: (5, 7, 8, 0),
        40: (0, 19, 1, 0),
        48: (0, 20, 0, 0),
        64: (0, 20, 0, 0),
    }

    @pytest.mark.parametrize("d", sorted(WANT))
    def test_verdicts_and_moments(self, d):
        accepted, not_cyclic, j_line, inconsistent = 0, 0, 0, 0
        for s in range(20):
            m, a, x0, j = envelope_member(d, s)
            try:
                assert gram_condition_check(a, x0, j, 1e-8).passed
                form = canonicalize(a, x0, j, 1e-8)
            except PreconditionError as e:
                if "x0 is not a cyclic vector" in str(e):
                    not_cyclic += 1
                else:
                    assert "Krylov basis too ill-conditioned" in str(e)
                    j_line += 1
                continue
            except ConsistencyError:
                inconsistent += 1
                continue
            accepted += 1
            want = spectral_moments(m, 2 * d + 1).values
            got = spectral_moments(form.matrix, 2 * d + 1).values
            assert np.max(np.abs(got - want) / np.maximum(1, np.abs(want))) <= 1e-7
        assert (accepted, not_cyclic, j_line, inconsistent) == self.WANT[d]


class TestNoRemovedHelpers:
    """np.linalg.norm, np.angle and the twodim helpers (np.eye, np.tri,
    np.triu, np.tril) are Python wrappers that cost microseconds a call
    around arithmetic of a few elements; the membership op does that
    arithmetic itself, so none of them may run on its path."""

    def test_membership_op_enters_no_removed_helper(self):
        numpy_dir = os.path.dirname(np.__file__)
        trisim_dir = os.path.dirname(classify.__file__)
        twodim = os.path.join("lib", "_twodim_base_impl.py")
        banned = {"norm": os.path.join("linalg", "_linalg.py"),
                  "angle": os.path.join("lib", "_function_base_impl.py")}
        hits, entered = Counter(), set()

        def hook(frame, event, arg):
            # a numpy function trisim called directly; a dispatcher runs just
            # before the function it dispatches to, so only the latter counts
            code = frame.f_code
            if event != "call" or not code.co_filename.startswith(numpy_dir):
                return
            if frame.f_back is None or not frame.f_back.f_code.co_filename.startswith(trisim_dir):
                return
            if code.co_name.endswith("_dispatcher"):
                return
            entered.add(code.co_name)
            path = os.path.relpath(code.co_filename, numpy_dir)
            if path == twodim or banned.get(code.co_name) == path:
                caller = frame.f_back
                hits[f"np.{code.co_name} at {os.path.basename(caller.f_code.co_filename)}:{caller.f_lineno}"] += 1

        m, a, x0, j = envelope_member(8, 0)
        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            passed = gram_condition_check(a, x0, j, 1e-8).passed
            form = canonicalize(a, x0, j, 1e-8)
            spectral_moments(form.matrix, 17)
        finally:
            sys.setprofile(previous)
        assert passed
        assert "qr" in entered  # the hook sees trisim's direct numpy calls
        assert "svd" not in entered  # cyclicity is read off the QR's r_kk
        assert not hits, f"removed helpers ran: {dict(hits)}"
