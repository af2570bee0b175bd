import numpy as np
import pytest

from trisim.classify import (
    _is_class_tridiagonal,
    canonicalize,
    check_cyclic,
    gram_condition_check,
    is_class_matrix,
    verify_j_symmetric,
)
from trisim.core import (
    ConjugationMap,
    InputError,
    PreconditionError,
    TridiagonalSymmetric,
    gram_det,
    random_class_matrix,
)
from trisim.moments import spectral_moments

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
        for m in cases:
            ok, _, reason = is_class_matrix(m.dense())
            assert _is_class_tridiagonal(m) == (ok, reason)
        assert "a_1 vanishes" in _is_class_tridiagonal(weak)[1]


class TestVerifyJSymmetric:
    def test_real_symmetric_plain_conjugation(self):
        assert verify_j_symmetric(CHAIN2, ConjugationMap.standard(2)) == pytest.approx(0)

    def test_complex_symmetric_example(self):
        a = np.array([[1j, 1], [1, -1j]])
        assert verify_j_symmetric(a, ConjugationMap.standard(2)) == pytest.approx(0)

    def test_nilpotent_jordan_block_fails(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        assert verify_j_symmetric(a, ConjugationMap.standard(2)) == pytest.approx(1)

    def test_invalid_conjugation_rejected(self):
        with pytest.raises(InputError):
            verify_j_symmetric(CHAIN2, ConjugationMap(2 * np.eye(2)))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            verify_j_symmetric(CHAIN2, ConjugationMap.standard(3))


class TestGramCondition:
    def test_chain_passes(self):
        report = gram_condition_check(CHAIN2, e0(2), ConjugationMap.standard(2))
        assert report.passed
        (n, g), = report.values
        assert n == 1
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
        assert report.values[0][1] == pytest.approx(expected)

    @pytest.mark.parametrize("d", [3, 6])
    def test_every_gamma_matches_oracle(self, d):
        # each Gamma_n against gram_det over the product of squared norms
        # of the n + 2 vectors, built one by one
        rng = np.random.default_rng(d)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x0 = rng.normal(size=d) + 0j
        report = gram_condition_check(a, x0, ConjugationMap.standard(d))
        assert [n for n, _ in report.values] == list(range(1, d))
        xs = [x0]
        xstar = x0
        for n, g in report.values:
            xs.append(a @ xs[-1])
            xstar = a.conj().T @ xstar
            assert abs(g - relative_gram_det(xs + [xstar])) <= 1e-12
        assert abs(report.values[0][1]) > 1e-3
        assert report.max_relative() == max(abs(g) for _, g in report.values)
        assert not report.passed

    def test_gamma_at_top_index_is_trivially_zero(self):
        # n = d-1 involves d+1 vectors, which are always dependent
        m = random_class_matrix(11, 3)
        report = gram_condition_check(m.dense(), e0(3), ConjugationMap.standard(3))
        assert abs(report.values[-1][1]) < 1e-9

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
        assert [g for _, g in report.values] == [0, 0]

    def test_overflowing_adjoint_power(self):
        # x0, A x0, A^2 x0 are e_0, e_1, 1e300 e_2; (A^*)^2 x0 is 1e600 e_1
        a = np.array([[0, 0, 1e300], [1, 0, 0], [0, 1e300, 0]], dtype=complex)
        with pytest.raises(PreconditionError, match=r"order 2: \(A\^\*\)\^2 x0 overflows"):
            gram_condition_check(a, e0(3), ConjugationMap.standard(3))

    def test_x0_not_fixed_by_j(self):
        with pytest.raises(PreconditionError, match="x0"):
            gram_condition_check(CHAIN2, np.array([1j, 0]), ConjugationMap.standard(2))

    def test_x0_not_cyclic(self):
        a = np.eye(2, dtype=complex) + np.diag([0, 1e-30])
        with pytest.raises(PreconditionError, match="cyclic"):
            gram_condition_check(a, e0(2), ConjugationMap.standard(2))


class TestCyclicityGuard:
    def test_class_members_are_cyclic_from_e0(self):
        for seed in range(10):
            m = random_class_matrix(100 + seed, 4)
            assert check_cyclic(m.dense(), e0(4)) > 1e-8

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
        with pytest.raises(PreconditionError, match=r"= 0\.000e\+00"):
            check_cyclic(CHAIN2, np.zeros(2))
        # A e_1 = e_0 and A^2 e_1 = 0
        nilpotent = np.diag(np.ones(2), 1)
        with pytest.raises(PreconditionError, match=r"= 0\.000e\+00"):
            check_cyclic(nilpotent, np.array([0.0, 1.0, 0.0]))


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
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(PreconditionError, match="J-symmetric"):
            canonicalize(a, e0(2), ConjugationMap.standard(2))

    def test_rejects_gram_violation(self):
        a = np.array([[1, 1], [0, 2]], dtype=complex)
        with pytest.raises(PreconditionError):
            canonicalize(a, e0(2), ConjugationMap.standard(2))
