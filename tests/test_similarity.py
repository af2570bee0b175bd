import numpy as np
import pytest

from trisim import moments, similarity
from trisim.core import (
    InputError,
    PreconditionError,
    TridiagonalSymmetric,
    random_class_matrix,
)
from trisim.moments import extend_matrix
from trisim.similarity import (
    SimilarityData,
    SimilarityReport,
    apply_lhs,
    apply_rhs,
    build_polynomials,
    build_transform,
    check_invertible,
    eval_recurrence,
    orthonormality_residuals,
    poly_of_operator_vector,
    verify_similarity,
)

CHAIN2 = TridiagonalSymmetric([0, 0], [1])


@pytest.fixture(scope="module")
def chain_data():
    return build_transform(CHAIN2)


class TestBuildPolynomials:
    def test_chain_first_three(self):
        fam = build_polynomials(CHAIN2, 2)
        assert np.array_equal(fam.coeffs[0, :1], [1])
        assert np.array_equal(fam.coeffs[1, :2], [0, 1])  # p_1 = z
        assert np.array_equal(fam.coeffs[2, :3], [-1, 0, 1])  # p_2 = z^2 - 1

    def test_p0_is_one(self):
        fam = build_polynomials(random_class_matrix(1, 4), 4)
        assert fam.coeffs[0, 0] == 1
        assert np.all(fam.coeffs[0, 1:] == 0)

    def test_p1_closed_form(self):
        m = TridiagonalSymmetric([2 + 1j, 0], [3j])
        fam = build_polynomials(m, 1)
        # p_1 = (z - b_0)/a_0
        assert fam.coeffs[1, 1] == pytest.approx(1 / 3j)
        assert fam.coeffs[1, 0] == pytest.approx(-(2 + 1j) / 3j)

    def test_leading_coefficient_law(self):
        for seed in range(10):
            d = 2 + seed % 4
            m = random_class_matrix(600 + seed, d)
            fam = build_polynomials(m, d)
            ext = extend_matrix(m, d + 1)
            lead = 1.0 + 0j
            for n in range(1, d + 1):
                lead /= ext.offdiag[n - 1]
                assert fam.leading(n) == pytest.approx(lead, rel=1e-12)
                # degree exactly n
                assert np.all(fam.coeffs[n, n + 1 :] == 0)
                assert fam.leading(n) != 0

    def test_recurrence_vs_coefficient_evaluation(self):
        # the two storage/evaluation paths must agree
        m = random_class_matrix(77, 5)
        fam = build_polynomials(m, 5)
        ext = extend_matrix(m, 6)
        z = np.array([0.3 + 1j, -2.0, 1.5j, 4 - 4j])
        rec = eval_recurrence(ext, 5, z)
        for n in range(6):
            assert np.allclose(rec[n], fam.eval(n, z), rtol=1e-9, atol=1e-9)

    def test_rejects_zero_division(self):
        with pytest.raises(InputError, match="a_0"):
            build_polynomials(TridiagonalSymmetric([1, 2], [0]), 2)


class TestPolyOfOperatorVector:
    def test_k0_identity(self):
        fam = build_polynomials(CHAIN2, 2)
        assert np.array_equal(poly_of_operator_vector(CHAIN2, fam, 0), [1, 0])

    def test_chain_k1(self):
        fam = build_polynomials(CHAIN2, 2)
        assert np.allclose(poly_of_operator_vector(CHAIN2, fam, 1), [0, 1])

    def test_basis_identity_random(self):
        for seed in range(10):
            d = 5
            m = random_class_matrix(500 + seed, d)
            fam = build_polynomials(m, d)
            for k in range(d):
                e = np.zeros(d, dtype=complex)
                e[k] = 1
                got = poly_of_operator_vector(m, fam, k)
                assert np.linalg.norm(got - e) < 1e-9

    def test_rejects_out_of_range(self):
        fam = build_polynomials(CHAIN2, 2)
        with pytest.raises(InputError):
            poly_of_operator_vector(CHAIN2, fam, 2)


class TestBuildTransform:
    def test_chain_orthonormality(self, chain_data):
        resid = orthonormality_residuals(
            chain_data.poly_at_atoms, chain_data.measure, 2
        )
        assert np.max(resid) < 1e-9

    def test_chain_rank_one_pieces(self, chain_data):
        assert chain_data.rank_one_scale == 1  # a_1 comes from the extension
        # left factor is -(z^2 - 1) at the atoms
        z = chain_data.measure.atoms
        assert np.allclose(chain_data.left_factor_values(), -(z**2 - 1), rtol=1e-12)
        # right factor is conj(p_1) = conj(z)
        assert np.allclose(chain_data.right_factor_values(), np.conj(z), rtol=1e-12)

    def test_atom_count_and_rank(self, chain_data):
        assert chain_data.measure.n_atoms > 4
        assert check_invertible(chain_data) > 0

    def test_rejects_non_class(self):
        with pytest.raises(InputError):
            build_transform(TridiagonalSymmetric([1, 2], [0]))

    def test_rejects_small_rho(self):
        with pytest.raises(InputError):
            build_transform(CHAIN2, rho=4)

    def test_float64_exhaustion_is_a_precondition(self):
        with pytest.raises(PreconditionError, match="ring order"):
            build_transform(random_class_matrix(3, 20))


class TestApplySides:
    def test_zero_vector(self, chain_data):
        z = np.zeros(2, dtype=complex)
        assert np.array_equal(apply_lhs(CHAIN2, chain_data, z), np.zeros(chain_data.measure.n_atoms))
        assert np.array_equal(apply_rhs(chain_data, z), np.zeros(chain_data.measure.n_atoms))

    def test_rank_one_locality(self):
        # below the top basis vector the perturbation contributes nothing:
        # apply_rhs(e_k) must equal z * p_k(z) exactly
        m = random_class_matrix(31, 5)
        data = build_transform(m)
        z = data.measure.atoms
        for k in range(4):
            e = np.zeros(5, dtype=complex)
            e[k] = 1
            assert np.array_equal(apply_rhs(data, e), z * data.poly_at_atoms[k])

    def test_chain_top_vector(self, chain_data):
        # z*z - (z^2 - 1) = 1 at every atom
        e1 = np.array([0, 1], dtype=complex)
        got = apply_rhs(chain_data, e1)
        assert np.allclose(got, 1.0, atol=1e-10)
        # and the operator route agrees: A u_1 = u_0 maps to p_0 = 1
        assert np.allclose(apply_lhs(CHAIN2, chain_data, e1), 1.0, atol=1e-10)

    def test_top_vector_recurrence_rearrangement(self):
        m = random_class_matrix(32, 4)
        data = build_transform(m)
        d = 4
        e = np.zeros(d, dtype=complex)
        e[d - 1] = 1
        got = apply_rhs(data, e)
        want = (
            m.offdiag[d - 2] * data.poly_at_atoms[d - 2]
            + m.diag[d - 1] * data.poly_at_atoms[d - 1]
        )
        scale = np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(got - want) / scale) < 1e-9

    def test_rejects_wrong_length(self, chain_data):
        with pytest.raises(InputError):
            apply_rhs(chain_data, np.zeros(3))

    def test_stack_matches_rows(self):
        m = random_class_matrix(33, 4)
        data = build_transform(m)
        rng = np.random.default_rng(0)
        u = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        lhs, rhs = apply_lhs(m, data, u), apply_rhs(data, u)
        assert lhs.shape == rhs.shape == (3, data.measure.n_atoms)
        for row, l_row, r_row in zip(u, lhs, rhs):
            assert np.allclose(l_row, apply_lhs(m, data, row), rtol=1e-12, atol=1e-12)
            assert np.allclose(r_row, apply_rhs(data, row), rtol=1e-12, atol=1e-12)

    def test_stack_rejects_bad_rows(self, chain_data):
        u = np.eye(2, dtype=complex)
        u[1, 0] = np.nan
        with pytest.raises(InputError, match="non-finite"):
            apply_lhs(CHAIN2, chain_data, u)
        with pytest.raises(InputError, match="non-finite"):
            apply_rhs(chain_data, u)
        with pytest.raises(InputError):
            apply_rhs(chain_data, np.zeros((2, 3)))
        with pytest.raises(InputError):
            apply_rhs(chain_data, np.zeros((1, 2, 2)))


class TestVerifySimilarity:
    def test_chain_residuals_tiny(self, chain_data):
        report = verify_similarity(CHAIN2, chain_data)
        assert report.passed
        assert report.max_residual < 1e-10

    def test_random_family(self):
        for seed in range(20):
            d = 2 + seed % 5
            m = random_class_matrix(1100 + seed, d)
            data = build_transform(m)
            report = verify_similarity(m, data)
            assert report.max_residual <= 1e-8

    def test_corrupted_mass_fails(self, chain_data):
        masses = chain_data.measure.masses.copy()
        masses[0] *= 1.01
        corrupted = SimilarityData(
            measure=type(chain_data.measure)(chain_data.measure.atoms, masses),
            polys=chain_data.polys,
            dim=chain_data.dim,
            rank_one_scale=chain_data.rank_one_scale,
            extended=chain_data.extended,
            poly_at_atoms=chain_data.poly_at_atoms,
        )
        assert not verify_similarity(CHAIN2, corrupted).passed

    def test_each_check_runs_once(self, monkeypatch):
        calls = []

        def counted(name):
            fn = getattr(similarity, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(similarity, name, wrapper)

        counted("orthonormality_residuals")
        counted("check_invertible")
        m = random_class_matrix(34, 4)
        report = verify_similarity(m, build_transform(m))
        assert report.passed
        assert sorted(calls) == ["check_invertible", "orthonormality_residuals"]

    def test_extends_once_outside_spectral_moments(self, monkeypatch):
        # spectral_moments extends to its own truncation size; the (d+1)-row
        # extension of build_transform serves the polynomials too
        calls = []

        def counted(m, n):
            calls.append(n)
            return extend_matrix(m, n)

        monkeypatch.setattr(similarity, "extend_matrix", counted)
        monkeypatch.setattr(moments, "extend_matrix", counted)
        m = random_class_matrix(35, 5)
        data = build_transform(m)
        assert calls == [2 * 5 + 3, 5 + 1]
        assert np.array_equal(data.polys.coeffs, build_polynomials(m, 5).coeffs)


class TestSesquilinearIsNotTheRightPairing:
    def test_sesquilinear_gram_fails_for_complex_matrix(self):
        # guard on the bilinear/sesquilinear distinction: against a
        # genuinely complex class matrix the conjugated pairing is far
        # from orthonormal at any reasonable tolerance
        m = TridiagonalSymmetric([1j, 0.5], [1])
        data = build_transform(m)
        p = data.poly_at_atoms[: data.dim + 1]
        w = data.measure.masses
        gram = (p * w) @ np.conj(p).T
        scales = (np.abs(p) * w) @ np.abs(p).T
        resid = np.abs(gram - np.eye(data.dim + 1)) / np.maximum(1.0, scales)
        assert np.max(resid) > 0.1


class TestCheckInvertible:
    def test_duplicate_node_synthetic(self):
        # two coincident evaluation points collapse the node matrix
        m = random_class_matrix(8, 2)
        data = build_transform(m)
        fake = data.poly_at_atoms.copy()
        fake[:, 1] = fake[:, 0]
        sham = SimilarityData(
            measure=data.measure,
            polys=data.polys,
            dim=2,
            rank_one_scale=data.rank_one_scale,
            extended=data.extended,
            poly_at_atoms=fake[:, :2],
        )
        sham.measure = type(data.measure)(
            data.measure.atoms[:2], data.measure.masses[:2]
        )
        assert check_invertible(sham) < 1e-12

    def test_rank_deficient_sham_fails_verification(self):
        # the duplicate-node sham above, judged by verify_similarity
        m = random_class_matrix(8, 2)
        data = build_transform(m)
        fake = data.poly_at_atoms.copy()
        fake[:, 1] = fake[:, 0]
        sham = SimilarityData(
            measure=type(data.measure)(data.measure.atoms[:2], data.measure.masses[:2]),
            polys=data.polys,
            dim=2,
            rank_one_scale=data.rank_one_scale,
            extended=data.extended,
            poly_at_atoms=fake[:, :2],
        )
        report = verify_similarity(m, sham)
        assert report.sigma_min < 1e-12
        assert report.passed is False
        # a singular node matrix fails the report even with zero residuals
        singular = SimilarityReport(np.zeros(2), orthonormality=0.0, sigma_min=0.0, tol=1e-8)
        assert singular.passed is False

    def test_two_distinct_atoms_suffice_for_d2(self):
        m = random_class_matrix(9, 2)
        data = build_transform(m)
        small = SimilarityData(
            measure=type(data.measure)(
                data.measure.atoms[:2], data.measure.masses[:2]
            ),
            polys=data.polys,
            dim=2,
            rank_one_scale=data.rank_one_scale,
            extended=data.extended,
            poly_at_atoms=data.poly_at_atoms[:, :2],
        )
        assert check_invertible(small) > 0

    def test_rejects_too_few_atoms(self):
        m = random_class_matrix(10, 3)
        data = build_transform(m)
        tiny = SimilarityData(
            measure=type(data.measure)(
                data.measure.atoms[:2], data.measure.masses[:2]
            ),
            polys=data.polys,
            dim=3,
            rank_one_scale=data.rank_one_scale,
            extended=data.extended,
            poly_at_atoms=data.poly_at_atoms[:, :2],
        )
        with pytest.raises(InputError):
            check_invertible(tiny)
