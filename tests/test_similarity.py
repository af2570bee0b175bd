import dataclasses
import os
import sys

import numpy as np
import pytest

from trisim import moments, similarity
from trisim.core import (
    InputError,
    PreconditionError,
    TridiagonalSymmetric,
    random_class_matrix,
)
from trisim.moments import extend_matrix, spectral_moments, verify_measure
from trisim.similarity import (
    INVERTIBILITY_FLOOR,
    PolynomialFamily,
    SimilarityData,
    SimilarityReport,
    build_transform,
    check_invertible,
    eval_recurrence,
    orthonormality_residuals,
    poly_of_operator_vector,
    verify_similarity,
)

CHAIN2 = TridiagonalSymmetric([0, 0], [1])
# the chain's family up to degree 2: p_0 = 1, p_1 = z, p_2 = z^2 - 1
CHAIN2_FAMILY = PolynomialFamily(extend_matrix(CHAIN2, 3))


@pytest.fixture(scope="module")
def chain_data():
    return build_transform(CHAIN2)


class TestBuildPolynomials:
    """The family p_0, p_1, ... that ``eval_recurrence`` reads off a
    matrix's bands, one degree per row."""

    def test_chain_first_three(self):
        z = np.array([0, 1, -2, 0.5 + 1.5j, -3j])
        vals = eval_recurrence(CHAIN2_FAMILY.ext, z)
        assert vals.shape == (3, len(z))
        assert np.array_equal(vals[0], np.ones(len(z)))
        assert np.array_equal(vals[1], z)  # p_1 = z
        assert np.array_equal(vals[2], z * z - 1)  # p_2 = z^2 - 1

    def test_p1_closed_form(self):
        m = TridiagonalSymmetric([2 + 1j, 0], [3j])
        z = np.array([0, 1, -2, 0.5 + 1.5j, 2 + 1j])
        # p_1 = (z - b_0)/a_0
        assert np.allclose(eval_recurrence(m, z)[1], (z - (2 + 1j)) / 3j, rtol=1e-14)

    def test_leading_coefficient_law(self):
        # p_n has degree at most d, so the (d+1)-point DFT of its values on
        # the unit circle gives its monomial coefficients without aliasing
        for seed in range(10):
            d = 2 + seed % 4
            m = random_class_matrix(600 + seed, d)
            ext = extend_matrix(m, d + 1)
            vals = eval_recurrence(ext, np.exp(2j * np.pi * np.arange(d + 1) / (d + 1)))
            coeffs = np.fft.fft(vals, axis=1) / (d + 1)
            lead = 1.0 + 0j
            for n in range(1, d + 1):
                lead /= ext.offdiag[n - 1]
                assert coeffs[n, n] == pytest.approx(lead, rel=1e-12)
                # degree exactly n
                assert np.all(np.abs(coeffs[n, n + 1 :]) <= 1e-12 * np.max(np.abs(vals[n])))

    @pytest.mark.parametrize("d", [2, 3, 8, 48])
    def test_recurrence_is_the_per_degree_expression_bit_for_bit(self, d):
        # the in-place recurrence performs the reference's operations in
        # its order, so every value must agree exactly; bands cut to n + 1
        # rows give the family up to degree n
        def reference(ext, n_max, z):
            vals = np.empty((n_max + 1, len(z)), dtype=np.complex128)
            vals[0] = 1.0
            if n_max >= 1:
                vals[1] = (z - ext.diag[0]) / ext.offdiag[0]
            for n in range(1, n_max):
                vals[n + 1] = (
                    (z - ext.diag[n]) * vals[n] - ext.offdiag[n - 1] * vals[n - 1]
                ) / ext.offdiag[n]
            return vals

        for seed in range(5):
            m = random_class_matrix(seed, d)
            z = build_transform(m).measure.atoms
            ext = extend_matrix(m, d + 1)
            for n in dict.fromkeys((1, 2, d)):
                cut = TridiagonalSymmetric(ext.diag[: n + 1], ext.offdiag[:n])
                assert np.array_equal(eval_recurrence(cut, z), reference(ext, n, z))

    def test_rejects_zero_division(self):
        # a family is built only by build_transform, which refuses an exact
        # zero a_k, naming it, before the recurrence would divide by it
        with pytest.raises(InputError, match="a_0 = 0"):
            build_transform(TridiagonalSymmetric([1, 2], [0]))


class TestDegreeRange:
    """The family's degrees are the extension's rows; orthonormality_residuals'
    n_max must name a degree the values hold, and a number outside
    0..rows - 1 is an input error that names the allowed range."""

    @pytest.fixture(scope="class")
    def data(self):
        return build_transform(random_class_matrix(3, 4))

    def test_residuals_reject_a_degree_past_the_values(self, data):
        with pytest.raises(InputError, match=r"n_max must lie in 0\.\.4"):
            orthonormality_residuals(data.poly_at_atoms, data.measure, 7)

    def test_residuals_reject_a_negative_degree(self, data):
        with pytest.raises(InputError, match=r"n_max must lie in 0\.\.4"):
            orthonormality_residuals(data.poly_at_atoms, data.measure, -1)

    def test_top_degree_is_accepted(self, data):
        assert eval_recurrence(data.polys.ext, data.measure.atoms).shape == (5, data.measure.n_atoms)
        assert orthonormality_residuals(data.poly_at_atoms, data.measure, 4).shape == (5, 5)


class TestPolyOfOperatorVector:
    def test_k0_identity(self):
        assert np.array_equal(poly_of_operator_vector(CHAIN2, CHAIN2_FAMILY, 0), [1, 0])

    def test_chain_k1(self):
        assert np.allclose(poly_of_operator_vector(CHAIN2, CHAIN2_FAMILY, 1), [0, 1])

    def test_basis_identity_random(self):
        for seed in range(10):
            d = 5
            m = random_class_matrix(500 + seed, d)
            fam = PolynomialFamily(m)
            for k in range(d):
                e = np.zeros(d, dtype=complex)
                e[k] = 1
                got = poly_of_operator_vector(m, fam, k)
                assert np.linalg.norm(got - e) < 1e-9

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            poly_of_operator_vector(CHAIN2, CHAIN2_FAMILY, 2)

    def test_rejects_degree_past_the_family(self):
        # a family of three rows, the leading bands of m, holds degrees 0..2
        m = random_class_matrix(1, 6)
        fam = PolynomialFamily(TridiagonalSymmetric(m.diag[:3], m.offdiag[:2]))
        with pytest.raises(InputError, match=r"k must lie in 0\.\.2"):
            poly_of_operator_vector(m, fam, 4)

    @pytest.mark.parametrize("band", ["diag", "offdiag"])
    def test_detects_a_family_of_another_matrix(self, band):
        # a family whose row r differs by delta from m's is exact up to
        # degree r, which does not use the entry yet, and off by about delta
        # from degree r + 1 on, first by delta / |a_r|
        m, r, delta = random_class_matrix(1, 6), 2, 1e-6
        bands = {"diag": m.diag.copy(), "offdiag": m.offdiag.copy()}
        bands[band][r] += delta
        fam = PolynomialFamily(TridiagonalSymmetric(bands["diag"], bands["offdiag"]))
        err = np.array([np.linalg.norm(poly_of_operator_vector(m, fam, k) - np.eye(6)[k]) for k in range(6)])
        assert np.all(err[: r + 1] < 1e-15)
        assert err[r + 1] == pytest.approx(delta / abs(m.offdiag[r]), rel=1e-6)
        assert np.all((err[r + 1 :] > delta / 10) & (err[r + 1 :] < 10 * delta))


class TestBuildTransform:
    def test_chain_orthonormality(self, chain_data):
        resid = orthonormality_residuals(
            chain_data.poly_at_atoms, chain_data.measure, 2
        )
        assert np.max(resid) < 1e-9

    def test_chain_rank_one_pieces(self, chain_data):
        assert chain_data.rank_one_scale == 1  # a_1 comes from the extension
        z = chain_data.measure.atoms
        # the rank-one left factor -a_1 p_2 is -(z^2 - 1) at the atoms
        left = -chain_data.rank_one_scale * chain_data.poly_at_atoms[2]
        assert np.allclose(left, -(z**2 - 1), rtol=1e-12)

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
        # predicted from the circle radius before any atom exists
        msg = r"precision exhausted at scale 1e392 \(circle radius 5.82, order 513\)"
        with pytest.raises(PreconditionError, match=msg):
            build_transform(random_class_matrix(3, 256))


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

    def test_chain_top_vector(self, chain_data):
        # z p_1 - (z^2 - 1) = 1 = a_0 p_0 at every atom: A u_1 = u_0
        assert verify_similarity(CHAIN2, chain_data).residuals[1] < 1e-12

    def test_top_vector_recurrence_rearrangement(self):
        # z p_{d-1} - a_{d-1} p_d = a_{d-2} p_{d-2} + b_{d-1} p_{d-1}
        m = random_class_matrix(32, 4)
        assert verify_similarity(m, build_transform(m)).residuals[3] < 1e-10

    def test_rank_one_locality(self):
        # the rank-one term lives on the top basis vector only: dropping it
        # moves residuals[d-1] and leaves the others bit-identical
        m = random_class_matrix(31, 5)
        data = build_transform(m)
        full = verify_similarity(m, data).residuals
        dropped = verify_similarity(m, dataclasses.replace(data, rank_one_scale=0)).residuals
        assert np.array_equal(dropped[:4], full[:4])
        assert full[4] < 1e-10 < dropped[4]

    def test_mismatched_matrix_fails_through_residuals(self):
        # the left side reads the caller's bands, not the ones data was built from
        m = random_class_matrix(36, 4)
        data = build_transform(m)
        off = m.offdiag.copy()
        off[-1] *= 1 + 1e-4
        report = verify_similarity(TridiagonalSymmetric(m.diag, off), data)
        assert not report.passed
        assert report.orthonormality <= 1e-8
        assert report.residuals[2] > 1e-8 and report.residuals[3] > 1e-8
        assert np.max(report.residuals[:2]) <= 1e-8

    def test_rejects_dimension_mismatch(self, chain_data):
        with pytest.raises(InputError, match="dimension"):
            verify_similarity(random_class_matrix(33, 3), chain_data)

    def test_corrupted_mass_fails(self, chain_data):
        masses = chain_data.measure.masses.copy()
        masses[0] *= 1.01
        corrupted = SimilarityData(
            measure=type(chain_data.measure)(chain_data.measure.atoms, masses),
            polys=chain_data.polys,
            dim=chain_data.dim,
            rank_one_scale=chain_data.rank_one_scale,
            poly_at_atoms=chain_data.poly_at_atoms,
        )
        assert not verify_similarity(CHAIN2, corrupted).passed

    def test_each_check_runs_once(self, monkeypatch):
        # one node matrix V, read by the banded residual, by the Gram pair
        # and by sigma_min; a check run twice, or not at all, moves a count
        calls = []

        def counted(name):
            fn = getattr(similarity, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(similarity, name, wrapper)

        for name in ("_node_matrix", "_gram_residuals", "_sigma_min",
                     "orthonormality_residuals", "check_invertible"):
            counted(name)
        m = random_class_matrix(34, 4)
        report = verify_similarity(m, build_transform(m))
        assert report.passed
        assert sorted(calls) == ["_gram_residuals", "_node_matrix", "_sigma_min"]

    @pytest.mark.parametrize("d", [4, 8, 32, 48])
    def test_checks_equal_the_standalone_functions(self, d):
        # verify_similarity and the two public functions share their kernels
        # and the node matrix, so they agree bit for bit
        for seed in range(5):
            m = random_class_matrix(seed, d)
            data = build_transform(m)
            report = verify_similarity(m, data)
            orth = orthonormality_residuals(data.poly_at_atoms, data.measure, d).max()
            assert report.orthonormality == orth
            assert report.sigma_min == check_invertible(data)

    def test_extends_once_outside_spectral_moments(self, monkeypatch):
        # spectral_moments extends to the h + 1 = d + 2 rows it reads (rho =
        # 2d + 1); the (d+1)-row extension of build_transform serves the
        # polynomials too
        calls = []

        def counted(m, n):
            calls.append(n)
            return extend_matrix(m, n)

        monkeypatch.setattr(similarity, "extend_matrix", counted)
        monkeypatch.setattr(moments, "extend_matrix", counted)
        m = random_class_matrix(35, 5)
        data = build_transform(m)
        assert calls == [5 + 2, 5 + 1]
        ext = extend_matrix(m, 6)
        assert np.array_equal(data.polys.ext.diag, ext.diag)
        assert np.array_equal(data.polys.ext.offdiag, ext.offdiag)


class TestSimilarityReport:
    @pytest.mark.parametrize(
        "residual, orth, sigma_min",
        [
            (1e-16, np.nan, 1.0),  # Python's max() used to drop this NaN
            (1e-16, np.inf, 1.0),
            (np.nan, 0.0, 1.0),
            (1e-16, 0.0, np.nan),
            (1e-16, 0.0, np.inf),
        ],
    )
    def test_non_finite_check_fails(self, residual, orth, sigma_min):
        report = SimilarityReport(np.array([1e-16, residual]), orth, sigma_min, tol=1e-8)
        assert report.passed is False

    def test_nan_orthonormality_shows_in_max_residual(self):
        report = SimilarityReport(np.array([1e-16]), orthonormality=np.nan, sigma_min=1.0, tol=1e-8)
        assert np.isnan(report.max_residual)

    def test_finite_checks_within_tol_pass(self):
        report = SimilarityReport(np.array([1e-16, 2e-9]), 5e-9, sigma_min=0.3, tol=1e-8)
        assert report.passed is True
        assert report.max_residual == 5e-9

    @pytest.mark.parametrize("sigma_min, passed", [(5e-11, False), (2e-10, True)])
    def test_sigma_min_is_judged_against_the_floor(self, sigma_min, passed):
        assert INVERTIBILITY_FLOOR == 1e-10
        report = SimilarityReport(np.array([1e-16]), 0.0, sigma_min, tol=1e-8)
        assert report.passed is passed

    def test_failures_name_each_check_with_value_and_bound(self):
        assert SimilarityReport(np.array([1e-16]), 0.0, 0.5, tol=1e-8).failures == []
        report = SimilarityReport(np.array([3e-5]), 0.0, 2.1e-14, tol=1e-8)
        assert report.failures == [
            "max residual 3e-05 not within tol 1e-08",
            "node matrix numerically singular: equilibrated sigma_min 2.1e-14 not above 1e-10",
        ]
        nan = SimilarityReport(np.array([1e-16]), 0.0, np.nan, tol=1e-8)
        assert nan.failures == ["node matrix check not finite: equilibrated sigma_min nan"]


class TestEnvelope:
    @pytest.mark.parametrize("d", [16, 32, 64, 128])
    def test_default_settings_verify(self, d):
        # one atom and one circle of 4d + 3 atoms: every seed verifies at the
        # 1e-8 default, and the measure matches its moments to 1e-12
        for seed in range(5):
            m = random_class_matrix(seed, d)
            data = build_transform(m)
            assert data.measure.n_atoms == 4 * d + 4
            assert verify_similarity(m, data, 1e-8).passed
            seq = spectral_moments(m, 2 * d + 1)
            assert np.max(verify_measure(data.measure, seq)) <= 1e-12


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


def equilibrated_svd_sigma_min(data):
    # the direct definition: the node matrix with unit-norm columns, by SVD
    v = np.sqrt(data.measure.masses)[:, None] * data.poly_at_atoms[: data.dim].T
    return np.linalg.svd(v / np.linalg.norm(v, axis=0), compute_uv=False)[-1]


class TestCheckInvertible:
    @pytest.mark.parametrize("d", [8, 32, 64])
    def test_agrees_with_the_equilibrated_svd(self, d):
        for seed in range(5):
            data = build_transform(random_class_matrix(seed, d))
            want = equilibrated_svd_sigma_min(data)
            assert want > INVERTIBILITY_FLOOR
            assert check_invertible(data) == pytest.approx(want, rel=1e-3)

    def test_copied_column_sham_fails_on_its_own(self):
        # p_{d-1} := p_{d-2} makes the node matrix exactly rank-deficient;
        # the raw (unscaled) sigma_min of this input read 1.00
        d = 64
        m = random_class_matrix(0, d)
        data = build_transform(m)
        p = data.poly_at_atoms.copy()
        p[d - 1] = p[d - 2]
        sham = dataclasses.replace(data, poly_at_atoms=p)
        assert check_invertible(sham) < INVERTIBILITY_FLOOR
        # the genuine input is far above the floor
        assert check_invertible(data) > 10 * INVERTIBILITY_FLOOR
        failures = verify_similarity(m, sham).failures
        assert any(f.startswith("node matrix numerically singular") for f in failures)

    @pytest.mark.parametrize("d", [8, 64, 224])
    def test_exactly_rank_deficient_reads_rounding_level(self, d):
        # the Gram reads this sham anywhere from 0 to about 1.5e-8; below
        # the Gram's resolution the SVD decides, at rounding level
        data = build_transform(random_class_matrix(0, d))
        p = data.poly_at_atoms.copy()
        p[d - 1] = p[d - 2]
        assert check_invertible(dataclasses.replace(data, poly_at_atoms=p)) < 1e-14

    @pytest.mark.parametrize("seed, d, singular", [(1, 192, True), (0, 224, False)])
    def test_near_singular_inputs_are_read_by_svd(self, seed, d, singular):
        # gen inputs whose sigma_min (7.4e-12 and 1.9e-7) the Gram cannot
        # resolve: the value is the SVD's, and judged against the floor
        data = build_transform(random_class_matrix(seed, d))
        sigma = check_invertible(data)
        assert sigma == pytest.approx(equilibrated_svd_sigma_min(data), rel=1e-3)
        assert (sigma <= INVERTIBILITY_FLOOR) is singular

    def test_vanishing_column_reads_zero(self):
        # a p_k that is 0 at every atom has no unit-norm scaling
        data = build_transform(random_class_matrix(0, 6))
        p = data.poly_at_atoms.copy()
        p[3] = 0
        assert check_invertible(dataclasses.replace(data, poly_at_atoms=p)) == 0.0

    def test_duplicate_node_synthetic(self):
        # two coincident evaluation points collapse the node matrix
        m = random_class_matrix(8, 2)
        data = build_transform(m)
        fake = data.poly_at_atoms.copy()
        fake[:, 1] = fake[:, 0]
        sham = SimilarityData(
            measure=type(data.measure)(data.measure.atoms[:2], data.measure.masses[:2]),
            polys=data.polys,
            dim=2,
            rank_one_scale=data.rank_one_scale,
            poly_at_atoms=fake[:, :2],
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
            poly_at_atoms=data.poly_at_atoms[:, :2],
        )
        with pytest.raises(InputError):
            check_invertible(tiny)


class TestSimilarityDataShape:
    """poly_at_atoms is required and (dim + 1)-by-n_atoms, so neither check
    meets a missing, mis-shaped or short value table."""

    @pytest.fixture(scope="class")
    def data(self):
        return build_transform(random_class_matrix(0, 4))  # 20 atoms

    def test_values_are_required(self, data):
        fields = {f: getattr(data, f) for f in ("measure", "polys", "dim", "rank_one_scale")}
        with pytest.raises(TypeError, match="poly_at_atoms"):
            SimilarityData(**fields)
        with pytest.raises(InputError, match=r"\(5, 20\), got \(\)"):
            SimilarityData(**fields, poly_at_atoms=None)

    def test_rejects_a_column_count_that_is_not_the_atom_count(self, data):
        fewer = type(data.measure)(data.measure.atoms[:10], data.measure.masses[:10])
        with pytest.raises(InputError, match=r"\(5, 10\), got \(5, 20\)"):
            dataclasses.replace(data, measure=fewer)

    def test_rejects_too_few_rows(self, data):
        with pytest.raises(InputError, match=r"\(5, 20\), got \(3, 20\)"):
            dataclasses.replace(data, poly_at_atoms=data.poly_at_atoms[:3])


class TestOverflowingScales:
    @staticmethod
    def decayed(factor):
        # a_k shrunk past k = 60 sends |p_n| at the atoms past 1e150
        m = random_class_matrix(1, 120)
        offdiag = m.offdiag.copy()
        offdiag[60:] *= factor
        return TridiagonalSymmetric(m.diag, offdiag)

    # the residual scale sums |z sqrt(m) p_n|^2, so the weight sqrt(m) < 1
    # delays the overflow by one degree against |z p_n|^2 at factor 1e-3
    @pytest.mark.parametrize("factor, degree", [(0.01, 118), (1e-3, 101)])
    def test_verify_similarity_names_the_degree(self, factor, degree):
        m = self.decayed(factor)
        data = build_transform(m)
        with pytest.raises(
            PreconditionError,
            match=f"polynomial degree {degree}: the residual scale overflows at max.p_{degree}. = ",
        ):
            verify_similarity(m, data)

    @pytest.mark.parametrize(
        "k, quotient",
        [(0, r"p_1 = \(z - b_0\) / a_0"), (5, r"p_6 = \(\(z - b_5\) p_5 - a_4 p_4\) / a_5")],
        ids=["a_0", "a_5"],
    )
    def test_verify_similarity_names_the_quotient_that_left_float64(self, k, quotient):
        # dividing by |a_k| = 1e-310 sends p_{k+1} itself past float64
        m = random_class_matrix(3, 8)
        offdiag = m.offdiag.copy()
        offdiag[k] = 1e-310
        m = TridiagonalSymmetric(m.diag, offdiag)
        with pytest.raises(PreconditionError, match=(
            f"^float64 range exhausted at polynomial degree {k + 1}: "
            f"{quotient} is not finite \\(\\|a_{k}\\| = 1e-310\\)$"
        )):
            verify_similarity(m, build_transform(m))

    def test_orthonormality_residuals_names_the_degree(self):
        data = build_transform(self.decayed(0.01))
        # the first entries to overflow, (117, 119) and (118, 119), pair
        # p_119 with lower degrees; no entry within degrees 0..118 overflows
        with pytest.raises(PreconditionError, match="polynomial degree 119: a Gram scale overflows"):
            orthonormality_residuals(data.poly_at_atoms, data.measure, 120)
        assert np.isfinite(orthonormality_residuals(data.poly_at_atoms, data.measure, 118)).all()


class TestNoFromnumericWrappers:
    """numpy's module-level reductions (np.max, np.all, np.sum, np.sort,
    np.diagonal, np.shape, ...) are Python wrappers in fromnumeric.py that
    cost about 2-3 us more per call than the ndarray method they end in;
    one small op makes dozens of such calls, so none may run on its path."""

    def test_one_op_runs_no_fromnumeric_frame(self):
        numpy_dir = os.path.dirname(np.__file__)
        hits = set()

        def hook(frame, event, arg):
            # name the numpy function the first frame outside numpy called,
            # and where: a dispatcher stands for the function it precedes
            if event == "call" and os.path.basename(frame.f_code.co_filename) == "fromnumeric.py":
                entry, caller = frame, frame.f_back
                while caller.f_code.co_filename.startswith(numpy_dir):
                    entry, caller = caller, caller.f_back
                name = entry.f_code.co_name.removeprefix("_").removesuffix("_dispatcher")
                where = os.path.basename(caller.f_code.co_filename)
                hits.add(f"np.{name} at {where}:{caller.f_lineno}")

        m = random_class_matrix(0, 8)
        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            passed = verify_similarity(m, build_transform(m)).passed
        finally:
            sys.setprofile(previous)
        assert passed
        assert not hits, f"numpy fromnumeric wrappers ran: {sorted(hits)}"
