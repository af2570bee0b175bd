import math

import numpy as np
import pytest

from trisim import moments
from trisim.core import (
    AtomicMeasure,
    ConsistencyError,
    InputError,
    PreconditionError,
    TridiagonalSymmetric,
    random_class_matrix,
)
from trisim.similarity import build_transform, verify_similarity
from trisim.moments import (
    MomentSequence,
    RadiusSchedule,
    admissible_radius,
    algorithm1,
    extend_matrix,
    solve_gap_moments,
    solve_rho1,
    spectral_moments,
    toeplitz_solvability,
    verify_measure,
)

CHAIN2 = TridiagonalSymmetric([0, 0], [1])


def dense_power_oracle(m, rho, trunc):
    """Independent route: (0,0) entry of plain powers of the truncation,
    read off row 0 of each power, e_0^T J^k, by dense products."""
    j = extend_matrix(m, trunc).dense()
    out = [1.0 + 0j]
    row = np.eye(trunc, dtype=complex)[0]
    for _ in range(rho):
        row = row @ j
        out.append(complex(row[0]))
    return np.array(out)


def three_line_moments(m, rho):
    """``spectral_moments`` with its Krylov step written as three lines
    that slice and allocate each step: the reference the loop over
    preallocated row views must match bit for bit."""
    h = (rho + 1) // 2
    v = np.zeros((h + 1, h + 1), dtype=np.complex128)
    ext = extend_matrix(m, max(h + 1, m.dim))
    diag, offdiag = ext.diag[: h + 1], ext.offdiag[:h]
    v[0, 0] = 1.0
    for cur, nxt in zip(v[:-1], v[1:]):
        np.multiply(diag, cur, out=nxt)
        nxt[:-1] += offdiag * cur[1:]
        nxt[1:] += offdiag * cur[:-1]
    s = np.empty(2 * h + 1, dtype=np.complex128)
    s[0::2] = np.sum(v * v, axis=1)
    s[1::2] = np.sum(v[:-1] * v[1:], axis=1)
    return s[: rho + 1]


class TestExtendMatrix:
    def test_chain_extension(self):
        ext = extend_matrix(CHAIN2, 4)
        assert np.array_equal(ext.diag, [0, 0, 0, 0])
        assert np.array_equal(ext.offdiag, [1, 1, 1])

    def test_generic_extension(self):
        ext = extend_matrix(TridiagonalSymmetric([1, 2], [3]), 3)
        assert np.array_equal(ext.diag, [1, 2, 0])
        assert np.array_equal(ext.offdiag, [3, 1])

    def test_no_op_at_boundary(self):
        m = TridiagonalSymmetric([1, 2, 3], [4, 5])
        ext = extend_matrix(m, 3)
        assert np.array_equal(ext.diag, m.diag)
        assert np.array_equal(ext.offdiag, m.offdiag)

    def test_rejects_shrinking(self):
        with pytest.raises(InputError):
            extend_matrix(CHAIN2, 1)


class TestSpectralMoments:
    def test_s0_is_one(self):
        for seed in range(5):
            m = random_class_matrix(seed, 3)
            assert spectral_moments(m, 3).values[0] == 1

    def test_chain_catalan_moments(self):
        got = spectral_moments(CHAIN2, 5).values
        assert np.allclose(got, [1, 0, 1, 0, 2, 0], atol=1e-14)

    def test_first_moment_is_b0(self):
        m = TridiagonalSymmetric([1j, 0], [1])
        assert spectral_moments(m, 1).values[1] == 1j

    def test_matches_dense_power_oracle(self):
        # odd and even rho, below and past the matrix dimension
        for seed in range(10):
            for d in (2 + seed % 5, 9, 16, 33, 64):
                m = random_class_matrix(700 + seed, d)
                for rho in (1, 2, 2 * d, 2 * d + 1, 3 * d + 7):
                    got = spectral_moments(m, rho).values
                    want = dense_power_oracle(m, rho, max(rho + 2, d))
                    assert np.max(np.abs(got - want) / np.maximum(1, np.abs(want))) < 1e-10

    def test_truncation_invariance_is_exact(self):
        for seed in range(50):
            d = 2 + seed % 5
            m = random_class_matrix(800 + seed, d)
            rho = 2 * d + 1
            a = spectral_moments(m, rho, trunc=rho + 2).values
            for trunc in (rho + 10, rho + 50):
                assert np.array_equal(a, spectral_moments(m, rho, trunc=trunc).values)

    @pytest.mark.parametrize("d", [2, 8, 48, 128])
    def test_krylov_step_matches_the_three_line_reference_bitwise(self, d):
        for seed in range(5):
            m = random_class_matrix(seed, d)
            for rho in (2 * d, 2 * d + 1):
                assert np.array_equal(spectral_moments(m, rho).values, three_line_moments(m, rho))

    @pytest.mark.parametrize("scale, order", [(1e100, 4), (1e150, 3)])
    def test_names_the_first_overflowing_order(self, scale, order):
        # |entries| near 1: s_k grows like scale^k, past 1e308 at this order
        m = random_class_matrix(0, 4)
        big = TridiagonalSymmetric(m.diag * scale, m.offdiag * scale)
        with pytest.raises(PreconditionError, match=f"moment order {order}: s_{order} overflows"):
            spectral_moments(big, 9)

    def test_rejects_non_class_matrix(self):
        with pytest.raises(InputError, match="a_0"):
            spectral_moments(TridiagonalSymmetric([1, 2], [0]), 3)

    def test_zero_division_names_the_first_vanishing_a_k(self):
        # the one exact-zero rule for the bands, which build_transform's
        # recurrence relies on
        m = TridiagonalSymmetric(np.zeros(6), [1, 1, 0, 1, 0])
        with pytest.raises(InputError, match="a_2 = 0"):
            spectral_moments(m, 13)
        # only an exact zero is refused: a small a_k is as valid as c a_k
        for small in (1e-15, 1e-300):
            spectral_moments(TridiagonalSymmetric(np.zeros(6), [1, 1, small, 1, 1]), 13)

    def test_only_an_exact_zero_a_k_is_refused(self):
        # the tol-based class test is the caller's: a library caller may pass
        # |a_1| = 3e-10, which is_class_matrix refuses at its default tol
        m = TridiagonalSymmetric([0.1, 0.2, 0.3], [1, 3e-10])
        got = spectral_moments(m, 7).values
        want = dense_power_oracle(m, 7, 9)
        assert np.max(np.abs(got - want) / np.maximum(1, np.abs(want))) < 1e-15
        data = build_transform(m)
        assert verify_similarity(m, data, 1e-12).passed
        zero = TridiagonalSymmetric([0.1, 0.2, 0.3], [1, 0])
        for build in (lambda: spectral_moments(zero, 7), lambda: build_transform(zero)):
            with pytest.raises(InputError, match="not a class matrix: a_1 = 0"):
                build()


class TestSolveRho1:
    def test_zero_first_moment(self):
        mu = solve_rho1(1.0, 0)
        assert mu.atoms[0] == 0 and mu.masses[0] == 1

    def test_half_mass_atom(self):
        mu = solve_rho1(0.5, 1 + 1j)
        assert mu.atoms[0] == 2 + 2j
        assert mu.masses[0] == 0.5

    def test_scaling(self):
        mu = solve_rho1(2.0, 2j)
        assert mu.atoms[0] == 1j and mu.masses[0] == 2

    def test_rejects_nonpositive_s0(self):
        with pytest.raises(InputError):
            solve_rho1(0.0, 1)

    @pytest.mark.parametrize("s0, s1", [(1e-300, 1e300), (5e-324, 1), (1e-10, 1e308 + 1e308j)])
    def test_atom_past_float64_is_a_precondition(self, s0, s1):
        # Python's complex division returns inf here, with no numpy warning
        with pytest.raises(PreconditionError, match="^precision exhausted: s_1/s_0 = "):
            solve_rho1(s0, s1)


class TestToeplitzSolvability:
    def test_zero_target(self):
        assert toeplitz_solvability(0, 2) == 1

    def test_half_imaginary(self):
        assert toeplitz_solvability(-0.5j, 2) == pytest.approx(0.75)

    def test_boundary(self):
        assert toeplitz_solvability(np.exp(0.3j), 5) == pytest.approx(0, abs=1e-15)


class TestSolveGapMoments:
    def test_uniform_when_target_zero(self):
        sol = solve_gap_moments(1.0, 0, 2, 1.0)
        assert sol.measure.n_atoms == 5
        assert np.allclose(sol.measure.masses, 0.2)
        assert np.allclose(np.abs(sol.measure.atoms), 1.0)

    def test_normalized_circle_solution(self):
        # c~ = -i/2 sits exactly on the positivity boundary, so the margin
        # is dialed to zero; moments (1, 0, -2i) exact to rounding
        sol = solve_gap_moments(1.0, -2j, 2, 2.0, delta=0.0)
        mu = sol.measure
        j = np.arange(5)
        want = (1 + np.cos(4 * np.pi * j / 5 + np.pi / 2)) / 5
        assert np.allclose(mu.masses, want, atol=1e-15)
        for k, target in [(0, 1), (1, 0), (2, -2j)]:
            assert abs(mu.moment(k) - target) < 1e-12 * max(1, abs(2.0**k))

    def test_masses_scale_with_s0(self):
        full = solve_gap_moments(1.0, -2j, 2, 2.0, delta=0.0)
        half = solve_gap_moments(0.5, -1j, 2, 2.0, delta=0.0)
        assert np.allclose(half.measure.masses, full.measure.masses / 2)
        assert abs(half.measure.moment(2) - (-1j)) < 1e-13

    def test_atoms_on_circle(self):
        sol = solve_gap_moments(0.7, 3 + 1j, 4, 3.0)
        assert np.max(np.abs(np.abs(sol.measure.atoms) - 3.0)) < 1e-12 * 3.0

    @pytest.mark.parametrize(
        "c, r, scale",
        [(1.0, 1e200, "1e400 (circle radius 1e+200, order 2)"), (0.0, 1e-200, "1e-400 (circle radius 1e-200, order 2)")],
    )
    def test_rejects_a_radius_past_float64(self, c, r, scale):
        # r^n must stay finite and normal, as it does in algorithm1: past
        # 1e308 the target would round to ct = 0, and below 1e-307 the
        # circle's targets would divide 0 by 0
        with pytest.raises(PreconditionError) as exc:
            solve_gap_moments(1.0, c, 2, r)
        assert str(exc.value) == f"precision exhausted at scale {scale}"

    def test_rejects_oversized_target(self):
        with pytest.raises(InputError, match="radius"):
            solve_gap_moments(1.0, 10, 2, 1.0)

    def test_random_exactness_and_positivity(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            s0 = rng.uniform(0.01, 2)
            c = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            n = int(rng.integers(2, 9))
            r = admissible_radius(s0, c, n)
            mu = solve_gap_moments(s0, c, n, r).measure
            big_n = 2 * n + 1
            assert np.all(mu.masses >= 2 * 1e-3 * s0 / big_n * (1 - 1e-9))
            for k in range(n + 1):
                target = s0 if k == 0 else (c if k == n else 0)
                scale = max(1.0, abs(target), r**k * mu.total_mass)
                assert abs(mu.moment(k) - target) / scale < 1e-12


class TestCircle:
    def test_order_k_atom_sum_is_scaled_target(self):
        # over the 2 rho + 1 roots of unity the circle's order-k moment picks
        # up only ct_k: (s0/2) r^k ct_k for 2 <= k <= rho, and 0 at k = 1
        for seed, d in [(1, 2), (2, 5), (3, 12), (4, 32)]:
            seq = spectral_moments(random_class_matrix(seed, d), 2 * d + 1)
            mu = algorithm1(seq)
            half, a = mu.masses[0], mu.atoms[0]
            assert half == seq.s0 / 2
            z, w = mu.atoms[1:], mu.masses[1:]
            r = z[0].real
            assert abs(np.sum(w * z)) <= 1e-14 * half * r
            for k in range(2, seq.rho + 1):
                ct = (seq.values[k] - half * a**k) / (half * r**k)
                got = np.sum(w * z**k)
                assert abs(got - half * r**k * ct) <= 1e-13 * half * r**k

    def test_subnormal_scale_is_a_precondition(self):
        # entries scaled by 1e-3 give r near 3e-3, so r^129 and the top
        # moments are subnormal: predicted before r^n underflows to 0
        m = random_class_matrix(1, 64)
        seq = spectral_moments(TridiagonalSymmetric(m.diag * 1e-3, m.offdiag * 1e-3), 129)
        msg = r"precision exhausted at scale 1e-322 \(circle radius 0.00317, order 129\)"
        with pytest.raises(PreconditionError, match=msg):
            algorithm1(seq)

    def test_masses_sum_to_half_and_clear_the_floor(self):
        for seed, d in [(5, 3), (6, 16)]:
            seq = spectral_moments(random_class_matrix(seed, d), 2 * d + 1)
            mu = algorithm1(seq)
            w = mu.masses[1:]
            assert len(w) == 2 * seq.rho + 1
            assert abs(w.sum() - seq.s0 / 2) <= 1e-14
            assert np.all(w >= 2 * moments.MASS_DELTA * (seq.s0 / 2) / len(w) * (1 - 1e-9))


def radius_draw(rng):
    """A random input of ``_circle_radius``: 1 to 400 nonzero c_n (a fifth of
    the draws have one), log-magnitudes spread up to +-600 or up to +-3,
    floors 0 (a quarter of the draws) or up to 10, delta 1e-3 to 0.49."""
    m = 1 if rng.random() < 0.2 else int(rng.integers(1, 401))
    top = m + 1 if rng.random() < 0.5 else int(rng.integers(m + 1, 2 * m + 401))
    n = np.sort(rng.choice(np.arange(2, top + 1), size=m, replace=False))
    spread = rng.uniform(0, 600) if rng.random() < 0.5 else rng.uniform(0, 3)
    c = np.zeros(top + 1, dtype=np.complex128)
    c[n] = np.exp(rng.uniform(-spread, spread, m) + 2j * np.pi * rng.random(m))
    s0 = math.exp(rng.uniform(-5, 5))
    floor = 0.0 if rng.random() < 0.25 else rng.uniform(0, 10)
    delta = math.exp(rng.uniform(math.log(1e-3), math.log(0.49)))
    return s0, c, floor, delta


class TestCircleRadius:
    def test_minimal_within_rtol_on_random_draws(self, monkeypatch):
        # the margin holds at r, and r exp(-RADIUS_RTOL) breaks it unless
        # the floor binds; each search evaluates the sum at most 8 times
        evaluations = []
        real_exp = np.exp

        def counting_exp(x):
            evaluations.append(None)
            return real_exp(x)

        rng = np.random.default_rng(2024)
        binding = 0
        for _ in range(2000):
            s0, c, floor, delta = radius_draw(rng)
            evaluations.clear()
            monkeypatch.setattr(np, "exp", counting_exp)
            r = moments._circle_radius(s0, c, floor, delta)
            monkeypatch.setattr(np, "exp", real_exp)
            assert len(evaluations) <= 8
            n = c.nonzero()[0]
            la = np.log(np.abs(c[n])) - math.log(s0)
            budget = 0.5 - delta

            def total(x):
                with np.errstate(over="ignore"):
                    return np.exp(la - n * math.log(x)).sum()

            assert r >= floor
            assert total(r) <= budget
            if floor > 0 and total(floor) <= budget:
                binding += 1
                assert r <= floor * math.exp(moments.RADIUS_RTOL)
            else:
                assert total(r * math.exp(-moments.RADIUS_RTOL)) > budget
        assert 200 <= binding <= 1800  # the draws bind the floor and leave it free

    def test_no_target_leaves_the_floor_or_one(self):
        c = np.zeros(6, dtype=np.complex128)
        assert moments._circle_radius(1.0, c, 0.0, 1e-3) == 1.0
        assert moments._circle_radius(1.0, c, 2.5, 1e-3) == 2.5


class TestAlgorithm1:
    def test_textbook_example(self):
        seq = MomentSequence(2, np.array([1, 1 + 1j, 3j]))
        mu = algorithm1(seq)
        assert mu.atoms[0] == 2 + 2j
        assert mu.masses[0] == 0.5
        assert mu.n_atoms == 6  # one atom plus a 5-point ring
        assert np.max(verify_measure(mu, seq)) < 1e-10

    def test_all_zero_moments(self):
        rho = 4
        seq = MomentSequence(rho, np.array([1.0] + [0.0] * rho))
        mu = algorithm1(seq)
        assert mu.atoms[0] == 0
        assert mu.masses[0] == 1 / 2
        # nothing fixes the scale: the circle has radius 1 and uniform masses
        big_n = 2 * rho + 1
        assert np.allclose(mu.atoms[1:], np.exp(2j * np.pi * np.arange(big_n) / big_n))
        assert np.allclose(mu.masses[1:], 1 / (2 * big_n))
        assert np.max(verify_measure(mu, seq)) < 1e-12

    def test_chain_spectral_moments(self):
        seq = spectral_moments(CHAIN2, 5)
        mu = algorithm1(seq)
        assert np.max(verify_measure(mu, seq)) < 1e-9

    def test_atom_count_beats_two_d(self):
        for d in range(2, 7):
            m = random_class_matrix(d, d)
            seq = spectral_moments(m, 2 * d + 1)
            mu = algorithm1(seq)
            assert mu.n_atoms == 2 * seq.rho + 2 == 4 * d + 4
            assert mu.n_atoms > 2 * d

    def test_circle_radius_clears_first_atom(self):
        seq = spectral_moments(random_class_matrix(5, 4), 9)
        for gamma in [1.01, 1.5, 4.0]:
            mu = algorithm1(seq, RadiusSchedule(gamma=gamma))
            r = mu.atoms[1].real
            assert mu.atoms[1].imag == 0
            assert np.max(np.abs(np.abs(mu.atoms[1:]) - r)) <= 4 * np.finfo(float).eps * r
            assert r >= gamma * abs(mu.atoms[0])

    def test_radius_is_the_smallest_admissible(self):
        # sum |ct_n| stays within 1/2 - delta at r, and a radius smaller by
        # twice the search tolerance breaks it, unless the gamma floor binds
        # (as it does at gamma 4 and not at 1.01)
        for seed, d, gamma in [(5, 4, 1.01), (6, 16, 1.01), (7, 16, 4.0)]:
            seq = spectral_moments(random_class_matrix(seed, d), 2 * d + 1)
            mu = algorithm1(seq, RadiusSchedule(gamma=gamma))
            half, a, r = mu.masses[0], mu.atoms[0], mu.atoms[1].real
            n = np.arange(2, seq.rho + 1)
            c = np.abs(seq.values[2:] - half * a**n) / half
            budget = 0.5 - moments.MASS_DELTA
            assert np.sum(c / r**n) <= budget * (1 + 1e-12)
            floor = gamma * abs(a)
            binds = np.sum(c / floor**n) <= budget
            assert binds == (gamma == 4.0)
            if binds:
                assert floor <= r <= floor * (1 + 2 * moments.RADIUS_RTOL)
            else:
                assert np.sum(c / (r / (1 + 2 * moments.RADIUS_RTOL)) ** n) > budget

    def test_end_to_end_random(self):
        for seed in range(20):
            d = 2 + seed % 5
            m = random_class_matrix(900 + seed, d)
            seq = spectral_moments(m, 2 * d + 1)
            mu = algorithm1(seq)
            assert np.max(verify_measure(mu, seq)) < 1e-9

    @pytest.mark.parametrize("first, rho", [(0.0, 2), (0.0, 5), (0.5, 5), (0.5, 13)])
    def test_single_frequency_circle_matches_solve_gap_moments_bitwise(self, first, rho):
        # s_n = (s0/2) a^n exactly for 2 <= n < rho (a = 0 or 1), so the
        # circle carries the one frequency rho: a gap problem
        target = 3.0 + 2.0j
        seq = MomentSequence(rho, np.array([1.0] + [first] * (rho - 1) + [target]))
        mu = algorithm1(seq)
        assert mu.atoms[0] == 2 * first and mu.masses[0] == 0.5
        r = mu.atoms[1].real
        ring = solve_gap_moments(0.5, target - first, rho, r).measure
        assert np.array_equal(mu.atoms[1:], ring.atoms)
        assert np.array_equal(mu.masses[1:], ring.masses)

    @pytest.mark.parametrize("d", [16, 32])
    def test_larger_dimensions_near_unit_growth(self, d):
        for seed in range(3):
            m = random_class_matrix(seed, d)
            data = build_transform(m, schedule=RadiusSchedule(gamma=1.01))
            seq = spectral_moments(m, 2 * d + 1)
            assert np.max(verify_measure(data.measure, seq)) <= 1e-12
            assert verify_similarity(m, data).passed

    def test_schedule_knobs(self):
        seq = MomentSequence(3, np.array([1, 1j, 0, 2]))
        mu = algorithm1(seq, RadiusSchedule(gamma=2.5, delta=1e-2))
        assert np.max(verify_measure(mu, seq)) < 1e-10

    def test_far_first_atom_exhausts_before_its_powers_overflow(self):
        # a = 2000 and r >= 1.5 |a| put r^150 near 1e522: predicted from the
        # floor, before (s0/2) a^n is formed
        seq = MomentSequence(150, np.array([1.0, 1e3] + [0.0] * 149))
        msg = r"scale 1e522 \(circle radius 3e\+03, order 150\)"
        with pytest.raises(PreconditionError, match=msg):
            algorithm1(seq)

    def test_floor_past_float64_names_a_finite_scale(self):
        # gamma |a| = 1.5 * 1.41e308 overflows; its exponent is formed in
        # log10, so no product overflows and no RuntimeWarning is raised
        seq = MomentSequence(2, np.array([2, 1e308 + 1e308j, 0]))
        msg = r"precision exhausted at scale 1e617 \(circle radius 2.12e\+308, order 2\)"
        with pytest.raises(PreconditionError, match=msg):
            algorithm1(seq)

    def test_overflowing_circle_target_names_its_order(self):
        # a = 6e153j passes the floor check, but c_2 = s_2 - (s_0/2) a^2 =
        # 1.7e308 + 3.6e307 overflows; it raised a bare OverflowError
        seq = MomentSequence(2, np.array([2, 6e153j, 1.7e308]))
        msg = r"moment order 2: c_2 = s_2 - \(s_0/2\) a\^2 overflows"
        with pytest.raises(PreconditionError, match=msg):
            algorithm1(seq)

    def test_radius_rounding_carries_into_the_exponent(self):
        # the floor gamma |a| is 10^308.999999: its mantissa 9.99998 prints
        # to three figures as 10, so the radius reads 1e+309, not 10e+308
        seq = MomentSequence(2, np.array([2e-10, 10**298.999999 / 1.5, 0]))
        msg = r"precision exhausted at scale 1e618 \(circle radius 1e\+309, order 2\)"
        with pytest.raises(PreconditionError, match=msg):
            algorithm1(seq)

    @pytest.mark.parametrize("s0", [1e-310, 5e-324])
    def test_subnormal_half_mass_exhausts(self, s0):
        # at 1e-310, s_1 / (s_0/2) is 2, but numpy forms it through
        # 1/(s_0/2) = inf; at 5e-324, s_0/2 rounds to 0
        seq = MomentSequence(2, np.array([s0, s0, s0]))
        with pytest.raises(PreconditionError, match="below the normal float64 range"):
            algorithm1(seq)

    def test_rho_one_is_the_single_exact_atom(self):
        # no circle at rho = 1: the measure is solve_rho1's atom, whatever the schedule
        for s in ([1, 1j], [2, 1 + 1j], [3.5, -0.25], [1e-3, 7e2 - 3e2j]):
            want = solve_rho1(s[0], s[1])
            for schedule in (None, RadiusSchedule(gamma=3.0, delta=0.25)):
                mu = algorithm1(MomentSequence(1, np.array(s)), schedule)
                assert np.array_equal(mu.atoms, want.atoms)
                assert np.array_equal(mu.masses, want.masses)

    def test_bad_schedule_rejected(self):
        for gamma in [0.9, 1.0, np.nan, np.inf]:
            with pytest.raises(InputError):
                RadiusSchedule(gamma=gamma)
        with pytest.raises(InputError):
            RadiusSchedule(delta=0.7)


class TestVerifyMeasure:
    def test_paper_four_atom_solution(self):
        # the textbook 4-atom measure: one atom plus a 3-atom ring on |z|=2
        z0 = (1 + 1j) / np.sqrt(2)
        z1 = (1 / (4 * np.sqrt(2))) * (-1 - np.sqrt(15) + 1j * (-1 + np.sqrt(15)))
        z2 = (1 / (4 * np.sqrt(2))) * (-1 + np.sqrt(15) + 1j * (-1 - np.sqrt(15)))
        mu = AtomicMeasure(
            np.array([2 + 2j, 2 * z0, 2 * z1, 2 * z2]),
            np.array([0.5, 0.1, 0.2, 0.2]),
        )
        seq = MomentSequence(2, np.array([1, 1 + 1j, 3j]))
        assert np.max(verify_measure(mu, seq)) <= 1e-12

    def test_single_atom_origin(self):
        mu = AtomicMeasure(np.array([0j]), np.array([1.0]))
        seq = MomentSequence(1, np.array([1.0, 0.0]))
        assert np.array_equal(verify_measure(mu, seq), [0, 0])

    def test_mass_perturbation_linearity(self):
        mu = AtomicMeasure(np.array([0j]), np.array([1.0 + 1e-3]))
        seq = MomentSequence(1, np.array([1.0, 0.0]))
        # residual is linear in the mass error (up to the normalizer, which
        # itself moved by the same 1e-3)
        assert verify_measure(mu, seq)[0] == pytest.approx(1e-3, rel=2e-3)

    def test_difference_near_the_float64_limit_is_scaled_first(self):
        # s_1 - sum m z = -1e308 - 1e308 overflows while both terms and the
        # bound max|z| * mass = 1e308 are finite: the residual is 2, with no
        # RuntimeWarning (pytest turns one into an error)
        mu = AtomicMeasure(np.array([1e154]), np.array([1e154]))
        res = verify_measure(mu, MomentSequence(1, np.array([1e154, -1e308])))
        assert res[0] == 0
        assert res[1] == pytest.approx(2.0)

    def test_residuals_are_the_per_order_scalar_formula(self):
        # pinned bit for bit: numpy's array ** and complex abs differ from the
        # scalar ones in the last bit, so a vectorized residual fails here.
        # Both terms are divided by the bound before the subtraction, so no
        # difference can overflow; the bound has no floor at 1, and is 0
        # only at s_k = 0 with every atom at 0, where the residual is 0.
        cases = []
        for seed in range(40):
            seq = spectral_moments(random_class_matrix(seed, 2 + seed), 2 * seed + 5)
            cases.append((algorithm1(seq), seq))
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n, rho = rng.integers(1, 16), rng.integers(1, 30)
            atoms = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10 ** rng.uniform(-2, 2)
            s = rng.standard_normal(rho + 1) + 1j * rng.standard_normal(rho + 1)
            s[0] = rng.uniform(0.1, 10)
            cases.append((AtomicMeasure(atoms, rng.uniform(0.01, 5, n)), MomentSequence(rho, s)))
        for c in (1e-20, 1e-200):  # moments and masses far below 1
            cases += [(AtomicMeasure(mu.atoms, c * mu.masses), MomentSequence(seq.rho, c * seq.values))
                      for mu, seq in cases[:40:7]]
        cases += [(AtomicMeasure(np.zeros(1), [2.0]), MomentSequence(2, [2, 0, s_2])) for s_2 in (0, 1e-30)]
        for mu, seq in cases:
            zmax, mass = float(np.max(np.abs(mu.atoms))), mu.total_mass
            want = []
            for k, s_k in enumerate(seq.values):
                scale = max(abs(s_k), zmax**k * mass) or 1.0
                want.append(abs(mu.moment(k) / scale - s_k / scale))
            assert np.array_equal(verify_measure(mu, seq), want)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: spectral_moments(CHAIN2, 0), "rho must be at least 1"),
        (lambda: spectral_moments(CHAIN2, 3, trunc=4), "truncation size must be at least rho + 2 = 5"),
        (lambda: toeplitz_solvability(0.1, 1), "rho must be at least 2"),
        (lambda: solve_gap_moments(0.0, 1, 2, 1.0), "s_0 must be strictly positive"),
        (lambda: solve_gap_moments(1.0, 1, 1, 1.0), "gap order must be at least 2"),
        (lambda: solve_gap_moments(1.0, 1, 2, 0.0), "radius must be positive"),
    ],
    ids=["rho-0", "trunc", "toeplitz-rho-1", "gap-s0", "gap-order", "gap-radius"],
)
def test_argument_guards(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


class TestMomentSequence:
    def test_rejects_nonpositive_s0(self):
        with pytest.raises(InputError):
            MomentSequence(1, np.array([-1.0, 0]))

    def test_rejects_complex_s0(self):
        with pytest.raises(InputError):
            MomentSequence(1, np.array([1 + 1j, 0]))

    def test_imaginary_part_of_s0_is_judged_at_its_scale(self):
        with pytest.raises(InputError, match="s_0 must be real"):
            MomentSequence(1, np.array([1e-20 + 1e-25j, 0]))
        MomentSequence(1, np.array([1e-20 + 1e-33j, 0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError):
            MomentSequence(2, np.array([1.0, 0]))

    @pytest.mark.parametrize("rho", [int(1e300), 10**399], ids=["1e300", "10**399"])
    def test_length_message_bounds_a_huge_rho(self, rho):
        # the echo is cut to about 40 characters; TestSolve pins a small rho printed whole
        with pytest.raises(InputError, match=r"^expected 1\d+\.\.\.\d+ moments, got 2$") as exc:
            MomentSequence(rho, np.array([1.0, 0]))
        assert len(str(exc.value)) <= 80
