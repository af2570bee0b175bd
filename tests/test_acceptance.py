"""Acceptance gate: one test per headline guarantee, one printed line each.

Run with plain pytest; the per-criterion pass/fail lines are written
straight to the terminal (bypassing capture) so the gate's verdict is
visible in any log.
"""

import json
import time

import numpy as np
import pytest

from trisim.cli import main, random_class_matrix
from trisim.classify import canonicalize, gram_condition_check, is_class_matrix
from trisim.core import AtomicMeasure, ConjugationMap, TridiagonalSymmetric
from trisim.moments import (
    MASS_DELTA,
    MomentSequence,
    admissible_radius,
    solve_gap_moments,
    spectral_moments,
    toeplitz_solvability,
    verify_measure,
)
from trisim.similarity import (
    SimilarityData,
    build_transform,
    check_invertible,
    orthonormality_residuals,
    poly_of_operator_vector,
    verify_similarity,
)

EXAMPLE_MOMENTS = MomentSequence(2, np.array([1.0, 1.0 + 1.0j, 3.0j]))


def report(capsys, num, desc, ok):
    with capsys.disabled():
        print(f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({desc}) failed"


def test_criterion_1_textbook_solve(tmp_path, capsys):
    inp = tmp_path / "moments.json"
    inp.write_text(json.dumps({"rho": 2, "s": [[1, 0], [1, 1], [0, 3]]}))
    out = tmp_path / "measure.json"
    start = time.perf_counter()
    code = main(["solve", "--input", str(inp), "--output", str(out)])
    elapsed = time.perf_counter() - start
    measure = json.loads(out.read_text())
    mu = AtomicMeasure(
        np.array([complex(a["z"][0], a["z"][1]) for a in measure["atoms"]]),
        np.array([a["mass"] for a in measure["atoms"]]),
    )
    residual = float(np.max(verify_measure(mu, EXAMPLE_MOMENTS)))
    ok = (
        code == 0
        and measure["atoms"][0]["z"] == [2.0, 2.0]
        and measure["atoms"][0]["mass"] == 0.5
        and residual <= 1e-10
        and elapsed < 0.1
    )
    report(capsys, 1, "single-atom start and exact moments for (1, 1+i, 3i)", ok)


def test_criterion_2_reference_four_atom_measure(capsys):
    z0 = (1 + 1j) / np.sqrt(2)
    z1 = (1 / (4 * np.sqrt(2))) * (-1 - np.sqrt(15) + 1j * (-1 + np.sqrt(15)))
    z2 = (1 / (4 * np.sqrt(2))) * (-1 + np.sqrt(15) + 1j * (-1 - np.sqrt(15)))
    mu = AtomicMeasure(
        np.array([2 + 2j, 2 * z0, 2 * z1, 2 * z2]),
        np.array([0.5, 0.1, 0.2, 0.2]),
    )
    residual = float(np.max(verify_measure(mu, EXAMPLE_MOMENTS)))
    report(capsys, 2, "independent 4-atom measure verifies to 1e-12", residual <= 1e-12)


def test_criterion_3_ring_gadget_exactness(capsys):
    rng = np.random.default_rng(20240817)
    worst = 0.0
    ok = True
    for _ in range(200):
        s0 = float(rng.uniform(0.01, 2.0))
        c = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        n = int(rng.integers(2, 9))
        r = admissible_radius(s0, c, n)
        sol = solve_gap_moments(s0, c, n, r)
        mu = sol.measure
        big_n = 2 * n + 1
        floor = 2 * MASS_DELTA * s0 / big_n * (1 - 1e-9)
        ok &= bool(np.all(mu.masses >= floor))
        ct = (c / s0) / r**n
        ok &= toeplitz_solvability(ct, n) >= 2 * MASS_DELTA - MASS_DELTA**2
        for k in range(n + 1):
            target = s0 if k == 0 else (c if k == n else 0)
            scale = max(1.0, abs(target), r**k * mu.total_mass)
            worst = max(worst, abs(mu.moment(k) - target) / scale)
    report(
        capsys,
        3,
        "200 random ring gadgets exact to 1e-11 with positive mass floor",
        ok and worst <= 1e-11,
    )


def test_criterion_4_similarity_property_suite(capsys):
    start = time.perf_counter()
    worst_orth = worst_basis = worst_sim = 0.0
    ok = True
    for seed in range(100):
        d = 2 + seed % 5
        m = random_class_matrix(3000 + seed, d)
        data = build_transform(m)
        worst_orth = max(
            worst_orth,
            float(np.max(orthonormality_residuals(data.poly_at_atoms, data.measure, d))),
        )
        for k in range(d):
            e = np.zeros(d, dtype=complex)
            e[k] = 1
            worst_basis = max(
                worst_basis,
                float(np.linalg.norm(poly_of_operator_vector(m, data.polys, k) - e)),
            )
        worst_sim = max(worst_sim, verify_similarity(m, data).max_residual)
        ok &= check_invertible(data) > 0 and data.measure.n_atoms > 2 * d
    elapsed = time.perf_counter() - start
    ok &= worst_orth <= 1e-8 and worst_basis <= 1e-9 and worst_sim <= 1e-8
    ok &= elapsed < 10.0
    report(
        capsys,
        4,
        "100 pipelines: orthonormality 1e-8, basis map 1e-9, similarity 1e-8",
        ok,
    )


def test_criterion_5_membership_round_trip(capsys):
    ok = True
    worst_gamma = worst_dev = 0.0
    for seed in range(100):
        d = 2 + seed % 5
        m = random_class_matrix(3000 + seed, d)
        dense = m.dense()
        e0 = np.zeros(d, dtype=complex)
        e0[0] = 1
        gr = gram_condition_check(dense, e0, ConjugationMap.standard(d), 1e-8)
        ok &= gr.passed
        worst_gamma = max(worst_gamma, gr.max_relative())

        # unitarily disguised copy with the transported conjugation and
        # cyclic vector
        rng = np.random.default_rng(9000 + seed)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        form = canonicalize(
            q @ dense @ q.conj().T, q[:, 0], ConjugationMap(q @ q.T), 1e-8
        )
        rho = 2 * d + 1
        want = spectral_moments(m, rho).values
        got = spectral_moments(form.matrix, rho).values
        worst_dev = max(
            worst_dev, float(np.max(np.abs(got - want) / np.maximum(1, np.abs(want))))
        )
    ok &= worst_gamma <= 1e-8 and worst_dev <= 1e-7
    report(
        capsys,
        5,
        "Gram condition holds and the canonical form recovers the moments",
        ok,
    )


def test_criterion_6_negative_controls(capsys):
    # (a) the conjugated pairing is NOT the orthonormality pairing
    m = TridiagonalSymmetric([1j, 0.5], [1])
    data = build_transform(m)
    p = data.poly_at_atoms[: data.dim + 1]
    w = data.measure.masses
    gram = (p * w) @ np.conj(p).T
    scales = (np.abs(p) * w) @ np.abs(p).T
    sesq = float(np.max(np.abs(gram - np.eye(data.dim + 1)) / np.maximum(1.0, scales)))

    # (b) a vanishing sub-diagonal entry is rejected by name
    bad = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 2]], dtype=complex)
    accepted, _, reason = is_class_matrix(bad)

    # (c) a 1% mass perturbation breaks the verified similarity
    masses = data.measure.masses.copy()
    masses[0] *= 1.01
    corrupted = SimilarityData(
        measure=AtomicMeasure(data.measure.atoms, masses),
        polys=data.polys,
        dim=data.dim,
        rank_one_scale=data.rank_one_scale,
        poly_at_atoms=data.poly_at_atoms,
    )
    ok = (
        sesq > 0.1
        and not accepted
        and "a_1" in reason
        and "vanishes" in reason
        and not verify_similarity(m, corrupted).passed
    )
    report(capsys, 6, "sesquilinear mix-up, zero band entry, perturbed measure all rejected", ok)


def test_criterion_7_truncation_invariance(capsys):
    ok = True
    for seed in range(50):
        d = 2 + seed % 5
        m = random_class_matrix(5000 + seed, d)
        rho = 2 * d + 1
        a = spectral_moments(m, rho, trunc=rho + 2).values
        b = spectral_moments(m, rho, trunc=rho + 10).values
        ok &= bool(np.array_equal(a, b))
    report(capsys, 7, "moments bit-identical across truncation sizes", ok)
