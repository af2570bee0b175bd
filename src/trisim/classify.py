"""Membership tests and the tridiagonal canonical form.

An operator belongs to the class of interest when some orthonormal basis
turns it into a complex symmetric tridiagonal matrix with nonzero
sub-diagonal.  The characterization is two-sided: the Gram-determinant
condition on the Krylov vectors is necessary and sufficient (given a
conjugation fixing the cyclic vector), and the sufficiency proof is
constructive -- Gram-Schmidt plus a phase fix.  ``canonicalize`` is that
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    ConjugationMap,
    ConsistencyError,
    GramReport,
    InputError,
    PreconditionError,
    TridiagonalSymmetric,
    as_complex_matrix,
    as_complex_vector,
    gram_det,
    hadamard_scale,
    rel_zero,
)

CYCLIC_RANK_TOL = 1e-8


@dataclass
class CanonicalForm:
    """Orthonormal basis U, the tridiagonal matrix in that basis, and phases."""

    basis: np.ndarray
    matrix: TridiagonalSymmetric
    phases: np.ndarray


def _vanishing_subdiagonal(sub: np.ndarray, thresh: float) -> str | None:
    """Why some |a_k| <= thresh, naming the first such k; None if none is."""
    small = np.abs(sub) <= thresh
    if not small.any():
        return None
    k = int(np.argmax(small))
    return f"sub-diagonal entry a_{k} vanishes (|a_{k}| = {abs(sub[k]):.3e})"


def _is_class_tridiagonal(m: TridiagonalSymmetric) -> tuple[bool, str]:
    """``is_class_matrix(m.dense())`` on the bands, in O(d).

    Returns ``(ok, reason)``.  A ``TridiagonalSymmetric`` is tridiagonal
    and symmetric by construction, so only the sub-diagonal test remains,
    with the default threshold DEFAULT_TOL * max(1, max|entry|).
    """
    norm = float(max(np.max(np.abs(m.diag)), np.max(np.abs(m.offdiag))))
    reason = _vanishing_subdiagonal(m.offdiag, DEFAULT_TOL * max(1.0, norm))
    return reason is None, reason or "ok"


def is_class_matrix(
    m, eps: float = DEFAULT_TOL
) -> tuple[bool, TridiagonalSymmetric | None, str]:
    """Check a dense matrix for membership in the admissible tridiagonal class.

    Returns ``(ok, extracted, reason)``.  Membership requires: entries more
    than one off the diagonal vanish (relative to eps * max|entry|), the
    matrix is symmetric (plain transpose, not Hermitian), and every
    first-off-diagonal entry has magnitude above the same threshold.
    """
    a = as_complex_matrix(m)
    d = a.shape[0]
    if d < 2:
        raise InputError("dimension must be at least 2")
    norm = float(np.max(np.abs(a)))
    thresh = eps * max(1.0, norm)

    band_mask = np.abs(np.subtract.outer(np.arange(d), np.arange(d))) > 1
    off_band = float(np.max(np.abs(a[band_mask]))) if band_mask.any() else 0.0
    if off_band > thresh:
        return False, None, f"not tridiagonal: off-band entry of magnitude {off_band:.3e}"

    asym = float(np.max(np.abs(a - a.T)))
    if asym > thresh:
        return False, None, f"not complex symmetric: max |m[k,l] - m[l,k]| = {asym:.3e}"

    sub = np.diagonal(a, 1)
    reason = _vanishing_subdiagonal(sub, thresh)
    if reason is not None:
        return False, None, reason

    sym_off = 0.5 * (sub + np.diagonal(a, -1))
    return True, TridiagonalSymmetric(np.diagonal(a).copy(), sym_off), "ok"


def verify_j_symmetric(a, j: ConjugationMap, tol: float = DEFAULT_TOL) -> float:
    """Max-entry residual of J A J = A^*.

    The composition J A J is antilinear twice, hence linear, with matrix
    C conj(A) conj(C); the residual against the Hermitian adjoint is
    returned and the caller compares it to tol * ||A||.
    """
    a = as_complex_matrix(a, "A")
    if a.shape[0] != j.dim:
        raise InputError("operator and conjugation dimensions differ")
    j.check(tol)
    jaj = j.matrix @ np.conj(a) @ np.conj(j.matrix)
    return float(np.max(np.abs(jaj - a.conj().T)))


def _krylov(a: np.ndarray, x0: np.ndarray, n: int) -> np.ndarray:
    """Columns x0, A x0, ..., A^{n-1} x0."""
    cols = [x0]
    for _ in range(n - 1):
        cols.append(a @ cols[-1])
    return np.column_stack(cols)


def check_cyclic(a, x0) -> float:
    """Ratio sigma_min / sigma_max of the Krylov matrix; raises if not cyclic."""
    a = as_complex_matrix(a, "A")
    x0 = as_complex_vector(x0, "x0")
    k = _krylov(a, x0, a.shape[0])
    sv = np.linalg.svd(k, compute_uv=False)
    ratio = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    if ratio <= CYCLIC_RANK_TOL:
        raise PreconditionError(
            f"x0 is not a cyclic vector: Krylov matrix rank deficient "
            f"(sigma_min/sigma_max = {ratio:.3e})"
        )
    return ratio


def gram_condition_check(
    a, x0, j: ConjugationMap, tol: float = DEFAULT_TOL
) -> GramReport:
    """Gram determinants Gamma(x0, A x0, ..., A^n x0, (A^*)^n x0), n = 1..d-1.

    All of them vanishing (relative to the Hadamard scale of the vectors) is
    the membership condition, given that J fixes x0 and x0 is cyclic; both
    hypotheses are checked first.
    """
    a = as_complex_matrix(a, "A")
    x0 = as_complex_vector(x0, "x0")
    d = a.shape[0]
    if len(x0) != d or j.dim != d:
        raise InputError("dimension mismatch between A, x0 and J")
    jx_res = float(np.linalg.norm(j.apply(x0) - x0))
    if not rel_zero(jx_res, float(np.linalg.norm(x0)), tol):
        raise PreconditionError(
            f"J x0 != x0 (residual {jx_res:.3e}); the criterion needs a fixed vector"
        )
    check_cyclic(a, x0)

    xs = [x0]
    for _ in range(d - 1):
        xs.append(a @ xs[-1])
    ah = a.conj().T
    xstar = x0
    values: list[tuple[int, complex]] = []
    scales: list[float] = []
    for n in range(1, d):
        xstar = ah @ xstar
        vecs = xs[: n + 1] + [xstar]
        values.append((n, gram_det(vecs)))
        scales.append(hadamard_scale(vecs))
    return GramReport(values=values, scales=scales, tol=tol)


def _orthonormalize_twice(k: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with one full re-orthogonalization pass."""
    q = np.array(k, dtype=np.complex128)
    n = q.shape[1]
    for i in range(n):
        for _ in range(2):
            for j in range(i):
                q[:, i] -= (q[:, j].conj() @ q[:, i]) * q[:, j]
        nrm = np.linalg.norm(q[:, i])
        if nrm == 0.0:
            raise ConsistencyError("Gram-Schmidt hit a zero vector; x0 not cyclic?")
        q[:, i] /= nrm
    return q


def canonicalize(a, x0, j: ConjugationMap, tol: float = DEFAULT_TOL) -> CanonicalForm:
    """Build the orthonormal basis in which A is tridiagonal complex symmetric.

    Gram-Schmidt on the Krylov vectors gives g_0..g_{d-1}; the membership
    condition forces J g_r = e^{i phi_r} g_r, and the half-phase rotation
    u_r = e^{i phi_r / 2} g_r makes every basis vector J-fixed.  The matrix
    of A in the u-basis is then extracted and verified to lie in the class.
    """
    a = as_complex_matrix(a, "A")
    x0 = as_complex_vector(x0, "x0")
    d = a.shape[0]

    res = verify_j_symmetric(a, j, tol)
    scale_a = float(np.max(np.abs(a)))
    if not rel_zero(res, scale_a, max(tol, 1e-8)):
        raise PreconditionError(f"A is not J-symmetric (residual {res:.3e})")
    report = gram_condition_check(a, x0, j, max(tol, 1e-8))
    if not report.passed:
        raise PreconditionError(
            "Gram-determinant condition fails "
            f"(max relative Gamma = {report.max_relative():.3e})"
        )

    g = _orthonormalize_twice(_krylov(a, x0, d))
    phases = np.empty(d)
    u = np.empty_like(g)
    for r in range(d):
        jg = j.apply(g[:, r])
        beta = complex(jg @ np.conj(g[:, r]))
        dev = float(np.linalg.norm(jg - beta * g[:, r]))
        if dev > max(tol, 1e-7):
            raise ConsistencyError(
                f"J g_{r} is not proportional to g_{r} (deviation {dev:.3e}); "
                "the Gram condition is numerically broken"
            )
        beta /= abs(beta)
        phi = float(np.angle(beta))
        if phi < 0:
            phi += 2 * np.pi
        phases[r] = phi
        u[:, r] = np.exp(0.5j * phi) * g[:, r]

    m_dense = u.conj().T @ a @ u
    ok, tri, reason = is_class_matrix(m_dense, max(tol, 1e-8))
    if not ok:
        raise ConsistencyError(f"canonical matrix fell outside the class: {reason}")
    return CanonicalForm(basis=u, matrix=tri, phases=phases)
