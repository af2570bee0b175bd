"""Membership tests and the tridiagonal canonical form.

An operator belongs to the class of interest when some orthonormal basis
turns it into a complex symmetric tridiagonal matrix with nonzero
sub-diagonal.  The characterization is two-sided: the Gram-determinant
condition on the Krylov vectors is necessary and sufficient (given a
conjugation fixing the cyclic vector), and the sufficiency proof is
constructive -- Gram-Schmidt plus a phase fix.  ``canonicalize`` is that
construction, with Gram-Schmidt done as a QR of the Krylov matrix whose R
has a real positive diagonal.
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
    """Columns x0, A x0, ..., A^{n-1} x0; an overflow leaves inf or nan."""
    cols = [x0]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n - 1):
            cols.append(a @ cols[-1])
    return np.column_stack(cols)


def _require_cyclic(k: np.ndarray) -> float:
    """sigma_min / sigma_max of the Krylov matrix k with each column scaled to
    largest entry 1, as ||A^j x0|| grows like ||A||^j; raises if not cyclic."""
    scales = np.abs(k).max(axis=0)
    if not np.isfinite(scales).all():
        j = int(np.argmin(np.isfinite(scales)))
        raise PreconditionError(f"float64 range exhausted at Krylov order {j}: A^{j} x0 overflows")
    ratio = 0.0
    if scales.all():
        sv = np.linalg.svd(k / scales, compute_uv=False)
        ratio = float(sv[-1] / sv[0])
    if ratio <= CYCLIC_RANK_TOL:
        raise PreconditionError(
            f"x0 is not a cyclic vector: Krylov matrix rank deficient "
            f"(sigma_min/sigma_max = {ratio:.3e})"
        )
    return ratio


def check_cyclic(a, x0) -> float:
    """sigma_min / sigma_max of the column-scaled Krylov matrix; raises if not cyclic."""
    a = as_complex_matrix(a, "A")
    x0 = as_complex_vector(x0, "x0")
    return _require_cyclic(_krylov(a, x0, a.shape[0]))


def gram_condition_check(
    a, x0, j: ConjugationMap, tol: float = DEFAULT_TOL
) -> GramReport:
    """Gram determinants Gamma(x0, A x0, ..., A^n x0, (A^*)^n x0), n = 1..d-1.

    All of them vanishing (relative to the Hadamard scale of the vectors) is
    the membership condition, given that J fixes x0 and x0 is cyclic; both
    hypotheses are checked first.  Gamma_n is the principal minor on the
    indices 0..n and d-1+n of one Gram matrix of the columns
    [K | (A^*)^1 x0 ... (A^*)^{d-1} x0], K the Krylov matrix; its scale is
    the product of that block's diagonal.
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
    k = _krylov(a, x0, d)
    _require_cyclic(k)

    v = np.hstack((k, _krylov(a.conj().T, x0, d)[:, 1:]))
    # entry (p, q) is (y_p, y_q), second slot conjugated, as in core.gram_det
    gram = v.T @ v.conj()
    sq_norms = gram.diagonal().real
    values: list[tuple[int, complex]] = []
    scales: list[float] = []
    for n in range(1, d):
        idx = np.array([*range(n + 1), d - 1 + n])
        values.append((n, complex(np.linalg.det(gram[idx[:, None], idx]))))
        scales.append(float(np.prod(sq_norms[idx])))
    return GramReport(values=values, scales=scales, tol=tol)


def canonicalize(a, x0, j: ConjugationMap, tol: float = DEFAULT_TOL) -> CanonicalForm:
    """Build the orthonormal basis in which A is tridiagonal complex symmetric.

    The Gram-Schmidt basis g_0..g_{d-1} of the Krylov vectors is the Q
    factor of the Krylov matrix K = QR, its columns rotated so that diag(R)
    is real and positive (the unique such factor).  The membership
    condition forces J g_r = e^{i phi_r} g_r, and the half-phase rotation
    u_r = e^{i phi_r / 2} g_r makes every basis vector J-fixed.  The matrix
    of A in the u-basis is then extracted and verified to lie in the class.
    Every check is judged at ``tol``.
    """
    a = as_complex_matrix(a, "A")
    x0 = as_complex_vector(x0, "x0")
    d = a.shape[0]

    res = verify_j_symmetric(a, j, tol)
    scale_a = float(np.max(np.abs(a)))
    if not rel_zero(res, scale_a, tol):
        raise PreconditionError(f"A is not J-symmetric (residual {res:.3e})")
    report = gram_condition_check(a, x0, j, tol)
    if not report.passed:
        raise PreconditionError(
            "Gram-determinant condition fails "
            f"(max relative Gamma = {report.max_relative():.3e})"
        )

    # x0 is cyclic (checked above), so no |r_ii| vanishes
    q, upper = np.linalg.qr(_krylov(a, x0, d))
    g = q * (np.diagonal(upper) / np.abs(np.diagonal(upper)))

    jg = j.apply(g)
    beta = np.sum(jg * np.conj(g), axis=0)
    dev = np.linalg.norm(jg - beta * g, axis=0)
    bad = dev > tol
    if bad.any():
        r = int(np.argmax(bad))
        raise ConsistencyError(
            f"J g_{r} is not proportional to g_{r} (deviation {dev[r]:.3e}); "
            "the Gram condition is numerically broken"
        )
    # phi_r in [-tol, 2 pi - tol): with the cut at 0, rounding picks the
    # sign of u_r whenever phi_r is 0, as phi_0 is on every input (J x0 = x0)
    phases = (np.angle(beta) + tol) % (2 * np.pi) - tol
    u = g * np.exp(0.5j * phases)

    m_dense = u.conj().T @ a @ u
    ok, tri, reason = is_class_matrix(m_dense, tol)
    if not ok:
        raise ConsistencyError(f"canonical matrix fell outside the class: {reason}")
    return CanonicalForm(basis=u, matrix=tri, phases=phases)
