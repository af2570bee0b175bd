"""Membership tests and the tridiagonal canonical form.

An operator belongs to the class of interest when some orthonormal basis
turns it into a complex symmetric tridiagonal matrix with nonzero
sub-diagonal.  The class test and the J-symmetry residual read their
operand divided by its largest real or imaginary part, each part divided
as a real, and compare with eps times its largest |entry|: c A is judged
as A at every finite scale, and no modulus can overflow.

The characterization is two-sided: the Gram-determinant condition on the
Krylov vectors is necessary and sufficient (given a conjugation fixing
the cyclic vector), and the sufficiency proof is constructive --
Gram-Schmidt plus a phase fix.  One QR of the Krylov
matrix, diag(R) real and positive, serves all three: x0 is cyclic when
every |r_kk| of the unit columns exceeds ``CYCLIC_RANK_TOL``, the Gram
determinants are read off Q and R, and ``canonicalize`` rotates Q into
the canonical basis.  The Krylov vectors of A and of A^* come out of one
pass, one batched product per order with the stacked operator [A, A^*], A
first scaled by a power of two so that none can overflow (a second pass
scales each order back by a power of two when one would underflow), and
leave it as unit columns.  The determinants are of unit vectors, so they
are real and lie in [0, 1]; they are held as one read-only float64
array, which every report on the input wraps.  The latest factorization
is kept, keyed on the full input content, so the criterion and then the
construction on one input factor once.
"""

from __future__ import annotations

import math
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
)

# x0 is cyclic when every |r_kk| of the unit-column Krylov QR exceeds this:
# r_kk is the distance of the unit A^k x0 from span(x0, ..., A^{k-1} x0)
CYCLIC_RANK_TOL = 1e-8


@dataclass
class CanonicalForm:
    """Orthonormal basis U, the tridiagonal matrix in that basis, phases,
    and the Gram report the input passed."""

    basis: np.ndarray
    matrix: TridiagonalSymmetric
    phases: np.ndarray
    gram: GramReport


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a complex vector, as ``np.linalg.norm(v)`` forms it."""
    return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def _column_norms(v: np.ndarray) -> np.ndarray:
    """The 2-norms of the columns of v, or of each matrix in a stack of them,
    as ``np.linalg.norm(v, axis=-2)`` forms them."""
    return np.sqrt(np.add.reduce((v.conj() * v).real, axis=-2))


def _unit(a: np.ndarray) -> tuple[np.ndarray, float]:
    """u = a / s and s, for s the largest |real or imaginary part| of a (1
    if a = 0).  Each part is divided as a real: numpy divides a complex
    array by a real as a * (1 / s), which overflows below s = 2^-1024, and
    max|a| itself overflows near the float64 limit.  So u is finite for
    every finite a, exact in scale for a subnormal one, and max|u| lies in
    [1, sqrt(2)] unless a = 0."""
    parts = np.ascontiguousarray(a).view(np.float64)
    scale = float(np.abs(parts).max()) or 1.0
    return (parts / scale).view(np.complex128), scale


def _vanishing_subdiagonal(sub: np.ndarray, unit_sub: np.ndarray, thresh: float) -> str | None:
    """Why some |a_k| vanishes, judged as |unit_sub_k| <= thresh for the
    sub-diagonal ``sub`` scaled to ``unit_sub``; names the first such k,
    or returns None if none is."""
    small = np.abs(unit_sub) <= thresh
    if not small.any():
        return None
    k = int(small.argmax())
    return f"sub-diagonal entry a_{k} vanishes (|a_{k}| = {abs(sub[k]):.3e})"


def is_class_matrix(
    m, eps: float = DEFAULT_TOL
) -> tuple[bool, TridiagonalSymmetric | None, str]:
    """Check a matrix, dense or banded, for membership in the admissible class.

    Returns ``(ok, extracted, reason)``; ``extracted`` is None unless ok.
    Membership requires: entries more than one off the diagonal vanish, the
    matrix is symmetric (plain transpose, not Hermitian), and every
    first-off-diagonal entry is nonzero.  Each test reads m divided by its
    largest real or imaginary part, against eps times the largest |entry|,
    so c m is judged as m is, at every finite scale, and a banded m and its
    dense twin get one verdict.  A ``TridiagonalSymmetric`` is tridiagonal
    and symmetric by construction, so only the sub-diagonal test runs, in
    O(d).
    """
    if isinstance(m, TridiagonalSymmetric):
        u = _unit(np.concatenate((m.diag, m.offdiag)))[0]
        reason = _vanishing_subdiagonal(m.offdiag, u[m.dim :], eps * float(np.abs(u).max()))
        return (True, m, "ok") if reason is None else (False, None, reason)

    a = as_complex_matrix(m)
    d = a.shape[0]
    if d < 2:
        raise InputError("dimension must be at least 2")
    unit, scale = _unit(a)  # |unit| <= sqrt(2), so no difference of entries overflows

    # the largest |entry| off the band: in a C-ordered d x d array the main,
    # upper and lower diagonals are the flat elements 0, 1 and d onwards in
    # steps of d + 1, so they are zeroed in place
    band = np.abs(unit, out=np.empty((d, d)))
    thresh = eps * float(band.max())
    flat = band.reshape(-1)
    flat[:: d + 1] = 0.0
    flat[1 :: d + 1] = 0.0
    flat[d :: d + 1] = 0.0
    off_band = float(band.max())
    if off_band > thresh:
        return False, None, f"not tridiagonal: off-band entry of magnitude {off_band * scale:.3e}"

    asym = float(np.abs(unit - unit.T).max())
    if asym > thresh:
        return False, None, f"not complex symmetric: max |m[k,l] - m[l,k]| = {asym * scale:.3e}"

    sub = a.diagonal(1)
    reason = _vanishing_subdiagonal(sub, unit.diagonal(1), thresh)
    if reason is not None:
        return False, None, reason

    # exact for an exactly symmetric input, subnormal entries too; the
    # symmetry test bounds super - sub, so nothing here can overflow
    sym_off = sub + 0.5 * (a.diagonal(-1) - sub)
    return True, TridiagonalSymmetric(a.diagonal().copy(), sym_off), "ok"


def verify_j_symmetric(a, j: ConjugationMap, tol: float = DEFAULT_TOL) -> float:
    """Relative residual of J A J = A^*, to be compared with tol.

    The composition J A J is antilinear twice, hence linear, with matrix
    C conj(A) conj(C).  The residual is max|C conj(U) conj(C) - U^H| / max|U|
    for U = A divided by its largest real or imaginary part: it does not
    depend on the scale of A, and no modulus overflows near the float64
    limit.  ``j`` is checked first (unitary, symmetric C).
    """
    a = as_complex_matrix(a, "A")
    if a.shape[0] != j.dim:
        raise InputError("operator and conjugation dimensions differ")
    j.check(tol)
    return j_residual(a, j)


def j_residual(a: np.ndarray, j: ConjugationMap) -> float:
    """The residual of ``verify_j_symmetric`` without its check of J, for A
    and C of one dimension and C already checked, as ``gram_condition_check``
    checks it."""
    u = _unit(a)[0]
    juj = j.matrix @ np.conj(u) @ np.conj(j.matrix)
    # max|U| >= 1 unless A = 0, whose residual is 0
    return float(np.abs(juj - u.conj().T).max()) / max(float(np.abs(u).max()), 1.0)


def _krylov(a: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """The Krylov matrices of A and A^* from x0, built together: ``k[0]``
    has columns x0, A x0, ..., A^{d-1} x0 and ``k[1]`` the same with A^*.

    A is first scaled, up or down, by a power of two to d max|A| < 1, so
    ||A||_2 < 1 and no Krylov vector outgrows x0.  Each order is one
    batched product with the stacked (2, d, d) operator [A, A^*].  If the
    largest entry of a vector then falls below 2^-969, where its digits
    may run into the subnormal range, the powers are formed again with
    each order scaled back to largest part in [1/2, 1), so none can
    underflow.  Powers of two move no direction.  Each column is then
    scaled to largest entry 1, so its 2-norm cannot overflow, and divided
    by that norm; only a vector that is zero to float64 precision stays
    zero.
    """
    d = len(x0)
    ops = np.empty((2, d, d), dtype=np.complex128)
    ops[0] = a
    re_im = ops[0].view(np.float64)
    np.ldexp(re_im, -math.frexp(np.abs(re_im).max())[1] - (2 * d).bit_length(), out=re_im)
    np.conjugate(ops[0].T, out=ops[1])
    rows = np.empty((d, 2, d, 1), dtype=np.complex128)  # rows[i, f] holds F^i x0, F = A, A^*
    rows[0, :, :, 0] = x0
    parts = rows.view(np.float64).reshape(d, 2, 2 * d)  # real and imaginary parts
    for renormalize in (False, True):
        for i in range(1, d):
            np.matmul(ops, rows[i - 1], out=rows[i])
            if renormalize:
                exps = np.frexp(np.abs(parts[i]).max(axis=1, keepdims=True))[1]
                np.ldexp(parts[i], -exps, out=parts[i])
        # each family contiguous: a transposed view rounds the later column norms differently
        k = rows[..., 0].transpose(1, 2, 0).copy()
        scales = np.abs(k).max(axis=1)
        if scales.min() >= 2.0**-969:
            break
    k /= np.where(scales > 0, scales, 1.0)[:, None, :]
    norms = _column_norms(k)  # largest entry 1, so no norm overflows
    k /= np.where(norms > 0, norms, 1.0)[:, None, :]
    return k


def _krylov_qr(
    a: np.ndarray, x0: np.ndarray, j: ConjugationMap, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Q of the unit Krylov matrix K = QR, diag(R) real and positive, and
    Gamma_1..Gamma_{d-1} read off it, for x0 scaled to largest entry in
    [1, 2) and A scaled as ``_krylov`` does, which also hands over the
    unit columns of both families.  Both arrays are read-only.  Raises
    unless J is a conjugation, J x0 = x0 and x0 is cyclic (by r_kk; a
    zero column reads r_kk = 0).

    With y_n the unit (A^*)^n x0, Gamma_n = prod_{i<=n} r_ii^2 *
    sum_{i>n} |(Q^H y_n)_i|^2: the Gram determinant of k_0..k_n times the
    squared distance of y_n from their span, in [0, 1], and exactly 0 at
    n = d - 1 (d + 1 vectors in C^d).
    """
    d = a.shape[0]
    if len(x0) != d or j.dim != d:
        raise InputError("dimension mismatch between A, x0 and J")
    j.check(tol)
    # a power of two scales exactly, so no digit of x0 is lost; ||x0|| >= 1 unless x0 = 0
    e = 1 - math.frexp(np.abs(x0).max())[1]
    x0 = np.ldexp(x0.real, e) + 1j * np.ldexp(x0.imag, e)
    jx_res = _norm(j.apply(x0) - x0)
    if not jx_res <= tol * _norm(x0):
        raise PreconditionError(
            f"J x0 != x0 (residual {jx_res:.3e}); the criterion needs a fixed vector"
        )
    k = _krylov(a, x0)
    k, y = k[0], k[1, :, 1:]

    q, r = np.linalg.qr(k)
    r_diag = r.diagonal()
    r_abs = np.abs(r_diag)
    n = int(r_abs.argmin())
    if r_abs[n] <= CYCLIC_RANK_TOL:
        raise PreconditionError(
            f"x0 is not a cyclic vector: Krylov matrix rank deficient at order "
            f"k = {n} (unit-column r_kk = {r_abs[n]:.3e})"
        )
    q *= r_diag / r_abs
    q.flags.writeable = False
    # column n - 1 sums |(Q^H y_n)_l|^2 over l > n: the rows l <= n are zeroed
    proj = np.abs(q.conj().T @ y) ** 2
    proj *= np.arange(d)[:, None] >= np.arange(2, d + 1)
    dist = np.add.reduce(proj, axis=0)
    gammas = (r_abs ** 2).cumprod()[1:] * dist
    gammas.flags.writeable = False
    return q, gammas


# The latest ``_krylov_qr``, as (key, result); the key is the full content
# of (A, x0, C, tol), so an input edited in place is factored again.  One
# entry: the only hit is a second call on the input just factored.
_last_qr: tuple = (None, None)


def _memo_krylov_qr(
    a: np.ndarray, x0: np.ndarray, j: ConjugationMap, tol: float
) -> tuple[np.ndarray, GramReport]:
    """``_krylov_qr`` of the latest input, computed once per input content,
    and a fresh ``GramReport`` over its read-only Gammas.  A failing input
    is not kept, so it raises on every call."""
    global _last_qr
    key = (a.shape, tol, a.tobytes(), x0.tobytes(), j.matrix.tobytes())
    last = _last_qr  # one read: a concurrent call cannot swap the entry under the key test
    if last[0] != key:
        last = _last_qr = (key, _krylov_qr(a, x0, j, tol))
    q, gammas = last[1]
    return q, GramReport(gammas, tol)


def gram_condition_check(a, x0, j: ConjugationMap, tol: float = DEFAULT_TOL) -> GramReport:
    """Gram determinants Gamma(x0, A x0, ..., A^n x0, (A^*)^n x0), n = 1..d-1.

    All of them vanishing is the membership condition, given that J is a
    conjugation, J fixes x0 and x0 is cyclic; all three are checked first.
    Gamma_n is read off the QR that ``canonicalize`` takes its basis from,
    with x0 and A scaled by powers of two, so it does not depend on the
    scale of either.  That QR is computed once per input content:
    ``canonicalize`` on the same (a, x0, j, tol) next reuses it.
    """
    return _memo_krylov_qr(as_complex_matrix(a, "A"), as_complex_vector(x0, "x0"), j, tol)[1]


def canonicalize(a, x0, j: ConjugationMap, tol: float = DEFAULT_TOL) -> CanonicalForm:
    """Build the orthonormal basis in which A is tridiagonal complex symmetric.

    The Gram-Schmidt basis g_0..g_{d-1} of the Krylov vectors is the Q
    factor of the Krylov matrix K = QR, its columns rotated so that diag(R)
    is real and positive (the unique such factor).  The membership
    condition forces J g_r = e^{i phi_r} g_r, and the half-phase rotation
    u_r = e^{i phi_r / 2} g_r makes every basis vector J-fixed.  The matrix
    m of A in the u-basis is then extracted and verified to lie in the
    class.  Checks, in order: those of ``gram_condition_check``, J A J =
    A^*, the Gram condition, J g_r parallel to g_r, then the class test of
    m, so each is relative to the scale of its input.  J g_r off its line
    after the Gram condition held is a Krylov basis too ill-conditioned at
    tol (``PreconditionError``); m outside the class, ``ConsistencyError``.
    The QR is computed once per input content: right after
    ``gram_condition_check`` on the same (a, x0, j, tol) it is reused.
    """
    a = as_complex_matrix(a, "A")
    x0 = as_complex_vector(x0, "x0")

    g, report = _memo_krylov_qr(a, x0, j, tol)
    res = j_residual(a, j)
    if res > tol:
        raise PreconditionError(f"A is not J-symmetric (relative residual {res:.3e})")
    if not report.passed:
        raise PreconditionError(
            "Gram-determinant condition fails "
            f"(max relative Gamma = {report.max_relative():.3e})"
        )

    g_conj = np.conj(g)
    jg = j.matrix @ g_conj
    beta = np.add.reduce(jg * g_conj, axis=0)
    dev = _column_norms(jg - beta * g)
    r = int(dev.argmax())
    if dev[r] > tol:
        raise PreconditionError(
            f"Krylov basis too ill-conditioned at tol {tol:.3e}: J g_{r} is "
            f"not proportional to g_{r} (deviation {dev[r]:.3e})"
        )
    # phi_r in [-tol, 2 pi - tol): with the cut at 0, rounding picks the
    # sign of u_r whenever phi_r is 0, as phi_0 is on every input (J x0 = x0)
    phases = (np.arctan2(beta.imag, beta.real) + tol) % (2 * np.pi) - tol
    u = g * np.exp(0.5j * phases)

    m_dense = u.conj().T @ a @ u
    ok, tri, reason = is_class_matrix(m_dense, tol)
    if not ok:
        raise ConsistencyError(f"canonical matrix fell outside the class: {reason}")
    return CanonicalForm(basis=u, matrix=tri, phases=phases, gram=report)
