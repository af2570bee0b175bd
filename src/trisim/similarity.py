"""The polynomial family, the similarity transform, and its verification.

The three-term recurrence read off the extended matrix generates
polynomials p_0, p_1, ... that are orthonormal under the *bilinear*
pairing against the constructed measure.  Mapping the canonical basis
vector u_k to p_k(z) defines a transform T into L^2 of the measure, and
conjugating the operator by T exposes it as multiplication by z on
polynomials of degree < d plus a rank-one term supported on the top
basis vector.  Everything here is checked numerically at the atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    AtomicMeasure,
    ConsistencyError,
    InputError,
    TridiagonalSymmetric,
    bilinear_gram,
)
from .moments import (
    RadiusSchedule,
    algorithm1,
    extend_matrix,
    spectral_moments,
)

ORTHONORMALITY_TOL = 1e-8


@dataclass
class PolynomialFamily:
    """Monomial coefficient rows of p_0..p_{n_max}; row n has degree exactly n."""

    coeffs: np.ndarray  # (n_max + 1, n_max + 1) lower triangular

    @property
    def n_max(self) -> int:
        return self.coeffs.shape[0] - 1

    def eval(self, n: int, z) -> np.ndarray:
        """Evaluate p_n from its coefficient row (the unstable path; used
        only for cross-checks against the recurrence evaluation)."""
        return np.polyval(self.coeffs[n, : n + 1][::-1], np.asarray(z))

    def leading(self, n: int) -> complex:
        return complex(self.coeffs[n, n])


def build_polynomials(m: TridiagonalSymmetric, n_max: int) -> PolynomialFamily:
    """Coefficient table of the recurrence polynomials up to degree n_max.

    p_0 = 1 and p_{n+1} = ((z - b_n) p_n - a_{n-1} p_{n-1}) / a_n with the
    coefficients taken from the extended matrix, or from ``m`` itself when
    it already has n_max + 1 rows; the leading coefficient of p_n is forced
    to 1/(a_0 ... a_{n-1}).
    """
    if n_max < 0:
        raise InputError("n_max must be non-negative")
    ext = m if m.dim > n_max else extend_matrix(m, n_max + 1)
    for k in range(min(n_max, len(ext.offdiag))):
        if abs(ext.offdiag[k]) < 1e-14:
            raise InputError(f"cannot divide by a_{k} = 0 in the recurrence")
    table = np.zeros((n_max + 1, n_max + 1), dtype=np.complex128)
    table[0, 0] = 1.0
    if n_max == 0:
        return PolynomialFamily(table)
    prev = np.zeros(n_max + 1, dtype=np.complex128)  # p_{-1} = 0
    cur = table[0].copy()
    for n in range(n_max):
        a_n = ext.offdiag[n]
        a_prev = ext.offdiag[n - 1] if n > 0 else 0.0
        nxt = np.roll(cur, 1)  # z * p_n (degree < n_max guarantees no wrap loss)
        nxt[0] = 0.0
        nxt -= ext.diag[n] * cur
        nxt -= a_prev * prev
        nxt /= a_n
        table[n + 1] = nxt
        prev, cur = cur, nxt
    return PolynomialFamily(table)


def eval_recurrence(ext: TridiagonalSymmetric, n_max: int, z: np.ndarray) -> np.ndarray:
    """Values p_n(z_j) for n = 0..n_max by the three-term recurrence.

    ``ext`` is the matrix extended to at least n_max + 1 rows.  This is the
    stable evaluation path; the coefficient table exists for degree
    assertions and reports.
    """
    z = np.asarray(z, dtype=np.complex128)
    if n_max + 1 > ext.dim:
        raise InputError("extension too short for the requested degree")
    vals = np.empty((n_max + 1, len(z)), dtype=np.complex128)
    vals[0] = 1.0
    if n_max >= 1:
        vals[1] = (z - ext.diag[0]) / ext.offdiag[0]
    for n in range(1, n_max):
        vals[n + 1] = (
            (z - ext.diag[n]) * vals[n] - ext.offdiag[n - 1] * vals[n - 1]
        ) / ext.offdiag[n]
    return vals


def poly_of_operator_vector(
    m: TridiagonalSymmetric, family: PolynomialFamily, k: int
) -> np.ndarray:
    """p_k(A) applied to e_0, by Horner evaluation on the dense matrix.

    By the recurrence this equals the k-th standard basis vector; any
    deviation signals a recurrence or extension bug.
    """
    d = m.dim
    if not 0 <= k <= d - 1:
        raise InputError(f"k must lie in 0..{d - 1}")
    a = m.dense()
    e0 = np.zeros(d, dtype=np.complex128)
    e0[0] = 1.0
    out = np.zeros(d, dtype=np.complex128)
    for c in family.coeffs[k, : k + 1][::-1]:
        out = a @ out + c * e0
    return out


@dataclass
class SimilarityData:
    """Everything defining T and the rank-one representation.

    The transform sends the k-th canonical basis vector to p_k(z); its
    inverse is coefficient extraction in the p-basis.  The rank-one
    perturbation is a(z) (., b(z)) with a = -a_{d-1} p_d and b the complex
    conjugate of p_{d-1}.
    """

    measure: AtomicMeasure
    polys: PolynomialFamily
    dim: int
    rank_one_scale: complex  # a_{d-1} of the extended matrix
    extended: TridiagonalSymmetric = field(repr=False)  # extended to d + 1 rows
    # values p_n(z_j), n = 0..d, at the atoms (recurrence path)
    poly_at_atoms: np.ndarray = field(repr=False, default=None)


def orthonormality_residuals(
    poly_at_atoms: np.ndarray, mu: AtomicMeasure, n_max: int
) -> np.ndarray:
    """Relative deviation of the bilinear Gram matrix from the identity.

    Entry (m, n) is |sum_j w_j p_n p_m - delta| divided by the largest
    magnitude entering that sum; far-out rings make the absolute terms
    huge, so the zero test must be relative.
    """
    gram, scales = bilinear_gram(poly_at_atoms[: n_max + 1], mu)
    return np.abs(gram - np.eye(n_max + 1)) / np.maximum(1.0, scales)


def build_transform(
    m: TridiagonalSymmetric,
    rho: int | None = None,
    schedule: RadiusSchedule | None = None,
) -> SimilarityData:
    """Run the whole construction for one class matrix.

    Spectral moments up to rho (default 2d+1), the atomic measure from the
    stepwise construction, and the polynomial family up to degree d.  Class
    membership is checked by ``spectral_moments``; the bilinear
    orthonormality and the rank of the node matrix are judged by
    ``verify_similarity``, against the caller's tol.
    """
    d = m.dim
    if rho is None:
        rho = 2 * d + 1
    if rho <= 2 * d:
        raise InputError(f"rho must exceed 2d = {2 * d}")
    seq = spectral_moments(m, rho)
    mu = algorithm1(seq, schedule)
    if mu.n_atoms <= 2 * d:
        raise ConsistencyError("measure has too few atoms to force T injective")
    ext = extend_matrix(m, d + 1)
    return SimilarityData(
        measure=mu,
        polys=build_polynomials(ext, d),
        dim=d,
        rank_one_scale=complex(ext.offdiag[d - 1]),
        extended=ext,
        poly_at_atoms=eval_recurrence(ext, d, mu.atoms),
    )


def check_invertible(data: SimilarityData) -> float:
    """Smallest singular value of the node matrix sqrt(m_j) p_k(z_j); > 0 means T invertible.

    Only positivity is asserted.  The far rings make the node matrix so
    ill-conditioned that the reported value depends on the row order: for
    ``random_class_matrix(1, 12)`` and the default schedule it is 0.963 on
    the node matrix and 0.677 on its rows reversed, with sigma_max 3.4e55.
    """
    v = np.sqrt(data.measure.masses)[:, None] * data.poly_at_atoms[: data.dim].T
    if v.shape[0] < data.dim:
        raise InputError("fewer atoms than the dimension; node matrix cannot have full rank")
    return float(np.linalg.svd(v, compute_uv=False)[-1])


@dataclass
class SimilarityReport:
    residuals: np.ndarray
    orthonormality: float
    sigma_min: float  # smallest singular value of the node matrix
    tol: float

    @property
    def max_residual(self) -> float:
        return max(float(np.max(self.residuals)), self.orthonormality)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol and self.sigma_min > 0


def verify_similarity(
    m: TridiagonalSymmetric, data: SimilarityData, tol: float = ORTHONORMALITY_TOL
) -> SimilarityReport:
    """Judge the construction against one ``tol``; each check certifies
    something different.

    The similarity residual of p-basis vector u_k compares z p_k (minus
    a_{d-1} p_d when k = d-1) with row k of A in the p-basis,
    a_{k-1} p_{k-1} + b_k p_k + a_k p_{k+1} read from the bands of ``m``,
    at the atoms in the measure-weighted norm relative to the former.  It
    is the recurrence that produced ``poly_at_atoms``, so it certifies
    their rounding and that ``data`` was built from ``m``, for any atoms.
    Only the bilinear orthonormality residual ties the measure to the
    moments, and a positive node-matrix sigma_min certifies T invertible.
    """
    d = data.dim
    if m.dim != d:
        raise InputError(f"matrix has dimension {m.dim}, the transform {d}")
    # both checks run before the d-by-n_atoms arrays exist: in the other
    # order glibc's dynamic mmap threshold raises peak RSS by a tenth at 10k atoms
    orth = float(np.max(orthonormality_residuals(data.poly_at_atoms, data.measure, d)))
    sigma_min = check_invertible(data)
    p = data.poly_at_atoms
    w = data.measure.masses
    diff = data.measure.atoms * p[:d]
    diff[d - 1] -= data.rank_one_scale * p[d]
    denom = np.sqrt(np.sum(w * np.abs(diff) ** 2, axis=1))
    # the left side is subtracted term by term, so that at most two
    # d-by-n_atoms arrays are alive at once
    diff -= m.diag[:, None] * p[:d]
    diff[1:] -= m.offdiag[:, None] * p[: d - 1]
    diff[:-1] -= m.offdiag[:, None] * p[1:d]
    num = np.sqrt(np.sum(w * np.abs(diff) ** 2, axis=1))
    res = num / np.where(denom > 0, denom, 1.0)
    return SimilarityReport(residuals=res, orthonormality=orth, sigma_min=sigma_min, tol=tol)
