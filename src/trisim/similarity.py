"""The polynomial family, the similarity transform, and its verification.

The three-term recurrence read off the extended matrix generates
polynomials p_0, p_1, ... that are orthonormal under the *bilinear*
pairing against the constructed measure.  The bands of that matrix are the
family, held in no other form: ``eval_recurrence`` runs the recurrence at
points in O(d) each, ``poly_of_operator_vector`` runs it on vectors, and
the ``similarity`` command writes the bands as its ``"recurrence"``.
Mapping the canonical basis vector u_k to p_k(z) defines a transform T
into L^2 of the measure, and conjugating the operator by T exposes it as
multiplication by z on polynomials of degree < d plus a rank-one term
supported on the top basis vector.  Everything here is checked
numerically at the atoms.

Two pairings meet here, and mixing them up is the classic bug in this
problem domain: the bilinear moment pairing sum_j m_j f(z_j) g(z_j), with
no conjugation, under which the p_n are orthonormal
(``orthonormality_residuals``), and the sesquilinear L^2 product, second
argument conjugated, in which T is invertible (``check_invertible``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    AtomicMeasure,
    ConsistencyError,
    InputError,
    TridiagonalSymmetric,
    require_finite,
)
from .moments import (
    RadiusSchedule,
    algorithm1,
    extend_matrix,
    moment_order,
    spectral_moments,
)

ORTHONORMALITY_TOL = 1e-8
# T counts as invertible when the node matrix with unit-norm columns has
# sigma_min above this, that is condition number below 1e10, so float64
# keeps T^-1 to about cond * eps = 2e-6; an exactly rank-deficient one
# reads below 1e-15 by SVD (its rounding, about sqrt(d) eps)
INVERTIBILITY_FLOOR = 1e-10
# the Hermitian Gram resolves sigma_min only to about sqrt(d eps), 2.2e-7
# at d = 224, so a value it reads below this is taken again by SVD
_GRAM_CUT = 1e-5


@dataclass
class PolynomialFamily:
    """The recurrence p_0 = 1, p_{n+1} = ((z - b_n) p_n - a_{n-1} p_{n-1}) / a_n
    up to degree ext.dim - 1: the bands of ``ext`` are the family, and the
    family is held in no other form."""

    ext: TridiagonalSymmetric = field(repr=False)


def eval_recurrence(ext: TridiagonalSymmetric, z: np.ndarray) -> np.ndarray:
    """Values p_n(z_j) for n = 0..ext.dim - 1 by the three-term recurrence.

    An overflow stays inf for ``require_finite``.
    """
    z = np.asarray(z, dtype=np.complex128)
    vals = np.empty((ext.dim, len(z)), dtype=np.complex128)
    vals[0] = 1.0
    # row n + 1 starts as z - b_n and is finished in place, in the order of
    # ((z - b_n) p_n - a_{n-1} p_{n-1}) / a_n, so no degree allocates
    np.subtract(z, ext.diag[:-1, None], out=vals[1:])
    scratch = np.empty_like(z)
    with np.errstate(over="ignore", invalid="ignore"):
        vals[1] /= ext.offdiag[0]
        for n in range(1, ext.dim - 1):
            row = vals[n + 1]
            row *= vals[n]
            row -= np.multiply(ext.offdiag[n - 1], vals[n - 1], out=scratch)
            row /= ext.offdiag[n]
    return vals


def poly_of_operator_vector(
    m: TridiagonalSymmetric, family: PolynomialFamily, k: int
) -> np.ndarray:
    """p_k(A) e_0, by the family's recurrence run on vectors with A dense:
    w_0 = e_0, w_{n+1} = ((A - b_n) w_n - a_{n-1} w_{n-1}) / a_n.

    When the family's leading bands are those of ``m`` this is the k-th
    standard basis vector; any deviation signals a recurrence or extension
    bug.
    """
    d = m.dim
    top = min(d, family.ext.dim) - 1
    if not 0 <= k <= top:
        raise InputError(f"k must lie in 0..{top}")
    a, ext = m.dense(), family.ext
    prev, w = np.zeros(d, dtype=np.complex128), np.zeros(d, dtype=np.complex128)
    w[0] = 1.0
    for n in range(k):
        nxt = a @ w - ext.diag[n] * w
        if n > 0:
            nxt -= ext.offdiag[n - 1] * prev
        prev, w = w, nxt / ext.offdiag[n]
    return w


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
    rank_one_scale: complex  # a_{d-1} of the extension, 1 by construction
    # values p_n(z_j), n = 0..d, at the atoms (recurrence path)
    poly_at_atoms: np.ndarray = field(repr=False)

    def __post_init__(self):
        want, got = (self.dim + 1, self.measure.n_atoms), np.asarray(self.poly_at_atoms).shape
        if got != want:
            raise InputError(f"poly_at_atoms must be (dim + 1)-by-n_atoms, {want}, got {got}")


def _node_matrix(poly_at_atoms: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """V = sqrt(m_j) p_k(z_j): the weighted values that every check reads."""
    return poly_at_atoms * np.sqrt(masses)


def _gram_residuals(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """|V V^T - I| relative to max(1, |V| |V|^T), each Gram one BLAS syrk
    that is exactly symmetric; raises ``PreconditionError`` at the first
    degree whose scale overflows, naming max|p_n|."""
    av = np.abs(v)
    gram, scales = v @ v.T, av @ av.T
    # by Cauchy-Schwarz, entry (i, j) overflows only if (i, i) or (j, j) does
    require_finite(scales.diagonal(), lambda n: f"polynomial degree {n}: a Gram scale "
                   f"overflows at max|p_{n}| = {np.abs(p[n]).max():.3g}")
    return np.abs(gram - np.eye(len(v))) / np.maximum(1.0, scales)


def _sigma_min(q: np.ndarray) -> float:
    """Equilibrated sigma_min of the d-by-n_atoms node matrix ``q``, read off
    its Hermitian Gram, or by SVD below ``_GRAM_CUT``."""
    if q.shape[1] < len(q):
        raise InputError("fewer atoms than the dimension; node matrix cannot have full rank")
    h = q.conj() @ q.T
    norms = h.diagonal().real
    if not norms.min() > 0:
        return 0.0  # a column vanishes at every atom
    s = 1 / np.sqrt(norms)
    sigma = max(float(np.linalg.eigvalsh(s[:, None] * h * s)[0]), 0.0) ** 0.5
    if sigma >= _GRAM_CUT:
        return sigma
    return float(np.linalg.svd(q.T * s, compute_uv=False)[-1])


def orthonormality_residuals(
    poly_at_atoms: np.ndarray, mu: AtomicMeasure, n_max: int
) -> np.ndarray:
    """Relative deviation of the bilinear Gram matrix from the identity.

    Entry (m, n) is |sum_j w_j p_n p_m - delta| divided by the largest
    magnitude entering that sum, sum_j w_j |p_n| |p_m|; the values at the
    circle atoms span many decades, so the zero test must be relative.
    Both sums are Grams of V = p sqrt(w), V V^T and |V| |V|^T.  Raises
    ``PreconditionError`` naming the first degree whose scale overflows.
    """
    p = np.asarray(poly_at_atoms, dtype=np.complex128)
    if p.ndim != 2 or p.shape[1] != mu.n_atoms:
        raise InputError(f"values need one column per atom, got shape {p.shape}")
    if not 0 <= n_max < len(p):
        raise InputError(f"n_max must lie in 0..{len(p) - 1}, the degrees the values hold")
    p = p[: n_max + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        return _gram_residuals(_node_matrix(p, mu.masses), p)


def build_transform(
    m: TridiagonalSymmetric,
    rho: int | None = None,
    schedule: RadiusSchedule | None = None,
) -> SimilarityData:
    """Run the whole construction for one class matrix.

    Spectral moments up to rho (default 2d+1), the atomic measure of
    ``algorithm1`` (one atom and one circle), and the polynomial family up
    to degree d.  The class is not judged here: only an exact zero a_k is
    refused, so a caller who wants the tol-based verdict runs
    ``is_class_matrix(m, tol)`` first, as the CLI does.  The numbers, the
    bilinear orthonormality and the rank of the node matrix, are judged by
    ``verify_similarity``.
    """
    d = m.dim
    seq = spectral_moments(m, moment_order(d, rho))
    mu = algorithm1(seq, schedule)
    if mu.n_atoms <= 2 * d:
        raise ConsistencyError("measure has too few atoms to force T injective")
    ext = extend_matrix(m, d + 1)
    return SimilarityData(
        measure=mu,
        polys=PolynomialFamily(ext),  # spectral_moments refused an exact zero a_k
        dim=d,
        rank_one_scale=complex(ext.offdiag[d - 1]),
        poly_at_atoms=eval_recurrence(ext, mu.atoms),
    )


def check_invertible(data: SimilarityData) -> float:
    """Smallest singular value of the node matrix V = sqrt(m_j) p_k(z_j),
    k < d, with each column scaled to unit norm.

    Read off the Hermitian Gram H = V^H V as sqrt(lambda_min(D H D)),
    D = diag(H)^(-1/2): one d-by-d eigvalsh, cheaper than an SVD of the
    n_atoms-by-d V.  The scaling makes the value independent of the size
    of each p_k, so it measures how close the columns come to linear
    dependence.  Squaring resolves it only down to about sqrt(d eps), so
    a value below ``_GRAM_CUT`` comes from an SVD of the scaled V instead,
    which resolves it to about sqrt(d) eps; ``SimilarityReport`` compares
    it with ``INVERTIBILITY_FLOOR``.
    """
    return _sigma_min(_node_matrix(data.poly_at_atoms[: data.dim], data.measure.masses))


@dataclass
class SimilarityReport:
    residuals: np.ndarray
    orthonormality: float
    # smallest singular value of the column-equilibrated node matrix, in [0, 1]
    sigma_min: float
    tol: float

    @property
    def max_residual(self) -> float:
        return float(np.concatenate((self.residuals, [self.orthonormality])).max())  # NaN wins

    @property
    def failures(self) -> list[str]:
        """One line per failed check, naming its value and bound; a check
        that overflowed to inf or NaN certifies nothing, so it fails."""
        out, worst = [], self.max_residual
        if not worst <= self.tol:
            out.append(f"max residual {worst:.3g} not within tol {self.tol:.3g}")
        if not np.isfinite(self.sigma_min):
            out.append(f"node matrix check not finite: equilibrated sigma_min {self.sigma_min}")
        elif not self.sigma_min > INVERTIBILITY_FLOOR:
            out.append(f"node matrix numerically singular: equilibrated sigma_min "
                       f"{self.sigma_min:.2g} not above {INVERTIBILITY_FLOOR:g}")
        return out

    @property
    def passed(self) -> bool:
        return not self.failures


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of a complex array, without a temporary."""
    f = x.view(np.float64)
    return np.sqrt(np.vecdot(f, f))


def _residual_scale_overflow(data: SimilarityData, n: int) -> str:
    """What left float64 when the residual scale of degree n is not finite:
    the recurrence's quotient p_n when it is not finite, else the scale."""
    p_n = data.poly_at_atoms[n]
    if np.isfinite(p_n).all():
        return f"the residual scale overflows at max|p_{n}| = {np.abs(p_n).max():.3g}"
    top = f"(z - b_{n - 1})" if n == 1 else f"((z - b_{n - 1}) p_{n - 1} - a_{n - 2} p_{n - 2})"
    a = abs(data.polys.ext.offdiag[n - 1])
    return f"p_{n} = {top} / a_{n - 1} is not finite (|a_{n - 1}| = {a:.3g})"


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
    moments.  The node-matrix sigma_min of ``check_invertible`` certifies
    T numerically invertible when it exceeds ``INVERTIBILITY_FLOOR``: the
    columns p_k, scaled to unit norm in L^2 of the measure, are that far
    from linear dependence.
    Raises ``PreconditionError`` at the first degree whose scale overflows,
    naming the quotient p_n instead when p_n itself left float64.
    """
    d = data.dim
    if m.dim != d:
        raise InputError(f"matrix has dimension {m.dim}, the transform {d}")
    p = data.poly_at_atoms
    with np.errstate(over="ignore", invalid="ignore"):
        v = _node_matrix(p, data.measure.masses)
        # the weights are inside V, so each row's weighted norm is the sum of
        # squares of its float64 view; the left side is subtracted term by
        # term through one scratch array, so V, diff and that array are the
        # only node-sized arrays alive, and the Grams come after diff is gone
        diff = data.measure.atoms * v[:d]
        diff[d - 1] -= data.rank_one_scale * v[d]
        denom = _row_norms(diff)
        require_finite(denom, lambda n: f"polynomial degree {n}: {_residual_scale_overflow(data, n)}")
        term = np.multiply(m.diag[:, None], v[:d])
        diff -= term
        diff[1:] -= np.multiply(m.offdiag[:, None], v[: d - 1], out=term[1:])
        diff[:-1] -= np.multiply(m.offdiag[:, None], v[1:d], out=term[1:])
        res = _row_norms(diff) / np.where(denom > 0, denom, 1.0)
        del diff, term
        orth = float(_gram_residuals(v, p).max())
        sigma_min = _sigma_min(v[:d])
    return SimilarityReport(residuals=res, orthonormality=orth, sigma_min=sigma_min, tol=tol)
