"""Shared numerical domain types, their conversions and the input guards.

Everything downstream works with dense complex128 arrays.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9


class InputError(ValueError):
    """Malformed or inadmissible input (CLI exit code 2)."""


class PreconditionError(ValueError):
    """A stated mathematical hypothesis fails for the given data (exit code 3)."""


class ConsistencyError(RuntimeError):
    """An internal invariant that should hold by construction was violated."""


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """A dense complex128 copy or view of m, an array or a ``TridiagonalSymmetric``."""
    a = m.dense() if isinstance(m, TridiagonalSymmetric) else np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"{name} must be a square 2-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InputError(f"{name} contains non-finite entries")
    return a


def as_complex_vector(v, name: str = "vector") -> np.ndarray:
    a = np.asarray(v, dtype=np.complex128)
    if a.ndim != 1:
        raise InputError(f"{name} must be a 1-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InputError(f"{name} contains non-finite entries")
    return a


def require_finite(values, where) -> None:
    """The float64-range guard: raises ``PreconditionError`` at the first inf
    or nan entry k of ``values``, where(k) naming the quantity and order k."""
    finite = np.isfinite(values)
    if not finite.all():
        raise PreconditionError("float64 range exhausted at " + where(int(finite.argmin())))


@dataclass
class TridiagonalSymmetric:
    """A complex symmetric tridiagonal matrix given by its two bands.

    ``diag`` holds b_0..b_{d-1}, ``offdiag`` holds a_0..a_{d-2}; the full
    matrix has m[k,k] = b_k and m[k,k+1] = m[k+1,k] = a_k, zero elsewhere,
    so symmetry and bandedness hold by construction.  Membership in the
    admissible class additionally requires every |a_k| bounded away from
    zero; that is checked by ``classify.is_class_matrix``, not here.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        self.diag = as_complex_vector(self.diag, "diag")
        self.offdiag = as_complex_vector(self.offdiag, "offdiag")
        if self.dim < 2:
            raise InputError("dimension must be at least 2")
        if len(self.offdiag) != self.dim - 1:
            raise InputError(
                f"offdiag must have length {self.dim - 1}, got {len(self.offdiag)}"
            )

    @property
    def dim(self) -> int:
        return len(self.diag)

    def dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        m += np.diag(self.offdiag, 1)
        m += np.diag(self.offdiag, -1)
        return m


@dataclass
class ConjugationMap:
    """Antilinear involution J x = C conj(x).

    C must be unitary and symmetric; together these are equivalent to
    J being an involution with the reversed isometry law (Jx, Jy) = (y, x).
    """

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = as_complex_matrix(self.matrix, "conjugation matrix")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ np.conj(np.asarray(x, dtype=np.complex128))

    def check(self, tol: float = DEFAULT_TOL) -> None:
        """Raises unless C is unitary and symmetric, each max-entry residual
        within tol * max(1, max|C|)."""
        c = self.matrix
        # entries near the float64 limit overflow a residual, and max|C| with
        # it, to inf or nan, which is rejected like any other large residual
        with np.errstate(over="ignore", invalid="ignore"):
            gram = c.conj().T @ c
            gram.reshape(-1)[:: self.dim + 1] -= 1.0  # minus the identity
            uni = float(np.abs(gram).max())
            sym = float(np.abs(c - c.T).max())
            scale = float(np.abs(c).max())
        for law, res in (("unitary", uni), ("symmetric", sym)):
            if not (math.isfinite(res) and res <= tol * max(1.0, scale)):
                raise InputError(f"conjugation matrix is not {law} (residual {res:.3e})")

    @classmethod
    def standard(cls, dim: int) -> "ConjugationMap":
        """Plain coordinatewise conjugation."""
        return cls(np.eye(dim))


@dataclass
class AtomicMeasure:
    """Finitely atomic positive measure on the complex plane."""

    atoms: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        self.atoms = as_complex_vector(self.atoms, "atoms")
        self.masses = np.asarray(self.masses, dtype=np.float64)
        if self.masses.ndim != 1 or len(self.masses) != len(self.atoms):
            raise InputError("atoms and masses must have equal length")
        if len(self.atoms) == 0:
            raise InputError("measure must have at least one atom")
        if not ((self.masses > 0) & (self.masses < np.inf)).all():  # NaN fails too
            raise InputError("all masses must be finite and strictly positive")
        # equal atoms are adjacent once sorted; cheaper than np.unique
        ordered = self.atoms.copy()
        ordered.sort()
        if (ordered[1:] == ordered[:-1]).any():
            raise InputError("atom locations must be pairwise distinct")

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def moment(self, k: int) -> complex:
        """Exact atom sum for the k-th power moment."""
        return complex((self.masses * self.atoms**k).sum())


@dataclass
class GramReport:
    """Gram determinants of unit vectors, ``gammas[n - 1]`` = Gamma_n for
    n = 1..d-1, as one read-only float64 array: each is real and lies in
    [0, 1] whatever the scale of x0, so the zero test is absolute."""

    gammas: np.ndarray
    tol: float = DEFAULT_TOL

    @property
    def passed(self) -> bool:
        return self.max_relative() <= self.tol

    def max_relative(self) -> float:
        return float(self.gammas.max(initial=0.0))


def random_class_matrix(seed: int, d: int) -> TridiagonalSymmetric:
    """Reproducible class matrix: diagonal in the unit box, off-diagonal in
    the annulus 0.5 <= |a| <= 2 (so membership holds by construction)."""
    if d < 2:
        raise InputError("dimension must be at least 2")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    try:  # MemoryError past memory, ValueError past intp
        diag = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
        radii = np.sqrt(rng.uniform(0.25, 4.0, d - 1))
        phases = rng.uniform(0, 2 * np.pi, d - 1)
        offdiag = radii * np.exp(1j * phases)
    except (MemoryError, ValueError):
        d = reprlib.repr(d)
        raise PreconditionError(f"the arrays of a d = {d} matrix cannot be allocated") from None
    return TridiagonalSymmetric(diag, offdiag)

