"""Shared numerical domain types and the bilinear pairing.

Everything downstream works with dense complex128 arrays.  The one
distinction that matters throughout is between the sesquilinear L^2(mu)
inner product (second argument conjugated, the Hilbert-space pairing) and
the bilinear moment pairing (no conjugation, the pairing under which the
recurrence polynomials are orthonormal).  Mixing them up is the classic
bug in this problem domain.  ``bilinear_gram`` is the one pairing; the
L^2(mu) product of f and g is its entry for the conjugated stack
[f, conj(g)].
"""

from __future__ import annotations

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
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"{name} must be a square 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} contains non-finite entries")
    return a


def as_complex_vector(v, name: str = "vector") -> np.ndarray:
    a = np.asarray(v, dtype=np.complex128)
    if a.ndim != 1:
        raise InputError(f"{name} must be a 1-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} contains non-finite entries")
    return a


def rel_zero(x: float, scale: float, tol: float = DEFAULT_TOL) -> bool:
    """Relative zero test: |x| <= tol * max(1, scale).

    Absolute tests are useless here because the atom radii produced by
    the measure construction grow geometrically; every "equals zero"
    decision is made relative to the largest magnitude entering the
    computation.
    """
    return abs(x) <= tol * max(1.0, scale)


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
        within tol relative to max|C|."""
        c = self.matrix
        # entries near the float64 limit overflow a residual to inf or nan,
        # which is rejected like any other large residual
        with np.errstate(over="ignore", invalid="ignore"):
            uni = float(np.max(np.abs(c.conj().T @ c - np.eye(self.dim))))
            sym = float(np.max(np.abs(c - c.T)))
            scale = float(np.max(np.abs(c)))
        for law, res in (("unitary", uni), ("symmetric", sym)):
            if not (np.isfinite(res) and rel_zero(res, scale, tol)):
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
        if not np.all(self.masses > 0):
            raise InputError("all masses must be strictly positive")
        # equal atoms are adjacent once sorted; cheaper than np.unique
        ordered = np.sort(self.atoms)
        if np.any(ordered[1:] == ordered[:-1]):
            raise InputError("atom locations must be pairwise distinct")

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def moment(self, k: int) -> complex:
        """Exact atom sum for the k-th power moment."""
        return complex(np.sum(self.masses * self.atoms**k))


def bilinear_gram(values, mu: AtomicMeasure) -> tuple[np.ndarray, np.ndarray]:
    """(gram, scales) of a stack of per-atom values, one row per function.

    gram[k, l] = sum_j m_j f_k(z_j) f_l(z_j), with no conjugation: the
    pairing under which the recurrence polynomials are orthonormal.
    scales[k, l] = sum_j m_j |f_k(z_j)| |f_l(z_j)| is the largest magnitude
    entering each entry.  The L^2(mu) inner product of f and g is the
    off-diagonal entry for the stack [f, conj(g)].
    """
    p = np.asarray(values, dtype=np.complex128)
    if p.ndim != 2 or p.shape[1] != mu.n_atoms:
        raise InputError(f"values need one column per atom, got shape {p.shape}")
    ap = np.abs(p)
    return (p * mu.masses) @ p.T, (ap * mu.masses) @ ap.T


def gram_det(vectors) -> complex:
    """Determinant of the Gram matrix [(y_k, y_l)] (second slot conjugated).

    Computed through a pivoted LU factorization of the Gram matrix, not
    cofactor expansion.
    """
    if len(vectors) == 0:
        raise InputError("gram_det needs at least one vector")
    vs = [as_complex_vector(v) for v in vectors]
    n = len(vs[0])
    if any(len(v) != n for v in vs):
        raise InputError("all vectors must have the same dimension")
    v = np.array(vs)
    g = v @ v.conj().T
    return complex(np.linalg.det(g))


@dataclass
class GramReport:
    """Gram determinants Gamma_n, n = 1..d-1, of unit vectors: each lies in
    [0, 1] whatever the scale of x0, so the zero test is absolute."""

    values: list[tuple[int, complex]]
    tol: float = DEFAULT_TOL

    @property
    def passed(self) -> bool:
        return self.max_relative() <= self.tol

    def max_relative(self) -> float:
        return max((abs(g) for _, g in self.values), default=0.0)


def random_class_matrix(seed: int, d: int) -> TridiagonalSymmetric:
    """Reproducible class matrix: diagonal in the unit box, off-diagonal in
    the annulus 0.5 <= |a| <= 2 (so membership holds by construction)."""
    if d < 2:
        raise InputError("dimension must be at least 2")
    rng = np.random.default_rng(seed)
    diag = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
    radii = np.sqrt(rng.uniform(0.25, 4.0, d - 1))
    phases = rng.uniform(0, 2 * np.pi, d - 1)
    offdiag = radii * np.exp(1j * phases)
    return TridiagonalSymmetric(diag, offdiag)


# --- JSON helpers: complex numbers travel as [re, im] pairs -----------------

def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(v) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise InputError(f"expected [re, im] pair, got {v!r}")
    try:
        return complex(float(v[0]), float(v[1]))
    except (TypeError, ValueError):
        raise InputError(f"expected two numbers in [re, im] pair, got {v!r}") from None


def cvector_to_json(v: np.ndarray) -> list[list[float]]:
    """[re, im] pairs of plain floats; a 2-d array gives rows of pairs."""
    a = np.asarray(v, dtype=np.complex128)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def cvector_from_json(v) -> np.ndarray:
    if not isinstance(v, (list, tuple)):
        raise InputError("expected a list of [re, im] pairs")
    return np.array([complex_from_json(z) for z in v], dtype=np.complex128)


def cmatrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    return cvector_to_json(m)


def cmatrix_from_json(rows) -> np.ndarray:
    if not isinstance(rows, (list, tuple)) or len(rows) == 0:
        raise InputError("expected a non-empty list of rows")
    vecs = [cvector_from_json(r) for r in rows]
    if any(len(v) != len(vecs[0]) for v in vecs):
        raise InputError("matrix rows must all have the same length")
    return np.array(vecs, dtype=np.complex128)
