"""Spectral moments and the truncated moment problem on the complex plane.

Two jobs live here.  First, extracting the power moments s_k of the
bilinear spectral functional attached to a class matrix: extend the
matrix down-right with zero diagonal and unit off-diagonal entries,
truncate, and read s_k off the (0,0) entry of the plain (unconjugated)
k-th power.  Second, building a finitely atomic measure with prescribed
moments s_0..s_rho: a single atom handles (s_0, s_1), and each remaining
moment is supplied by a ring of equally spaced atoms on a circle whose
masses sample the density 1 + 2 Re(conj(ct) z^n).  With 2n+1 atoms the
roots-of-unity sums kill every aliased term, so the prescribed moments of
each ring hold exactly up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AtomicMeasure,
    ConsistencyError,
    InputError,
    PreconditionError,
    TridiagonalSymmetric,
    as_complex_vector,
)
from .classify import is_class_matrix

# Margin keeping |ct| <= 1/2 - MASS_DELTA, which floors every ring mass
# at 2 * MASS_DELTA * s0 / N.
MASS_DELTA = 1e-3
RADIUS_GROWTH = 1.5


@dataclass
class MomentSequence:
    """Power moments s_0..s_rho, with s_0 real and positive."""

    rho: int
    values: np.ndarray

    def __post_init__(self):
        self.values = as_complex_vector(self.values, "moments")
        if self.rho < 1:
            raise InputError("rho must be at least 1")
        if len(self.values) != self.rho + 1:
            raise InputError(f"expected {self.rho + 1} moments, got {len(self.values)}")
        s0 = self.values[0]
        if abs(s0.imag) > 1e-12 * max(1.0, abs(s0)) or s0.real <= 0:
            raise InputError("s_0 must be real and strictly positive")

    @property
    def s0(self) -> float:
        return float(self.values[0].real)


def extend_matrix(m: TridiagonalSymmetric, n: int) -> TridiagonalSymmetric:
    """Extend ``m`` to size ``n`` with zero diagonal and unit off-diagonal."""
    d = m.dim
    if n < d:
        raise InputError(f"truncation size {n} is below the base dimension {d}")
    diag = np.zeros(n, dtype=np.complex128)
    diag[:d] = m.diag
    offdiag = np.ones(n - 1, dtype=np.complex128)
    offdiag[: d - 1] = m.offdiag
    return TridiagonalSymmetric(diag, offdiag)


def _tri_matvec(diag: np.ndarray, offdiag: np.ndarray, c: np.ndarray) -> np.ndarray:
    # Fixed per-entry operation order so results are bit-identical across
    # truncation sizes (the extra rows only ever contribute exact zeros).
    out = diag * c
    out[:-1] += offdiag * c[1:]
    out[1:] += offdiag * c[:-1]
    return out


def spectral_moments(
    m: TridiagonalSymmetric, rho: int, trunc: int | None = None
) -> MomentSequence:
    """Moments s_k of the spectral functional of a class matrix.

    s_k is the coefficient of p_0 in the p-basis expansion of lambda^k;
    the coefficient vectors follow the same three-term pattern as the
    extended matrix, so s_k is the (0,0) entry of its plain k-th power.
    Any truncation size >= rho + 2 gives bit-identical results; the
    recursion cannot reach the extra rows in rho steps.  Raises
    ``PreconditionError`` when some s_k overflows float64.
    """
    ok, _, reason = is_class_matrix(m)
    if not ok:
        raise InputError(f"not a class matrix: {reason}")
    if rho < 1:
        raise InputError("rho must be at least 1")
    if trunc is None:
        trunc = rho + 2
    if trunc < rho + 2:
        raise InputError(f"truncation size must be at least rho + 2 = {rho + 2}")
    ext = extend_matrix(m, max(trunc, m.dim))
    c = np.zeros(ext.dim, dtype=np.complex128)
    c[0] = 1.0
    s = np.empty(rho + 1, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(rho + 1):
            s[k] = c[0]
            if k < rho:
                c = _tri_matvec(ext.diag, ext.offdiag, c)
    if not np.isfinite(s).all():
        k = int(np.argmin(np.isfinite(s)))
        raise PreconditionError(f"float64 range exhausted at moment order {k}: s_{k} overflows")
    return MomentSequence(rho=rho, values=s)


@dataclass
class CircleSolution:
    """Atoms on the circle |z| = radius solving a gap moment problem.

    Prescribed moments: s_0 at order 0, zero at orders 1..order-1, and
    ``target`` at ``order``.
    """

    radius: float
    order: int
    target: complex
    measure: AtomicMeasure


def solve_rho1(s0: float, s1: complex) -> AtomicMeasure:
    """One atom at s1/s0 with mass s0 reproduces (s_0, s_1) exactly."""
    if s0 <= 0:
        raise InputError("s_0 must be strictly positive")
    return AtomicMeasure(np.array([complex(s1) / s0]), np.array([float(s0)]))


def toeplitz_solvability(ctilde: complex, rho: int) -> float:
    """Determinant 1 - |ct|^2 of the gap-moment Toeplitz matrix.

    The (rho+1) x (rho+1) Toeplitz matrix of the normalized circle problem
    is the identity with ct and conj(ct) in the corners; a positive
    determinant certifies solvability of the embedded truncated
    trigonometric moment problem.
    """
    if rho < 2:
        raise InputError("rho must be at least 2")
    return 1.0 - abs(complex(ctilde)) ** 2


def admissible_radius(s0: float, c: complex, n: int, delta: float = MASS_DELTA) -> float:
    """Smallest schedule-compliant radius for a gap problem, floored at 1."""
    need = (abs(complex(c)) / (s0 * (0.5 - delta))) ** (1.0 / n)
    # tiny pad so the |ct| check cannot fail to rounding at the boundary
    return max(1.0, need * (1.0 + 1e-9))


def _normalized_target(
    s0: float, c: complex, n: int, r: float, delta: float
) -> complex:
    """ct = (c/s0)/r^n, checked against the mass margin |ct| <= 1/2 - delta."""
    ct = (c / s0) / r**n
    # delta = 0 admits the boundary |c~| = 1/2 (masses can still all be
    # positive there, as the positivity check in _expand_rings decides);
    # the default margin guarantees the mass floor 2*delta*s0/N
    if abs(ct) > 0.5 - delta:
        raise InputError(
            f"|c~| = {abs(ct):.4f} exceeds {0.5 - delta}; "
            f"choose a radius of at least {admissible_radius(s0, c, n, delta):.6g}"
        )
    return ct


def _ring_moment(s0: float, r: float, n: int, ct: complex, k: int) -> complex:
    """Order-k moment of the ring (r, n, ct) carrying mass s0, in closed form.

    Over the N = 2n+1 roots of unity only k = 0, n and -n (mod N) survive:
    s0 * r^k * ([k = 0] + ct [k = n] + conj(ct) [k = -n]).
    """
    j = k % (2 * n + 1)
    if j == 0:
        return s0 * r**k
    if j == n:
        return s0 * r**k * ct
    if j == n + 1:
        return s0 * r**k * ct.conjugate()
    return 0j


def _expand_rings(
    s0: float, radii: np.ndarray, orders: np.ndarray, cts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and masses of the rings (radii[i], orders[i], cts[i]), in order.

    Ring i has N = 2n+1 atoms r * exp(2 pi i j / N) with masses
    (s0/N) * (1 + 2 Re(conj(ct) exp(2 pi i j n / N))), j = 0..N-1.
    """
    sizes = 2 * orders + 1
    ring = np.repeat(np.arange(len(sizes)), sizes)
    big_n = sizes[ring]
    j = np.arange(len(ring)) - (np.cumsum(sizes) - sizes)[ring]
    atoms = radii[ring] * np.exp(2j * np.pi * j / big_n)
    masses = (s0 / big_n) * (
        1.0
        + 2.0 * np.real(np.conj(cts[ring]) * np.exp(2j * np.pi * j * orders[ring] / big_n))
    )
    if not np.all(masses > 0):
        raise ConsistencyError("non-positive ring mass despite the |c~| margin")
    return atoms, masses


def solve_gap_moments(
    s0: float, c: complex, n: int, r: float, delta: float = MASS_DELTA
) -> CircleSolution:
    """Ring of 2n+1 atoms with moments (s0, 0, ..., 0, c) through order n.

    Atoms sit at r * exp(2 pi i j / N), N = 2n+1, with masses
    (s0/N) * (1 + 2 Re(conj(ct) exp(2 pi i j n / N))) for ct = (c/s0)/r^n.
    N = 2n+1 is what prevents the z^n density term from aliasing into any
    moment of order 1..n-1, so all n+1 prescribed moments are exact sums
    over roots of unity.  Masses stay positive as long as |ct| < 1/2.
    """
    if s0 <= 0:
        raise InputError("s_0 must be strictly positive")
    if n < 2:
        raise InputError("gap order must be at least 2")
    if r <= 0:
        raise InputError("radius must be positive")
    c = complex(c)
    ct = _normalized_target(s0, c, n, r, delta)
    atoms, masses = _expand_rings(
        s0, np.array([float(r)]), np.array([n]), np.array([ct])
    )
    return CircleSolution(
        radius=float(r), order=n, target=c, measure=AtomicMeasure(atoms, masses)
    )


@dataclass
class RadiusSchedule:
    """Knobs for choosing the ring radii in the measure construction."""

    gamma: float = RADIUS_GROWTH
    delta: float = MASS_DELTA

    def __post_init__(self):
        if self.gamma <= 1.0:
            raise InputError("gamma must exceed 1 to keep the rings disjoint")
        if not (0.0 < self.delta < 0.5):
            raise InputError("delta must lie strictly between 0 and 1/2")


def algorithm1(
    seq: MomentSequence, schedule: RadiusSchedule | None = None
) -> AtomicMeasure:
    """Finitely atomic measure matching the prescribed moments s_0..s_rho.

    Step 1 spends a single atom on (s_0/rho, s_1).  Step n (2..rho) places
    a ring of order n carrying mass s_0/rho, kept as the descriptor
    (r_n, n, ct_n) only.  Its order-n moment c_n is s_n minus the first
    atom's s_0/rho * z^n and minus the order-n moments of the earlier
    rings, which are known in closed form (``_ring_moment``), so each step
    is O(rho) scalar work; lower ring moments vanish by construction.
    Ring radii grow at least geometrically, so the rings are pairwise
    disjoint and never pass through the first atom.  After the last step
    every ring is expanded to its atoms and masses in one vectorized pass
    and one measure is built, which matches every prescribed moment.
    """
    if schedule is None:
        schedule = RadiusSchedule()
    rho = seq.rho
    if rho < 2:
        raise InputError("the stepwise construction needs rho >= 2")
    s0_step = seq.s0 / rho

    s = seq.values.tolist()
    first_atom = s[1] / s0_step
    inner = abs(first_atom)
    r_prev = inner or 1.0
    radii: list[float] = []
    cts: list[complex] = []
    for n in range(2, rho + 1):
        r_n = r_prev  # the largest radius raised to the power n so far
        try:
            c_n = s[n] - s0_step * first_atom**n
            for m, (r_m, ct_m) in enumerate(zip(radii, cts), start=2):
                c_n -= _ring_moment(s0_step, r_m, m, ct_m, n)
            r_n = max(
                admissible_radius(s0_step, c_n, n, schedule.delta),
                schedule.gamma * r_prev,
            )
            if not np.isfinite(r_n):  # |c_n| / ring mass overflowed to inf
                raise OverflowError
            ct_n = _normalized_target(s0_step, c_n, n, r_n, schedule.delta)
        except OverflowError:
            raise PreconditionError(
                f"float64 range exhausted at ring order {n}: "
                f"radius {r_n:.6g} to the power {n} overflows"
            ) from None
        # schedule sanity: strictly separated radii, none through the first atom
        if r_n - inner <= 1e-6 * r_n:
            raise ConsistencyError("radius schedule produced insufficiently separated rings")
        cts.append(ct_n)
        radii.append(r_n)
        inner = r_prev = r_n

    atoms, masses = _expand_rings(
        s0_step, np.array(radii), np.arange(2, rho + 1), np.array(cts)
    )
    return AtomicMeasure(
        np.concatenate(([first_atom], atoms)), np.concatenate(([s0_step], masses))
    )


def verify_measure(mu: AtomicMeasure, seq: MomentSequence) -> np.ndarray:
    """Relative residual |sum m z^k - s_k| for each prescribed moment.

    The denominator max(1, |s_k|, max|z|^k * total mass) reflects the
    largest magnitude entering the atom sum; ring radii grow geometrically
    so an absolute residual would be meaningless at high orders.  Raises
    ``PreconditionError`` when max|z|^k * total mass overflows float64.
    """
    zmax = float(np.max(np.abs(mu.atoms)))
    mass = mu.total_mass
    out = np.empty(seq.rho + 1)
    for k in range(seq.rho + 1):
        try:
            bound = zmax**k * mass
        except OverflowError:  # from zmax**k; an overflowing product gives inf
            bound = np.inf
        if bound == np.inf:
            raise PreconditionError(
                f"float64 range exhausted at moment order {k}: max|z| {zmax:.6g} "
                f"to the power {k} times total mass {mass:.6g} overflows"
            )
        target = seq.values[k]
        scale = max(1.0, abs(target), bound)
        out[k] = abs(mu.moment(k) - target) / scale
    return out
