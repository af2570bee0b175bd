"""Spectral moments and the truncated moment problem on the complex plane.

Two jobs live here.  First, the power moments s_k of the bilinear
spectral functional of a class matrix: with T the matrix extended
down-right by zero diagonal and unit off-diagonal entries, s_k is the
(0,0) entry of the plain (unconjugated) power T^k.  T is complex
symmetric, so s_{i+j} = v_i^T v_j with v_j = T^j e_0, and h = ceil(rho/2)
steps on rows 0..h of T give s_0..s_rho.  Second, a finitely atomic positive
measure with prescribed moments s_0..s_rho, 2 rho + 2 atoms in all: one
atom carries half of s_0 and all of s_1, and one circle of N = 2 rho + 1
equally spaced atoms carries the other half and every remaining moment
at once.  The circle's masses sample the positive trigonometric density
1 + 2 Re sum_n conj(ct_n) z^n (Caratheodory-Toeplitz).  With N atoms the
roots-of-unity sums kill every aliased term, so each prescribed moment
holds exactly up to rounding.  A gap problem (one nonzero moment) is the
single-frequency case of the same circle.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .core import (
    AtomicMeasure,
    ConsistencyError,
    InputError,
    PreconditionError,
    TridiagonalSymmetric,
    as_complex_vector,
    require_finite,
)

# Margin keeping sum |ct_n| <= 1/2 - MASS_DELTA, which floors every circle
# mass at 2 * MASS_DELTA * s0 / N.
MASS_DELTA = 1e-3
RADIUS_RATIO = 1.5  # default minimum of circle radius / |first atom|
# The circle radius is minimal to this relative accuracy: its Newton
# search rises to the root from below and stops at the first point that
# passes, at most RADIUS_RTOL/4 past the root in log r.
RADIUS_RTOL = 1e-3
# cuts each of the three integers the moment-table error echoes to 30 characters
_ECHO = reprlib.Repr()
_ECHO.maxlong = 30


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
            want = reprlib.repr(self.rho + 1)
            raise InputError(f"expected {want} moments, got {len(self.values)}")
        s0 = self.values[0]
        if abs(s0.imag) > 1e-12 * abs(s0) or s0.real <= 0:
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


def moment_order(d: int, rho: int | None) -> int:
    """The moment order for a class matrix of dimension d: ``rho``, which must
    exceed 2d, or 2d + 1 when it is None."""
    if rho is None:
        return 2 * d + 1
    if rho <= 2 * d:
        raise InputError(f"rho must exceed 2d = {2 * d}")
    return rho


def spectral_moments(
    m: TridiagonalSymmetric, rho: int, trunc: int | None = None
) -> MomentSequence:
    """Moments s_k of the spectral functional of a class matrix.

    s_k, the coefficient of p_0 in the p-basis expansion of lambda^k, is
    the (0,0) entry of T^k for the extended matrix T.  As T^T = T,
    s_{i+j} = v_i^T v_j with v_j = T^j e_0, so v_0..v_h, h = ceil(rho/2),
    give s_{2j} = v_j^T v_j and s_{2j+1} = v_j^T v_{j+1}.  v_j lives on
    rows 0..j, so only rows 0..h of T are built and read: ``trunc`` is
    validated (at least rho + 2) and otherwise cannot change the result.
    Only an exact zero a_k is refused, here for ``build_transform``'s
    recurrence too; whether a small a_k counts as zero is the caller's
    judgement, made by ``is_class_matrix`` at the caller's tol.  Raises
    ``PreconditionError`` when the (h+1)-by-(h+1) table of the v_j cannot
    be allocated or some s_k overflows float64.
    """
    zero = (m.offdiag == 0).nonzero()[0]
    if len(zero):
        raise InputError(f"not a class matrix: a_{zero[0]} = 0")
    if rho < 1:
        raise InputError("rho must be at least 1")
    if trunc is not None and trunc < rho + 2:
        raise InputError(f"truncation size must be at least rho + 2 = {rho + 2}")
    h = (rho + 1) // 2
    try:  # the largest allocation goes first; numpy refuses a shape past intp with ValueError
        v = np.zeros((h + 1, h + 1), dtype=np.complex128)  # row j is v_j on rows 0..h
    except (MemoryError, ValueError):
        n = _ECHO.repr(h + 1)
        raise PreconditionError(
            f"rho = {_ECHO.repr(rho)} needs a {n} x {n} moment table "
            f"({_format_power_of_ten(math.log10(16 * (h + 1) ** 2))} bytes), which cannot be allocated"
        ) from None
    ext = extend_matrix(m, max(h + 1, m.dim))
    diag, offdiag = ext.diag[: h + 1], ext.offdiag[:h]
    v[0, 0] = 1.0
    tmp = np.empty(h, dtype=np.complex128)
    # nxt = T cur: the diagonal, then the two off-diagonal bands, each
    # product formed in tmp; the zip hands out every row view, so no step
    # slices or allocates
    steps = zip(v[:-1], v[1:], v[:-1, 1:], v[:-1, :-1], v[1:, :-1], v[1:, 1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for cur, nxt, cur_tail, cur_head, nxt_head, nxt_tail in steps:
            np.multiply(diag, cur, out=nxt)
            nxt_head += np.multiply(offdiag, cur_tail, out=tmp)
            nxt_tail += np.multiply(offdiag, cur_head, out=tmp)
        s = np.empty(2 * h + 1, dtype=np.complex128)
        s[0::2] = (v * v).sum(axis=1)
        s[1::2] = (v[:-1] * v[1:]).sum(axis=1)
    s = s[: rho + 1]
    require_finite(s, lambda k: f"moment order {k}: s_{k} overflows")
    return MomentSequence(rho=rho, values=s)


def require_normal_moments(m: TridiagonalSymmetric, rho: int) -> None:
    """Raise ``PreconditionError`` naming the first order k <= rho whose
    largest entering magnitude, (|T|^k)_00 for the extended matrix T with
    absolute bands, is nonzero but below the normal float64 range, so that
    s_k has underflowed whatever its value.  A zero (|T|^k)_00 is a
    structural zero of s_k, such as an odd order of a zero-diagonal member.

    As in ``spectral_moments``, (|T|^{i+j})_00 = u_i . u_j with
    u_j = |T|^j e_0.  Each u_j is carried divided by a power of two,
    2^e_j, that brings its largest entry into [1/2, 1), so the scales are
    resolved far below float64 where a plain |T| Krylov would read 0.
    """
    h = (rho + 1) // 2
    ext = extend_matrix(m, max(h + 1, m.dim))
    diag, offdiag = np.abs(ext.diag[: h + 1]), np.abs(ext.offdiag[:h])
    cur, e_cur = np.zeros(h + 1), 0
    cur[0] = 1.0
    for j in range(h):
        nxt = diag * cur
        nxt[:-1] += offdiag * cur[1:]
        nxt[1:] += offdiag * cur[:-1]
        e_nxt = e_cur + math.frexp(nxt.max())[1]
        nxt = np.ldexp(nxt, e_cur - e_nxt)
        for k, dot, e in ((2 * j + 1, cur @ nxt, e_cur + e_nxt), (2 * j + 2, nxt @ nxt, 2 * e_nxt)):
            # 2^-1022 is the smallest normal float64
            if k <= rho and dot > 0 and math.log2(dot) + e < -1022:
                raise PreconditionError(
                    f"moment order {k}: s_{k} underflows: the largest magnitude entering it, "
                    f"(|T|^{k})_00, is about 1e{(math.log2(dot) + e) * math.log10(2):.0f}, "
                    "below the normal float64 range"
                )
        cur, e_cur = nxt, e_nxt


@dataclass
class CircleSolution:
    """The circle of ``solve_gap_moments``: atoms on |z| = r with moments
    s_0 at order 0, zero at orders 1..n-1 and c at order n."""

    measure: AtomicMeasure


def solve_rho1(s0: float, s1: complex) -> AtomicMeasure:
    """One atom at s1/s0 with mass s0 reproduces (s_0, s_1) exactly.
    Raises ``PreconditionError`` when s1/s0 is past the float64 range."""
    if s0 <= 0:
        raise InputError("s_0 must be strictly positive")
    atom = complex(s1) / s0
    if not np.isfinite(atom):
        raise PreconditionError(
            f"precision exhausted: s_1/s_0 = ({complex(s1):.3g})/{s0:.3g} is past the float64 range"
        )
    return AtomicMeasure(np.array([atom]), np.array([float(s0)]))


def toeplitz_solvability(ctilde: complex, rho: int) -> float:
    """Determinant 1 - |ct|^2 of the (rho+1) x (rho+1) Toeplitz matrix of the
    normalized circle problem, the identity with ct and conj(ct) in the
    corners; positive certifies the trigonometric moment problem solvable."""
    if rho < 2:
        raise InputError("rho must be at least 2")
    return 1.0 - abs(complex(ctilde)) ** 2


def admissible_radius(s0: float, c: complex, n: int, delta: float = MASS_DELTA) -> float:
    """Smallest schedule-compliant radius for a gap problem, floored at 1."""
    need = (abs(complex(c)) / (s0 * (0.5 - delta))) ** (1.0 / n)
    # tiny pad so the |ct| check cannot fail to rounding at the boundary
    return max(1.0, need * (1.0 + 1e-9))


def _circle(s0: float, r: float, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and masses of the circle carrying mass s0 with moments c_0..c_rho.

    N = 2 rho + 1 atoms r w^j, w = exp(2 pi i / N), with masses
    (s0/N) (1 + 2 Re sum_n conj(ct_n) w^(jn)) for the targets
    ct_n = (c_n / s0) / r^n, exactly 0 where c_n is (c_0 = c_1 = 0), read
    off one FFT of ct.  Over the N-th roots of unity the order-k moment,
    1 <= k <= rho, picks up only the frequency n = k, because
    k + n <= 2 rho < N: it is s0 r^k ct_k = c_k.  Masses are positive
    whenever sum |ct_n| < 1/2.
    """
    ct = (c / s0) / r ** np.arange(len(c))
    big_n = 2 * len(ct) - 1
    atoms = r * np.exp(2j * np.pi * np.arange(big_n) / big_n)
    # Re sum_n ct_n w^(-jn) = Re sum_n conj(ct_n) w^(jn)
    masses = (s0 / big_n) * (1.0 + 2.0 * np.fft.fft(ct, big_n).real)
    if not (masses > 0).all():
        raise ConsistencyError("non-positive circle mass despite the |c~| margin")
    return atoms, masses


def solve_gap_moments(
    s0: float, c: complex, n: int, r: float, delta: float = MASS_DELTA
) -> CircleSolution:
    """Circle of 2n+1 atoms on |z| = r with moments (s0, 0, ..., 0, c) through
    order n: the single-frequency case of ``_circle``, ct = (c/s0)/r^n.
    Raises ``PreconditionError``, as ``algorithm1`` does, when s0 r^n would
    overflow float64 or r^n fall below its normal range."""
    if s0 <= 0:
        raise InputError("s_0 must be strictly positive")
    if n < 2:
        raise InputError("gap order must be at least 2")
    if r <= 0:
        raise InputError("radius must be positive")
    _check_scale(s0, math.log10(r), n)
    c = complex(c)
    ct = abs(c / s0) / np.float64(r) ** n  # numpy's power overflows to inf
    # delta = 0 admits the boundary |c~| = 1/2 (masses can still all be
    # positive there, as the positivity check in _circle decides); the
    # default margin guarantees the mass floor 2*delta*s0/N
    if ct > 0.5 - delta:
        raise InputError(
            f"|c~| = {ct:.4f} exceeds {0.5 - delta}; "
            f"choose a radius of at least {admissible_radius(s0, c, n, delta):.6g}"
        )
    targets = np.zeros(n + 1, dtype=np.complex128)
    targets[n] = c
    return CircleSolution(AtomicMeasure(*_circle(s0, r, targets)))


@dataclass
class RadiusSchedule:
    """Knobs of the circle: ``gamma`` (> 1) is the minimum ratio of its
    radius to the modulus of the first atom, which is so never on it, and
    ``delta`` the margin sum |ct_n| <= 1/2 - delta flooring every mass."""

    gamma: float = RADIUS_RATIO
    delta: float = MASS_DELTA

    def __post_init__(self):
        if not 1.0 < self.gamma < math.inf:  # NaN fails too
            raise InputError("gamma must be finite and exceed 1 (first atom off the circle)")
        if not (0.0 < self.delta < 0.5):
            raise InputError("delta must lie strictly between 0 and 1/2")


def _check_scale(s0: float, log_r: float, rho: int) -> None:
    """Raise when max(1, s0) r^rho, the largest magnitude entering the moment
    sums of a circle of radius r = 10^log_r and mass s0, would overflow
    float64, or r^rho would fall below its normal range."""
    power = rho * log_r
    scale = power + max(0.0, math.log10(s0))
    if scale > 308 or power < -307:
        raise PreconditionError(
            f"precision exhausted at scale 1e{scale if scale > 308 else power:.0f} "
            f"(circle radius {_format_power_of_ten(log_r)}, order {rho})"
        )


def _format_power_of_ten(x: float) -> str:
    """10^x as "%.3g" writes it, also when 10^x lies past float64."""
    if x < 308:
        return f"{10**x:.3g}"
    exp = math.floor(x)
    mantissa = float(f"{10 ** (x - exp):.3g}")
    if mantissa == 10:  # rounding carried into the exponent
        mantissa, exp = 1.0, exp + 1
    return f"{mantissa:g}e+{exp}"


def _circle_radius(s0: float, c: np.ndarray, floor: float, delta: float) -> float:
    """Smallest r >= floor with sum_n |c_n| / (s0 r^n) <= 1/2 - delta.

    In t = log r this is G(t) = log sum_n exp(la_n - n t) <= 0.  G is
    convex and falls with slope at most -min(n), and one term alone
    reaches 1 at max(la_n / n), where the search starts (or at log floor,
    if larger).  From a point left of the root each Newton step lands
    between that point and the root, so the iterates rise and never pass
    it; a step shorter than RADIUS_RTOL/4 is lengthened to RADIUS_RTOL/4,
    which may pass it by at most that much.  The search returns the first
    iterate whose sum it evaluated at <= 1.  With no nonzero c_n only the
    floor bounds r, and r = max(floor, 1).
    """
    n = c.nonzero()[0]
    if len(n) == 0:
        return max(floor, 1.0)
    la = np.log(np.abs(c[n])) - (math.log(s0) + math.log(0.5 - delta))
    t = float((la / n).max())
    if floor > 0:
        t = max(t, math.log(floor))
    terms = np.exp(la - n * t)
    total = float(terms.sum())
    while total > 1.0:  # a NaN sum stops too
        # Newton on G: G / -G'(t) = log(total) * total / sum_n n terms_n
        t += max(math.log(total) * total / float(n @ terms), RADIUS_RTOL / 4)
        terms = np.exp(la - n * t)
        total = float(terms.sum())
    # tiny pad so the margin cannot fail to rounding at the boundary
    return max(math.exp(t) * (1.0 + 1e-9), floor)


def algorithm1(
    seq: MomentSequence, schedule: RadiusSchedule | None = None
) -> AtomicMeasure:
    """Finitely atomic measure matching the prescribed moments s_0..s_rho.

    The first atom a = s_1 / (s_0/2) carries mass s_0/2 and matches s_1.
    One circle (``_circle``) carries the other s_0/2 and every remaining
    c_n = s_n - (s_0/2) a^n, n = 2..rho, at once: its order-k moment is
    exactly c_k.  Its radius is the smallest with every mass above the
    floor and at least gamma |a|.  Raises ``PreconditionError`` naming
    the scale, before anything is built, when float64 cannot hold it.
    At rho = 1 there is no circle: the measure is the single exact atom
    of ``solve_rho1``.
    """
    if schedule is None:
        schedule = RadiusSchedule()
    rho = seq.rho
    if rho == 1:
        return solve_rho1(seq.s0, complex(seq.values[1]))
    half = seq.s0 / 2
    if half < np.finfo(np.float64).tiny:  # numpy divides by the reciprocal, inf for a subnormal
        raise PreconditionError(
            f"precision exhausted: s_0/2 = {half:.3g} is below the normal float64 range"
        )
    s1 = complex(seq.values[1])
    big = max(abs(s1.real), abs(s1.imag))
    if big > 0:
        # log10 of the floor gamma |a|, a = s1 / half, formed so that no
        # product can overflow; r >= floor, so (s0/2) a^n below overflows
        # only past it
        log_a = math.log10(abs(s1 / big)) + math.log10(big) - math.log10(half)
        log_floor = math.log10(schedule.gamma) + log_a
        if log_floor > 0:
            _check_scale(half, log_floor, rho)
    first_atom = seq.values[1] / half
    floor = schedule.gamma * abs(first_atom)
    with np.errstate(over="ignore"):
        c = seq.values - half * first_atom ** np.arange(rho + 1)
    c[:2] = 0.0  # the circle carries its mass at order 0 and nothing at order 1
    require_finite(c, lambda n: f"moment order {n}: c_{n} = s_{n} - (s_0/2) a^{n} overflows")
    r = _circle_radius(half, c, floor, schedule.delta)
    _check_scale(half, math.log10(r), rho)
    atoms, masses = _circle(half, r, c)
    return AtomicMeasure(
        np.concatenate(([first_atom], atoms)), np.concatenate(([half], masses))
    )


def verify_measure(mu: AtomicMeasure, seq: MomentSequence) -> np.ndarray:
    """Relative residual |sum m z^k - s_k| for each prescribed moment.

    Both the atom sum and s_k are divided by max(|s_k|, max|z|^k * total
    mass), the largest magnitude entering the atom sum, before they are
    subtracted, so no order and no scale of the moments is judged
    absolutely.  Each quotient is at most about 1, so the difference cannot
    overflow; the bound is 0 only at s_k = 0 with every atom at 0, where
    the residual is 0.  Raises ``PreconditionError`` when it overflows.
    """
    zmax = np.abs(mu.atoms).max()  # np.float64, so zmax**k overflows to inf
    mass = mu.total_mass
    with np.errstate(over="ignore"):
        bounds = [zmax**k * mass for k in range(seq.rho + 1)]
    require_finite(bounds, lambda k: f"moment order {k}: max|z| {zmax:.6g} to the power "
                   f"{k} times total mass {mass:.6g} overflows")
    scales = [max(abs(target), bound) or 1.0 for target, bound in zip(seq.values, bounds)]
    return np.array([
        abs(mu.moment(k) / scale - target / scale)
        for k, (target, scale) in enumerate(zip(seq.values, scales))
    ])
