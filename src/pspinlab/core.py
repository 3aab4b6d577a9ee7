"""Closed forms for the annealed complexity of spiked spherical p-spin landscapes.

Model: an isotropic Gaussian polynomial of degree p on the sphere of radius
sqrt(N) in R^N, plus r deterministic terms lambda_i * <sigma, u_i>^{k_i} with
orthonormal directions u_i.  At exponential scale the expected number of
critical points with overlap profile m and value near x grows like
exp{N * sigma_tot_joint(m, x)}; this module evaluates that exponent and its
projections, boundaries, and zero sets in closed form.

Conventions used throughout the package:
    overlaps m_i = <sigma, u_i> / sqrt(N), alpha(m) = sum_i m_i^2,
    natural domain 0 < alpha < 1 (off-domain exponents are -inf);
    GOE matrices are normalized so the bulk spectrum converges to [-2, 2].

Broadcasting: sigma_tot_projected, aux_statistics and classify_regime (and
the perturbation spectrum in spikes) take one overlap point of shape (r,) and
return Python scalars, or a stack of shape (N, r) and return arrays over its
N points; the one-point call is the stack call on one row.  s_func, y_shift,
t_func and sigma_tot_joint take one point, with x a float or an array.
Powers, logarithms and asinh go through the C library one float at a time
(_libm), so a stack gives the same bits as its points one by one.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

__all__ = [
    "ModelParams",
    "AuxStatistics",
    "RegimeLabel",
    "tau_critical",
    "eta_critical",
    "lambda_critical",
    "edge_area",
    "phi_star",
    "s_func",
    "y_shift",
    "t_func",
    "sigma_tot_joint",
    "sigma_tot_projected",
    "aux_statistics",
    "classify_regime",
    "zero_locus_solve",
    "g_ab",
    "f_ab",
    "appendix_diagnostics",
]

NEG_INF = float("-inf")


@dataclass(frozen=True)
class ModelParams:
    """Landscape parameters: degree p, rank r, spike degrees k, strengths lam.

    lam must be sorted in non-increasing order; every k_i >= 3 and p >= 3.
    """

    p: int
    r: int
    k: tuple[int, ...]
    lam: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", tuple(int(v) for v in self.k))
        object.__setattr__(self, "lam", tuple(float(v) for v in self.lam))
        if self.p < 3:
            raise ValueError(f"p must be >= 3, got {self.p}")
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if len(self.k) != self.r or len(self.lam) != self.r:
            raise ValueError("k and lam must each have length r")
        if any(ki < 3 for ki in self.k):
            raise ValueError(f"every spike degree must be >= 3, got {self.k}")
        if any(li < 0 for li in self.lam):
            raise ValueError(f"spike strengths must be >= 0, got {self.lam}")
        if any(self.lam[i] < self.lam[i + 1] for i in range(self.r - 1)):
            raise ValueError(f"lam must be non-increasing, got {self.lam}")


class RegimeLabel(IntEnum):
    """Classification of an overlap point by the sign structure of the exponent.

    Integer values double as the numeric codes written to grid CSV files.
    """

    OUT_OF_DOMAIN = 0
    POSITIVE = 1
    ZERO_BOUNDARY = 2
    NEGATIVE = 3
    SUBEXPONENTIAL_ZERO_LOCUS = 4


@dataclass(frozen=True)
class AuxStatistics:
    """Summaries of an overlap point that drive every phase boundary.

    tau_star is NaN when its defining ratio is negative or degenerate; beta is
    NaN when tau vanishes; eta is +inf when some active strength is zero and
    eta_c is NaN for mixed spike degrees.  For a stack of points the first
    five fields are arrays; the thresholds tau_c and eta_c stay floats.
    """

    tau: float | np.ndarray
    alpha: float | np.ndarray
    beta: float | np.ndarray
    eta: float | np.ndarray
    tau_star: float | np.ndarray
    tau_c: float
    eta_c: float


def tau_critical(p: int) -> float:
    """Threshold for the effective shift above which the wide-branch formula rules."""
    return (p - 2) / math.sqrt(2 * p * (p - 1))


def eta_critical(p: int, k: int) -> float:
    """Largest inverse-strength budget that still admits exact zeros of the exponent."""
    return (k - 2) * (2 * k * k / (p * (k - 1) ** (k - 1))) ** (1.0 / (k - 2))


def lambda_critical(p: int) -> float:
    """Strength threshold (r=1, k=p) separating trivial from informative zero sets."""
    return math.sqrt((p - 1) ** (p - 1) / ((p - 2) ** (p - 2) * 2 * p))


def edge_area(x: float) -> float:
    """Integral of sqrt(y^2 - 4) from 2 to x, for x >= 2.

    This is the area that controls the exponential cost of pulling one
    eigenvalue out of the bulk to position x.
    """
    if x < 2:
        raise ValueError(f"edge_area needs x >= 2, got {x}")
    s = math.sqrt(x * x - 4)
    return 0.5 * x * s - 2 * math.log(0.5 * (x + s))


def phi_star(x: float) -> float:
    """Limiting (1/N) log E|det(W - x)| for a bulk-normalized GOE matrix W.

    Equals the semicircle log-potential integral log|y - x| rho_sc(dy): inside
    the bulk only the quadratic part survives; outside, the area term enters.
    """
    v = 0.25 * x * x - 0.5
    ax = abs(x)
    if ax > 2:
        v -= 0.5 * edge_area(ax)
    return v


def _libm(fn, x, *args) -> np.ndarray:
    """fn(x_i, *args) for every entry x_i of the array x, through Python floats.

    numpy's SIMD pow, log, log1p and asinh differ from the C library in the
    last ulps on some inputs, while sqrt and plain arithmetic agree; routing
    those four through here keeps every array result bit-equal to the same
    formula evaluated on one Python float at a time.
    """
    x = np.asarray(x, dtype=float)
    columns = [itertools.repeat(a) for a in args]
    try:
        values = list(map(fn, x.ravel().tolist(), *columns))
    except OverflowError:
        values = [_saturating(fn, v, *args) for v in x.ravel().tolist()]
    return np.array(values, dtype=float).reshape(x.shape)


def _saturating(fn, x: float, *args) -> float:
    """fn(x, *args), or +-inf where Python raises OverflowError and the C
    library returns an infinity (only pow overflows among the four)."""
    try:
        return fn(x, *args)
    except OverflowError:
        with np.errstate(over="ignore"):
            return float(np.power(x, *args))


def _points(params: ModelParams, m: Sequence[float] | np.ndarray) -> tuple[np.ndarray, bool]:
    """Overlap points as an (N, r) float array, and whether m was one point.

    m is one point of shape (r,) or a stack of shape (N, r).
    """
    pts = np.asarray(m, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != params.r:
        raise ValueError(
            f"overlap points have shape {pts.shape}, expected (r,) or (N, r) with r = {params.r}"
        )
    return pts.reshape(-1, params.r), pts.ndim == 1


def _profile_parts(params: ModelParams, m: Sequence[float] | np.ndarray):
    """Shared profile sums: alpha, the two quadratic sums, tau, value center, shift.

    Returns (alpha, diag_sum, cross_sum, tau, center, shift) where
      diag_sum  = (1/p) sum_i lam_i^2 k_i^2 m_i^{2k_i-2} (1 - m_i^2),
      cross_sum = (2/p) sum_{i<j} lam_i lam_j k_i k_j m_i^{k_i} m_j^{k_j},
      tau       = (1/p) sum_i lam_i k_i m_i^{k_i},
      center    = sum_i lam_i m_i^{k_i},
      shift     = sum_i lam_i (1 - k_i/p) m_i^{k_i};
    floats for one point, arrays of length N for a stack.
    """
    pts, single = _points(params, m)
    p = params.p
    alpha = diag_sum = tau = center = 0.0
    powers = []
    for lam_i, k_i, m_i in zip(params.lam, params.k, pts.T):
        mi2 = m_i * m_i
        alpha = alpha + mi2
        mk = _libm(pow, m_i, k_i)
        powers.append(lam_i * k_i * mk)
        diag_sum = diag_sum + lam_i * lam_i * k_i * k_i * _libm(pow, m_i, 2 * k_i - 2) * (1 - mi2)
        tau = tau + lam_i * k_i * mk
        center = center + lam_i * mk
    diag_sum = diag_sum / p
    tau = tau / p
    cross_sum = np.zeros(len(pts))
    for i in range(len(powers)):
        for j in range(i + 1, len(powers)):
            cross_sum = cross_sum + powers[i] * powers[j]
    cross_sum = cross_sum * (2.0 / p)
    shift = center - tau
    parts = (alpha, diag_sum, cross_sum, tau, center, shift)
    return tuple(float(v[0]) for v in parts) if single else parts


def s_func(params: ModelParams, m: Sequence[float], x: float) -> float:
    """Density exponent of critical points at overlap m and value x, before
    the Hessian-determinant contribution.  -inf when alpha(m) is not in (0, 1).
    """
    alpha, diag_sum, cross_sum, _, center, _ = _profile_parts(params, m)
    if not 0.0 < alpha < 1.0:
        return NEG_INF
    d = x - center
    return (
        0.5 * (math.log(params.p - 1) + 1)
        + 0.5 * math.log1p(-alpha)
        - diag_sum
        + cross_sum
        - d * d
    )


def y_shift(params: ModelParams, m: Sequence[float], x: float) -> float:
    """Recentered value coordinate: x minus the deterministic part not seen by
    the gradient trace."""
    _, _, _, _, _, shift = _profile_parts(params, m)
    return x - shift


def t_func(params: ModelParams, m: Sequence[float], x: float) -> float:
    """Hessian shift coordinate: the recentered value scaled to the GOE edge units."""
    p = params.p
    return math.sqrt(2 * p / (p - 1)) * y_shift(params, m, x)


def sigma_tot_joint(params: ModelParams, m: Sequence[float], x: float) -> float:
    """Exponential growth rate of the expected number of critical points with
    overlap profile m and value near x.  -inf off-domain.
    """
    alpha, diag_sum, cross_sum, tau, _, shift = _profile_parts(params, m)
    if not 0.0 < alpha < 1.0:
        return NEG_INF
    p = params.p
    y = x - shift
    t = math.sqrt(2 * p / (p - 1)) * y
    d = y - tau
    return (
        0.5 * (math.log(p - 1) + 1)
        + 0.5 * math.log1p(-alpha)
        - diag_sum
        + cross_sum
        - d * d
        + phi_star(t)
    )


def _unwrap(values: np.ndarray, single: bool):
    """The one value as a Python scalar for a single point, else the array."""
    return values[0].item() if single else values


def sigma_tot_projected(
    params: ModelParams, m: Sequence[float] | np.ndarray
) -> float | np.ndarray:
    """sup over x of sigma_tot_joint(m, x), in closed form.

    Two branches, split by tau against tau_critical(p): below the threshold
    the optimal Hessian shift stays outside the bulk (narrow branch), at or
    above it the optimizer sits against the bulk edge (wide branch).  A float
    for one point of shape (r,), an array of length N for a stack (N, r).
    """
    pts, single = _points(params, m)
    alpha, diag_sum, cross_sum, tau, _, _ = _profile_parts(params, pts)
    inside = (0.0 < alpha) & (alpha < 1.0)
    p = params.p
    base = 0.5 * _libm(math.log1p, -np.where(inside, alpha, 0.0)) - diag_sum + cross_sum
    narrow = 0.5 * math.log(p - 1) + base + (p / (p - 2)) * tau * tau
    u = math.sqrt(0.5 * p) * tau
    wide = base - u * u + u * np.sqrt(1 + u * u) + _libm(math.asinh, u)
    value = np.where(tau < tau_critical(p), narrow, wide)
    return _unwrap(np.where(inside, value, NEG_INF), single)


def aux_statistics(params: ModelParams, m: Sequence[float] | np.ndarray) -> AuxStatistics:
    """All statistics of an overlap point, or of each point of a stack, used
    by the phase analysis."""
    pts, single = _points(params, m)
    p = params.p
    alpha, _, _, tau, _, _ = _profile_parts(params, pts)
    sq = np.zeros(len(pts))
    eta = np.zeros(len(pts))
    for lam_i, k_i, m_i in zip(params.lam, params.k, pts.T):
        sq = sq + _libm(pow, lam_i * k_i * _libm(pow, m_i, k_i - 1), 2)
        active = m_i != 0.0
        if active.any():  # the weight can overflow; a point with m_i = 0 never needs it
            weight = _saturating(pow, lam_i, -2.0 / (k_i - 2)) if lam_i > 0 else math.inf
            eta = eta + np.where(active, weight, 0.0)
    sq = sq / (p * p)

    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.where(tau != 0.0, alpha * sq / (tau * tau), math.nan)
        inside = (0.0 < alpha) & (alpha < 1.0) & ~np.isnan(beta)
        a = np.where(inside, alpha, 0.5)
        den = (p - 1) / (p - 2) - beta / a
        num = -0.5 * _libm(math.log, (1 - a) * (p - 1))
        ratio = num / den
    valid = inside & (den != 0.0) & (ratio >= 0.0)
    tau_star = np.where(valid, np.sqrt(np.where(valid, ratio, 0.0)) / math.sqrt(p), math.nan)

    if all(k_i == params.k[0] for k_i in params.k):
        eta_c = eta_critical(p, params.k[0])
    else:
        eta_c = math.nan

    return AuxStatistics(
        tau=_unwrap(tau, single),
        alpha=_unwrap(alpha, single),
        beta=_unwrap(beta, single),
        eta=_unwrap(eta, single),
        tau_star=_unwrap(tau_star, single),
        tau_c=tau_critical(p),
        eta_c=eta_c,
    )


def _zero_conditions_hold(
    params: ModelParams, m: Sequence[float] | np.ndarray, tol: float
) -> bool | np.ndarray:
    """Check the two exact-zero conditions of the wide branch at tolerance tol.

    (a) the values lam_i k_i m_i^{k_i-2} / p agree across nonzero coordinates;
    (b) the effective shift matches alpha / (2 sqrt(1 - alpha)) in edge units.
    A bool for one point, a boolean array for a stack.
    """
    pts, single = _points(params, m)
    p = params.p
    alpha, _, _, tau, _, _ = _profile_parts(params, pts)
    inside = (0.0 < alpha) & (alpha < 1.0)
    hi = np.full(len(pts), -math.inf)
    lo = np.full(len(pts), math.inf)
    for lam_i, k_i, m_i in zip(params.lam, params.k, pts.T):
        d = (k_i / p) * lam_i * _libm(pow, m_i, k_i - 2)
        nonzero = m_i != 0.0
        hi = np.where(nonzero, np.maximum(hi, d), hi)
        lo = np.where(nonzero, np.minimum(lo, d), lo)
    a = np.where(inside, alpha, 0.0)
    resid = math.sqrt(0.5 * p) * tau - 0.5 * a / np.sqrt(1 - a)
    held = inside & (lo <= hi) & ~(hi - lo > tol) & (np.abs(resid) <= tol)
    return _unwrap(held, single)


def classify_regime(
    params: ModelParams, m: Sequence[float] | np.ndarray, tol: float = 1e-6
) -> RegimeLabel | np.ndarray:
    """Label an overlap point by the sign structure of the projected exponent.

    Points outside [0, 1]^r or with alpha outside (0, 1) are OUT_OF_DOMAIN.
    A point on the wide branch satisfying the exact-zero conditions within tol
    is SUBEXPONENTIAL_ZERO_LOCUS; otherwise the sign of the projected exponent
    decides, with |value| <= tol reported as ZERO_BOUNDARY.  A RegimeLabel
    for one point, an integer array of label codes for a stack.
    """
    pts, single = _points(params, m)
    alpha, _, _, tau, _, _ = _profile_parts(params, pts)
    inside = ~np.any(pts < 0.0, axis=1) & (0.0 < alpha) & (alpha < 1.0)
    value = sigma_tot_projected(params, pts)
    codes = np.where(value > 0, int(RegimeLabel.POSITIVE), int(RegimeLabel.NEGATIVE))
    codes[np.abs(value) <= tol] = RegimeLabel.ZERO_BOUNDARY
    wide = inside & (tau >= tau_critical(params.p) - tol)
    codes[wide] = np.where(
        _zero_conditions_hold(params, pts[wide], tol),
        int(RegimeLabel.SUBEXPONENTIAL_ZERO_LOCUS),
        codes[wide],
    )
    codes[~inside] = RegimeLabel.OUT_OF_DOMAIN
    return RegimeLabel(int(codes[0])) if single else codes


def _pattern_residual(params: ModelParams, pattern: tuple[int, ...], delta):
    """Overlap vector and zero-condition residual for a common slope delta.

    Coordinates in the pattern carry m_i = (p delta / (k_i lam_i))^{1/(k_i-2)},
    the unique profile satisfying condition (a); the residual is condition (b).
    Returns (m, alpha, residual) with residual NaN when alpha >= 1: a list and
    two floats for one slope, arrays (N, r), (N,) and (N,) for N slopes.
    """
    deltas = np.asarray(delta, dtype=float)
    single = deltas.ndim == 0
    deltas = deltas.reshape(-1)
    p = params.p
    m = np.zeros((len(deltas), params.r))
    alpha = tau = np.zeros(len(deltas))
    # slopes far past alpha = 1 overflow to inf, which the NaN residual covers
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for i in pattern:
            k_i, lam_i = params.k[i], params.lam[i]
            m_i = _libm(pow, p * deltas / (k_i * lam_i), 1.0 / (k_i - 2))
            m[:, i] = m_i
            alpha = alpha + m_i * m_i
            tau = tau + lam_i * k_i * _libm(pow, m_i, k_i) / p
        resid = math.sqrt(0.5 * p) * tau - 0.5 * alpha / np.sqrt(1 - alpha)
    resid = np.where(alpha >= 1.0, math.nan, resid)
    if single:
        return m[0].tolist(), float(alpha[0]), float(resid[0])
    return m, alpha, resid


def zero_locus_solve(
    params: ModelParams, pattern: Sequence[int] | None = None
) -> list[tuple[float, ...]]:
    """All overlap profiles solving the exact-zero conditions on a support pattern.

    pattern lists the coordinates allowed to be nonzero (default: all of them).
    Coordinates off the pattern are pinned to zero.  Solutions are found by a
    dense scan in the common slope followed by bisection to 1e-12; the list is
    ordered by increasing slope (hence increasing overlaps) and may be empty.

    On a one-coordinate pattern the residual has the sign of
    C m^{k-2} sqrt(1 - m^2) - 1 with C = lam k sqrt(2/p): negative below the
    slope 1/sqrt(2p) and near alpha = 1, with one peak at m^2 = (k-2)/(k-1).
    The scan then also takes the peak, a point below 1/sqrt(2p) and the upper
    end of the slope range, so each monotone side holds exactly one sign
    change when the peak residual is positive, and the root count (0, one
    double root, or 2) is exact, also just above lambda_critical.
    """
    if pattern is None:
        pattern = tuple(range(params.r))
    pattern = tuple(sorted(set(int(i) for i in pattern)))
    if not pattern:
        return []
    if pattern[0] < 0 or pattern[-1] >= params.r:
        raise ValueError(f"pattern indices must lie in [0, {params.r - 1}]")
    if any(params.lam[i] == 0.0 for i in pattern):
        return []

    # upper end of the slope range: alpha(delta) is increasing, stop at alpha = 1
    lo, hi = 0.0, 1.0
    while _pattern_residual(params, pattern, hi)[1] < 1.0:
        hi *= 2.0
        if hi > 1e12:
            break
    # bisect until the bracket stops moving; a weak spike puts delta_max many
    # binades below 1, and the float range bounds the number of halvings
    for _ in range(2200):
        mid = 0.5 * (lo + hi)
        if _pattern_residual(params, pattern, mid)[1] < 1.0:
            if lo == mid:
                break
            lo = mid
        else:
            if hi == mid:
                break
            hi = mid
    delta_max = lo

    grid_size = 4096
    deltas = delta_max * np.arange(1, grid_size + 1) / (grid_size + 1)
    if len(pattern) == 1:
        p, k, lam = params.p, params.k[pattern[0]], params.lam[pattern[0]]
        peak = k * lam * ((k - 2) / (k - 1)) ** (0.5 * (k - 2)) / p
        extra = [peak, delta_max]
        if 0.5 / math.sqrt(2 * p) < deltas[0]:
            extra.append(0.5 / math.sqrt(2 * p))
        deltas = np.unique(np.concatenate([deltas, extra]))
    resids = _pattern_residual(params, pattern, deltas)[2]

    r0, r1 = resids[:-1], resids[1:]
    hits = np.flatnonzero(~np.isnan(r0) & ~np.isnan(r1) & ((r0 == 0.0) | (r0 * r1 < 0.0)))
    roots: list[float] = []
    for j in hits.tolist():
        if resids[j] == 0.0:
            roots.append(float(deltas[j]))
            continue
        a, b = float(deltas[j]), float(deltas[j + 1])
        fa = float(resids[j])
        for _ in range(100):
            c = 0.5 * (a + b)
            fc = _pattern_residual(params, pattern, c)[2]
            if fc == 0.0 or (b - a) < 1e-15:
                a = b = c
                break
            if fa * fc < 0.0:
                b = c
            else:
                a, fa = c, fc
        roots.append(0.5 * (a + b))
    if resids[-1] == 0.0:
        roots.append(float(deltas[-1]))

    return [tuple(_pattern_residual(params, pattern, d)[0]) for d in roots]


def g_ab(a: float, b: float, x: float, p: int = 3) -> float:
    """Narrow-branch profile exponent as a function of the scaled shift x."""
    if not 0.0 < a < 1.0:
        raise ValueError(f"a must be in (0, 1), got {a}")
    if b < 1.0:
        raise ValueError(f"b must be >= 1, got {b}")
    return 0.5 * math.log1p(-a) + 0.5 * math.log(p - 1) + ((p - 1) / (p - 2) - b / a) * x * x


def f_ab(a: float, b: float, x: float) -> float:
    """Wide-branch profile exponent as a function of the scaled shift x."""
    if not 0.0 < a < 1.0:
        raise ValueError(f"a must be in (0, 1), got {a}")
    if b < 1.0:
        raise ValueError(f"b must be >= 1, got {b}")
    return (
        0.5 * math.log1p(-a)
        - (2 * b / a) * x * x
        + x * x
        + x * math.sqrt(1 + x * x)
        + math.asinh(x)
    )


def appendix_diagnostics(a: float, b: float, p: int = 3) -> dict[str, float]:
    """Stationary structure of the two profile exponents g_ab and f_ab.

    Returns x_star (the nonnegative zero of g_ab, NaN when none exists),
    x_max (the unique maximizer of f_ab) and value_at_max (its maximum,
    which is <= 0 with equality exactly at b = 1).
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"a must be in (0, 1), got {a}")
    if b < 1.0:
        raise ValueError(f"b must be >= 1, got {b}")
    den = (p - 1) / (p - 2) - b / a
    num = -0.5 * (math.log1p(-a) + math.log(p - 1))
    if den != 0.0 and num / den >= 0.0:
        x_star = math.sqrt(num / den)
    else:
        x_star = math.nan
    x_max = a / (2 * math.sqrt(b * (b - a)))
    value_at_max = 0.5 * math.log(b * (1 - a) / (b - a))
    return {"x_star": x_star, "x_max": x_max, "value_at_max": value_at_max}
