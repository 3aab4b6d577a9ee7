"""Closed forms for the annealed complexity of spiked spherical p-spin landscapes.

Model: an isotropic Gaussian polynomial of degree p on the sphere of radius
sqrt(N) in R^N, plus r deterministic terms lambda_i * <sigma, u_i>^{k_i} with
orthonormal directions u_i.  At exponential scale the expected number of
critical points with overlap profile m and value near x grows like
exp{N * sigma_tot_joint(m, x)}; this module evaluates that exponent and its
projections, boundaries, and zero sets in closed form.

Conventions used throughout the package:
    overlaps m_i = <sigma, u_i> / sqrt(N), alpha(m) = sum_i m_i^2,
    the one domain is the open ball 0 < alpha < 1, signed coordinates
    included (off-domain exponents are -inf);
    GOE matrices are normalized so the bulk spectrum converges to [-2, 2].

Broadcasting: every function of an overlap point takes one point of shape
(r,) and returns scalars, or a stack of shape (N, r) and returns arrays over
its N points, through one body.  One point runs that body on Python floats
and never imports numpy; numpy is imported by the first stack, inside the
array branches of the few helpers that tell the two apart (_coords, _select,
_sqrt, _divide, _libm).  s_func, y_shift, t_func and sigma_tot_joint also
take a value x: a float or any array for one point, for a stack an array
whose leading axis runs over its points.  edge_area and phi_star take floats
or arrays.  +, -, *, / and sqrt are IEEE on floats and arrays alike, and
powers, logarithms and asinh go through the C library one float at a time
(_libm), so a stack has the bits of its points one by one, except for the
sign and payload of a NaN, made by an overflow (inf - inf) or carried
from a NaN input, which can differ between a stack and its points.  No NaN
reaches an artifact: the CLI refuses a NaN value with exit code 2, or
writes JSON null.  The coordinate powers of a stack are taken once per
distinct coordinate value (_by_value), which on a tensor grid is once per
tick.
"""
from __future__ import annotations

import itertools
import math
import struct
from enum import IntEnum
from types import EllipsisType
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import _LAZY

if TYPE_CHECKING:
    import numpy as np

__all__ = [name for name, home in _LAZY.items() if home == "core"]

NEG_INF = float("-inf")
# Rows of a stack that the bodies with wide per-row arrays take in one slice:
# sigma_max_projected's candidate arrays, (rows, r + 1) and wider, cost about
# 1.3 KB a row at r = 2 and 2.2 KB at r = 4 (peak RSS of a 300 x 300 grid in
# one pass), and a gamma1 grid's perturbation matrices, (rows, r, r), about
# 0.15 KB a row at r = 4, so a slice holds them to about 10 MB.
_SLICE = 4096


class ModelParams:
    """Landscape parameters: degree p, rank r, spike degrees k, strengths lam.

    lam must be finite and sorted in non-increasing order; every k_i >= 3
    and p >= 3.  Immutable, with k stored as ints and lam as floats; equal
    fields give equal, hash-equal parameters.  A plain slotted class rather
    than a dataclass, so that importing core loads neither dataclasses nor
    inspect; every way of building one, copies and unpickling included, runs
    the checks of __init__.
    """

    __slots__ = ("p", "r", "k", "lam")

    def __init__(self, p: int, r: int, k: Sequence[int], lam: Sequence[float]) -> None:
        k = tuple(int(v) for v in k)
        lam = tuple(float(v) for v in lam)
        if p < 3:
            raise ValueError(f"p must be >= 3, got {p}")
        if r < 1:
            raise ValueError(f"r must be >= 1, got {r}")
        if len(k) != r or len(lam) != r:
            raise ValueError("k and lam must each have length r")
        if any(ki < 3 for ki in k):
            raise ValueError(f"every spike degree must be >= 3, got {k}")
        # the negated test also rejects NaN, for which every comparison is false
        if any(not 0 <= li < math.inf for li in lam):
            raise ValueError(f"spike strengths must be finite and >= 0, got {lam}")
        if any(lam[i] < lam[i + 1] for i in range(r - 1)):
            raise ValueError(f"lam must be non-increasing, got {lam}")
        for name, value in zip(self.__slots__, (p, r, k, lam)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: ModelParams is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: ModelParams is immutable")

    def _astuple(self) -> tuple:
        return (self.p, self.r, self.k, self.lam)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return f"ModelParams(p={self.p!r}, r={self.r!r}, k={self.k!r}, lam={self.lam!r})"

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __init__ and its checks
        return ModelParams, self._astuple()


class RegimeLabel(IntEnum):
    """Classification of an overlap point by the sign structure of the exponent.

    OUT_OF_DOMAIN means only that alpha = sum_i m_i^2 is not in (0, 1);
    every point of the open ball, signed coordinates included, gets one of
    the other four labels.  Integer values double as the numeric codes
    written to grid CSV files.
    """

    OUT_OF_DOMAIN = 0
    POSITIVE = 1
    ZERO_BOUNDARY = 2
    NEGATIVE = 3
    SUBEXPONENTIAL_ZERO_LOCUS = 4


class AuxStatistics(NamedTuple):
    """Summaries of an overlap point that drive every phase boundary.

    tau_star is NaN when its defining ratio is negative or degenerate; beta is
    NaN when tau vanishes; eta is +inf when some active strength is zero and
    eta_c is NaN for mixed spike degrees.  For a stack of points the first
    five fields are arrays; the thresholds tau_c and eta_c stay floats.  A
    NamedTuple, like _Profile: _asdict() gives its fields by name.
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


def _scalar(values):
    """A Python float for a scalar result, else the array."""
    return values if getattr(values, "ndim", 0) else float(values)


def _any(cond) -> bool:
    """Whether cond holds anywhere, for a bool or a boolean array."""
    return bool(cond.any() if getattr(cond, "ndim", 0) else cond)


def _select(cond, a, b):
    """np.where(cond, a, b), as plain Python on three scalars, so that a
    one-point call runs on Python floats."""
    if getattr(cond, "ndim", 0) or getattr(a, "ndim", 0) or getattr(b, "ndim", 0):
        import numpy as np

        return np.where(cond, a, b)
    return a if cond else b


def _sqrt(x):
    """The square root of a float, or of each entry of an array."""
    if getattr(x, "ndim", 0):
        import numpy as np

        return np.sqrt(x)
    return math.sqrt(x)


def _divide(num, den):
    """num / den with IEEE semantics on floats as on arrays, where Python
    floats would raise at a zero den: +-inf, NaN/0 is the NaN num, and 0/0
    is the CPU's default NaN, which inf - inf gives too."""
    if getattr(num, "ndim", 0) or getattr(den, "ndim", 0):
        import numpy as np

        with np.errstate(divide="ignore", invalid="ignore"):
            return num / den
    if den != 0.0:
        return num / den
    if num != num:
        return num
    if num == 0.0:
        return math.inf - math.inf
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


def edge_area(x: float | np.ndarray) -> float | np.ndarray:
    """Integral of sqrt(y^2 - 4) from 2 to x, for x >= 2.

    This is the area that controls the exponential cost of pulling one
    eigenvalue out of the bulk to position x.  +inf where x * x overflows.
    """
    if _any(x < 2):
        raise ValueError(f"edge_area needs x >= 2, got {x}")
    huge = x * x == math.inf
    s = _sqrt(_select(huge, 4.0, x * x) - 4)
    return _scalar(_select(huge, math.inf, 0.5 * x * s - 2 * _libm(math.log, 0.5 * (x + s))))


def phi_star(x: float | np.ndarray) -> float | np.ndarray:
    """Limiting (1/N) log E|det(W - x)| for a bulk-normalized GOE matrix W.

    Equals the semicircle log-potential integral log|y - x| rho_sc(dy): inside
    the bulk only the quadratic part survives; outside, the area term enters.
    """
    v = 0.25 * x * x - 0.5
    ax = abs(x)
    out = ax > 2
    return _scalar(_select(out, v - 0.5 * edge_area(_select(out, ax, 2.0)), v))


def _libm(fn, x, *args):
    """fn(x_i, *args) for every entry x_i of the array x, through Python floats.

    numpy's SIMD pow, log, log1p and asinh differ from the C library in the
    last ulps on some inputs, while sqrt and plain arithmetic agree; routing
    those four through here keeps every array result bit-equal to the same
    formula evaluated on one Python float at a time; a scalar x gives a float.
    """
    if not getattr(x, "ndim", 0):
        return _saturating(fn, float(x), *args)
    import numpy as np

    x = np.asarray(x, dtype=float)
    columns = [itertools.repeat(a) for a in args]
    try:
        values = list(map(fn, x.ravel().tolist(), *columns))
    except OverflowError:
        values = [_saturating(fn, v, *args) for v in x.ravel().tolist()]
    return np.array(values, dtype=float).reshape(x.shape)


def _saturating(fn, x: float, *args) -> float:
    """fn(x, *args), or the +-inf that the C library returns where Python
    raises OverflowError.  Only pow overflows among the four, and its
    infinity is negative for a negative base and an odd integer exponent."""
    try:
        return fn(x, *args)
    except OverflowError:
        return -math.inf if x < 0 and args[0] % 2 == 1 else math.inf


def _distinct(column: np.ndarray) -> tuple[np.ndarray, np.ndarray | EllipsisType]:
    """The bitwise-distinct values of a 1-D float array and the index that
    scatters them back: f(values)[index] is f(column) for any f that acts
    entry by entry, paying f once per value.  Keyed on the int64 view, since
    a float unique merges -0.0 with 0.0, and pow(-0.0, 3) is -0.0.  A column
    of one entry comes back as it is, with the index ..., so a one-point
    stack pays no sort.
    """
    if len(column) < 2:
        return column, ...
    import numpy as np

    keys, index = np.unique(column.view(np.int64), return_inverse=True)
    return keys.view(float), index


def _by_value(column, *fns) -> list:
    """f(column) for each entrywise f in fns: on a float directly, on an
    array once per distinct value (_distinct), scattered back."""
    if not getattr(column, "ndim", 0):
        return [f(column) for f in fns]
    values, back = _distinct(column)
    return [f(values)[back] for f in fns]


def _points(params: ModelParams, m: Sequence[float] | np.ndarray) -> np.ndarray:
    """Overlap points as a float array: one point of shape (r,) or a stack
    of shape (N, r), as given."""
    import numpy as np

    pts = np.asarray(m, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != params.r:
        raise ValueError(
            f"overlap points have shape {pts.shape}, expected (r,) or (N, r) with r = {params.r}"
        )
    return pts


def _row(values) -> list[float] | None:
    """The entries of one row, a sequence of numbers or a 1-D array, as
    Python floats, read without numpy; None for anything else, such as a
    stack."""
    if getattr(values, "ndim", 1) != 1:
        return None
    try:
        return [float(v) for v in values]
    except TypeError:  # a stack given as nested sequences
        return None


def _coords(params: ModelParams, m: Sequence[float] | np.ndarray) -> list[float] | np.ndarray:
    """The r coordinates of m, each a Python float for one point of shape
    (r,), or a column of an (N, r) float array for a stack.  One point is
    read without numpy."""
    point = _row(m)
    if point is not None and len(point) == params.r:
        return point
    return _points(params, m).T


class _Profile(NamedTuple):
    """Shared profile sums of an overlap point, or of each point of a stack:
      alpha     = sum_i m_i^2,
      diag_sum  = (1/p) sum_i lam_i^2 k_i^2 m_i^{2k_i-2} (1 - m_i^2),
      cross_sum = (2/p) sum_{i<j} lam_i lam_j k_i k_j m_i^{k_i} m_j^{k_j},
      tau       = (1/p) sum_i lam_i k_i m_i^{k_i},
      center    = sum_i lam_i m_i^{k_i},
      shift     = sum_i lam_i (1 - k_i/p) m_i^{k_i},
      inside    = whether 0 < alpha < 1, the one overlap domain.
    """

    alpha: float | np.ndarray
    diag_sum: float | np.ndarray
    cross_sum: float | np.ndarray
    tau: float | np.ndarray
    center: float | np.ndarray
    shift: float | np.ndarray
    inside: bool | np.ndarray


def _profile_parts(params: ModelParams, m: Sequence[float] | np.ndarray) -> _Profile:
    """The _Profile of m: floats and a bool for one point, arrays of length
    N for a stack."""
    p = params.p
    alpha = diag_sum = cross_sum = tau = center = 0.0
    powers = []
    for lam_i, k_i, m_i in zip(params.lam, params.k, _coords(params, m)):
        mi2 = m_i * m_i
        alpha = alpha + mi2
        mk, diag = _by_value(
            m_i, lambda v: _libm(pow, v, k_i), lambda v: _libm(pow, v, 2 * k_i - 2)
        )
        powers.append(lam_i * k_i * mk)
        diag_sum = diag_sum + lam_i * lam_i * k_i * k_i * diag * (1 - mi2)
        tau = tau + lam_i * k_i * mk
        center = center + lam_i * mk
    diag_sum = diag_sum / p
    tau = tau / p
    if params.r == 1 and getattr(alpha, "ndim", 0):  # no pair: a zero per point
        import numpy as np

        cross_sum = np.zeros(len(alpha))
    for a, b in itertools.combinations(powers, 2):
        cross_sum = cross_sum + a * b
    cross_sum = cross_sum * (2.0 / p)
    shift = center - tau
    inside = (0.0 < alpha) & (alpha < 1.0)
    return _Profile(alpha, diag_sum, cross_sum, tau, center, shift, inside)


def _along(x, *values) -> tuple:
    """Per-point values, arrays (N,) for a stack, shaped to broadcast against
    x, whose leading axis runs over the N points."""
    extra = (1,) * (getattr(x, "ndim", 0) - 1)
    if not extra:
        return values
    return tuple(v.reshape(v.shape + extra) if getattr(v, "ndim", 0) == 1 else v for v in values)


def _joint(params: ModelParams, prof: _Profile, x, total: bool = True):
    """s_func at the points of the _Profile prof and values x, and with
    total also sigma_tot_joint and t_func there."""
    alpha, diag_sum, cross_sum, tau, center, shift, within = _along(x, *prof)
    p = params.p
    base = (
        0.5 * (math.log(p - 1) + 1)
        + 0.5 * _libm(math.log1p, -_select(within, alpha, 0.0))
        - diag_sum
        + cross_sum
    )
    d = x - center
    s = _select(within, base - d * d, NEG_INF)
    if not total:
        return s
    y = x - shift
    e, t = y - tau, math.sqrt(2 * p / (p - 1)) * y
    return s, _select(within, base - e * e + phi_star(t), NEG_INF), t


def s_func(params: ModelParams, m: Sequence[float] | np.ndarray, x) -> float | np.ndarray:
    """Density exponent of critical points at overlap m and value x, before
    the Hessian-determinant contribution.  -inf when alpha(m) is not in (0, 1).
    """
    return _scalar(_joint(params, _profile_parts(params, m), x, total=False))


def y_shift(params: ModelParams, m: Sequence[float] | np.ndarray, x) -> float | np.ndarray:
    """Recentered value coordinate: x minus the deterministic part not seen by
    the gradient trace."""
    return _scalar(x - _along(x, _profile_parts(params, m).shift)[0])


def t_func(params: ModelParams, m: Sequence[float] | np.ndarray, x) -> float | np.ndarray:
    """Hessian shift coordinate: the recentered value scaled to the GOE edge units."""
    return math.sqrt(2 * params.p / (params.p - 1)) * y_shift(params, m, x)


def sigma_tot_joint(params: ModelParams, m: Sequence[float] | np.ndarray, x) -> float | np.ndarray:
    """Exponential growth rate of the expected number of critical points with
    overlap profile m and value near x.  -inf off-domain.
    """
    return _scalar(_joint(params, _profile_parts(params, m), x)[1])


def sigma_tot_projected(
    params: ModelParams, m: Sequence[float] | np.ndarray
) -> float | np.ndarray:
    """sup over x of sigma_tot_joint(m, x), in closed form.

    Two branches, split by |tau| against tau_critical(p): below the threshold
    the optimal Hessian shift stays outside the bulk (narrow branch), at or
    above it the optimizer sits against the bulk edge (wide branch).  tau
    enters only through |tau| because phi_star is even, so the closed form
    holds on the whole overlap ball, signed coordinates included.  A float
    for one point of shape (r,), an array of length N for a stack (N, r).
    """
    return _sigma_tot(params, _profile_parts(params, m))


def _sigma_tot(params: ModelParams, prof: _Profile) -> float | np.ndarray:
    """sigma_tot_projected from a _Profile: a float for one point, an array
    over the points of a stack."""
    p = params.p
    abs_tau = abs(prof.tau)
    a = _select(prof.inside, prof.alpha, 0.0)
    base = 0.5 * _libm(math.log1p, -a) - prof.diag_sum + prof.cross_sum
    narrow = 0.5 * math.log(p - 1) + base + (p / (p - 2)) * prof.tau * prof.tau
    u = math.sqrt(0.5 * p) * abs_tau
    wide = base - u * u + u * _sqrt(1 + u * u) + _libm(math.asinh, u)
    value = _select(abs_tau < tau_critical(p), narrow, wide)
    return _select(prof.inside, value, NEG_INF)


def aux_statistics(params: ModelParams, m: Sequence[float] | np.ndarray) -> AuxStatistics:
    """All statistics of an overlap point, or of each point of a stack, used
    by the phase analysis."""
    p = params.p
    prof = _profile_parts(params, m)
    alpha, tau = prof.alpha, prof.tau
    sq = eta = 0.0
    for lam_i, k_i, m_i in zip(params.lam, params.k, _coords(params, m)):
        (slope,) = _by_value(m_i, lambda v: _libm(pow, lam_i * k_i * _libm(pow, v, k_i - 1), 2))
        sq = sq + slope
        # the weight can overflow to inf; a point with m_i = 0 takes none of it
        weight = _saturating(pow, lam_i, -2.0 / (k_i - 2)) if lam_i > 0 else math.inf
        eta = eta + _select(m_i != 0.0, weight, 0.0)
    sq = sq / (p * p)

    beta = _select(tau != 0.0, _divide(alpha * sq, tau * tau), math.nan)
    inside = prof.inside & (beta == beta)
    a = _select(inside, alpha, 0.5)
    den = (p - 1) / (p - 2) - beta / a
    num = -0.5 * _libm(math.log, (1 - a) * (p - 1))
    ratio = _divide(num, den)
    valid = inside & (den != 0.0) & (ratio >= 0.0)
    tau_star = _select(valid, _sqrt(_select(valid, ratio, 0.0)) / math.sqrt(p), math.nan)

    if all(k_i == params.k[0] for k_i in params.k):
        eta_c = eta_critical(p, params.k[0])
    else:
        eta_c = math.nan

    return AuxStatistics(
        tau=tau,
        alpha=alpha,
        beta=beta,
        eta=eta,
        tau_star=tau_star,
        tau_c=tau_critical(p),
        eta_c=eta_c,
    )


def _zero_conditions_hold(
    params: ModelParams,
    m: Sequence[float] | np.ndarray,
    tol: float,
    prof: _Profile | None = None,
) -> bool | np.ndarray:
    """Check the two exact-zero conditions of the wide branch at tolerance tol.

    (a) the signed values lam_i k_i m_i^{k_i-2} / p agree across nonzero
        coordinates;
    (b) the effective shift |tau| matches alpha / (2 sqrt(1 - alpha)) in
        edge units.
    prof is the _Profile of m when the caller has it already.  A bool for
    one point, a boolean array for a stack.
    """
    p = params.p
    if prof is None:
        prof = _profile_parts(params, m)
    hi, lo = -math.inf, math.inf
    for lam_i, k_i, m_i in zip(params.lam, params.k, _coords(params, m)):
        (power,) = _by_value(m_i, lambda v: _libm(pow, v, k_i - 2))
        d = (k_i / p) * lam_i * power
        nonzero = m_i != 0.0
        hi = _select(nonzero & (d > hi), d, hi)
        lo = _select(nonzero & (d < lo), d, lo)
    a = _select(prof.inside, prof.alpha, 0.0)
    resid = math.sqrt(0.5 * p) * abs(prof.tau) - 0.5 * a / _sqrt(1 - a)
    return prof.inside & (lo <= hi) & (hi - lo <= tol) & (abs(resid) <= tol)


def classify_regime(
    params: ModelParams, m: Sequence[float] | np.ndarray, tol: float = 1e-6
) -> RegimeLabel | np.ndarray:
    """Label an overlap point by the sign structure of the projected exponent.

    The domain is the open ball: points with alpha outside (0, 1) are
    OUT_OF_DOMAIN, and nothing else is.  A point on the wide branch
    (|tau| >= tau_c - tol) satisfying the exact-zero conditions within tol
    is SUBEXPONENTIAL_ZERO_LOCUS; otherwise the sign of the projected
    exponent decides, with |value| <= tol reported as ZERO_BOUNDARY.  Like
    sigma_tot_projected, the label depends on tau only through |tau|, so
    when every spike has the same degree, m and -m get the same label.  A
    RegimeLabel for one point, an integer array of label codes for a stack.
    tol must be >= 0: a negative or NaN tol leaves the last two labels
    unreachable, and raises ValueError.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    code = _sigma_tot_and_code(params, m, tol)[1]
    return code if getattr(code, "ndim", 0) else RegimeLabel(code)


def _sigma_tot_and_code(params: ModelParams, m: Sequence[float] | np.ndarray, tol: float = 1e-6):
    """sigma_tot_projected of m and its regime code, from one _Profile: a
    float and an int for one point, arrays over the points of a stack.
    classify_regime labels the code; tol as there, unchecked."""
    prof = _profile_parts(params, m)
    value = _sigma_tot(params, prof)
    code = _select(value > 0, int(RegimeLabel.POSITIVE), int(RegimeLabel.NEGATIVE))
    code = _select(abs(value) <= tol, int(RegimeLabel.ZERO_BOUNDARY), code)
    wide = prof.inside & (abs(prof.tau) >= tau_critical(params.p) - tol)
    if _any(wide):
        held = wide & _zero_conditions_hold(params, m, tol, prof)
        code = _select(held, int(RegimeLabel.SUBEXPONENTIAL_ZERO_LOCUS), code)
    return value, _select(prof.inside, code, int(RegimeLabel.OUT_OF_DOMAIN))


def _first_failing(holds, lo: float, hi: float) -> float:
    """The first float in (lo, hi] at which holds fails, for 0 <= lo < hi and
    a predicate that holds on (lo, x) and fails on [x, hi]; hi is taken to
    fail and never evaluated.  Non-negative doubles are ordered like their
    int64 bit patterns, so bisecting those takes at most 64 steps at any
    scale, from 0 to +inf.
    """
    a, b = struct.unpack("<2q", struct.pack("<2d", lo, hi))
    while b - a > 1:
        mid = (a + b) // 2
        if holds(struct.unpack("<d", struct.pack("<q", mid))[0]):
            a = mid
        else:
            b = mid
    return struct.unpack("<d", struct.pack("<q", b))[0]


def _pattern_residual(params: ModelParams, pattern: tuple[int, ...], delta: float):
    """Overlap vector and zero-condition residual for a common slope delta.

    Coordinates in the pattern carry m_i = (p delta / (k_i lam_i))^{1/(k_i-2)},
    the unique profile satisfying condition (a); there tau = delta alpha, so
    the residual of condition (b) is sqrt(2p) delta sqrt(1 - alpha) - 1.
    Returns m as a list and the residual, NaN when alpha >= 1 (slopes far
    past alpha = 1 overflow m to inf).
    """
    p = params.p
    m = [0.0] * params.r
    alpha = 0.0
    for i in pattern:
        k_i, lam_i = params.k[i], params.lam[i]
        m[i] = _saturating(pow, p * delta / (k_i * lam_i), 1.0 / (k_i - 2))
        alpha = alpha + m[i] * m[i]
    if alpha >= 1.0:
        return m, math.nan
    return m, math.sqrt(2 * p) * delta * math.sqrt(1 - alpha) - 1


def zero_locus_solve(
    params: ModelParams, pattern: Sequence[int] | None = None
) -> list[tuple[float, ...]]:
    """All overlap profiles solving the exact-zero conditions on a support pattern.

    pattern lists the coordinates allowed to be nonzero (default: all of them),
    each at most once; a repeated index raises ValueError.  Coordinates off
    the pattern are pinned to zero.  The list is ordered by increasing slope
    (hence increasing overlaps) and holds 0, 1 or 2 profiles.

    On the pattern alpha = sum_i m_i^2 grows with the common slope delta,
    and the residual sqrt(2p) delta sqrt(1 - alpha) - 1 is -1 at delta = 0
    and at alpha = 1.  The log-derivative of delta^2 (1 - alpha) is
    (2 / delta) (1 - sum_i (m_i^2 / (k_i - 2)) / (1 - alpha)), and that ratio
    grows with delta; so for every pattern and set of degrees the residual
    rises to one peak, where sum_i w_i m_i^2 = 1 with w_i = (k_i-1)/(k_i-2),
    and falls after it.  There are two roots, one per monotone side, when the
    peak residual is positive, one double root when it is 0, and none when it
    is negative.  Each root is the first float at which the residual's sign
    has flipped, found by bisection on the bit patterns of the slopes; a
    large root that rounds into alpha = 1 (a huge spike) is dropped.

    The profiles returned lie in the orthant.  On the whole ball the signed
    solutions on the pattern are exactly their sign images that keep
    condition (a): each even-k_i coordinate may take either sign, the odd-k_i
    coordinates stay positive, and the odd-k_i coordinates may all be negated
    together only when the pattern has no even-k_i coordinate (the common
    slope then turns negative).  Condition (b) holds on every such image,
    since tau is the slope times alpha and enters only through |tau|.
    """
    if pattern is None:
        pattern = tuple(range(params.r))
    pattern = tuple(sorted(int(i) for i in pattern))
    if not pattern:
        return []
    if pattern[0] < 0 or pattern[-1] >= params.r:
        raise ValueError(f"pattern indices must lie in [0, {params.r - 1}]")
    if len(set(pattern)) < len(pattern):
        raise ValueError(f"pattern repeats an index: {list(pattern)}")
    if any(params.lam[i] == 0.0 for i in pattern):
        return []

    def resid(delta: float) -> float:
        return _pattern_residual(params, pattern, delta)[1]

    def before_peak(delta: float) -> bool:
        m = _pattern_residual(params, pattern, delta)[0]
        return sum((params.k[i] - 1) / (params.k[i] - 2) * m[i] * m[i] for i in pattern) < 1.0

    peak = _first_failing(before_peak, 0.0, math.inf)
    top = resid(peak)
    if not top >= 0.0:
        return []
    roots = [_first_failing(lambda d: resid(d) < 0.0, 0.0, peak)]
    if top > 0.0:
        right = _first_failing(lambda d: resid(d) > 0.0, peak, math.inf)
        if not math.isnan(resid(right)):
            roots.append(right)
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
