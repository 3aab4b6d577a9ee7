"""Finite-N cross-examination of the landscape: build actual random polynomials
on small spheres, count their critical points directly, and compare against
the exact expected-count integral.

The random part is a symmetrized Gaussian p-tensor scaled so that the field
has covariance <sigma, sigma'>^p / (2n) on the unit sphere of R^n; spikes sit
on the first r coordinate axes.  Every evaluation of a landscape, its
values, gradients or Hessians on a stack of points, goes through one body,
_derivative; a landscape whose gradient leaves the float range is refused
with ValueError.  At n = 2 the critical points are the zeros of a
trigonometric polynomial, found exactly as the unit-circle roots of its
companion matrix; a count takes its landscapes in array passes, each with
one FFT and one batched eigvals.  For n >= 3 a budgeted multistart
Riemannian Newton search is best-effort.  It advances one stack of starts in
lockstep, refilled from the pending starts of a bounded group of landscapes
as rows finish, and each row takes exactly the steps a search from that
start alone would take.  A count tallies each pass's arrays of points;
CriticalPoints are built only for find_critical_points.  The expected-count
integral is a Gauss-Legendre rule, split at the kinks of |det H| and
checked by refinement.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _LAZY
from .core import ModelParams, _libm, s_func, t_func
from .rmt import GOESpec, MCEstimate, _dot, _draws
from .spikes import perturbation_factors

__all__ = [name for name, home in _LAZY.items() if home == "kacrice"]

_LETTERS = "abcdefgh"
_OVERFLOW = "the landscape's gradient leaves the float range"
# Doubles in the largest array of one pass (of the Gauss rule over draws,
# value nodes and eigenvalues; of the Newton stack over starts and step
# sizes); passes this small keep numpy's temporaries out of fresh
# page-faulting allocations.
_CHUNK = 1 << 14


def _seed_tuple(seed) -> tuple[int, ...]:
    if isinstance(seed, (tuple, list)):
        return tuple(int(v) for v in seed)
    return (int(seed),)


@dataclass(frozen=True, eq=False)
class SpikedPolynomial:
    """A sampled landscape on the unit sphere of R^n.

    tensor is the symmetrized Gaussian coupling already scaled by 1/sqrt(2n);
    spike i acts along coordinate axis i with strength lam_i and degree k_i.
    """

    params: ModelParams
    n: int
    seed: tuple[int, ...]
    tensor: np.ndarray


def build_polynomial(params: ModelParams, n: int, seed) -> SpikedPolynomial:
    """Sample the Gaussian coupling tensor for a landscape in dimension n."""
    if params.r > n:
        raise ValueError(f"rank r = {params.r} exceeds dimension n = {n}")
    key = _seed_tuple(seed)
    rng = np.random.default_rng(key)
    p = params.p
    raw = rng.normal(size=(n,) * p)
    sym = np.zeros_like(raw)
    for perm in itertools.permutations(range(p)):
        sym += raw.transpose(perm)
    sym /= math.factorial(p) * math.sqrt(2.0 * n)
    return SpikedPolynomial(params=params, n=n, seed=key, tensor=sym)


@dataclass(frozen=True)
class CriticalPoint:
    """One critical point: location, value, spike overlaps, Morse data.

    index counts strictly negative directions of the tangent Hessian;
    degenerate marks eigenvalues inside the numerical zero band, and such
    points are excluded from index-resolved counts downstream.
    ill_conditioned marks a circle root whose companion eigenvalue sat off
    |z| = 1 by more than 1e-10, or whose polished gradient residual exceeds
    the tolerance.
    """

    position: tuple[float, ...]
    value: float
    overlaps: tuple[float, ...]
    index: int
    residual: float
    degenerate: bool
    ill_conditioned: bool = False


# ---------------------------------------------------------------------------
# evaluation on stacks of points

def _derivative(polys, owner: np.ndarray, sigma: np.ndarray, order: int) -> np.ndarray:
    """The order-th derivatives at the rows of sigma (N, n), row j on
    polys[owner[j]]: values (N,) at order 0, Euclidean gradients (N, n) at
    1 and Hessians (N, n, n) at 2.

    Each landscape's rows are contiguous, so each tensor enters one einsum
    per run of its rows and is never copied per row; its contraction is
    scaled by perm(p, order).  Spike i with lam_i != 0 adds
    lam_i k_i ... (k_i - order + 1) sigma_i^(k_i - order) on axis i, the
    power through libm and the coefficient multiplied left to right.
    """
    if not len(owner):
        return np.zeros((0,) + sigma.shape[1:] * order)
    params = polys[0].params
    p = params.p
    # contract the last p - order axes, leaving (...,) + (n,) * order
    points = ",".join("..." + c for c in _LETTERS[order:p])
    sub = f"{_LETTERS[:p]},{points}->...{_LETTERS[:order]}"
    cuts = (np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist()
    d = math.perm(p, order) * np.concatenate([
        np.einsum(sub, polys[owner[a]].tensor, *([sigma[a:b]] * (p - order)))
        for a, b in zip([0, *cuts], [*cuts, len(owner)])
    ])
    for i, (lam_i, k_i) in enumerate(zip(params.lam, params.k)):
        if lam_i:
            # lam_i * k_i * (k_i - 1) * ..., rounded after each factor
            coef = math.prod(range(k_i, k_i - order, -1), start=lam_i)
            d[(slice(None),) + (i,) * order] += coef * _libm(pow, sigma[:, i], k_i - order)
    return d


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(a, a))


def _projected_gradient(polys, owner: np.ndarray, sigma: np.ndarray):
    """Tangent projections (N, n) of the gradients at the rows of sigma
    (N, n), row j on polys[owner[j]], their radial parts (N,) and their
    norms (N,), the residuals.  A residual that leaves the float range (a
    spike of about 1e154 or more) raises ValueError: as inf it would pass
    no tolerance, and no point would count.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g = _derivative(polys, owner, sigma, 1)
        radial = _dot(sigma, g)
        g_tan = g - radial[:, None] * sigma
        residual = _norm(g_tan)
    # NaN fails the comparison too
    if not np.all(residual < math.inf):
        raise ValueError(_OVERFLOW)
    return g_tan, radial, residual


def _tangent_hessian(polys, owner: np.ndarray, sigma: np.ndarray, radial: np.ndarray):
    """Tangent Hessians (N, n-1, n-1) in the tangent bases (N, n, n-1) at the
    rows of sigma.

    The bases stay views into the QR factors: matmul picks its kernel by
    memory layout, and this layout keeps each row's products bit-equal to
    the one-point computation.
    """
    count, n = sigma.shape
    h = _derivative(polys, owner, sigma, 2)
    frame = np.concatenate([sigma[:, :, None], np.broadcast_to(np.eye(n), (count, n, n))], axis=2)
    b = np.linalg.qr(frame)[0][:, :, 1:]
    return b.transpose(0, 2, 1) @ h @ b - radial[:, None, None] * np.eye(n - 1), b


def _critical_points(polys, owner: np.ndarray, sigma: np.ndarray, ill=None):
    """One pass: the rows of sigma (N, n), row j on polys[owner[j]], classified
    as the arrays (owner, position = sigma, value, index, residual,
    degenerate, ill) over the rows.

    Every row of the call goes through one gradient, one batched QR, one
    batched eigvalsh and one value pass.  The Morse index counts
    tangent-Hessian eigenvalues below a zero band of 1e-8 times the spectral
    norm; an eigenvalue inside the band marks the point degenerate.  At
    n = 2 the tangent Hessian is 1 x 1, its one eigenvalue sets the band,
    and so only an eigenvalue of 0, or of magnitude at most 1e-20 (the
    band's floor), marks a point degenerate.  ill, when given, flags rows
    (N,) whose roots were ill-conditioned, and rows whose gradient residual
    exceeds _RESIDUAL_TOL are flagged with them.
    """
    _, radial, residual = _projected_gradient(polys, owner, sigma)
    ev = np.linalg.eigvalsh(_tangent_hessian(polys, owner, sigma, radial)[0])
    band = 1e-8 * np.maximum(np.max(np.abs(ev), axis=1), 1e-12)[:, None]
    degenerate = np.any(np.abs(ev) <= band, axis=1)
    index = np.sum(ev < -band, axis=1)
    ill = np.zeros(len(sigma), dtype=bool) if ill is None else ill | (residual > _RESIDUAL_TOL)
    return owner, sigma, _derivative(polys, owner, sigma, 0), index, residual, degenerate, ill


def _point_lists(found, landscapes: int, r: int) -> list[list[CriticalPoint]]:
    """A pass's CriticalPoints (with r overlaps), one list for each of its
    landscapes, each sorted by (value, position)."""
    points: list[list[CriticalPoint]] = [[] for _ in range(landscapes)]
    for j, row, value, i, res, deg, bad in zip(*(a.tolist() for a in found)):
        points[j].append(CriticalPoint(
            position=tuple(row),
            value=value,
            overlaps=tuple(row[:r]),
            index=i,
            residual=res,
            degenerate=deg,
            ill_conditioned=bad,
        ))
    for pts in points:
        pts.sort(key=lambda c: (c.value, c.position))
    return points


# ---------------------------------------------------------------------------
# exact roots on the circle (n = 2)

# Companion roots this close to |z| = 1 are taken as critical points; those
# off by more than _MODULUS_TOL are flagged ill-conditioned.
_MODULUS_BAND = 1e-6
_MODULUS_TOL = 1e-10
# Projected-gradient norm at which a point counts as critical: circle roots
# above it are flagged ill-conditioned, and Newton starts stop at it.
_RESIDUAL_TOL = 1e-10


def _circle_pass(degree: int) -> int:
    """Landscapes per pass at n = 2: the pass's largest array, the series of
    every root (at most 2 degree per landscape, each of 2 degree + 1 complex
    terms), holds at most _CHUNK doubles."""
    return max(1, _CHUNK // (4 * degree * (2 * degree + 1)))


def _circle_points(polys: Sequence[SpikedPolynomial]):
    """Every critical point of each landscape on the unit circle, in one pass.

    On the circle the derivative is a trigonometric polynomial
    g(phi) = sum_{|j| <= D} c_j e^{i j phi} of degree D = max(p, k_i).  Its
    coefficients come from 4D + 4 samples, taken for every landscape by one
    gradient pass and transformed by one FFT along the sample axis.  Its
    zeros are the unit-modulus roots of z^D g, a polynomial of degree 2D,
    found as np.roots finds them: the companion matrices of all landscapes
    go to one batched eigvals, and a landscape whose outermost coefficient
    is exactly 0 goes to np.roots alone.  Each angle is polished by one
    Newton step on its series, and all roots are classified together.
    """
    params = polys[0].params
    degree = max(params.p, *params.k)
    samples = 4 * degree + 4
    freq = np.arange(-degree, degree + 1)
    phi = 2.0 * math.pi * np.arange(samples) / samples
    circle = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    tangent = np.stack([-circle[:, 1], circle[:, 0]], axis=1)
    count = len(polys)
    at = np.tile(circle, (count, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        grad = _derivative(polys, np.repeat(np.arange(count), samples), at, 1)
        slope = _dot(grad, np.tile(tangent, (count, 1)))
        coef = np.fft.fft(slope.reshape(count, samples), axis=1)[:, freq] / samples
    # a spike of about 3e307 or more overflows the series
    if not np.all(np.isfinite(coef)):
        raise ValueError(_OVERFLOW)
    # descending powers of z^D g, as np.roots takes them
    desc = coef[:, ::-1]
    full = (desc[:, 0] != 0) & (desc[:, -1] != 0)
    companion = np.zeros((np.count_nonzero(full), 2 * degree, 2 * degree), dtype=complex)
    companion[:, 0] = -desc[full, 1:] / desc[full, :1]
    companion[:, 1:, :-1] = np.eye(2 * degree - 1)
    # padding zeros lie off the circle, as the zero roots np.roots appends do
    z = np.zeros((count, 2 * degree), dtype=complex)
    z[full] = np.linalg.eigvals(companion)
    for j in np.flatnonzero(~full).tolist():
        roots = np.roots(desc[j])
        z[j, :len(roots)] = roots
    off = np.abs(np.abs(z) - 1.0)
    on_circle = off <= _MODULUS_BAND
    owner = np.nonzero(on_circle)[0]
    angle = np.angle(z[on_circle])
    waves = coef[owner] * np.exp(1j * np.outer(angle, freq))
    angle -= waves.sum(axis=1).real / (waves @ (1j * freq)).real
    sigma = np.column_stack([_libm(math.cos, angle), _libm(math.sin, angle)])
    return _critical_points(polys, owner, sigma, off[on_circle] > _MODULUS_TOL)


# ---------------------------------------------------------------------------
# budgeted multistart Newton (n >= 3)

_DEDUP_RADIUS = 1e-6
_NEWTON_ITERATIONS = 80
_HALVINGS = 25


def _pass_rows(n: int) -> int:
    """Rows of the Newton stack: its largest array, the trial points of every
    step size, holds at most _CHUNK doubles."""
    return max(1, _CHUNK // (_HALVINGS * n))


def _search_group(n: int, budget: int) -> int:
    """Landscapes per multistart at n >= 3: classifying every start of the
    group, were all to converge apart, builds (rows, n, n + 1) QR frames of
    at most _CHUNK doubles, so a count's memory does not grow with trials."""
    return max(1, _CHUNK // (max(budget, 1) * n * (n + 1)))  # _multistart rejects budget < 1


def _solve(h: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """h x = rhs for a stack; rows whose h is singular take the least-squares x."""
    try:
        return np.linalg.solve(h, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        for j in range(len(h)):
            try:
                out[j] = np.linalg.solve(h[j], rhs[j])
            except np.linalg.LinAlgError:
                out[j] = np.linalg.lstsq(h[j], rhs[j], rcond=None)[0]
        return out


def _newton(polys, owner: np.ndarray, sigma: np.ndarray, tol: float):
    """Riemannian Newton from every row of sigma (N, n), row j on landscape
    polys[owner[j]]; returns the final points and their projected gradient
    norms.

    Each row follows the per-start rule: stop once the residual is <= tol;
    otherwise take the Newton step (least squares on a singular Hessian),
    clipped to norm 1, and halve it up to 25 times until the residual drops,
    with a 0.1 gradient step if none does; at most 80 iterations.  The rows
    advance in lockstep in one stack of at most _pass_rows(n) rows.  A row
    leaves it when it converges or has taken 80 iterations, and the pending
    rows refill it in row order, so each landscape's rows stay contiguous.
    The 25 step sizes are tried in one pass, the first that lowers the
    residual being taken.
    """
    sigma = sigma.copy()
    n = sigma.shape[1]
    res = np.empty(len(sigma))
    capacity = _pass_rows(n)
    live = age = np.arange(0)
    pending = 0
    steps = 0.5 ** np.arange(_HALVINGS)
    while len(live) or pending < len(sigma):
        fresh = np.arange(pending, min(len(sigma), pending + capacity - len(live)))
        pending += len(fresh)
        live = np.concatenate([live, fresh])
        age = np.concatenate([age, np.zeros_like(fresh)])
        own, at = owner[live], sigma[live]
        g_tan, radial, r = _projected_gradient(polys, own, at)
        done = (r <= tol) | (age == _NEWTON_ITERATIONS)
        res[live[done]] = r[done]
        go = ~done
        live, age, own, at, g_tan, radial, r = (
            live[go], age[go] + 1, own[go], at[go], g_tan[go], radial[go], r[go]
        )
        if not len(live):
            continue
        h_tan, b = _tangent_hessian(polys, own, at, radial)
        rhs = (b.transpose(0, 2, 1) @ g_tan[:, :, None])[:, :, 0]
        delta = _solve(h_tan, -rhs)
        norm = _norm(delta)
        clip = norm > 1.0
        delta[clip] *= (1.0 / norm[clip])[:, None]
        move = (b @ delta[:, :, None])[:, :, 0]
        cand = at[:, None, :] + steps[:, None] * move[:, None, :]
        cand /= _norm(cand)[:, :, None]
        cand_res = _projected_gradient(polys, np.repeat(own, _HALVINGS), cand.reshape(-1, n))[2]
        better = cand_res.reshape(len(live), _HALVINGS) < r[:, None]
        first = np.argmax(better, axis=1)
        rows = np.arange(len(live))
        nxt = cand[rows, first]
        # gradient fallback when the Newton direction stalls
        stalled = ~better[rows, first]
        fall = at[stalled] - 0.1 * g_tan[stalled] / np.maximum(r[stalled], 1e-12)[:, None]
        nxt[stalled] = fall / _norm(fall)[:, None]
        sigma[live] = nxt
    return sigma, res


def _multistart(polys: Sequence[SpikedPolynomial], tol: float, budget: int):
    """The critical points found by budget Newton starts on each landscape, in
    one pass.

    The starts are seeded from the landscape seed, and the starts of all
    landscapes run through one _newton stack.  Converged points closer than
    _DEDUP_RADIUS (geodesic) to one found from an earlier start of the same
    landscape are merged, and all found points are classified in one call.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    starts = np.concatenate(
        [np.random.default_rng(poly.seed + (10_007,)).normal(size=(budget, poly.n)) for poly in polys]
    )
    starts /= _norm(starts)[:, None]
    owner = np.repeat(np.arange(len(polys)), budget)
    sigma, res = _newton(polys, owner, starts, tol)
    keep: list[int] = []
    for lo in range(0, len(starts), budget):
        found: list[int] = []
        for j in range(lo, lo + budget):
            if res[j] <= tol and all(
                math.acos(min(max(float(np.dot(sigma[k], sigma[j])), -1.0), 1.0)) >= _DEDUP_RADIUS
                for k in found
            ):
                found.append(j)
        keep += found
    return _critical_points(polys, owner[keep], sigma[keep])


def find_critical_points(poly: SpikedPolynomial, budget: int = 200) -> list[CriticalPoint]:
    """All critical points of the sampled landscape, sorted by (value, position).

    This is the one-landscape entry to the same code that count_expected
    runs over many landscapes, and the only caller that turns a pass's
    arrays into CriticalPoints.  n = 2: every zero of the circle derivative,
    as the unit-modulus roots of its companion polynomial, each polished by
    one Newton step; roots that fail the modulus or residual
    (_RESIDUAL_TOL) check are kept and marked ill_conditioned.  n >= 3:
    budget-limited multistart Riemannian Newton, best-effort, with the
    budget starts in one refilled lockstep stack; starts that end with a
    residual above _RESIDUAL_TOL are dropped, and points closer than 1e-6
    in geodesic distance are merged.  Antipodes are distinct critical
    points and are never identified.  budget < 1 at n >= 3, and a gradient
    that leaves the float range, raise ValueError.
    """
    found = _circle_points([poly]) if poly.n == 2 else _multistart([poly], _RESIDUAL_TOL, budget)
    return _point_lists(found, 1, poly.params.r)[0]


def _landscapes(params: ModelParams, n: int, trials: int, seed: int, budget: int):
    """The critical points of the landscapes (seed, t) in trial order: each
    pass with its number of landscapes.

    n = 2: passes of _circle_pass landscapes, each found and classified
    together.  n >= 3: groups of _search_group landscapes, the starts of
    each group refilling one Newton stack.  Each group is released before
    the next is built.
    """
    step = _circle_pass(max(params.p, *params.k)) if n == 2 else _search_group(n, budget)
    for lo in range(0, trials, step):
        polys = [build_polynomial(params, n, (seed, t)) for t in range(lo, min(lo + step, trials))]
        found = _circle_points(polys) if n == 2 else _multistart(polys, _RESIDUAL_TOL, budget)
        yield found, len(polys)
        del polys


def _overlap_windows(params: ModelParams, overlap_windows: Sequence | None) -> list:
    """One window per overlap coordinate (None for no window); a list of
    another length raises ValueError rather than leave overlaps unwindowed."""
    if overlap_windows is None:
        return [None] * params.r
    windows = list(overlap_windows)
    if len(windows) != params.r:
        raise ValueError(f"need {params.r} overlap windows, got {len(windows)}")
    return windows


def count_expected(
    params: ModelParams,
    n: int,
    trials: int,
    seed: int = 0,
    overlap_windows: Sequence | None = None,
    value_window: tuple[float, float] | None = None,
    which: str | int = "total",
    budget: int = 200,
) -> MCEstimate:
    """Monte Carlo mean of the critical-point count over fresh landscapes.

    Landscape t is build_polynomial(params, n, (seed, t)).  n = 2 counts
    every critical point, with the circle roots of many landscapes found and
    classified together in array passes.  n >= 3 runs the budgeted
    multistart Newton of find_critical_points, with the starts of each
    group of landscapes advancing in one refilled lockstep stack.  Either
    way each landscape gets the points find_critical_points gives it alone,
    tallied from its pass's arrays with np.bincount (no CriticalPoint is
    built), and the memory of a count does not grow with trials.  n < 2,
    budget < 1 at n >= 3, and a gradient that leaves the float range raise
    ValueError.  overlap_windows, when given, holds one (lo, hi) window or
    None per coordinate; a list of another length raises ValueError.

    which is "total", a Morse index in [0, n - 1], or "max" (index n - 1);
    any other value raises ValueError.  Index-resolved
    counts exclude degenerate points, whose per-trial mean rides along in
    extras together with the completeness flag (guaranteed only on the
    circle), the number of ill-conditioned circle roots, and the number of
    landscapes whose found points break the Morse relation
    sum (-1)^index = 1 + (-1)^(n-1) (the Euler characteristic of the
    sphere) or include a degenerate point; that sum takes every found point,
    whatever the windows.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    windows = _overlap_windows(params, overlap_windows)
    if which == "max":
        which = n - 1
    elif which != "total" and (isinstance(which, str) or not 0 <= which < n):
        raise ValueError(
            f'which must be "total", "max" or a Morse index in [0, {n - 1}], got {which!r}'
        )
    euler = 1 + (-1) ** (n - 1)
    counts = np.empty(trials)
    degenerate_counts = np.empty(trials)
    ill_conditioned = 0
    euler_mismatch = 0
    t = 0
    for found, landscapes in _landscapes(params, n, trials, seed, budget):
        owner, position, value, index, _, degenerate, ill = found
        inside = np.ones(len(owner), dtype=bool)
        for x, window in zip([*position[:, :params.r].T, value], [*windows, value_window]):
            if window is not None:
                inside &= (window[0] <= x) & (x <= window[1])
        chosen = inside if which == "total" else inside & ~degenerate & (index == which)
        here = slice(t, t + landscapes)
        counts[here] = np.bincount(owner[chosen], minlength=landscapes)
        degenerate_counts[here] = np.bincount(owner[inside & degenerate], minlength=landscapes)
        morse = np.bincount(owner, weights=(-1.0) ** index, minlength=landscapes)
        flawed = np.bincount(owner, weights=degenerate, minlength=landscapes) > 0
        euler_mismatch += int(np.count_nonzero(flawed | (morse != euler)))
        ill_conditioned += int(np.count_nonzero(ill))
        t += landscapes
    se = float(np.std(counts, ddof=1)) / math.sqrt(trials) if trials > 1 else math.nan
    extras = {
        "complete": n == 2,
        "mean_degenerate": float(np.mean(degenerate_counts)),
        "ill_conditioned_roots": ill_conditioned,
        "euler_mismatch_landscapes": euler_mismatch,
    }
    return MCEstimate(float(np.mean(counts)), se, extras)


# ---------------------------------------------------------------------------
# the exact finite-N expected-count integral

def sphere_surface(dim: int) -> float:
    """Surface measure of the unit sphere S^{dim-1} in R^dim."""
    return float(2.0 * math.exp(0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim)))


def c_constant(n: int, r: int, p: int) -> float:
    """The exact dimensional constant in front of the expected-count integral."""
    return float(
        2.0
        * math.exp(0.5 * (n - 1) * math.log((n - 1) / (2.0 * math.e)) - math.lgamma(0.5 * (n - r)))
        * math.pi ** (-0.5 * (r - 1))
        * math.sqrt(n / ((p - 1) * math.e * math.pi))
    )


# Gauss-Legendre nodes per axis (per smooth piece on the value axis) of the
# first rule, and the cap on (nodes per axis)^(r + 1) of the finest rule tried
# before the refinement check gives up: 512 per axis at r = 1, 64 at r = 2.
_FIRST_NODES = 16
_MAX_TENSOR_NODES = 1 << 18
# Relative gap within which two successive rules agree.
_EPSREL = 1e-4


class QuadratureError(ArithmeticError):
    """The Gauss rule did not meet its refinement check within the node cap."""


def kac_rice_eval(
    params: ModelParams,
    n: int,
    overlap_windows: Sequence | None = None,
    value_window: tuple[float, float] | None = None,
    inner_trials: int = 2048,
    which: str = "total",
    seed: int = 0,
    batches: int = 8,
) -> MCEstimate:
    """Expected number of critical points (or local maxima) at finite n, by
    Gauss-Legendre quadrature of the exact expected-count integral.

    The overlap box psi in [-pi/2, pi/2]^r is the whole ball alpha < 1, by
    m_i = sin(psi_i) prod_{j<i} cos(psi_j) (m = sin(psi) at r = 1), where the
    boundary factor times the Jacobian is a product of powers n - j - 1 >= 0
    of cos(psi_j); window i >= 2 is iterated over the nodes of the earlier
    axes, and an empty range gets zero width.  E|det H| is estimated by
    common-random-number Monte Carlo, with the same GOE draws W at every node;
    the spikes add L^T diag(theta) L, with L L^T their Gram matrix, to the
    first r x r block: it has the eigenvalues of the perturbation, hence by
    orthogonal invariance the law of H, and it is smooth in m, where sorted
    eigenvalues on the diagonal kink at crossings.

    At each overlap node the eigenvalues mu of H at t = 0 are computed
    once per draw.  As a function of the value x, |det H| = prod |mu - t(x)|
    has a kink at each mu, so the value axis is split there and each smooth
    piece gets its own Gauss rule; log|det H| is the sum of log|mu - t|, so no
    trial underflows, and for "max" only the piece above the top eigenvalue
    counts.  All value nodes of all draws go through array passes of a
    bounded size.

    The rule doubles from _FIRST_NODES nodes per axis (and per piece) until
    two successive rules agree to _EPSREL on every batch, and the finer one is
    returned.  With a window, gaps below 1e-12 pass as well, since a windowed
    count can be 0; with none, E Crt is at least 2 (1 for "max"), and two
    rules far below that agree only relatively.  QuadratureError is raised
    when agreement needs a rule finer than the node cap, or when, with no
    window given, the accepted rule is 0 on every batch.  The standard error
    comes from the spread of the disjoint trial batches; batches < 1, or
    fewer inner trials than batches, raise ValueError.
    """
    if params.r > n - 1:
        raise ValueError("the expected-count integral needs r <= n - 1")
    if which not in ("total", "max"):
        raise ValueError(f'which must be "total" or "max", got {which!r}')
    if batches < 1:
        raise ValueError(f"batches must be >= 1, got {batches}")
    if inner_trials < batches:
        raise ValueError("inner_trials must be at least the number of batches")

    r = params.r
    windows = _overlap_windows(params, overlap_windows)

    lam_sum = sum(params.lam)
    x_lo, x_hi = (-lam_sum - 9.0, lam_sum + 9.0) if value_window is None else value_window

    m_dim = n - 1
    root = math.sqrt(n / (n - 1))
    # one GOE(n-1) draw per inner trial, shared across all quadrature nodes
    per_batch = inner_trials // batches
    ws = np.empty((per_batch * batches, m_dim, m_dim))
    for t, w in enumerate(_draws(GOESpec(n=m_dim, seed=seed), range(len(ws)))):
        ws[t] = w

    def value_integrals(spike, a, b, s0, s1, s2, xi: np.ndarray, wi: np.ndarray) -> np.ndarray:
        """Per draw, the value-axis integral of exp(n s) |det H| at one node."""
        hs = ws.copy()
        hs[:, :r, :r] += spike
        mu = np.linalg.eigvalsh(hs)
        kinks = np.clip((mu - a) / b, x_lo, x_hi)
        edges = np.pad(kinks, ((0, 0), (1, 1)), constant_values=(x_lo, x_hi))
        if which == "max":
            # H is negative definite only above its top eigenvalue
            edges = edges[:, -2:]
        mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
        half = 0.5 * (edges[:, 1:] - edges[:, :-1])
        out = np.empty(len(ws))
        step = max(1, _CHUNK // (half.shape[1] * len(xi) * m_dim))
        for lo in range(0, len(ws), step):
            part = slice(lo, lo + step)
            x = mid[part, :, None] + half[part, :, None] * xi
            log_det = np.log(np.abs(mu[part, None, None, :] - (a + b * x)[..., None])).sum(axis=-1)
            vals = half[part, :, None] * wi * np.exp(n * (s0 + x * (s1 + s2 * x)) + log_det)
            out[part] = vals.sum(axis=(1, 2))
        return out

    def rule(nodes: int) -> np.ndarray:
        """Per-batch integrals under the nodes-per-axis rule."""
        xi, wi = np.polynomial.legendre.leggauss(nodes)
        # axis i bounds sin(psi_i) to [lo_i, hi_i] / P_i, P_i = prod_{j<i} cos(psi_j),
        # at each node of the earlier axes; the Jacobian is prod_i P_{i+1}
        m, weight, cap, jac = np.empty((1, 0)), np.ones(1), np.ones(1), np.ones(1)
        for win in windows:
            lo, hi = (-1.0, 1.0) if win is None else win
            lo = _libm(math.asin, np.clip(lo / cap, -1.0, 1.0))
            hi = _libm(math.asin, np.clip(hi / cap, -1.0, 1.0))
            half = 0.5 * (np.maximum(hi, lo) - lo)[:, None]
            psi = (lo[:, None] + half * (xi + 1.0)).ravel()
            weight = (weight[:, None] * (half * wi)).ravel()
            m, cap, jac = (np.repeat(v, nodes, axis=0) for v in (m, cap, jac))
            m = np.column_stack([m, np.sin(psi) * cap])
            cap = cap * np.cos(psi)
            jac = jac * cap
        s_at = s_func(params, m, np.broadcast_to([-1.0, 0.0, 1.0], (len(m), 3)))
        keep = np.all(np.isfinite(s_at), axis=1)
        m, (s_lo, s0, s_hi) = m[keep], s_at[keep].T
        jac = weight[keep] * (jac[keep] * _libm(pow, 1.0 - _dot(m, m), -0.5 * (r + 2)))
        # s(x) is quadratic and the Hessian shift root * t(x) = a + b x is
        # affine and rising in x
        s1, s2 = 0.5 * (s_hi - s_lo), 0.5 * (s_hi + s_lo) - s0
        t_at = root * t_func(params, m, np.broadcast_to([0.0, 1.0], (len(m), 2)))
        theta, gram = perturbation_factors(params, m)
        chol = np.linalg.cholesky(gram)
        spike = root * (chol.transpose(0, 2, 1) @ (theta[:, :, None] * chol))
        sums = np.zeros(len(ws))
        for c, *node in zip(jac, spike, t_at[:, 0], t_at[:, 1] - t_at[:, 0], s0, s1, s2):
            sums += c * value_integrals(*node, xi, wi)
        return c_constant(n, r, params.p) * sums.reshape(batches, per_batch).mean(axis=1)

    # a windowed count can truly be 0, so there gaps under 1e-12 pass too;
    # without a window, agreement is relative only
    unwindowed = value_window is None and all(w is None for w in windows)
    floor = 0.0 if unwindowed else 1e-12
    nodes = _FIRST_NODES
    coarse = rule(nodes)
    while (2 * nodes) ** (r + 1) <= _MAX_TENSOR_NODES:
        nodes *= 2
        fine = rule(nodes)
        diff = np.abs(fine - coarse)
        scale = np.abs(fine)
        rel_gap = float(np.max(np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0.0)))
        if np.all(diff <= np.maximum(_EPSREL * scale, floor)):
            break
        coarse = fine
    else:
        raise QuadratureError(
            f"Gauss rules up to {nodes} nodes per axis still differ beyond epsrel = {_EPSREL}"
        )
    # without windows every landscape has a maximum and a minimum, so a rule
    # that is 0 on every batch has missed the integrand's mass
    if unwindowed and not np.any(fine):
        raise QuadratureError(f"the accepted {nodes}-node rule is 0 on every batch")

    value = float(np.mean(fine))
    se = float(np.std(fine, ddof=1)) / math.sqrt(batches) if batches > 1 else math.nan
    extras = {
        "underflow_trials": 0,
        "batches": batches,
        "quadrature_nodes": nodes,
        "quadrature_rel_gap": rel_gap,
    }
    return MCEstimate(value, se, extras)
