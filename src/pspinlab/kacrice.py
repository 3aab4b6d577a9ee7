"""Finite-N cross-examination of the landscape: build actual random polynomials
on small spheres, count their critical points directly, and compare against
the exact expected-count integral.

The random part is a symmetrized Gaussian p-tensor scaled so that the field
has covariance <sigma, sigma'>^p / (2n) on the unit sphere of R^n; spikes sit
on the first r coordinate axes.  At n = 2 the critical points are the zeros
of a trigonometric polynomial, found exactly as the unit-circle roots of its
companion matrix; for n >= 3 a budgeted multistart Riemannian Newton search
is best-effort.  The multistart advances a stack of starts in lockstep, all
starts of as many landscapes as fill one array pass at once, and each row
takes exactly the steps a search from that start alone would take.  The
expected-count integral is a Gauss-Legendre rule, split at the kinks of
|det H| and checked by refinement.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import _LAZY
from .core import ModelParams, _libm, s_func, t_func
from .rmt import GOESpec, MCEstimate, _draws
from .spikes import perturbation_factors

__all__ = [name for name, home in _LAZY.items() if home == "kacrice"]

_LETTERS = "abcdefgh"
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

def _subscripts(p: int, free: int) -> str:
    """einsum subscripts contracting the last p - free axes of a p-tensor
    against points (..., n), leaving the shape (...,) + (n,) * free."""
    return (
        _LETTERS[:p]
        + ","
        + ",".join("..." + c for c in _LETTERS[free:p])
        + "->..."
        + _LETTERS[:free]
    )


def _contract(polys: Sequence[SpikedPolynomial], owner: np.ndarray, sigma: np.ndarray, free: int):
    """Row j of sigma (N, n) contracted into the last p - free axes of the
    tensor of its landscape polys[owner[j]]: shape (N,) + (n,) * free.

    Each landscape's rows are contiguous, so each tensor enters one einsum
    per run of its rows and is never copied per row.
    """
    p = polys[0].params.p
    sub = _subscripts(p, free)
    cuts = (np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist()
    return np.concatenate([
        np.einsum(sub, polys[owner[a]].tensor, *([sigma[a:b]] * (p - free)))
        for a, b in zip([0, *cuts], [*cuts, len(owner)])
    ])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise inner products over the last axis.

    A stack of (1, n) @ (n, 1) products gives each row the bits of np.dot on
    that pair, as the one-point computation had them; np.linalg.norm with an
    axis, and einsum, sum in another order.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(a, a))


def _value(poly: SpikedPolynomial, sigma: np.ndarray) -> np.ndarray:
    """The landscape at one point (n,) or at each point of a stack (..., n)."""
    p = poly.params.p
    v = np.einsum(_subscripts(p, 0), poly.tensor, *([sigma] * p))
    for i, (lam_i, k_i) in enumerate(zip(poly.params.lam, poly.params.k)):
        v = v + lam_i * _libm(pow, sigma[..., i], k_i)
    return v


def _grad(polys, owner: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Euclidean gradients (N, n) at the rows of sigma."""
    params = polys[0].params
    g = params.p * _contract(polys, owner, sigma, 1)
    for i, (lam_i, k_i) in enumerate(zip(params.lam, params.k)):
        if lam_i:
            g[:, i] += lam_i * k_i * _libm(pow, sigma[:, i], k_i - 1)
    return g


def _projected_gradient(polys, owner: np.ndarray, sigma: np.ndarray):
    """Tangent projections (N, n) of the gradients at the rows of sigma
    (N, n), row j on polys[owner[j]], and their radial parts (N,)."""
    g = _grad(polys, owner, sigma)
    radial = _dot(sigma, g)
    return g - radial[:, None] * sigma, radial


def _tangent_hessian(polys, owner: np.ndarray, sigma: np.ndarray, radial: np.ndarray):
    """Tangent Hessians (N, n-1, n-1) in the tangent bases (N, n, n-1) at the
    rows of sigma.

    The bases stay views into the QR factors: matmul picks its kernel by
    memory layout, and this layout keeps each row's products bit-equal to
    the one-point computation.
    """
    params = polys[0].params
    p = params.p
    count, n = sigma.shape
    h = p * (p - 1) * _contract(polys, owner, sigma, 2)
    for i, (lam_i, k_i) in enumerate(zip(params.lam, params.k)):
        if lam_i:
            h[:, i, i] += lam_i * k_i * (k_i - 1) * _libm(pow, sigma[:, i], k_i - 2)
    frame = np.concatenate([sigma[:, :, None], np.broadcast_to(np.eye(n), (count, n, n))], axis=2)
    b = np.linalg.qr(frame)[0][:, :, 1:]
    return b.transpose(0, 2, 1) @ h @ b - radial[:, None, None] * np.eye(n - 1), b


def _critical_points(
    poly: SpikedPolynomial, sigma: np.ndarray, ill_conditioned=None
) -> list[CriticalPoint]:
    """CriticalPoints for the rows of sigma (N, n) on one landscape, sorted by
    (value, position).

    The Morse index counts tangent-Hessian eigenvalues below a zero band of
    1e-8 times the spectral norm, from one batched eigvalsh; an eigenvalue
    inside the band marks the point degenerate.
    """
    if not len(sigma):
        return []
    owner = np.zeros(len(sigma), dtype=int)
    g_tan, radial = _projected_gradient([poly], owner, sigma)
    ev = np.linalg.eigvalsh(_tangent_hessian([poly], owner, sigma, radial)[0])
    band = 1e-8 * np.maximum(np.max(np.abs(ev), axis=1), 1e-12)[:, None]
    degenerate = np.any(np.abs(ev) <= band, axis=1)
    index = np.sum(ev < -band, axis=1)
    residual = _norm(g_tan)
    if ill_conditioned is None:
        ill_conditioned = np.zeros(len(sigma), dtype=bool)
    r = poly.params.r
    points = [
        CriticalPoint(
            position=tuple(row),
            value=value,
            overlaps=tuple(row[:r]),
            index=i,
            residual=res,
            degenerate=deg,
            ill_conditioned=ill,
        )
        for row, value, i, res, deg, ill in zip(
            sigma.tolist(),
            _value(poly, sigma).tolist(),
            index.tolist(),
            residual.tolist(),
            degenerate.tolist(),
            ill_conditioned.tolist(),
        )
    ]
    points.sort(key=lambda c: (c.value, c.position))
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


def _circle_derivative(poly: SpikedPolynomial, phi: np.ndarray) -> np.ndarray:
    """d/dphi of the landscape along the unit circle: the gradient at
    (cos phi, sin phi) dotted with the tangent (-sin phi, cos phi)."""
    sigma = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    tangent = np.stack([-sigma[:, 1], sigma[:, 0]], axis=1)
    return _dot(_grad([poly], np.zeros(len(phi), dtype=int), sigma), tangent)


def _circle_roots(poly: SpikedPolynomial) -> tuple[np.ndarray, np.ndarray]:
    """Every zero of the circle derivative, and how far off |z| = 1 the
    companion root it came from lies.

    On the circle the derivative is a trigonometric polynomial
    g(phi) = sum_{|j| <= D} c_j e^{i j phi} of degree D = max(p, k_i).  Its
    coefficients come from one FFT of 4D + 4 samples, its zeros are the
    unit-modulus roots of z^D g, a polynomial of degree 2D, and each angle is
    polished by one Newton step on the series.
    """
    degree = max(poly.params.p, *poly.params.k)
    samples = 4 * degree + 4
    freq = np.arange(-degree, degree + 1)
    phi = 2.0 * math.pi * np.arange(samples) / samples
    coef = np.fft.fft(_circle_derivative(poly, phi))[freq] / samples
    z = np.roots(coef[::-1])
    off = np.abs(np.abs(z) - 1.0)
    on_circle = off <= _MODULUS_BAND
    angle = np.angle(z[on_circle])
    waves = coef * np.exp(1j * np.outer(angle, freq))
    angle -= waves.sum(axis=1).real / (waves @ (1j * freq)).real
    return angle, off[on_circle]


def _find_on_circle(poly: SpikedPolynomial) -> list[CriticalPoint]:
    angles, off = _circle_roots(poly)
    sigma = np.array([[math.cos(a), math.sin(a)] for a in angles.tolist()]).reshape(-1, 2)
    points = _critical_points(poly, sigma, off > _MODULUS_TOL)
    return [
        replace(pt, ill_conditioned=True) if pt.residual > _RESIDUAL_TOL else pt for pt in points
    ]


# ---------------------------------------------------------------------------
# budgeted multistart Newton (n >= 3)

_DEDUP_RADIUS = 1e-6
_NEWTON_ITERATIONS = 80
_HALVINGS = 25


def _pass_rows(n: int) -> int:
    """Starts per lockstep pass: the pass's largest array, the trial points of
    every step size, holds at most _CHUNK doubles."""
    return max(1, _CHUNK // (_HALVINGS * n))


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
    """Riemannian Newton from every row of sigma (N, n) at once, row j on
    landscape polys[owner[j]]; returns the final points and their projected
    gradient norms.

    Each row follows the per-start rule: stop once the residual is <= tol;
    otherwise take the Newton step (least squares on a singular Hessian),
    clipped to norm 1, and halve it up to 25 times until the residual drops,
    with a 0.1 gradient step if none does; at most 80 iterations.  All rows
    advance together, converged rows leave the stack, and the 25 step sizes
    are tried in one pass, the first that lowers the residual being taken.
    """
    sigma = sigma.copy()
    n = sigma.shape[1]
    res = np.empty(len(sigma))
    live = np.arange(len(sigma))
    steps = 0.5 ** np.arange(_HALVINGS)
    for _ in range(_NEWTON_ITERATIONS):
        own, at = owner[live], sigma[live]
        g_tan, radial = _projected_gradient(polys, own, at)
        r = _norm(g_tan)
        done = r <= tol
        res[live[done]] = r[done]
        go = ~done
        live, own, at, g_tan, radial, r = live[go], own[go], at[go], g_tan[go], radial[go], r[go]
        if not len(live):
            break
        h_tan, b = _tangent_hessian(polys, own, at, radial)
        rhs = (b.transpose(0, 2, 1) @ g_tan[:, :, None])[:, :, 0]
        delta = _solve(h_tan, -rhs)
        norm = _norm(delta)
        clip = norm > 1.0
        delta[clip] *= (1.0 / norm[clip])[:, None]
        move = (b @ delta[:, :, None])[:, :, 0]
        cand = at[:, None, :] + steps[:, None] * move[:, None, :]
        cand /= _norm(cand)[:, :, None]
        cand_res = _norm(_projected_gradient(polys, np.repeat(own, _HALVINGS), cand.reshape(-1, n))[0])
        better = cand_res.reshape(len(live), _HALVINGS) < r[:, None]
        first = np.argmax(better, axis=1)
        rows = np.arange(len(live))
        nxt = cand[rows, first]
        # gradient fallback when the Newton direction stalls
        stalled = ~better[rows, first]
        fall = at[stalled] - 0.1 * g_tan[stalled] / np.maximum(r[stalled], 1e-12)[:, None]
        nxt[stalled] = fall / _norm(fall)[:, None]
        sigma[live] = nxt
    if len(live):
        res[live] = _norm(_projected_gradient(polys, owner[live], sigma[live])[0])
    return sigma, res


def _multistart(polys: Sequence[SpikedPolynomial], tol: float, budget: int) -> list[list[CriticalPoint]]:
    """The critical points found by budget Newton starts on each landscape.

    The starts are seeded from the landscape seed; all starts of all
    landscapes run in lockstep passes of _pass_rows rows.  Converged points
    closer than _DEDUP_RADIUS (geodesic) to one found from an earlier start
    are merged.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    n = polys[0].n
    starts = np.concatenate(
        [np.random.default_rng(poly.seed + (10_007,)).normal(size=(budget, n)) for poly in polys]
    )
    starts /= _norm(starts)[:, None]
    owner = np.repeat(np.arange(len(polys)), budget)
    sigma = np.empty_like(starts)
    res = np.empty(len(starts))
    rows = _pass_rows(n)
    for lo in range(0, len(starts), rows):
        part = slice(lo, lo + rows)
        sigma[part], res[part] = _newton(polys, owner[part], starts[part], tol)
    found_by_landscape = []
    for j, poly in enumerate(polys):
        found: list[np.ndarray] = []
        for point, r in zip(sigma[j * budget:(j + 1) * budget], res[j * budget:(j + 1) * budget]):
            if r <= tol and all(
                math.acos(float(np.clip(np.dot(prev, point), -1.0, 1.0))) >= _DEDUP_RADIUS
                for prev in found
            ):
                found.append(point)
        found_by_landscape.append(_critical_points(poly, np.array(found).reshape(-1, n)))
    return found_by_landscape


def find_critical_points(poly: SpikedPolynomial, budget: int = 200) -> list[CriticalPoint]:
    """All critical points of the sampled landscape, sorted by (value, position).

    n = 2: every zero of the circle derivative, as the unit-modulus roots of
    its companion polynomial, each polished by one Newton step; roots that
    fail the modulus or residual (_RESIDUAL_TOL) check are kept and marked
    ill_conditioned.  n >= 3: budget-limited multistart Riemannian Newton,
    best-effort, run as one lockstep stack of all budget starts (the same
    stack path that count_expected runs over many landscapes); starts that
    end with a residual above _RESIDUAL_TOL are dropped, and points closer
    than 1e-6 in geodesic distance are merged.  Antipodes are distinct
    critical points and are never identified.  budget < 1 raises ValueError
    at n >= 3.
    """
    if poly.n == 2:
        return _find_on_circle(poly)
    return _multistart([poly], _RESIDUAL_TOL, budget)[0]


def _landscapes(params: ModelParams, n: int, trials: int, seed: int, budget: int):
    """The critical points of each landscape (seed, t), in trial order.

    n >= 3: as many landscapes as fill one lockstep pass are built and
    searched together.
    """
    if n == 2:
        for t in range(trials):
            yield find_critical_points(build_polynomial(params, n, (seed, t)))
        return
    group = max(1, _pass_rows(n) // max(budget, 1))  # _multistart rejects budget < 1
    for lo in range(0, trials, group):
        polys = [build_polynomial(params, n, (seed, t)) for t in range(lo, min(lo + group, trials))]
        yield from _multistart(polys, _RESIDUAL_TOL, budget)


def _window_ok(value: float, window) -> bool:
    return window is None or (window[0] <= value <= window[1])


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
    every critical point (find_critical_points on each landscape).  n >= 3
    runs the budgeted multistart Newton of find_critical_points, with the
    starts of many landscapes advanced together in one lockstep stack; it
    gives the same points as a search of each landscape alone.  n < 2, and
    budget < 1 at n >= 3, raise ValueError.  overlap_windows, when given,
    holds one (lo, hi) window or None per coordinate; a list of another
    length raises ValueError.

    which is "total", a Morse index, or "max" (index n - 1); index-resolved
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
    elif isinstance(which, str) and which != "total":
        raise ValueError(f'which must be "total", "max" or a Morse index, got {which!r}')
    euler = 1 + (-1) ** (n - 1)
    counts = np.empty(trials)
    degenerate_counts = np.empty(trials)
    ill_conditioned = 0
    euler_mismatch = 0
    for t, pts in enumerate(_landscapes(params, n, trials, seed, budget)):
        ill_conditioned += sum(pt.ill_conditioned for pt in pts)
        if any(pt.degenerate for pt in pts) or sum((-1) ** pt.index for pt in pts) != euler:
            euler_mismatch += 1
        c = 0
        dc = 0
        for pt in pts:
            if not all(_window_ok(ov, win) for ov, win in zip(pt.overlaps, windows)):
                continue
            if not _window_ok(pt.value, value_window):
                continue
            if pt.degenerate:
                dc += 1
                if which == "total":
                    c += 1
            elif which == "total" or pt.index == which:
                c += 1
        counts[t] = c
        degenerate_counts[t] = dc
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
    returned; QuadratureError is raised when that needs a rule finer than the
    node cap.  The standard error comes from the spread of the disjoint trial
    batches; batches < 1, or fewer inner trials than batches, raise
    ValueError.
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
    if value_window is None:
        value_window = (-lam_sum - 9.0, lam_sum + 9.0)
    x_lo, x_hi = value_window

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

    nodes = _FIRST_NODES
    coarse = rule(nodes)
    while (2 * nodes) ** (r + 1) <= _MAX_TENSOR_NODES:
        nodes *= 2
        fine = rule(nodes)
        diff = np.abs(fine - coarse)
        scale = np.abs(fine)
        rel_gap = float(np.max(np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0.0)))
        if np.all(diff <= np.maximum(_EPSREL * scale, 1e-12)):
            break
        coarse = fine
    else:
        raise QuadratureError(
            f"Gauss rules up to {nodes} nodes per axis still differ beyond epsrel = {_EPSREL}"
        )

    value = float(np.mean(fine))
    se = float(np.std(fine, ddof=1)) / math.sqrt(batches) if batches > 1 else math.nan
    extras = {
        "underflow_trials": 0,
        "batches": batches,
        "quadrature_nodes": nodes,
        "quadrature_rel_gap": rel_gap,
    }
    return MCEstimate(value, se, extras)
