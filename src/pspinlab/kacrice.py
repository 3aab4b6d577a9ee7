"""Finite-N cross-examination of the landscape: build actual random polynomials
on small spheres, count their critical points directly, and compare against
the exact expected-count integral.

The random part is a symmetrized Gaussian p-tensor scaled so that the field
has covariance <sigma, sigma'>^p / (2n) on the unit sphere of R^n; spikes sit
on the first r coordinate axes.  At n = 2 the critical points are the zeros
of a trigonometric polynomial, found exactly as the unit-circle roots of its
companion matrix; for n >= 3 a budgeted multistart Riemannian Newton search
is best-effort.  The expected-count integral is a Gauss-Legendre rule, split
at the kinks of |det H| and checked by refinement.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import ModelParams, s_func, t_func
from .rmt import MCEstimate
from .spikes import spike_eigenvalues

__all__ = [
    "SpikedPolynomial",
    "CriticalPoint",
    "build_polynomial",
    "find_critical_points",
    "count_expected",
    "kac_rice_eval",
    "QuadratureError",
    "c_constant",
    "sphere_surface",
]

_LETTERS = "abcdefgh"


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
# pointwise evaluation

def _tensor_value(t: np.ndarray, sigma: np.ndarray) -> float:
    p = t.ndim
    sub = _LETTERS[:p] + "," + ",".join(_LETTERS[i] for i in range(p)) + "->"
    return float(np.einsum(sub, t, *([sigma] * p)))


def _tensor_grad(t: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    p = t.ndim
    sub = _LETTERS[:p] + "," + ",".join(_LETTERS[i] for i in range(1, p)) + f"->{_LETTERS[0]}"
    return p * np.einsum(sub, t, *([sigma] * (p - 1)))


def _tensor_hess(t: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    p = t.ndim
    if p == 2:
        return 2.0 * t
    sub = (
        _LETTERS[:p]
        + ","
        + ",".join(_LETTERS[i] for i in range(2, p))
        + f"->{_LETTERS[0]}{_LETTERS[1]}"
    )
    return p * (p - 1) * np.einsum(sub, t, *([sigma] * (p - 2)))


def _value(poly: SpikedPolynomial, sigma: np.ndarray) -> float:
    v = _tensor_value(poly.tensor, sigma)
    for i, (lam_i, k_i) in enumerate(zip(poly.params.lam, poly.params.k)):
        v += lam_i * sigma[i] ** k_i
    return v


def _grad(poly: SpikedPolynomial, sigma: np.ndarray) -> np.ndarray:
    g = _tensor_grad(poly.tensor, sigma)
    for i, (lam_i, k_i) in enumerate(zip(poly.params.lam, poly.params.k)):
        g[i] += lam_i * k_i * sigma[i] ** (k_i - 1)
    return g


def _hess(poly: SpikedPolynomial, sigma: np.ndarray) -> np.ndarray:
    h = _tensor_hess(poly.tensor, sigma)
    for i, (lam_i, k_i) in enumerate(zip(poly.params.lam, poly.params.k)):
        h[i, i] += lam_i * k_i * (k_i - 1) * sigma[i] ** (k_i - 2)
    return h


def _tangent_basis(sigma: np.ndarray) -> np.ndarray:
    n = len(sigma)
    q, _ = np.linalg.qr(np.column_stack([sigma, np.eye(n)]))
    return q[:, 1:n]


def _riemannian_data(poly: SpikedPolynomial, sigma: np.ndarray):
    """Projected gradient, tangent Hessian, and its scale at a point."""
    g = _grad(poly, sigma)
    radial = float(np.dot(sigma, g))
    g_tan = g - radial * sigma
    b = _tangent_basis(sigma)
    h = b.T @ _hess(poly, sigma) @ b - radial * np.eye(len(sigma) - 1)
    return g_tan, h, b


def _grad_residual(poly: SpikedPolynomial, sigma: np.ndarray) -> float:
    g = _grad(poly, sigma)
    return float(np.linalg.norm(g - np.dot(sigma, g) * sigma))


def _classify_index(h_tan: np.ndarray) -> tuple[int, bool]:
    """Morse index and degeneracy flag with a spectral-norm-relative zero band."""
    ev = np.linalg.eigvalsh(h_tan)
    scale = float(np.max(np.abs(ev))) if len(ev) else 0.0
    band = 1e-8 * max(scale, 1e-12)
    degenerate = bool(np.any(np.abs(ev) <= band))
    index = int(np.sum(ev < -band))
    return index, degenerate


def _critical_point(poly: SpikedPolynomial, sigma: np.ndarray) -> CriticalPoint:
    g_tan, h_tan, _ = _riemannian_data(poly, sigma)
    index, degenerate = _classify_index(h_tan)
    return CriticalPoint(
        position=tuple(sigma),
        value=_value(poly, sigma),
        overlaps=tuple(sigma[: poly.params.r]),
        index=index,
        residual=float(np.linalg.norm(g_tan)),
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# exact roots on the circle (n = 2)

# Companion roots this close to |z| = 1 are taken as critical points; those
# off by more than _MODULUS_TOL are flagged ill-conditioned.
_MODULUS_BAND = 1e-6
_MODULUS_TOL = 1e-10


def _circle_derivative(poly: SpikedPolynomial, phi: np.ndarray) -> np.ndarray:
    """d/dphi of the landscape along the unit circle, vectorized."""
    sig = np.vstack([np.cos(phi), np.sin(phi)])
    tan = np.vstack([-np.sin(phi), np.cos(phi)])
    p = poly.params.p
    sub = (
        _LETTERS[:p]
        + ","
        + ",".join(_LETTERS[i] + "z" for i in range(1, p))
        + f"->{_LETTERS[0]}z"
    )
    g = p * np.einsum(sub, poly.tensor, *([sig] * (p - 1)), optimize=True)
    for i, (lam_i, k_i) in enumerate(zip(poly.params.lam, poly.params.k)):
        g[i] += lam_i * k_i * sig[i] ** (k_i - 1)
    return np.sum(g * tan, axis=0)


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


def _find_on_circle(poly: SpikedPolynomial, tol: float) -> list[CriticalPoint]:
    angles, off = _circle_roots(poly)
    points = []
    for phi, dz in zip(angles, off):
        pt = _critical_point(poly, np.array([math.cos(phi), math.sin(phi)]))
        if dz > _MODULUS_TOL or pt.residual > tol:
            pt = replace(pt, ill_conditioned=True)
        points.append(pt)
    points.sort(key=lambda c: (c.value, c.position))
    return points


# ---------------------------------------------------------------------------
# budgeted multistart Newton (n >= 3)

_DEDUP_RADIUS = 1e-6


def _newton_polish(poly: SpikedPolynomial, sigma: np.ndarray, tol: float):
    for _ in range(80):
        g_tan, h_tan, b = _riemannian_data(poly, sigma)
        res = float(np.linalg.norm(g_tan))
        if res <= tol:
            return sigma, res
        rhs = b.T @ g_tan
        try:
            delta = np.linalg.solve(h_tan, -rhs)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(h_tan, -rhs, rcond=None)[0]
        norm = float(np.linalg.norm(delta))
        if norm > 1.0:
            delta *= 1.0 / norm
        step = 1.0
        for _ in range(25):
            cand = sigma + step * (b @ delta)
            cand /= np.linalg.norm(cand)
            if _grad_residual(poly, cand) < res:
                sigma = cand
                break
            step *= 0.5
        else:
            # gradient fallback when the Newton direction stalls
            cand = sigma - 0.1 * g_tan / max(res, 1e-12)
            sigma = cand / np.linalg.norm(cand)
    g_tan, _, _ = _riemannian_data(poly, sigma)
    return sigma, float(np.linalg.norm(g_tan))


def _find_multistart(
    poly: SpikedPolynomial, tol: float, budget: int
) -> list[CriticalPoint]:
    rng = np.random.default_rng(poly.seed + (10_007,))
    n = poly.n
    found: list[np.ndarray] = []
    for _ in range(budget):
        start = rng.normal(size=n)
        start /= np.linalg.norm(start)
        sigma, res = _newton_polish(poly, start, tol)
        if res > tol:
            continue
        fresh = True
        for prev in found:
            cosang = float(np.clip(np.dot(prev, sigma), -1.0, 1.0))
            if math.acos(cosang) < _DEDUP_RADIUS:
                fresh = False
                break
        if fresh:
            found.append(sigma)

    points = [_critical_point(poly, sigma) for sigma in found]
    points.sort(key=lambda c: (c.value, c.position))
    return points


def find_critical_points(
    poly: SpikedPolynomial, tol: float = 1e-10, budget: int = 200
) -> list[CriticalPoint]:
    """All critical points of the sampled landscape.

    n = 2: every zero of the circle derivative, as the unit-modulus roots of
    its companion polynomial, each polished by one Newton step; roots that
    fail the modulus or residual (tol) check are kept and marked
    ill_conditioned.  n >= 3: budget-limited multistart Newton, best-effort;
    points closer than 1e-6 in geodesic distance are merged.  Antipodes are
    distinct critical points and are never identified.
    """
    if poly.n == 2:
        return _find_on_circle(poly, tol)
    return _find_multistart(poly, tol, budget)


def _window_ok(value: float, window) -> bool:
    return window is None or (window[0] <= value <= window[1])


def count_expected(
    params: ModelParams,
    n: int,
    trials: int,
    seed: int = 0,
    overlap_windows: Sequence | None = None,
    value_window: tuple[float, float] | None = None,
    which: str | int = "total",
    tol: float = 1e-10,
    budget: int = 200,
) -> MCEstimate:
    """Monte Carlo mean of the exact critical-point count over fresh landscapes.

    which is "total", a Morse index, or "max" (index n - 1); index-resolved
    counts exclude degenerate points, whose per-trial mean rides along in
    extras together with the completeness flag (guaranteed only on the
    circle) and the number of ill-conditioned circle roots.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if which == "max":
        which = n - 1
    elif isinstance(which, str) and which != "total":
        raise ValueError(f'which must be "total", "max" or a Morse index, got {which!r}')
    counts = np.empty(trials)
    degenerate_counts = np.empty(trials)
    ill_conditioned = 0
    for t in range(trials):
        poly = build_polynomial(params, n, (seed, t))
        pts = find_critical_points(poly, tol=tol, budget=budget)
        ill_conditioned += sum(pt.ill_conditioned for pt in pts)
        c = 0
        dc = 0
        for pt in pts:
            if not all(
                _window_ok(ov, win)
                for ov, win in zip(
                    pt.overlaps, overlap_windows or [None] * params.r
                )
            ):
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
    }
    return MCEstimate(float(np.mean(counts)), se, trials, seed, extras)


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
# Doubles per array pass over (draws, value nodes, eigenvalues); passes this
# small keep numpy's temporaries out of fresh page-faulting allocations.
_CHUNK = 1 << 14


class QuadratureError(ArithmeticError):
    """The Gauss rule did not meet its refinement check within the node cap."""


def _gauss_legendre(nodes: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def kac_rice_eval(
    params: ModelParams,
    n: int,
    overlap_windows: Sequence | None = None,
    value_window: tuple[float, float] | None = None,
    inner_trials: int = 2048,
    which: str = "total",
    seed: int = 0,
    batches: int = 8,
    epsrel: float = 1e-4,
) -> MCEstimate:
    """Expected number of critical points (or local maxima) at finite n, by
    Gauss-Legendre quadrature of the exact expected-count integral.

    The overlap integral runs in angle coordinates m_i = sin(psi_i), which
    absorbs the (1 - alpha) endpoint singularity at n = 2 (and at r = 1 in
    general); the conditional determinant E|det H| is estimated by
    common-random-number Monte Carlo, with the same GOE draws W at every node.

    At each overlap node the eigenvalues mu of W + diag(gamma) are computed
    once per draw.  As a function of the value x, |det H| = prod |mu - t(x)|
    has a kink at each mu, so the value axis is split there and each smooth
    piece gets its own Gauss rule; log|det H| is the sum of log|mu - t|, so no
    trial underflows, and for "max" only the piece above the top eigenvalue
    counts.  All value nodes of all draws go through array passes of a
    bounded size.

    The rule doubles from _FIRST_NODES nodes per axis (and per piece) until
    two successive rules agree to epsrel on every batch, and the finer one is
    returned; QuadratureError is raised when that needs a rule finer than the
    node cap.  The standard error comes from the spread of the disjoint trial
    batches.
    """
    if params.r > n - 1:
        raise ValueError("the expected-count integral needs r <= n - 1")
    if which not in ("total", "max"):
        raise ValueError(f'which must be "total" or "max", got {which!r}')
    if inner_trials < batches:
        raise ValueError("inner_trials must be at least the number of batches")

    r = params.r
    windows = list(overlap_windows) if overlap_windows is not None else [None] * r
    if len(windows) != r:
        raise ValueError(f"need {r} overlap windows, got {len(windows)}")
    psi_ranges = []
    for win in windows:
        lo, hi = (-1.0, 1.0) if win is None else win
        lo, hi = max(lo, -1.0), min(hi, 1.0)
        psi_ranges.append((math.asin(lo), math.asin(hi)))

    lam_sum = sum(params.lam)
    if value_window is None:
        value_window = (-lam_sum - 9.0, lam_sum + 9.0)
    x_lo, x_hi = value_window

    m_dim = n - 1
    root = math.sqrt(n / (n - 1))

    # one GOE(n-1) draw per inner trial, shared across all quadrature nodes
    def draw(t: int) -> np.ndarray:
        rng = np.random.default_rng((seed, t))
        a = rng.normal(size=(m_dim, m_dim))
        return (a + a.T) / math.sqrt(2.0 * m_dim)

    per_batch = inner_trials // batches
    ws = np.stack([draw(t) for t in range(per_batch * batches)])
    spiked = np.arange(r)

    def value_integrals(m: np.ndarray, xi: np.ndarray, wi: np.ndarray) -> np.ndarray:
        """Per draw, the value-axis integral of exp(n s) |det H| at overlap m."""
        s_at = s_func(params, m, np.array([-1.0, 0.0, 1.0]))
        if not np.all(np.isfinite(s_at)):
            return np.zeros(len(ws))
        # s(x) is quadratic and the Hessian shift root * t(x) = a + b x is
        # affine and rising in x
        s0, s1, s2 = s_at[1], 0.5 * (s_at[2] - s_at[0]), 0.5 * (s_at[2] + s_at[0]) - s_at[1]
        a, b = root * t_func(params, m, np.array([0.0, 1.0]))
        b -= a
        hs = ws.copy()
        hs[:, spiked, spiked] += root * spike_eigenvalues(params, m)
        mu = np.linalg.eigvalsh(hs)
        kinks = np.clip((mu - a) / b, x_lo, x_hi)
        edges = np.concatenate(
            [np.full((len(ws), 1), x_lo), kinks, np.full((len(ws), 1), x_hi)], axis=1
        )
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
        axes = [_gauss_legendre(nodes, lo, hi) for lo, hi in psi_ranges]
        xi, wi = np.polynomial.legendre.leggauss(nodes)
        sums = np.zeros(len(ws))
        for combo in itertools.product(range(nodes), repeat=r):
            psis = np.array([axes[i][0][j] for i, j in enumerate(combo)])
            m = np.sin(psis)
            alpha = float(m @ m)
            if alpha >= 1.0 - 1e-13:
                continue
            jac = math.prod(axes[i][1][j] for i, j in enumerate(combo))
            jac *= math.prod(np.cos(psis)) * (1.0 - alpha) ** (-0.5 * (r + 2))
            sums += jac * value_integrals(m, xi, wi)
        return c_constant(n, r, params.p) * sums.reshape(batches, per_batch).mean(axis=1)

    nodes = _FIRST_NODES
    coarse = rule(nodes)
    while (2 * nodes) ** (r + 1) <= _MAX_TENSOR_NODES:
        nodes *= 2
        fine = rule(nodes)
        diff = np.abs(fine - coarse)
        scale = np.abs(fine)
        rel_gap = float(np.max(np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0.0)))
        if np.all(diff <= np.maximum(epsrel * scale, 1e-12)):
            break
        coarse = fine
    else:
        raise QuadratureError(
            f"Gauss rules up to {nodes} nodes per axis still differ beyond epsrel = {epsrel}"
        )

    value = float(np.mean(fine))
    se = float(np.std(fine, ddof=1)) / math.sqrt(batches) if batches > 1 else math.nan
    extras = {
        "underflow_trials": 0,
        "batches": batches,
        "quadrature_nodes": nodes,
        "quadrature_rel_gap": rel_gap,
    }
    return MCEstimate(value, se, inner_trials, seed, extras)
