"""Monte Carlo laboratory for finite-rank spiked GOE matrices.

Samples follow the bulk-edge-2 normalization: off-diagonal variance 1/n,
diagonal variance 2/n, so the empirical spectrum converges to the semicircle
on [-2, 2] and a spike gamma > 1 detaches an eigenvalue near gamma + 1/gamma.

Determinism contract: every trial draws from its own RNG stream keyed by
(seed, trial index) and reductions run in trial order, so results are bitwise
identical across runs.  The estimators draw every trial into one buffer,
allocated once per call and overwritten by the next draw (see _draws); the
streams and the bits of each matrix are those of a fresh array per trial.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _LAZY
from .core import _libm

__all__ = [name for name, home in _LAZY.items() if home == "rmt"]


@dataclass(frozen=True)
class GOESpec:
    """A spiked, shifted GOE sampling plan: W + diag(gamma) - shift * I."""

    n: int
    gamma: tuple[float, ...] = ()
    shift: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if len(self.gamma) > self.n:
            raise ValueError("more spikes than matrix dimensions")
        if not all(map(math.isfinite, (*self.gamma, self.shift))):
            raise ValueError(f"gamma and shift must be finite, got {self.gamma}, {self.shift}")


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo estimate with its standard error and diagnostics; the
    trials and seed that made it are the caller's inputs."""

    value: float
    std_error: float
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SpectralSample:
    """Eigenvalues of one sampled matrix, sorted ascending."""

    eigenvalues: np.ndarray
    spec: GOESpec


def _draws(spec: GOESpec, trials: Iterable[int]) -> Iterator[np.ndarray]:
    """W + diag(gamma) - shift * I for each trial index, from the stream
    (seed, trial), drawn into one buffer allocated per call.

    Every draw yields the same array, overwritten by the next one: a caller
    uses each matrix before it asks for the next, or copies it.  Each entry
    is (a_ij + a_ji) / sqrt(2n), then the spikes are added to the diagonal
    and the shift subtracted: the operations and the order of fresh arrays,
    so the bits are theirs, and only the pages are reused.
    """
    n = spec.n
    a = np.empty((n, n))
    w = np.empty((n, n))
    diag = w.reshape(-1)[:: n + 1]  # a view of w's diagonal
    gamma = np.asarray(spec.gamma)
    r = len(gamma)
    scale = math.sqrt(2.0 * n)
    for trial in trials:
        np.random.default_rng((spec.seed, trial)).standard_normal(out=a)
        np.add(a, a.T, out=w)
        w /= scale
        if r:
            diag[:r] += gamma
        if spec.shift != 0.0:
            diag -= spec.shift
        yield w


def _goe(n: int, seed: int, trial: int) -> np.ndarray:
    """One bulk-normalized GOE(n) matrix from the stream (seed, trial), as
    an array of its own."""
    return next(_draws(GOESpec(n=n, seed=seed), (trial,))).copy()


def sample_spectrum(spec: GOESpec) -> SpectralSample:
    """Draw one matrix from the plan and return its ordered spectrum."""
    return SpectralSample(eigenvalues=np.linalg.eigvalsh(next(_draws(spec, (0,)))), spec=spec)


def _log_mean_exp(logs: np.ndarray) -> tuple[float, float, dict]:
    """log of the mean of exp(logs), the delta-method SE of that log, and the
    weight diagnostics of the mean.

    With u = exp(logs - max), the diagnostics are the effective sample size
    ess = (sum u)^2 / sum u^2, the largest weight's share max u / sum u, and
    low_ess = ess < 0.1 * len(logs), which flags an error bar carried by a
    few trials.  Handles -inf entries (they contribute zero mass).  Returns
    (-inf, nan) with ess 0 and a NaN share when every entry underflows.
    """
    trials = len(logs)
    m = float(np.max(logs))
    if m == float("-inf"):
        return float("-inf"), math.nan, {"ess": 0.0, "max_weight_share": math.nan, "low_ess": True}
    u = np.exp(logs - m)
    mean_u = float(np.mean(u))
    log_mean = m + math.log(mean_u)
    if trials > 1:
        se_u = float(np.std(u, ddof=1)) / math.sqrt(trials)
        se_log = se_u / mean_u
    else:
        se_log = math.nan
    total = float(np.sum(u))
    ess = total * total / float(np.sum(u * u))
    # the largest weight is exp(0) = 1
    weights = {"ess": ess, "max_weight_share": 1.0 / total, "low_ess": ess < 0.1 * trials}
    return log_mean, se_log, weights


def mc_log_abs_det(spec: GOESpec, trials: int) -> MCEstimate:
    """(1/n) log E|det| of the sampled matrix, by direct Monte Carlo.

    Each trial's log|det| is the sum of log|pivot| of one LU factorization
    (np.linalg.slogdet); no eigenvalues are computed.  The expectation is of
    |det| itself, not of its log, so the estimate is a log-mean-exp over the
    per-trial values with a delta-method error bar; extras carry its weight
    diagnostics (see _log_mean_exp).  All-trial underflow gives -inf with a
    NaN std_error and the all_underflow flag rather than an exception.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    logs = np.array([np.linalg.slogdet(w)[1] for w in _draws(spec, range(trials))])
    underflow = int(np.sum(np.isneginf(logs)))
    log_mean, se_log, weights = _log_mean_exp(logs)
    extras = {"underflow_trials": underflow, "all_underflow": underflow == trials, **weights}
    return MCEstimate(log_mean / spec.n, se_log / spec.n, extras)


def _log_abs_det_negative_definite(m: np.ndarray) -> float:
    """log|det m| when m is negative definite, else -inf.

    One Cholesky factorization L L^T of -m: it succeeds exactly when -m is
    positive definite, and then log|det m| = 2 sum log diag(L).
    """
    try:
        chol = np.linalg.cholesky(-m)
    except np.linalg.LinAlgError:
        return float("-inf")
    return 2.0 * float(np.sum(np.log(np.diagonal(chol))))


def mc_restricted_det(spec: GOESpec, trials: int) -> MCEstimate:
    """(1/n) log E[|det| restricted to negative definite samples].

    A draw M is accepted when it is negative definite (Cholesky of -M
    succeeds), and that factorization also gives its log|det|; no
    eigenvalues are computed.  A negative-semidefinite test would differ
    only on draws with top eigenvalue exactly 0, a set of probability zero
    whose log|det| is -inf, so such a draw adds zero mass either way.  The
    estimator is mc_log_abs_det's with rejected trials contributing zero
    mass; the acceptance fraction and the weight diagnostics ride along in
    extras.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    logs = np.array([_log_abs_det_negative_definite(w) for w in _draws(spec, range(trials))])
    accepted = int(np.sum(np.isfinite(logs)))
    log_mean, se_log, weights = _log_mean_exp(logs)
    extras = {
        "acceptance_fraction": accepted / trials,
        "accepted_trials": accepted,
        "all_rejected": accepted == 0,
        **weights,
    }
    return MCEstimate(log_mean / spec.n, se_log / spec.n, extras)


def mc_lambda_max_tail(spec: GOESpec, trials: int, t: float) -> MCEstimate:
    """(1/n) log of the empirical probability that the top eigenvalue is <= t.

    extras carry the raw tail probability and the location statistics of the
    top eigenvalue.  An empty tail is reported as -inf with a flag.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")

    tops = np.array([np.linalg.eigvalsh(w)[-1] for w in _draws(spec, range(trials))])
    hits = int(np.sum(tops <= t))
    prob = hits / trials
    extras = {
        "tail_probability": prob,
        "mean_lambda_max": float(np.mean(tops)),
        "std_lambda_max": float(np.std(tops, ddof=1)) if trials > 1 else math.nan,
        "empty_tail": hits == 0,
    }
    n = spec.n
    if hits == 0:
        return MCEstimate(float("-inf"), math.nan, extras)
    se_prob = math.sqrt(prob * (1 - prob) / trials)
    return MCEstimate(math.log(prob) / n, se_prob / (prob * n), extras)


# ---------------------------------------------------------------------------
# distances between the empirical spectral distribution and the semicircle

def _semicircle_cdf(x):
    x = np.clip(x, -2.0, 2.0)
    return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi


def _semicircle_partial_mean(x):
    """Antiderivative in quantile space: d/dq of this, at q = F(x), is Q(q)."""
    x = np.clip(x, -2.0, 2.0)
    # the power goes through libm: numpy's SIMD ** 1.5 on arrays differs from
    # its scalar form in the last ulps
    return -_libm(pow, 4.0 - x * x, 1.5) / (6.0 * np.pi)


def _semicircle_quantile(q: np.ndarray) -> np.ndarray:
    """Semicircle quantiles of an array of levels, by 80 bisection steps each."""
    lo = np.full(q.shape, -2.0)
    hi = np.full(q.shape, 2.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = _semicircle_cdf(mid) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _w1_to_semicircle(ev: np.ndarray) -> float:
    """Exact Wasserstein-1 distance from the empirical measure to the
    semicircle, via the quantile coupling.

    Each block [i/n, (i+1)/n] is split where the semicircle quantile crosses
    the i-th eigenvalue, and both halves integrate in closed form.  The
    quantiles of all 3n block ends and split points are found in one array
    bisection; the blocks are summed in order.
    """
    ev = np.sort(np.asarray(ev, dtype=float))
    n = len(ev)
    a = np.arange(n) / n
    b = np.arange(1, n + 1) / n
    qc = np.minimum(np.maximum(_semicircle_cdf(ev), a), b)
    xa, xb, xc = _semicircle_quantile(np.concatenate([a, b, qc])).reshape(3, n)
    xa = np.where(a > 0.0, xa, -2.0)
    xb = np.where(b < 1.0, xb, 2.0)
    xc = np.where((0.0 < qc) & (qc < 1.0), xc, np.where(qc >= 1.0, 2.0, -2.0))
    ma, mb, mc = _semicircle_partial_mean(np.stack([xa, xb, xc]))
    left = ev * (qc - a) - (mc - ma)
    right = (mb - mc) - ev * (b - qc)
    total = 0.0
    for v in (left + right).tolist():
        total += v
    return total


def _tent_semicircle_integral(c: float, w: float, amp: float) -> float:
    """Closed-form integral of amp * max(0, 1 - |x - c|/w) against the semicircle."""
    F, M = _semicircle_cdf, _semicircle_partial_mean
    lo, mid, hi = c - w, c, c + w
    left = (1.0 - c / w) * (F(mid) - F(lo)) + (M(mid) - M(lo)) / w
    right = (1.0 + c / w) * (F(hi) - F(mid)) - (M(hi) - M(mid)) / w
    return amp * float(left + right)


def esd_distance(spec: GOESpec) -> dict[str, float]:
    """Distances from one sampled empirical spectrum to the semicircle law.

    w1 is exact (quantile coupling in closed form).  d_bl is a lower bound on
    the bounded-Lipschitz distance obtained by maximizing over a fixed
    dictionary of tent functions with Lipschitz-plus-sup norm equal to one;
    a lower bound is all the acceptance checks need, and it keeps the
    computation quadrature-free.
    """
    ev = sample_spectrum(spec).eigenvalues
    w1 = _w1_to_semicircle(ev)
    d_bl = 0.0
    widths = (0.25, 0.5, 1.0, 2.0)
    centers = np.arange(-2.4, 2.45, 0.1)
    for w in widths:
        amp = w / (1.0 + w)
        for c in centers:
            emp = amp * float(np.mean(np.maximum(0.0, 1.0 - np.abs(ev - c) / w)))
            ref = _tent_semicircle_integral(float(c), w, amp)
            d_bl = max(d_bl, abs(emp - ref))
    return {"w1": w1, "d_bl": d_bl}


# Entries of the Gaussian draws that spherical_integral_mc factors in one
# stacked QR (512 KiB of float64).
_FRAME_ENTRIES = 1 << 16


def spherical_integral_mc(
    n: int,
    gamma: Sequence[float],
    diag: Sequence[float],
    trials: int,
    seed: int = 0,
) -> MCEstimate:
    """Monte Carlo estimate of the rank-r spherical integral
    E exp{(n/2) sum_i gamma_i <e_i, D e_i>} over Haar orthonormal frames.

    Frames come from QR of a Gaussian matrix with the sign convention that
    makes R's diagonal positive.  The mean is computed stably in log space;
    extras carry log_value and log_std_error for when the plain values
    overflow.  gamma and diag must be finite, as GOESpec requires of its
    spikes; a NaN or infinite entry raises ValueError.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gam = np.asarray(gamma, dtype=float)
    d = np.asarray(diag, dtype=float)
    if len(d) != n:
        raise ValueError(f"diag must have length n = {n}")
    if not (np.isfinite(gam).all() and np.isfinite(d).all()):
        raise ValueError(f"gamma and diag must be finite, got {list(gamma)}, {list(diag)}")
    r = len(gam)
    if r > n:
        raise ValueError("frame rank exceeds dimension")

    # each trial draws from its own stream; a chunk of trials shares one
    # stacked QR, sign fix and weighting, while the exponent stays a dot per
    # trial (a matrix product sums the r terms in another order at r >= 2)
    exps = np.empty(trials)
    chunk = max(1, _FRAME_ENTRIES // max(n * r, 1))
    for lo in range(0, trials, chunk):
        ts = range(lo, min(lo + chunk, trials))
        z = np.stack([np.random.default_rng((seed, t)).normal(size=(n, r)) for t in ts])
        q, rm = np.linalg.qr(z)
        q = q * np.sign(np.diagonal(rm, axis1=1, axis2=2))[:, None, :]
        quad = np.einsum("j,tji->ti", d, q * q)
        for i, t in enumerate(ts):
            exps[t] = 0.5 * n * np.dot(gam, quad[i])
    log_mean, se_log, weights = _log_mean_exp(exps)
    value = math.exp(log_mean) if log_mean < 700 else float("inf")
    se = value * se_log if math.isfinite(value) else float("inf")
    extras = {"log_value": log_mean, "log_std_error_of_log": se_log, **weights}
    return MCEstimate(value, se, extras)
