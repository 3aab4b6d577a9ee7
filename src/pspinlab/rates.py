"""Large-deviation rates for the largest eigenvalue of a finite-rank spiked GOE
matrix, and the local-maxima complexity built on top of them.

All rates are at speed N with the bulk spectrum normalized to [-2, 2].  A
spike of size gamma detaches an eigenvalue at gamma + 1/gamma once gamma > 1;
below that it is invisible at this scale.  Every function here is closed form:
sigma_max_projected maximizes piece by piece through the roots of a
quadratic, with no numerical search.  Quadrature and scalar searches appear
only in the test oracles.
"""
from __future__ import annotations

import math
from typing import Sequence

from .core import (
    ModelParams,
    _profile_parts,
    edge_area,
    phi_star,
    sigma_tot_joint,
    t_func,
)
from .spikes import spike_eigenvalues

__all__ = [
    "i_goe",
    "j_coupling",
    "i_gamma",
    "i_max",
    "big_l",
    "big_l_left",
    "sigma_max_joint",
    "sigma_max_projected",
]

INF = float("inf")


def i_goe(x: float) -> float:
    """Rate for the largest eigenvalue of an unspiked GOE matrix to sit at x.

    +inf below the bulk edge: at this speed the top eigenvalue cannot be
    pushed under 2.
    """
    if x < 2:
        return INF
    return 0.5 * edge_area(x)


def _stieltjes_edge(x: float) -> float:
    """Stieltjes transform of the semicircle law at x >= 2."""
    return 0.5 * (x - math.sqrt(x * x - 4))


def j_coupling(gamma: float, x: float) -> float:
    """Exponential tilt paid by a rank-one spike of size gamma for a top
    eigenvalue at x >= 2.  Saturates at gamma^2/2 once the tilt decouples."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if _stieltjes_edge(x) <= gamma:
        return gamma * x - 1 - math.log(gamma) - phi_star(x)
    return 0.5 * gamma * gamma


def i_gamma(gamma: float, x: float) -> float:
    """Rate for the top eigenvalue of a GOE matrix with one supercritical
    spike (gamma >= 1) to sit at x.  Zero exactly at the typical location
    gamma + 1/gamma; the smooth continuation below it is what enters i_max.
    +inf below the bulk edge.
    """
    if gamma < 1:
        raise ValueError(f"i_gamma requires gamma >= 1, got {gamma}")
    if x < 2:
        return INF
    e = gamma + 1.0 / gamma
    return (
        0.25 * (edge_area(x) - edge_area(e))
        - 0.5 * gamma * (x - e)
        + 0.125 * (x * x - e * e)
    )


def _split_spikes(gamma: Sequence[float]) -> tuple[list[float], list[float]]:
    """Validate descending order and split into supercritical / subcritical."""
    g = [float(v) for v in gamma]
    if any(g[i] < g[i + 1] for i in range(len(g) - 1)):
        raise ValueError(f"gamma must be sorted in non-increasing order, got {g}")
    sup = [v for v in g if v >= 1.0]
    sub = [v for v in g if 0.0 < v < 1.0]
    return sup, sub


def i_max(gamma: Sequence[float], x: float) -> float:
    """Rate for the largest eigenvalue of the spiked matrix to sit at x.

    Supercritical spikes contribute their individual rates, each switched off
    once x passes its typical location, except the leading one which always
    counts.  With only subcritical spikes the pure GOE rate applies up to the
    leading typical location and a tilted branch beyond it.  Entries <= 0 are
    inert.  +inf below the bulk edge.
    """
    sup, sub = _split_spikes(gamma)
    if x < 2:
        return INF
    if sup:
        total = i_gamma(sup[0], x)
        for g in sup[1:]:
            if x < g + 1.0 / g:
                total += i_gamma(g, x)
        return total
    if sub:
        g1 = sub[0]
        if x <= g1 + 1.0 / g1:
            return 0.5 * edge_area(x)
        return (
            0.25 * edge_area(x)
            + 0.125 * x * x
            - 0.5 * g1 * x
            + 0.25
            + 0.5 * math.log(g1)
            + 0.25 * g1 * g1
        )
    return 0.5 * edge_area(x)


def big_l(gamma: Sequence[float], t: float) -> float:
    """Rate for the largest eigenvalue to fall at or below t.

    Only supercritical spikes whose typical location exceeds t have to be
    pushed down, and their costs add.  +inf below the bulk edge, including
    when no spike is supercritical.
    """
    sup, _ = _split_spikes(gamma)
    if t < 2:
        return INF
    total = 0.0
    for g in sup:
        if g + 1.0 / g > t:
            total += i_gamma(g, t)
    return total


def big_l_left(gamma: Sequence[float], t: float) -> float:
    """Left limit of big_l: the rate for a strict fall below t.

    Differs from big_l only at the bulk edge, where strict confinement below
    2 is impossible at this speed.
    """
    if t <= 2:
        return INF
    return big_l(gamma, t)


def sigma_max_joint(params: ModelParams, m: Sequence[float], x: float) -> float:
    """Exponential growth rate of the expected number of local maxima with
    overlap profile m and value near x.

    Equals the critical-point exponent minus the cost of confining the
    perturbed Hessian spectrum below the shift t(m, x); -inf wherever that
    confinement has infinite cost (t below the bulk edge) or off-domain.
    """
    s = sigma_tot_joint(params, m, x)
    if s == float("-inf"):
        return s
    gam = sorted((float(v) for v in spike_eigenvalues(params, m)), reverse=True)
    return s - big_l(gam, t_func(params, m, x))


def sigma_max_projected(params: ModelParams, m: Sequence[float]) -> float:
    """sup over x of sigma_max_joint(m, x), solved exactly.

    In the Hessian shift t = t_func(m, x) = c (x - shift), c = sqrt(2p/(p-1)),
    the objective is finite only for t >= 2 and has breakpoints at 2 and at
    the typical locations e_g = g + 1/g of the supercritical spikes.  On a
    piece where K such spikes, of sum G, have e_g above t, its t-derivative
    is a t - b sqrt(t^2 - 4) + d with
        a = 1/2 - (p-1)/p - K/4,  b = 1/2 + K/4,  d = 2 tau / c + G/2,
    where tau is the effective shift of aux_statistics.
    Since b > |a| the piece is strictly concave, and its only stationary
    point is the positive root of (b^2 - a^2) t^2 - 2 a d t - (4b^2 + d^2),
    provided a t + d >= 0.  The supremum is therefore sigma_max_joint at a
    breakpoint or at a stationary point inside its piece.
    """
    alpha, _, _, tau, _, shift = _profile_parts(params, m)
    if not 0.0 < alpha < 1.0:
        return -INF
    p = params.p
    c = math.sqrt(2 * p / (p - 1))
    sup = [g for g in (float(v) for v in spike_eigenvalues(params, m)) if g > 1.0]
    breaks = sorted([2.0] + [g + 1.0 / g for g in sup])

    ts = list(breaks)
    for lo, hi in zip(breaks, breaks[1:] + [INF]):
        above = [g for g in sup if g + 1.0 / g >= hi]
        a = 0.5 - (p - 1) / p - 0.25 * len(above)
        b = 0.5 + 0.25 * len(above)
        d = 2.0 * tau / c + 0.5 * sum(above)
        # positive root, in the form free of cancellation when a d < 0
        q = 4.0 * b * b + d * d
        t = q / (math.sqrt(a * a * d * d + (b * b - a * a) * q) - a * d)
        if a * t + d >= 0.0 and lo < t < hi:
            ts.append(t)

    best = -INF
    for t in ts:
        x = shift + t / c
        # rounding may land the edge t = 2 just inside the bulk, where the
        # objective is -inf; step up to the first x that maps to t >= 2
        # (c * (x - shift) is t_func(params, m, x))
        while c * (x - shift) < 2.0:
            x = math.nextafter(x, INF)
        best = max(best, sigma_max_joint(params, m, x))
    return best
