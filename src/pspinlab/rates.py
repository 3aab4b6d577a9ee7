"""Large-deviation rates for the largest eigenvalue of a finite-rank spiked GOE
matrix, and the local-maxima complexity built on top of them.

All rates are at speed N with the bulk spectrum normalized to [-2, 2].  A
spike of size gamma detaches an eigenvalue at gamma + 1/gamma once gamma > 1;
below that it is invisible at this scale.  Every function here is closed form:
sigma_max_projected maximizes piece by piece through the roots of a
quadratic, with no numerical search, over a stack of overlap points in
slices of at most 4,096 rows.  i_gamma, i_max, big_l, big_l_left and
sigma_max_joint broadcast as in core, through one body each: for one
spectrum (a sequence) and a float t or x, i_gamma, i_max, big_l and
big_l_left run on Python floats and never import numpy.  numpy loads with
an array argument, and numpy and spikes in the sigma_max functions, which
diagonalize the spike perturbation.  Quadrature and scalar searches appear only in the test
oracles.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from . import _LAZY
from .core import (
    ModelParams,
    _along,
    _any,
    _Profile,
    _joint,
    _points,
    _profile_parts,
    _row,
    _scalar,
    _select,
    edge_area,
    phi_star,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [name for name, home in _LAZY.items() if home == "rates"]

INF = float("inf")
# Rows of a stack that sigma_max_projected takes in one slice.  Its
# candidate arrays, (rows, r + 1) and wider, cost about 1.3 KB a row at
# r = 2 and 2.2 KB at r = 4 (peak RSS of a 300 x 300 grid in one pass), so
# a slice holds them to about 10 MB.
_SLICE = 4096


def i_goe(x: float | np.ndarray) -> float | np.ndarray:
    """Rate for the largest eigenvalue of an unspiked GOE matrix to sit at x:
    i_max with no spike.

    +inf below the bulk edge: at this speed the top eigenvalue cannot be
    pushed under 2.  x is a float or an array.
    """
    return i_max((), x)


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


def i_gamma(gamma: float | np.ndarray, x: float | np.ndarray) -> float | np.ndarray:
    """Rate for the top eigenvalue of a GOE matrix with one supercritical
    spike (gamma >= 1) to sit at x.  Zero exactly at the typical location
    gamma + 1/gamma; the smooth continuation below it is what enters i_max.
    +inf below the bulk edge and at x = +inf.  gamma and x are floats or
    arrays that broadcast together.
    """
    if _any(gamma < 1):
        raise ValueError(f"i_gamma requires gamma >= 1, got {gamma}")
    # at x = +inf the terms below are inf - inf; both ends are applied last
    off = (x < 2) | (x == INF)
    x = _select(off, 2.0, x)
    e = gamma + 1.0 / gamma
    value = (
        0.25 * (edge_area(x) - edge_area(e))
        - 0.5 * gamma * (x - e)
        + 0.125 * (x * x - e * e)
    )
    # the rate is >= 0; near x = e = 2 the three terms cancel to -1e-16
    # noise, which becomes 0.0 as -0.0 does, while NaN stays NaN
    value = _select(value <= 0.0, 0.0, value)
    return _scalar(_select(off, INF, value))


def _descending(gamma) -> tuple:
    """The spikes of gamma, leading one first: r floats for one spectrum of
    shape (r,), read without numpy, or the r columns of a stack (N, r).
    Checked free of NaN, which passes every ordering test, and
    non-increasing along each spectrum."""
    spikes = _row(gamma)
    if spikes is None:
        import numpy as np

        spikes = np.asarray(gamma, dtype=float).T
    if any(_any(g != g) for g in spikes) or any(_any(a < b) for a, b in zip(spikes, spikes[1:])):
        raise ValueError(f"gamma must be free of NaN and non-increasing, got {gamma}")
    return tuple(spikes)


def i_max(gamma: Sequence[float], x: float | np.ndarray) -> float | np.ndarray:
    """Rate for the largest eigenvalue of the spiked matrix to sit at x.

    Supercritical spikes contribute their individual rates, each switched off
    once x passes its typical location, except the leading one which always
    counts: below the leading location g_1 + 1/g_1 that sum is big_l, at or
    above it only i_gamma(g_1, x) is left.  With only subcritical spikes the
    pure GOE rate applies up to the leading typical location and a tilted
    branch beyond it.  Entries <= 0 are inert.  +inf below the bulk edge
    and at x = +inf.  gamma is one non-increasing spectrum (r,); x is a
    float or an array.
    """
    gamma = _descending(gamma)
    g1 = gamma[0] if gamma else 0.0
    # edge_area needs x >= 2, and at x = +inf the branches are inf - inf;
    # both ends are applied last
    off = (x < 2) | (x == INF)
    xe = _select(off, 2.0, x)
    if g1 >= 1.0:
        value = _select(x < g1 + 1.0 / g1, big_l(gamma, xe), i_gamma(g1, xe))
    elif g1 > 0.0:
        tilted = (
            0.25 * edge_area(xe)
            + 0.125 * xe * xe
            - 0.5 * g1 * xe
            + 0.25
            + 0.5 * math.log(g1)
            + 0.25 * g1 * g1
        )
        value = _select(xe <= g1 + 1.0 / g1, 0.5 * edge_area(xe), tilted)
    else:
        value = 0.5 * edge_area(xe)
    return _scalar(_select(off, INF, value))


def big_l(gamma: Sequence[float] | np.ndarray, t) -> float | np.ndarray:
    """Rate for the largest eigenvalue to fall at or below t.

    Only supercritical spikes whose typical location exceeds t have to be
    pushed down, and their costs add.  +inf below the bulk edge, including
    when no spike is supercritical.  gamma is one spectrum (r,) with t a
    float or an array, or a stack (N, r) with t an array whose leading axis
    runs over its rows; each spectrum must be non-increasing.
    """
    total = 0.0
    for g in _descending(gamma):  # one spike at a time, over every spectrum
        # a subcritical spike counts as gamma = 1, pushed only below the edge
        (g,) = _along(t, _select(g < 1.0, 1.0, g))
        pushed = g + 1.0 / g > t
        if _any(pushed):
            total = total + _select(pushed, i_gamma(g, t), 0.0)
    return _scalar(_select(t < 2, INF, total))


def big_l_left(gamma: Sequence[float] | np.ndarray, t) -> float | np.ndarray:
    """Left limit of big_l: the rate for a strict fall below t.

    Differs from big_l only at the bulk edge, where strict confinement below
    2 is impossible at this speed.  gamma and t broadcast as in big_l.
    """
    return _scalar(_select(t <= 2, INF, big_l(gamma, t)))


def sigma_max_joint(params: ModelParams, m: Sequence[float] | np.ndarray, x) -> float | np.ndarray:
    """Exponential growth rate of the expected number of local maxima with
    overlap profile m and value near x.

    Equals the critical-point exponent minus the cost of confining the
    perturbed Hessian spectrum below the shift t(m, x); -inf wherever that
    confinement has infinite cost (t below the bulk edge) or off-domain.
    m and x broadcast as in sigma_tot_joint.
    """
    import numpy as np

    from .spikes import spike_eigenvalues

    prof = _profile_parts(params, m)
    # the spectrum is defined where every |m_i| < 1, which 0 < alpha < 1 implies
    gam = spike_eigenvalues(params, np.where(np.asarray(prof.inside)[..., None], m, 0.0))
    return _scalar(_sigma_max(params, prof, gam, x))


def _sigma_max(params: ModelParams, prof: _Profile, gam: np.ndarray, x):
    """sigma_max_joint at values x, from the _Profile of the points and
    their spike spectrum gam (one per point)."""
    _, s, t = _joint(params, prof, x)
    return _select(s == -INF, s, s - big_l(gam, t))


def sigma_max_projected(params: ModelParams, m: Sequence[float] | np.ndarray) -> float | np.ndarray:
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
    breakpoint or at a stationary point inside its piece.  A float for one
    point of shape (r,), an array of length N for a stack (N, r).  A stack
    is taken in slices of at most _SLICE rows, which bounds the memory of
    the candidate arrays whatever N is; each point's value depends on that
    point alone, so slicing keeps its bits.
    """
    import numpy as np

    pts = _points(params, m)
    if pts.ndim == 1:
        return _scalar(_sigma_max_sup(params, pts))
    out = np.empty(len(pts))
    for lo in range(0, len(pts), _SLICE):
        out[lo : lo + _SLICE] = _sigma_max_sup(params, pts[lo : lo + _SLICE])
    return out


def _sigma_max_sup(params: ModelParams, pts: np.ndarray) -> np.ndarray:
    """sigma_max_projected of one point (r,) as a 0-d array, or of a stack
    (N, r) as an array of length N.  The points inside the domain are
    profiled and diagonalized once, as rows (a boolean mask makes one point
    a row), pad their breakpoints to r + 1, and all take one pass of the
    sigma_max_joint body."""
    import numpy as np

    from .spikes import spike_eigenvalues

    prof = _profile_parts(params, pts)
    inside = prof.inside
    prof = _Profile(*(np.asarray(v)[inside] for v in prof))
    pts, tau, shift = pts[inside], prof.tau, prof.shift
    p = params.p
    c = math.sqrt(2 * p / (p - 1))
    gam = spike_eigenvalues(params, pts)
    sup = gam > 1.0
    # subcritical spikes pad the breakpoints with +inf, which sorts them last
    typical = np.where(sup, gam + 1.0 / np.where(sup, gam, 1.0), INF)
    breaks = np.sort(np.concatenate([np.full((len(pts), 1), 2.0), typical], axis=1), axis=1)
    ends = np.concatenate([breaks[:, 1:], np.full((len(pts), 1), INF)], axis=1)

    ts = list(np.where(breaks < INF, breaks, math.nan).T)
    for lo, hi in zip(breaks.T, ends.T):
        above = sup & (typical >= hi[:, None])
        count = np.sum(above, axis=1)
        a, b = 0.5 - (p - 1) / p - 0.25 * count, 0.5 + 0.25 * count
        # the sum of the spikes above, added in order
        d = 2.0 * tau / c + 0.5 * np.cumsum(np.where(above, gam, 0.0), axis=1)[:, -1]
        # positive root, in the form free of cancellation when a d < 0
        q = 4.0 * b * b + d * d
        t = q / (np.sqrt(a * a * d * d + (b * b - a * a) * q) - a * d)
        ts.append(np.where((a * t + d >= 0.0) & (lo < t) & (t < hi), t, math.nan))
    x = shift[:, None] + np.stack(ts, axis=1) / c
    # rounding may land the edge t = 2 just inside the bulk, where the
    # objective is -inf; step up to the first x that maps to t >= 2
    # (c * (x - shift) is t_func(params, m, x))
    while (low := c * (x - shift[:, None]) < 2.0).any():
        x = np.where(low, np.nextafter(x, INF), x)
    out = np.full(np.shape(inside), -INF)
    # fmax skips the NaN of unused candidates
    out[inside] = np.fmax.reduce(_sigma_max(params, prof, gam, x), axis=1, initial=-INF)
    return out
