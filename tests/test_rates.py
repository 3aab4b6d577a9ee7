"""Large-deviation rate functions for the extreme eigenvalue."""
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from pspinlab import (
    ModelParams,
    big_l,
    big_l_left,
    edge_area,
    i_gamma,
    i_goe,
    i_max,
    j_coupling,
    sigma_max_joint,
    sigma_max_projected,
    sigma_tot_joint,
    sigma_tot_projected,
    spike_eigenvalues,
    t_func,
    y_shift,
)

INF = float("inf")


def test_i_goe_values():
    assert i_goe(2.0) == 0.0
    assert i_goe(3.0) == pytest.approx(0.7146273330, abs=1e-9)
    assert i_goe(3.0) == pytest.approx(0.5 * edge_area(3.0), abs=1e-14)
    assert i_goe(1.9) == INF


def test_i_goe_takes_arrays():
    x = np.array([1.9, 2.0, 2.5, 3.0, 7.25, INF])
    assert i_goe(x).tolist() == [i_goe(v) for v in x.tolist()]
    assert i_goe(x).tolist() == i_max((), x).tolist()


@pytest.mark.parametrize(
    "gamma",
    [
        (math.nan,),
        (2.0, math.nan),
        (math.nan, 0.5),
        np.array([[2.0, 1.0], [math.nan, 0.5]]),
        np.array([[2.0, math.nan], [1.5, 0.5]]),
        [[2.0, 1.0], [1.5, math.nan]],
    ],
)
def test_rates_reject_nan_spike(gamma):
    # NaN passes the ordering test, and i_max would return the unspiked rate
    for rate in (i_max, big_l, big_l_left):
        with pytest.raises(ValueError):
            rate(gamma, 2.5)


def test_j_coupling_values():
    assert j_coupling(2.0, 3.0) == pytest.approx(3.2714801524, abs=1e-9)
    assert j_coupling(1.0, 2.0) == pytest.approx(0.5, abs=1e-12)
    # below the coupling threshold the quadratic branch takes over
    assert j_coupling(0.1, 2.05) == pytest.approx(0.005, abs=1e-12)


def test_i_gamma_values():
    assert i_gamma(1.0, 3.0) == pytest.approx(0.4823136665, abs=1e-9)
    assert i_gamma(2.0, 3.0) == pytest.approx(0.0788872568, abs=1e-9)
    assert i_gamma(1.5, 2.0) == pytest.approx(0.0152325541, abs=1e-9)
    assert i_gamma(1.7, 1.9) == INF


@settings(max_examples=200, deadline=None)
@given(st.floats(1.0, 4.0))
def test_i_gamma_zero_at_outlier(gamma):
    edge = gamma + 1.0 / gamma
    assert i_gamma(gamma, edge) == 0.0


@settings(max_examples=100, deadline=None)
@given(st.floats(1.0, 4.0), st.floats(2.0, 8.0))
def test_i_gamma_nonnegative(gamma, x):
    assert i_gamma(gamma, x) >= 0.0


def _i_gamma_60(gamma: float, x: float) -> float:
    """i_gamma at 60 digits from the exact doubles gamma and x, rounded to a
    float, or +inf past the float range."""
    with mpmath.workdps(60):
        g, x = mpmath.mpf(gamma), mpmath.mpf(x)
        e = g + 1 / g

        def area(y):
            s = mpmath.sqrt(y * y - 4)
            return y * s / 2 - 2 * mpmath.log((y + s) / 2)

        value = (area(x) - area(e)) / 4 - g * (x - e) / 2 + (x * x - e * e) / 8
        return float(value) if value <= sys.float_info.max else INF


@pytest.mark.parametrize("gamma, x, want", [
    (1.5e154, 2.5, 5.625e307),
    (2e154, 2.5, 1e308),
    (2.6e154, 2.5, 1.69e308),
    (2.7e154, 2.5, INF),
    (1e200, 2.5, INF),
    (1.5e154, 1e154, 6.25e306),
    (1e200, 1e201, INF),
    (2.0, 1.5e154, 5.625e307),
])
def test_i_gamma_huge_spike_matches_mpmath(gamma, x, want):
    # e * e (and from 1.5e154 on x * x) overflows; the rate is finite up to
    # the float range and +inf past it, never 0 or NaN
    assert _i_gamma_60(gamma, x) == pytest.approx(want, rel=1e-12)
    with np.errstate(over="ignore"):
        stack = i_gamma(np.array([gamma, 1.5]), np.array([x, 2.5]))
    for got in (i_gamma(gamma, x), float(stack[0])):
        assert got == pytest.approx(_i_gamma_60(gamma, x), rel=1e-12)
    assert stack[1] == i_gamma(1.5, 2.5)


def test_i_max_frozen():
    assert i_max((0.5,), 3.0) == pytest.approx(0.6982400762, abs=1e-9)


def test_i_max_subcritical_branch_continuity():
    gam = (0.5,)
    edge = 0.5 + 2.0
    below = i_max(gam, edge - 1e-9)
    above = i_max(gam, edge + 1e-9)
    assert below == pytest.approx(above, abs=1e-7)
    # below the crossover the spike is irrelevant
    assert i_max(gam, 2.2) == pytest.approx(i_goe(2.2), abs=1e-14)


def test_i_max_zero_at_top_outlier():
    for gam in ((1.5, 0.5), (2.0,), (1.2, 1.1, 1.05)):
        edge = gam[0] + 1.0 / gam[0]
        assert i_max(gam, edge) == pytest.approx(0.0, abs=1e-14)


def test_i_max_unit_lead_below_edge():
    # with g_1 = 1 the leading location is the edge itself, so x < 2 must
    # stay +inf and x = 2 is the zero of i_gamma(1, .)
    assert i_max((1.0,), 1.5) == INF
    assert i_max((1.0, 0.5), 1.999) == INF
    assert i_max((1.0,), 2.0) == 0.0
    xs = np.array([1.0, 1.999, 2.0, 2.5])
    got = i_max((1.0, 0.5), xs)
    assert got.tolist() == [INF, INF, 0.0, i_gamma(1.0, 2.5)]
    assert got.tolist() == [i_max((1.0, 0.5), float(x)) for x in xs]


def test_i_max_requires_sorted():
    with pytest.raises(ValueError):
        i_max((0.5, 1.5), 3.0)


def test_big_l_values():
    assert big_l((1.5, 0.5), 2.0) == pytest.approx(0.0152325541, abs=1e-9)
    assert big_l((2.0,), 2.5) == 0.0
    assert big_l((2.0,), 2.4) == pytest.approx(i_gamma(2.0, 2.4), abs=1e-15)
    assert big_l((1.5, 0.5), 1.5) == INF
    assert big_l((), 1.0) == INF
    assert big_l((), 2.5) == 0.0


def test_big_l_left_step():
    # the rate is continuous above the bulk edge and jumps only at t = 2
    gam = (2.0,)
    edge = 2.5
    assert big_l(gam, edge) == 0.0
    assert big_l_left(gam, edge) == 0.0
    assert big_l_left(gam, 2.2) == pytest.approx(big_l(gam, 2.2), abs=1e-15)
    assert big_l(gam, 2.0) > 0.0
    assert big_l_left(gam, 2.0) == INF
    assert big_l_left((1.0,), 2.0) == INF


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.floats(0.05, 3.0), min_size=1, max_size=3),
    st.floats(2.0, 6.0),
)
def test_big_l_is_infimum_of_i_max(gam, t):
    gam = tuple(sorted(gam, reverse=True))
    want = big_l(gam, t)
    xs = np.linspace(2.0, t, 600)
    vals = i_max(gam, xs)
    best = min(vals)
    j = int(np.argmin(vals))
    lo = xs[max(0, j - 1)]
    hi = xs[min(len(xs) - 1, j + 1)]
    if hi > lo:
        ref = minimize_scalar(
            lambda x: i_max(gam, float(x)),
            bounds=(float(lo), float(hi)),
            method="bounded",
            options={"xatol": 1e-13},
        )
        best = min(best, float(ref.fun))
    assert best == pytest.approx(want, abs=1e-8)


def test_sigma_max_below_sigma_tot():
    params = ModelParams(p=3, r=2, k=(3, 3), lam=(2.0, 1.5))
    rng = np.random.default_rng(2)
    for _ in range(500):
        m = rng.uniform(0.02, 0.7, size=2)
        if m @ m >= 0.98:
            continue
        x = rng.uniform(-3.0, 3.0)
        st_ = sigma_tot_joint(params, m, x)
        sm = sigma_max_joint(params, m, x)
        assert sm <= st_ + 1e-12


def test_sigma_max_projected_matches_scan():
    cases = [
        (ModelParams(p=3, r=1, k=(3,), lam=(1.0,)), ([0.2], [0.5], [0.8])),
        (ModelParams(p=3, r=2, k=(3, 3), lam=(2.0, 1.5)), ([0.3, 0.4], [0.6, 0.3])),
        (ModelParams(p=4, r=3, k=(4, 3, 5), lam=(3.0, 2.0, 1.5)),
         ([0.5, 0.4, 0.3], [0.7, 0.5, 0.2])),
    ]
    xs = np.linspace(-6.0, 8.0, 20001)
    for params, points in cases:
        for m in points:
            proj = sigma_max_projected(params, m)
            best = max(sigma_max_joint(params, m, xs))
            assert best <= proj + 1e-9
            assert proj - best < 2e-3


def _sigma_max_brent(params, m):
    """Bounded scalar search on each piece between breakpoints: an
    independent lower bound for the exact per-piece maximum."""
    alpha = sum(float(v) ** 2 for v in m)
    if not 0.0 < alpha < 1.0:
        return -INF
    p = params.p
    gam = sorted((float(v) for v in spike_eigenvalues(params, m)), reverse=True)
    scale = math.sqrt((p - 1) / (2.0 * p))
    base = -y_shift(params, m, 0.0)
    breaks = [2.0] + [g + 1.0 / g for g in gam if g > 1.0]
    xs = sorted(base + t * scale for t in breaks)
    lam1 = params.lam[0] if params.lam else 0.0
    hi = max(params.r * lam1 * (p - 1) / (p - 2) + 10.0, xs[-1] + 10.0)
    best = sigma_max_joint(params, m, xs[0])
    edges = xs + [hi]
    for lo_x, hi_x in zip(edges[:-1], edges[1:]):
        if hi_x - lo_x < 1e-14:
            continue
        res = minimize_scalar(
            lambda x: -sigma_max_joint(params, m, x),
            bounds=(lo_x, hi_x),
            method="bounded",
            options={"xatol": 1e-12},
        )
        best = max(best, -res.fun, sigma_max_joint(params, m, hi_x))
    return best


@pytest.mark.parametrize(
    "params",
    [
        ModelParams(p=3, r=2, k=(3, 3), lam=(2.0, 1.5)),
        ModelParams(p=4, r=3, k=(4, 3, 5), lam=(3.0, 2.0, 1.5)),
    ],
)
def test_sigma_max_projected_slices_keep_bits(params):
    from pspinlab import rates

    # more than one slice, with signed rows and rows off the domain
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.8, 0.8, size=(rates._SLICE + 904, params.r))
    values = sigma_max_projected(params, pts)
    assert values.shape == (len(pts),)
    edge = np.arange(rates._SLICE - 40, rates._SLICE + 40)
    for i in np.concatenate([edge, rng.choice(len(pts), 40, replace=False)]).tolist():
        got = np.float64(sigma_max_projected(params, pts[i]))
        assert values[i].tobytes() == got.tobytes(), (i, pts[i])


def test_sigma_max_projected_above_brent_oracle():
    rng = np.random.default_rng(11)
    finite = 0
    for _ in range(600):
        p = int(rng.integers(3, 6))
        r = int(rng.integers(1, 4))
        k = tuple(int(v) for v in rng.integers(3, 6, size=r))
        lam = tuple(sorted(rng.uniform(0.0, 4.0, size=r), reverse=True))
        params = ModelParams(p=p, r=r, k=k, lam=lam)
        u = rng.uniform(0.0, 1.0, size=r)
        m = [float(v) for v in u * rng.uniform(0.2, 1.2) / math.sqrt(r)]
        got = sigma_max_projected(params, m)
        oracle = _sigma_max_brent(params, m)
        assert math.isfinite(got) == math.isfinite(oracle)
        if math.isfinite(got):
            finite += 1
            assert got >= oracle - 1e-12
            assert got <= sigma_tot_projected(params, m) + 1e-12
    assert finite >= 500


def test_sigma_max_projected_unspiked_sits_at_edge():
    # with no spikes the maximum is at the bulk edge t = 2; at p = 4 the
    # edge maps back to an x whose shift rounds to just below 2
    for p in (3, 4, 5):
        params = ModelParams(p=p, r=1, k=(p,), lam=(0.0,))
        for m in ([0.1], [0.5], [0.9]):
            x = 2.0 / math.sqrt(2 * p / (p - 1))
            while t_func(params, m, x) < 2.0:
                x = math.nextafter(x, INF)
            got = sigma_max_projected(params, m)
            assert math.isfinite(got)
            assert got == sigma_max_joint(params, m, x)
            closed = (0.5 * (math.log(p - 1) + 1) + 0.5 * math.log1p(-m[0] ** 2)
                      - 2 * (p - 1) / p + 0.5)
            assert got == pytest.approx(closed, abs=1e-13)


def test_sigma_max_equals_tot_at_unspiked_center():
    # with no spikes the maximizing shift sits below the spectrum edge
    params = ModelParams(p=3, r=1, k=(3,), lam=(0.0,))
    m = [0.3]
    assert sigma_max_projected(params, m) <= sigma_tot_projected(params, m) + 1e-12
