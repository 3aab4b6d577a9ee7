"""Closed-form layer: frozen-value checks and structural properties, and the
inputs every library entry point refuses."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pspinlab import (
    GOESpec,
    ModelParams,
    RegimeLabel,
    appendix_diagnostics,
    aux_statistics,
    big_l,
    big_l_left,
    classify_regime,
    edge_area,
    eta_critical,
    f_ab,
    g_ab,
    i_gamma,
    i_max,
    j_coupling,
    kac_rice_eval,
    lambda_critical,
    mc_lambda_max_tail,
    mc_log_abs_det,
    mc_restricted_det,
    perturbation_factors,
    phi_star,
    s_func,
    sigma_max_joint,
    sigma_max_projected,
    sigma_tot_joint,
    sigma_tot_projected,
    spherical_integral_mc,
    spike_eigenvalues,
    t_func,
    tau_critical,
    y_shift,
    zero_locus_solve,
)
from pspinlab import core, rates, spikes
from pspinlab.core import _distinct, _libm, _profile_parts, _zero_conditions_hold

P31 = ModelParams(p=3, r=1, k=(3,), lam=(2.0,))
P32 = ModelParams(p=3, r=2, k=(3, 3), lam=(2.0, 1.5))


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(p=2, r=1, k=(3,), lam=(1.0,))
    with pytest.raises(ValueError):
        ModelParams(p=3, r=1, k=(2,), lam=(1.0,))
    with pytest.raises(ValueError):
        ModelParams(p=3, r=2, k=(3, 3), lam=(1.0,))
    with pytest.raises(ValueError):
        ModelParams(p=3, r=2, k=(3, 3), lam=(1.0, 2.0))
    with pytest.raises(ValueError):
        ModelParams(p=3, r=1, k=(3,), lam=(-0.5,))
    # NaN passes every ordering test, inf the sign test
    for lam in ((math.inf,), (math.nan,), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            ModelParams(p=3, r=len(lam), k=(3,) * len(lam), lam=lam)


def test_params_immutable_equal_hashable_and_always_checked():
    import copy
    import pickle

    params = ModelParams(p=3, r=2, k=(3.0, np.int64(4)), lam=(2, np.float64(1.5)))
    assert params.k == (3, 4) and all(type(v) is int for v in params.k)
    assert params.lam == (2.0, 1.5) and all(type(v) is float for v in params.lam)
    for name in ("p", "r", "k", "lam", "other"):
        with pytest.raises(AttributeError):
            setattr(params, name, 5)
        with pytest.raises(AttributeError):
            delattr(params, name)
    twin = ModelParams(p=3, r=2, k=[3, 4], lam=[2.0, 1.5])
    assert twin == params and hash(twin) == hash(params)
    assert twin != ModelParams(p=3, r=2, k=(3, 4), lam=(2.0, 1.0))
    assert params != (3, 2, (3, 4), (2.0, 1.5))
    assert repr(params) == "ModelParams(p=3, r=2, k=(3, 4), lam=(2.0, 1.5))"
    for clone in (copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
        assert clone == params and clone is not params
    # copies and unpickling rebuild through the constructor, so the checks
    # of test_params_validation hold on every public way of building one
    build, fields = params.__reduce__()
    assert build(*fields) == params
    for i, bad in ((0, 2), (2, (2, 4)), (3, (1.0, 2.0)), (3, (math.nan, 1.0))):
        with pytest.raises(ValueError):
            build(*fields[:i], bad, *fields[i + 1:])


def test_phi_star_values():
    assert phi_star(0.0) == pytest.approx(-0.5, abs=1e-15)
    assert phi_star(2.0) == pytest.approx(0.5, abs=1e-15)
    assert phi_star(-2.0) == pytest.approx(0.5, abs=1e-15)
    assert phi_star(3.0) == pytest.approx(1.0353726670, abs=1e-9)
    assert phi_star(3.0) == phi_star(-3.0)


def test_edge_area_values():
    assert edge_area(2.0) == 0.0
    assert edge_area(2.5) == pytest.approx(0.4887056389, abs=1e-9)
    assert edge_area(3.0) == pytest.approx(1.4292546660, abs=1e-9)
    with pytest.raises(ValueError):
        edge_area(1.5)


def test_s_func_frozen():
    unspiked = ModelParams(p=3, r=1, k=(3,), lam=(0.0,))
    assert s_func(unspiked, [0.6], 0.0) == pytest.approx(0.6234300390, abs=1e-9)
    half = ModelParams(p=3, r=1, k=(3,), lam=(0.5,))
    want = (
        0.5 * (math.log(2) + 1)
        + 0.5 * math.log(0.75)
        - (0.25 * 9 * 0.0625 * 0.75) / 3
    )
    assert s_func(half, [0.5], 0.0625) == pytest.approx(want, abs=1e-12)


def test_s_func_off_domain():
    assert s_func(P31, [1.0], 0.0) == float("-inf")
    assert s_func(P31, [0.0], 0.0) == float("-inf")


def test_sigma_projected_frozen():
    half = ModelParams(p=3, r=1, k=(3,), lam=(0.5,))
    assert sigma_tot_projected(half, [0.5]) == pytest.approx(0.1792950541, abs=1e-9)
    # unspiked limit toward the center of the band
    none = ModelParams(p=3, r=1, k=(3,), lam=(0.0,))
    assert sigma_tot_projected(none, [1e-9]) == pytest.approx(
        0.5 * math.log(2), abs=1e-8
    )


def test_thresholds():
    assert tau_critical(3) == pytest.approx(0.2886751346, abs=1e-9)
    assert eta_critical(3, 3) == pytest.approx(1.5, abs=1e-12)
    assert lambda_critical(3) == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)


def test_aux_statistics_frozen():
    a = aux_statistics(P32, [0.5, 0.2])
    assert a.beta == pytest.approx(1.0713827866, abs=1e-9)
    b = aux_statistics(P32, [0.3, 0.4])
    assert b.tau == pytest.approx(0.15, abs=1e-14)
    assert b.alpha == pytest.approx(0.25, abs=1e-14)
    # Cauchy-Schwarz equality when the per-spike slopes coincide
    assert b.beta == pytest.approx(1.0, abs=1e-12)


def test_beta_at_least_one():
    for m in ([0.1, 0.7], [0.55, 0.3], [0.2, 0.2]):
        a = aux_statistics(P32, m)
        assert a.beta >= 1.0 - 1e-12


def test_zero_locus_roots():
    sols = zero_locus_solve(P31)
    assert len(sols) == 2
    assert sols[0][0] == pytest.approx(0.2087211906, abs=1e-9)
    assert sols[1][0] == pytest.approx(0.9779751861, abs=1e-9)
    # large root sits above the projection threshold, so the surface vanishes
    assert abs(sigma_tot_projected(P31, sols[1])) < 1e-9
    tau_large = aux_statistics(P31, sols[1]).tau
    assert tau_large >= tau_critical(3)


def test_zero_locus_empty_below_lambda_c():
    weak = ModelParams(p=3, r=1, k=(3,), lam=(0.5,))
    assert zero_locus_solve(weak) == []


def test_zero_locus_r2_pattern():
    sols = zero_locus_solve(P32, pattern=(0, 1))
    assert len(sols) == 2
    big = sols[1]
    # condition (a): lambda_1 m_1 = lambda_2 m_2 for k = 3
    assert 2.0 * big[0] == pytest.approx(1.5 * big[1], abs=1e-10)
    assert big[0] <= big[1]
    assert abs(sigma_tot_projected(P32, big)) < 1e-9


@pytest.mark.parametrize("pattern", [(0, 0), (1, 0, 1)])
def test_zero_locus_rejects_repeated_index(pattern):
    with pytest.raises(ValueError):
        zero_locus_solve(P32, pattern)


def test_zero_locus_r2_no_joint_solution():
    # eta above threshold: the two-spike conditions have no real root
    mid = ModelParams(p=3, r=2, k=(3, 3), lam=(1.2, 0.9))
    assert zero_locus_solve(mid, pattern=(0, 1)) == []


def _assert_condition_b(params, sol, rel=1e-9):
    """The shift condition sqrt(p/2) tau = alpha / (2 sqrt(1 - alpha)) holds."""
    aux = aux_statistics(params, sol)
    lhs = math.sqrt(0.5 * params.p) * aux.tau
    rhs = 0.5 * aux.alpha / math.sqrt(1.0 - aux.alpha)
    assert abs(lhs - rhs) <= rel * rhs


@pytest.mark.parametrize("p", [3, 4])
@pytest.mark.parametrize("eps", [1e-11, 1e-9])
def test_zero_locus_root_pair_just_above_lambda_c(p, eps):
    # both roots sit within ~sqrt(eps) of the peak m^2 = (k-2)/(k-1), inside
    # one cell of the slope scan
    params = ModelParams(p=p, r=1, k=(p,), lam=(lambda_critical(p) * (1 + eps),))
    sols = zero_locus_solve(params)
    assert len(sols) == 2
    assert sols[0][0] < math.sqrt((p - 2) / (p - 1)) < sols[1][0]
    for sol in sols:
        _assert_condition_b(params, sol)
    below = ModelParams(p=p, r=1, k=(p,), lam=(lambda_critical(p) * (1 - eps),))
    assert zero_locus_solve(below) == []


@pytest.mark.parametrize(
    "params, pattern",
    [
        (ModelParams(p=3, r=1, k=(3,), lam=(20.0,)), None),
        (ModelParams(p=3, r=1, k=(3,), lam=(3000.0,)), None),
        (ModelParams(p=4, r=2, k=(3, 4), lam=(60.0, 1.5)), (0,)),
    ],
)
def test_zero_locus_strong_spike_keeps_both_roots(params, pattern):
    # a strong spike puts the large root above the last scan point and, at
    # lambda = 3000, the small root below the first; near alpha = 1 the
    # shift condition is ill-conditioned, hence the looser check
    sols = zero_locus_solve(params, pattern)
    assert len(sols) == 2
    assert sols[1][0] > 0.9997
    for sol in sols:
        _assert_condition_b(params, sol, rel=1e-7)
        assert all(v == 0.0 for v in sol[1:])


@pytest.mark.parametrize("lam", [1e10, 1e80, 1e100, 1e200])
def test_zero_locus_huge_spike_single_root(lam):
    # the large root would sit within 1e-20 of m = 1, which rounds to alpha = 1;
    # the small root solves m lambda sqrt(6) = 1 at p = k = 3
    sols = zero_locus_solve(ModelParams(p=3, r=1, k=(3,), lam=(lam,)))
    assert len(sols) == 1
    assert sols[0][0] * lam * math.sqrt(6) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p, k", [(3, 3), (4, 4), (3, 5)])
@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("eps", [1e-11, 1e-9])
def test_zero_locus_multi_coordinate_threshold(p, k, r, eps):
    # with equal degrees alpha = (p delta / k)^{2/(k-2)} eta on the full
    # pattern, so the locus exists exactly when eta <= eta_c; next to the
    # threshold both roots sit within ~sqrt(eps) of the peak
    base = (1.0, 0.8, 0.6)[:r]
    eta0 = sum(v ** (-2.0 / (k - 2)) for v in base)
    for sign, count in ((-1, 2), (1, 0)):
        eta = eta_critical(p, k) * (1 + sign * eps)
        scale = (eta0 / eta) ** (0.5 * (k - 2))
        params = ModelParams(p=p, r=r, k=(k,) * r, lam=tuple(scale * v for v in base))
        sols = zero_locus_solve(params)
        assert len(sols) == count
        for sol in sols:
            assert aux_statistics(params, sol).eta == pytest.approx(eta, rel=1e-14)
            _assert_condition_b(params, sol)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_zero_locus_mixed_degrees(data):
    r = data.draw(st.integers(1, 3))
    p = data.draw(st.integers(3, 5))
    k = tuple(data.draw(st.lists(st.integers(3, 6), min_size=r, max_size=r)))
    lam = data.draw(st.lists(st.floats(0.1, 30.0), min_size=r, max_size=r))
    params = ModelParams(p=p, r=r, k=k, lam=tuple(sorted(lam, reverse=True)))
    pattern = sorted(data.draw(st.sets(st.integers(0, r - 1), min_size=1)))
    sols = zero_locus_solve(params, pattern)
    assert len(sols) <= 2
    for sol in sols:
        assert all(sol[i] == 0.0 for i in range(r) if i not in pattern)
        alpha = sum(v * v for v in sol)
        if alpha < 0.999:
            _assert_condition_b(params, sol)
    if len(sols) == 2:
        assert all(sols[0][i] < sols[1][i] for i in pattern)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _assert_core_stack_matches_points(params, rows, xs):
    """The core functions of an overlap point on the (N, r) stack of rows
    equal their one-point calls on each row, bit for bit; the value
    functions take xs, one value per row."""
    pts = np.array(rows)
    parts = _profile_parts(params, pts)
    values = sigma_tot_projected(params, pts)
    codes = classify_regime(params, pts)
    held = _zero_conditions_hold(params, pts, 1e-6)
    aux = aux_statistics(params, pts)
    for i, row in enumerate(rows):
        assert _bits([v[i] for v in parts]) == _bits(_profile_parts(params, row))
        assert _bits(values[i]) == _bits(sigma_tot_projected(params, row))
        assert codes[i] == classify_regime(params, row)
        assert held[i] == _zero_conditions_hold(params, row, 1e-6)
        one = aux_statistics(params, row)
        for name in ("tau", "alpha", "beta", "eta", "tau_star"):
            assert _bits(getattr(aux, name)[i]) == _bits(getattr(one, name))
        assert _bits([aux.tau_c, aux.eta_c]) == _bits([one.tau_c, one.eta_c])

    joint = {f: f(params, pts, xs) for f in (s_func, y_shift, t_func, sigma_tot_joint)}
    grid = {f: f(params, pts, xs[:, None] + np.arange(3.0)) for f in joint}
    for i, row in enumerate(rows):
        for f in joint:
            assert _bits(joint[f][i]) == _bits(f(params, row, xs[i]))
            assert _bits(grid[f][i]) == _bits(f(params, row, xs[i] + np.arange(3.0)))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_stack_matches_single_points(data):
    """Every broadcast function on an (N, r) stack equals its one-point call
    on each row, bit for bit."""
    r = data.draw(st.integers(1, 3))
    p = data.draw(st.integers(3, 5))
    k = tuple(data.draw(st.lists(st.integers(3, 5), min_size=r, max_size=r)))
    strength = st.floats(0.0, 3.0).map(lambda v: round(v, 3))
    lam = data.draw(st.lists(strength, min_size=r, max_size=r))
    params = ModelParams(p=p, r=r, k=k, lam=tuple(sorted(lam, reverse=True)))
    coord = st.one_of(st.floats(0.0, 1.0), st.floats(-0.25, 1.25), st.sampled_from([0.0, 1.0]))
    rows = data.draw(st.lists(st.lists(coord, min_size=r, max_size=r), min_size=1, max_size=10))
    rows += [list(sol) for sol in zero_locus_solve(params)]
    pts = np.array(rows)
    xs = np.array(data.draw(st.lists(st.floats(-4.0, 6.0), min_size=len(rows), max_size=len(rows))))
    _assert_core_stack_matches_points(params, rows, xs)

    inner = pts[np.all(np.abs(pts) < 1.0, axis=1)]
    theta, gram = perturbation_factors(params, inner)
    gammas = spike_eigenvalues(params, inner)
    for i, row in enumerate(inner.tolist()):
        one_theta, one_gram = perturbation_factors(params, row)
        assert _bits(theta[i]) == _bits(one_theta)
        assert _bits(gram[i]) == _bits(one_gram)
        assert _bits(gammas[i]) == _bits(spike_eigenvalues(params, row))

    joint = sigma_max_joint(params, pts, xs)
    grid = sigma_max_joint(params, pts, xs[:, None] + np.arange(3.0))
    smax = sigma_max_projected(params, pts)
    for i, row in enumerate(rows):
        assert _bits(smax[i]) == _bits(sigma_max_projected(params, row))
        assert _bits(joint[i]) == _bits(sigma_max_joint(params, row, xs[i]))
        assert _bits(grid[i]) == _bits(sigma_max_joint(params, row, xs[i] + np.arange(3.0)))
    ts = xs + 2.0
    gam = np.sort(np.abs(pts) * 3.0, axis=1)[:, ::-1]
    rates = big_l(gam, ts), i_gamma(1.0 + gam[:, 0], ts), phi_star(xs), edge_area(2.0 + xs * xs)
    for i in range(len(rows)):
        one = (big_l(gam[i], ts[i]), i_gamma(1.0 + gam[i, 0], ts[i]), phi_star(xs[i]),
               edge_area(2.0 + xs[i] * xs[i]))
        assert _bits([v[i] for v in rates]) == _bits(one)
    for g in gam:
        for f in (i_max, big_l_left):
            assert _bits(f(g, ts)) == _bits([f(g, t) for t in ts.tolist()])


# rows holding both zeros, the sphere's edge 1.0, alpha > 1, and powers that
# underflow to 0 or overflow to inf; at k = 4, m = 1e-45 leaves tau nonzero
# but makes beta's ratio 0/0
_HAZARD_ROWS = {
    1: [[0.0], [-0.0], [1.0], [-1.0], [0.5], [-0.5], [1.5], [1e-200], [1e-45], [-1e200]],
    2: [[0.0, 0.0], [-0.0, 0.5], [0.5, -0.0], [1.0, 0.0], [-0.0, -1.0], [0.9, 0.8],
        [-0.6, 0.7], [2.0, -3.0], [0.3, 1e-170], [1e-45, 0.0], [1e200, 0.5], [-1e200, 0.5]],
}


@pytest.mark.parametrize("lam", [0.0, 2.0, 1e200, 1e300])
@pytest.mark.parametrize("p, k", [(3, (3,)), (4, (4,)), (5, (4,)), (3, (3, 3)), (4, (4, 3)),
                                  (5, (5, 4))])
def test_stack_matches_single_points_at_float_hazards(p, k, lam):
    """test_stack_matches_single_points's core checks where one point on
    Python floats could raise (tau = 0, pow overflow) or round apart from a
    stack: spikes up to 1e300, signed zeros, the edge 1.0, alpha > 1, and
    values x at 0, -0, the bulk edge, 1e200 and inf."""
    r = len(k)
    params = ModelParams(p=p, r=r, k=k, lam=(lam,) + (0.5 * lam,) * (r - 1))
    rows = _HAZARD_ROWS[r] + [list(sol) for sol in zero_locus_solve(params)]
    xs = np.resize([0.0, -0.0, 2.0, -3.0, 1e200, math.inf, 0.7], len(rows))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _assert_core_stack_matches_points(params, rows, xs)


def test_distinct_powers_match_libm():
    """Powers taken once per distinct value and scattered back equal _libm
    on the whole column, bit for bit: repeats, both zeros, infinities, NaN,
    the smallest subnormal, negative bases and a pow overflow (1e200^3),
    whose infinities carry the C library's signs, as numpy's power does."""
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, -0.7, 1e200, -1e200]
    column = np.array(special * 3 + [0.25, -0.25, 0.5, 0.5, 0.999, -0.999])
    for exponent in (0, 1, 2, 3, 4, 7, 10):
        values, back = _distinct(column)
        assert len(values) == len(special) + 5
        assert _bits(_libm(pow, values, exponent)[back]) == _bits(_libm(pow, column, exponent))
        with np.errstate(over="ignore"):
            infinite = np.isinf(np.power(column, float(exponent)))
            assert _bits(_libm(pow, column, exponent)[infinite]) == _bits(
                np.power(column, float(exponent))[infinite]
            )
        one = column[5:6]
        values, back = _distinct(one)
        assert _bits(_libm(pow, values, exponent)[back]) == _bits(_libm(pow, one, exponent))


def _tensor_grid(ticks):
    """The (len(ticks)^2, 2) stack of a two-axis grid, as `pspinlab grid` builds it."""
    return np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 2)


def test_grid_pays_pow_once_per_tick(monkeypatch):
    """On a 200 x 200 r = 2 tensor grid every power site calls pow at most
    once per tick, where one call per cell would be 40,000."""
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(core, "pow", counting_pow, raising=False)
    pts = _tensor_grid(np.linspace(-1.0, 1.0, 200))
    # sites: two powers per coordinate in the profile; the profile plus
    # condition (a) on the wide rows; the profile, the inner and outer power
    # of the slope term and the eta weight
    for f, sites in ((sigma_tot_projected, 4), (classify_regime, 6), (aux_statistics, 10)):
        calls.clear()
        f(P32, pts)
        assert 0 < len(calls) <= 200 * sites, f.__name__


def test_classify_regime_builds_one_profile(monkeypatch):
    calls = []
    build = core._profile_parts

    def counting_parts(params, m):
        calls.append(len(np.atleast_2d(m)))
        return build(params, m)

    monkeypatch.setattr(core, "_profile_parts", counting_parts)
    pts = _tensor_grid(np.linspace(0.0, 1.0, 60))
    codes = classify_regime(P32, pts)
    assert calls == [len(pts)]
    # some rows reach the wide branch, where the zero conditions are checked
    assert (np.abs(aux_statistics(P32, pts).tau) >= tau_critical(3)).any()
    assert {RegimeLabel.POSITIVE, RegimeLabel.NEGATIVE} <= set(codes.tolist())


def test_sigma_max_projected_builds_one_profile_and_spectrum(monkeypatch):
    calls = {"profile": [], "spectrum": [], "joint": 0}
    build, solve, joint = rates._profile_parts, spikes.spike_eigenvalues, rates.sigma_max_joint

    def counting_parts(params, m):
        calls["profile"].append(len(m))
        return build(params, m)

    def counting_spectrum(params, m):
        calls["spectrum"].append(len(m))
        return solve(params, m)

    def counting_joint(*args):
        calls["joint"] += 1
        return joint(*args)

    # core's name too, so that a profile built inside core is counted as well
    monkeypatch.setattr(core, "_profile_parts", counting_parts)
    monkeypatch.setattr(rates, "_profile_parts", counting_parts)
    # rates imports the spectrum from spikes on each sigma_max call
    monkeypatch.setattr(spikes, "spike_eigenvalues", counting_spectrum)
    monkeypatch.setattr(rates, "sigma_max_joint", counting_joint)
    # the unit square reaches past the ball, so some rows are off-domain
    pts = _tensor_grid(np.linspace(0.0, 1.0, 30))
    alpha = (pts * pts).sum(axis=1)
    inside = (0.0 < alpha) & (alpha < 1.0)
    values = sigma_max_projected(P32, pts)
    assert calls == {"profile": [len(pts)], "spectrum": [int(inside.sum())], "joint": 0}
    assert np.isfinite(values[inside]).all() and (values[~inside] == -math.inf).all()


def test_single_point_returns_python_scalars():
    m = [0.5, 0.2]
    assert type(sigma_tot_projected(P32, m)) is float
    assert isinstance(classify_regime(P32, m), RegimeLabel)
    assert type(aux_statistics(P32, m).eta) is float
    assert type(_zero_conditions_hold(P32, m, 1e-6)) is bool
    for value in (
        sigma_max_projected(P32, m),
        sigma_max_joint(P32, m, 0.5),
        sigma_tot_joint(P32, m, 0.5),
        s_func(P32, m, 0.5),
        y_shift(P32, m, 0.5),
        t_func(P32, m, 0.5),
        big_l((1.5, 0.5), 2.2),
        big_l_left((1.5, 0.5), 2.2),
        i_max((1.5, 0.5), 2.2),
        i_max((0.5,), 2.2),
        i_gamma(1.5, 2.2),
        phi_star(3.0),
        edge_area(3.0),
    ):
        assert type(value) is float
    stack = sigma_tot_projected(P32, np.array([m, m]))
    assert stack.shape == (2,)
    assert sigma_max_projected(P32, np.array([m, m])).shape == (2,)
    assert sigma_max_joint(P32, np.array([m, m]), np.zeros((2, 5))).shape == (2, 5)
    assert big_l(np.array([[1.5, 0.5]] * 2), np.full((2, 3), 2.2)).shape == (2, 3)
    assert i_max((1.5, 0.5), np.full((2, 3), 2.2)).shape == (2, 3)
    assert big_l_left((1.5, 0.5), np.full(4, 2.2)).shape == (4,)
    with pytest.raises(ValueError):
        sigma_tot_projected(P32, np.zeros((2, 3)))


def test_classify_labels():
    half = ModelParams(p=3, r=1, k=(3,), lam=(0.5,))
    assert classify_regime(half, [0.5]) is RegimeLabel.POSITIVE
    assert classify_regime(half, [0.9]) is RegimeLabel.NEGATIVE
    assert classify_regime(half, [1.2]) is RegimeLabel.OUT_OF_DOMAIN
    assert classify_regime(half, [-0.2]) is RegimeLabel.POSITIVE
    big_root = zero_locus_solve(P31)[1]
    assert classify_regime(P31, big_root) is RegimeLabel.SUBEXPONENTIAL_ZERO_LOCUS


@pytest.mark.parametrize("p,k,lam", [
    (3, (3,), (2.0,)),
    (3, (3, 3), (2.0, 1.5)),
    (4, (4, 3), (2.5, 2.0)),
    (4, (4, 3, 5), (3.0, 2.5, 2.2)),
    (4, (4, 4), (3.0, 2.5)),
])
def test_signed_zero_locus_images(p, k, lam):
    """Sign flips of a large orthant root stay on the zero locus exactly when
    zero_locus_solve's docstring admits them: even-k_i coordinates take
    either sign, and the odd-k_i ones are all positive, or all negative when
    the pattern has no even-k_i coordinate."""
    params = ModelParams(p=p, r=len(k), k=k, lam=lam)
    checked = 0
    for size in range(1, params.r + 1):
        for pattern in itertools.combinations(range(params.r), size):
            roots = zero_locus_solve(params, pattern)
            if len(roots) < 2:
                continue
            odd = [i for i in pattern if k[i] % 2]
            for signs in itertools.product((1.0, -1.0), repeat=size):
                m = list(roots[1])
                for i, sign in zip(pattern, signs):
                    m[i] *= sign
                odd_signs = {math.copysign(1.0, m[i]) for i in odd}
                admitted = odd_signs <= {1.0} or (len(odd) == size and odd_signs == {-1.0})
                label = classify_regime(params, m)
                assert (label is RegimeLabel.SUBEXPONENTIAL_ZERO_LOCUS) == admitted, (m, label)
                if admitted:
                    assert abs(sigma_tot_projected(params, m)) <= 1e-14
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("tol", [-1e-6, math.nan])
def test_classify_rejects_negative_or_nan_tol(tol):
    # below 0 the zero-locus and ZERO_BOUNDARY labels become unreachable
    big_root = zero_locus_solve(P31)[1]
    assert classify_regime(P31, big_root) is RegimeLabel.SUBEXPONENTIAL_ZERO_LOCUS
    with pytest.raises(ValueError):
        classify_regime(P31, big_root, tol=tol)


def test_classify_zero_boundary():
    half = ModelParams(p=3, r=1, k=(3,), lam=(0.5,))
    lo, hi = 0.5, 0.9
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sigma_tot_projected(half, [mid]) > 0:
            lo = mid
        else:
            hi = mid
    assert classify_regime(half, [0.5 * (lo + hi)]) is RegimeLabel.ZERO_BOUNDARY


@settings(max_examples=150, deadline=None)
@given(
    st.integers(3, 5),
    st.floats(0.0, 3.0),
    st.floats(0.01, 0.99),
    st.floats(-4.0, 4.0),
)
def test_joint_never_above_projection(p, lam, m, x):
    params = ModelParams(p=p, r=1, k=(p,), lam=(lam,))
    joint = sigma_tot_joint(params, [m], x)
    proj = sigma_tot_projected(params, [m])
    assert joint <= proj + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.0, 3.0))
def test_projection_matches_scan(m, lam):
    params = ModelParams(p=3, r=1, k=(3,), lam=(lam,))
    proj = sigma_tot_projected(params, [m])
    xs = np.array([-8.0 + 16.0 * i / 4000 for i in range(4001)])
    best = max(sigma_tot_joint(params, [m], xs))
    assert best <= proj + 1e-9
    assert proj - best < 2e-4


def test_t_func_and_y_shift_consistency():
    m, x = [0.4], 0.7
    y = y_shift(P31, m, x)
    assert t_func(P31, m, x) == pytest.approx(math.sqrt(3.0) * y, abs=1e-14)
    # y differs from x by an m-only offset
    assert y_shift(P31, m, 2.0) - y == pytest.approx(1.3, abs=1e-12)


def test_appendix_g_zero():
    a, b = 0.2, 1.3
    diag = appendix_diagnostics(a, b)
    xs = diag["x_star"]
    assert xs == xs  # defined here
    assert g_ab(a, b, xs) == pytest.approx(0.0, abs=1e-12)
    assert g_ab(a, b, -xs) == pytest.approx(0.0, abs=1e-12)


def test_appendix_f_frozen():
    diag = appendix_diagnostics(0.5, 1.0)
    assert diag["x_max"] == pytest.approx(0.3535533906, abs=1e-9)
    diag2 = appendix_diagnostics(0.5, 2.0)
    assert diag2["value_at_max"] == pytest.approx(-0.2027325541, abs=1e-9)
    assert f_ab(0.5, 2.0, diag2["x_max"]) == pytest.approx(
        diag2["value_at_max"], abs=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, 0.9), st.floats(1.0, 4.0))
def test_appendix_f_nonpositive(a, b):
    diag = appendix_diagnostics(a, b)
    v = diag["value_at_max"]
    assert v <= 1e-12
    if b > 1.0 + 1e-9:
        assert v < 0.0


def test_domain_errors():
    with pytest.raises(ValueError):
        g_ab(0.0, 1.5, 0.1)
    with pytest.raises(ValueError):
        f_ab(0.5, 0.9, 0.1)
    with pytest.raises(ValueError):
        s_func(P31, [0.1, 0.2], 0.0)


_TRIALS = "trials must be >= 1"
# (call, message) for inputs each library entry refuses
REFUSALS = {
    "kac-rice-which": (lambda: kac_rice_eval(P31, 2, which=1), 'which must be "total" or "max"'),
    "goe-spikes": (lambda: GOESpec(n=1, gamma=(1.0, 1.0)), "more spikes than matrix dimensions"),
    "spherical-rank": (lambda: spherical_integral_mc(2, [0.5] * 3, [1.0, 2.0], 3),
                       "frame rank exceeds dimension"),
    "log-abs-det-trials": (lambda: mc_log_abs_det(GOESpec(n=3), 0), _TRIALS),
    "restricted-trials": (lambda: mc_restricted_det(GOESpec(n=3), 0), _TRIALS),
    "lambda-max-trials": (lambda: mc_lambda_max_tail(GOESpec(n=3), 0, 1.0), _TRIALS),
    "spherical-trials": (lambda: spherical_integral_mc(3, [0.5], [1.0, 2.0, 3.0], 0), _TRIALS),
    "params-rank": (lambda: ModelParams(p=3, r=0, k=(), lam=()), "r must be >= 1"),
    "i-gamma": (lambda: i_gamma(0.5, 3.0), "i_gamma requires gamma >= 1"),
    "j-coupling-gamma": (lambda: j_coupling(0.0, 3.0), "gamma must be positive"),
    "j-coupling-x": (lambda: j_coupling(1.0, 1.9), "x must be >= 2"),
    "g-ab-b": (lambda: g_ab(0.5, 0.9, 0.1), "b must be >= 1"),
    "f-ab-a": (lambda: f_ab(1.0, 2.0, 0.1), r"a must be in \(0, 1\)"),
    "appendix-a": (lambda: appendix_diagnostics(0.0, 2.0), r"a must be in \(0, 1\)"),
    "appendix-b": (lambda: appendix_diagnostics(0.5, 0.5), "b must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_library_refuses_inputs_it_cannot_take(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_one_trial_log_abs_det_has_no_error_bar():
    est = mc_log_abs_det(GOESpec(n=3), 1)
    assert math.isfinite(est.value)
    assert math.isnan(est.std_error)
