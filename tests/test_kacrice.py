"""Finite-dimension landscapes: direct counting against the exact formula."""
import math

import numpy as np
import pytest

import pspinlab.kacrice as kacrice
from pspinlab import (
    ModelParams,
    QuadratureError,
    build_polynomial,
    c_constant,
    count_expected,
    find_critical_points,
    kac_rice_eval,
    sphere_surface,
)

P0 = ModelParams(p=3, r=1, k=(3,), lam=(0.0,))
P1 = ModelParams(p=3, r=1, k=(3,), lam=(1.0,))


def test_covariance_scaling():
    # Var f(e_1) = 1/(2n) for the unspiked homogeneous part
    n = 2
    vals = []
    for s in range(3000):
        poly = build_polynomial(P0, n, (10_000 + s, 3))
        e1 = np.zeros(n)
        e1[0] = 1.0
        vals.append(poly_value(poly, e1))
    assert abs(np.var(vals) - 1.0 / (2 * n)) < 0.02


def poly_value(poly, sigma):
    from pspinlab.kacrice import _derivative

    return _derivative([poly], np.zeros(1, dtype=int), np.asarray(sigma, float)[None], 0)[0]


def test_build_deterministic():
    a = build_polynomial(P1, 4, (5, 1))
    b = build_polynomial(P1, 4, (5, 1))
    assert np.array_equal(a.tensor, b.tensor)


def test_circle_counts_even_and_morse():
    # on the circle every non-degenerate critical point is a max or a min,
    # and they alternate, so the two index counts are equal
    for t in range(25):
        poly = build_polynomial(P0, 2, (77, t))
        pts = find_critical_points(poly)
        assert len(pts) >= 2
        assert len(pts) % 2 == 0
        n_min = sum(1 for c in pts if c.index == 0 and not c.degenerate)
        n_max = sum(1 for c in pts if c.index == 1 and not c.degenerate)
        assert n_min == n_max


def test_antipodal_symmetry_unspiked_odd():
    # odd homogeneous f has f(-x) = -f(x): critical points come in +/- pairs
    poly = build_polynomial(P0, 2, (13, 4))
    pts = find_critical_points(poly)
    vecs = [np.asarray(c.position) for c in pts]
    for v in vecs:
        gaps = [
            math.acos(float(np.clip(np.dot(-v, q), -1.0, 1.0))) for q in vecs
        ]
        assert min(gaps) < 1e-6


def test_count_expected_unspiked_n2():
    # stationary-phase count for the unspiked 3-spin on the circle: 2 sqrt(7)
    est = count_expected(P0, 2, 600, seed=20)
    want = 2.0 * math.sqrt(7.0)
    assert est.extras["complete"] is True
    assert abs(est.value - want) < 4.0 * est.std_error


def test_count_windows_restrict():
    est_all = count_expected(P1, 2, 120, seed=3)
    est_win = count_expected(
        P1, 2, 120, seed=3, overlap_windows=[(0.5, 1.0)]
    )
    assert est_win.value <= est_all.value + 1e-12


def test_count_value_window_matches_direct_count():
    # n = 2 finds every critical point, so the windowed count is the mean
    # number of found values inside the window, over the same landscapes
    lo, hi, trials = -0.2, 0.4, 40
    est = count_expected(P1, 2, trials, seed=5, value_window=(lo, hi))
    inside = [
        sum(lo <= pt.value <= hi for pt in find_critical_points(build_polynomial(P1, 2, (5, t))))
        for t in range(trials)
    ]
    assert est.value == np.mean(inside)
    assert 0.0 < est.value < count_expected(P1, 2, trials, seed=5).value


def test_count_rejects_empty_trials_and_excess_rank():
    with pytest.raises(ValueError):
        count_expected(P0, 2, 0, seed=1)
    p3 = ModelParams(p=3, r=3, k=(3, 3, 3), lam=(1.0, 0.5, 0.2))
    with pytest.raises(ValueError):
        build_polynomial(p3, 2, (1, 0))
    with pytest.raises(ValueError):
        count_expected(p3, 2, 2, seed=1)


def test_count_index_split():
    tot = count_expected(P0, 2, 150, seed=6)
    mins = count_expected(P0, 2, 150, seed=6, which=0)
    maxs = count_expected(P0, 2, 150, seed=6, which=1)
    assert mins.value + maxs.value == pytest.approx(
        tot.value - tot.extras["mean_degenerate"], abs=1e-12
    )


def test_c_constant_frozen():
    assert c_constant(2, 1, 3) == pytest.approx(
        math.sqrt(2.0) / (math.e * math.pi), abs=1e-12
    )
    assert sphere_surface(2) == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert sphere_surface(3) == pytest.approx(4.0 * math.pi, abs=1e-12)


def test_kac_rice_eval_n2_unspiked():
    est = kac_rice_eval(P0, 2, inner_trials=2048, batches=6, seed=1)
    want = 2.0 * math.sqrt(7.0)
    assert abs(est.value - want) < 4.0 * est.std_error + 0.02


def test_kac_rice_identity_spiked_n2():
    counted = count_expected(P1, 2, 1500, seed=9)
    formula = kac_rice_eval(P1, 2, inner_trials=2048, batches=6, seed=2)
    se = math.hypot(counted.std_error, formula.std_error)
    assert abs(counted.value - formula.value) <= 4.0 * se + 0.02


def test_kac_rice_identity_n3():
    counted = count_expected(P0, 3, 60, seed=14, budget=160)
    formula = kac_rice_eval(P0, 3, inner_trials=1024, batches=4, seed=4)
    se = math.hypot(counted.std_error, formula.std_error)
    assert abs(counted.value - formula.value) <= 4.0 * se + 0.05 * formula.value


def test_kac_rice_eval_rejects_tight_rank():
    with pytest.raises(ValueError):
        kac_rice_eval(ModelParams(p=3, r=2, k=(3, 3), lam=(1.0, 0.5)), 2)


def test_value_window_restricts_formula():
    full = kac_rice_eval(P0, 2, inner_trials=512, batches=4, seed=7)
    low = kac_rice_eval(
        P0, 2, inner_trials=512, batches=4, seed=7, value_window=(-10.0, 0.0)
    )
    # odd symmetry: half of the critical values lie below zero
    assert low.value == pytest.approx(0.5 * full.value, rel=0.2)


# ---------------------------------------------------------------------------
# exact circle roots against dense scans

def _scan_grid(samples):
    """Equispaced angles and the cubic monomials c^3, c^2 s, c s^2, s^3 there."""
    phi = 2.0 * math.pi * np.arange(samples) / samples
    c, s = np.cos(phi), np.sin(phi)
    return phi, np.column_stack([c**3, c * c * s, c * s * s, s**3])


def _scan_brackets(poly, grid):
    """Left ends of the sign-change brackets of the circle derivative on the
    grid, evaluated straight from the tensor entries (p = k = 3, r = 1)."""
    phi, cubics = grid
    t = poly.tensor
    lam = poly.params.lam[0]
    # 3 T(sigma, sigma, tangent) - 3 lam cos^2 sin in the cubic monomials
    coef = 3.0 * np.array([
        t[1, 0, 0],
        2.0 * t[1, 0, 1] - t[0, 0, 0] - lam,
        t[1, 1, 1] - 2.0 * t[0, 0, 1],
        -t[0, 1, 1],
    ])
    d = cubics @ coef
    return phi[np.nonzero(d * np.roll(d, -1) < 0.0)[0]]


def test_circle_roots_match_fine_scan():
    samples = 10**6
    step = 2.0 * math.pi / samples
    grid = _scan_grid(samples)
    landscapes = 0
    for lam in (0.0, 1.0, 3.0):
        params = ModelParams(p=3, r=1, k=(3,), lam=(lam,))
        for t in range(70):
            poly = build_polynomial(params, 2, (31, t))
            pts = find_critical_points(poly)
            brackets = _scan_brackets(poly, grid)
            assert len(pts) == len(brackets)
            angles = np.sort(np.mod([math.atan2(c.position[1], c.position[0]) for c in pts], 2.0 * math.pi))
            assert np.all((angles >= brackets - 1e-12) & (angles <= brackets + step + 1e-12))
            assert not any(c.ill_conditioned for c in pts)
            landscapes += 1
    assert landscapes >= 200


def _close_pair_landscape(half_gap):
    """A landscape with two critical points half_gap either side of phi0.

    With g0 the circle derivative of the coupling part and -3 cos^2 sin that
    of cos^3, g0 + lam (-3 cos^2 sin) vanishes where lam = ratio(phi); at a
    local extremum phi0 of ratio the two roots merge, and moving lam by
    ratio''(phi0) half_gap^2 / 2 splits them by 2 half_gap.
    """
    from scipy.optimize import minimize_scalar

    from pspinlab.kacrice import SpikedPolynomial

    # the coupling is negated so that the merging strength is positive
    drawn = build_polynomial(P0, 2, (3, 0))
    base = SpikedPolynomial(P0, 2, drawn.seed, -drawn.tensor)

    def ratio(phi):
        g0 = _oracle_circle_derivative(base, np.array([phi]))[0]
        return g0 / (3.0 * math.cos(phi) ** 2 * math.sin(phi))

    # for this coupling ratio has a local maximum near phi = 2.29
    grid = np.linspace(2.2, 2.4, 2001)
    vals = np.array([ratio(v) for v in grid])
    guess = grid[np.argmax(vals)]
    phi0 = minimize_scalar(
        lambda v: -ratio(v), bounds=(guess - 1e-3, guess + 1e-3),
        method="bounded", options={"xatol": 1e-12},
    ).x
    h = 1e-3
    curv = (ratio(phi0 + h) - 2.0 * ratio(phi0) + ratio(phi0 - h)) / h**2
    lam = ratio(phi0) + 0.5 * curv * half_gap**2
    params = ModelParams(p=3, r=1, k=(3,), lam=(lam,))
    return SpikedPolynomial(params, 2, drawn.seed, base.tensor), phi0


def test_close_root_pair_counted():
    # the pair is 2e-5 apart, under the 2 pi / 1e5 spacing of a 1e5-sample
    # scan, which sees no sign change between them
    half_gap = 1e-5
    poly, phi0 = _close_pair_landscape(half_gap)
    pts = find_critical_points(poly)
    offsets = sorted(
        math.remainder(math.atan2(c.position[1], c.position[0]) - phi0, 2.0 * math.pi)
        for c in pts
    )
    near = [v for v in offsets if abs(v) < 2.0 * math.pi / 10**5]
    assert len(near) == 2
    assert near[0] == pytest.approx(-half_gap, rel=0.05)
    assert near[1] == pytest.approx(half_gap, rel=0.05)
    assert not any(c.ill_conditioned for c in pts)
    # odd landscape: the antipodal pair is there as well, and the coarse
    # scan misses both pairs
    assert len(pts) == len(_scan_brackets(poly, _scan_grid(10**5))) + 4


# ---------------------------------------------------------------------------
# stacked circle passes against the per-landscape circle path they replaced

def _oracle_circle_derivative(poly, phi):
    """d/dphi of the landscape along the unit circle: the gradient at
    (cos phi, sin phi) dotted with the tangent (-sin phi, cos phi)."""
    sigma = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    tangent = np.stack([-sigma[:, 1], sigma[:, 0]], axis=1)
    return kacrice._dot(kacrice._derivative([poly], np.zeros(len(phi), dtype=int), sigma, 1), tangent)


def _oracle_circle(poly):
    """One landscape alone: a 1-D FFT of the circle derivative, np.roots of
    its series, one Newton step per unit-modulus root, and classification."""
    degree = max(poly.params.p, *poly.params.k)
    samples = 4 * degree + 4
    freq = np.arange(-degree, degree + 1)
    phi = 2.0 * math.pi * np.arange(samples) / samples
    coef = np.fft.fft(_oracle_circle_derivative(poly, phi))[freq] / samples
    z = np.roots(coef[::-1])
    off = np.abs(np.abs(z) - 1.0)
    on_circle = off <= 1e-6
    angle = np.angle(z[on_circle])
    waves = coef * np.exp(1j * np.outer(angle, freq))
    angle -= waves.sum(axis=1).real / (waves @ (1j * freq)).real
    sigma = np.array([[math.cos(a), math.sin(a)] for a in angle.tolist()]).reshape(-1, 2)
    owner = np.zeros(len(sigma), dtype=int)
    found = kacrice._critical_points([poly], owner, sigma, off[on_circle] > 1e-10)
    return kacrice._point_lists(found, 1, poly.params.r)[0]


def _landscape_points(params, n, trials, seed, budget):
    """Each landscape's CriticalPoints, read from the passes of _landscapes."""
    return [
        points
        for found, landscapes in kacrice._landscapes(params, n, trials, seed, budget)
        for points in kacrice._point_lists(found, landscapes, params.r)
    ]


@pytest.mark.parametrize("params, seed, trials", [
    (P1, 40, 300),
    (ModelParams(p=4, r=1, k=(5,), lam=(1.5,)), 41, 120),
    (ModelParams(p=3, r=2, k=(3, 4), lam=(1.0, 0.5)), 42, 120),
], ids=["p3", "p4-k5", "r2-k34"])
def test_circle_passes_match_per_landscape_oracle(monkeypatch, params, seed, trials):
    from pspinlab.kacrice import _circle_pass

    want = [_oracle_circle(build_polynomial(params, 2, (seed, t))) for t in range(trials)]
    assert _landscape_points(params, 2, trials, seed, 1) == want
    # a small chunk splits the same count over several passes
    monkeypatch.setattr(kacrice, "_CHUNK", 3000)
    assert trials > 3 * _circle_pass(max(params.p, *params.k))
    assert _landscape_points(params, 2, trials, seed, 1) == want


def test_circle_pass_keeps_np_roots_for_a_vanishing_series():
    # the zero landscape's series is 0 at every frequency, where np.roots
    # finds no roots; its neighbours in the pass keep their points
    from pspinlab.kacrice import SpikedPolynomial, _circle_points, _point_lists

    zero = SpikedPolynomial(P0, 2, (43, 1), np.zeros((2, 2, 2)))
    assert _oracle_circle(zero) == []
    polys = [build_polynomial(P0, 2, (43, 0)), zero, build_polynomial(P0, 2, (43, 2))]
    assert _point_lists(_circle_points(polys), 3, P0.r) == [
        _oracle_circle(polys[0]), [], _oracle_circle(polys[2])
    ]


def test_circle_count_one_eigvals_call_per_pass(monkeypatch):
    # 500 landscapes take three passes of at most _circle_pass landscapes,
    # each with one batched eigvals, and no np.roots call
    from pspinlab.kacrice import _circle_pass

    calls = {"eigvals": 0, "roots": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(np, "roots", counted("roots", np.roots))
    est = count_expected(P1, 2, 500, seed=44)
    assert est.extras["euler_mismatch_landscapes"] == 0
    assert calls == {"eigvals": math.ceil(500 / _circle_pass(3)), "roots": 0}


# ---------------------------------------------------------------------------
# the Gauss rule against an adaptive-quadrature oracle

def _nquad_oracle(params, n, trials, seed, which):
    """The expected-count integral over the draws of one batch, by nested
    adaptive quadrature of the pointwise integrand (default windows)."""
    import warnings

    from scipy import integrate

    from pspinlab import s_func, spike_eigenvalues, t_func

    m_dim, r = n - 1, params.r
    root = math.sqrt(n / (n - 1))
    ws = []
    for t in range(trials):
        a = np.random.default_rng((seed, t)).normal(size=(m_dim, m_dim))
        ws.append((a + a.T) / math.sqrt(2.0 * m_dim))
    ws = np.stack(ws)
    diag = np.arange(m_dim)

    def integrand(x, *psis):
        m = [math.sin(v) for v in psis]
        alpha = sum(v * v for v in m)
        if alpha >= 1.0 - 1e-13:
            return 0.0
        dens = (
            (1.0 - alpha) ** (-0.5 * (r + 2))
            * math.exp(n * s_func(params, m, x))
            * math.prod(math.cos(v) for v in psis)
        )
        if dens == 0.0:
            return 0.0
        shift = np.zeros(m_dim)
        shift[:r] = spike_eigenvalues(params, m)
        hs = ws.copy()
        hs[:, diag, diag] += root * (shift - t_func(params, m, x))
        dets = np.abs(np.linalg.det(hs))
        if which == "max":
            dets *= np.linalg.eigvalsh(hs)[:, -1] <= 0.0
        return dens * float(np.mean(dets))

    lam_sum = sum(params.lam)
    ranges = [(-lam_sum - 9.0, lam_sum + 9.0)] + [(-math.pi / 2, math.pi / 2)] * r
    with warnings.catch_warnings():
        # kinks of |det| slow the adaptive rule; its accuracy is what the
        # comparison checks
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.nquad(
            integrand, ranges, opts={"epsrel": 1e-5, "epsabs": 1e-12, "limit": 200}
        )
    return c_constant(n, r, params.p) * val


@pytest.mark.parametrize(
    "params, n, which",
    [(P1, 2, "total"), (P1, 2, "max"), (P0, 3, "total")],
    ids=["n2-total", "n2-max", "n3-total"],
)
def test_gauss_rule_matches_nquad_oracle(params, n, which):
    est = kac_rice_eval(params, n, inner_trials=64, batches=1, seed=5, which=which)
    want = _nquad_oracle(params, n, 64, 5, which)
    assert est.value == pytest.approx(want, rel=1e-4)
    assert est.extras["quadrature_rel_gap"] <= 1e-4
    assert est.extras["underflow_trials"] == 0


P4 = ModelParams(p=4, r=1, k=(5,), lam=(1.5,))

# float.hex() of value, std_error and quadrature_rel_gap of kac_rice_eval at
# 64 draws in 4 batches, seed 3: at r = 1 the hyperspherical overlap map is
# the one-axis rule m = sin(psi), whose bits these pin
FORMULA_GOLDEN = {
    "n2-total": (P1, 2, {}, (
        "0x1.38658b60c1b58p+2", "0x1.9743242863702p-4", "0x1.6dcfcdea794e7p-31")),
    "n2-max": (P1, 2, {"which": "max"}, (
        "0x1.2a3b6b5c3deb9p+1", "0x1.8c67a26c06916p-3", "0x1.71ffcb6622b24p-14")),
    "n2-value-window": (P1, 2, {"value_window": (-1.0, 0.5)}, (
        "0x1.62d35e57324ecp+1", "0x1.8fafd23bbe000p-4", "0x1.9dec9940f4b3bp-14")),
    "n2-overlap-window": (P1, 2, {"overlap_windows": [(0.2, 0.9)]}, (
        "0x1.3765b715905bdp+0", "0x1.08a2ea189c86fp-4", "0x1.f4354915e9cc6p-32")),
    "n3-window": (P1, 3, {"overlap_windows": [(0.0, 0.8)]}, (
        "0x1.11a734c77aed9p+2", "0x1.0a156eadab092p-2", "0x1.57a7804d187dbp-30")),
    "n3-unspiked": (P0, 3, {}, (
        "0x1.8aedc6c1ec749p+3", "0x1.c5f2ddc389acfp-2", "0x1.148a65b32f2f9p-32")),
    "p4-k5-n4": (P4, 4, {}, (
        "0x1.f94a4158fcf3fp+4", "0x1.bfd543d026eaap-1", "0x1.53115ebcd0fe6p-18")),
}


@pytest.mark.parametrize("case", sorted(FORMULA_GOLDEN))
def test_formula_matches_recorded_bits(case):
    params, n, kwargs, want = FORMULA_GOLDEN[case]
    est = kac_rice_eval(params, n, inner_trials=64, batches=4, seed=3, **kwargs)
    got = (est.value.hex(), est.std_error.hex(), est.extras["quadrature_rel_gap"].hex())
    assert got == want


# ---------------------------------------------------------------------------
# the hyperspherical overlap box at r >= 2

P2 = ModelParams(p=3, r=2, k=(3, 3), lam=(1.0, 0.5))
Z2 = ModelParams(p=3, r=2, k=(3, 3), lam=(0.0, 0.0))


@pytest.mark.parametrize("which", ["total", "max"])
def test_formula_unspiked_is_rank_free(which):
    # at lam = 0 the count does not see the spike directions, and the
    # overlap integral of (1 - alpha)^((n - r - 2)/2) cancels against the
    # r-dependence of c_constant; the same draws give the same number
    one = kac_rice_eval(P0, 3, inner_trials=8, batches=2, seed=6, which=which)
    two = kac_rice_eval(Z2, 3, inner_trials=8, batches=2, seed=6, which=which)
    assert two.value == pytest.approx(one.value, rel=1e-9)


def test_formula_windows_reaching_the_sphere():
    # at lam = 0 the integrand is even in each overlap, so a half-ball holds
    # half of the count and a quadrant a quarter; the value window only
    # lets the value axis converge at fewer nodes
    def value(windows):
        return kac_rice_eval(
            Z2, 3, overlap_windows=windows, value_window=(-1.0, 1.0), inner_trials=8, batches=2, seed=6
        ).value

    full = value(None)
    assert 2.0 * value([(0.0, 1.0), None]) == pytest.approx(full, rel=1e-9)
    assert 2.0 * value([None, (0.0, 1.0)]) == pytest.approx(full, rel=1e-9)
    assert 4.0 * value([(0.0, 1.0), (0.0, 1.0)]) == pytest.approx(full, rel=1e-9)


@pytest.mark.parametrize("n, which", [(3, "total"), (3, "max"), (4, "total"), (4, "max")])
def test_formula_rank_two_one_stack_call_per_rule(monkeypatch, n, which):
    # the whole ball converges at r = 2, and each rule evaluates the closed
    # forms once, on its whole node stack
    from pspinlab import kacrice

    calls = {"s_func": 0, "t_func": 0, "perturbation_factors": 0}

    def counted(name):
        fn = getattr(kacrice, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(kacrice, name, counted(name))
    est = kac_rice_eval(P2, n, inner_trials=8, batches=2, seed=8, which=which)
    assert est.extras["quadrature_rel_gap"] <= 1e-4
    rules = int(math.log2(est.extras["quadrature_nodes"] // kacrice._FIRST_NODES)) + 1
    assert calls == dict.fromkeys(calls, rules)


def test_kac_rice_identity_rank_two_n3():
    # seeds and sizes fixed before the first run: 100 landscapes at budget
    # 200 against 128 draws
    counted = count_expected(P2, 3, 100, seed=21, budget=200)
    formula = kac_rice_eval(P2, 3, inner_trials=128, batches=8, seed=5)
    se = math.hypot(counted.std_error, formula.std_error)
    assert counted.extras["euler_mismatch_landscapes"] == 0
    assert abs(counted.value - formula.value) <= 3.0 * se


def test_gauss_rule_node_cap_raises(monkeypatch):
    from pspinlab import QuadratureError, kacrice

    monkeypatch.setattr(kacrice, "_FIRST_NODES", 2)
    monkeypatch.setattr(kacrice, "_MAX_TENSOR_NODES", 16)
    with pytest.raises(QuadratureError):
        kac_rice_eval(P1, 2, inner_trials=64, batches=2, seed=0)


@pytest.mark.parametrize("lam", [1e4, 1e20])
@pytest.mark.parametrize("which", ["total", "max"])
def test_formula_zero_on_every_batch_raises(lam, which):
    # with no window, E Crt >= 2 (>= 1 for "max"); a rule that misses the
    # integrand's mass at a huge spike is 0 on every batch, not a count
    params = ModelParams(p=3, r=1, k=(3,), lam=(lam,))
    with pytest.raises(QuadratureError, match="0 on every batch"):
        kac_rice_eval(params, 2, inner_trials=64, batches=4, seed=0, which=which)
    # a value window may hold no critical point, and then 0 is the answer
    est = kac_rice_eval(P1, 2, value_window=(100.0, 110.0), inner_trials=64, batches=4, seed=0)
    assert est.value == 0.0


# ---------------------------------------------------------------------------
# index selection in direct counts

def test_count_which_max_is_top_index():
    maxs = count_expected(P0, 2, 20, seed=1, which="max")
    top = count_expected(P0, 2, 20, seed=1, which=1)
    assert maxs.value == top.value > 0.0
    assert count_expected(P0, 3, 2, seed=1, which="max", budget=20).value == (
        count_expected(P0, 3, 2, seed=1, which=2, budget=20).value
    )


def test_count_which_rejects_unknown_label():
    with pytest.raises(ValueError):
        count_expected(P0, 2, 5, seed=1, which="min")


@pytest.mark.parametrize("n, which", [(2, 2), (2, 5), (2, -1), (3, 3), (3, -1)])
def test_count_which_rejects_index_outside_range(n, which):
    # a Morse index on S^{n-1} lies in [0, n - 1]; any other one would count 0
    with pytest.raises(ValueError, match=rf"Morse index in \[0, {n - 1}\]"):
        count_expected(P0, n, 2, seed=1, which=which, budget=4)


# ---------------------------------------------------------------------------
# the lockstep multistart against the per-start Newton it replaced

def _oracle_tangent(poly, sigma):
    """Projected gradient, tangent Hessian and tangent basis at one point."""
    p = poly.params.p
    axes = "abcdefgh"[:p]
    g = p * np.einsum(axes + "," + ",".join(axes[1:]) + "->a", poly.tensor, *([sigma] * (p - 1)))
    h = p * (p - 1) * np.einsum(axes + "," + ",".join(axes[2:]) + "->ab", poly.tensor, *([sigma] * (p - 2)))
    for i, (lam_i, k_i) in enumerate(zip(poly.params.lam, poly.params.k)):
        g[i] += lam_i * k_i * sigma[i] ** (k_i - 1)
        h[i, i] += lam_i * k_i * (k_i - 1) * sigma[i] ** (k_i - 2)
    radial = float(np.dot(sigma, g))
    n = len(sigma)
    b = np.linalg.qr(np.column_stack([sigma, np.eye(n)]))[0][:, 1:n]
    return g - radial * sigma, b.T @ h @ b - radial * np.eye(n - 1), b


def _oracle_newton(poly, sigma, tol):
    """Riemannian Newton from one start, one start at a time."""
    for _ in range(80):
        g_tan, h_tan, b = _oracle_tangent(poly, sigma)
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
            if np.linalg.norm(_oracle_tangent(poly, cand)[0]) < res:
                sigma = cand
                break
            step *= 0.5
        else:
            cand = sigma - 0.1 * g_tan / max(res, 1e-12)
            sigma = cand / np.linalg.norm(cand)
    return sigma, float(np.linalg.norm(_oracle_tangent(poly, sigma)[0]))


def _oracle_starts(poly, budget):
    rng = np.random.default_rng(poly.seed + (10_007,))
    return [v / np.linalg.norm(v) for v in (rng.normal(size=poly.n) for _ in range(budget))]


def _oracle_search(poly, budget, tol=1e-10):
    """The converged points of the per-start multistart, merged in start order."""
    found = []
    for start in _oracle_starts(poly, budget):
        sigma, res = _oracle_newton(poly, start, tol)
        if res <= tol and all(
            math.acos(float(np.clip(np.dot(prev, sigma), -1.0, 1.0))) >= 1e-6 for prev in found
        ):
            found.append(sigma)
    return found


def _assert_same_points(points, want):
    assert len(points) == len(want)
    for pt in points:
        assert min(np.max(np.abs(np.subtract(pt.position, w))) for w in want) <= 1e-12


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_lockstep_multistart_matches_per_start_oracle(n, lam):
    params = ModelParams(p=3, r=1, k=(3,), lam=(lam,))
    seed, trials, budget = 60 + n, 8, 12
    stacked = _landscape_points(params, n, trials, seed, budget)
    assert len(stacked) == trials
    for t, points in enumerate(stacked):
        _assert_same_points(points, _oracle_search(build_polynomial(params, n, (seed, t)), budget))


def test_lockstep_multistart_mixed_degrees():
    params = ModelParams(p=3, r=2, k=(3, 4), lam=(1.0, 0.5))
    for t, points in enumerate(_landscape_points(params, 3, 6, 70, 12)):
        _assert_same_points(points, _oracle_search(build_polynomial(params, 3, (70, t)), 12))


def test_lockstep_newton_singular_hessian():
    # f = 0 everywhere: every Hessian is the zero matrix, so each row takes
    # the least-squares step (zero) and then the gradient fallback; with a
    # negative tolerance no row ever stops early
    from pspinlab.kacrice import SpikedPolynomial, _multistart, _newton, _point_lists

    poly = SpikedPolynomial(P0, 3, (71, 0), np.zeros((3, 3, 3)))
    starts = np.array(_oracle_starts(poly, 3))
    sigma, res = _newton([poly], np.zeros(3, dtype=int), starts, -1.0)
    for row, r, start in zip(sigma, res, starts):
        want, want_res = _oracle_newton(poly, start, -1.0)
        assert np.max(np.abs(row - want)) <= 1e-12
        assert r == want_res == 0.0
    assert _point_lists(_multistart([poly], -1.0, 3), 1, P0.r) == [[]]


def test_lockstep_solve_falls_back_per_row():
    from pspinlab.kacrice import _solve

    h = np.stack([np.eye(2), np.zeros((2, 2)), np.array([[2.0, 1.0], [1.0, 3.0]])])
    rhs = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    x = _solve(h, rhs)
    assert np.array_equal(x[0], np.linalg.solve(h[0], rhs[0]))
    assert np.array_equal(x[1], np.linalg.lstsq(h[1], rhs[1], rcond=None)[0])
    assert np.array_equal(x[2], np.linalg.solve(h[2], rhs[2]))


def test_find_critical_points_matches_count_stack():
    # one landscape searched alone against the same landscape searched in a
    # stack of many, which count_expected refills many times
    from pspinlab.kacrice import _pass_rows

    trials, budget = 12, 40
    assert trials * budget > _pass_rows(3)
    stacked = _landscape_points(P1, 3, trials, 72, budget)
    alone = find_critical_points(build_polynomial(P1, 3, (72, 9)), budget=budget)
    assert [pt.index for pt in alone] == [pt.index for pt in stacked[9]]
    _assert_same_points(alone, [np.asarray(pt.position) for pt in stacked[9]])


@pytest.mark.parametrize("n", [3, 4])
def test_refilled_stack_matches_each_landscape_alone(monkeypatch, n):
    # the stack holds 5 rows, fewer than one landscape's 12 starts, so rows
    # of a landscape leave and enter it over many refills
    monkeypatch.setattr(kacrice, "_CHUNK", 5 * 25 * n)
    assert kacrice._pass_rows(n) == 5
    seed, trials, budget = 75 + n, 6, 12
    stacked = _landscape_points(P1, n, trials, seed, budget)
    assert stacked == [
        find_critical_points(build_polynomial(P1, n, (seed, t)), budget=budget) for t in range(trials)
    ]
    assert sum(map(len, stacked)) > trials
    # find_critical_points runs the same refilled stack; the per-start
    # oracle runs no stack at all
    for t, points in enumerate(stacked):
        _assert_same_points(points, _oracle_search(build_polynomial(P1, n, (seed, t)), budget))


def _count_peaks(params, trial_counts):
    """tracemalloc's peak over count_expected(params, 20, trials, budget=1)
    for each of trial_counts."""
    import tracemalloc

    # numpy's first calls allocate caches that later counts reuse
    count_expected(params, 20, 1, seed=0, budget=1)
    peaks = []
    for trials in trial_counts:
        tracemalloc.start()
        try:
            count_expected(params, 20, trials, seed=0, budget=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_count_memory_does_not_grow_with_trials(monkeypatch):
    # groups of 4 landscapes at n = 20 (64 KB tensors), the stack 3 rows:
    # a count of 6 groups peaks where a count of 2 does.  Searching every
    # landscape in one group, the 24-trial count peaked at 2.5 times the
    # 8-trial one
    monkeypatch.setattr(kacrice, "_CHUNK", 4 * 20 * 21)
    assert kacrice._search_group(20, 1) == 4
    peaks = _count_peaks(P1, (8, 24))
    assert peaks[1] < 1.2 * peaks[0]


def test_count_holds_one_group_of_tensors():
    # groups of 39 landscapes at n = 20: 40 trials hold one group and then
    # one landscape, 160 trials four groups and then four landscapes.  Built
    # while the previous group was still alive, the 160-trial count peaked
    # at 1.5 times the 40-trial one
    assert kacrice._search_group(20, 1) == 39
    peaks = _count_peaks(P0, (40, 160))
    assert peaks[1] <= 1.1 * peaks[0]


def test_count_builds_no_critical_point_records(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("count_expected built a CriticalPoint")

    monkeypatch.setattr(kacrice, "CriticalPoint", refuse)
    assert count_expected(P1, 2, 40, seed=76).value > 0
    assert count_expected(P1, 3, 4, seed=76, budget=10).value > 0


def _tally_oracle(params, n, trials, seed, overlap_windows, value_window, which, budget):
    """count_expected's value, std_error and extras as a per-point tally over
    find_critical_points of each landscape."""
    def window_ok(x, window):
        return window is None or (window[0] <= x <= window[1])

    windows = overlap_windows or [None] * params.r
    if which == "max":
        which = n - 1
    euler = 1 + (-1) ** (n - 1)
    counts, degenerate_counts = np.empty(trials), np.empty(trials)
    ill_conditioned = euler_mismatch = 0
    for t in range(trials):
        pts = find_critical_points(build_polynomial(params, n, (seed, t)), budget=budget)
        ill_conditioned += sum(pt.ill_conditioned for pt in pts)
        if any(pt.degenerate for pt in pts) or sum((-1) ** pt.index for pt in pts) != euler:
            euler_mismatch += 1
        c = dc = 0
        for pt in pts:
            if not all(window_ok(ov, win) for ov, win in zip(pt.overlaps, windows)):
                continue
            if not window_ok(pt.value, value_window):
                continue
            if pt.degenerate:
                dc += 1
                if which == "total":
                    c += 1
            elif which == "total" or pt.index == which:
                c += 1
        counts[t] = c
        degenerate_counts[t] = dc
    extras = {
        "complete": n == 2,
        "mean_degenerate": float(np.mean(degenerate_counts)),
        "ill_conditioned_roots": ill_conditioned,
        "euler_mismatch_landscapes": euler_mismatch,
    }
    return float(np.mean(counts)), float(np.std(counts, ddof=1)) / math.sqrt(trials), extras


R2 = ModelParams(p=3, r=2, k=(3, 4), lam=(1.0, 0.5))


@pytest.mark.parametrize("params, n, trials, budget, windows, value_window, which", [
    (R2, 2, 150, 200, [(0.0, 0.9), None], (-0.6, 0.8), "total"),
    (R2, 2, 150, 200, [(0.0, 0.9), None], (-0.6, 0.8), 0),
    (R2, 2, 150, 200, [(0.0, 0.9), None], (-0.6, 0.8), "max"),
    (P1, 3, 10, 20, None, None, 1),
], ids=["n2-total", "n2-index0", "n2-max", "n3-index1"])
def test_count_matches_per_point_tally(params, n, trials, budget, windows, value_window, which):
    est = count_expected(params, n, trials, seed=77, overlap_windows=windows,
                         value_window=value_window, which=which, budget=budget)
    value, std_error, extras = _tally_oracle(params, n, trials, 77, windows, value_window, which, budget)
    assert est.value == value
    assert est.std_error == std_error
    assert est.extras == extras
    assert [type(v) for v in est.extras.values()] == [type(v) for v in extras.values()]


def test_multistart_pass_size_keeps_points(monkeypatch):
    from pspinlab import kacrice

    poly = build_polynomial(P1, 3, (74, 0))
    whole = find_critical_points(poly, budget=30)
    monkeypatch.setattr(kacrice, "_CHUNK", 7 * 25 * 3)
    assert kacrice._pass_rows(3) == 7
    split = find_critical_points(poly, budget=30)
    assert [pt.index for pt in split] == [pt.index for pt in whole]
    _assert_same_points(split, [np.asarray(pt.position) for pt in whole])


# float.hex() of value and std_error, and the extras, of count_expected at
# seed 80 and budget 20: the n >= 3 search has no artifact digest, so these
# pin the bits of its lockstep Newton, its dedup and its classification
COUNT_GOLDEN = {
    "p3-n3": (P1, 3, 12, ("0x1.c000000000000p+2", "0x1.ec39616055455p-1"), 11),
    "p3-n4": (P1, 4, 6, ("0x1.3000000000000p+3", "0x1.4220532e48a3dp+0"), 3),
    "r2-k34-n3": (R2, 3, 6, ("0x1.c000000000000p+2", "0x1.5775c544ff264p+0"), 5),
}


@pytest.mark.parametrize("case", sorted(COUNT_GOLDEN))
def test_count_matches_recorded_bits(case):
    params, n, trials, want, mismatch = COUNT_GOLDEN[case]
    est = count_expected(params, n, trials, seed=80, budget=20)
    assert (est.value.hex(), est.std_error.hex()) == want
    assert est.extras == {
        "complete": False,
        "mean_degenerate": 0.0,
        "ill_conditioned_roots": 0,
        "euler_mismatch_landscapes": mismatch,
    }


def test_search_points_match_recorded_digest():
    # sha256 over the float.hex() of every position and value found on four
    # landscapes (81, t) each at n = 3 and n = 4, budget 25
    import hashlib

    digest = hashlib.sha256()
    found = 0
    for n in (3, 4):
        for t in range(4):
            for pt in find_critical_points(build_polynomial(P1, n, (81, t)), budget=25):
                digest.update(" ".join(v.hex() for v in (*pt.position, pt.value)).encode() + b"\n")
                found += 1
    assert found == 76
    assert digest.hexdigest() == "0719610520e6251b17303bd35855626b686d3f4d0aa5371e6f5bc42d864fe983"


def test_count_rejects_empty_budget():
    for budget in (0, -3):
        with pytest.raises(ValueError):
            count_expected(P0, 3, 2, seed=1, budget=budget)
        with pytest.raises(ValueError):
            find_critical_points(build_polynomial(P0, 3, (1, 0)), budget=budget)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [1e300, 1.7e308])
@pytest.mark.parametrize("n", [2, 3])
def test_overflowing_landscape_raises(n, lam):
    # at lam = 1e300 the squared gradient norm overflows: the count read 0
    # at n = 3 and 6 at n = 2, each after a numpy overflow warning; at
    # 1.7e308 the gradient itself overflows
    params = ModelParams(p=3, r=1, k=(3,), lam=(lam,))
    with pytest.raises(ValueError, match="gradient leaves the float range"):
        count_expected(params, n, 2, seed=0, budget=3)
    with pytest.raises(ValueError, match="gradient leaves the float range"):
        find_critical_points(build_polynomial(params, n, (0, 0)), budget=3)


def test_euler_mismatch_counts_incomplete_landscapes():
    # on the circle the count is complete: maxima and minima alternate, so
    # the Morse sum is chi(S^1) = 0 on every landscape
    complete = count_expected(P1, 2, 200, seed=73)
    assert complete.extras["euler_mismatch_landscapes"] == 0
    # one start finds at most one point, whose Morse sign +-1 is never
    # chi(S^2) = 2
    sparse = count_expected(P0, 3, 10, seed=73, budget=1)
    assert sparse.extras["euler_mismatch_landscapes"] == 10


def test_count_keeps_degenerate_points_out_of_index_counts(monkeypatch):
    # no circle landscape makes a degenerate point (its one tangent
    # eigenvalue is inside its own zero band only when exactly 0), so
    # hand-built points stand in; the second landscape's Morse sum is 0, and
    # only its degenerate point breaks the relation.  Both landscapes come
    # as one pass of arrays, all points at (0.6, 0.8) with value 0
    rows = 6
    found = (
        np.array([0, 0, 1, 1, 1, 1]),
        np.tile([0.6, 0.8], (rows, 1)),
        np.zeros(rows),
        np.array([0, 1, 0, 1, 0, 1]),
        np.zeros(rows),
        np.array([False, False, False, False, True, False]),
        np.zeros(rows, dtype=bool),
    )
    monkeypatch.setattr(kacrice, "_landscapes", lambda *args: iter([(found, 2)]))
    for which, value in (("total", 3.0), (0, 1.0), ("max", 1.5)):
        est = count_expected(P1, 2, 2, which=which)
        assert est.value == value, which
        assert est.extras["mean_degenerate"] == 0.5
        assert est.extras["euler_mismatch_landscapes"] == 1


def test_count_rejects_wrong_number_of_overlap_windows():
    # zipping one window against two overlaps would leave m2 unwindowed
    params = ModelParams(p=3, r=2, k=(3, 3), lam=(1.0, 0.5))
    for windows in ([(0.0, 1.0)], [(0.0, 1.0)] * 3, []):
        with pytest.raises(ValueError):
            count_expected(params, 2, 2, seed=0, overlap_windows=windows)
    one = count_expected(params, 2, 2, seed=0, overlap_windows=[(0.0, 1.0), None])
    both = count_expected(params, 2, 2, seed=0, overlap_windows=[(0.0, 1.0), (-1.0, 1.0)])
    assert one.value == both.value
