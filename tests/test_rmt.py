"""Spiked GOE sampling, Monte Carlo estimators, spectral distances."""
import math

import numpy as np
import pytest

from pspinlab import (
    GOESpec,
    esd_distance,
    mc_lambda_max_tail,
    mc_log_abs_det,
    mc_restricted_det,
    sample_spectrum,
    spherical_integral_mc,
)


@pytest.mark.parametrize("kwargs", [
    {"gamma": (math.inf,)}, {"gamma": (1.5, math.nan)}, {"shift": math.nan}, {"shift": -math.inf},
])
def test_spec_rejects_non_finite_inputs(kwargs):
    with pytest.raises(ValueError):
        GOESpec(n=5, **kwargs)


def test_sampling_deterministic():
    spec = GOESpec(n=50, gamma=(1.5,), shift=0.3, seed=42)
    a = sample_spectrum(spec)
    b = sample_spectrum(spec)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_n1_variance_is_two():
    # the 1x1 entry is a diagonal element, variance 2/n = 2
    vals = [
        sample_spectrum(GOESpec(n=1, seed=5000 + t)).eigenvalues[0]
        for t in range(4000)
    ]
    v = float(np.var(vals))
    assert abs(v - 2.0) < 0.15


def test_second_moment_near_one():
    # bulk second moment of the semicircle on [-2, 2] is 1
    spec = GOESpec(n=300, seed=9)
    vals = sample_spectrum(spec).eigenvalues
    m2 = float(np.mean(vals**2))
    assert abs(m2 - 1.0) < 0.05


def test_spike_shifts_edge():
    spec = GOESpec(n=500, gamma=(2.0,), seed=3)
    vals = sample_spectrum(spec).eigenvalues
    assert abs(float(vals.max()) - 2.5) < 0.15
    unspiked = GOESpec(n=500, seed=3)
    base = sample_spectrum(unspiked).eigenvalues
    assert abs(float(base.max()) - 2.0) < 0.15


def test_mc_log_abs_det_n1_exact():
    # E|Z| with Z ~ N(0,2) gives (1/1) log E = 0.5 log(4/pi)
    spec = GOESpec(n=1, seed=11)
    est = mc_log_abs_det(spec, 40000)
    want = 0.5 * math.log(4.0 / math.pi)
    assert abs(est.value - want) < 4.0 * est.std_error + 0.01
    assert est.extras["underflow_trials"] == 0


def test_mc_log_abs_det_limit_trend():
    # discrepancy against the limit shrinks along n = 50, 100, 200
    from pspinlab import phi_star

    target = phi_star(0.0)
    errs = []
    for n in (50, 100, 200):
        est = mc_log_abs_det(GOESpec(n=n, seed=21), 80)
        errs.append(abs(est.value - target))
    assert errs[2] < errs[0]


def test_mc_restricted_det_rejects():
    # shift below the bulk edge makes the semidefinite gate reject every draw
    spec = GOESpec(n=80, seed=2, shift=-2.5)
    est = mc_restricted_det(spec, 50)
    assert est.extras["acceptance_fraction"] == 0.0
    assert est.value == float("-inf")
    assert est.extras["all_rejected"] is True


def test_mc_restricted_det_accepts_at_high_shift():
    spec = GOESpec(n=60, seed=4, shift=10.0)
    plain = mc_log_abs_det(spec, 120)
    gated = mc_restricted_det(spec, 120)
    assert gated.extras["acceptance_fraction"] == 1.0
    assert gated.value == pytest.approx(plain.value, abs=1e-12)


def test_mc_lambda_max_tail_basic():
    spec = GOESpec(n=100, gamma=(1.5,), seed=8)
    est = mc_lambda_max_tail(spec, 4000, 2.0)
    assert 0.0 < est.extras["tail_probability"] < 1.0
    assert est.value < 0.0
    # (1/n) log P is within finite-size bias of the rate prediction
    from pspinlab import big_l

    want = -big_l((1.5,), 2.0)
    assert abs(est.value - want) < 0.04


def test_mc_lambda_max_tail_empty():
    spec = GOESpec(n=30, seed=5)
    est = mc_lambda_max_tail(spec, 40, -3.0)
    assert est.extras["empty_tail"] is True
    assert est.value == float("-inf")


def test_esd_distance_small():
    spec = GOESpec(n=1000, seed=0)
    d = esd_distance(spec)
    assert d["w1"] < 0.05
    assert d["d_bl"] <= d["w1"] + 1e-12
    assert d["d_bl"] > 0.0


@pytest.mark.parametrize("gamma", [(), (2.5, 0.5)])
def test_w1_matches_cdf_quadrature(gamma):
    # oracle: W1 = integral of |F_emp - F_sc| dx, on a fine grid; it shares
    # no code with the quantile coupling
    from pspinlab.rmt import _w1_to_semicircle

    ev = sample_spectrum(GOESpec(n=300, gamma=gamma, seed=3)).eigenvalues
    x = np.linspace(min(ev[0], -2.0) - 0.1, max(ev[-1], 2.0) + 0.1, 2_000_001)
    xc = np.clip(x, -2.0, 2.0)
    f_sc = 0.5 + xc * np.sqrt(4.0 - xc * xc) / (4.0 * np.pi) + np.arcsin(xc / 2.0) / np.pi
    f_emp = np.searchsorted(ev, x, side="right") / len(ev)
    oracle = float(np.sum(np.abs(f_emp - f_sc)) * (x[1] - x[0]))
    assert _w1_to_semicircle(ev) == pytest.approx(oracle, abs=1e-5)


def test_esd_spiked_comparable():
    base = esd_distance(GOESpec(n=1000, seed=0))
    spiked = esd_distance(GOESpec(n=1000, gamma=(1.5, 0.5), seed=0))
    assert spiked["w1"] <= 2.0 * base["w1"]


def test_spherical_integral_rank_one_oracle():
    # rank one: <v, D v> with v uniform needs only the squared coordinates,
    # which are Dirichlet(1/2, ..., 1/2); an independent sampler must agree
    n = 24
    rng = np.random.default_rng(3)
    diag = np.sort(rng.uniform(-1.0, 1.0, size=n))
    gamma = (0.6,)
    est = spherical_integral_mc(n, gamma, diag, 20000, seed=12)

    r2 = np.random.default_rng(99)
    w = r2.normal(size=(200000, n)) ** 2
    w /= w.sum(axis=1, keepdims=True)
    want = float(np.mean(np.exp(0.5 * n * gamma[0] * (w @ diag))))

    rel = abs(est.value - want) / want
    assert rel < 0.05


@pytest.mark.parametrize("gamma, diag", [
    ((math.nan,), (1.0, 2.0, 3.0)), ((0.5, math.inf), (1.0, 2.0, 3.0)),
    ((0.5,), (math.nan, 2.0, 3.0)), ((0.5,), (1.0, -math.inf, 3.0)),
])
def test_spherical_integral_rejects_non_finite_inputs(gamma, diag):
    # a NaN weight would make every log term NaN and the estimate +inf
    with pytest.raises(ValueError):
        spherical_integral_mc(3, gamma, diag, 5, seed=0)


def test_spherical_integral_deterministic():
    diag = np.linspace(-1.0, 1.0, 16)
    a = spherical_integral_mc(16, (0.5,), diag, 500, seed=5)
    b = spherical_integral_mc(16, (0.5,), diag, 500, seed=5)
    assert a.value == b.value


def _spherical_loop(n, gamma, diag, trials, seed):
    """spherical_integral_mc one frame at a time: the reference for the
    chunked frames, which must give the same bits."""
    from pspinlab import rmt

    gam, d = np.asarray(gamma, dtype=float), np.asarray(diag, dtype=float)
    exps = []
    for t in range(trials):
        z = np.random.default_rng((seed, t)).normal(size=(n, len(gam)))
        q, rm = np.linalg.qr(z)
        q = q * np.sign(np.diag(rm))
        exps.append(float(0.5 * n * np.dot(gam, np.einsum("j,ji->i", d, q * q))))
    log_mean, se_log, weights = rmt._log_mean_exp(np.array(exps))
    value = math.exp(log_mean) if log_mean < 700 else math.inf
    se = value * se_log if math.isfinite(value) else math.inf
    return value, se, {"log_value": log_mean, "log_std_error_of_log": se_log, **weights}


@pytest.mark.parametrize("n", [5, 30, 200])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("entries", [None, 7])
def test_spherical_integral_chunks_match_per_trial_loop(monkeypatch, n, r, entries):
    # entries = 7 frames per chunk puts chunk ends inside the run
    from pspinlab import rmt

    if entries is not None:
        monkeypatch.setattr(rmt, "_FRAME_ENTRIES", entries * n * r)
    gamma = (0.8, -0.3, 1.7)[:r]
    diag = np.sort(np.random.default_rng(n).uniform(-1.0, 1.0, size=n))
    trials = 250
    est = spherical_integral_mc(n, gamma, diag, trials, seed=4)
    value, se, extras = _spherical_loop(n, gamma, diag, trials, 4)
    assert (est.value, est.std_error, est.extras) == (value, se, extras)


def test_underflow_flag_exposed():
    spec = GOESpec(n=2, seed=1)
    est = mc_log_abs_det(spec, 10)
    assert "underflow_trials" in est.extras
    assert "all_underflow" in est.extras


# ---------------------------------------------------------------------------
# the factorized estimators against an eigenvalue oracle

def _oracle_matrix(spec: GOESpec, trial: int) -> np.ndarray:
    """The draw of (seed, trial), built here from the RNG stream in fresh
    arrays: the spikes are added, then the shift subtracted, in the order the
    recorded artifacts were drawn in, so the bits are theirs."""
    a = np.random.default_rng((spec.seed, trial)).normal(size=(spec.n, spec.n))
    w = (a + a.T) / math.sqrt(2.0 * spec.n)
    r = len(spec.gamma)
    w[range(r), range(r)] += spec.gamma
    if spec.shift != 0.0:
        w[np.diag_indices(spec.n)] -= spec.shift
    return w


def _oracle_eigenvalues(spec: GOESpec, trial: int) -> np.ndarray:
    """The draw of (seed, trial), built here from the RNG stream, diagonalized."""
    return np.linalg.eigvalsh(_oracle_matrix(spec, trial))


@pytest.mark.parametrize("n", [1, 2, 3, 30, 400])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_goe_draw_matches_normal_stream(n, seed):
    # standard_normal and normal(0, 1) return the same bits, so the stream is
    # the one recorded artifacts were drawn from
    from pspinlab.rmt import _goe

    for trial in range(3):
        a = np.random.default_rng((seed, trial)).normal(size=(n, n))
        assert np.array_equal(_goe(n, seed, trial), (a + a.T) / math.sqrt(2.0 * n))


def test_draws_reuse_one_buffer():
    # every trial is drawn into the same array, which holds that trial's
    # matrix until the next draw; sample_spectrum keeps the bits of a fresh draw
    from pspinlab.rmt import _draws

    spec = GOESpec(n=30, gamma=(1.5, 0.5), shift=0.3, seed=9)
    seen = []
    for t, w in zip(range(4), _draws(spec, range(4))):
        assert np.array_equal(w, _oracle_matrix(spec, t))
        seen.append(w)
    assert all(w is seen[0] for w in seen)
    assert np.array_equal(sample_spectrum(spec).eigenvalues, _oracle_eigenvalues(spec, 0))


def _per_trial_logs(monkeypatch, estimator, spec, trials):
    """The per-trial log|det| values an estimator hands to its log-mean-exp."""
    from pspinlab import rmt

    seen = []
    reduce = rmt._log_mean_exp

    def spy(logs):
        seen.append(np.array(logs))
        return reduce(logs)

    monkeypatch.setattr(rmt, "_log_mean_exp", spy)
    estimate = estimator(spec, trials)
    monkeypatch.undo()
    (logs,) = seen
    return logs, estimate


@pytest.mark.parametrize("n", [1, 2, 50, 200])
@pytest.mark.parametrize("shift", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("spiked", [False, True])
def test_factorized_log_abs_det_matches_eigenvalues(monkeypatch, n, shift, spiked):
    gamma = (1.5, 0.5)[:n] if spiked else ()
    spec = GOESpec(n=n, gamma=gamma, shift=shift, seed=13)
    trials = 6
    plain, _ = _per_trial_logs(monkeypatch, mc_log_abs_det, spec, trials)
    gated, _ = _per_trial_logs(monkeypatch, mc_restricted_det, spec, trials)
    for t in range(trials):
        ev = _oracle_eigenvalues(spec, t)
        want = float(np.sum(np.log(np.abs(ev))))
        assert plain[t] == pytest.approx(want, abs=1e-9)
        if ev[-1] <= 0.0:
            assert gated[t] == pytest.approx(want, abs=1e-9)
        else:
            assert gated[t] == float("-inf")


@pytest.mark.parametrize("n", [1, 2, 50, 200, 400])
@pytest.mark.parametrize("shift", [0.0, 1.0])
@pytest.mark.parametrize("spiked", [False, True])
def test_estimators_match_fresh_draws_bitwise(monkeypatch, n, shift, spiked):
    # the reused buffer must give each estimator's per-trial value the bits
    # of the same routine on a freshly built matrix
    from pspinlab.rmt import _log_abs_det_negative_definite

    spec = GOESpec(n=n, gamma=(1.5, 0.5)[:n] if spiked else (), shift=shift, seed=13)
    trials = 4
    fresh = [_oracle_matrix(spec, t) for t in range(trials)]
    plain, _ = _per_trial_logs(monkeypatch, mc_log_abs_det, spec, trials)
    gated, _ = _per_trial_logs(monkeypatch, mc_restricted_det, spec, trials)
    assert plain.tolist() == [np.linalg.slogdet(m)[1] for m in fresh]
    assert gated.tolist() == [_log_abs_det_negative_definite(m) for m in fresh]

    tops = []
    eigvalsh = np.linalg.eigvalsh

    def recording(m):
        ev = eigvalsh(m)
        tops.append(ev[-1])
        return ev

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    mc_lambda_max_tail(spec, trials, 2.0)
    monkeypatch.undo()
    assert tops == [eigvalsh(m)[-1] for m in fresh]


@pytest.mark.parametrize("shift", [2.0, 2.4])
def test_cholesky_acceptance_matches_eigenvalue_gate(monkeypatch, shift):
    spec = GOESpec(n=100, gamma=(1.5,), shift=shift, seed=0)
    trials = 500
    logs, est = _per_trial_logs(monkeypatch, mc_restricted_det, spec, trials)
    oracle = np.array([_oracle_eigenvalues(spec, t)[-1] <= 0.0 for t in range(trials)])
    assert np.array_equal(np.isfinite(logs), oracle)
    assert 0 < est.extras["accepted_trials"] == int(np.sum(oracle)) < trials


def test_det_estimators_call_no_eigensolver(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    spec = GOESpec(n=40, gamma=(1.5,), shift=2.6, seed=1)
    mc_log_abs_det(spec, 20)
    mc_restricted_det(spec, 20)
    assert calls == []
    sample_spectrum(spec)  # the spectrum path still diagonalizes, through the patch
    assert calls == [1]


# ---------------------------------------------------------------------------
# weight diagnostics of the log-mean-exp reduction

@pytest.mark.parametrize("offset", [0.0, 700.0, -700.0])
def test_log_mean_exp_weights_hand_built(offset):
    from pspinlab.rmt import _log_mean_exp

    # weights 1, 1, 2, 4 (scaled by 1/4): sum 2, sum of squares 1.375
    logs = np.log(np.array([1.0, 1.0, 2.0, 4.0])) + offset
    log_mean, _, w = _log_mean_exp(logs)
    assert log_mean == pytest.approx(math.log(2.0) + offset, abs=1e-12)
    assert w["ess"] == pytest.approx(4.0 / 1.375, rel=1e-14)
    assert w["max_weight_share"] == pytest.approx(0.5, rel=1e-14)
    assert w["low_ess"] is False

    # 20 trials, one carries all the mass: ESS 1 < 0.1 * 20
    logs = np.full(20, float("-inf"))
    logs[7] = offset
    _, _, w = _log_mean_exp(logs)
    assert (w["ess"], w["max_weight_share"], w["low_ess"]) == (1.0, 1.0, True)

    # two equal masses: ESS 2, low at 21 trials (2 < 2.1), not at 19 (2 >= 1.9)
    for trials, low in ((21, True), (19, False)):
        logs = np.full(trials, float("-inf"))
        logs[[3, 11]] = offset
        _, _, w = _log_mean_exp(logs)
        assert (w["ess"], w["max_weight_share"], w["low_ess"]) == (2.0, 0.5, low)

    # equal weights: every trial counts
    _, _, w = _log_mean_exp(np.full(50, offset))
    assert w["ess"] == pytest.approx(50.0, rel=1e-14)
    assert w["max_weight_share"] == pytest.approx(0.02, rel=1e-14)
    assert w["low_ess"] is False


def test_log_mean_exp_weights_without_mass():
    from pspinlab.rmt import _log_mean_exp

    log_mean, se, w = _log_mean_exp(np.full(5, float("-inf")))
    assert log_mean == float("-inf") and math.isnan(se)
    assert w["ess"] == 0.0 and math.isnan(w["max_weight_share"]) and w["low_ess"] is True
    est = mc_restricted_det(GOESpec(n=10, seed=2, shift=-3.0), 5)
    assert est.extras["ess"] == 0.0 and est.extras["low_ess"] is True
