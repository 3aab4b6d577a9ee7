"""Rank-r perturbation spectrum of the conditioned Hessian."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pspinlab import (
    ModelParams,
    perturbation_factors,
    spike_eigenvalues,
    spike_eigenvalues_r2,
)

P1 = ModelParams(p=3, r=1, k=(3,), lam=(1.0,))
P2 = ModelParams(p=3, r=2, k=(3, 3), lam=(1.0, 1.0))


def test_theta_frozen():
    theta, gram = perturbation_factors(P1, [0.5])
    assert theta[0] == pytest.approx(1.2990381057, abs=1e-9)
    assert gram.shape == (1, 1) and gram[0, 0] == 1.0


def test_theta_formula():
    lam, m, k, p = 0.7, 0.3, 4, 4
    params = ModelParams(p=p, r=1, k=(k,), lam=(lam,))
    theta, _ = perturbation_factors(params, [m])
    want = math.sqrt(2.0 / (p * (p - 1))) * k * (k - 1) * lam * m ** (k - 2) * (
        1.0 - m * m
    )
    assert theta[0] == pytest.approx(want, abs=1e-14)


def test_gram_off_diagonal():
    _, gram = perturbation_factors(P2, [0.5, 0.5])
    want = -0.25 / 0.75
    assert gram[0, 1] == pytest.approx(want, abs=1e-14)
    assert gram[1, 0] == pytest.approx(want, abs=1e-14)


def test_spike_pair_frozen():
    vals = spike_eigenvalues(P2, [0.5, 0.5])
    assert vals[0] == pytest.approx(math.sqrt(3.0), abs=1e-9)
    assert vals[1] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-9)


def test_r2_closed_form_agreement():
    rng = np.random.default_rng(5)
    for _ in range(200):
        lam = np.sort(rng.uniform(0.0, 3.0, size=2))[::-1]
        params = ModelParams(p=3, r=2, k=(3, 3), lam=tuple(lam))
        m = rng.uniform(0.05, 0.7, size=2)
        if m @ m >= 1.0:
            continue
        general = spike_eigenvalues(params, m)
        closed = spike_eigenvalues_r2(params, m)
        assert np.allclose(general, closed, atol=1e-12)


def test_r2_rejects_other_ranks():
    with pytest.raises(ValueError):
        spike_eigenvalues_r2(P1, [0.5])


def test_trace_identity():
    params = ModelParams(p=4, r=3, k=(4, 4, 4), lam=(2.0, 1.0, 0.5))
    m = [0.3, 0.4, 0.2]
    theta, _ = perturbation_factors(params, m)
    vals = spike_eigenvalues(params, m)
    assert float(np.sum(vals)) == pytest.approx(float(np.sum(theta)), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(3, 5),
    st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3),
    st.lists(st.floats(0.01, 0.57), min_size=3, max_size=3),
)
def test_psd_on_unit_box(r, p, lam, m):
    lam = tuple(sorted(lam[:r], reverse=True))
    params = ModelParams(p=p, r=r, k=(p,) * r, lam=lam)
    vals = spike_eigenvalues(params, m[:r])
    assert vals[-1] >= -1e-10
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))


def test_degenerate_overlap_rejected():
    with pytest.raises(ValueError):
        perturbation_factors(P1, [1.0])
    with pytest.raises(ValueError):
        spike_eigenvalues(P1, [-1.0])


def test_continuity_near_axis():
    # eigenvalues vary smoothly as one overlap crosses zero
    base = spike_eigenvalues(P2, [0.5, 1e-12])
    near = spike_eigenvalues(P2, [0.5, 1e-7])
    assert np.allclose(base, near, atol=1e-5)


@pytest.mark.parametrize(
    "params",
    [
        ModelParams(p=4, r=1, k=(4,), lam=(1.3,)),
        ModelParams(p=3, r=2, k=(4, 5), lam=(2.0, 1.5)),
        ModelParams(p=5, r=3, k=(3, 4, 5), lam=(2.0, 1.0, 0.5)),
    ],
)
def test_stack_matches_single_points_bitwise(params):
    # numpy picks its power loop by shape and exponent dtype (x*x for 2 on some
    # layouts), so a stack and its rows one at a time must agree bit for bit
    pts = np.random.default_rng(11).uniform(-0.6, 0.95, size=(300, params.r))
    theta, gram = perturbation_factors(params, pts)
    vals = spike_eigenvalues(params, pts)
    for i, row in enumerate(pts):
        one_theta, one_gram = perturbation_factors(params, row)
        assert theta[i].tobytes() == one_theta.tobytes()
        assert gram[i].tobytes() == one_gram.tobytes()
        assert vals[i].tobytes() == spike_eigenvalues(params, row).tobytes()


def test_overflowing_perturbation_raises_at_rank_two_only():
    # at r = 1 the eigenvalue is theta itself and overflows to +inf; at r > 1
    # an infinite or NaN entry leaves no spectrum, on one point and on a stack
    big = ModelParams(p=3, r=1, k=(3,), lam=(1.7e308,))
    with np.errstate(over="ignore"):
        assert spike_eigenvalues(big, [0.5]).tolist() == [math.inf]
    big2 = ModelParams(p=3, r=2, k=(3, 3), lam=(1.7e308, 1.2))
    for m in ([0.5, 0.3], [-0.5, 0.3], [[0.5, 0.3], [0.2, 0.1]]):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
            spike_eigenvalues(big2, m)
    # finite theta, but theta_1 * gram_12 overflows on a mixed-sign row
    near = ModelParams(p=3, r=2, k=(3, 3), lam=(1e307, 1.2))
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        spike_eigenvalues(near, [-0.5, 1.0 - 2.0**-52])
