"""Acceptance gate: ten binding checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
Criterion 2 encodes two literal constants that the closed-form layer cannot
meet as stated; the test is implemented faithfully and left red rather than
loosened.  See the repository README for the analysis.  The signed-ball
tests beside criterion 1 extend its check from the orthant to the whole
overlap ball.
"""
import math

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from pspinlab import (
    GOESpec,
    ModelParams,
    appendix_diagnostics,
    big_l,
    count_expected,
    esd_distance,
    eta_critical,
    f_ab,
    g_ab,
    i_gamma,
    i_max,
    kac_rice_eval,
    lambda_critical,
    mc_lambda_max_tail,
    mc_log_abs_det,
    phi_star,
    sigma_max_joint,
    sigma_tot_joint,
    sigma_tot_projected,
    tau_critical,
    zero_locus_solve,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _offset(params: ModelParams, m) -> float:
    # x-value at which the recentred shift y vanishes
    return float(
        sum(
            lam * (1.0 - k / params.p) * mi**k
            for lam, k, mi in zip(params.lam, params.k, m)
        )
    )


def test_criterion_01_projection_equals_variational():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        p = int(rng.integers(3, 6))
        r = int(rng.integers(1, 4))
        lam = tuple(sorted(rng.uniform(0.0, 3.0, size=r), reverse=True))
        params = ModelParams(p=p, r=r, k=(p,) * r, lam=lam)
        while True:
            m = rng.uniform(0.0, 1.0, size=r)
            a = float(m @ m)
            if 1e-4 < a < 0.999:
                break
        proj = sigma_tot_projected(params, m)
        center = _offset(params, m)
        res = minimize_scalar(
            lambda x: -sigma_tot_joint(params, m, x),
            bounds=(center - 30.0, center + 30.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        worst = max(worst, abs(proj - (-float(res.fun))))
    _report(1, "projection equals variational max", worst <= 1e-8,
            f"worst |closed-form - numeric max| = {worst:.3e} over 1000 draws")


def _numeric_max(params: ModelParams, m) -> float:
    center = _offset(params, m)
    res = minimize_scalar(
        lambda x: -sigma_tot_joint(params, m, x),
        bounds=(center - 30.0, center + 30.0),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return -float(res.fun)


@pytest.mark.parametrize("lam, m, true_max", [
    ((2.0,), (-0.9945,), -0.2919),
    ((1.0,), (-0.9,), -0.0010),
    ((2.0, 1.5), (-0.6, -0.6), -0.119),
    ((2.0, 1.5), (0.6, -0.6), -2.650),
])
def test_signed_ball_projection_known_points(lam, m, true_max):
    # odd k with negative overlaps gives tau < 0, where only |tau| may enter
    params = ModelParams(p=3, r=len(lam), k=(3,) * len(lam), lam=lam)
    proj = sigma_tot_projected(params, m)
    assert proj == pytest.approx(_numeric_max(params, m), abs=1e-8)
    assert proj == pytest.approx(true_max, abs=1e-3)


def test_signed_ball_projection_equals_variational():
    # criterion 1 on the whole overlap ball, with mixed orders k
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        p = int(rng.integers(3, 6))
        r = int(rng.integers(1, 4))
        k = tuple(int(v) for v in rng.integers(3, 7, size=r))
        lam = tuple(sorted(rng.uniform(0.0, 3.0, size=r), reverse=True))
        params = ModelParams(p=p, r=r, k=k, lam=lam)
        while True:
            m = rng.uniform(-1.0, 1.0, size=r)
            if 1e-4 < float(m @ m) < 0.999:
                break
        worst = max(worst, abs(sigma_tot_projected(params, m) - _numeric_max(params, m)))
    assert worst <= 1e-8, f"worst |closed-form - numeric max| = {worst:.3e}"


def test_criterion_02_zero_locus_constants():
    strong = ModelParams(p=3, r=1, k=(3,), lam=(2.0,))
    weak = ModelParams(p=3, r=1, k=(3,), lam=(0.5,))
    sols = zero_locus_solve(strong)
    problems = []
    if len(sols) != 2:
        problems.append(f"expected 2 roots, got {len(sols)}")
    else:
        small, large = sols[0][0], sols[1][0]
        if abs(small - 0.208720) > 1e-6:
            problems.append(f"|{small:.10f} - 0.208720| = "
                            f"{abs(small - 0.208720):.3e} > 1e-6")
        if abs(large - 0.977975) > 1e-6:
            problems.append(f"|{large:.10f} - 0.977975| = "
                            f"{abs(large - 0.977975):.3e} > 1e-6")
        for root in (small, large):
            surf = sigma_tot_projected(strong, [root])
            if abs(surf) > 1e-6:
                problems.append(f"|sigma_tot({root:.6f})| = {abs(surf):.4f} > 1e-6")
    if zero_locus_solve(weak):
        problems.append("weak-spike locus not empty")
    _report(2, "zero-locus constants", not problems,
            "; ".join(problems) if problems else
            "both roots and both surface values within stated tolerances")


def _regime_grid(lam: tuple[float, float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    params = ModelParams(p=3, r=2, k=(3, 3), lam=lam)
    xs = np.linspace(0.0, 1.0, 200)
    surf = np.full((200, 200), -np.inf)
    for i, m1 in enumerate(xs):
        for j, m2 in enumerate(xs):
            if 0.0 < m1 * m1 + m2 * m2 < 1.0:
                surf[i, j] = sigma_tot_projected(params, [m1, m2])
    m1g, m2g = np.meshgrid(xs, xs, indexing="ij")
    return surf, m1g, m2g


def test_criterion_03_regime_atlas():
    # a region is "present" when the grid reaches |surface| <= eps inside it,
    # "absent" when the surface stays below -delta throughout
    eps, delta_axis, delta_arc = 5e-3, 3e-2, 1.2e-2
    cases = {
        (0.5, 0.2): (True, False, False, False),
        (0.9, 0.5): (True, True, False, False),
        (1.2, 0.9): (True, True, True, False),
        (2.0, 1.5): (True, True, True, True),
    }
    failures = []
    for lam, want in cases.items():
        surf, m1g, m2g = _regime_grid(lam)
        alpha = m1g**2 + m2g**2
        dom = (alpha > 0.0) & (alpha < 1.0)
        boxes = {
            "band": dom & (alpha >= 0.05) & (alpha <= 0.62),
            "axis1": dom & (m1g >= 0.78) & (m2g <= 0.06),
            "axis2": dom & (m2g >= 0.78) & (m1g <= 0.06),
            "arc": dom & (m1g >= 0.3) & (m2g >= m1g) & (alpha >= 0.68),
        }
        deltas = {"band": eps, "axis1": delta_axis, "axis2": delta_axis,
                  "arc": delta_arc}
        for region, expect in zip(boxes, want):
            vals = surf[boxes[region]]
            present = bool(np.min(np.abs(vals)) <= eps)
            absent = bool(np.max(vals) <= -deltas[region])
            if expect and not present:
                failures.append(f"{lam}/{region}: no near-zero cell "
                                f"(min |surface| = {np.abs(vals).min():.4f})")
            if not expect and not absent:
                failures.append(f"{lam}/{region}: not strictly negative "
                                f"(max surface = {vals.max():.4f})")
    _report(3, "regime atlas", not failures,
            "; ".join(failures) if failures else
            "all four qualitative pictures reproduced on 200x200 grids")


def test_criterion_04_determinant_asymptotics():
    gamma = (1.5, 0.5)
    failures = []
    for t in (0.0, 1.0, 3.0):
        est = mc_log_abs_det(GOESpec(n=200, gamma=gamma, shift=t, seed=0), 200)
        err = abs(est.value - phi_star(t))
        if err > 0.15:
            failures.append(f"t={t}: |err| = {err:.4f} > 0.15")
    seq = [
        abs(
            mc_log_abs_det(GOESpec(n=n, gamma=gamma, shift=0.0, seed=0), 200).value
            - phi_star(0.0)
        )
        for n in (50, 100, 200)
    ]
    if not (seq[0] > seq[1] > seq[2]):
        failures.append(f"discrepancy sequence not decreasing: {seq}")
    _report(4, "determinant asymptotics", not failures,
            "; ".join(failures) if failures else
            f"errors within 0.15 and shrinking discrepancies {[f'{s:.4f}' for s in seq]}")


def test_criterion_05_bbp_concentration():
    failures = []
    for gamma, target in (((2.0,), 2.5), ((0.5,), 2.0)):
        est = mc_lambda_max_tail(GOESpec(n=400, gamma=gamma, seed=0), 100, -10.0)
        mean = est.extras["mean_lambda_max"]
        if abs(mean - target) > 0.05:
            failures.append(f"gamma={gamma}: mean {mean:.4f} vs {target}")
    _report(5, "BBP concentration", not failures,
            "; ".join(failures) if failures else
            "top-eigenvalue means within 0.05 of the rate-function zeros")


def test_criterion_06_tail_rate():
    est = mc_lambda_max_tail(
        GOESpec(n=100, gamma=(1.5, 0.5), seed=0), 10_000, 2.0
    )
    err = abs(est.value + 0.015232)
    _report(6, "shallow tail rate", err <= 0.05,
            f"(1/n) log tail = {est.value:.6f} vs -0.015232 (|err| = {err:.4f})")


def test_criterion_07_finite_n_kac_rice():
    failures = []
    details = []
    for lam in (0.0, 1.0):
        params = ModelParams(p=3, r=1, k=(3,), lam=(lam,))
        counted = count_expected(params, 2, 10_000, seed=0)
        formula = kac_rice_eval(params, 2, inner_trials=4096, batches=8, seed=1)
        se = math.hypot(counted.std_error, formula.std_error)
        gap = abs(counted.value - formula.value)
        details.append(
            f"lam={lam}: counted {counted.value:.4f} vs formula "
            f"{formula.value:.4f} ({gap / se:.2f} combined SE)"
        )
        if gap > 3.0 * se:
            failures.append(details[-1])
    _report(7, "finite-dimension identity", not failures, "; ".join(details))


def test_criterion_08_rate_function_suite():
    rng = np.random.default_rng(88)
    failures = []
    # exact zero at the outlier location
    for gamma in list(np.linspace(1.0, 4.0, 31)) + [1.0 + rng.uniform(0, 3) for _ in range(50)]:
        if i_gamma(float(gamma), float(gamma) + 1.0 / float(gamma)) != 0.0:
            failures.append(f"i_gamma({gamma}) not exactly zero")
            break
    # nonnegativity and minimum location
    for _ in range(200):
        r = int(rng.integers(1, 4))
        gam = tuple(sorted(rng.uniform(0.05, 3.0, size=r), reverse=True))
        top = gam[0] + 1.0 / gam[0] if gam[0] >= 1.0 else 2.0
        at_min = i_max(gam, top)
        if not abs(at_min) <= 1e-12:
            failures.append(f"i_max minimum {at_min} at {top} for {gam}")
            break
        for x in rng.uniform(2.0, 6.0, size=8):
            if i_max(gam, float(x)) < -1e-12:
                failures.append(f"i_max negative at {x} for {gam}")
                break
    # infimum identity
    worst_inf = 0.0
    for _ in range(1000):
        r = int(rng.integers(1, 4))
        gam = tuple(sorted(rng.uniform(0.05, 3.0, size=r), reverse=True))
        t = float(rng.uniform(2.0, 6.0))
        xs = np.linspace(2.0, t, 400)
        vals = i_max(gam, xs)
        j = int(np.argmin(vals))
        lo, hi = xs[max(0, j - 1)], xs[min(len(xs) - 1, j + 1)]
        best = min(vals)
        if hi > lo:
            ref = minimize_scalar(
                lambda x: i_max(gam, float(x)),
                bounds=(float(lo), float(hi)), method="bounded",
                options={"xatol": 1e-13},
            )
            best = min(best, float(ref.fun))
        worst_inf = max(worst_inf, abs(best - big_l(gam, t)))
    if worst_inf > 1e-8:
        failures.append(f"big_l vs infimum: worst gap {worst_inf:.2e}")
    # domination of the restricted surface
    worst_dom = -1.0
    for _ in range(10_000):
        p = int(rng.integers(3, 6))
        r = int(rng.integers(1, 4))
        lam = tuple(sorted(rng.uniform(0.0, 3.0, size=r), reverse=True))
        params = ModelParams(p=p, r=r, k=(p,) * r, lam=lam)
        m = rng.uniform(0.02, 0.57, size=r)
        x = float(rng.uniform(-4.0, 4.0))
        gap = sigma_max_joint(params, m, x) - sigma_tot_joint(params, m, x)
        if gap == gap and gap != float("-inf"):
            worst_dom = max(worst_dom, gap)
    if worst_dom > 1e-12:
        failures.append(f"sigma_max above sigma_tot by {worst_dom:.2e}")
    _report(8, "rate-function suite", not failures,
            "; ".join(failures) if failures else
            f"all identities hold (worst infimum gap {worst_inf:.2e})")


def test_criterion_09_spectral_convergence():
    base = esd_distance(GOESpec(n=1000, seed=0))
    spiked = esd_distance(GOESpec(n=1000, gamma=(1.5, 0.5), seed=0))
    ok = base["w1"] <= 0.05 and spiked["w1"] <= 2.0 * base["w1"]
    _report(9, "spectral convergence", ok,
            f"W1 = {base['w1']:.5f} unspiked, {spiked['w1']:.5f} spiked")


def test_criterion_10_appendix_calculus():
    failures = []
    worst_g, worst_loc = 0.0, 0.0
    for a in np.linspace(0.02, 0.95, 50):
        for b in np.linspace(1.0, 4.0, 50):
            diag = appendix_diagnostics(float(a), float(b))
            xs = diag["x_star"]
            if xs == xs:
                dev = max(abs(g_ab(a, b, xs)), abs(g_ab(a, b, -xs)))
                worst_g = max(worst_g, dev)
            vmax = diag["value_at_max"]
            if vmax > 1e-12:
                failures.append(f"f positive at a={a:.3f} b={b:.3f}")
            if b > 1.0 and vmax >= 0.0:
                failures.append(f"f not strictly negative at a={a:.3f} b={b:.3f}")
            if b == 1.0 and abs(vmax) > 1e-12:
                failures.append(f"f maximum off zero at b=1, a={a:.3f}")
            # independent localization of the maximizer via the derivative root
            def fprime(x, a=float(a), b=float(b)):
                return 2.0 * x * (1.0 - 2.0 * b / a) + 2.0 * math.sqrt(1.0 + x * x)

            root = brentq(fprime, 1e-14, 5.0, xtol=1e-14)
            worst_loc = max(worst_loc, abs(root - diag["x_max"]))
    if worst_g > 1e-10:
        failures.append(f"g at +-x_star off zero by {worst_g:.2e}")
    if worst_loc > 1e-10:
        failures.append(f"maximizer location off by {worst_loc:.2e}")
    _report(10, "appendix calculus", not failures,
            "; ".join(failures) if failures else
            f"zeros to {worst_g:.1e}, maximizer to {worst_loc:.1e} on the 50x50 grid")
