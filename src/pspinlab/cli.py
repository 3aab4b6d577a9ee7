"""Command line interface: deterministic grid/rate tabulation and seeded
Monte Carlo experiments.

Output discipline: every float is written with 17 significant digits so all
artifacts round-trip bitwise; +inf/-inf are the only non-numeric tokens.
Reruns with the same inputs are byte-identical apart from the timestamp and
wall_time fields.  Exit codes: 0 success, 2 usage error, 3 non-convergence,
4 I/O error.
"""
from __future__ import annotations

import argparse
import datetime
import itertools
import math
import sys
import time
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError

from . import __version__
from .core import (
    ModelParams,
    RegimeLabel,
    aux_statistics,
    classify_regime,
    eta_critical,
    lambda_critical,
    phi_star,
    sigma_tot_projected,
    tau_critical,
    zero_locus_solve,
)
from .kacrice import QuadratureError, count_expected, kac_rice_eval
from .rates import big_l, big_l_left, i_max, sigma_max_projected
from .rmt import (
    GOESpec,
    esd_distance,
    mc_lambda_max_tail,
    mc_log_abs_det,
    mc_restricted_det,
    spherical_integral_mc,
)
from .spikes import spike_eigenvalues

GRID_QUANTITIES = ("sigma_tot", "sigma_max", "regime", "gamma1", "tau", "eta")
EXPERIMENTS = (
    "mc-det",
    "mc-lmax",
    "mc-restricted",
    "esd",
    "spherical",
    "kacrice-count",
    "kacrice-formula",
)


class UsageError(Exception):
    pass


class ConvergenceError(Exception):
    pass


# ---------------------------------------------------------------------------
# formatting

def fmt_float(v: float) -> str:
    """17-significant-digit decimal, with +inf/-inf as literal tokens."""
    if isinstance(v, float):
        if math.isinf(v):
            return "+inf" if v > 0 else "-inf"
        if math.isnan(v):
            raise ValueError("refusing to emit NaN")
    return format(float(v), ".17g")


def _json_scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if math.isnan(v):
            return "null"
        if math.isinf(v):
            return '"+inf"' if v > 0 else '"-inf"'
        return format(v, ".17g")
    if isinstance(v, str):
        out = v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    raise TypeError(f"cannot serialize {type(v)}")


def to_json(obj, indent: int = 0) -> str:
    """Canonical JSON: sorted keys, two-space indent, 17-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{inner}{_json_scalar(str(k))}: {to_json(v, indent + 1)}'
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    return _json_scalar(obj)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# argument resolution (config file fills flags the command line left unset)

def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    with open(path) as fh:
        lines = fh.readlines()
    out: dict[str, str] = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line is not KEY=VALUE: {line!r}")
        key, _, val = line.partition("=")
        out[key.strip().replace("-", "_")] = val.strip()
    return out


class Resolver:
    """Value lookup with the precedence: command line flag, config file, default.

    Every config key must name a flag of the subcommand, so a misspelled or
    removed flag is a usage error rather than silently ignored.
    """

    def __init__(self, args: argparse.Namespace, config: dict[str, str]):
        flags = set(vars(args)) - {"command", "config"}
        unknown = sorted(set(config) - flags)
        if unknown:
            raise UsageError(
                f"unknown config key(s) for {args.command}: {', '.join(unknown)}"
            )
        self.args = args
        self.config = config

    def get(self, name: str, conv, default=None, required: bool = False):
        raw = getattr(self.args, name, None)
        if raw is None:
            raw = self.config.get(name)
        if raw is None:
            if required:
                raise UsageError(f"missing required option --{name.replace('_', '-')}")
            return default
        return _convert(name, conv, raw)

    def get_list(self, name: str, conv, default=None):
        raw = getattr(self.args, name, None)
        if raw is None:
            cfg = self.config.get(name)
            if cfg is None:
                return default
            raw = [v for v in cfg.split(";") if v]
        return [_convert(name, conv, v) for v in raw]


def _convert(name: str, conv, raw):
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad value for --{name.replace('_', '-')}: {exc}")


def _conv_floats(v) -> tuple[float, ...]:
    v = str(v).strip()
    if not v:
        return ()
    return tuple(float(tok) for tok in v.split(","))


def _conv_ints(v) -> tuple[int, ...]:
    v = str(v).strip()
    if not v:
        return ()
    return tuple(int(tok) for tok in v.split(","))


def _conv_range(v) -> tuple[float, float, int]:
    parts = str(v).split(":")
    if len(parts) != 3:
        raise UsageError(f"range must be MIN:MAX:STEPS, got {v!r}")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 1 or (steps > 1 and not lo < hi):
        raise UsageError("range must have MIN < MAX and STEPS >= 1")
    return lo, hi, steps


def _ticks(lo: float, hi: float, steps: int) -> list[float]:
    """steps evenly spaced values from lo to hi; just lo when steps == 1."""
    return [lo + (hi - lo) * j / max(steps - 1, 1) for j in range(steps)]


def _conv_axis(v) -> tuple[float, float, int]:
    lo, hi, steps = _conv_range(v)
    if steps < 2:
        raise UsageError("axis needs at least 2 steps")
    if not (0.0 <= lo < hi <= 1.0):
        raise UsageError("axis range must satisfy 0 <= MIN < MAX <= 1")
    return lo, hi, steps


def _conv_fix(v) -> tuple[int, float]:
    idx, _, val = str(v).partition(":")
    return int(idx), float(val)


def _conv_window(v) -> tuple[float, float]:
    parts = str(v).split(":")
    if len(parts) != 2:
        raise UsageError(f"window must be LO:HI, got {v!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if lo > hi:
        raise UsageError("window must have LO <= HI")
    return lo, hi


def _model_params(res: Resolver) -> ModelParams:
    p = res.get("p", int, required=True)
    r = res.get("r", int, required=True)
    k = res.get("k", _conv_ints)
    lam = res.get("lam", _conv_floats, required=True)
    if k is None:
        k = (p,) * r
    try:
        return ModelParams(p=p, r=r, k=k, lam=lam)
    except ValueError as exc:
        raise UsageError(str(exc))


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# subcommands

def _sidecar(params: ModelParams, extra: dict) -> dict:
    same_k = all(v == params.k[0] for v in params.k)
    doc = {
        "params": {
            "p": params.p,
            "r": params.r,
            "k": list(params.k),
            "lam": list(params.lam),
        },
        "thresholds": {
            "tau_c": tau_critical(params.p),
            "eta_c": eta_critical(params.p, params.k[0]) if same_k else None,
            "lambda_c": lambda_critical(params.p),
        },
        "version": __version__,
        "timestamp": _timestamp(),
    }
    doc.update(extra)
    return doc


def cmd_grid(res: Resolver) -> int:
    params = _model_params(res)
    quantity = res.get("quantity", str, required=True)
    if quantity not in GRID_QUANTITIES:
        raise UsageError(f"quantity must be one of {GRID_QUANTITIES}")
    axes = res.get_list("axis", _conv_axis)
    if axes is None:
        raise UsageError("missing required option --axis")
    fixed = dict(res.get_list("fix", _conv_fix, default=[]))
    if any(not 0 <= i < params.r for i in fixed):
        raise UsageError(f"--fix index must lie in [0, {params.r - 1}]")
    swept = [i for i in range(params.r) if i not in fixed]
    if len(axes) != len(swept):
        raise UsageError(
            f"need one --axis per swept coordinate ({len(swept)}), got {len(axes)}"
        )
    if not 1 <= len(swept) <= 2:
        raise UsageError("full grids sweep 1 or 2 coordinates; use --fix for the rest")
    out = res.get("out", str)

    ticks = [_ticks(*a) for a in axes]
    pts = np.zeros((math.prod(len(t) for t in ticks), params.r))
    for idx, val in fixed.items():
        pts[:, idx] = val
    for idx, mesh in zip(swept, np.meshgrid(*ticks, indexing="ij")):
        pts[:, idx] = mesh.ravel()

    codes = None
    if quantity == "sigma_tot":
        values = sigma_tot_projected(params, pts)
    elif quantity == "sigma_max":
        values = sigma_max_projected(params, pts)
    elif quantity == "regime":
        values = sigma_tot_projected(params, pts)
        codes = classify_regime(params, pts).tolist()
    elif quantity in ("tau", "eta"):
        values = getattr(aux_statistics(params, pts), quantity)
    else:
        # gamma1 is -inf where the perturbation degenerates (some |m_i| >= 1)
        values = np.full(len(pts), -math.inf)
        ok = np.all(np.abs(pts) < 1.0, axis=1)
        values[ok] = spike_eigenvalues(params, pts[ok])[:, 0]
    cells = [fmt_float(v) for v in np.asarray(values, dtype=float).tolist()]
    if codes is not None:
        cells = [f"{c},{code}" for c, code in zip(cells, codes)]

    header = ",".join(f"m{j + 1}" for j in range(len(swept))) + ",value"
    if quantity == "regime":
        header += ",regime"
    labels = [[fmt_float(v) for v in t] for t in ticks]
    prefixes = [",".join(combo) for combo in itertools.product(*labels)]
    rows = [header] + [f"{pre},{c}" for pre, c in zip(prefixes, cells)]
    _write_text(out, "\n".join(rows) + "\n")
    if out is not None:
        sidecar = _sidecar(
            params,
            {
                "quantity": quantity,
                "axes": [list(a) for a in axes],
                "fixed": {str(i): v for i, v in fixed.items()},
                "regime_codes": {lab.name: int(lab) for lab in RegimeLabel}
                if quantity == "regime"
                else None,
            },
        )
        _write_text(out + ".json", to_json(sidecar) + "\n")
    return 0


def cmd_classify(res: Resolver) -> int:
    params = _model_params(res)
    m = res.get("m", _conv_floats, required=True)
    tol = res.get("tol", float, default=1e-6)
    label = classify_regime(params, m, tol=tol)
    aux = aux_statistics(params, m)
    value = sigma_tot_projected(params, m)
    if math.isnan(value):
        raise UsageError(f"sigma_tot at m = {list(m)} leaves the float range (NaN)")
    doc = {
        "label": label.name,
        "code": int(label),
        "sigma_tot": value,
        "aux": {
            "tau": aux.tau,
            "alpha": aux.alpha,
            "beta": aux.beta,
            "eta": aux.eta,
            "tau_star": aux.tau_star,
            "tau_c": aux.tau_c,
            "eta_c": aux.eta_c,
        },
    }
    _write_text(res.get("out", str), to_json(doc) + "\n")
    return 0


def cmd_zeros(res: Resolver) -> int:
    params = _model_params(res)
    pattern = res.get("pattern", _conv_ints)
    sols = zero_locus_solve(params, pattern)
    doc = {
        "pattern": list(pattern) if pattern is not None else list(range(params.r)),
        "solutions": [list(s) for s in sols],
        "sigma_tot": [sigma_tot_projected(params, s) for s in sols],
    }
    _write_text(res.get("out", str), to_json(doc) + "\n")
    return 0


def cmd_rate(res: Resolver) -> int:
    gamma = res.get("gamma", _conv_floats, required=True)
    gam = tuple(sorted(gamma, reverse=True))
    if gam != tuple(gamma):
        raise UsageError("gamma must be sorted in non-increasing order")
    ts: list[float] = []
    singles = res.get_list("t", float)
    if singles:
        ts.extend(singles)
    rng = res.get("t_range", _conv_range)
    if rng is not None:
        ts.extend(_ticks(*rng))
    if not ts:
        raise UsageError("need --t or --t-range")
    rows = ["t,i_max,L,L_left"]
    for t in ts:
        rows.append(
            ",".join(
                [
                    fmt_float(t),
                    fmt_float(i_max(gam, t)),
                    fmt_float(big_l(gam, t)),
                    fmt_float(big_l_left(gam, t)),
                ]
            )
        )
    _write_text(res.get("out", str), "\n".join(rows) + "\n")
    return 0


def cmd_experiment(res: Resolver) -> int:
    name = res.get("experiment", str, required=True)
    if name not in EXPERIMENTS:
        raise UsageError(f"experiment must be one of {EXPERIMENTS}")
    seed = res.get("seed", int, required=True)
    started = time.perf_counter()
    inputs: dict = {"seed": seed}
    theory = None
    extras: dict = {}

    if name in ("mc-det", "mc-lmax", "mc-restricted", "esd"):
        n = res.get("n", int, required=True)
        gamma = res.get("gamma", _conv_floats, default=())
        shift = res.get("shift", float, default=0.0)
        spec = GOESpec(n=n, gamma=gamma, shift=shift, seed=seed)
        inputs.update({"n": n, "gamma": list(gamma), "shift": shift})
        gam_desc = tuple(sorted(gamma, reverse=True))
        if name == "esd":
            dists = esd_distance(spec)
            estimate, std_error, trials = dists["w1"], None, 1
            extras["d_bl"] = dists["d_bl"]
            theory = 0.0
        else:
            trials = res.get("trials", int, required=True)
            if name == "mc-det":
                est = mc_log_abs_det(spec, trials)
                theory = phi_star(shift)
            elif name == "mc-restricted":
                est = mc_restricted_det(spec, trials)
                theory = phi_star(shift) - big_l(gam_desc, shift)
            else:
                t = res.get("t", float, required=True)
                inputs["t"] = t
                est = mc_lambda_max_tail(spec, trials, t)
                theory = -big_l(gam_desc, t) if shift == 0.0 else None
            estimate, std_error = est.value, est.std_error
            extras.update(est.extras)
        inputs["trials"] = trials
    elif name == "spherical":
        n = res.get("n", int, required=True)
        gamma = res.get("gamma", _conv_floats, required=True)
        diag = res.get("diag", _conv_floats, required=True)
        trials = res.get("trials", int, required=True)
        est = spherical_integral_mc(n, gamma, diag, trials, seed=seed)
        estimate, std_error = est.value, est.std_error
        extras.update(est.extras)
        inputs.update({"n": n, "gamma": list(gamma), "diag": list(diag), "trials": trials})
    else:
        params = _model_params(res)
        n = res.get("n", int, required=True)
        overlap_windows = res.get_list("overlap_window", _conv_window)
        value_window = res.get("value_window", _conv_window)
        which_raw = res.get("which", str, default="total")
        try:
            which = int(which_raw)
        except ValueError:
            which = which_raw
        inputs.update(
            {
                "p": params.p,
                "r": params.r,
                "k": list(params.k),
                "lam": list(params.lam),
                "n": n,
                "which": str(which_raw),
                "overlap_windows": [list(w) for w in overlap_windows]
                if overlap_windows
                else None,
                "value_window": list(value_window) if value_window else None,
            }
        )
        if name == "kacrice-count":
            trials = res.get("trials", int, required=True)
            budget = res.get("budget", int, default=200)
            try:
                est = count_expected(
                    params,
                    n,
                    trials,
                    seed=seed,
                    overlap_windows=overlap_windows,
                    value_window=value_window,
                    which=which,
                    budget=budget,
                )
            except LinAlgError:  # a ValueError subclass, but not a usage error
                raise
            except ValueError as exc:
                raise UsageError(str(exc))
            inputs.update({"trials": trials, "budget": budget})
        else:
            inner = res.get("inner_trials", int, default=2048)
            batches = res.get("batches", int, default=8)
            if which not in ("total", "max"):
                raise UsageError("kacrice-formula supports which in {total, max}")
            try:
                est = kac_rice_eval(
                    params,
                    n,
                    overlap_windows=overlap_windows,
                    value_window=value_window,
                    inner_trials=inner,
                    which=which,
                    seed=seed,
                    batches=batches,
                )
            except QuadratureError as exc:
                raise ConvergenceError(f"quadrature did not converge: {exc}")
            inputs.update({"inner_trials": inner, "batches": batches})
            trials = inner
        estimate, std_error = est.value, est.std_error
        extras.update(est.extras)

    if isinstance(estimate, float) and math.isnan(estimate):
        raise ConvergenceError("estimate is NaN")

    doc = {
        "experiment": name,
        "inputs": inputs,
        "estimate": estimate,
        "std_error": std_error,
        "trials": trials,
        "seed": seed,
        "wall_time": time.perf_counter() - started,
        "theory_value": theory,
        "discrepancy": (estimate - theory) if theory is not None else None,
        "extras": extras,
    }
    _write_text(res.get("out", str), to_json(doc) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser plumbing

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="pspinlab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed")
        p.add_argument("--out")
        p.add_argument("--config")

    def add_model(p: argparse.ArgumentParser) -> None:
        p.add_argument("--p")
        p.add_argument("--r")
        p.add_argument("--k")
        p.add_argument("--lam")

    g = sub.add_parser("grid", help="tabulate a quantity over an overlap grid")
    add_common(g)
    add_model(g)
    g.add_argument("--quantity")
    g.add_argument("--axis", action="append")
    g.add_argument("--fix", action="append")

    c = sub.add_parser("classify", help="label one overlap point")
    add_common(c)
    add_model(c)
    c.add_argument("--m")
    c.add_argument("--tol")

    z = sub.add_parser("zeros", help="solve the exact-zero conditions")
    add_common(z)
    add_model(z)
    z.add_argument("--pattern")

    rt = sub.add_parser("rate", help="tabulate eigenvalue large-deviation rates")
    add_common(rt)
    rt.add_argument("--gamma")
    rt.add_argument("--t", action="append")
    rt.add_argument("--t-range", dest="t_range")

    e = sub.add_parser("experiment", help="run a seeded Monte Carlo experiment")
    add_common(e)
    add_model(e)
    e.add_argument("--experiment")
    e.add_argument("--n")
    e.add_argument("--trials")
    e.add_argument("--gamma")
    e.add_argument("--shift")
    e.add_argument("--t")
    e.add_argument("--diag")
    e.add_argument("--which")
    e.add_argument("--budget")
    e.add_argument("--inner-trials", dest="inner_trials")
    e.add_argument("--batches")
    e.add_argument("--overlap-window", dest="overlap_window", action="append")
    e.add_argument("--value-window", dest="value_window")
    return top


_DISPATCH = {
    "grid": cmd_grid,
    "classify": cmd_classify,
    "zeros": cmd_zeros,
    "rate": cmd_rate,
    "experiment": cmd_experiment,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = _load_config(getattr(args, "config", None))
        res = Resolver(args, config)
        return _DISPATCH[args.command](res)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
