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
import importlib
import itertools
import math
import sys
import time
from typing import Sequence

# every command imports the modules it runs, so --help loads none of them;
# classify, zeros, rate tables and grids of core's quantities up to
# _FLOAT_CELLS cells run the one-point bodies on Python floats and load
# neither numpy nor inspect nor dataclasses; the commands that build arrays
# import numpy and the array modules themselves
from . import _LAZY, __version__

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
# the grid quantities of core, whose one-point bodies run on Python floats
_FLOAT_QUANTITIES = ("sigma_tot", "regime", "tau", "eta")
# A grid of these quantities, or a rate table, of at most this many cells
# (rows) runs one cell at a time on Python floats and never imports numpy;
# a larger one builds a numpy stack.  The slowest quantity, regime, crosses
# over between 2,025 and 3,025 cells: fresh processes pinned to one vCPU
# (Intel Xeon, Python 3.11, numpy 2.4) took 201 ms on floats against 213 ms
# on the stack for 2,025 cells at r = 2, and 196 ms against 177 ms for
# 3,025 (medians of 7).  rate crosses over later, near 4,096 rows: on the
# same setup floats beat the stack by 66 ms (r = 1) and 53 ms (r = 2) at
# 2,048 rows, and the two paths came within 21 ms of each other at 4,096
# (medians of 15).
_FLOAT_CELLS = 2048
# The most cells a grid, or rows a rate table, may have; checked before
# anything is built.  It bounds the table that a command holds whole: its
# points, values and text, about 0.3 KB a cell, since sigma_max_projected
# takes a stack in slices.  A 2,048 x 2,048 sigma_max grid peaked at
# 1,212 MB in 21.6 s at r = 2, and at 1,278 MB in 36.4 s at r = 4 with two
# coordinates fixed (child max-RSS; Intel Xeon, one BLAS thread, Python
# 3.11, numpy 2.4).  gamma1 at r = 4 costs the most, about 0.46 KB a cell
# at 600 x 600, so about 2 GB at this cap (extrapolated, not run).
_MAX_CELLS = 2048 * 2048


def __getattr__(name: str):
    """core's public names, e.g. pspinlab.cli.sigma_tot_projected, read from
    core's current globals as the commands' own imports read them."""
    if _LAZY.get(name) != "core":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(".core", __package__), name)


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

    Every config key must name a flag of the subcommand, and every flag or
    key given must be read by the command (`out` checks this once the
    command has read its inputs), so a misspelled, removed or inapplicable
    flag is a usage error rather than silently ignored.
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
        self.given = {f for f in flags if getattr(args, f) is not None} | set(config)
        self.read: set[str] = set()

    def get(self, name: str, conv, default=None, required: bool = False):
        self.read.add(name)
        raw = getattr(self.args, name, None)
        if raw is None:
            raw = self.config.get(name)
        if raw is None:
            if required:
                raise UsageError(f"missing required option --{name.replace('_', '-')}")
            return default
        return _convert(name, conv, raw)

    def get_list(self, name: str, conv, default=None):
        self.read.add(name)
        raw = getattr(self.args, name, None)
        if raw is None:
            cfg = self.config.get(name)
            if cfg is None:
                return default
            raw = [v for v in cfg.split(";") if v]
        return [_convert(name, conv, v) for v in raw]

    def out(self) -> str | None:
        """The --out path, read after every other input: a flag or config
        key that the command did not read is a usage error."""
        path = self.get("out", str)
        unread = sorted(self.given - self.read)
        if unread:
            flags = ", ".join("--" + name.replace("_", "-") for name in unread)
            raise UsageError(f"unused option(s) for {self.args.command}: {flags}")
        return path


def _convert(name: str, conv, raw):
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad value for --{name.replace('_', '-')}: {exc}")


def _float(v) -> float:
    """float(v) for every float a flag carries, refusing NaN, which passes
    every ordering test and so every range check."""
    x = float(v)
    if math.isnan(x):
        raise ValueError("NaN is not allowed")
    return x


def _conv_floats(v) -> tuple[float, ...]:
    v = str(v).strip()
    if not v:
        return ()
    return tuple(_float(tok) for tok in v.split(","))


def _conv_ints(v) -> tuple[int, ...]:
    v = str(v).strip()
    if not v:
        return ()
    return tuple(int(tok) for tok in v.split(","))


def _conv_range(v) -> tuple[float, float, int]:
    parts = str(v).split(":")
    if len(parts) != 3:
        raise UsageError(f"range must be MIN:MAX:STEPS, got {v!r}")
    lo, hi, steps = _float(parts[0]), _float(parts[1]), int(parts[2])
    # an infinite end, or a width that overflows, makes NaN ticks
    if not math.isfinite(hi - lo):
        raise UsageError("range must have finite MIN, MAX and MAX - MIN")
    if steps < 1 or (steps > 1 and not lo < hi):
        raise UsageError("range must have MIN < MAX and STEPS >= 1")
    return lo, hi, steps


def _check_size(size: int, what: str) -> None:
    """Refuse a table of more than _MAX_CELLS cells before it is built."""
    if size > _MAX_CELLS:
        raise UsageError(f"{size} {what} requested, at most {_MAX_CELLS} allowed")


def _ticks(lo: float, hi: float, steps: int) -> list[float]:
    """steps evenly spaced values from lo to hi; just lo when steps == 1."""
    return [lo + (hi - lo) * j / max(steps - 1, 1) for j in range(steps)]


def _conv_axis(v) -> tuple[float, float, int]:
    lo, hi, steps = _conv_range(v)
    if steps < 2:
        raise UsageError("axis needs at least 2 steps")
    if not (-1.0 <= lo < hi <= 1.0):
        raise UsageError("axis range must satisfy -1 <= MIN < MAX <= 1")
    return lo, hi, steps


def _conv_fix(v) -> tuple[int, float]:
    idx, _, val = str(v).partition(":")
    return int(idx), _float(val)


def _conv_window(v) -> tuple[float, float]:
    parts = str(v).split(":")
    if len(parts) != 2:
        raise UsageError(f"window must be LO:HI, got {v!r}")
    lo, hi = _float(parts[0]), _float(parts[1])
    if lo > hi:
        raise UsageError("window must have LO <= HI")
    return lo, hi


def _model_params(res: Resolver) -> ModelParams:
    from .core import ModelParams

    p = res.get("p", int, required=True)
    r = res.get("r", int, required=True)
    k = res.get("k", _conv_ints)
    lam = res.get("lam", _conv_floats, required=True)
    if k is None:
        k = (p,) * r
    return ModelParams(p=p, r=r, k=k, lam=lam)


def _timestamp() -> str:
    import datetime

    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# subcommands

def _sidecar(params: ModelParams, extra: dict) -> dict:
    from .core import eta_critical, lambda_critical, tau_critical

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
    size = math.prod(steps for _, _, steps in axes)
    _check_size(size, "grid cells")
    out = res.out()
    from .core import RegimeLabel, _sigma_tot_and_code, aux_statistics, sigma_tot_projected

    def core_value(m):
        """The quantity at one point or over a stack, core's one body; for
        regime the value and the code, from one profile."""
        if quantity == "regime":
            return _sigma_tot_and_code(params, m)
        if quantity == "sigma_tot":
            return sigma_tot_projected(params, m)
        return getattr(aux_statistics(params, m), quantity)

    ticks = [_ticks(*a) for a in axes]
    codes = None
    if quantity in _FLOAT_QUANTITIES and size <= _FLOAT_CELLS:
        # cell by cell on Python floats, in the order of meshgrid(indexing="ij")
        values = []
        for combo in itertools.product(*ticks):
            coords = {**fixed, **dict(zip(swept, combo))}
            values.append(core_value([coords[i] for i in range(params.r)]))
        if quantity == "regime":
            values, codes = zip(*values)
    else:
        import numpy as np

        pts = np.zeros((size, params.r))
        for idx, val in fixed.items():
            pts[:, idx] = val
        for idx, mesh in zip(swept, np.meshgrid(*ticks, indexing="ij")):
            pts[:, idx] = mesh.ravel()
        # a huge spike overflows the sums to inf and NaN, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            if quantity == "sigma_max":
                from .rates import sigma_max_projected

                values = sigma_max_projected(params, pts)
            elif quantity == "gamma1":
                from .spikes import spike_eigenvalues

                # gamma1 is -inf where the perturbation degenerates (some |m_i| >= 1)
                values = np.full(len(pts), -math.inf)
                ok = np.all(np.abs(pts) < 1.0, axis=1)
                values[ok] = spike_eigenvalues(params, pts[ok])[:, 0]
            else:
                values = core_value(pts)
                if quantity == "regime":
                    values, codes = values[0], values[1].tolist()
        values = np.asarray(values, dtype=float).tolist()

    if any(map(math.isnan, values)):
        raise UsageError(f"{quantity} on this grid leaves the float range (NaN)")
    # %g writes +inf as "inf", fmt_float as "+inf"
    signed = math.inf in values
    header = ",".join(f"m{j + 1}" for j in range(len(swept))) + ",value"
    row = ",%.17g\n"
    if codes is not None:
        header += ",regime"
        row = ",%.17g,%d\n"
        values = itertools.chain.from_iterable(zip(values, codes))
    # one template for the table, filled by one format call; on two axes
    # each tick of the first leads every row of the second
    labels = [[fmt_float(v) for v in t] for t in ticks]
    rows = [tick + row for tick in labels[-1]]
    if len(labels) == 2:
        rows = [lead + lead.join(rows) for lead in (tick + "," for tick in labels[0])]
    text = "".join(rows) % tuple(values)
    if signed:
        text = text.replace(",inf", ",+inf")
    _write_text(out, header + "\n" + text)
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
    tol = res.get("tol", _float, default=1e-6)
    out = res.out()
    from .core import aux_statistics, classify_regime, sigma_tot_projected

    label = classify_regime(params, m, tol=tol)
    aux = aux_statistics(params, m)
    # a huge spike overflows tau^2 to NaN, which the check below reports
    value = sigma_tot_projected(params, m)
    if math.isnan(value):
        raise UsageError(f"sigma_tot at m = {list(m)} leaves the float range (NaN)")
    doc = {
        "label": label.name,
        "code": int(label),
        "sigma_tot": value,
        "aux": aux._asdict(),
    }
    _write_text(out, to_json(doc) + "\n")
    return 0


def cmd_zeros(res: Resolver) -> int:
    params = _model_params(res)
    pattern = res.get("pattern", _conv_ints)
    out = res.out()
    from .core import sigma_tot_projected, zero_locus_solve

    sols = zero_locus_solve(params, pattern)
    doc = {
        "pattern": list(pattern) if pattern is not None else list(range(params.r)),
        "solutions": [list(s) for s in sols],
        "sigma_tot": [sigma_tot_projected(params, s) for s in sols],
    }
    _write_text(out, to_json(doc) + "\n")
    return 0


def cmd_rate(res: Resolver) -> int:
    gamma = res.get("gamma", _conv_floats, required=True)
    ts = res.get_list("t", _float, default=[])
    rng = res.get("t_range", _conv_range)
    if rng is not None:
        _check_size(len(ts) + rng[2], "rate rows")
        ts += _ticks(*rng)
    if not ts:
        raise UsageError("need --t or --t-range")
    out = res.out()
    from .rates import big_l, big_l_left, i_max

    # the rates check that gamma is non-increasing
    rates = (i_max, big_l, big_l_left)
    if len(ts) <= _FLOAT_CELLS:
        # row by row on Python floats
        columns = [ts] + [[f(gamma, t) for t in ts] for f in rates]
    else:
        import numpy as np

        tcol = np.array(ts)
        # a huge spike overflows to inf - inf, which fmt_float reports
        with np.errstate(over="ignore", invalid="ignore"):
            columns = [ts] + [f(gamma, tcol).tolist() for f in rates]
    rows = ["t,i_max,L,L_left"] + [",".join(map(fmt_float, row)) for row in zip(*columns)]
    _write_text(out, "\n".join(rows) + "\n")
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

    # the stochastic layer is imported here, so that closed-form commands
    # never load it; rates loads only for the two experiments that need it
    if name in ("mc-det", "mc-lmax", "mc-restricted", "esd"):
        from .core import phi_star
        from .rmt import (
            GOESpec,
            esd_distance,
            mc_lambda_max_tail,
            mc_log_abs_det,
            mc_restricted_det,
        )

        n = res.get("n", int, required=True)
        gamma = res.get("gamma", _conv_floats, default=())
        shift = res.get("shift", _float, default=0.0)
        trials = 1 if name == "esd" else res.get("trials", int, required=True)
        if name == "mc-lmax":
            inputs["t"] = t = res.get("t", _float, required=True)
        out = res.out()
        spec = GOESpec(n=n, gamma=gamma, shift=shift, seed=seed)
        inputs.update({"n": n, "gamma": list(gamma), "shift": shift, "trials": trials})
        gam_desc = tuple(sorted(gamma, reverse=True))
        if name == "esd":
            dists = esd_distance(spec)
            estimate, std_error = dists["w1"], None
            extras["d_bl"] = dists["d_bl"]
            theory = 0.0
        else:
            if name == "mc-det":
                est = mc_log_abs_det(spec, trials)
                theory = phi_star(shift)
            elif name == "mc-restricted":
                from .rates import big_l

                est = mc_restricted_det(spec, trials)
                theory = phi_star(shift) - big_l(gam_desc, shift)
            else:
                from .rates import big_l

                est = mc_lambda_max_tail(spec, trials, t)
                theory = -big_l(gam_desc, t) if shift == 0.0 else None
            estimate, std_error = est.value, est.std_error
            extras.update(est.extras)
    elif name == "spherical":
        from .rmt import spherical_integral_mc

        n = res.get("n", int, required=True)
        gamma = res.get("gamma", _conv_floats, required=True)
        diag = res.get("diag", _conv_floats, required=True)
        trials = res.get("trials", int, required=True)
        out = res.out()
        est = spherical_integral_mc(n, gamma, diag, trials, seed=seed)
        estimate, std_error = est.value, est.std_error
        extras.update(est.extras)
        inputs.update({"n": n, "gamma": list(gamma), "diag": list(diag), "trials": trials})
    else:
        from .kacrice import QuadratureError, count_expected, kac_rice_eval

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
            inputs.update({"trials": trials, "budget": budget})
        else:
            trials = res.get("inner_trials", int, default=2048)
            batches = res.get("batches", int, default=8)
            inputs.update({"inner_trials": trials, "batches": batches})
        out = res.out()
        common = dict(overlap_windows=overlap_windows, value_window=value_window,
                      which=which, seed=seed)
        if name == "kacrice-count":
            est = count_expected(params, n, trials, budget=budget, **common)
        else:
            try:
                est = kac_rice_eval(params, n, inner_trials=trials, batches=batches, **common)
            except QuadratureError as exc:
                raise ConvergenceError(f"quadrature did not converge: {exc}")
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
    _write_text(out, to_json(doc) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser plumbing

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="pspinlab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
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
    e.add_argument("--seed")
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
    except (UsageError, ValueError) as exc:
        # numpy's LinAlgError is a ValueError, but not a usage error; its
        # name tells it apart without importing numpy
        if type(exc).__name__ == "LinAlgError":
            raise
        # the library raises ValueError for inputs it cannot take
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
