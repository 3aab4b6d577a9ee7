"""The benchmark's workloads: the `pspinlab` argument lists each one runs, the
stage each command's time counts towards, and the checks its artifacts pass.

Checks return failure messages per command label; a command with any message
counts as one failed operation.  Reference and statistical tolerances apply
at the full sizes only: the tiny scale exists to test the benchmark's own
plumbing in seconds.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("closed-form", "stochastic")
REFERENCE = Path(__file__).resolve().parent / "reference" / "closed_form.npz"

# Workload-specific stage metrics (seconds); each sums the wall time of the
# commands listed under it, so setup_s stays inside every stage.
STAGES = {
    "closed-form": ("atlas_s", "sigma_max_s"),
    "stochastic": ("mc_det_s", "mc_lmax_s", "esd_s", "count_circle_s", "count_multistart_s", "formula_s"),
}

# Lines of an artifact that legitimately change between reruns.
VOLATILE_KEYS = ('"timestamp":', '"wall_time":')

# Values compared against the recorded reference: |v - ref| <= ABS + REL |ref|.
REL_TOL, ABS_TOL = 1e-10, 1e-12
ROOT_TOL = 1e-9        # zero-locus roots and the surface value at them
SIGMA_MAX_TOL = 1e-8   # one-sided sigma_max floor and the domination slack
SUM_REL_TOL = 1e-9     # sum of every finite grid value
SUBSAMPLE_STRIDE = 7   # grids over SUBSAMPLE_MIN cells keep every 7th value
SUBSAMPLE_MIN = 2000

# Monte Carlo tolerances, from the acceptance criteria of the test suite.
DET_TOL = 0.15         # criterion 4 (also used for mc-restricted)
BBP_TOL = 0.05         # criterion 5
TAIL_TOL = 0.05        # criterion 6
TAIL_THEORY = -0.015232
ESD_W1_MAX = 0.05      # criterion 9
KR_SE_BOUND = 3.0      # criterion 7: count and formula within 3 combined SE

SPHERICAL_DIAG = ",".join(format(-1.0 + 1.5 * j / 29, ".4f") for j in range(30))


@dataclass(frozen=True)
class Command:
    label: str               # unique in its workload; names the artifact file
    stage: str | None        # stage metric this command's wall time counts towards
    argv: tuple[str, ...]    # pspinlab arguments without --out
    suffix: str              # artifact extension

    def artifact(self, outdir: Path) -> Path:
        return outdir / f"{self.label}{self.suffix}"

    def full_argv(self, outdir: Path) -> list[str]:
        return [*self.argv, "--out", str(self.artifact(outdir))]


def _grid(label, stage, r, lam, quantity, steps):
    axes = [a for _ in range(r) for a in ("--axis", f"0:1:{steps}")]
    argv = ("grid", "--p", "3", "--r", str(r), "--lam", lam, "--quantity", quantity, *axes)
    return Command(label, stage, argv, ".csv")


def _experiment(label, stage, name, seed, *args):
    return Command(label, stage, ("experiment", "--experiment", name, *args, "--seed", str(seed)), ".json")


def commands(workload: str, seed: int, scale: str = "full") -> list[Command]:
    """The workload's commands in run order.  closed-form takes no seed."""
    full = scale == "full"
    if workload == "closed-form":
        return _closed_form(full)
    if workload == "stochastic":
        return _spectral(seed, full) + _finite_n(seed, full)
    raise ValueError(f"unknown workload {workload!r}")


def _closed_form(full: bool) -> list[Command]:
    """Grids, a rate table, zero loci and a classification: core, spikes, rates, cli."""
    big, smax2, rate_steps = (200, 30, 81) if full else (12, 4, 9)
    cmds = [
        _grid(f"sigma_tot-{a}-{b}", "atlas_s", 2, f"{a},{b}", "sigma_tot", big)
        for a, b in (("0.5", "0.2"), ("0.9", "0.5"), ("1.2", "0.9"), ("2.0", "1.5"))
    ]
    cmds += [
        _grid("regime-r2", "atlas_s", 2, "2.0,1.5", "regime", big),
        _grid("regime-r1", "atlas_s", 1, "2.0", "regime", big),
        _grid("gamma1", None, 2, "2.0,1.5", "gamma1", big),
        _grid("sigma_max-r2", "sigma_max_s", 2, "2.0,1.5", "sigma_max", smax2),
        _grid("sigma_max-r1", "sigma_max_s", 1, "2.0", "sigma_max", big),
        Command("rate", None, ("rate", "--gamma", "1.5,0.5", "--t-range", f"2:4:{rate_steps}"), ".csv"),
        Command("zeros-r1", None, ("zeros", "--p", "3", "--r", "1", "--lam", "2.0"), ".json"),
        Command("zeros-r2", None, ("zeros", "--p", "3", "--r", "2", "--lam", "2.0,1.5", "--pattern", "0,1"), ".json"),
        Command("classify", None, ("classify", "--p", "3", "--r", "1", "--lam", "0.5", "--m", "0.5"), ".json"),
    ]
    return cmds


def _spectral(seed: int, full: bool) -> list[Command]:
    """Seeded spiked-GOE Monte Carlo: the rmt layer."""
    n_det, n_big, n_tail, n_esd, n_sph = (200, 400, 100, 500, 30) if full else (20, 20, 20, 40, 30)
    t_det, t_big, t_tail, t_res, t_sph = (200, 50, 2000, 500, 5000) if full else (10, 10, 20, 20, 50)
    g = ("--gamma", "1.5,0.5")
    cmds = [
        _experiment(f"mc-det-{n_det}-shift{s}", "mc_det_s", "mc-det", seed,
                    "--n", str(n_det), *g, "--shift", s, "--trials", str(t_det))
        for s in ("0", "1", "3")
    ]
    cmds += [
        _experiment(f"mc-det-{n}-shift0", "mc_det_s", "mc-det", seed,
                    "--n", str(n), *g, "--shift", "0", "--trials", str(t_det))
        for n in ((50, 100) if full else (10, 15))
    ]
    cmds += [
        _experiment(f"mc-lmax-{n_big}-g{gam}", "mc_lmax_s", "mc-lmax", seed,
                    "--n", str(n_big), "--gamma", gam, "--t=-10", "--trials", str(t_big))
        for gam in ("2.0", "0.5")
    ]
    cmds += [
        _experiment("mc-lmax-tail", "mc_lmax_s", "mc-lmax", seed,
                    "--n", str(n_tail), *g, "--t", "2.0", "--trials", str(t_tail)),
        _experiment("mc-restricted", None, "mc-restricted", seed,
                    "--n", str(n_tail), "--gamma", "1.5", "--shift", "2.4", "--trials", str(t_res)),
        _experiment("esd-unspiked", "esd_s", "esd", seed, "--n", str(n_esd)),
        _experiment("esd-spiked", "esd_s", "esd", seed, "--n", str(n_esd), *g),
        _experiment("spherical", None, "spherical", seed, "--n", str(n_sph), "--gamma", "0.8",
                    f"--diag={SPHERICAL_DIAG}", "--trials", str(t_sph)),
    ]
    return cmds


def _finite_n(seed: int, full: bool) -> list[Command]:
    """Critical-point counts and the exact Kac-Rice integral: the kacrice layer."""
    # The multistart cost of one n=3 landscape varies by about its own size
    # (some landscapes make Newton stall), so the count averages many
    # landscapes at a small budget: 80 x 10 starts cost about what 10 x 80
    # would, and their time follows the seed about a third as much.
    t_circle, inner, t_multi, budget = (250, 4096, 80, 10) if full else (5, 256, 2, 8)
    model = ("--p", "3", "--r", "1")
    # a narrow value window keeps the tiny quadrature from chasing noise
    window = () if full else ("--value-window=-0.5:0.5",)
    return [
        _experiment("count-n2", "count_circle_s", "kacrice-count", seed,
                    *model, "--lam", "1.0", "--n", "2", "--trials", str(t_circle)),
        _experiment("formula-n2", "formula_s", "kacrice-formula", seed,
                    *model, "--lam", "1.0", "--n", "2", "--inner-trials", str(inner), "--batches", "4", *window),
        _experiment("count-n3", "count_multistart_s", "kacrice-count", seed,
                    *model, "--lam", "0", "--n", "3", "--trials", str(t_multi), "--budget", str(budget)),
    ]


# ---------------------------------------------------------------------------
# artifact parsing

def parse_number(token) -> float:
    """A numeric artifact token: a finite decimal or the literal +inf / -inf."""
    if token == "+inf":
        return math.inf
    if token == "-inf":
        return -math.inf
    if isinstance(token, bool) or not isinstance(token, (int, float, str)):
        raise ValueError(f"not a number: {token!r}")
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value spelled {token!r}")
    return value


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("empty CSV")
    return rows[0], rows[1:]


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def normalized_bytes(path: Path) -> bytes:
    """Artifact bytes without the lines that may differ between reruns."""
    lines = path.read_bytes().split(b"\n")
    keep = [ln for ln in lines if not ln.strip().startswith(tuple(k.encode() for k in VOLATILE_KEYS))]
    return b"\n".join(keep)


def artifact_files(cmd: Command, outdir: Path) -> list[Path]:
    path = cmd.artifact(outdir)
    return [path, Path(str(path) + ".json")] if cmd.argv[0] == "grid" else [path]


def _close(value: float, ref: float, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    if math.isinf(ref) or math.isinf(value):
        return value == ref
    return abs(value - ref) <= abs_ + rel * abs(ref)


def token_class(values: np.ndarray) -> np.ndarray:
    """0 finite, 1 +inf, 2 -inf."""
    return np.where(np.isposinf(values), 1, np.where(np.isneginf(values), 2, 0)).astype(np.int8)


def subsample(values: np.ndarray) -> tuple[int, np.ndarray]:
    stride = SUBSAMPLE_STRIDE if values.size > SUBSAMPLE_MIN else 1
    return stride, values[::stride]


def grid_columns(cmd: Command, header: list[str], rows: list[list[str]]):
    """Validate a grid CSV's shape and coordinates; return (values, codes)."""
    argv = list(cmd.argv)
    axes = [argv[i + 1] for i, a in enumerate(argv) if a == "--axis"]
    quantity = argv[argv.index("--quantity") + 1]
    want = [f"m{j + 1}" for j in range(len(axes))] + ["value"] + (["regime"] if quantity == "regime" else [])
    if header != want:
        raise ValueError(f"header {header} != {want}")
    ticks = []
    for ax in axes:
        lo, hi, steps = ax.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
        ticks.append([lo + (hi - lo) * j / (steps - 1) for j in range(steps)])
    cells = [tuple(c) for c in np.array(np.meshgrid(*ticks, indexing="ij")).reshape(len(ticks), -1).T]
    if len(rows) != len(cells):
        raise ValueError(f"{len(rows)} rows, expected {len(cells)}")
    values = np.empty(len(rows))
    codes = np.zeros(len(rows), dtype=np.int8)
    for i, (row, coords) in enumerate(zip(rows, cells)):
        if len(row) != len(want):
            raise ValueError(f"row {i} has {len(row)} cells")
        if tuple(parse_number(t) for t in row[: len(axes)]) != coords:
            raise ValueError(f"row {i} coordinates {row[:len(axes)]} != {coords}")
        values[i] = parse_number(row[len(axes)])
        if quantity == "regime":
            codes[i] = int(row[-1])
    if quantity != "regime":
        return values, None
    if not np.all((codes >= 0) & (codes <= 4)):
        raise ValueError("regime code outside 0..4")
    return values, codes


def rate_values(rows: list[list[str]], header: list[str]) -> np.ndarray:
    if header != ["t", "i_max", "L", "L_left"]:
        raise ValueError(f"rate header {header}")
    return np.array([[parse_number(t) for t in row] for row in rows], dtype=float).ravel()


def closed_form_arrays(cmd: Command, outdir: Path) -> dict[str, np.ndarray]:
    """Parse one closed-form artifact into the arrays the reference stores."""
    path = cmd.artifact(outdir)
    if cmd.suffix == ".json":
        doc = read_json(path)
        return {"doc": np.array(json.dumps(doc, sort_keys=True))}
    header, rows = read_csv(path)
    if cmd.argv[0] == "rate":
        values, codes = rate_values(rows, header), None
    else:
        sidecar = read_json(Path(str(path) + ".json"))
        if sidecar.get("quantity") != cmd.argv[cmd.argv.index("--quantity") + 1]:
            raise ValueError("sidecar quantity does not match")
        values, codes = grid_columns(cmd, header, rows)
    out = {"cls": token_class(values), "values": values}
    if cmd.argv[0] == "grid":
        out["sidecar"] = np.array(json.dumps(sidecar, sort_keys=True))
    if codes is not None:
        out["codes"] = codes
    return out


def _compare_docs(doc, ref, path: str = "") -> list[str]:
    if isinstance(ref, dict):
        if not isinstance(doc, dict):
            return [f"{path}: not an object"]
        keys = {k for k in ref if k not in ("timestamp", "wall_time")}
        if set(doc) - {"timestamp", "wall_time"} != keys:
            return [f"{path}: keys {sorted(doc)} != {sorted(keys)}"]
        return [m for k in sorted(keys) for m in _compare_docs(doc[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(doc, list) or len(doc) != len(ref):
            return [f"{path}: list length differs from the reference"]
        return [m for i, (d, r) in enumerate(zip(doc, ref)) for m in _compare_docs(d, r, f"{path}[{i}]")]
    if isinstance(ref, (float, int)) and not isinstance(ref, bool) or ref in ("+inf", "-inf"):
        try:
            ok = _close(parse_number(doc), parse_number(ref), ROOT_TOL, ROOT_TOL)
        except ValueError:
            ok = False
        return [] if ok else [f"{path}: {doc!r} vs reference {ref!r}"]
    return [] if doc == ref else [f"{path}: {doc!r} vs reference {ref!r}"]


def check_closed_form(cmds, outdir: Path, seed: int, strict: bool) -> dict[str, list[str]]:
    failures: dict[str, list[str]] = {}
    reference = None
    if strict:
        with np.load(REFERENCE) as archive:
            reference = {name: archive[name] for name in archive.files}
    for cmd in cmds:
        msgs = failures.setdefault(cmd.label, [])
        try:
            got = closed_form_arrays(cmd, outdir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            msgs.append(f"unreadable artifact: {exc}")
            continue
        if reference is not None:
            try:
                msgs += _against_reference(cmd.label, got, reference)
            except KeyError as exc:
                msgs.append(f"no reference entry {exc}")
    return failures


def _mismatches(got: np.ndarray, ref: np.ndarray) -> int:
    return int(np.sum(got != ref)) if got.shape == ref.shape else max(got.size, ref.size)


def _against_reference(label: str, got: dict, reference: dict) -> list[str]:
    key = label + "/"
    if "doc" in got:
        return _compare_docs(json.loads(str(got["doc"])), json.loads(str(reference[key + "doc"])))
    msgs = []
    values = got["values"]
    if "sidecar" in got:
        msgs += _compare_docs(json.loads(str(got["sidecar"])), json.loads(str(reference[key + "sidecar"])))
    if "sigma_max" in label:
        return msgs + _check_sigma_max(values, reference[key + "values"], reference[key + "sigma_tot"])
    if bad := _mismatches(got["cls"], reference[key + "cls"]):
        msgs.append(f"{bad} cells differ in their +inf/-inf/finite token")
    if key + "codes" in reference and (bad := _mismatches(got["codes"], reference[key + "codes"])):
        msgs.append(f"{bad} regime codes differ")
    stride, sample = subsample(values)
    ref_sample = reference[key + "values"]
    off = [i * stride for i, (v, r) in enumerate(zip(sample, ref_sample)) if not _close(v, r)]
    if len(sample) != len(ref_sample) or off:
        msgs.append(f"{len(off)} sampled values off the reference (first cell {off[:1]})")
    total, ref_total = math.fsum(values[np.isfinite(values)]), float(reference[key + "sum"])
    if not _close(total, ref_total, SUM_REL_TOL, SUM_REL_TOL):
        msgs.append(f"sum of finite values {total!r} vs reference {ref_total!r}")
    return msgs


def _check_sigma_max(values, ref_values, ref_sigma_tot) -> list[str]:
    """One-sided: a better maximiser may raise sigma_max, never above sigma_tot."""
    if len(values) != len(ref_values):
        return ["cell count differs from the reference"]
    msgs = []
    with np.errstate(invalid="ignore"):
        low = ~(values >= ref_values - SIGMA_MAX_TOL * np.maximum(1.0, np.abs(ref_values)))
        high = ~(values <= ref_sigma_tot + SIGMA_MAX_TOL)
    low &= np.isfinite(ref_values)
    high &= ~np.isposinf(ref_sigma_tot)
    if np.any(low):
        msgs.append(f"{int(np.sum(low))} cells below the reference sigma_max")
    if np.any(high):
        msgs.append(f"{int(np.sum(high))} cells above sigma_tot (domination broken)")
    return msgs


def _estimate(doc, key="estimate") -> float:
    return parse_number(doc[key])


def _experiment_doc(cmd: Command, outdir: Path, seed: int) -> dict:
    doc = read_json(cmd.artifact(outdir))
    argv = list(cmd.argv)
    if doc["experiment"] != argv[argv.index("--experiment") + 1] or doc["seed"] != seed:
        raise ValueError("experiment name or seed does not match the command")
    if "--trials" in argv and doc["trials"] != int(argv[argv.index("--trials") + 1]):
        raise ValueError("trial count does not match the command")
    if doc["theory_value"] is not None and doc["discrepancy"] is not None:
        est, theory = _estimate(doc), _estimate(doc, "theory_value")
        if parse_number(doc["discrepancy"]) != est - theory:
            raise ValueError("discrepancy is not estimate - theory_value")
    return doc


def check_spectral_mc(cmds, outdir: Path, seed: int, strict: bool) -> dict[str, list[str]]:
    failures: dict[str, list[str]] = {c.label: [] for c in cmds}
    docs = {}
    for cmd in cmds:
        try:
            docs[cmd.label] = _experiment_doc(cmd, outdir, seed)
        except (OSError, ValueError, KeyError) as exc:
            failures[cmd.label].append(f"unreadable artifact: {exc}")
    for label, doc in docs.items():
        msgs = failures[label]
        try:
            msgs += _mc_doc_checks(label, doc, strict)
        except (ValueError, KeyError, TypeError) as exc:
            msgs.append(f"malformed artifact: {exc}")
    if strict:
        seq = [f"mc-det-{n}-shift0" for n in (50, 100, 200)]
        if all(s in docs for s in seq):
            gaps = [abs(parse_number(docs[s]["discrepancy"])) for s in seq]
            if not gaps[0] > gaps[1] > gaps[2]:
                failures[seq[-1]].append(f"determinant discrepancies not shrinking with n: {gaps}")
        if "esd-unspiked" in docs and "esd-spiked" in docs:
            base, spiked = _estimate(docs["esd-unspiked"]), _estimate(docs["esd-spiked"])
            if not spiked <= 2.0 * base:
                failures["esd-spiked"].append(f"spiked W1 {spiked} above twice the unspiked {base}")
    return failures


def _mc_doc_checks(label: str, doc: dict, strict: bool) -> list[str]:
    kind, extras = doc["experiment"], doc["extras"]
    msgs = []
    if kind == "mc-det":
        if strict and abs(parse_number(doc["discrepancy"])) > DET_TOL and "-200-" in label:
            msgs.append(f"|estimate - theory| = {abs(parse_number(doc['discrepancy']))} > {DET_TOL}")
        if extras["all_underflow"]:
            msgs.append("every trial underflowed")
    elif kind == "mc-lmax" and label == "mc-lmax-tail":
        if strict and abs(parse_number(doc["discrepancy"])) > TAIL_TOL:
            msgs.append(f"tail rate off theory by {abs(parse_number(doc['discrepancy']))}")
        if strict and abs(_estimate(doc, "theory_value") - TAIL_THEORY) > 1e-6:
            msgs.append(f"theory value {doc['theory_value']} != {TAIL_THEORY}")
    elif kind == "mc-lmax":
        target = {"2.0": 2.5, "0.5": 2.0}[label.rsplit("-g", 1)[1]]
        mean = parse_number(extras["mean_lambda_max"])
        if strict and abs(mean - target) > BBP_TOL:
            msgs.append(f"mean top eigenvalue {mean} not within {BBP_TOL} of {target}")
        if not extras["empty_tail"] or _estimate(doc) != -math.inf:
            msgs.append("a tail below t=-10 cannot be hit")
    elif kind == "mc-restricted":
        frac = parse_number(extras["acceptance_fraction"])
        if not 0.0 < frac <= 1.0 or extras["accepted_trials"] != round(frac * doc["trials"]):
            msgs.append(f"inconsistent acceptance {frac}")
        if strict and abs(parse_number(doc["discrepancy"])) > DET_TOL:
            msgs.append(f"|estimate - theory| = {abs(parse_number(doc['discrepancy']))} > {DET_TOL}")
    elif kind == "esd":
        w1, d_bl = _estimate(doc), parse_number(extras["d_bl"])
        if not 0.0 <= d_bl <= w1 + 1e-12:
            msgs.append(f"bounded-Lipschitz bound {d_bl} outside [0, W1={w1}]")
        if strict and label == "esd-unspiked" and w1 > ESD_W1_MAX:
            msgs.append(f"W1 {w1} > {ESD_W1_MAX}")
    elif kind == "spherical":
        value, se = _estimate(doc), parse_number(doc["std_error"])
        if not (0.0 < value < math.inf and se >= 0.0):
            msgs.append(f"estimate {value} or std_error {se} out of range")
        elif abs(math.log(value) - parse_number(extras["log_value"])) > 1e-12:
            msgs.append("log_value does not match the estimate")
        elif strict and se > 0.1 * value:
            msgs.append(f"relative standard error {se / value} above 0.1")
    return msgs


def check_finite_n(cmds, outdir: Path, seed: int, strict: bool) -> dict[str, list[str]]:
    failures: dict[str, list[str]] = {c.label: [] for c in cmds}
    docs = {}
    for cmd in cmds:
        try:
            doc = _experiment_doc(cmd, outdir, seed)
            est, se = _estimate(doc), parse_number(doc["std_error"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failures[cmd.label].append(f"unreadable artifact: {exc}")
            continue
        docs[cmd.label] = doc
        msgs = failures[cmd.label]
        if not (math.isfinite(est) and est > 0.0 and math.isfinite(se) and se >= 0.0):
            msgs.append(f"estimate {est} or std_error {se} out of range")
        if doc["experiment"] == "kacrice-count":
            total = est * doc["trials"]
            n = doc["inputs"]["n"]
            if abs(total - round(total)) > 1e-6 * doc["trials"]:
                msgs.append(f"mean count {est} is not a whole number per landscape")
            if doc["extras"]["complete"] != (n == 2):
                msgs.append("completeness flag wrong for this dimension")
            # p = k = 3 is odd, so critical points come in antipodal pairs;
            # the complete circle scan must find an even number per landscape
            if n == 2 and round(total) % 2:
                msgs.append(f"odd critical-point total {round(total)} on the circle")
            if strict and est < 2.0:
                msgs.append(f"mean count {est} below the maximum-plus-minimum floor")
        elif doc["extras"]["underflow_trials"]:
            msgs.append(f"{doc['extras']['underflow_trials']} determinant underflows")
    if strict and "count-n2" in docs and "formula-n2" in docs:
        c, f = docs["count-n2"], docs["formula-n2"]
        se = math.hypot(parse_number(c["std_error"]), parse_number(f["std_error"]))
        gap = abs(_estimate(c) - _estimate(f))
        if gap > KR_SE_BOUND * se:
            failures["formula-n2"].append(f"count and formula differ by {gap / se:.2f} combined SE")
    return failures


def check(workload: str, cmds, outdir: Path, seed: int, strict: bool) -> dict[str, list[str]]:
    """Failure messages per command label (empty list: the artifact passed)."""
    if workload == "closed-form":
        return check_closed_form(cmds, outdir, seed, strict)
    finite = [c for c in cmds if c.argv[2].startswith("kacrice-")]
    spectral = [c for c in cmds if c not in finite]
    return {**check_spectral_mc(spectral, outdir, seed, strict), **check_finite_n(finite, outdir, seed, strict)}
