"""Generated inputs, CLI operations and output checks for each workload.

A workload is built from its seed alone: ``build(name, seed, root)``
writes the input files under ``root`` and returns the operations of one
round.  Every round of a run repeats the same operations, so a repeat
must reproduce the first round's outputs byte for byte.  Checks compare
outputs with :mod:`oracles` and never call the program.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as O

WORKLOADS = ("categorical-prior", "categorical-study", "interval-width", "closed-form")

STUDY = {"H1": (3663, 1856, 450), "H2": (6, 455, 3622)}
STUDY_SWEEP = (100, 500, 1000, 5000, 10000, 1000000)
CONCLUSIONS = ("id", "inc", "exc")
N_SAMPLES = 1_000_000
#: Monte Carlo agreement is judged at this many combined standard errors.
Z = 5.0


@dataclass
class Op:
    """One CLI invocation: ``evidential-weight <args> --out <dir>``."""

    name: str
    subcommand: str
    args: list[str]
    check: Callable[[Path], list[str]]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    #: Checks that relate the outputs of several operations of a round.
    round_check: Callable[[dict[str, Path]], list[str]] = lambda outs: []
    #: In-process library calls for the traced run: (kind, args, expected log10 LR).
    library: list[tuple] = field(default_factory=list)
    #: Counts (H1 then H2) for the traced thread-scaling probe; all zero is the flat prior.
    scaling_counts: tuple | None = None
    #: Width states (log_p, q, r, s) probed by the traced run.
    width_states: list[tuple] = field(default_factory=list)
    #: Rounds an untraced run makes at least; the second repeats the first.
    min_rounds: int = 2


def build(name: str, seed: int, root: Path) -> Workload:
    gen = np.random.default_rng([WORKLOADS.index(name), seed])
    root.mkdir(parents=True, exist_ok=True)
    return _MAKERS[name](gen, root)


def program_seed(gen) -> str:
    return str(int(gen.integers(1, 2**31)))


# ----------------------------------------------------------------------
# reading outputs
# ----------------------------------------------------------------------

def read_result(out: Path) -> dict:
    return json.loads((out / "result.json").read_text())


def read_csv(out: Path, name: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a figure-data CSV, after its manifest comment line."""
    lines = (out / name).read_text().splitlines()
    if not lines or not lines[0].startswith("# manifest="):
        raise ValueError(f"{name}: missing manifest comment line")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def close(got: float, want: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(got - want) <= max(rel * abs(want), abs_)


def _problems(fn):
    """Run a check; a malformed or missing output counts as a problem."""

    def wrapped(out: Path) -> list[str]:
        try:
            return fn(out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    return wrapped


def check_log10(label: str, got: dict, want_log10: float, tol: float = 1e-9) -> list[str]:
    """``lr_estimate`` against an expected log10 LR, and lr against log10_lr."""
    out = []
    if not close(got["log10_lr"], want_log10, 0.0, tol * max(1.0, abs(want_log10))):
        out.append(f"{label}: log10_lr {got['log10_lr']!r} != expected {want_log10!r}")
    if not close(got["lr"], 10.0 ** got["log10_lr"], 1e-12):
        out.append(f"{label}: lr {got['lr']!r} inconsistent with log10_lr")
    return out


# ----------------------------------------------------------------------
# categorical
# ----------------------------------------------------------------------

def check_density_grids(out: Path) -> list[str]:
    """Each 100x100 grid is a normalized density; ID needs p > q, Exc p < q."""
    problems = []
    centers = [0.005 + 0.01 * i for i in range(100)]
    for conclusion in CONCLUSIONS:
        header, rows = read_csv(out, f"density_grid_{conclusion}.csv")
        if header != ["p_bin", "q_bin", "density"] or len(rows) != 10000:
            problems.append(f"density_grid_{conclusion}: wrong shape")
            continue
        grid = np.array([float(r[2]) for r in rows]).reshape(100, 100)
        if not all(close(float(rows[100 * i][0]), c, 1e-12) for i, c in enumerate(centers)):
            problems.append(f"density_grid_{conclusion}: bin centers off")
        if np.any(grid < 0) or not close(grid.sum() * 1e-4, 1.0, 1e-9):
            problems.append(f"density_grid_{conclusion}: not a normalized density")
        below = np.tril(grid, -1)  # p bin entirely above q bin
        above = np.triu(grid, 1)
        if conclusion == "id" and above.any():
            problems.append("density_grid_id: mass where p_ID < q_ID")
        if conclusion == "exc" and below.any():
            problems.append("density_grid_exc: mass where p_Exc > q_Exc")
    return problems


def check_mc_agreement(label, est, ref_lr, ref_se) -> list[str]:
    bound = Z * math.hypot(est["mc_std_err"], ref_se)
    if abs(est["lr"] - ref_lr) > bound:
        return [f"{label}: lr {est['lr']:.6g} vs reference {ref_lr:.6g} beyond {bound:.3g}"]
    return []


def _categorical_prior(gen, root: Path) -> Workload:
    ref_lr, ref_se, _ = O.plain_rejection((1, 1, 1), (1, 1, 1), N_SAMPLES, gen)
    ops = []
    for j, conclusion in enumerate(CONCLUSIONS):
        seed = program_seed(gen)

        @_problems
        def check(out, j=j, conclusion=conclusion, seed=seed):
            est = read_result(out)["lr_estimate"]
            problems = []
            if est["n_samples"] != N_SAMPLES or est["seed"] != int(seed):
                problems.append(f"{conclusion}: wrong n_samples or seed")
            if not 0.05 < est["acceptance_rate"] < 0.2:
                problems.append(f"{conclusion}: acceptance {est['acceptance_rate']!r}")
            if conclusion == "id" and not close(est["lr"], 4.0, 0.03):
                problems.append(f"id: LR {est['lr']!r} not within 3% of 4.0")
            problems += check_log10(conclusion, est, math.log10(est["lr"]), 1e-12)
            problems += check_mc_agreement(conclusion, est, ref_lr[j], ref_se[j])
            return problems + check_density_grids(out)

        ops.append(Op(f"categorical-{conclusion}", "categorical",
                      ["categorical", "--conclusion", conclusion, "--seed", seed], check))

    @_problems
    def round_check(outs):
        lr = {c: read_result(outs[f"categorical-{c}"])["lr_estimate"] for c in CONCLUSIONS}
        problems = []
        if not lr["exc"]["lr"] < 1.0 < lr["id"]["lr"]:
            problems.append("conclusion LRs not ordered LR(Exc) < 1 < LR(ID)")
        # the truncation region is symmetric under p <-> reversed q, so
        # LR(Inc) = 1 and LR(Exc) = 1 / LR(ID) exactly
        if abs(lr["inc"]["lr"] - 1.0) > Z * lr["inc"]["mc_std_err"]:
            problems.append(f"LR(Inc) {lr['inc']['lr']!r} not within {Z} SE of 1")
        rel = math.hypot(lr["id"]["mc_std_err"] / lr["id"]["lr"],
                         lr["exc"]["mc_std_err"] / lr["exc"]["lr"])
        if abs(lr["id"]["lr"] * lr["exc"]["lr"] - 1.0) > Z * rel:
            problems.append("LR(ID) * LR(Exc) not within its error of 1")
        return problems

    return Workload("categorical-prior", ops, round_check, scaling_counts=(0,) * 6)


def _categorical_study(gen, root: Path) -> Workload:
    json_path = root / "study.json"
    json_path.write_text(json.dumps(
        {s: dict(zip(CONCLUSIONS, STUDY[s])) for s in ("H1", "H2")}, indent=1))
    rows = [f"{s},{c}" for s in ("H1", "H2") for c, k in zip(CONCLUSIONS, STUDY[s]) for _ in range(k)]
    random.Random(int(gen.integers(2**63))).shuffle(rows)
    csv_path = root / "study.csv"
    csv_path.write_text("scenario,conclusion\n" + "\n".join(rows) + "\n")

    # one conclusion throughout, so that runs with different seeds price
    # the same Monte Carlo error in to_rse_1e-3_s
    conclusion, j = "id", 0
    seed = program_seed(gen)
    sweep = ",".join(str(s) for s in STUDY_SWEEP)

    # independent reference per table: (lr, se) and whether truncation is negligible
    refs = {}
    for size in (None,) + STUDY_SWEEP:
        h1, h2 = STUDY.values() if size is None else O.rescaled_counts(*STUDY.values(), size)
        lrs, ses, rejected = O.plain_rejection([c + 1 for c in h1], [c + 1 for c in h2], 200_000, gen)
        exact = [O.dirichlet_mean_ratio(h1, h2, k) for k in range(3)]
        refs[size] = (lrs, ses, exact if rejected == 0.0 else None)
    asymptote = [(STUDY["H1"][k] / sum(STUDY["H1"])) / (STUDY["H2"][k] / sum(STUDY["H2"]))
                 for k in range(3)]

    def check_estimate(label, est, ref, k):
        lrs, ses, exact = ref
        problems = check_mc_agreement(label, est, lrs[k], ses[k])
        if exact is not None and abs(est["lr"] - exact[k]) > Z * est["mc_std_err"]:
            problems.append(f"{label}: lr {est['lr']!r} vs Dirichlet-mean ratio {exact[k]!r}")
        return problems

    @_problems
    def check(out):
        est = read_result(out)["lr_estimate"]
        problems = []
        if est["n_samples"] != N_SAMPLES or est["seed"] != int(seed) or est["acceptance_rate"] < 0.99:
            problems.append("study: wrong n_samples, seed or acceptance")
        problems += check_log10("study", est, math.log10(est["lr"]), 1e-12)
        problems += check_estimate(f"study {conclusion}", est, refs[None], j)
        header, rows = read_csv(out, "sweep.csv")
        want = [(s, c) for s in STUDY_SWEEP for c in CONCLUSIONS]
        if header != ["size", "conclusion", "lr", "mc_std_err", "asymptote"] or \
                [(int(r[0]), r[1]) for r in rows] != want:
            return problems + ["sweep.csv: wrong rows"]
        for r in rows:
            k = CONCLUSIONS.index(r[1])
            row_est = {"lr": float(r[2]), "mc_std_err": float(r[3])}
            problems += check_estimate(f"sweep {r[0]} {r[1]}", row_est, refs[int(r[0])], k)
            if not close(float(r[4]), asymptote[k], 1e-12):
                problems.append(f"sweep {r[0]} {r[1]}: asymptote {r[4]}")
        return problems + check_density_grids(out)

    common = ["categorical", "--conclusion", conclusion, "--sweep", sweep, "--seed", seed]
    ops = [
        Op("study-json", "categorical", common + ["--validation", str(json_path)], check),
        Op("study-csv", "categorical", common + ["--validation", str(csv_path)], check),
    ]

    @_problems
    def round_check(outs):
        a, b = outs["study-json"], outs["study-csv"]
        if read_result(a)["lr_estimate"] != read_result(b)["lr_estimate"]:
            return ["JSON and CSV study tables give different estimates"]
        for name in ["sweep.csv"] + [f"density_grid_{c}.csv" for c in CONCLUSIONS]:
            if read_csv(a, name) != read_csv(b, name):
                return [f"JSON and CSV study tables give different {name}"]
        return []

    return Workload("categorical-study", ops, round_check, scaling_counts=STUDY["H1"] + STUDY["H2"])


# ----------------------------------------------------------------------
# interval
# ----------------------------------------------------------------------

DEFAULT_WIDTH_PRIOR = (math.log(9.0), 6.0, 2.0, 2.0)
W_GRID = np.linspace(0.2, 10.0, 50)
#: Validation interval populations per scenario: midpoint ~ N(mu, sd),
#: width ~ Gamma(shape k, scale theta), 300 intervals each.
VALIDATION_INTERVALS = {"H1": (5.0, 1.5, 8.0, 0.4), "H2": (-5.0, 2.0, 5.0, 0.5)}
#: Relative tolerance on width densities; the program's quadrature
#: stops at a 1e-6 change in each log integral.
WIDTH_RTOL = 5e-6


def _interval_bounds(gen, mid_range):
    m = gen.uniform(*mid_range)
    w = gen.uniform(0.5, 4.0)
    return 10.0 ** (m - w / 2), 10.0 ** (m + w / 2)


def _interval_check(lo, hi, mid_states, width_states):
    @_problems
    def check(out):
        res = read_result(out)
        m = 0.5 * (math.log10(lo) + math.log10(hi))
        w = math.log10(hi) - math.log10(lo)
        problems = []
        if not (close(res["midpoint"], m, 1e-12, 1e-12) and close(res["width"], w, 1e-12)):
            problems.append("interval: midpoint or width wrong")
        log10_m = O.scalar_log10_lr(m, *mid_states)
        if not close(math.log10(res["lr_m"]), log10_m, 0.0, 1e-9 * max(1.0, abs(log10_m))):
            problems.append(f"interval: lr_m {res['lr_m']!r} vs Student-t {10 ** log10_m!r}")
        same = width_states[0] == width_states[1]
        if same:
            log10_w = 0.0
            if res["lr_w"] != 1.0:
                problems.append(f"interval: lr_w {res['lr_w']!r} != 1 for equal width priors")
        else:
            log10_w = (O.width_log_density(width_states[0], w)
                       - O.width_log_density(width_states[1], w)) / O.LN10
            if not close(math.log10(res["lr_w"]), log10_w, 0.0, 2 * WIDTH_RTOL / O.LN10):
                problems.append(f"interval: lr_w {res['lr_w']!r} vs oracle {10 ** log10_w!r}")
        est = res["lr_estimate"]
        problems += check_log10("interval", est, log10_m + log10_w, 1e-8)
        if not close(est["log10_lr"], math.log10(res["lr_m"]) + math.log10(res["lr_w"]), 0.0, 1e-9):
            problems.append("interval: lr != lr_m * lr_w")

        header, rows = read_csv(out, "width_curve.csv")
        if header != ["w", "density_h1", "density_h2", "lr_w"] or len(rows) != W_GRID.size:
            return problems + ["width_curve.csv: wrong shape"]
        cache = {}
        for wg, r in zip(W_GRID, rows):
            w_row, d1, d2, ratio = (float(v) for v in r)
            if not close(w_row, wg, 1e-12):
                problems.append(f"width_curve: w {w_row} != {wg}")
            for state, got in zip(width_states, (d1, d2)):
                if (state, wg) not in cache:
                    cache[state, wg] = math.exp(O.width_log_density(state, float(wg)))
                if not close(got, cache[state, wg], WIDTH_RTOL):
                    problems.append(f"width_curve: density {got!r} at w={wg:.3g} vs {cache[state, wg]!r}")
            if not close(ratio, d1 / d2, 1e-12) or (same and ratio != 1.0):
                problems.append(f"width_curve: lr_w {ratio!r} at w={wg:.3g}")
        return problems

    return check


def _interval_width(gen, root: Path) -> Workload:
    default_mid = (O.DEFAULT_SCALAR_PRIORS["H1"], O.DEFAULT_SCALAR_PRIORS["H2"])
    lo, hi = _interval_bounds(gen, (-8.0, 8.0))
    prior_op = Op("interval-prior", "interval",
                  ["interval", "--lo", repr(lo), "--hi", repr(hi), "--seed", program_seed(gen)],
                  _interval_check(lo, hi, default_mid, (DEFAULT_WIDTH_PRIOR, DEFAULT_WIDTH_PRIOR)))

    # the quadrature's refinement depth follows the posterior's shape, so
    # the validation populations are fixed and only their draws vary
    rows, mids, widths = [], {}, {}
    for scen, (mu, sd, k, theta) in VALIDATION_INTERVALS.items():
        m, w = gen.normal(mu, sd, 300), gen.gamma(k, theta, 300)
        pairs = [(float(a), float(b)) for a, b in zip(m - w / 2, m + w / 2)]
        rows += [f"{scen},{a!r},{b!r}" for a, b in pairs]
        mids[scen] = [0.5 * (a + b) for a, b in pairs]
        widths[scen] = [b - a for a, b in pairs]
    order = gen.permutation(len(rows))
    path = root / "intervals.csv"
    path.write_text("scenario,log10_lo,log10_hi\n" + "\n".join(rows[i] for i in order) + "\n")
    mid_post = tuple(O.normal_gamma_update(O.DEFAULT_SCALAR_PRIORS[s], mids[s]) for s in ("H1", "H2"))
    width_post = tuple(O.width_state(DEFAULT_WIDTH_PRIOR, widths[s]) for s in ("H1", "H2"))
    lo2, hi2 = _interval_bounds(gen, (-6.0, 6.0))
    post_op = Op("interval-validation", "interval",
                 ["interval", "--lo", repr(lo2), "--hi", repr(hi2), "--validation", str(path),
                  "--seed", program_seed(gen)],
                 _interval_check(lo2, hi2, mid_post, width_post))
    return Workload("interval-width", [prior_op, post_op],
                    width_states=[DEFAULT_WIDTH_PRIOR, *width_post])


# ----------------------------------------------------------------------
# closed form: scalar, two-expert, coin
# ----------------------------------------------------------------------

SCALAR_GRID = np.linspace(-30.0, 30.0, 121)
#: Priors whose LR at r = 5 has |log10 LR| > 308: the linear LR overflows.
OVERFLOW_PRIORS = {"H1": (5.0, 1000.0, 1e4, 1000.0), "H2": (-5.0, 1000.0, 1e4, 1000.0)}
PRESET_DEFAULT = (((5.0, 5.0), 2.0, ((0.1, -0.08), (-0.08, 0.1)), 2.0),
                  ((-2.0, -4.0), 2.0, ((0.1, -0.08), (-0.08, 0.1)), 2.0))
PAIR_SWEEP = (0, 10, 100)


def _scalar_json(states) -> str:
    return json.dumps({s: dict(zip(("mu0", "n_mu", "tau0", "n_tau"), st))
                       for s, st in zip(("H1", "H2"), states)})


def _scalar_check(r, states):
    @_problems
    def check(out):
        res = read_result(out)
        problems = check_log10("scalar", res["lr_estimate"], O.scalar_log10_lr(r, *states))
        for s, st in zip(("H1", "H2"), states):
            got = res["posteriors"][s]
            if not all(close(got[k], v, 1e-9, 1e-12)
                       for k, v in zip(("mu0", "n_mu", "tau0", "n_tau"), st)):
                problems.append(f"scalar: posterior {s} {got} vs {st}")
        header, rows = read_csv(out, "lr_curve.csv")
        if header != ["r", "density_h1", "density_h2", "lr_a"] or len(rows) != SCALAR_GRID.size:
            return problems + ["lr_curve.csv: wrong shape"]
        for x, row in zip(SCALAR_GRID, rows):
            x = float(x)
            l1, l2 = (O.student_t_logpdf(x, st) for st in states)
            vals = [float(v) for v in row]
            if not (close(vals[0], x, 1e-12, 1e-12) and close(vals[1], math.exp(l1), 1e-9)
                    and close(vals[2], math.exp(l2), 1e-9)
                    and close(vals[3], 10.0 ** ((l1 - l2) / O.LN10), 1e-8)):
                problems.append(f"lr_curve: row at r={x} is {row}")
        return problems

    return check


def _pair_check(x, states, sweep_states, sweep_monotone: bool):
    """``states`` give the reported LR; the sweep updates ``sweep_states``, the priors."""

    @_problems
    def check(out):
        problems = check_log10("two-expert", read_result(out)["lr_estimate"],
                               O.pair_log10_lr(x, *states))
        header, rows = read_csv(out, "pair_sweep.csv")
        if header != ["m", "lr_a"] or [int(r[0]) for r in rows] != list(PAIR_SWEEP):
            return problems + ["pair_sweep.csv: wrong rows"]
        lrs = [float(r[1]) for r in rows]
        for m, lr in zip(PAIR_SWEEP, lrs):
            want = 10.0 ** O.pair_sweep_log10_lr(x, *sweep_states, m)
            if not close(lr, want, 1e-8):
                problems.append(f"pair_sweep: m={m} lr {lr!r} vs {want!r}")
        if sweep_monotone and not lrs[2] > lrs[0]:
            problems.append("pair_sweep: LR(100) not above LR(0)")
        return problems

    return check


def _coin_check(seq):
    @_problems
    def check(out):
        res = read_result(out)
        c, c_weighted = O.coin_c(seq)
        want = {"A": 0.5, "B": O.coin_b(seq), "C": c}
        problems = [f"coin {k}: {res['prob_next_heads'][k]!r} vs {v!r}"
                    for k, v in want.items() if not close(res["prob_next_heads"][k], v, 1e-12)]
        if not close(res["c_likelihood_weighted"], c_weighted, 1e-12):
            problems.append("coin: likelihood-weighted C wrong")
        if seq == "HHHHHTTT" and (want["B"], want["C"]) != (0.6, 0.325):
            problems.append("coin oracle: HHHHHTTT must give (0.5, 0.6, 0.325)")
        return problems

    return check


def _validation_rows(gen, per_scenario, draw):
    """0 to ``per_scenario`` generated rows for each scenario."""
    return {s: [draw(gen, s) for _ in range(int(gen.integers(0, per_scenario + 1)))]
            for s in ("H1", "H2")}


def _closed_form(gen, root: Path) -> Workload:
    ops = []
    # scalar with generated priors and 0-1000 validation rows per scenario
    priors = tuple((float(sign * gen.uniform(2.0, 8.0)), float(gen.uniform(0.5, 5.0)),
                    float(gen.uniform(0.02, 0.5)), float(gen.uniform(1.0, 10.0)))
                   for sign in (1, -1))
    (root / "scalar_priors.json").write_text(_scalar_json(priors))
    shapes = {s: (sign * gen.uniform(2.0, 8.0), gen.uniform(1.5, 3.0))
              for s, sign in (("H1", 1), ("H2", -1))}
    values = _validation_rows(gen, 1000, lambda g, s: float(g.normal(*shapes[s])))
    args = ["scalar", "--r", repr(float(gen.uniform(-12, 12))), "--priors",
            str(root / "scalar_priors.json")]
    if values["H1"] or values["H2"]:
        lines = [f"{s},{v!r}" for s in ("H1", "H2") for v in values[s]]
        (root / "scalar_validation.csv").write_text("scenario,log10_lr\n" + "\n".join(lines) + "\n")
        args += ["--validation", str(root / "scalar_validation.csv")]
    post = tuple(O.normal_gamma_update(p, values[s]) for p, s in zip(priors, ("H1", "H2")))
    ops.append(Op("scalar-validation", "scalar", args + ["--seed", program_seed(gen)],
                  _scalar_check(float(args[2]), post)))

    r = float(gen.uniform(-12, 12))
    default = (O.DEFAULT_SCALAR_PRIORS["H1"], O.DEFAULT_SCALAR_PRIORS["H2"])
    ops.append(Op("scalar-default", "scalar", ["scalar", "--r", repr(r), "--seed", program_seed(gen)],
                  _scalar_check(r, default)))

    overflow = tuple(OVERFLOW_PRIORS.values())
    (root / "overflow_priors.json").write_text(_scalar_json(overflow))
    ops.append(Op("scalar-overflow", "scalar",
                  ["scalar", "--r", "5", "--priors", str(root / "overflow_priors.json")],
                  _scalar_check(5.0, overflow)))

    # two experts: generated normal-Wishart priors and validation pairs
    def nw_prior(mu):
        a, b = gen.uniform(0.05, 0.3, 2)
        off = float(gen.uniform(-0.8, 0.8) * math.sqrt(a * b))
        return (mu, float(gen.uniform(1.0, 4.0)), ((float(a), off), (off, float(b))),
                float(gen.uniform(2.5, 6.0)))

    pair_priors = (nw_prior((float(gen.uniform(3, 6)), float(gen.uniform(2, 5)))),
                   nw_prior((float(gen.uniform(-5, -2)), float(gen.uniform(-5, -2)))))
    (root / "pair_priors.json").write_text(json.dumps({
        s: {"mu0": list(p[0]), "k0": p[1], "lambda0": [v for row in p[2] for v in row], "n0": p[3]}
        for s, p in zip(("H1", "H2"), pair_priors)}))
    pairs = _validation_rows(gen, 1000, lambda g, s: tuple(
        float(v) for v in g.multivariate_normal(O.SWEEP_MEAN[s], O.SWEEP_COV)))
    x = (float(gen.uniform(1.5, 5.0)), float(gen.uniform(0.5, 4.0)))
    args = ["two-expert", "--x", f"{x[0]!r},{x[1]!r}", "--priors", str(root / "pair_priors.json"),
            "--sweep", ",".join(map(str, PAIR_SWEEP))]
    if pairs["H1"] or pairs["H2"]:
        lines = [f"{s},{b!r},{c!r}" for s in ("H1", "H2") for b, c in pairs[s]]
        (root / "pair_validation.csv").write_text(
            "scenario,log10_lr_b,log10_lr_c\n" + "\n".join(lines) + "\n")
        args += ["--validation", str(root / "pair_validation.csv")]
    pair_post = tuple(O.pair_update(p, *O.pair_summary(pairs[s]))
                      for p, s in zip(pair_priors, ("H1", "H2")))
    ops.append(Op("two-expert-validation", "two-expert", args + ["--seed", program_seed(gen)],
                  _pair_check(x, pair_post, pair_priors, sweep_monotone=False)))
    # the README example, where the sweep is documented to rise
    readme_x = (2.0, 1.4771)
    ops.append(Op("two-expert-default", "two-expert",
                  ["two-expert", "--x", "2,1.4771", "--sweep", "0,10,100", "--seed", program_seed(gen)],
                  _pair_check(readme_x, PRESET_DEFAULT, PRESET_DEFAULT, sweep_monotone=True)))

    seq = "".join(gen.choice(["H", "T"], size=int(gen.integers(1, 81))))
    ops.append(Op("coin-generated", "coin", ["coin", "--seq", seq, "--seed", program_seed(gen)],
                  _coin_check(seq)))
    ops.append(Op("coin-readme", "coin", ["coin", "--seq", "HHHHHTTT", "--seed", program_seed(gen)],
                  _coin_check("HHHHHTTT")))

    library = [("scalar", (float(v), post), O.scalar_log10_lr(float(v), *post))
               for v in gen.uniform(-12, 12, 500)]
    reports = [tuple(float(v) for v in gen.multivariate_normal(O.SWEEP_MEAN[s], O.SWEEP_COV))
               for s in gen.choice(["H1", "H2"], size=500)]
    library += [("pair", (xy, pair_post), O.pair_log10_lr(xy, *pair_post)) for xy in reports]
    # its commands are short and mostly start-up, so run-to-run variation
    # needs more of them to average out
    return Workload("closed-form", ops, library=library, min_rounds=4)


_MAKERS = {
    "categorical-prior": _categorical_prior,
    "categorical-study": _categorical_study,
    "interval-width": _interval_width,
    "closed-form": _closed_form,
}
