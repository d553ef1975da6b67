"""Self-tests of the benchmark's checks: each accepts a hand-computed value
and rejects a perturbed one.  Run from the repository root with

    python3 -m pytest bench/test_checks.py -q

They need numpy, scipy and pytest, not the program.
"""

import json
import math

import numpy as np
import pytest

import oracles as O
import workloads as W
from run import same_outputs

DEFAULT = (O.DEFAULT_SCALAR_PRIORS["H1"], O.DEFAULT_SCALAR_PRIORS["H2"])


def write_output(path, result=None, csvs=None):
    path.mkdir(parents=True, exist_ok=True)
    if result is not None:
        (path / "result.json").write_text(json.dumps(result))
    for name, (header, rows) in (csvs or {}).items():
        lines = ["# manifest=abc", ",".join(header)] + [",".join(map(repr, r)) for r in rows]
        (path / name).write_text("\n".join(lines) + "\n")
    return path


def estimate(log10_lr, se=None):
    return {"lr": 10.0**log10_lr, "log10_lr": log10_lr, "mc_std_err": se}


def test_scalar_lr_at_nine_is_eleven_sixths():
    # both predictives are Cauchy (df 1) with squared scale 200:
    # LR = (1 + 14^2/200) / (1 + 4^2/200) = 1.98 / 1.08 = 11/6
    want = math.log10(11 / 6)
    assert O.scalar_log10_lr(9.0, *DEFAULT) == pytest.approx(want, abs=1e-14)
    assert W.check_log10("scalar", estimate(want), O.scalar_log10_lr(9.0, *DEFAULT)) == []
    assert W.check_log10("scalar", estimate(want + 1e-6), O.scalar_log10_lr(9.0, *DEFAULT))


def test_scalar_check_reads_result_and_curve(tmp_path):
    states = DEFAULT
    rows = []
    for x in W.SCALAR_GRID:
        l1, l2 = (O.student_t_logpdf(float(x), s) for s in states)
        rows.append((float(x), math.exp(l1), math.exp(l2), 10.0 ** ((l1 - l2) / O.LN10)))
    result = {"lr_estimate": estimate(math.log10(11 / 6)),
              "posteriors": {s: dict(zip(("mu0", "n_mu", "tau0", "n_tau"), st))
                             for s, st in zip(("H1", "H2"), states)}}
    header = ["r", "density_h1", "density_h2", "lr_a"]
    good = write_output(tmp_path / "good", result, {"lr_curve.csv": (header, rows)})
    assert W._scalar_check(9.0, states)(good) == []
    rows[60] = (rows[60][0], rows[60][1] * (1 + 1e-6), rows[60][2], rows[60][3])
    bad = write_output(tmp_path / "bad", result, {"lr_curve.csv": (header, rows)})
    assert W._scalar_check(9.0, states)(bad)


def test_overflow_case_is_beyond_float_range():
    log10_lr = O.scalar_log10_lr(5.0, *W.OVERFLOW_PRIORS.values())
    assert log10_lr > 308.26  # 10**log10_lr overflows a double


def test_two_expert_default_reading_gives_readme_value():
    h1, h2 = W.PRESET_DEFAULT
    assert 10.0 ** O.pair_log10_lr((2.0, 1.4771), h1, h2) == pytest.approx(4.46, abs=0.005)
    lr0 = O.pair_sweep_log10_lr((2.0, 1.4771), h1, h2, 0)
    lr100 = O.pair_sweep_log10_lr((2.0, 1.4771), h1, h2, 100)
    assert lr100 > lr0


def test_coin_readme_values(tmp_path):
    assert O.coin_b("HHHHHTTT") == 0.6
    assert O.coin_c("HHHHHTTT")[0] == 0.325
    check = W._coin_check("HHHHHTTT")
    result = {"prob_next_heads": {"A": 0.5, "B": 0.6, "C": 0.325},
              "c_likelihood_weighted": O.coin_c("HHHHHTTT")[1]}
    assert check(write_output(tmp_path / "good", result)) == []
    result["prob_next_heads"]["C"] = 0.326
    assert check(write_output(tmp_path / "bad", result))


def test_coin_c_counts_transitions():
    # "HT" from pre-toss H: transitions H->H, H->T; from pre-toss T: T->H, H->T.
    # Last toss T: after-T counts are (0,0) and (1,0): means 1/2 and 2/3
    assert O.coin_c("HT")[0] == pytest.approx(0.5 * (0.5 + 2 / 3))


def test_study_dirichlet_ratio_and_rescale():
    h1, h2 = W.STUDY.values()
    assert O.dirichlet_mean_ratio(h1, h2, 0) == pytest.approx((3664 / 5972) / (7 / 4086), rel=1e-15)
    assert round(O.dirichlet_mean_ratio(h1, h2, 0), 3) == 358.126
    assert O.rescaled_counts(h1, h2, 100) == ([36, 18, 5], [0, 5, 36])


def test_mc_agreement_uses_combined_error():
    est = {"lr": 4.0, "mc_std_err": 0.003}
    assert W.check_mc_agreement("id", est, 4.0 + 4 * 0.005, 0.004) == []
    assert W.check_mc_agreement("id", est, 4.0 + 6 * 0.005, 0.004)


def test_plain_rejection_is_symmetric_on_the_flat_prior():
    lrs, ses, rejected = O.plain_rejection((1, 1, 1), (1, 1, 1), 400_000, np.random.default_rng(3))
    assert 0.85 < rejected < 0.92  # the documented ~11% acceptance
    assert abs(lrs[1] - 1.0) < 5 * ses[1]
    assert lrs[0] == pytest.approx(4.0, rel=0.03)


def test_density_grid_check(tmp_path):
    grid = np.tril(np.ones((100, 100)))  # mass only where p bin >= q bin
    grid /= grid.sum() * 1e-4
    centers = [0.005 + 0.01 * i for i in range(100)]
    rows = [(centers[i], centers[j], float(grid[i, j])) for i in range(100) for j in range(100)]
    header = ["p_bin", "q_bin", "density"]
    exc = [(p, q, d) for (q, p, d) in rows]  # transposed: mass where p <= q
    exc.sort()
    good = write_output(tmp_path / "good", csvs={
        "density_grid_id.csv": (header, rows), "density_grid_inc.csv": (header, rows),
        "density_grid_exc.csv": (header, exc)})
    assert W.check_density_grids(good) == []
    bad = write_output(tmp_path / "bad", csvs={
        "density_grid_id.csv": (header, exc), "density_grid_inc.csv": (header, rows),
        "density_grid_exc.csv": (header, exc)})
    assert W.check_density_grids(bad) == ["density_grid_id: mass where p_ID < q_ID"]


def test_width_density_integrates_to_one():
    state = O.width_state(W.DEFAULT_WIDTH_PRIOR, [2.0, 3.0, 2.5, 4.0, 1.5] * 20)
    w = np.linspace(1e-3, 15.0, 601)
    dens = np.array([math.exp(O.width_log_density(state, float(x))) for x in w])
    assert np.trapezoid(dens, w) == pytest.approx(1.0, abs=1e-4)


def test_same_outputs_ignores_only_wall_time(tmp_path):
    a = write_output(tmp_path / "a", {"x": 1})
    b = write_output(tmp_path / "b", {"x": 1})
    (a / "manifest.json").write_text(json.dumps({"seed": 1, "wall_time_s": 1.0}))
    (b / "manifest.json").write_text(json.dumps({"seed": 1, "wall_time_s": 2.0}))
    assert same_outputs(a, b)
    (b / "manifest.json").write_text(json.dumps({"seed": 2, "wall_time_s": 2.0}))
    assert not same_outputs(a, b)
