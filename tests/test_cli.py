"""End-to-end command-line behavior: outputs, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from evidential_weight import categorical, cli, interval_opinion, mc

STUDY_JSON = {
    "H1": {"id": 3663, "inc": 1856, "exc": 450},
    "H2": {"id": 6, "inc": 455, "exc": 3622},
}


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def run(argv) -> int:
    return cli.main([str(a) for a in argv])


class TestCoinCommand:
    def test_reference_values(self, tmp_path):
        assert run(["coin", "--seq", "HHHHHTTT", "--out", tmp_path]) == 0
        result = read_json(tmp_path / "result.json")
        assert result["prob_next_heads"] == {"A": 0.5, "B": 0.6, "C": 0.325}

    def test_csv_format(self, tmp_path):
        assert run(["coin", "--seq", "HT", "--out", tmp_path, "--format", "csv"]) == 0
        text = (tmp_path / "result.csv").read_text()
        assert text.startswith("# manifest=")
        assert "prob_next_heads.B," in text

    def test_bad_sequence_exits_2(self, tmp_path, capsys):
        assert run(["coin", "--seq", "HHQT", "--out", tmp_path]) == 2
        assert "toss 3" in capsys.readouterr().err


class TestScalarCommand:
    def test_default_priors_at_nine(self, tmp_path):
        assert run(["scalar", "--r", "9", "--out", tmp_path]) == 0
        result = read_json(tmp_path / "result.json")
        assert result["lr_estimate"]["lr"] == pytest.approx(1.8333, abs=2e-3)
        curve = (tmp_path / "lr_curve.csv").read_text().splitlines()
        assert curve[0].startswith("# manifest=")
        assert curve[1] == "r,density_h1,density_h2,lr_a"
        assert len(curve) == 2 + 121

    def test_validation_updates_posteriors(self, tmp_path):
        csv_path = tmp_path / "scalar.csv"
        rows = ["scenario,log10_lr"]
        rows += [f"H1,{v}" for v in (7.0, 8.0, 9.0)]
        rows += [f"H2,{v}" for v in (-11.0, -13.0)]
        csv_path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert run(["scalar", "--r", "8", "--validation", csv_path, "--out", out]) == 0
        result = read_json(out / "result.json")
        assert result["posteriors"]["H1"]["n_mu"] == 4.0
        assert result["posteriors"]["H2"]["n_mu"] == 3.0
        assert result["lr_estimate"]["lr"] > 10.0

    def test_malformed_row_cites_line(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("scenario,log10_lr\nH1,2.0\nH1,not-a-number\n")
        assert run(["scalar", "--r", "1", "--validation", csv_path, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "bad.csv" in err and ":3" in err

    def test_custom_priors_file(self, tmp_path):
        priors = {
            "H1": {"mu0": 2.0, "n_mu": 1.0, "tau0": 1.0, "n_tau": 1.0},
            "H2": {"mu0": -2.0, "n_mu": 1.0, "tau0": 1.0, "n_tau": 1.0},
        }
        path = tmp_path / "priors.json"
        path.write_text(json.dumps(priors))
        assert run(["scalar", "--r", "0", "--priors", path, "--out", tmp_path]) == 0
        assert read_json(tmp_path / "result.json")["lr_estimate"]["lr"] == pytest.approx(1.0)

    @pytest.mark.parametrize("r, sign", [("5", ""), ("-5", "-")])
    def test_lr_beyond_float_range_exits_3(self, tmp_path, capsys, r, sign):
        # |log10 LR| = 1501.5 here: exact in log10, but no float holds the LR
        priors = {
            "H1": {"mu0": 5.0, "n_mu": 1000.0, "tau0": 1e4, "n_tau": 1000.0},
            "H2": {"mu0": -5.0, "n_mu": 1000.0, "tau0": 1e4, "n_tau": 1000.0},
        }
        path = tmp_path / "priors.json"
        path.write_text(json.dumps(priors))
        assert run(["scalar", f"--r={r}", "--priors", path, "--out", tmp_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: log10 LR = " + sign + "1501.50")

    def test_curve_saturates_beyond_float_range(self, tmp_path):
        priors = {
            "H1": {"mu0": 5.0, "n_mu": 1000.0, "tau0": 1e4, "n_tau": 1000.0},
            "H2": {"mu0": -5.0, "n_mu": 1000.0, "tau0": 1e4, "n_tau": 1000.0},
        }
        path = tmp_path / "priors.json"
        path.write_text(json.dumps(priors))
        out = tmp_path / "out"
        assert run(["scalar", "--r", "0.3", "--priors", path, "--out", out]) == 0
        rows = (out / "lr_curve.csv").read_text().splitlines()[2:]
        lr_a = [float(row.split(",")[3]) for row in rows]
        assert sum(v in (math.inf, 0.0) for v in lr_a) == 51

    @pytest.mark.parametrize("grid", ["-1e308:1e308:3", "-inf:0:3", "0:1:10000000000000000000"])
    def test_unusable_grid_exit_2(self, tmp_path, capsys, grid):
        assert run(["scalar", "--r", "1", f"--grid={grid}", "--out", tmp_path / "out"]) == 2
        assert "bad --grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCategoricalCommand:
    def test_prior_run_outputs(self, tmp_path):
        assert run(
            ["categorical", "--conclusion", "id", "--samples", 150_000,
             "--seed", 7, "--out", tmp_path]
        ) == 0
        result = read_json(tmp_path / "result.json")
        assert result["lr_estimate"]["lr"] == pytest.approx(4.0, rel=0.05)
        assert result["lr_estimate"]["seed"] == 7
        for name in ("density_grid_id.csv", "density_grid_inc.csv", "density_grid_exc.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[1] == "p_bin,q_bin,density"
            assert len(lines) == 2 + 100 * 100
        manifest = read_json(tmp_path / "manifest.json")
        assert manifest["seed"] == 7
        assert manifest["n_samples"] == 150_000

    def test_validation_and_sweep(self, tmp_path):
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps(STUDY_JSON))
        out = tmp_path / "out"
        assert run(
            ["categorical", "--conclusion", "id", "--validation", counts,
             "--samples", 100_000, "--sweep", "500,2000", "--out", out]
        ) == 0
        result = read_json(out / "result.json")
        assert result["lr_estimate"]["lr"] == pytest.approx(358.0, rel=0.05)
        sweep = (out / "sweep.csv").read_text().splitlines()
        assert sweep[1] == "size,conclusion,lr,mc_std_err,asymptote"
        assert len(sweep) == 2 + 6

    def test_csv_validation_rows(self, tmp_path):
        rows = ["scenario,conclusion", "H1,id", "H1,id", "H1,exc", "H2,exc", "H2,inc"]
        path = tmp_path / "rows.csv"
        path.write_text("\n".join(rows) + "\n")
        assert run(
            ["categorical", "--validation", path, "--samples", 20_000, "--out", tmp_path]
        ) == 0

    def test_malformed_conclusion_cites_row(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        path.write_text("scenario,conclusion\nH1,id\nH2,perhaps\n")
        assert run(
            ["categorical", "--validation", path, "--samples", 1000, "--out", tmp_path]
        ) == 2
        assert ":3" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        ([], "--sweep requires --validation counts"),
        (["--validation", "COUNTS"], "size 5 leaves fewer than 3 comparisons"),
    ])
    def test_sweep_checked_before_sampling(self, tmp_path, capsys, monkeypatch, extra, message):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the inputs were checked")

        monkeypatch.setattr(categorical, "sample_rate_pairs", no_sampling)
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps(STUDY_JSON))
        extra = [counts if a == "COUNTS" else a for a in extra]
        out = tmp_path / "out"
        assert run(["categorical", "--sweep", "100,5", *extra, "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_intractable_constraints_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(mc, "INTRACTABLE_PROBE", 4 * mc.CHUNK_SIZE)
        counts = tmp_path / "counts.json"
        # all-exclusion mated and all-identification non-mated data make
        # the discriminating-expert region unreachable
        counts.write_text(json.dumps({
            "H1": {"id": 0, "inc": 0, "exc": 10**9},
            "H2": {"id": 10**9, "inc": 0, "exc": 0},
        }))
        assert run(
            ["categorical", "--validation", counts, "--samples", 1000, "--out", tmp_path]
        ) == 3
        assert "acceptance rate" in capsys.readouterr().err

    def test_outputs_independent_of_thread_count(self, tmp_path, monkeypatch):
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps(STUDY_JSON))
        outputs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("EVIDENTIAL_WEIGHT_THREADS", threads)
            out = tmp_path / threads
            assert run(
                ["categorical", "--validation", counts, "--sweep", "100,1000",
                 "--samples", 20_000, "--out", out]
            ) == 0
            files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
            manifest = read_json(out / "manifest.json")
            del manifest["wall_time_s"], manifest["command"]
            outputs.append((files, manifest))
        assert sorted(outputs[0][0]) == sorted(
            ["result.json", "sweep.csv"] + [f"density_grid_{c}.csv" for c in ("id", "inc", "exc")]
        )
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_too_many_samples_exit_3(self, tmp_path, capsys):
        # 1e13 draws of six rates need 437 TiB: the buffer allocation is
        # refused before any sample is stored
        assert run(
            ["categorical", "--samples", 10_000_000_000_000, "--out", tmp_path]
        ) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: 10000000000000 draws need ")
        assert "GiB" in err
        assert not (tmp_path / "result.json").exists()


@pytest.mark.filterwarnings("ignore:width hyperprior")
class TestIntervalCommand:
    def test_prior_run(self, tmp_path):
        assert run(
            ["interval", "--lo", "1e8", "--hi", "1e10", "--out", tmp_path,
             "--w-grid", "0.5:8:9"]
        ) == 0
        result = read_json(tmp_path / "result.json")
        assert result["midpoint"] == 9.0
        assert result["width"] == 2.0
        assert result["lr_w"] == 1.0
        assert result["lr_estimate"]["lr"] == pytest.approx(result["lr_m"], rel=1e-12)
        curve = (tmp_path / "width_curve.csv").read_text().splitlines()
        assert curve[1] == "w,density_h1,density_h2,lr_w"
        assert len(curve) == 2 + 9

    def test_validation_updates(self, tmp_path):
        rows = ["scenario,log10_lo,log10_hi"]
        rows += [f"H1,{lo},{lo + 4.5}" for lo in (3.0, 4.0, 5.0)]
        rows += [f"H2,{lo},{lo + 2.0}" for lo in (-4.0, -5.0, -6.0)]
        path = tmp_path / "iv.csv"
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert run(
            ["interval", "--lo", "1e3", "--hi", "1e8", "--validation", path,
             "--out", out, "--w-grid", "1:6:6"]
        ) == 0
        result = read_json(out / "result.json")
        assert result["lr_w"] > 1.0

    def test_degenerate_interval_exit_2(self, tmp_path):
        assert run(["interval", "--lo", "10", "--hi", "10", "--out", tmp_path]) == 2

    @pytest.mark.parametrize("tol", ["0", "-1e-6", "nan"])
    def test_nonpositive_quad_rel_tol_exit_2(self, tmp_path, capsys, tol):
        assert run(
            ["interval", "--lo", "1e8", "--hi", "1e10", "--out", tmp_path,
             f"--quad-rel-tol={tol}"]
        ) == 2
        assert "rel_tol must be positive" in capsys.readouterr().err

    def test_manifest_width_quadrature(self, tmp_path):
        # the second run finds the normalizer cached and raises no warning;
        # its manifest must still carry the same diagnostics
        interval_opinion._normalizer_cache.clear()
        argv = ["interval", "--lo", "1e8", "--hi", "1e10", "--w-grid", "0.5:8:9"]
        assert run(argv + ["--out", tmp_path / "a"]) == 0
        assert run(argv + ["--out", tmp_path / "b"]) == 0
        first = read_json(tmp_path / "a" / "manifest.json")
        second = read_json(tmp_path / "b" / "manifest.json")
        assert first["width_quadrature"] == second["width_quadrature"]
        assert first["manifest_digest"] == read_json(tmp_path / "a" / "result.json")[
            "manifest_digest"
        ]
        for scenario in ("H1", "H2"):
            block = first["width_quadrature"][scenario]
            # the packaged hyperprior leans on the shape-axis edge
            assert block["boundary_mass_fraction"] > interval_opinion.BOUNDARY_MASS_LIMIT
            for ladder in ("normalizer", "curve"):
                assert block[f"{ladder}_levels"] >= 1
                assert 0.0 <= block[f"{ladder}_abs_delta_log"] <= 1e-6

    def test_very_wide_widths(self, tmp_path):
        # from w of about 7e5 on the rate integral's regularized upper tails
        # underflow; the densities are tiny but come from finite logs
        assert run(
            ["interval", "--lo", "1e3", "--hi", "1e6", "--w-grid", "1e5:1e7:3",
             "--out", tmp_path]
        ) == 0
        rows = (tmp_path / "width_curve.csv").read_text().splitlines()[2:]
        assert len(rows) == 3
        for row in rows:
            _, d1, d2, _ = (float(v) for v in row.split(","))
            assert math.isfinite(d1) and math.isfinite(d2)

    def test_width_ratio_where_densities_underflow(self, tmp_path):
        # from w of about 5e6 both linear densities underflow to 0.0; the
        # ratio comes from the equal log densities, so it is exactly 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(
                ["interval", "--lo", "1e3", "--hi", "1e6", "--w-grid", "1e5:1e7:3",
                 "--out", tmp_path]
            ) == 0
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)
                   and not str(w.message).startswith("width hyperprior")]
        assert runtime == []
        rows = (tmp_path / "width_curve.csv").read_text().splitlines()[2:]
        values = [[float(v) for v in row.split(",")] for row in rows]
        assert not any(math.isnan(v) for row in values for v in row)
        assert [row[0] for row in values[1:]] == [5.05e6, 1e7]
        for _, d1, d2, lr_w in values[1:]:
            assert d1 == d2 == 0.0
            assert lr_w == 1.0

    def test_quadrature_budget_exhaustion_exit_3(self, tmp_path, capsys):
        code = run(
            ["interval", "--lo", "1e8", "--hi", "1e10", "--out", tmp_path,
             "--quad-rel-tol", "1e-15", "--quad-max-refinements", "1"]
        )
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_width_beyond_rate_integral_range_exit_2(self, tmp_path, capsys):
        # from w of about 7.5e305 the upper limit (q + w) * 60 of the rate
        # integral leaves the range the continued fraction needs
        assert run(
            ["interval", "--lo", "1e8", "--hi", "1e10", "--w-grid", "1e306:3e306:2",
             "--out", tmp_path]
        ) == 2
        assert "beyond which the rate integral leaves the float range" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestTwoExpertCommand:
    def test_default_preset_headline_value(self, tmp_path):
        assert run(["two-expert", "--x", "2,1.4771", "--out", tmp_path]) == 0
        result = read_json(tmp_path / "result.json")
        assert result["lr_estimate"]["lr"] == pytest.approx(4.35, rel=0.05)
        assert result["df_convention"] == "n0"
        assert result["wishart_matrix"] == "rate"

    def test_literal_formula_flags(self, tmp_path):
        assert run(
            ["two-expert", "--x", "2,1.4771", "--df", "n0-1", "--wishart", "scale",
             "--out", tmp_path]
        ) == 0
        result = read_json(tmp_path / "result.json")
        assert result["lr_estimate"]["lr"] == pytest.approx(1.5346, rel=1e-3)

    def test_sweep_output(self, tmp_path):
        assert run(
            ["two-expert", "--x", "2,1.4771", "--sweep", "0,10,100", "--out", tmp_path]
        ) == 0
        lines = (tmp_path / "pair_sweep.csv").read_text().splitlines()
        assert lines[1] == "m,lr_a"
        values = {int(line.split(",")[0]): float(line.split(",")[1]) for line in lines[2:]}
        assert values[100] > values[0]

    def test_validation_csv(self, tmp_path):
        rows = ["scenario,log10_lr_b,log10_lr_c"]
        rows += [f"H1,{3.0 + d},{2.0 + d}" for d in (-1.0, 0.0, 1.0)]
        rows += [f"H2,{-3.0 + d},{-2.0 + d}" for d in (-1.0, 0.0, 1.0)]
        path = tmp_path / "pairs.csv"
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert run(
            ["two-expert", "--x", "2,1.4771", "--validation", path, "--out", out]
        ) == 0
        result = read_json(out / "result.json")
        assert result["lr_estimate"]["lr"] > 4.0

    def test_alt_preset_runs(self, tmp_path):
        assert run(
            ["two-expert", "--x", "2,1.4771", "--prior-preset", "alt",
             "--df", "n0", "--wishart", "scale", "--out", tmp_path]
        ) == 0


class TestReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            ["categorical", "--conclusion", "id", "--samples", 50_000, "--seed", 9],
            ["scalar", "--r", "9", "--grid=-10:10:21"],
            ["coin", "--seq", "HHHHHTTT"],
            ["two-expert", "--x", "2,1.4771", "--sweep", "0,10"],
            ["interval", "--lo", "1e3", "--hi", "1e6", "--w-grid", "0.5:8:9"],
        ],
    )
    @pytest.mark.filterwarnings("ignore:width hyperprior")
    def test_byte_identical_reruns(self, tmp_path, argv):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(argv + ["--out", out_a]) == 0
        assert run(argv + ["--out", out_b]) == 0
        names_a = sorted(p.name for p in out_a.iterdir() if p.name != "manifest.json")
        names_b = sorted(p.name for p in out_b.iterdir() if p.name != "manifest.json")
        assert names_a == names_b
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_manifest_digest_stable_and_embedded(self, tmp_path):
        out = tmp_path / "run"
        assert run(["scalar", "--r", "2", "--out", out]) == 0
        manifest = read_json(out / "manifest.json")
        digest = manifest["manifest_digest"]
        assert read_json(out / "result.json")["manifest_digest"] == digest
        first_line = (out / "lr_curve.csv").read_text().splitlines()[0]
        assert first_line == f"# manifest={digest}"

    def test_manifest_core_fields(self, tmp_path):
        out = tmp_path / "run"
        counts = tmp_path / "c.json"
        counts.write_text(json.dumps(STUDY_JSON))
        assert run(
            ["categorical", "--validation", counts, "--samples", 20_000, "--out", out]
        ) == 0
        manifest = read_json(out / "manifest.json")
        for key in ("command", "seed", "n_samples", "input_digests",
                    "tool_version", "wall_time_s", "parameters"):
            assert key in manifest
        assert "c.json" in manifest["input_digests"]
        assert len(manifest["input_digests"]["c.json"]) == 64


IMPORT_PROBE = """
import sys
from evidential_weight import cli

def scipy_modules():
    return sorted(m for m in ("scipy.stats", "scipy.special") if m in sys.modules)

out = sys.argv[1]
for i, argv in enumerate([
    ["scalar", "--r", "9"],
    ["two-expert", "--x", "2,1.4771", "--sweep", "0,10"],
    ["coin", "--seq", "HHHHHTTT"],
    ["categorical", "--conclusion", "id", "--samples", "2000"],
    ["interval", "--lo", "1e8", "--hi", "1e10", "--w-grid", "0.5:8:3"],
]):
    code = cli.main(argv + ["--out", f"{out}/{i}"])
    print(argv[0], code, ",".join(scipy_modules()))
"""


def test_runtime_imports_no_scipy_stats(tmp_path):
    # a fresh interpreter, so modules that other tests loaded do not count
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", IMPORT_PROBE, str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
    )
    loaded = {}
    for line in proc.stdout.splitlines():
        command, code, modules = line.split(" ")
        assert code == "0", line
        loaded[command] = modules
    assert loaded == {
        "scalar": "", "two-expert": "", "coin": "", "categorical": "",
        "interval": "scipy.special",
    }
