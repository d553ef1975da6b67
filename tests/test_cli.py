"""End-to-end command-line behavior: outputs, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from evidential_weight import categorical, cli, interval_opinion, mc, multi_expert

STUDY_JSON = {
    "H1": {"id": 3663, "inc": 1856, "exc": 450},
    "H2": {"id": 6, "inc": 455, "exc": 3622},
}


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def run(argv) -> int:
    return cli.main([str(a) for a in argv])


def assert_same_lines(written: str, expected: str) -> None:
    """Assert two texts equal, line for line with each line's end, naming
    the first line that differs: an assertion on the whole texts would have
    pytest diff them, which takes minutes on a 10,000-line grid."""
    got, want = written.splitlines(keepends=True), expected.splitlines(keepends=True)
    assert len(got) == len(want), f"{len(got)} lines, expected {len(want)}"
    for i, (line, wanted) in enumerate(zip(got, want)):
        assert line == wanted, f"line {i + 1} differs"


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

    # the output directory cannot be made (its parent is a file), or a
    # file in it cannot be written (result.json is a directory)
    @pytest.mark.parametrize("case", ["create", "write"])
    def test_unwritable_outputs_exit_2(self, tmp_path, case):
        blocker = tmp_path / ("file" if case == "create" else "result.json")
        if case == "create":
            blocker.write_text("")
            out = blocker / "sub"
        else:
            blocker.mkdir()
            out = tmp_path
        proc = subprocess.run(
            [sys.executable, "-m", "evidential_weight.cli", "coin", "--seq", "HT",
             "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
        )
        assert proc.returncode == 2
        assert f"error: cannot write outputs to {out}: " in proc.stderr
        assert "Traceback" not in proc.stderr


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

    def test_reports_past_the_overflow_of_z_squared(self, tmp_path):
        mpmath = pytest.importorskip("mpmath")
        out = tmp_path / "grid"
        assert run(["scalar", "--r", "0", "--grid=0:1e300:2", "--out", out]) == 0
        assert (out / "lr_curve.csv").read_text().splitlines()[-1] == "1e+300,0.0,0.0,1.0"
        priors = {
            "H1": {"mu0": 2.0, "n_mu": 1.0, "tau0": 1.0, "n_tau": 3.0},
            "H2": {"mu0": -2.0, "n_mu": 1.0, "tau0": 4.0, "n_tau": 3.0},
        }
        path = tmp_path / "priors.json"
        path.write_text(json.dumps(priors))
        assert run(["scalar", "--r", "1e300", "--priors", path, "--out", tmp_path]) == 0
        got = read_json(tmp_path / "result.json")["lr_estimate"]["log10_lr"]
        with mpmath.workdps(40):
            def log_density(mu0, n_mu, tau0, n_tau):
                scale2 = (n_mu + 1) / (n_mu * mpmath.mpf(tau0))
                z2 = (mpmath.mpf("1e300") - mu0) ** 2 / scale2
                return (mpmath.loggamma((n_tau + 1) / mpmath.mpf(2))
                        - mpmath.loggamma(n_tau / mpmath.mpf(2))
                        - mpmath.log(n_tau * mpmath.pi * scale2) / 2
                        - (n_tau + 1) / mpmath.mpf(2) * mpmath.log1p(z2 / n_tau))
            want = float((log_density(**priors["H1"]) - log_density(**priors["H2"]))
                         / mpmath.log(10))
        assert got == pytest.approx(want, rel=1e-12)

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
        # a later --sweep replaces the first
        (["--validation", "COUNTS", "--sweep", f"100,{10**30}"], "exceeds the largest study size"),
    ])
    def test_sweep_checked_before_sampling(self, tmp_path, capsys, monkeypatch, extra, message):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the inputs were checked")

        # the main draw, and every draw of the main draw or a sweep
        monkeypatch.setattr(categorical, "sample_rate_pairs", no_sampling)
        monkeypatch.setattr(mc, "rejection_stream", no_sampling)
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps(STUDY_JSON))
        extra = [counts if a == "COUNTS" else a for a in extra]
        out = tmp_path / "out"
        assert run(["categorical", "--sweep", "100,5", *extra, "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # JSON 1e400 parses as inf
    @pytest.mark.parametrize("count", ["2.5", "true", "0.01", "-1", '"3"', "1e400"])
    def test_non_integer_json_count_exit_2(self, tmp_path, capsys, count):
        counts = tmp_path / "counts.json"
        counts.write_text(
            '{"H1": {"id": %s, "inc": 1, "exc": 0}, "H2": {"id": 0, "inc": 1, "exc": 2}}' % count
        )
        out = tmp_path / "out"
        assert run(["categorical", "--validation", counts, "--samples", 1000, "--out", out]) == 2
        err = capsys.readouterr().err
        assert str(counts) in err and "H1.id must be a nonnegative integer" in err
        assert not out.exists()

    def test_integral_float_json_count_reads_as_its_integer(self, tmp_path):
        estimates = []
        for name, n_id in (("float", 2.0), ("int", 2)):
            counts = tmp_path / f"{name}.json"
            counts.write_text(json.dumps({"H1": {"id": n_id, "inc": 1, "exc": 0},
                                          "H2": {"id": 0, "inc": 1, "exc": 2}}))
            out = tmp_path / name
            assert run(["categorical", "--validation", counts, "--samples", 1000, "--out", out]) == 0
            estimates.append(read_json(out / "result.json")["lr_estimate"])
        assert estimates[0] == estimates[1]

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
        grids = [f"density_grid_{c}.csv" for c in ("id", "inc", "exc")]
        study = ["--validation", counts, "--sweep"]
        tables = {"inc": ((4, 0, 0), (2, 0, 0)), "inc-p": ((0, 0, 0), (3, 0, 0)),
                  "inc-q": ((3, 0, 0), (0, 0, 0)), "id-exc": ((0, 20, 0), (0, 30, 0)),
                  "huge": ((1e20, 0, 0), (0, 0, 1e20))}
        paths = {}
        for name, (h1, h2) in tables.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps({scenario: dict(zip(("id", "inc", "exc"), row))
                                               for scenario, row in (("H1", h1), ("H2", h2))}))
        cases = {
            "study": ([*study, "100,1000", "--samples", 20_000], ["sweep.csv"]),
            # three sizes of three chunks each, each drawn on its own pool
            "sweep3": ([*study, "100,500,1000", "--samples", 300_000], ["sweep.csv"]),
            "prior": (["--samples", 20_000], []),  # both proposal factors reflected
            # LR(Inc) from the slice integrals of antithetic pairs
            "inc slice": (["--conclusion", "inc", "--validation", paths["inc"],
                           "--samples", 20_001], []),
            # the same with p reflected, at 0.8% acceptance over 10 chunks,
            # and with q reflected
            "inc slice, p reflected": (["--conclusion", "inc", "--validation", paths["inc-p"],
                                        "--samples", 20_001], []),
            "inc slice, q reflected": (["--conclusion", "inc", "--validation", paths["inc-q"],
                                        "--samples", 20_001], []),
            # LR(ID) from the ID/Exc slice integrals, both factors reflected
            "id-exc slice": (["--conclusion", "id", "--validation", paths["id-exc"],
                              "--samples", 20_001], []),
            # counts this large reach the gamma sampler's log test at d near 1e20
            "huge counts": (["--validation", paths["huge"], "--samples", 1000], []),
        }
        for case, (extra, written) in cases.items():
            outputs = []
            for threads in ("1", "2", "3"):
                monkeypatch.setenv("EVIDENTIAL_WEIGHT_THREADS", threads)
                out = tmp_path / case / threads
                assert run(["categorical", *extra, "--out", out]) == 0
                files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
                manifest = read_json(out / "manifest.json")
                del manifest["wall_time_s"], manifest["command"]
                outputs.append((files, manifest))
            assert sorted(outputs[0][0]) == sorted(["result.json"] + grids + written)
            assert outputs[1] == outputs[0]
            assert outputs[2] == outputs[0]

    # the empty string means the default, as when the variable is unset
    @pytest.mark.parametrize("value, code", [("abc", 2), ("1.5", 2), ("", 0)])
    def test_thread_count_variable(self, tmp_path, capsys, monkeypatch, value, code):
        monkeypatch.setenv("EVIDENTIAL_WEIGHT_THREADS", value)
        out = tmp_path / "out"
        assert run(["categorical", "--samples", 2000, "--out", out]) == code
        if code:
            err = capsys.readouterr().err
            assert f"EVIDENTIAL_WEIGHT_THREADS must be an integer, got {value!r}" in err
        assert out.exists() == (code == 0)

    def test_thread_count_above_bound_exit_2(self, tmp_path, capsys, monkeypatch):
        # checked with the other inputs: no pool of that size is built
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the thread count was checked")

        monkeypatch.setattr(categorical, "sample_rate_pairs", no_sampling)
        monkeypatch.setattr(mc, "rejection_stream", no_sampling)
        monkeypatch.setenv("EVIDENTIAL_WEIGHT_THREADS", "100000")
        assert run(["categorical", "--samples", 2000, "--out", tmp_path]) == 2
        assert f"thread count must be from 1 to {mc.MAX_THREADS}, got 100000" in (
            capsys.readouterr().err)
        assert not (tmp_path / "result.json").exists()

    # no draw is kept, so a huge --samples would not fail an allocation:
    # it would run for days
    @pytest.mark.parametrize("samples", [1, 2, 1_000_000_001, 10_000_000_000_000])
    def test_samples_out_of_range_exit_2(self, tmp_path, capsys, monkeypatch, samples):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before --samples was checked")

        monkeypatch.setattr(categorical, "sample_rate_pairs", no_sampling)
        monkeypatch.setattr(mc, "rejection_stream", no_sampling)
        assert run(["categorical", "--samples", samples, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert f"--samples must be from 3 to 1000000000, got {samples}" in err
        assert not (tmp_path / "result.json").exists()

    @pytest.mark.parametrize("case", ["prior", "study"])
    def test_streamed_outputs_equal_buffered_library_path(self, tmp_path, monkeypatch, case):
        # the command folds each chunk as it arrives; the library keeps
        # every draw in one buffer and summarizes it afterwards.  300,000
        # draws end part way into a chunk.  On the study table the command
        # integrates q_ID out of every row of LR(ID), which then agrees
        # with the library's plain ratio within that ratio's error, at a
        # hundredth of it or less.  On the flat prior every LR is the ratio
        # of the sums of the slice integrals of every proposal of every
        # chunk drawn, taken here from the chunks held in one buffer
        n, rng = 300_000, mc.RngStream(23)
        assert n % mc.CHUNK_SIZE
        counts, extra, sizes = None, [], [100, 1000]
        if case == "study":
            counts = categorical.ConclusionCounts((3663, 1856, 450), (6, 455, 3622))
            path = tmp_path / "counts.json"
            path.write_text(json.dumps(STUDY_JSON))
            extra = ["--validation", path, "--sweep", ",".join(map(str, sizes))]
        samples = categorical.sample_rate_pairs(counts, n, rng)
        grids = {c: cli._grid_rows(*categorical.density_grid(samples, c))
                 for c in categorical.Conclusion}
        if case == "prior":
            # a chunk keeps about 45% of its proposals, so 4 n proposals
            # hold every chunk drawn
            plan = categorical._plan(None)
            chunks = np.vstack([plan.proposal(rng.chunk_generator(i), mc.CHUNK_SIZE)
                                for i in range(-(-n * 4 // mc.CHUNK_SIZE))])
        for threads in ("1", "3"):
            monkeypatch.setenv("EVIDENTIAL_WEIGHT_THREADS", threads)
            for conclusion in categorical.Conclusion:
                out = tmp_path / threads / conclusion.name
                assert run(["categorical", "--conclusion", conclusion.name.lower(),
                            "--samples", n, "--seed", rng.seed, *extra, "--out", out]) == 0
                for c, text in grids.items():
                    written = (out / f"density_grid_{c.name.lower()}.csv").read_text()
                    assert_same_lines(written.split("\n", 2)[2], text)
                est = read_json(out / "result.json")["lr_estimate"]
                alone = categorical.lr_from_samples(samples, conclusion)
                drawn = read_json(out / "manifest.json")["draws"]["main"]["proposals"]
                factor = 1.0
                if case == "prior":
                    taken = chunks[:drawn]
                    num, den, _ = categorical._contributions(
                        taken, categorical._admissible_draws(taken), (conclusion,), plan)
                    alone = categorical._RatioSums(1)
                    alone.add(num, den)
                    alone = alone.estimate(0, n, samples.acceptance_rate, rng.seed)
                else:
                    # the command's SE is over every pair proposed, N, the
                    # library's over the n pairs that hold a kept draw
                    units, pairs = np.unique(samples.unit).size, drawn // 2
                    factor = math.sqrt(pairs * (units - 1) / (units * (pairs - 1)))
                if case == "study" and conclusion is categorical.Conclusion.ID:
                    assert abs(est["lr"] - alone.lr) <= 5 * alone.mc_std_err
                    assert est["mc_std_err"] < 0.01 * alone.mc_std_err
                else:
                    assert est["lr"] == pytest.approx(alone.lr, rel=1e-13, abs=0)
                    assert est["mc_std_err"] == pytest.approx(alone.mc_std_err * factor,
                                                              rel=1e-12, abs=0)
                assert (est["n_samples"], est["acceptance_rate"]) == (
                    alone.n_samples, alone.acceptance_rate)
        if case == "study":
            # the sweep is the library sweep on the same seed
            sweep = categorical.lr_sweep(counts, sizes, n, rng)
            rows = [f"{row.size},{row.conclusion.name.lower()},{row.estimate.lr},"
                    f"{row.estimate.mc_std_err},{sweep.asymptotes[row.conclusion]}\n"
                    for row in sweep.rows]
            assert_same_lines((out / "sweep.csv").read_text().split("\n", 2)[2], "".join(rows))

    def test_manifest_counts_integrated_draws(self, tmp_path):
        # the kept draws of each table and how many had q_ID integrated out:
        # all on the study table, none on the flat prior (a reflected
        # non-mated factor) or at size 100 (no row certified); and how many
        # proposals entered as slice integrals: all on the flat prior, none
        # on a study table; the sampler's proposals and chunks, every chunk
        # drawn in full; and each table's plan, the same on every study
        # table (size 100 plans q_ID integration but certifies no row), and
        # reflection and both slices on the flat prior.  Each study table
        # keeps its 20,000 draws from its first chunk; the flat prior keeps
        # about 59,600 a chunk, so 150,000 take 3
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps(STUDY_JSON))
        n, n_prior = 20_000, 150_000
        study, prior = tmp_path / "study", tmp_path / "prior"
        assert run(["categorical", "--validation", counts, "--sweep", "100,1000",
                    "--samples", n, "--out", study]) == 0
        assert run(["categorical", "--samples", n_prior, "--out", prior]) == 0
        draws = read_json(study / "manifest.json")["draws"]
        study_plan = {"reflected": [False, False], "paired": True, "q_id_integration": True,
                      "uniform_slices": [False, False]}
        assert draws["main"] == {"kept": n, "q_id_integrated": n, "slice_integrated": 0,
                                 "proposals": mc.CHUNK_SIZE, "chunks": 1, "plan": study_plan}
        assert [(d["size"], d["kept"], d["slice_integrated"]) for d in draws["sweep"]] == [
            (100, n, 0), (1000, n, 0)]
        assert draws["sweep"][0]["q_id_integrated"] == 0
        assert 0.99 * n < draws["sweep"][1]["q_id_integrated"] <= n
        assert [(d["proposals"], d["chunks"]) for d in draws["sweep"]] == [(mc.CHUNK_SIZE, 1)] * 2
        assert [d["plan"] for d in draws["sweep"]] == [study_plan] * 2
        assert read_json(prior / "manifest.json")["draws"] == {
            "main": {"kept": n_prior, "q_id_integrated": 0, "slice_integrated": 3 * mc.CHUNK_SIZE,
                     "proposals": 3 * mc.CHUNK_SIZE, "chunks": 3,
                     "plan": {"reflected": [True, True], "paired": False,
                              "q_id_integration": False, "uniform_slices": [True, True]}}}

    def test_memory_does_not_grow_with_samples(self, tmp_path, monkeypatch):
        # numpy reports its buffers to tracemalloc; one buffer of the
        # draws would add 48 bytes a draw
        monkeypatch.setenv("EVIDENTIAL_WEIGHT_THREADS", "2")
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps(STUDY_JSON))
        peaks = []
        for n in (300_000, 1_200_000):
            tracemalloc.start()
            try:
                assert run(["categorical", "--validation", counts, "--samples", n,
                            "--out", tmp_path / str(n)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.25 * 48 * (1_200_000 - 300_000)

    def test_grid_rows_format_each_value_as_its_float(self):
        # each prefix and each distinct density is formatted once, and the
        # text joined once; it must be that of formatting every cell on its
        # own and joining each row with commas, on the flat prior's grids
        # and the study table's
        study = categorical.ConclusionCounts((3663, 1856, 450), (6, 455, 3622))
        for counts in (None, study):
            samples = categorical.sample_rate_pairs(counts, 5_000, mc.RngStream(12))
            for conclusion in categorical.Conclusion:
                centers, grid = categorical.density_grid(samples, conclusion)
                grid[0, :3] = [1e-300, 2.5e-17, 123456789.125]
                expected = [(str(p), str(q), str(d))
                            for p, row in zip(centers.tolist(), grid.tolist())
                            for q, d in zip(centers.tolist(), row)]
                text = cli._grid_rows(centers, grid)
                assert text == "".join(",".join(row) + "\n" for row in expected)


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

    def test_width_factor_beyond_float_range_saturates(self, tmp_path):
        # lr_w near 10^309.05 times lr_m near 0.009: the LR, 10^307.0017,
        # is a float, and lr_w saturates to inf as the curves' LRs do
        path = tmp_path / "v.csv"
        path.write_text("scenario,log10_lo,log10_hi\n" + "H2,47.5,52.5\n" * 1000)
        out = tmp_path / "out"
        assert run(["interval", "--lo", "9.999967763860608e+49", "--hi", "1.000003223624331e+50",
                    "--validation", path, "--out", out]) == 0
        result = read_json(out / "result.json")
        assert result["lr_w"] == math.inf
        assert result["lr_estimate"]["log10_lr"] == pytest.approx(307.00168498238855, rel=1e-12)

    @pytest.mark.parametrize("grid", ["0:1:3", "-1:1:3"])
    def test_nonpositive_width_grid_checked_before_computing(
        self, tmp_path, capsys, monkeypatch, grid
    ):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("computed before the inputs were checked")

        monkeypatch.setattr(interval_opinion, "lr_for_interval", no_quadrature)
        out = tmp_path / "out"
        assert run(["interval", "--lo", "1", "--hi", "2", f"--w-grid={grid}", "--out", out]) == 2
        assert "--w-grid widths must be positive" in capsys.readouterr().err
        assert not out.exists()

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

    def test_report_past_the_overflow_of_z_squared(self, tmp_path):
        # the presets are symmetric, so the far report is equally unlikely
        assert run(["two-expert", "--x", "1e300,0", "--out", tmp_path]) == 0
        assert read_json(tmp_path / "result.json")["lr_estimate"]["log10_lr"] == 0.0

    @pytest.mark.parametrize("x", ["1e308,1e308", "1.7e308,-1.7e308"])
    def test_report_whose_whitening_overflows(self, tmp_path, x):
        # the whitened report overflows inside numpy's solve, which raises
        # no float error; it used to reach the LR as nan and exit 2
        assert run(["two-expert", "--x", x, "--out", tmp_path]) == 0
        assert read_json(tmp_path / "result.json")["lr_estimate"]["log10_lr"] == 0.0

    def test_negative_sweep_checked_before_computing(self, tmp_path, capsys, monkeypatch):
        def no_lr(*args, **kwargs):
            raise AssertionError("computed before the inputs were checked")

        monkeypatch.setattr(multi_expert, "lr_for_pair", no_lr)
        out = tmp_path / "out"
        assert run(["two-expert", "--x", "2,1", "--sweep", "0,10,-1", "--out", out]) == 2
        assert "--sweep sizes must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_alt_preset_runs(self, tmp_path):
        assert run(
            ["two-expert", "--x", "2,1.4771", "--prior-preset", "alt",
             "--df", "n0", "--wishart", "scale", "--out", tmp_path]
        ) == 0


def pair_priors(lambda0_h1: list, **h1) -> dict:
    """The default preset's normal-Wishart priors, with H1's matrix and ``h1`` replaced."""
    h2 = {"mu0": [-2.0, -4.0], "k0": 2.0, "lambda0": [0.1, -0.08, -0.08, 0.1], "n0": 2.0}
    return {"H1": dict(h2, mu0=[5.0, 5.0], lambda0=lambda0_h1, **h1), "H2": h2}


#: Inputs at the edge of the float range: (argv, {flag: file text}, exit
#: code, log10 LR of a result, from mpmath at 50 digits).  Each code is the
#: one these inputs had while the two commands ran under numpy's float
#: guard, where the first four failed as "overflow in subtract", "overflow
#: in square", "overflow in matmul" and an LR beyond the float range, and
#: the last four of the exit-3 inputs as an overflow in a multiply.
FLOAT_EDGE_CASES = [
    (["scalar", "--r", "1.7e308"],
     {"--priors": json.dumps({"H1": {"mu0": -1.7e308, "n_mu": 1.0, "tau0": 0.01, "n_tau": 1.0},
                              "H2": {"mu0": -5.0, "n_mu": 1.0, "tau0": 0.01, "n_tau": 1.0}})},
     3, None),
    (["scalar", "--r", "1"],
     {"--validation": "scenario,log10_lr\nH1,1.7e308\nH1,-1.7e308\n"}, 3, None),
    (["two-expert", "--x", "2,1"],
     {"--validation": "scenario,log10_lr_b,log10_lr_c\nH1,1.7e308,-1.7e308\n"
                      "H1,-1.7e308,1.7e308\n"}, 3, None),
    (["two-expert", "--x", "2,1"], {"--priors": json.dumps(pair_priors([1, 0, 0, 1e-300]))},
     3, -447.01476391013244),
    (["scalar", "--r", "5", "--grid=0:1:10000000000000"], {}, 3, None),
    (["scalar", "--r", "5", "--grid=5.887008865134391:1.7976931348623157e+308:29"], {}, 3, None),
    (["scalar", "--r", "1e300"],
     {"--priors": json.dumps({"H1": {"mu0": 5.0, "n_mu": 1.0, "tau0": 0.01, "n_tau": 3e306},
                              "H2": {"mu0": -5.0, "n_mu": 1.0, "tau0": 0.01, "n_tau": 1.0}})},
     3, None),
    (["two-expert", "--x", "2,1", "--wishart", "scale"],
     {"--validation": "scenario,log10_lr_b,log10_lr_c\nH1,1e200,0\n"}, 3, None),
    (["two-expert", "--x", "2,1"],
     {"--priors": json.dumps(pair_priors([1e300, 0, 0, 1e300], k0=1e-300))}, 3, None),
    (["scalar", "--r", "0", "--grid=0:1e300:2"], {}, 0, 0.0),
    (["two-expert", "--x", "1e300,0"], {}, 0, 0.0),
    (["two-expert", "--x", "1.7e308,-1.7e308"], {}, 0, 0.0),
    (["two-expert", "--x", "2,1", "--wishart", "rate"],
     {"--priors": json.dumps(pair_priors([1e300, 0, 0, 1e300]))}, 0, -295.5607664542599),
    (["two-expert", "--x", "2,1", "--wishart", "scale"],
     {"--priors": json.dumps(pair_priors([1e300, 0, 0, 1e300]))}, 0, -300.3919020536747),
    (["two-expert", "--x", "2,1", "--wishart", "scale"],
     {"--priors": json.dumps(pair_priors([1, 0, 0, 1e-300]))}, 0, -149.7543845284259),
]


@pytest.mark.parametrize("argv, files, code, log10_lr", FLOAT_EDGE_CASES)
def test_inputs_at_the_edge_of_the_float_range(tmp_path, capsys, argv, files, code, log10_lr):
    argv = list(argv)
    for i, (flag, text) in enumerate(files.items()):
        path = tmp_path / f"in{i}{'.json' if flag == '--priors' else '.csv'}"
        path.write_text(text)
        argv += [flag, path]
    out = tmp_path / "out"
    assert run(argv + ["--out", out]) == code
    err = capsys.readouterr().err
    if code == 3:
        assert err.startswith("numerical failure: ") and not out.exists()
        if log10_lr is not None:
            assert f"log10 LR = {log10_lr:.2f}" in err
    else:
        got = read_json(out / "result.json")["lr_estimate"]["log10_lr"]
        assert got == pytest.approx(log10_lr, rel=1e-12)


def test_failure_independent_of_thread_count(tmp_path, capsys, monkeypatch):
    # counts of 1e308 overflow the sum of each factor's gammas in a
    # worker's proposal; the float guard must reach the sampler's worker
    # threads as well as the calling thread, where a pool thread used to
    # warn and run on
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"H1": {"id": 1e308, "inc": 1e308, "exc": 1e308},
                                  "H2": {"id": 1e308, "inc": 1e308, "exc": 1e308}}))
    errors = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("EVIDENTIAL_WEIGHT_THREADS", threads)
        out = tmp_path / threads
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["categorical", "--validation", counts, "--samples", 1000, "--out", out])
        assert code == 3 and not out.exists()
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("numerical failure: ")
    assert "overflow encountered in add" in errors[0]
    assert errors[1] == errors[0] and errors[2] == errors[0]


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

if sys.argv[2] == "blocked":
    class NoScipy:
        # stands in for an install without scipy: any scipy import fails
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"no module named {name!r} (blocked)")
            return None

    sys.meta_path.insert(0, NoScipy())


def report(step, code=0):
    # the package's submodules, numpy, the worker pool's modules and any
    # scipy module loaded so far
    loaded = sorted(m for m in sys.modules if m.startswith(("evidential_weight.", "scipy."))
                    or m in ("numpy", "scipy", "concurrent.futures", "logging"))
    print(step, code, ",".join(loaded))


import evidential_weight
report("import")
from evidential_weight import cli
cli.build_parser()
report("parser")

out = sys.argv[1]
commands = [
    ["scalar", "--r", "9"],
    ["two-expert", "--x", "2,1.4771", "--sweep", "0,10"],
    ["coin", "--seq", "HHHHHTTT"],
    ["categorical", "--conclusion", "id", "--samples", "2000"],
    ["interval", "--lo", "1e8", "--hi", "1e10", "--w-grid", "0.5:8:3"],
]
for i in map(int, sys.argv[3].split(",")):
    report(commands[i][0], cli.main(commands[i] + ["--out", f"{out}/{i}"]))
"""
COMMANDS = ["scalar", "two-expert", "coin", "categorical", "interval"]


def run_import_probe(out: Path, mode: str, commands=range(len(COMMANDS))) -> dict:
    """Each step's loaded modules (see ``report``) after the package import,
    after the parser is built, and after each of ``commands`` has run."""
    # a fresh interpreter, so modules that other tests loaded do not count
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", IMPORT_PROBE, str(out), mode,
         ",".join(map(str, commands))],
        capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
    )
    loaded = {}
    for line in proc.stdout.splitlines():
        step, code, modules = line.split(" ")
        assert code == "0", line
        loaded[step] = set(modules.split(",")) - {""}
    return loaded


def test_runtime_imports_no_scipy(tmp_path):
    loaded = run_import_probe(tmp_path, "normal")
    assert list(loaded) == ["import", "parser"] + COMMANDS
    for step, modules in loaded.items():
        assert not any(m == "scipy" or m.startswith("scipy.") for m in modules), step


def test_each_command_imports_only_what_it_runs(tmp_path):
    ew = "evidential_weight."
    parser = {ew + "cli", ew + "core", ew + "errors"}
    for i, command in enumerate(COMMANDS):
        loaded = run_import_probe(tmp_path / command, "normal", [i])
        assert loaded["import"] == set()
        assert loaded["parser"] == parser
        ran = loaded[command]
        if command == "coin":
            assert ran == parser | {ew + "coin_oracle"}
        if command in ("scalar", "two-expert"):
            assert not ran & {ew + "mc", ew + "categorical", ew + "interval_opinion", "numpy"}
        if command == "interval":
            assert not ran & {ew + "categorical", ew + "multi_expert", ew + "coin_oracle"}
        if command != "categorical":
            # only a pool of sampling threads needs them
            assert not ran & {"concurrent.futures", "logging"}


def test_parser_choices_and_defaults_match_multi_expert():
    # the parser spells them out, so that building it imports no opinion module
    from evidential_weight import multi_expert

    commands = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
    actions = {action.dest: action for action in commands.choices["two-expert"]._actions}
    assert actions["prior_preset"].choices == sorted(multi_expert.PRIOR_PRESETS)
    assert actions["prior_preset"].default == "default"
    assert actions["df"].default == multi_expert.DEFAULT_DF_CONVENTION
    assert actions["wishart"].default == multi_expert.DEFAULT_WISHART_MATRIX


def test_every_command_runs_without_scipy(tmp_path):
    normal = run_import_probe(tmp_path / "normal", "normal")
    blocked = run_import_probe(tmp_path / "blocked", "blocked")
    assert list(blocked) == list(normal)
    for i in range(len(COMMANDS)):
        assert (tmp_path / "blocked" / str(i) / "result.json").read_bytes() == (
            tmp_path / "normal" / str(i) / "result.json"
        ).read_bytes()
