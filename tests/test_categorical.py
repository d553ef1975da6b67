"""Categorical-conclusion module: constraints, LRs, sweep, and grids."""

import dataclasses
import itertools
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from evidential_weight import categorical as cat
from evidential_weight import mc
from evidential_weight.core import LrEstimate
from evidential_weight.errors import ConstraintIntractableError, DomainError, InputFormatError
from conftest import STUDY_COUNTS
from mc_oracles import plain_rate_pairs, slice_integrals

ID, INC, EXC = cat.Conclusion.ID, cat.Conclusion.INC, cat.Conclusion.EXC


def mean_and_se(column: np.ndarray) -> tuple[float, float]:
    return float(column.mean()), float(column.std(ddof=1) / math.sqrt(column.size))


class TestTypes:
    def test_rate_pair_rejects_inadmissible(self):
        flat = np.full((1, 3), 1 / 3)
        assert not cat.admissible_mask(flat, flat)[0]

    def test_rate_pair_accepts_discriminating_rates(self):
        mated = np.array([[0.7, 0.2, 0.1]])
        nonmated = np.array([[0.05, 0.15, 0.8]])
        assert cat.admissible_mask(mated, nonmated)[0]

    def test_counts_validation(self):
        with pytest.raises(DomainError):
            cat.ConclusionCounts((1, 2), (0, 0, 0))
        with pytest.raises(DomainError):
            cat.ConclusionCounts((1, 2, -1), (0, 0, 0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf, 0.5, False])
    def test_non_count_rejected(self, bad):
        with pytest.raises(DomainError, match="h1 count must be a nonnegative integer"):
            cat.ConclusionCounts((bad, 0, 0), (0, 0, 0))

    def test_counts_stored_as_int(self):
        counts = cat.ConclusionCounts((np.int64(3), 2.0, 1), (0, 0, 0))
        assert counts.h1 == (3, 2, 1) and all(type(v) is int for v in counts.h1)

    def test_counts_from_json(self):
        counts = cat.ConclusionCounts.from_json_obj(
            {"H1": {"id": 3663, "inc": 1856, "exc": 450},
             "H2": {"id": 6, "inc": 455, "exc": 3622}}
        )
        assert counts.h1 == (3663, 1856, 450)
        assert counts.h2 == (6, 455, 3622)

    def test_counts_from_csv_rows(self):
        rows = ["scenario,conclusion", "H1,id", "H1,inc", "H2,exc", "H1,id"]
        counts = cat.ConclusionCounts.from_csv_rows(rows)
        assert counts.h1 == (2, 1, 0)
        assert counts.h2 == (0, 0, 1)

    def test_counts_csv_error_cites_line(self):
        with pytest.raises(InputFormatError, match="line 3"):
            cat.ConclusionCounts.from_csv_rows(["H1,id", "H1,inc", "H1,maybe"])


class TestPriorSampling:
    def test_all_draws_satisfy_constraints(self, prior_samples):
        mask = cat.admissible_mask(prior_samples.p, prior_samples.q)
        assert mask.all()

    def test_prior_id_means(self, prior_samples):
        # marginal means of the truncated uniform prior: 8/15 mated, 2/15 non-mated
        mp, se_p = mean_and_se(prior_samples.p[:, 0])
        mq, se_q = mean_and_se(prior_samples.q[:, 0])
        assert abs(mp - 8 / 15) < 4 * se_p
        assert abs(mq - 2 / 15) < 4 * se_q

    def test_prior_lr_ordering(self, prior_samples):
        lrs = {c: cat.lr_from_samples(prior_samples, c).lr for c in cat.Conclusion}
        assert lrs[ID] > lrs[INC] > lrs[EXC]
        assert lrs[ID] > 1 > lrs[EXC]

    def test_prior_acceptance_rate_regression(self, prior_samples):
        # untruncated Dirichlet pairs satisfy the six constraints ~11.4% of the time
        assert 0.10 < prior_samples.acceptance_rate < 0.13

    def test_prior_acceptance_rate_is_region_mass(self, prior_samples):
        # P(A) under the flat pair, in closed form (see test_flat_prior_closed_forms);
        # both factors are reflected, so a quarter of the proposal mass is
        # drawn and the raw rate is 4 P(A)
        mass, fold = FLAT_PRIOR_MASS, 0.25
        raw = prior_samples.acceptance_rate / fold
        n_proposed = len(prior_samples) / raw  # at most the number drawn: SE errs high
        se = fold * math.sqrt(raw * (1 - raw) / n_proposed)
        assert abs(prior_samples.acceptance_rate - mass) < 5 * se

    def test_every_sample_is_admissible(self, prior_samples):
        assert cat.admissible_mask(prior_samples.p, prior_samples.q).all()


#: Count tables by the factors they reflect, with the proposal mass drawn.
REFLECTION_CASES = {
    "flat prior": (None, 0.25),
    "p symmetric": (cat.ConclusionCounts((5, 3, 5), (1, 4, 9)), 0.5),
    "q symmetric": (cat.ConclusionCounts((2, 7, 1), (4, 4, 4)), 0.5),
    "neither": (cat.ConclusionCounts((10, 5, 3), (1, 4, 9)), 1.0),
}


#: The estimator layers of each count table the tests and CI draw from, one
#: row per combination, as the README's categorical conventions map them:
#: the tables, then reflected (p, q), paired, mass, whether q_ID is
#: integrated, and the uniform slices (ID/Exc, Inc)
PLAN_MAP = {
    "flat prior": ([None], (True, True), False, 0.25, False, (True, True)),
    "study": ([STUDY_COUNTS, *(cat.scaled_counts(STUDY_COUNTS, size) for size in (100, 560, 1000)),
               cat.ConclusionCounts((10**20, 0, 0), (0, 0, 10**20))],
              (False, False), True, 1.0, True, (False, False)),
    "p symmetric": ([cat.ConclusionCounts((5, 3, 5), (1, 4, 9))],
                    (True, False), True, 0.5, True, (False, False)),
    "Inc, neither reflected": ([cat.ConclusionCounts((4, 0, 0), (2, 0, 0))],
                               (False, False), True, 1.0, True, (False, True)),
    "Inc, p reflected": ([cat.ConclusionCounts((0, 0, 0), (3, 0, 0))],
                         (True, False), True, 0.5, True, (False, True)),
    "Inc, q reflected": ([cat.ConclusionCounts((3, 0, 0), (0, 0, 0))],
                         (False, True), True, 0.5, False, (False, True)),
    "ID and Exc": ([cat.ConclusionCounts((0, 20, 0), (0, 30, 0))],
                   (True, True), False, 0.25, False, (True, False)),
}


@pytest.mark.parametrize("row", sorted(PLAN_MAP))
def test_plan_map(row):
    tables, reflected, paired, mass, q_id, slices = PLAN_MAP[row]
    for counts in tables:
        plan = cat._plan(counts)
        assert (plan.reflected, plan.paired, plan.mass, plan.q_id is not None, plan.slices) == (
            reflected, paired, mass, q_id, slices), counts


class TestReflectedProposal:
    @pytest.mark.parametrize("case", sorted(REFLECTION_CASES))
    def test_matches_plain_rejection(self, case):
        counts, fold = REFLECTION_CASES[case]
        n = 200_000
        samples = cat.sample_rate_pairs(counts, n, mc.RngStream(91))
        plain, plain_proposed = plain_rate_pairs(counts, n, mc.RngStream(92))
        assert cat.admissible_mask(samples.p, samples.q).all()
        for ours, theirs in ((samples.p, plain.p), (samples.q, plain.q)):
            for j in range(3):
                m1, se1 = mean_and_se(ours[:, j])
                m2, se2 = mean_and_se(theirs[:, j])
                assert abs(m1 - m2) < 5 * math.hypot(se1, se2)
        for conclusion in cat.Conclusion:
            ours = cat.lr_from_samples(samples, conclusion)
            theirs = cat.lr_from_samples(plain, conclusion)
            assert abs(ours.lr - theirs.lr) < 5 * math.hypot(ours.mc_std_err, theirs.mc_std_err)
        # both rates estimate the prior mass of the region
        raw = samples.acceptance_rate / fold
        var_ours = fold**2 * raw * (1 - raw) * raw / n  # from n / raw <= proposals drawn
        rate = plain.acceptance_rate
        var_plain = rate * (1 - rate) / plain_proposed
        assert abs(samples.acceptance_rate - rate) < 5 * math.sqrt(var_ours + var_plain)

    @pytest.mark.parametrize("case", ["flat prior", "p symmetric", "q symmetric"])
    def test_uncoupled_columns_come_from_numpy_gamma(self, case):
        # the proposal rebuilt from one generator per chunk, column by
        # column: each reflected factor's gammas from numpy's standard_gamma,
        # the others from _gamma_pairs; on the flat prior the oracle is
        # standard_exponential, so that its stream stays the same
        counts, _ = REFLECTION_CASES[case]
        folds = {"flat prior": [(0, 2), (5, 3)], "p symmetric": [(0, 2)],
                 "q symmetric": [(5, 3)]}[case]
        alphas = np.concatenate((counts or cat.ConclusionCounts((0, 0, 0), (0, 0, 0))).alphas())
        proposal = cat._plan(counts).proposal
        n, stream = mc.CHUNK_SIZE, mc.RngStream(94)
        for chunk in (0, 2):
            gen = stream.chunk_generator(chunk)
            gammas = np.empty((n, 6), order="F")
            for j, alpha in enumerate(alphas.tolist()):
                if all(j // 3 != hi // 3 for hi, _ in folds):
                    cat._gamma_pairs(gen, alpha, gammas[:, j])
                elif counts is None:
                    gammas[:, j] = gen.standard_exponential(n)
                else:
                    gammas[:, j] = gen.standard_gamma(alpha, n)
            for first in (0, 3):
                total = gammas[:, first] + gammas[:, first + 1]
                total += gammas[:, first + 2]
                gammas[:, first:first + 3] /= total[:, None]
            for hi, lo in folds:
                gammas[:, hi], gammas[:, lo] = (np.maximum(gammas[:, hi], gammas[:, lo]),
                                                np.minimum(gammas[:, hi], gammas[:, lo]))
            draws = proposal(stream.chunk_generator(chunk), n)
            assert np.array_equal(draws, gammas)

    def test_floor_applies_to_region_mass(self, monkeypatch):
        # the flat prior's raw rate is about 0.455 but its region mass 0.114
        monkeypatch.setattr(mc, "INTRACTABLE_PROBE", mc.CHUNK_SIZE)
        monkeypatch.setattr(mc, "INTRACTABLE_FLOOR", 0.2)
        with pytest.raises(ConstraintIntractableError) as err:
            cat.sample_rate_pairs(None, 1_000_000, mc.RngStream(93))
        assert err.value.n_proposed == mc.CHUNK_SIZE
        assert 0.10 < err.value.acceptance_rate < 0.13
        assert "below floor 0.2 " in str(err.value)
        monkeypatch.setattr(mc, "INTRACTABLE_FLOOR", 0.1)
        assert len(cat.sample_rate_pairs(None, 100_000, mc.RngStream(93))) == 100_000


class TestPosteriorSampling:
    def test_posterior_concentration(self):
        counts = cat.ConclusionCounts((10**9, 0, 0), (0, 0, 10**9))
        samples = cat.sample_rate_pairs(counts, 50_000, mc.RngStream(21))
        assert abs(samples.p[:, 0].mean() - 1.0) < 1e-6
        assert abs(samples.q[:, 2].mean() - 1.0) < 1e-6

    def test_study_acceptance_rate_near_one(self, study_samples):
        assert study_samples.acceptance_rate > 0.99

    def test_study_lr_id(self, study_samples):
        est = cat.lr_from_samples(study_samples, ID)
        assert est.lr == pytest.approx(358.0, rel=0.03)

    def test_relabeling_symmetry_for_inconclusive(self, study_counts):
        # swapping scenarios and reversing the scale mirrors the model,
        # so the two Inc LRs must be reciprocal up to Monte Carlo error
        mirrored = cat.ConclusionCounts(study_counts.h2[::-1], study_counts.h1[::-1])
        n = 200_000
        fwd = cat.lr_for_conclusion(INC, study_counts, n, mc.RngStream(31))
        rev = cat.lr_for_conclusion(INC, mirrored, n, mc.RngStream(32))
        product = fwd.lr * rev.lr
        se = product * math.hypot(fwd.mc_std_err / fwd.lr, rev.mc_std_err / rev.lr)
        assert abs(product - 1.0) < 3 * se

    def test_monotone_information(self, study_counts):
        # scaling all counts up cannot reduce |log10 LR(ID)| (up to MC error)
        n = 200_000
        values = []
        for factor, seed in ((1, 41), (2, 42), (4, 43)):
            scaled = cat.ConclusionCounts(
                tuple(v * factor for v in study_counts.h1),
                tuple(v * factor for v in study_counts.h2),
            )
            est = cat.lr_for_conclusion(ID, scaled, n, mc.RngStream(seed))
            rel_se = est.mc_std_err / est.lr
            values.append((abs(est.log10_lr), rel_se / math.log(10)))
        for (lo, se_lo), (hi, se_hi) in zip(values, values[1:]):
            assert hi >= lo - 2 * math.hypot(se_lo, se_hi)

    def test_conjugacy_sequential_vs_pooled_ks(self):
        a = cat.ConclusionCounts((10, 5, 3), (1, 4, 9))
        b = cat.ConclusionCounts((7, 2, 1), (0, 3, 6))
        n = 100_000
        summed = cat.ConclusionCounts(
            tuple(x + y for x, y in zip(a.h1, b.h1)), tuple(x + y for x, y in zip(a.h2, b.h2))
        )
        sequential = cat.sample_rate_pairs(summed, n, mc.RngStream(51))
        pooled = cat.sample_rate_pairs(
            cat.ConclusionCounts((17, 7, 4), (1, 7, 15)), n, mc.RngStream(52)
        )
        result = stats.ks_2samp(sequential.p[:, 0], pooled.p[:, 0])
        assert result.pvalue > 1e-3

    def test_zero_counts_equal_none(self):
        explicit = cat.sample_rate_pairs(
            cat.ConclusionCounts((0, 0, 0), (0, 0, 0)), 1000, mc.RngStream(61)
        )
        implicit = cat.sample_rate_pairs(None, 1000, mc.RngStream(61))
        assert np.array_equal(explicit.p, implicit.p)


class TestLrEstimates:
    def test_prior_lr_id_near_four(self, prior_samples):
        est = cat.lr_from_samples(prior_samples, ID)
        assert est.lr == pytest.approx(4.0, rel=0.03)
        assert est.mc_std_err is not None and est.mc_std_err < 0.02
        assert est.n_samples == 1_000_000

    def test_string_conclusion_accepted(self):
        est = cat.lr_for_conclusion("id", None, 10_000, mc.RngStream(71))
        assert est.lr > 1.0

    @pytest.mark.parametrize("which", ["prior", "study"])
    def test_one_pass_moments_match_numpy(self, which, request):
        samples = request.getfixturevalue(f"{which}_samples")
        for conclusion in cat.Conclusion:
            est = cat.lr_from_samples(samples, conclusion)
            # the estimator as written with np.var and np.cov, over the
            # units: each antithetic pair's kept draws, summed
            starts = np.flatnonzero(np.diff(samples.unit, prepend=-1))
            pc, qc = (np.add.reduceat(col, starts) for col in samples.rate_columns(conclusion))
            n = starts.size
            assert len(samples) / 2 <= n <= len(samples) and est.n_samples == len(samples)
            mp, mq = float(pc.mean()), float(qc.mean())
            log10_lr = math.log10(mp) - math.log10(mq)
            var_mp = float(pc.var(ddof=1)) / n
            var_mq = float(qc.var(ddof=1)) / n
            cov = float(np.cov(pc, qc, ddof=1)[0, 1]) / n
            lr = mp / mq
            rel_var = var_mp / mp**2 + var_mq / mq**2 - 2.0 * cov / (mp * mq)
            assert est.log10_lr == log10_lr
            assert est.lr == LrEstimate(log10_lr).lr
            assert est.mc_std_err == pytest.approx(lr * math.sqrt(rel_var), rel=1e-12, abs=0)

    def test_single_draw_has_no_standard_error(self):
        samples = cat.sample_rate_pairs(None, 1, mc.RngStream(3))
        with pytest.raises(DomainError):
            cat.lr_from_samples(samples, ID)

    def test_delta_method_se_matches_batch_spread(self, study_counts):
        # the delta-method SE should predict the spread of independent replicates
        reps = [
            cat.lr_for_conclusion(ID, study_counts, 20_000, mc.RngStream(100 + i)).lr
            for i in range(8)
        ]
        est = cat.lr_for_conclusion(ID, study_counts, 20_000, mc.RngStream(99))
        spread = np.std(reps, ddof=1)
        assert 0.2 * spread < est.mc_std_err < 5.0 * spread

    @pytest.mark.parametrize("table", ["study", "size 100", "flat prior"])
    def test_standard_error_matches_spread_over_seeds(self, table, study_counts, monkeypatch):
        # the SE over antithetic units must predict the spread of the LR
        # over independent seeds; a per-draw SE would miss by a factor of
        # about 3 (ID) to 30 (Inc, Exc) on the study table
        counts = {"study": study_counts, "size 100": cat.scaled_counts(study_counts, 100),
                  "flat prior": None}[table]
        monkeypatch.setenv("EVIDENTIAL_WEIGHT_THREADS", "1")  # no run draws a spare chunk
        runs = [cat.summarize_draws(counts, 20_000, mc.RngStream(2000 + i)) for i in range(100)]
        for conclusion in cat.Conclusion:
            estimates = [run.estimate(conclusion) for run in runs]
            spread = np.std([est.lr for est in estimates], ddof=1)
            ratio = spread / np.median([est.mc_std_err for est in estimates])
            assert 0.7 <= ratio <= 1.4, (conclusion, ratio)

    def test_units_are_the_kept_draws_of_one_pair(self, study_samples, prior_samples):
        # the study table's factors are antithetic, so a unit holds one or two
        # draws; the flat prior reflects both factors, so each draw is its own
        rows_per_unit = np.unique(study_samples.unit, return_counts=True)[1]
        assert np.all(np.diff(study_samples.unit) >= 0)
        assert set(rows_per_unit) <= {1, 2} and rows_per_unit.sum() == len(study_samples)
        assert len(rows_per_unit) < len(study_samples)
        assert np.all(np.diff(prior_samples.unit) > 0)

    def test_units_must_ascend_row_by_row(self):
        p = np.full((3, 3), 1 / 3)
        for unit in (np.array([0, 2, 1]), np.array([0, 1])):
            with pytest.raises(DomainError, match="unit must hold one ascending entry per row"):
                cat.RatePairSamples(p, p.copy(), acceptance_rate=1.0, unit=unit)

    def test_three_draws_give_an_estimate(self, study_counts):
        # at acceptance 1 two draws are one pair, too few for an SE; three span two
        est = cat.lr_for_conclusion(ID, study_counts, 3, mc.RngStream(5))
        assert est.n_samples == 3 and est.mc_std_err > 0
        with pytest.raises(DomainError, match="at least 3 draws"):
            cat.lr_for_conclusion(ID, study_counts, 2, mc.RngStream(5))
        samples = cat.sample_rate_pairs(study_counts, 2, mc.RngStream(5))
        with pytest.raises(DomainError, match="at least 2 antithetic pairs, got 1"):
            cat.lr_from_samples(samples, ID)


class _FirstNormalsRejected:
    """A generator whose first ``standard_normal`` call returns -1e4, which
    the Marsaglia-Tsang test rejects on both signs, so that every variate
    of a block is redrawn; it counts the calls to ``standard_gamma``."""

    def __init__(self, gen):
        self.gen = gen
        self.normal_calls = self.gamma_calls = 0

    def standard_normal(self, size):
        self.normal_calls += 1
        return np.full(size, -1e4) if self.normal_calls == 1 else self.gen.standard_normal(size)

    def standard_gamma(self, *args, **kwargs):
        self.gamma_calls += 1
        return self.gen.standard_gamma(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.gen, name)


class TestGammaPairs:
    ALPHAS = [1.0, 1.5, 7.0, 451.0, 3664.0, 3.6e5]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_each_partner_is_gamma(self, alpha):
        out = np.empty(mc.CHUNK_SIZE)
        cat._gamma_pairs(mc.RngStream(int(alpha * 10)).generator(), alpha, out)
        first, second = out[0::2], out[1::2]
        for half in (first, second):
            assert stats.kstest(half, stats.gamma(alpha).cdf).pvalue > 1e-4
        assert np.corrcoef(first, second)[0, 1] < -0.5

    @pytest.mark.parametrize("alpha", ALPHAS[1:])
    def test_rejected_variates_are_redrawn_from_the_gamma(self, alpha):
        out = np.empty(cat._BLOCK_ROWS)  # one block: its normals are all rejected
        gen = _FirstNormalsRejected(mc.RngStream(int(alpha * 10) + 1).generator())
        cat._gamma_pairs(gen, alpha, out)
        # one block of normals, then every rejected variate in one call
        assert (gen.normal_calls, gen.gamma_calls) == (1, 1)
        first, second = out[0::2], out[1::2]
        for half in (first, second):
            assert stats.kstest(half, stats.gamma(alpha).cdf).pvalue > 1e-4
        # redrawn partners are independent
        assert abs(np.corrcoef(first, second)[0, 1]) < 0.03

    @pytest.mark.parametrize("alpha", [1.01, 1.5, 2.0, 7.0, 451.0, 3664.0, 3.6e5, 1e12, 1e20])
    def test_squeeze_never_passes_a_rejected_variate(self, alpha):
        # every uniform the squeeze passes, a multiple of 2^-53 below its
        # bound, passes the exact test u < exp(3 d L(c x)), taken in mpmath
        # at 50 digits with c and d the sampler's floats; where 1 + c x <= 0
        # the exact test rejects, and the bound must be at most 0.  x runs
        # over both signs from where the bound is within rounding of 1 to
        # c |x| = 1.5, past the cut at 1/2 to Marsaglia and Tsang's squeeze
        import mpmath

        mp = mpmath.mp.clone()
        mp.dps = 50
        d = alpha - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        near = (54.0 * d * np.logspace(-18.0, 0.0, 200)) ** 0.25
        x = np.concatenate([near, np.linspace(0.0, 1.5, 301)[1:] / c])
        x = np.concatenate([x, -x])
        assert np.abs(c * x).max() > 1.49 and np.abs(c * x).min() < 1e-3
        bounds = cat._squeeze(x, d)
        for xi, bound in zip(x.tolist(), bounds.tolist()):
            y = mp.mpf(c) * mp.mpf(xi)
            if y <= -1:
                assert bound <= 0.0, xi
            elif bound > 0.0:
                passed = (mp.ceil(mp.mpf(bound) * 2**53) - 1) / mp.mpf(2) ** 53
                exact = mp.exp(3 * mp.mpf(d) * (mp.log1p(y) - y + y**2 / 2 - y**3 / 3))
                assert passed < exact, (xi, bound)

    @pytest.mark.parametrize("alpha, share", [(7.0, 0.02), (3664.0, 1e-3)])
    def test_squeeze_leaves_few_variates_to_the_log_test(self, alpha, share, monkeypatch):
        # Marsaglia and Tsang's fixed squeeze sends about 8.3% of variates
        # to the log test at every concentration
        reached = []
        exponent = cat._log_test_exponent
        monkeypatch.setattr(cat, "_log_test_exponent",
                            lambda y, d: reached.append(y.size) or exponent(y, d))
        out = np.empty(mc.CHUNK_SIZE)
        cat._gamma_pairs(mc.RngStream(int(alpha) + 2).generator(), alpha, out)
        assert len(reached) <= 1 and sum(reached) < share * out.size

    @pytest.mark.parametrize("alpha", ALPHAS[1:])
    def test_one_accept_uniform_per_pair(self, alpha):
        # each block draws one normal and one uniform per pair; the partners
        # of a pair share both
        sizes = []

        class Counting:
            def __init__(self, gen):
                self.gen = gen

            def random(self, size):
                sizes.append(size)
                return self.gen.random(size)

            def __getattr__(self, name):
                return getattr(self.gen, name)

        out = np.empty(mc.CHUNK_SIZE)
        cat._gamma_pairs(Counting(mc.RngStream(int(alpha * 10) + 3).generator()), alpha, out)
        assert sizes == [cat._BLOCK_ROWS // 2] * (mc.CHUNK_SIZE // cat._BLOCK_ROWS)

    @pytest.mark.parametrize("alpha", [1.5, 3664.0, 1e12, 1e16, 1e20])
    def test_log_test_exponent_is_exact(self, alpha):
        # the exponent of the log test for y = c x as the sampler forms it,
        # against 0.5 x^2 + d (1 - t^3 + 3 log t), t = 1 + y, in mpmath at
        # 80 digits with x = y / c exactly: at d near 1e20 its terms, each
        # near d, cancel to about 1e-20.  Within 1e-15, relative where the
        # exponent exceeds 1 in size (near y = -1 at small d), where one
        # unit in the last place of a double is already above 1e-15
        import mpmath

        mp = mpmath.mp.clone()
        mp.dps = 80
        d = alpha - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        y = c * np.random.default_rng(3600).standard_normal(2000)
        y = y[y > -1.0]
        got = cat._log_test_exponent(y, d)
        for yi, value in zip(y.tolist(), got.tolist()):
            x, t = mp.mpf(yi) * mp.sqrt(9 * mp.mpf(d)), 1 + mp.mpf(yi)
            want = x * x / 2 + d * (1 - t**3 + 3 * mp.log(t))
            assert abs(value - want) <= 1e-15 * max(1.0, abs(want)), (yi, value)


class TestScaledCounts:
    def test_totals_hit_target_exactly(self, study_counts):
        for size in (100, 500, 5969 + 4083, 10_000, 999_999):
            scaled = cat.scaled_counts(study_counts, size)
            assert sum(scaled.totals()) == size

    def test_study_size_reproduces_itself(self, study_counts):
        scaled = cat.scaled_counts(study_counts, 5969 + 4083)
        assert scaled == study_counts

    def test_mix_preserved(self, study_counts):
        scaled = cat.scaled_counts(study_counts, 100_000)
        n1, n2 = scaled.totals()
        assert n1 / (n1 + n2) == pytest.approx(5969 / 10052, abs=1e-4)

    def test_sum_exact_up_to_largest_size(self, study_counts):
        # float quotas of sizes this large are rounded to whole or half units
        for base in (study_counts, cat.ConclusionCounts((460, 837, 901), (78059, 80779, 84407))):
            scaled = cat.scaled_counts(base, cat.MAX_STUDY_SIZE)
            assert sum(scaled.totals()) == 2**53
        with pytest.raises(DomainError, match="largest study size"):
            cat.scaled_counts(study_counts, 2**53 + 1)

    def test_too_small_size_raises(self, study_counts):
        with pytest.raises(DomainError):
            cat.scaled_counts(study_counts, 5)

    def test_equal_remainders_go_in_order(self):
        # quotas 1.2, 0.4 and 10.4: the two remainders 0.4 tie exactly, and
        # the first of them gets the one unit left over
        assert cat._largest_remainder(12, [9, 3, 78]) == [1, 1, 10]

    def test_apportionment_matches_exact_oracle(self):
        # small weights make exactly equal remainders common: about 1 case
        # in 250 here ties where float quotas would not
        rng = np.random.default_rng(15)
        for _ in range(5000):
            weights = rng.integers(0, 101, size=rng.integers(1, 7)).tolist()
            weights[0] += not any(weights)
            total = int(rng.integers(0, 10_001))
            whole = sum(weights)
            quotas = [Fraction(total * w, whole) for w in weights]
            parts = [math.floor(q) for q in quotas]
            # a stable sort: equal remainders in the order of the weights
            order = sorted(range(len(weights)), key=lambda j: parts[j] - quotas[j])
            for j in order[: total - sum(parts)]:
                parts[j] += 1
            assert cat._largest_remainder(total, weights) == parts, (total, weights)

    def test_requires_nonzero_scenarios(self):
        empty_h2 = cat.ConclusionCounts((5, 5, 5), (0, 0, 0))
        with pytest.raises(DomainError):
            cat.scaled_counts(empty_h2, 100)


class TestSweep:
    def test_sweep_rows_and_asymptotes(self, study_counts):
        sweep = cat.lr_sweep(study_counts, [500, 2000], 50_000, mc.RngStream(81))
        assert len(sweep.rows) == 6
        assert sweep.asymptotes[ID] == pytest.approx(417.6, abs=0.05)
        assert sweep.estimate(2000, ID).lr > sweep.estimate(500, ID).lr

    def test_sweep_requires_sizes(self, study_counts):
        with pytest.raises(DomainError):
            cat.lr_sweep(study_counts, [], 1000, mc.RngStream(0))

    def test_rows_equal_estimates_from_each_sizes_own_draws(self, study_counts, monkeypatch):
        # 300,000 draws take three chunks and end part way into the third;
        # at size 100 about one proposal in 500 is rejected, so its kept
        # rows are gathered, while at size 1000 each chunk is kept whole.
        # Size 100 has q_ID integrated out of no row, so its LR(ID) is the
        # plain ratio; size 1000 out of nearly every row, so its LR(ID)
        # agrees with the plain ratio within the plain ratio's error.  The
        # sweep's SEs are over every pair proposed, N, the library's over
        # the n pairs that hold a kept draw
        n, rng, sizes = 300_000, mc.RngStream(84), [100, 1000]
        assert 2 * mc.CHUNK_SIZE < n < 3 * mc.CHUNK_SIZE
        monkeypatch.setenv("EVIDENTIAL_WEIGHT_THREADS", "3")
        threads_before = threading.active_count()
        sweep = cat.lr_sweep(study_counts, sizes, n, rng)
        assert threading.active_count() == threads_before
        integrated = [draws["q_id_integrated"] for draws in sweep.draws]
        assert [(d["size"], d["kept"]) for d in sweep.draws] == [(100, n), (1000, n)]
        assert integrated[0] == 0 and 0.99 * n < integrated[1] < n
        for i, size in enumerate(sizes):
            samples = cat.sample_rate_pairs(
                cat.scaled_counts(study_counts, size), n, rng.substream(i + 1)
            )
            units, pairs = np.unique(samples.unit).size, sweep.draws[i]["proposals"] // 2
            assert n / 2 <= units < pairs
            factor = math.sqrt(pairs * (units - 1) / (units * (pairs - 1)))
            for conclusion in cat.Conclusion:
                row = sweep.estimate(size, conclusion)
                alone = cat.lr_from_samples(samples, conclusion)
                if conclusion is ID and integrated[i]:
                    assert abs(row.lr - alone.lr) <= 5 * alone.mc_std_err
                    assert row.mc_std_err < alone.mc_std_err
                else:
                    assert row.lr == pytest.approx(alone.lr, rel=1e-13, abs=0)
                    assert row.mc_std_err == pytest.approx(alone.mc_std_err * factor,
                                                           rel=1e-12, abs=0)
                assert (row.n_samples, row.acceptance_rate, row.seed) == (
                    alone.n_samples, alone.acceptance_rate, alone.seed)

    def test_intractable_size_raises_at_any_thread_count(self, study_counts, monkeypatch):
        # size 100 accepts about 0.998 of its proposals, size 1000 all of them
        monkeypatch.setattr(mc, "INTRACTABLE_PROBE", mc.CHUNK_SIZE)
        monkeypatch.setattr(mc, "INTRACTABLE_FLOOR", 0.999)
        threads_before = threading.active_count()
        errors = []
        for threads in ("1", "3"):
            monkeypatch.setenv("EVIDENTIAL_WEIGHT_THREADS", threads)
            with pytest.raises(ConstraintIntractableError) as err:
                cat.lr_sweep(study_counts, [1000, 100], 400_000, mc.RngStream(85))
            errors.append((err.value.n_proposed, err.value.acceptance_rate))
            assert threading.active_count() == threads_before
        assert errors[0] == errors[1]
        assert errors[0][0] == mc.CHUNK_SIZE
        assert 0.99 < errors[0][1] < 0.999


def _plain_summary(counts, n, rng, bins=0, q_id=False):
    """``summarize_draws`` with no slice integrated, and unless ``q_id`` no
    q_ID integrated: the plain ratio for every LR."""
    plan = cat._plan(counts)
    plan = dataclasses.replace(plan, slices=(False, False), q_id=plan.q_id if q_id else None)
    summary = cat.DrawSummary(plan, rng.seed, bins)
    summary.acceptance_rate, _, _ = mc.rejection_stream(
        plan.proposal, cat._admissible_draws, n, rng, summary, proposal_mass=plan.mass)
    return summary


@pytest.mark.parametrize("h1, h2, conclusions", [
    ((4, 0, 0), (2, 0, 0), (ID, EXC)),  # paired, q_ID integration, about 12% of pairs keep one
    ((2, 9, 2), (1, 0, 1), tuple(cat.Conclusion)),  # both factors reflected, 15% kept
])
def test_sparse_chunks_fold_only_their_kept_units(h1, h2, conclusions, monkeypatch):
    # where fewer than a quarter of a chunk's units hold a kept row and no
    # LR read takes a slice, only those units are folded, and the rest
    # enter the count alone: the same LRs and SEs, up to rounding, as
    # folding every proposal of the same chunks, the last one's past the
    # target included
    counts, n, rng = cat.ConclusionCounts(h1, h2), 20_000, mc.RngStream(3700)
    folded = []
    contributions = cat._contributions
    monkeypatch.setattr(cat, "_contributions",
                        lambda chunk, *rest: folded.append(chunk.shape[0]) or
                        contributions(chunk, *rest))
    summary = cat.summarize_draws(counts, n, rng, conclusions=conclusions)
    plan = summary.plan
    assert summary.n_chunks > 1 and not plan.sliced(conclusions)
    assert sum(folded) < 0.5 * summary.n_proposed
    everything = cat._RatioSums(len(conclusions))
    kept_total = n_integrated = 0
    for i in range(summary.n_chunks):
        chunk = plan.proposal(rng.chunk_generator(i), mc.CHUNK_SIZE)
        kept = cat._admissible_draws(chunk)
        kept[np.flatnonzero(kept)[n - kept_total:]] = False
        kept_total += np.count_nonzero(kept)
        num, den, integrated = contributions(chunk, kept, conclusions, plan)
        n_integrated += integrated
        if plan.paired:
            num, den = num[0::2] + num[1::2], den[0::2] + den[1::2]
        everything.add(num, den)
    assert kept_total == summary.n_samples == n
    assert summary.sums.n == everything.n == summary.n_proposed // (1 + plan.paired)
    assert summary.n_integrated == n_integrated
    for j, conclusion in enumerate(conclusions):
        want = everything.estimate(j, n, summary.acceptance_rate, rng.seed)
        got = summary.estimate(conclusion)
        assert got.lr == pytest.approx(want.lr, rel=1e-13, abs=0)
        assert got.mc_std_err == pytest.approx(want.mc_std_err, rel=1e-12, abs=0)


def _dirichlet_mean_ratio_id(counts):
    """LR(ID) of the untruncated Dirichlet pair, counts + 1."""
    a1, a2 = counts.alphas()
    return float((a1[0] / a1.sum()) / (a2[0] / a2.sum()))


class TestQIdIntegration:
    @pytest.mark.parametrize("a", [1, 2, 3, 7, 30, 451, 10**4, 10**6])
    def test_threshold_bounds_the_beta_tail(self, a):
        for b in (2, 3, 10, 455, 4079, 10**5, 10**6):
            t = cat._q_id_threshold(float(a), float(b))
            mean = a / (a + b)
            assert mean < t < 1.0
            assert stats.beta.sf(t, a, b) <= cat.Q_ID_TAIL * mean, (a, b, t)

    def test_no_integration_where_no_row_can_be_certified(self):
        # a non-mated ID count this far above the rest puts the threshold
        # at 1, which no mated ID rate exceeds
        assert cat._q_id_threshold(1e12 + 1, 3.0) == 1.0
        counts = cat.ConclusionCounts((5, 5, 1), (10**12, 0, 1))
        assert cat._plan(counts).q_id is None

    @pytest.mark.parametrize("size", [None, 700, 1_000_000])
    def test_integrated_lr_id_is_unbiased(self, study_counts, size):
        # z of LR(ID) against the Dirichlet-mean ratio, which the
        # truncation does not move beyond the error on these tables, over
        # 40 seeds.  At size 700 about 85% of the rows are certified; a
        # rule that integrated only pairs whose rows are both certified
        # reads a mean z near +0.6 there, beyond 3 standard errors
        counts = study_counts if size is None else cat.scaled_counts(study_counts, size)
        n, exact = 200_000, _dirichlet_mean_ratio_id(counts)
        z, shares = [], []
        for seed in range(3000, 3040):
            summary = cat.summarize_draws(counts, n, mc.RngStream(seed))
            est = summary.estimate(ID)
            z.append((est.lr - exact) / est.mc_std_err)
            shares.append(summary.n_integrated / n)
        assert (0.5 < min(shares) and max(shares) < 0.95) if size == 700 else min(shares) == 1.0
        assert abs(np.mean(z)) <= 3 * np.std(z, ddof=1) / math.sqrt(len(z))
        assert 0.7 <= np.std(z, ddof=1) <= 1.4

    @pytest.mark.parametrize("table", ["study", "size 560", "flat prior", "q symmetric"])
    def test_only_lr_id_moves(self, study_counts, table):
        # on the same draws, everything but LR(ID) equals the plain path's
        # exactly; where q is reflected, LR(ID) does too.  The flat prior
        # takes every LR from the slice integrals of every proposal instead
        # (see TestPolygonMeans), each within 5 SE of the plain ratio's
        counts = {"study": study_counts, "size 560": cat.scaled_counts(study_counts, 560),
                  "flat prior": None, "q symmetric": REFLECTION_CASES["q symmetric"][0]}[table]
        n, rng = 300_001, mc.RngStream(3100)
        ours = cat.summarize_draws(counts, n, rng, bins=100)
        plain = _plain_summary(counts, n, rng, bins=100)
        assert (ours.n_samples, ours.acceptance_rate) == (plain.n_samples, plain.acceptance_rate)
        assert np.array_equal(ours.cells, plain.cells)
        assert ours.n_sliced == (ours.n_proposed if table == "flat prior" else 0)
        if table == "flat prior":
            assert ours.n_integrated == 0
            for conclusion in cat.Conclusion:
                mine, theirs = ours.estimate(conclusion), plain.estimate(conclusion)
                assert abs(mine.lr - theirs.lr) <= 5 * theirs.mc_std_err
                assert mine.mc_std_err < theirs.mc_std_err
            return
        for conclusion in (INC, EXC):
            assert ours.estimate(conclusion) == plain.estimate(conclusion)
        if table == "q symmetric":
            assert ours.n_integrated == 0
            assert ours.estimate(ID) == plain.estimate(ID)
        else:
            assert 0 < ours.n_integrated <= n
            mine, theirs = ours.estimate(ID), plain.estimate(ID)
            assert abs(mine.lr - theirs.lr) <= 5 * theirs.mc_std_err


#: P(A) and LR(ID) of the flat prior in closed form (ROADMAP item 3), checked
#: against quadrature by ``test_flat_prior_closed_forms``.  By the region's
#: symmetry under p <-> reversed q, LR(Inc) is 1 and LR(Exc) is 1 / LR(ID),
#: both exactly.
FLAT_PRIOR_MASS = 1.5 - 2.0 * math.log(2.0)
FLAT_PRIOR_LR_ID = (7.0 - 8.0 * math.log(2.0)) / (17.0 - 24.0 * math.log(2.0))


def test_flat_prior_closed_forms():
    # P(A) = 4 times the integral over (p_ID, q_ID) of the area of the slice
    # of (p_Inc, q_Inc), and LR(ID) the ratio of its p- and q-moments, by
    # Gauss-Legendre in mpmath at 25 digits, split where the slice changes
    # shape: p = 1/2, q = p / (1 + p) (where c / k = 1) and q = min(p, 1/2).
    # With x = p_Inc / (1 - p) and y = q_Inc / (1 - q) the slice is x > x0,
    # k x < y < min(c, x), x < 1 (ROADMAP item 3)
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 25
    areas = {}

    def area(p, q):
        if (p, q) not in areas:
            x0 = max(0, (1 - 2 * p) / (1 - p))
            c = (1 - 2 * q) / (1 - q)
            k = q * (1 - p) / (p * (1 - q))
            e = min(1, c / k) if k else 1
            inner = (1 - k) * (c * c - x0 * x0) / 2 + c * (e - c) - k * (e * e - c * c) / 2
            areas[p, q] = (1 - p) * (1 - q) * inner
        return areas[p, q]

    def integral(weight):
        def over_q(p):
            return mp.quad(lambda q: weight(p, q) * area(p, q),
                           [0, p / (1 + p), min(p, mp.mpf(1) / 2)], method="gauss-legendre")
        return mp.quad(over_q, [0, mp.mpf(1) / 2, 1], method="gauss-legendre")

    mass = 4 * integral(lambda p, q: 1)
    lr_id = integral(lambda p, q: p) / integral(lambda p, q: q)
    ln2 = mp.log(2)
    assert abs(mass - (mp.mpf(3) / 2 - 2 * ln2)) < mp.mpf(10) ** -20
    assert abs(lr_id / ((7 - 8 * ln2) / (17 - 24 * ln2)) - 1) < mp.mpf(10) ** -20
    # the float forms the tests use: 17 - 24 ln 2 cancels to about 0.364
    assert abs(FLAT_PRIOR_MASS / mass - 1) < 1e-15
    assert abs(FLAT_PRIOR_LR_ID / lr_id - 1) < 1e-14


def _slice_integrals(rates, conclusions, reflected):
    """The contributions of every row of ``rates`` to the LRs of
    ``conclusions``, each taken from its slice integrals, on a support
    reflected as ``reflected`` says."""
    plan = dataclasses.replace(cat._plan(None), reflected=reflected)  # both slices uniform
    num, den, _ = cat._contributions(rates, cat._admissible_draws(rates), conclusions, plan)
    return num, den


def _assert_integrals_match_clipping(rates, conclusions, reflected) -> int:
    """The slice integrals of each row of ``rates`` for each of ``conclusions``
    against clipping; returns how many of the rows' slices are empty.

    Each must be within 1e-12 relative of clipping's, or 1e-15 absolute,
    and exactly 0 where the slice is empty, with no float error under the
    command's float guard.
    """
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        num, den = _slice_integrals(rates, conclusions, reflected)
    want = np.array([[slice_integrals(rates[i, :3], rates[i, 3:], c.value, reflected)
                      for c in conclusions] for i in range(rates.shape[0])])
    got = np.stack([num, den], axis=2)
    np.testing.assert_allclose(got, want[:, :, :2], rtol=1e-12, atol=1e-15)
    empty = want[:, :, 2] == 0.0
    assert np.array_equal(got[empty], np.zeros((np.count_nonzero(empty), 2)))
    return int(np.count_nonzero(empty))


#: Count tables with a uniform slice, by the factors they reflect.
SLICE_CASES = {
    "flat prior": None,
    "Inc, neither reflected": cat.ConclusionCounts((4, 0, 0), (2, 0, 0)),
    "Inc, p reflected": cat.ConclusionCounts((0, 0, 0), (3, 0, 0)),
    "Inc, q reflected": cat.ConclusionCounts((3, 0, 0), (0, 0, 0)),
}


class TestPolygonMeans:
    def test_closed_form_matches_clipping_on_proposals(self):
        # every proposal of a chunk, rejected or kept, on each reflection
        # of the Inc slice's support; the ID and Exc slices are uniform
        # only where both factors are reflected
        for case, counts in SLICE_CASES.items():
            plan = cat._plan(counts)
            rates = plan.proposal(mc.RngStream(3200).chunk_generator(0), 1000)
            kept = cat._admissible_draws(rates)
            assert 0.005 < kept.mean() < 0.6, case
            conclusions = tuple(cat.Conclusion) if counts is None else (INC,)
            empty = _assert_integrals_match_clipping(rates, conclusions, plan.reflected)
            # the Inc slice is empty where p_ID <= q_ID or q_ID >= 1/2
            assert 0 < empty < rates.shape[0], case
            if counts is None:
                # both signs of q_Inc - p_Inc: the upper line of the ID slice
                # passes through the origin on one side and not on the other
                assert 0.3 < np.mean(rates[:, 4] > rates[:, 1]) < 0.7

    def test_closed_form_matches_clipping_near_vertices(self):
        # rows on which a polygon's vertex set changes, and rows just either
        # side.  ID slice: the line's offset k switches on at q_Inc = p_Inc,
        # its foot reaches the left end at q_Inc = 2 p_Inc / (1 + p_Inc), and
        # it reaches y = c at the right end at q_Inc = p_Inc / (2 - p_Inc).
        # Inc slice: the left end leaves 0 at p_ID = 1/2, the lower line
        # reaches C at the right end at q_ID = p_ID / (1 + p_ID), the upper
        # line reaches C at the right end as q_ID falls to 0, and the slice
        # empties at q_ID = p_ID and at q_ID = 1/2
        gen = np.random.default_rng(3201)
        nudges = (-1e-7, -1e-12, 0.0, 1e-12, 1e-7)
        id_rows = [(p1, edge * (1.0 + d)) for p1 in gen.uniform(0.01, 0.99, 60)
                   for edge in (p1, 2.0 * p1 / (1.0 + p1), p1 / (2.0 - p1)) for d in nudges]
        inc_rows = [(p0, edge * (1.0 + d)) for p0 in gen.uniform(0.02, 0.98, 60)
                    for edge in (p0 / (1.0 + p0), 1e-9, p0) for d in nudges]
        inc_rows += [(0.5 * (1.0 + d), q0) for q0 in gen.uniform(0.0, 0.49, 60) for d in nudges]
        inc_rows += [(p0, 0.5 * (1.0 + d)) for p0 in gen.uniform(0.51, 0.99, 60) for d in nudges]
        for fixed, rows in ((1, id_rows), (0, inc_rows)):
            p, q = np.zeros((len(rows), 3)), np.zeros((len(rows), 3))
            p[:, fixed], q[:, fixed] = np.array(rows).T
            p[:, 2], q[:, 2] = 1.0 - p[:, fixed], 1.0 - q[:, fixed]
            rates = np.asfortranarray(np.column_stack([p, q]))
            if fixed == 1:
                _assert_integrals_match_clipping(rates, (ID, EXC), (True, True))
            else:
                for reflected in itertools.product((False, True), repeat=2):
                    _assert_integrals_match_clipping(rates, (INC,), reflected)
        # a rate of exactly 0 or 1 empties a slice (or flattens its support)
        # through a zero divisor: no float error either, and values within
        # 1e-15 of clipping's 0, though not exactly 0 where p_Inc is 0.  Not
        # both fixed rates 0: at p_Inc = q_Inc = 0 both ratio orderings read
        # 0 > 0 everywhere, which clipping, keeping the boundary, takes as met
        edges = np.array([e for e in itertools.product((0.0, 0.3, 1.0), repeat=2) if any(e)])
        for fixed, conclusions in ((1, (ID, EXC)), (0, (INC,))):
            p, q = np.zeros((len(edges), 3)), np.zeros((len(edges), 3))
            p[:, fixed], q[:, fixed] = edges.T
            p[:, 2], q[:, 2] = 1.0 - p[:, fixed], 1.0 - q[:, fixed]
            rates = np.asfortranarray(np.column_stack([p, q]))
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                num, den = _slice_integrals(rates, conclusions, (True, True))
            want = np.array([[slice_integrals(p[i], q[i], c.value, (True, True))[:2]
                              for c in conclusions] for i in range(len(edges))])
            np.testing.assert_allclose(np.stack([num, den], axis=2), want, rtol=1e-12, atol=1e-15)

    def test_thin_inc_slice_matches_mpmath(self):
        # flat-prior proposal 276 of a 2,000-row chunk 0 of RngStream(1) has
        # p_ID 0.408039 and q_ID 0.407992: its Inc slice is a sliver along
        # y = x, whose slopes' difference and widths each cancel when taken
        # as differences (1.9e-12 relative off, so).  Clipping in mpmath at
        # 50 digits, from the row's float rates, is the reference
        import mpmath

        plan = cat._plan(None)
        rates = plan.proposal(mc.RngStream(1).chunk_generator(0), 2000)
        row = rates[276]
        assert abs(row[0] - 0.408039) < 1e-6 and abs(row[3] - 0.407992) < 1e-6
        num, den = _slice_integrals(rates[276:277], (INC,), plan.reflected)
        mp = mpmath.mp.clone()
        mp.dps = 50
        p, q = ([mp.mpf(float(v)) for v in half] for half in (row[:3], row[3:]))
        want = slice_integrals(p, q, INC.value, plan.reflected)
        assert 0 < want[0] < 1e-8
        for got, exact in ((num[0, 0], want[0]), (den[0, 0], want[1])):
            assert abs(got / exact - 1) <= 1e-15, (got, exact)

    def test_slice_lrs_are_unbiased(self):
        # z of each flat-prior LR against its exact value, over 40 seeds
        n = 100_000
        exact = {ID: FLAT_PRIOR_LR_ID, INC: 1.0, EXC: 1.0 / FLAT_PRIOR_LR_ID}
        z = {conclusion: [] for conclusion in cat.Conclusion}
        for seed in range(3300, 3340):
            summary = cat.summarize_draws(None, n, mc.RngStream(seed))
            assert summary.n_sliced == summary.n_proposed
            for conclusion, values in z.items():
                est = summary.estimate(conclusion)
                values.append((est.lr - exact[conclusion]) / est.mc_std_err)
        for conclusion, values in z.items():
            sd = np.std(values, ddof=1)
            assert abs(np.mean(values)) <= 3 * sd / math.sqrt(len(values)), conclusion
            assert 0.7 <= sd <= 1.4, conclusion

    # one table on each side of "the four concentrations are 1" for each
    # slice: a count of 5 off it makes the Inc slice, then the ID slice,
    # fail, and one Exc count, which both slices integrate, makes both fail
    @pytest.mark.parametrize("table", ["ID and Exc", "Inc", "neither"])
    def test_only_uniform_slices_move(self, table):
        counts, slices = {
            "ID and Exc": (cat.ConclusionCounts((0, 5, 0), (0, 3, 0)), (True, False)),
            "Inc": (cat.ConclusionCounts((4, 0, 0), (2, 0, 0)), (False, True)),
            "neither": (cat.ConclusionCounts((0, 0, 1), (0, 0, 0)), (False, False)),
        }[table]
        assert cat._plan(counts).slices == slices
        n, rng = 200_001, mc.RngStream(3400)
        ours = cat.summarize_draws(counts, n, rng, bins=100)
        plain = _plain_summary(counts, n, rng, bins=100, q_id=True)
        assert (ours.n_samples, ours.acceptance_rate) == (plain.n_samples, plain.acceptance_rate)
        assert np.array_equal(ours.cells, plain.cells)
        assert ours.n_integrated == plain.n_integrated
        assert ours.n_sliced == (ours.n_proposed if any(slices) else 0)
        moved = {ID: slices[0], INC: slices[1], EXC: slices[0]}
        if any(slices):  # plain rejection from numpy's Dirichlet, on its own stream
            independent, _ = plain_rate_pairs(counts, n, mc.RngStream(3401))
        for conclusion in cat.Conclusion:
            mine, theirs = ours.estimate(conclusion), plain.estimate(conclusion)
            if not moved[conclusion]:
                if table == "Inc":
                    # about 12% of its pairs keep a row: reading no slice,
                    # the plain summary folds only those, which moves the
                    # rounding of the sums alone
                    assert mine.lr == pytest.approx(theirs.lr, rel=1e-13, abs=0)
                    assert mine.mc_std_err == pytest.approx(theirs.mc_std_err, rel=1e-12, abs=0)
                    mine = dataclasses.replace(mine, log10_lr=theirs.log10_lr,
                                               mc_std_err=theirs.mc_std_err)
                assert mine == theirs
                continue
            assert abs(mine.lr - theirs.lr) <= 5 * theirs.mc_std_err
            assert mine.mc_std_err < theirs.mc_std_err
            other = cat.lr_from_samples(independent, conclusion)
            assert abs(mine.lr - other.lr) <= 5 * math.hypot(mine.mc_std_err, other.mc_std_err)

    def test_every_proposal_enters(self, monkeypatch):
        # chunks of 16 proposals at about 1.7% acceptance: about a third of
        # the chunks keep nothing, yet every proposal of every chunk taken
        # enters the slice integrals, each pair (q is antithetic) one unit
        monkeypatch.setattr(mc, "CHUNK_SIZE", 16)
        counts, rng = SLICE_CASES["Inc, p reflected"], mc.RngStream(3450)
        summary = cat.summarize_draws(counts, 300, rng, conclusions=(INC,))
        assert summary.n_sliced == summary.n_proposed == 16 * summary.n_chunks
        plan = cat._plan(counts)
        assert plan.paired and plan.reflected == (True, False)
        chunks = [plan.proposal(rng.chunk_generator(i), 16) for i in range(summary.n_chunks)]
        kept = [np.count_nonzero(cat._admissible_draws(chunk)) for chunk in chunks]
        assert kept.count(0) > summary.n_chunks // 5
        num, den = _slice_integrals(np.vstack(chunks), (INC,), plan.reflected)
        est = summary.estimate(INC)
        assert est.lr == pytest.approx(num.sum() / den.sum(), rel=1e-12, abs=0)
        assert summary.sums.n == summary.n_proposed // 2
        with pytest.raises(DomainError, match="not summarized"):
            summary.estimate(ID)

    # counts this large put the Inc (or the ID) rates within rounding of
    # 1, so the polygon's lengths must come from the small rates, not from
    # 1 minus the large one, which can round to 0
    @pytest.mark.parametrize("table", ["Inc counts", "ID count"])
    def test_rates_within_rounding_of_one(self, table):
        counts = {"Inc counts": cat.ConclusionCounts((0, 10**16, 0), (0, 10**16, 0)),
                  "ID count": cat.ConclusionCounts((10**16, 0, 0), (0, 0, 0))}[table]
        n, rng = 20_000, mc.RngStream(3500)
        ours = cat.summarize_draws(counts, n, rng)
        plain = _plain_summary(counts, n, rng, q_id=True)
        assert ours.n_sliced == ours.n_proposed
        for conclusion in cat.Conclusion:
            mine, theirs = ours.estimate(conclusion), plain.estimate(conclusion)
            assert math.isfinite(mine.log10_lr) and mine.mc_std_err > 0
            assert abs(mine.lr - theirs.lr) <= 5 * theirs.mc_std_err


def _residual(sums: cat._RatioSums) -> np.ndarray:
    """Sum of (num - r den)^2 of each column at its final ratio r."""
    shift = (sums.sp / sums.n) / (sums.sq / sums.n) - sums.r0
    return sums.see - shift * (2.0 * sums.seq - shift * sums.sqq)


class TestMoments:
    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1),
           cuts=st.lists(st.integers(1, 3000), min_size=1, max_size=6))
    def test_merged_blocks_equal_one_block(self, seed, cuts):
        gen = np.random.default_rng(seed)
        n = sum(cuts)
        # columns of different spreads and correlations
        p = np.asfortranarray(gen.dirichlet([2.0, 5.0, 0.5], size=n))
        q = np.asfortranarray(0.3 * p + 0.7 * gen.dirichlet([1.0, 1.0, 9.0], size=n))
        whole, merged = cat._RatioSums(3), cat._RatioSums(3)
        whole.add(p, q)
        for start, stop in zip(np.cumsum([0] + cuts[:-1]), np.cumsum(cuts)):
            merged.add(p[start:stop], q[start:stop])
        assert merged.n == whole.n == n
        for field in ("sp", "sq"):
            np.testing.assert_allclose(getattr(merged, field), getattr(whole, field),
                                       rtol=1e-13, atol=0)
        np.testing.assert_allclose(_residual(merged), _residual(whole), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_ratio_with_zero_units_has_no_error(self, seed):
        # blocks whose units all hold num = r den, with all-zero units, as
        # rejected proposals and those past the target give, among them and
        # a whole block of them first: the residuals about the first
        # nonzero block's ratio stay within rounding of 0.  Centred merges
        # of the same blocks cancel, to an SE of up to 2.3e-9 of the LR
        gen = np.random.default_rng(seed)
        r, sums, n_rows = 358.25888055326374, cat._RatioSums(2), 0
        for rows in (4096, 65536, 3, 65536, 1000):
            den = np.asfortranarray(gen.uniform(0.0, 2e-3, size=(rows, 2)))
            den[gen.random(rows) < 0.4] = 0.0
            if n_rows == 0:
                den[:] = 0.0
            sums.add(np.asfortranarray(r * den), den)
            n_rows += rows
        assert sums.n == n_rows
        for j in range(2):
            est = sums.estimate(j, n_rows, 1.0, seed)
            assert est.lr == pytest.approx(r, rel=1e-15)
            assert 0.0 <= est.mc_std_err <= 1e-15 * est.lr


class TestDensityGrid:
    def test_grid_normalization(self, prior_samples):
        centers, grid = cat.density_grid(prior_samples, ID)
        assert grid.shape == (100, 100)
        assert centers[0] == pytest.approx(0.005)
        # histogram density integrates to one over the unit square
        assert grid.sum() * (1 / 100) ** 2 == pytest.approx(1.0, rel=1e-12)

    def test_grid_mass_in_admissible_region(self, prior_samples):
        centers, grid = cat.density_grid(prior_samples, ID)
        # p_ID > q_ID everywhere, so cells with the q bin above the p bin are empty
        upper = np.triu_indices(100, k=1)
        assert grid[upper].sum() == 0.0

    def test_bins_match_histogram2d_at_every_edge(self):
        edges = np.linspace(0.0, 1.0, 101)
        values = np.concatenate([
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            0.5 * (edges[:-1] + edges[1:]),
            [0.0, 1.0],
        ])
        values = values[(values >= 0.0) & (values <= 1.0)]
        # every value against every other, as mated and as non-mated rate
        p_col, q_col = (a.ravel() for a in np.meshgrid(values, values[::-1]))
        p, q = np.zeros((p_col.size, 3)), np.zeros((p_col.size, 3))
        p[:, 1], q[:, 1] = p_col, q_col
        _, grid = cat.density_grid(cat.RatePairSamples(p, q, acceptance_rate=1.0), INC)
        expected, _, _ = np.histogram2d(p_col, q_col, bins=[edges, edges])
        expected /= p_col.size * (1 / 100) ** 2
        assert np.array_equal(grid, expected)

    def test_bins_match_histogram2d_on_draws(self, prior_samples, study_samples):
        edges = np.linspace(0.0, 1.0, 101)
        for samples in (prior_samples, study_samples):
            for conclusion in cat.Conclusion:
                _, grid = cat.density_grid(samples, conclusion)
                expected, _, _ = np.histogram2d(
                    *samples.rate_columns(conclusion), bins=[edges, edges]
                )
                expected /= len(samples) * (1 / 100) ** 2
                assert np.array_equal(grid, expected)

    def test_rates_outside_unit_interval_raise(self):
        p = np.full((2, 3), 1 / 3)
        q = p.copy()
        q[1, 0] = np.nextafter(1.0, 2.0)
        with pytest.raises(DomainError):
            cat.density_grid(cat.RatePairSamples(p, q, acceptance_rate=1.0), ID)
