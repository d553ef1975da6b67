"""Determinism, sampler correctness, and quadrature behavior."""

import math
import os
import threading

import numpy as np
import pytest
from scipy import integrate

from evidential_weight import mc
from evidential_weight.errors import (
    ConstraintIntractableError,
    DomainError,
    QuadratureConvergenceError,
)
from mc_oracles import integrate_2d, sample_wishart

UNIT_SQUARE = mc.QuadratureSpec(0.0, 1.0, 0.0, 1.0, rel_tol=1e-9, max_refinements=6)


def uniform_pair_proposal(gen, n):
    return gen.uniform(size=(n, 2))


class TestRngStream:
    def test_same_stream_bit_identical(self):
        a = mc.RngStream(42, 3).generator().standard_normal(1000)
        b = mc.RngStream(42, 3).generator().standard_normal(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = mc.RngStream(42, 0).generator().standard_normal(10)
        b = mc.RngStream(42, 1).generator().standard_normal(10)
        assert not np.array_equal(a, b)

    def test_chunk_streams_distinct_from_main(self):
        a = mc.RngStream(42, 0).generator().standard_normal(10)
        b = mc.RngStream(42, 0).chunk_generator(0).standard_normal(10)
        assert not np.array_equal(a, b)

    def test_rejects_negative_seed(self):
        with pytest.raises(DomainError):
            mc.RngStream(-1)

    def test_sfc64_seeded_by_spawn_key(self):
        stream = mc.RngStream(42, 3)
        for gen, key in ((stream.generator(), (3,)), (stream.chunk_generator(5), (3, 5))):
            expected = np.random.Generator(
                np.random.SFC64(np.random.SeedSequence(entropy=42, spawn_key=key))
            )
            assert isinstance(gen.bit_generator, np.random.SFC64)
            assert np.array_equal(gen.random(8), expected.random(8))


class TestRejectionSample:
    def test_always_accept_rate_one(self):
        result = mc.rejection_sample(
            uniform_pair_proposal, lambda d: np.ones(len(d), dtype=bool), 100, mc.RngStream(1)
        )
        assert result.acceptance_rate == 1.0
        assert result.samples.shape == (100, 2)

    def test_half_plane_rate_half(self):
        result = mc.rejection_sample(
            uniform_pair_proposal, lambda d: d[:, 0] > d[:, 1], 400_000, mc.RngStream(2)
        )
        se = math.sqrt(0.25 / result.n_proposed)
        assert abs(result.acceptance_rate - 0.5) < 3 * se

    def test_exactly_target_accepted(self):
        result = mc.rejection_sample(
            uniform_pair_proposal, lambda d: d[:, 0] > 0.9, 12_345, mc.RngStream(3)
        )
        assert result.samples.shape[0] == 12_345
        assert np.all(result.samples[:, 0] > 0.9)

    def test_deterministic_across_thread_counts(self):
        kwargs = dict(target_accepted=50_000, rng=mc.RngStream(4))
        serial = mc.rejection_sample(
            uniform_pair_proposal, lambda d: d[:, 0] > d[:, 1], threads=1, **kwargs
        )
        threaded = mc.rejection_sample(
            uniform_pair_proposal, lambda d: d[:, 0] > d[:, 1], threads=4, **kwargs
        )
        assert np.array_equal(serial.samples, threaded.samples)
        assert serial.acceptance_rate == threaded.acceptance_rate
        assert serial.n_proposed == threaded.n_proposed

    def test_env_var_thread_cap(self, monkeypatch):
        monkeypatch.setenv("EVIDENTIAL_WEIGHT_THREADS", "3")
        assert mc.resolve_threads() == 3
        monkeypatch.delenv("EVIDENTIAL_WEIGHT_THREADS")
        assert mc.resolve_threads() == len(os.sched_getaffinity(0))
        monkeypatch.setenv("EVIDENTIAL_WEIGHT_THREADS", " ")
        assert mc.resolve_threads() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("threads", [0, mc.MAX_THREADS + 1, 100_000])
    def test_thread_count_out_of_range(self, threads):
        with pytest.raises(DomainError, match=f"from 1 to {mc.MAX_THREADS}"):
            mc.resolve_threads(threads)

    def test_env_var_above_thread_bound(self, monkeypatch):
        # resolved only: no pool is built
        monkeypatch.setenv("EVIDENTIAL_WEIGHT_THREADS", "100000")
        with pytest.raises(DomainError, match=f"from 1 to {mc.MAX_THREADS}"):
            mc.resolve_threads()
        monkeypatch.setenv("EVIDENTIAL_WEIGHT_THREADS", str(mc.MAX_THREADS))
        assert mc.resolve_threads() == mc.MAX_THREADS

    def test_default_thread_count_capped(self, monkeypatch):
        monkeypatch.delenv("EVIDENTIAL_WEIGHT_THREADS", raising=False)
        monkeypatch.setattr(mc, "_available_cpus", lambda: 10_000)
        assert mc.resolve_threads() == mc.MAX_THREADS == 64

    def test_intractable_constraint_raises(self, monkeypatch):
        monkeypatch.setattr(mc, "INTRACTABLE_PROBE", 4 * mc.CHUNK_SIZE)
        with pytest.raises(ConstraintIntractableError):
            mc.rejection_sample(
                uniform_pair_proposal,
                lambda d: np.zeros(len(d), dtype=bool),
                10,
                mc.RngStream(5),
            )

    def test_intractable_same_proposals_across_thread_counts(self, monkeypatch):
        monkeypatch.setattr(mc, "INTRACTABLE_PROBE", 4 * mc.CHUNK_SIZE)
        proposed = []
        for threads in (1, 3):
            with pytest.raises(ConstraintIntractableError) as err:
                mc.rejection_sample(
                    uniform_pair_proposal,
                    lambda d: d[:, 0] < 1e-7,
                    10,
                    mc.RngStream(6),
                    threads=threads,
                )
            proposed.append(err.value.n_proposed)
        assert proposed == [4 * mc.CHUNK_SIZE] * 2

    def test_counters_and_column_layout(self):
        # accepts about one proposal in 8: the target is met inside chunk 3
        target = 50_000
        result, serial = (
            mc.rejection_sample(
                uniform_pair_proposal, lambda d: d[:, 0] < 0.125, target, mc.RngStream(8),
                threads=threads,
            )
            for threads in (3, 1)
        )
        assert np.array_equal(result.samples, serial.samples)
        assert result.acceptance_rate == serial.acceptance_rate
        assert result.n_chunks == 4
        assert result.n_proposed == 4 * mc.CHUNK_SIZE
        # the rate counts the whole last chunk, not just the rows kept
        assert result.acceptance_rate * result.n_proposed > target
        assert result.samples.flags.f_contiguous
        assert result.samples.shape == (target, 2)

    def test_kept_rows_equal_filtered_proposals(self, monkeypatch):
        # chunks drawn above the threshold are accepted whole, the others
        # in part; the buffer gathers the kept rows of each
        def proposal(gen, n):
            low = 0.6 if gen.random() < 0.5 else 0.0
            return gen.uniform(low, 1.0, size=(n, 3))

        def accept(d):
            return d[:, 0] > 0.55

        rng, chunk, target = mc.RngStream(9), 1000, 9_500
        monkeypatch.setattr(mc, "CHUNK_SIZE", chunk)
        result = mc.rejection_sample(proposal, accept, target, rng, threads=2)
        chunks = [proposal(rng.chunk_generator(i), chunk) for i in range(result.n_chunks)]
        whole = [accept(d).all() for d in chunks]
        assert not all(whole)
        assert whole[-1]  # the target ends part way into a chunk accepted whole
        expected = np.concatenate([d[accept(d)] for d in chunks])[:target]
        assert np.array_equal(result.samples, expected)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("target", [300, 5_500])
    def test_stream_hands_on_the_rows_in_order(self, threads, target, monkeypatch):
        # at about one in two, 300 rows end in chunk 0 of 1,000, so the
        # other chunks the pool starts with go unused; 5,500 rows take 12
        def accept(d):
            return d[:, 0] > d[:, 1]

        monkeypatch.setattr(mc, "CHUNK_SIZE", 1000)
        rng = mc.RngStream(11)
        chunks, masks = [], []

        def consume(chunk, kept):
            chunks.append(chunk.copy())
            masks.append(kept.copy())

        threads_before = threading.active_count()
        counters = mc.rejection_stream(
            uniform_pair_proposal, accept, target, rng, consume, threads=threads
        )
        assert threading.active_count() == threads_before
        alone = mc.rejection_sample(uniform_pair_proposal, accept, target, rng, threads=1)
        assert counters == (alone.acceptance_rate, alone.n_proposed, alone.n_chunks)
        # each chunk taken is handed on once, in order, as drawn, with the
        # mask of its rows that pass, up to the target and none past it
        assert len(chunks) == len(masks) == alone.n_chunks
        for c, (chunk, kept) in enumerate(zip(chunks, masks)):
            draws = uniform_pair_proposal(rng.chunk_generator(c), 1000)
            assert np.array_equal(chunk, draws)
            assert kept.dtype == bool and kept.shape == (1000,)
            if c < len(chunks) - 1:
                assert np.array_equal(kept, accept(draws))
        last = np.flatnonzero(masks[-1])
        assert np.array_equal(masks[-1], accept(chunks[-1]) & (np.arange(1000) <= last[-1]))
        assert sum(int(kept.sum()) for kept in masks) == target
        assert np.array_equal(np.concatenate([d[k] for d, k in zip(chunks, masks)]),
                              alone.samples)
        index = np.concatenate([np.flatnonzero(k) + 1000 * c for c, k in enumerate(masks)])
        assert np.array_equal(index, alone.index)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_stream_hands_on_chunks_that_keep_nothing(self, threads, monkeypatch):
        # at about one in twenty, most chunks of 10 keep no row; each is
        # still handed on, whole, with a mask that keeps nothing
        def accept(d):
            return d[:, 0] > 0.95

        monkeypatch.setattr(mc, "CHUNK_SIZE", 10)
        rng = mc.RngStream(13)
        calls = []

        def consume(chunk, kept):
            assert chunk.shape == (10, 2) and kept.shape == (10,)
            calls.append(int(kept.sum()))

        _, n_proposed, n_chunks = mc.rejection_stream(
            uniform_pair_proposal, accept, 40, rng, consume, threads=threads)
        assert len(calls) == n_chunks == n_proposed // 10 and sum(calls) == 40
        assert calls.count(0) > n_chunks // 2

    def test_one_thread_is_a_pool_of_one(self, monkeypatch):
        # EVIDENTIAL_WEIGHT_THREADS=1 draws every chunk on one worker thread,
        # not the caller's, to the same rows and counters as two threads do
        def accept(d):
            return d[:, 0] > d[:, 1]

        workers = []

        def proposal(gen, n):
            workers.append(threading.get_ident())
            return uniform_pair_proposal(gen, n)

        monkeypatch.setattr(mc, "CHUNK_SIZE", 1000)
        rng = mc.RngStream(12)
        monkeypatch.setenv("EVIDENTIAL_WEIGHT_THREADS", "2")
        pooled = mc.rejection_sample(uniform_pair_proposal, accept, 5_500, rng)
        monkeypatch.setenv("EVIDENTIAL_WEIGHT_THREADS", "1")
        threads_before = threading.active_count()
        alone = mc.rejection_sample(proposal, accept, 5_500, rng)
        assert threading.active_count() == threads_before
        assert len(workers) == alone.n_chunks > 1
        assert len(set(workers)) == 1 and workers[0] != threading.get_ident()
        assert np.array_equal(alone.samples, pooled.samples)
        assert np.array_equal(alone.index, pooled.index)
        assert (alone.acceptance_rate, alone.n_proposed, alone.n_chunks) == (
            pooled.acceptance_rate, pooled.n_proposed, pooled.n_chunks)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_stream_consumer_error_propagates_and_stops_the_workers(self, threads, monkeypatch):
        class Stop(Exception):
            pass

        def consume(chunk, kept):
            raise Stop

        monkeypatch.setattr(mc, "CHUNK_SIZE", 1000)
        threads_before = threading.active_count()
        with pytest.raises(Stop):
            mc.rejection_stream(
                uniform_pair_proposal, lambda d: d[:, 0] > d[:, 1], 5_500, mc.RngStream(11),
                consume, threads=threads,
            )
        assert threading.active_count() == threads_before

    def test_rejects_nonpositive_target(self):
        with pytest.raises(DomainError):
            mc.rejection_sample(
                uniform_pair_proposal, lambda d: np.ones(len(d), dtype=bool), 0, mc.RngStream(0)
            )


class TestIntegrate2d:
    def test_constant_on_unit_square(self):
        value = integrate_2d(lambda a, b: np.ones_like(a), UNIT_SQUARE)
        assert value == pytest.approx(1.0, rel=1e-9)

    def test_product_xy(self):
        value = integrate_2d(lambda a, b: a * b, UNIT_SQUARE)
        assert value == pytest.approx(0.25, rel=1e-9)

    def test_separable_equals_product_of_1d(self):
        spec = mc.QuadratureSpec(0.0, 2.0, -1.0, 1.0, rel_tol=1e-8, max_refinements=6)
        value = integrate_2d(lambda a, b: np.exp(-a) * np.cos(b) ** 2, spec)
        ga, _ = integrate.quad(lambda a: math.exp(-a), 0.0, 2.0)
        gb, _ = integrate.quad(lambda b: math.cos(b) ** 2, -1.0, 1.0)
        assert value == pytest.approx(ga * gb, rel=2 * spec.rel_tol)

    def test_scalar_callable_supported(self):
        value = integrate_2d(lambda a, b: float(a) + float(b), UNIT_SQUARE)
        assert value == pytest.approx(1.0, rel=1e-9)

    def test_nonconvergence_error_carries_estimates(self):
        # an oscillatory integrand the coarse ladder cannot settle
        spec = mc.QuadratureSpec(
            0.0, 1.0, 0.0, 1.0, rel_tol=1e-14, max_refinements=1, base_panels=1, gauss_order=1
        )
        with pytest.raises(QuadratureConvergenceError) as err:
            integrate_2d(lambda a, b: np.sin(40 * a) ** 2 + np.cos(37 * b) ** 2, spec)
        assert len(err.value.last_two_estimates) == 2

    def test_log_variant_matches_linear(self):
        spec = mc.QuadratureSpec(0.1, 3.0, 0.1, 3.0, rel_tol=1e-9, max_refinements=6)
        linear = integrate_2d(lambda a, b: np.exp(-a * b) * a, spec)
        logged = mc.log_integrate_2d(lambda a, b: -a * b + np.log(a), spec)
        assert math.log(linear) == pytest.approx(logged, abs=1e-9)

    def test_log_variant_handles_huge_scale(self):
        spec = mc.QuadratureSpec(0.0, 1.0, 0.0, 1.0, rel_tol=1e-9, max_refinements=6)
        logged = mc.log_integrate_2d(lambda a, b: 5000.0 + np.zeros_like(a), spec)
        assert logged == pytest.approx(5000.0, abs=1e-9)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            mc.QuadratureSpec(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            mc.QuadratureSpec(0.0, 1.0, 0.0, 1.0, rel_tol=-1.0)


class TestSamplerHelpers:
    def test_wishart_mean(self):
        scale = np.array([[0.1, -0.08], [-0.08, 0.1]])
        df, n = 2.0, 200_000
        draws = sample_wishart(scale, df, mc.RngStream(10), size=n)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / math.sqrt(n)
        np.testing.assert_array_less(np.abs(mean - df * scale), 4 * se)

    def test_wishart_requires_df_at_least_dim(self):
        with pytest.raises(DomainError):
            sample_wishart(np.eye(2), 1.5, mc.RngStream(0))
