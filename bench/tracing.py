"""Traced in-process run: spans around calls into each module's public functions.

The program is not modified.  ``instrument`` replaces module attributes
(``mc.rejection_sample``, ``categorical.sample_rate_pairs``, ...) with
wrappers that record spans and counters, and restores them on exit.
Because the program calls these functions through module attributes,
the wrappers see every call the CLI makes.
"""

from __future__ import annotations

import functools
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Spans (name, start, end, parent, op) kept in memory, plus per-op counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[self.op][name] += value

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def as_json(self) -> list[dict]:
        return [dict(zip(("name", "start", "end", "parent", "op"), s)) for s in self.spans]


def _timed(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def instrument(tracer: Tracer, ew):
    """Install span-recording wrappers on the program's public functions."""
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    for module, names in (
        (ew.categorical, ("sample_rate_pairs", "lr_from_samples", "density_grid", "lr_sweep")),
        (ew.interval_opinion, ("lr_for_interval", "width_curve", "width_predictive_density")),
        (ew.scalar_opinion, ("lr_for_scalar", "update_normal_gamma", "lr_curve")),
        (ew.multi_expert, ("lr_for_pair", "pair_lr_sweep", "posterior_params")),
        (ew.coin_oracle, ("markov_posterior",)),
    ):
        short = module.__name__.rsplit(".", 1)[1]
        for name in names:
            patch(module, name, _timed(tracer, f"{short}.{name}", getattr(module, name)))

    for cls, name in (
        (ew.categorical.ConclusionCounts, "from_csv_rows"),
        (ew.categorical.ConclusionCounts, "from_json_obj"),
        (ew.scalar_opinion.ScalarValidationSummary, "from_values"),
        (ew.multi_expert.PairedLrSummary, "from_values"),
    ):
        bound = getattr(cls, name)
        patch(cls, name, classmethod(lambda _cls, *a, _f=bound, **k: _timed(tracer, "cli.parse", _f)(*a, **k)))

    writer = ew.cli.RunWriter
    for name, filename in (
        ("write_result", lambda a, k: "result.csv" if (a[1:2] or [k.get("fmt", "json")])[0] == "csv"
         else "result.json"),
        ("write_csv", lambda a, k: a[0]),
        ("write_manifest", lambda a, k: "manifest.json"),
    ):
        def write(self, *args, _f=getattr(writer, name), _file=filename, **kwargs):
            with tracer.span("cli.write"):
                _f(self, *args, **kwargs)
            tracer.count("cli.bytes_written", (self.out_dir / _file(args, kwargs)).stat().st_size)

        patch(writer, name, write)

    mc = ew.mc

    def rejection_sample(proposal, accept, target_accepted, rng, **kwargs):
        chunk = kwargs.get("chunk_size", mc.CHUNK_SIZE)
        state = {"accepted": 0, "chunks": 0, "needed": None}

        def traced_proposal(gen, n):
            with tracer.span("mc.proposal"):
                return proposal(gen, n)

        def traced_accept(draws):
            with tracer.span("mc.accept"):
                mask = np.asarray(accept(draws), dtype=bool)
            # chunks run in index order with the default single thread
            if state["needed"] is None and state["accepted"] + mask.sum() >= target_accepted:
                kth = np.flatnonzero(mask)[target_accepted - state["accepted"] - 1]
                state["needed"] = state["chunks"] * chunk + int(kth) + 1
            state["accepted"] += int(mask.sum())
            state["chunks"] += 1
            return mask

        with tracer.span("mc.rejection_sample"):
            result = _rejection_sample(traced_proposal, traced_accept, target_accepted, rng, **kwargs)
        drawn = state["chunks"] * chunk
        tracer.count("mc.proposals", drawn)
        tracer.count("mc.chunks", state["chunks"])
        tracer.count("mc.accepted", state["accepted"])
        tracer.count("mc.returned", target_accepted)
        tracer.count("mc.overshoot_proposals", drawn - (state["needed"] or drawn))
        return result

    def log_integrate_2d(logf, spec):
        evaluations = [0]

        def traced_logf(a, b):
            evaluations[0] += 1
            tracer.count("mc.quad_nodes", np.size(a))
            return logf(a, b)

        with tracer.span("mc.log_integrate_2d"):
            value = _log_integrate_2d(traced_logf, spec)
        tracer.count("mc.quad_calls", 1)
        tracer.count("mc.quad_levels", evaluations[0] - 1)
        return value

    _rejection_sample = mc.rejection_sample
    _log_integrate_2d = mc.log_integrate_2d
    patch(mc, "rejection_sample", rejection_sample)
    patch(mc, "log_integrate_2d", log_integrate_2d)
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def op_totals(tracer: Tracer, use_self: bool = False) -> dict[str, dict[int, float]]:
    """Per span name, the summed (inclusive or self) time within each op."""
    times = tracer.self_times() if use_self else [e - s for _, s, e, _, _ in tracer.spans]
    totals: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for (name, _, _, _, op), t in zip(tracer.spans, times):
        totals[name][op] += t
    return totals


def per_call(tracer: Tracer, name: str) -> list[float]:
    return [e - s for n, s, e, _, _ in tracer.spans if n == name]


def layer_metrics(tracer: Tracer, ops: list[int]) -> dict[str, float]:
    """Per-layer metrics: per-op totals take the median over the ops that
    reached the layer; per-call figures take the median over calls."""
    inclusive = op_totals(tracer)
    own = op_totals(tracer, use_self=True)
    counts = tracer.counts

    def op_median(table, name):
        return _median(v for op, v in table[name].items() if op in ops)

    def count_median(name):
        return _median(counts[op][name] for op in ops if counts[op][name] > 0)

    sampled = [op for op in ops if counts[op]["mc.proposals"] > 0]
    quad = [op for op in ops if counts[op]["mc.quad_calls"] > 0]
    return {
        "cli.main_s": op_median(inclusive, "cli.main"),
        "cli.main_self_s": op_median(own, "cli.main"),
        "cli.write_s": op_median(inclusive, "cli.write"),
        "cli.bytes_written": count_median("cli.bytes_written"),
        "cli.parse_s": op_median(inclusive, "cli.parse"),
        "mc.proposal_s": _median(per_call(tracer, "mc.proposal")),
        "mc.accept_s": _median(per_call(tracer, "mc.accept")),
        "mc.proposals": count_median("mc.proposals"),
        "mc.chunks": count_median("mc.chunks"),
        "mc.acceptance_rate": _median(counts[op]["mc.accepted"] / counts[op]["mc.proposals"]
                                      for op in sampled),
        "mc.overshoot_proposals": _median(counts[op]["mc.overshoot_proposals"] for op in sampled),
        "mc.rejection_sample_self_s": op_median(own, "mc.rejection_sample"),
        "mc.quad_calls": count_median("mc.quad_calls"),
        "mc.quad_nodes": count_median("mc.quad_nodes"),
        "mc.quad_levels": _median(counts[op]["mc.quad_levels"] / counts[op]["mc.quad_calls"]
                                  for op in quad),
        "mc.quad_s": op_median(inclusive, "mc.log_integrate_2d"),
        "categorical.sample_rate_pairs_s": op_median(inclusive, "categorical.sample_rate_pairs"),
        "categorical.sample_rate_pairs_self_s": op_median(own, "categorical.sample_rate_pairs"),
        "categorical.accepted_per_s": _median(
            counts[op]["mc.returned"] / inclusive["categorical.sample_rate_pairs"][op] for op in sampled),
        "categorical.lr_from_samples_s": op_median(inclusive, "categorical.lr_from_samples"),
        "categorical.density_grid_s": op_median(inclusive, "categorical.density_grid"),
        "categorical.lr_sweep_s": op_median(inclusive, "categorical.lr_sweep"),
        "interval_opinion.width_curve_s": op_median(inclusive, "interval_opinion.width_curve"),
        "scalar_opinion.lr_for_scalar_us": 1e6 * _median(per_call(tracer, "scalar_opinion.lr_for_scalar")),
        "scalar_opinion.update_us": 1e6 * _median(per_call(tracer, "scalar_opinion.update_normal_gamma")),
        "scalar_opinion.lr_curve_s": op_median(inclusive, "scalar_opinion.lr_curve"),
        "multi_expert.lr_for_pair_us": 1e6 * _median(per_call(tracer, "multi_expert.lr_for_pair")),
        "multi_expert.pair_lr_sweep_ms": 1e3 * _median(per_call(tracer, "multi_expert.pair_lr_sweep")),
        "coin_oracle.markov_posterior_us": 1e6 * _median(per_call(tracer, "coin_oracle.markov_posterior")),
    }


# ----------------------------------------------------------------------
# probes outside the span tree
# ----------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|( +)(\S+)")


def import_times(env) -> tuple[float, float]:
    """(program import total, scipy.stats share) in seconds, from -X importtime.

    The log lists modules children-first, indented by depth.  scipy loads
    ``scipy.stats`` lazily and logs no line for the package itself, so
    its share is the cumulative time of the outermost ``scipy.stats.*``
    modules, which includes whatever they import first.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import evidential_weight.cli"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    entries = []  # (depth, name, cumulative us)
    parent: dict[int, int] = {}
    open_entries: list[int] = []
    for line in proc.stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        depth = (len(match[2]) - 1) // 2
        while open_entries and entries[open_entries[-1]][0] > depth:
            parent[open_entries.pop()] = len(entries)
        open_entries.append(len(entries))
        entries.append((depth, match[3], int(match[1])))

    def is_stats(i):
        return i is not None and entries[i][1].startswith("scipy.stats")

    total = sum(c for d, name, c in entries if d == 0 and name.startswith("evidential_weight"))
    stats = sum(c for i, (_, _, c) in enumerate(entries)
                if is_stats(i) and not is_stats(parent.get(i)))
    return total * 1e-6, stats * 1e-6


def thread_scaling(ew, counts, seed: int) -> float:
    """``sample_rate_pairs`` speed-up from 1 to 2 threads, divided by 2."""
    table = None if counts is None else ew.categorical.ConclusionCounts(counts[:3], counts[3:])
    times = {}
    for threads in (1, 2):
        start = time.perf_counter()
        ew.categorical.sample_rate_pairs(table, 1_000_000, ew.mc.RngStream(seed), threads=threads)
        times[threads] = time.perf_counter() - start
    return times[1] / times[2] / 2.0


def width_probes(ew, states) -> tuple[list[float], list[float]]:
    """Cold normalizer times and warm single-width density times, in ms."""
    io = ew.interval_opinion
    cold, warm = [], []
    for state in states:
        params = io.GammaConjParams(*state)
        io._normalizer_cache.clear()
        start = time.perf_counter()
        io.width_normalizer_diagnostics(params)
        cold.append(1e3 * (time.perf_counter() - start))
        for w in (0.5, 2.0, 5.0):
            start = time.perf_counter()
            io.width_predictive_density(params, w)
            warm.append(1e3 * (time.perf_counter() - start))
    return cold, warm
