"""Benchmark of the evidential-weight CLI and library.

    python3 bench/run.py --workload closed-form --seed 1 --seconds 18 --trace 0

One client drives the CLI in a closed loop: one subprocess at a time,
each started after the previous one ended.  A run repeats whole rounds
of the workload's operations until ``--seconds`` have passed (at least
two rounds, so the second round can be compared byte for byte with the
first).  ``--trace 1`` instead calls ``cli.main`` in this process, once
untraced and once with spans around the program's public functions, and
reports per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np

import workloads as W

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: A CLI process still running after this many seconds is killed.
OP_TIMEOUT_S = 150
SETUP_REPEATS = 3
#: Relative standard error that ``to_rse_1e-3_s`` prices an LR at.
TARGET_RSE = 1e-3



def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_us", "us"), ("_s", "s"),
                         ("_mb", "MB"), ("_pct", "%"), ("_rate", "ratio"), ("_2t", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("EVIDENTIAL_WEIGHT_THREADS", None)  # the default thread setting
    return env


def run_process(cmd: list[str], env: dict, cwd: Path, log: Path) -> tuple[int, float, float]:
    """Run one process to its end: (exit code, wall seconds, peak RSS in MB)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=fh, env=env, cwd=cwd)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def same_outputs(a: Path, b: Path) -> bool:
    """Byte-identical output directories, apart from the manifest's wall time."""
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    for name in names:
        x, y = (a / name).read_bytes(), (b / name).read_bytes()
        if name == "manifest.json":
            x, y = json.loads(x), json.loads(y)
            x.pop("wall_time_s", None)
            y.pop("wall_time_s", None)
        if x != y:
            return False
    return True


class Rounds:
    """Attempted/failed counts, correctness problems and the first round's outputs."""

    def __init__(self, workload: W.Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.refs: dict[str, Path] = {}

    def finish_op(self, op: W.Op, code: int, out: Path) -> bool:
        """Record one operation's outcome; check or compare its outputs."""
        self.attempted += 1
        if code != 0:
            self.failed += 1
            shutil.rmtree(out, ignore_errors=True)
            return False
        ref = self.refs.get(op.name)
        if ref is None:
            self.problems += [f"{op.name}: {p}" for p in op.check(out)]
            ref = out.with_name(out.name + ".ref")
            out.rename(ref)
            self.refs[op.name] = ref
        else:
            if not same_outputs(ref, out):
                self.problems.append(f"{op.name}: repeated run gave different outputs")
            shutil.rmtree(out)
        return True

    def finish_round(self, index: int) -> None:
        if index == 0:
            self.problems += self.workload.round_check(self.refs)


def run_untraced(workload: W.Workload, seconds: float, work: Path) -> tuple[Rounds, dict, list[str]]:
    env = cli_env()
    log = work / "process.log"
    setup = []
    for _ in range(SETUP_REPEATS):
        code, wall, _ = run_process(
            [sys.executable, "-c", "import evidential_weight.cli as c; c.build_parser()"], env, work, log)
        if code != 0:
            raise RuntimeError("evidential_weight.cli does not import:\n" + log.read_text())
        setup.append(wall)

    rounds = Rounds(workload)
    samples = []  # (op, wall seconds, squared relative SE, peak RSS MB) per success
    start = time.perf_counter()
    index = 0
    while index < workload.min_rounds or time.perf_counter() - start < seconds:
        for op in workload.ops:
            out = work / op.name
            code, wall, rss = run_process(
                [sys.executable, "-m", "evidential_weight.cli", *op.args, "--out", str(out)],
                env, work, log)
            rse2 = _squared_rse(out) if code == 0 else 0.0
            if rounds.finish_op(op, code, out):
                samples.append((op, wall, rse2, rss))
        rounds.finish_round(index)
        index += 1
    if not samples:
        raise RuntimeError("no operation succeeded:\n" + log.read_text())

    def per_op_mean(value) -> float:
        """Mean over the workload's operations of each operation's median."""
        medians = [statistics.median(value(*s) for s in samples if s[0] is op)
                   for op in workload.ops if any(s[0] is op for s in samples)]
        return statistics.fmean(medians)

    # an LR without Monte Carlo error costs its wall time; one with error
    # costs the time its variance would need to fall to TARGET_RSE^2
    metrics = {
        "setup_s": statistics.median(setup),
        "command_s": per_op_mean(lambda op, w, r, rss: w),
        "to_rse_1e-3_s": per_op_mean(lambda op, w, r, rss: w * r / TARGET_RSE**2 if r > 0 else w),
        "peak_rss_mb": max(rss for *_, rss in samples),
    }
    info = [f"rounds = {index}"]
    for sub in sorted({op.subcommand for op, *_ in samples}):
        walls = [w for op, w, _, _ in samples if op.subcommand == sub]
        info.append(f"{sub.replace('-', '_')}_s = {statistics.median(walls):.4f} s "
                    f"(median of {len(walls)})")
    mc = [w * r for _, w, r, _ in samples if r > 0]
    if mc:
        info.append(f"mc_rse2_s = {statistics.median(mc):.6g} s (median of {len(mc)})")
    return rounds, metrics, info


def _squared_rse(out: Path) -> float:
    """(mc_std_err / lr)^2 of a result, 0 for closed-form results."""
    est = json.loads((out / "result.json").read_text()).get("lr_estimate") or {}
    se = est.get("mc_std_err")
    return (se / est["lr"]) ** 2 if se else 0.0


def _call_main(ew, argv: list[str]) -> tuple[int, float]:
    """``cli.main`` in this process, from a cold width-normalizer cache as in a
    fresh CLI process; an uncaught exception is exit code 1, as in a process."""
    ew.interval_opinion._normalizer_cache.clear()
    start = time.perf_counter()
    try:
        code = ew.cli.main(argv)
    except Exception:  # the CLI process would end in a traceback
        code = 1
    return code, time.perf_counter() - start


def _library_batch(ew, calls) -> tuple[float, list[str]]:
    """One public-API call per generated report: (LRs per second, problems)."""

    def program_states(kind, states):
        if kind == "scalar":
            return [ew.NormalGammaParams(*s) for s in states]
        return [ew.NormalWishartParams(mu0=np.array(mu), k0=k0, lambda0=np.array(lam), n0=n0)
                for mu, k0, lam, n0 in states]

    prepared = [(kind, x, program_states(kind, states)) for kind, (x, states), _ in calls]
    scalar, pair = ew.scalar_opinion.lr_for_scalar, ew.multi_expert.lr_for_pair
    start = time.perf_counter()
    got = [scalar(x, *st) if kind == "scalar" else pair(x, *st) for kind, x, st in prepared]
    rate = len(got) / (time.perf_counter() - start)
    problems = [f"library {kind} at {x}: log10 LR {est.log10_lr!r} vs {want!r}"
                for (kind, (x, _), want), est in zip(calls, got)
                if abs(est.log10_lr - want) > 1e-9 * max(1.0, abs(want))]
    return rate, problems


def run_traced(workload: W.Workload, seconds: float, work: Path, seed: int,
               out_root: Path) -> tuple[Rounds, dict, list[str]]:
    sys.path.insert(0, str(SRC))
    import evidential_weight as ew
    import evidential_weight.cli  # noqa: F401  (the package does not import it)
    import tracing as T

    start = time.perf_counter()
    env = cli_env()
    metrics = {}
    metrics["import.total_s"], metrics["import.scipy_stats_s"] = T.import_times(env)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        metrics["mc.scaling_eff_2t"] = (
            0.0 if workload.scaling_counts is None
            else T.thread_scaling(ew, workload.scaling_counts, seed))
        cold, warm = T.width_probes(ew, workload.width_states)
        rounds, tracer, spent, library, rse2 = _traced_rounds(
            ew, T, workload, start + seconds, work)

    metrics.update(T.layer_metrics(tracer, list(spent)))
    metrics["categorical.mc_rse2_s"] = statistics.median(rse2) if rse2 else 0.0
    metrics["interval_opinion.normalizer_ms"] = statistics.median(cold) if cold else 0.0
    metrics["interval_opinion.width_density_ms"] = statistics.median(warm) if warm else 0.0
    metrics["library.lr_per_s"] = statistics.median(library) if library else 0.0
    untraced = sum(u for u, _ in spent.values())
    metrics["trace.overhead_pct"] = 100.0 * (sum(t for _, t in spent.values()) - untraced) / untraced

    out_root.mkdir(exist_ok=True)
    trace_file = out_root / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({"spans": tracer.as_json(),
                                      "counts": {k: dict(v) for k, v in tracer.counts.items()}}))
    return rounds, metrics, [f"spans = {len(tracer.spans)}, written to {trace_file}"]


def _traced_rounds(ew, T, workload, deadline, work):
    """Whole rounds of (untraced, traced) ``cli.main`` calls per operation,
    until the deadline and at least one."""
    rounds = Rounds(workload)
    tracer = T.Tracer()
    spent = {}  # traced op id -> (untraced s, traced s), successful ops only
    library, rse2 = [], []
    index = 0
    while index < 1 or time.perf_counter() < deadline:
        for op in workload.ops:
            out = work / op.name
            argv = op.args + ["--out", str(out)]
            code, untraced = _call_main(ew, argv)
            rse2_op = _squared_rse(out) if code == 0 else 0.0
            ok = rounds.finish_op(op, code, out)
            tracer.op += 1
            with T.instrument(tracer, ew), tracer.span("cli.main"):
                code, traced = _call_main(ew, argv)
            if rounds.finish_op(op, code, out) and ok:
                spent[tracer.op] = (untraced, traced)
                if rse2_op > 0:
                    rse2.append(untraced * rse2_op)
        if workload.library:
            rate, problems = _library_batch(ew, workload.library)
            library.append(rate)
            if index == 0:
                rounds.problems += problems
            tracer.op += 1  # library calls form an op of their own, outside the CLI figures
            with T.instrument(tracer, ew):
                _library_batch(ew, workload.library)
        rounds.finish_round(index)
        index += 1
    return rounds, tracer, spent, library, rse2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "evidential_weight" / "cli.py").is_file():
        print(f"error: program source not found at {SRC}", file=sys.stderr)
        return 2

    out_root = HERE / "out"
    work = out_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = W.build(args.workload, args.seed, work / "inputs")
        if args.trace:
            rounds, metrics, info = run_traced(workload, args.seconds, work, args.seed, out_root)
        else:
            rounds, metrics, info = run_untraced(workload, args.seconds, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: "
          f"attempted {rounds.attempted}, failed {rounds.failed}")
    for line in info:
        print(f"  {line}")
    for problem in rounds.problems:
        print(f"  CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": not rounds.problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
