"""Command-line front end.

Each subcommand is a step: it checks all of its inputs, ingests priors
and validation data, runs one opinion module and returns a :class:`Run`.
:func:`main` then writes ``result.json`` (or ``result.csv``), the
figure-data CSVs, and a ``manifest.json`` recording everything needed to
reproduce the run.  Every CSV starts with a comment line carrying the
manifest digest.  A command that fails writes no files.

Loading this module imports neither numpy nor any opinion module: each
step imports the modules it runs, so ``coin``, ``scalar``, ``two-expert``
and ``--help`` run without numpy, and ``scalar`` loads no sampler.  The
steps that compute with numpy run under numpy's float guard
(:func:`_numpy_step`).

Exit codes: 0 on success, 2 on input errors or an output directory that
cannot be written, 3 on numerical failures
(intractable constraints, quadrature non-convergence, an LR beyond the
float range, inputs that take float arithmetic or memory out of range).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import operator
import sys
import time
from array import array
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .core import Scenario, read_scenario_rows
from .errors import (
    ConstraintIntractableError,
    DomainError,
    InputFormatError,
    LrRangeError,
    QuadratureConvergenceError,
)

if TYPE_CHECKING:
    import numpy as np

    from . import categorical

DEFAULT_SEED = 1
DEFAULT_SAMPLES = 1_000_000
#: Any 3 draws span at least 2 antithetic pairs, the units of the standard error.
MIN_SAMPLES = 3
#: 1000 times the default: the main draw alone takes minutes.
MAX_SAMPLES = 1_000_000_000

#: Rows formatted per write of a figure CSV.
_CSV_BLOCK_ROWS = 1 << 12


# ----------------------------------------------------------------------
# manifest and output plumbing
# ----------------------------------------------------------------------

def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class RunWriter:
    """Collects outputs for one command and writes them with a manifest.

    The output directory must exist: :func:`main` creates it.
    """

    def __init__(self, out_dir: Path, command: str, seed: int, n_samples: int,
                 parameters: dict, input_paths: list[Path]):
        self.out_dir = out_dir
        self.core = {
            "command": command,
            "seed": seed,
            "n_samples": n_samples,
            "input_digests": {p.name: _sha256_file(p) for p in input_paths},
            "tool_version": __version__,
            "parameters": parameters,
        }
        # the digest covers what determines the outputs; the command string
        # is recorded but excluded because it embeds the output path
        digested = {k: v for k, v in self.core.items() if k != "command"}
        self.digest = hashlib.sha256(
            json.dumps(digested, sort_keys=True).encode()
        ).hexdigest()

    def write_result(self, result: dict, fmt: str = "json") -> None:
        if fmt == "json":
            payload = dict(result)
            payload["manifest_digest"] = self.digest
            (self.out_dir / "result.json").write_text(
                json.dumps(payload, sort_keys=True, indent=2) + "\n"
            )
        else:
            lines = [f"# manifest={self.digest}", "key,value"]
            for key, value in sorted(_flatten(result).items()):
                lines.append(f"{key},{value}")
            (self.out_dir / "result.csv").write_text("\n".join(lines) + "\n")

    def write_csv(self, name: str, header: list[str], rows) -> None:
        """Write a figure CSV, streaming ``rows`` to the file a block at a time.

        ``rows`` may also be the rows' text, written as it is.
        """
        with open(self.out_dir / name, "w") as fh:
            fh.write(f"# manifest={self.digest}\n{','.join(header)}\n")
            if isinstance(rows, str):
                fh.write(rows)
                return
            rows = iter(rows)
            while block := list(itertools.islice(rows, _CSV_BLOCK_ROWS)):
                fh.write("".join([",".join(map(str, row)) + "\n" for row in block]))

    def write_manifest(self, diagnostics: dict | None = None) -> None:
        """Write ``manifest.json``; ``diagnostics`` entries join it outside the digest."""
        manifest = dict(diagnostics or {})
        manifest.update(self.core)
        manifest["manifest_digest"] = self.digest
        (self.out_dir / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        )


def _flatten(obj, prefix: str = "") -> dict:
    flat = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            flat.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            flat.update(_flatten(v, f"{prefix}{i}."))
    else:
        flat[prefix.rstrip(".")] = obj
    return flat


@dataclasses.dataclass
class Run:
    """What one subcommand computed, ready for :func:`main` to write.

    ``tables`` holds the figure-data CSVs as (file name, header, rows),
    the rows as tuples or as their text.
    ``diagnostics`` joins the manifest outside its digest.
    """

    parameters: dict
    result: dict
    tables: list = dataclasses.field(default_factory=list)
    input_paths: list[Path] = dataclasses.field(default_factory=list)
    n_samples: int = 0
    diagnostics: dict | None = None


# ----------------------------------------------------------------------
# input parsing
# ----------------------------------------------------------------------

def _paths(*texts: str | None) -> list[Path]:
    return [Path(text) for text in texts if text]


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise InputFormatError(f"cannot read file: {exc}", path=str(path)) from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON: {exc}", path=str(path), line=exc.lineno) from exc


def _read_lines(path: Path) -> list[str]:
    try:
        return path.read_text().splitlines()
    except OSError as exc:
        raise InputFormatError(f"cannot read file: {exc}", path=str(path)) from exc


def _load_counts(text: str | None) -> categorical.ConclusionCounts | None:
    from . import categorical

    if not text:
        return None
    path = Path(text)
    if path.suffix.lower() == ".json":
        return categorical.ConclusionCounts.from_json_obj(_load_json(path), path=text)
    return categorical.ConclusionCounts.from_csv_rows(_read_lines(path), path=text)


def _load_scenario_csv(text: str | None, header: str) -> dict[Scenario, list[tuple]] | None:
    """Validation rows ``scenario,<floats...>`` grouped by scenario (None without a file)."""
    if not text:
        return None
    grouped: dict[Scenario, list[tuple]] = {Scenario.H1: [], Scenario.H2: []}
    for scenario, values in read_scenario_rows(_read_lines(Path(text)), header, float, path=text):
        grouped[scenario].append(values)
    return grouped


def _load_priors(text: str | None, params_type, default: tuple) -> dict:
    """H1/H2 parameters of ``params_type`` from a JSON file, else the pair ``default``."""
    if not text:
        return dict(zip(Scenario, default))
    obj = _load_json(Path(text))
    try:
        return {scen: params_type.from_dict(obj[scen.value]) for scen in Scenario}
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        raise InputFormatError(f"bad {params_type.__name__} prior JSON: {exc}", path=text) from exc


def _parse_list(text: str, flag: str, kind=int) -> list:
    try:
        values = [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InputFormatError(f"bad {flag} list {text!r}: {exc}") from exc
    if not values:
        raise InputFormatError(f"{flag} list is empty")
    return values


def _parse_grid(text: str, flag: str) -> array:
    """Parse 'lo:hi:count' into the points of ``numpy.linspace(lo, hi, count)``."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InputFormatError(f"{flag} must look like 'lo:hi:count', got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1 or not lo < hi or not math.isfinite(hi - lo):
            raise ValueError("needs finite lo < hi and count >= 1")
        if count > sys.maxsize // 8:
            raise ValueError("count has more points than an address space holds")
    except ValueError as exc:
        raise InputFormatError(f"bad {flag} {text!r}: {exc}") from exc
    grid = array("d", [0.0]) * count  # one allocation: a count too large fails at once
    delta, div = hi - lo, max(count - 1, 1)
    step = delta / div
    if (count - 1) * step == math.inf:  # where numpy.linspace overflows
        raise OverflowError(f"the points of {flag} {text!r} overflow a float")
    for i in range(count - 1):
        grid[i] = (i * step if step else i / div * delta) + lo
    grid[-1] = hi if count > 1 else lo
    return grid


# ----------------------------------------------------------------------
# the shared update pipeline
# ----------------------------------------------------------------------

def _pair(by_scenario: dict) -> tuple:
    return by_scenario[Scenario.H1], by_scenario[Scenario.H2]


def _to_dicts(by_scenario: dict) -> dict:
    return {scen.value: params.to_dict() for scen, params in by_scenario.items()}


def _update(priors: dict, grouped: dict | None, update) -> dict:
    """Each scenario's prior, updated by ``update(prior, rows)`` where it has rows."""
    return {
        scen: update(prior, grouped[scen]) if grouped and grouped[scen] else prior
        for scen, prior in priors.items()
    }


def _normal_gamma_update(prior, values):
    from . import scalar_opinion

    summary = scalar_opinion.ScalarValidationSummary.from_values(values)
    return scalar_opinion.update_normal_gamma(prior, summary)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _numpy_step(step):
    """Run a subcommand that computes with numpy under numpy's float guard.

    A float overflow, division by zero or invalid operation that no step
    expects raises, and stops the command, rather than running on with
    inf or nan.
    """

    @functools.wraps(step)
    def guarded(args) -> Run:
        import numpy as np

        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return step(args)

    return guarded


@_numpy_step
def _cmd_categorical(args) -> Run:
    from . import categorical, mc

    conclusion = categorical.Conclusion.parse(args.conclusion)
    counts = _load_counts(args.validation)
    sweep_sizes = _parse_list(args.sweep, "--sweep") if args.sweep else None
    if sweep_sizes and counts is None:
        raise InputFormatError("--sweep requires --validation counts to rescale")
    if not MIN_SAMPLES <= args.samples <= MAX_SAMPLES:
        raise InputFormatError(
            f"--samples must be from {MIN_SAMPLES} to {MAX_SAMPLES}, got {args.samples}")
    for size in sweep_sizes or []:
        categorical.scaled_counts(counts, size)  # a size too small raises before any draw
    rng = mc.RngStream(args.seed)
    mc.resolve_threads()  # a bad EVIDENTIAL_WEIGHT_THREADS exits 2 before any draw

    # each table is one run on its own pool: the main draw, with its
    # grids, on substream 0, and sweep size i on substream i + 1.  The main
    # draw estimates the one LR it reports
    main = categorical.summarize_draws(counts, args.samples, rng, bins=100,
                                       conclusions=(conclusion,))
    estimate = main.estimate(conclusion)
    tables = [
        (f"density_grid_{c.name.lower()}.csv", ["p_bin", "q_bin", "density"],
         _grid_rows(*main.density_grid(c)))
        for c in categorical.Conclusion
    ]
    # the kept draws of each table, how many had q_ID integrated out of
    # LR(ID), how many proposals entered the LRs as slice integrals, the
    # sampler's proposals and chunks, and the table's estimator layers
    draws = {"main": main.counters()}
    if sweep_sizes:
        sweep = categorical.lr_sweep(counts, sweep_sizes, args.samples, rng)
        rows = [
            (row.size, row.conclusion.name.lower(), row.estimate.lr,
             row.estimate.mc_std_err, sweep.asymptotes[row.conclusion])
            for row in sweep.rows
        ]
        tables.append(("sweep.csv", ["size", "conclusion", "lr", "mc_std_err", "asymptote"], rows))
        draws["sweep"] = list(sweep.draws)

    return Run(
        parameters={
            "conclusion": conclusion.name.lower(),
            "counts": None if counts is None else {"H1": list(counts.h1), "H2": list(counts.h2)},
            "sweep": sweep_sizes,
        },
        result={"conclusion": conclusion.name.lower(), "lr_estimate": estimate.to_dict()},
        tables=tables,
        input_paths=_paths(args.validation),
        n_samples=args.samples,
        diagnostics={"draws": draws},
    )


def _grid_rows(centers: np.ndarray, grid: np.ndarray) -> str:
    """The rows of a density grid as one text, ``p_bin,q_bin,density`` a line.

    Each ``p_bin,q_bin,`` prefix and each distinct density is formatted
    once, and the lines are joined once.
    """
    import numpy as np

    labels = [str(c) for c in centers.tolist()]
    prefixes = [f"{p_bin},{q_bin}," for p_bin in labels for q_bin in labels]
    values, index = np.unique(grid, return_inverse=True)
    texts = [f"{v}\n" for v in values.tolist()]
    return "".join(map(operator.add, prefixes, map(texts.__getitem__, index.ravel().tolist())))


def _cmd_scalar(args) -> Run:
    from . import scalar_opinion

    grid = _parse_grid(args.grid, "--grid")
    priors = _load_priors(args.priors, scalar_opinion.NormalGammaParams,
                          scalar_opinion.DEFAULT_PRIORS)
    grouped = _load_scenario_csv(args.validation, "scenario,log10_lr")
    posteriors = _update(priors, grouped, lambda prior, rows: _normal_gamma_update(
        prior, [value for value, in rows]))

    estimate = scalar_opinion.lr_for_scalar(args.r, *_pair(posteriors))
    curve = scalar_opinion.lr_curve(*_pair(posteriors), grid)
    return Run(
        parameters={"r": args.r, "priors": _to_dicts(priors), "posteriors": _to_dicts(posteriors)},
        result={
            "r": args.r, "lr_estimate": estimate.to_dict(), "posteriors": _to_dicts(posteriors)
        },
        tables=[("lr_curve.csv", ["r", "density_h1", "density_h2", "lr_a"], curve.rows())],
        input_paths=_paths(args.priors, args.validation),
    )


@_numpy_step
def _cmd_interval(args) -> Run:
    from . import interval_opinion, scalar_opinion

    iv = interval_opinion.LrInterval(args.lo, args.hi)
    w_grid = _parse_grid(args.w_grid, "--w-grid")
    if w_grid[0] <= 0.0:
        raise InputFormatError(f"--w-grid widths must be positive, got {args.w_grid!r}")
    overrides = {"rel_tol": args.quad_rel_tol, "max_refinements": args.quad_max_refinements}
    spec = dataclasses.replace(
        interval_opinion.DEFAULT_WIDTH_QUAD_SPEC,
        **{name: value for name, value in overrides.items() if value is not None},
    )
    mid_priors = _load_priors(args.mid_priors, scalar_opinion.NormalGammaParams,
                              scalar_opinion.DEFAULT_PRIORS)
    width_priors = _load_priors(args.width_priors, interval_opinion.GammaConjParams,
                                interval_opinion.DEFAULT_WIDTH_PRIORS)
    grouped = _load_scenario_csv(args.validation, "scenario,log10_lo,log10_hi")
    if grouped and any(not lo < hi for rows in grouped.values() for lo, hi in rows):
        raise InputFormatError("interval rows must satisfy log10_lo < log10_hi",
                               path=args.validation)
    mid_post = _update(mid_priors, grouped, lambda prior, rows: _normal_gamma_update(
        prior, [0.5 * (lo + hi) for lo, hi in rows]))
    width_post = _update(width_priors, grouped, lambda prior, rows: (
        interval_opinion.update_gamma_conj(prior, [hi - lo for lo, hi in rows])))

    result = interval_opinion.lr_for_interval(iv, *_pair(mid_post), *_pair(width_post), spec)
    curve = interval_opinion.width_curve(*_pair(width_post), w_grid, spec)
    quadrature = {}
    for i, scen in enumerate(Scenario):
        normalizer = interval_opinion.width_normalizer_diagnostics(width_post[scen], spec)
        quadrature[scen.value] = {
            "boundary_mass_fraction": normalizer["boundary_mass_fraction"],
            "normalizer_levels": normalizer["levels"],
            "normalizer_abs_delta_log": normalizer["abs_delta_log"],
            "curve_levels": curve.levels[i],
            "curve_abs_delta_log": curve.abs_delta_log[i],
        }
    return Run(
        parameters={
            "interval": [args.lo, args.hi],
            "mid_posteriors": _to_dicts(mid_post),
            "width_posteriors": _to_dicts(width_post),
            "quadrature": {"rel_tol": spec.rel_tol, "max_refinements": spec.max_refinements},
        },
        result={
            "interval": [args.lo, args.hi],
            "midpoint": iv.midpoint,
            "width": iv.width,
            "lr_m": result.lr_m,
            "lr_w": result.lr_w,
            "lr_estimate": result.estimate.to_dict(),
        },
        tables=[("width_curve.csv", ["w", "density_h1", "density_h2", "lr_w"], curve.rows())],
        input_paths=_paths(args.mid_priors, args.width_priors, args.validation),
        diagnostics={"width_quadrature": quadrature},
    )


def _cmd_two_expert(args) -> Run:
    from . import multi_expert

    x = _parse_list(args.x, "--x", float)
    if len(x) != 2:
        raise InputFormatError(f"--x must be 'log10_lr_b,log10_lr_c', got {args.x!r}")
    sweep_sizes = _parse_list(args.sweep, "--sweep") if args.sweep else None
    if sweep_sizes and min(sweep_sizes) < 0:
        raise InputFormatError(f"--sweep sizes must be >= 0, got {args.sweep!r}")
    priors = _load_priors(args.priors, multi_expert.NormalWishartParams,
                          multi_expert.PRIOR_PRESETS[args.prior_preset])
    grouped = _load_scenario_csv(args.validation, "scenario,log10_lr_b,log10_lr_c")
    posteriors = _update(priors, grouped, lambda prior, rows: multi_expert.posterior_params(
        prior, multi_expert.PairedLrSummary.from_values(rows), args.wishart))

    estimate = multi_expert.lr_for_pair(x, *_pair(posteriors), args.df, args.wishart)
    tables = []
    if sweep_sizes is not None:
        sweep = multi_expert.pair_lr_sweep(
            x, *_pair(priors), sweep_sizes, df_convention=args.df, wishart_matrix=args.wishart
        )
        rows = [(row.m, row.estimate.lr) for row in sweep.rows]
        tables.append(("pair_sweep.csv", ["m", "lr_a"], rows))
    return Run(
        parameters={
            "x": x,
            "df_convention": args.df,
            "wishart_matrix": args.wishart,
            "prior_preset": None if args.priors else args.prior_preset,
            "priors": _to_dicts(priors),
        },
        result={
            "x": x,
            "df_convention": args.df,
            "wishart_matrix": args.wishart,
            "lr_estimate": estimate.to_dict(),
        },
        tables=tables,
        input_paths=_paths(args.priors, args.validation),
    )


def _cmd_coin(args) -> Run:
    from . import coin_oracle

    seq = coin_oracle.TossSequence.from_string(args.seq)
    result = {
        "seq": "".join(seq.tosses),
        "prob_next_heads": {
            "A": coin_oracle.prob_next_heads_A(seq),
            "B": coin_oracle.prob_next_heads_B(seq),
        },
    }
    if len(seq) > 0:
        posterior = coin_oracle.markov_posterior(seq)
        result["prob_next_heads"]["C"] = posterior.prob_next_heads
        result["c_likelihood_weighted"] = posterior.prob_next_heads_likelihood_weighted
    return Run(parameters={"seq": result["seq"]}, result=result)


# ----------------------------------------------------------------------
# parser wiring
# ----------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="RNG seed recorded in the manifest")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=["json", "csv"], default="json",
                        help="result file format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evidential-weight",
        description="Recipient likelihood ratios for expert opinions, "
                    "with validation-data updating.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("categorical", help="LR for a categorical conclusion")
    p.add_argument("--conclusion", choices=["id", "inc", "exc"], default="id")
    p.add_argument("--validation", help="counts JSON or per-row CSV 'scenario,conclusion'")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                   help=f"accepted Monte Carlo draws, from {MIN_SAMPLES} to {MAX_SAMPLES}")
    p.add_argument("--sweep", help="comma-separated study sizes for the size sweep")
    _add_common(p)
    p.set_defaults(func=_cmd_categorical)

    p = sub.add_parser("scalar", help="LR for a reported scalar log10 LR")
    p.add_argument("--r", type=float, required=True, help="reported log10 LR")
    p.add_argument("--priors", help="JSON file with H1/H2 normal-gamma priors")
    p.add_argument("--validation", help="CSV 'scenario,log10_lr'")
    p.add_argument("--grid", default="-30:30:121",
                   help="curve grid 'lo:hi:count' (use --grid=-30:30:121 for negative lo)")
    _add_common(p)
    p.set_defaults(func=_cmd_scalar)

    p = sub.add_parser("interval", help="LR for a reported LR interval")
    p.add_argument("--lo", type=float, required=True, help="lower LR endpoint (linear)")
    p.add_argument("--hi", type=float, required=True, help="upper LR endpoint (linear)")
    p.add_argument("--mid-priors", dest="mid_priors",
                   help="JSON file with H1/H2 normal-gamma midpoint priors")
    p.add_argument("--width-priors", dest="width_priors",
                   help="JSON file with H1/H2 gamma-conjugate width priors")
    p.add_argument("--validation", help="CSV 'scenario,log10_lo,log10_hi'")
    p.add_argument("--w-grid", dest="w_grid", default="0.2:10:50",
                   help="width grid 'lo:hi:count' for width_curve.csv")
    p.add_argument("--quad-rel-tol", dest="quad_rel_tol", type=float, default=None)
    p.add_argument("--quad-max-refinements", dest="quad_max_refinements",
                   type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_interval)

    p = sub.add_parser("two-expert", help="LR for a pair of expert log10 LRs")
    p.add_argument("--x", required=True, help="reported pair 'log10_lr_b,log10_lr_c'")
    p.add_argument("--priors", help="JSON file with H1/H2 normal-Wishart priors")
    # the names and defaults of multi_expert.PRIOR_PRESETS,
    # DEFAULT_DF_CONVENTION and DEFAULT_WISHART_MATRIX, which a test pins,
    # so that the parser does not import the module
    p.add_argument("--prior-preset", dest="prior_preset",
                   choices=["alt", "default"], default="default")
    p.add_argument("--df", choices=["n0", "n0-1"], default="n0",
                   help="degrees-of-freedom convention for the marginal t")
    p.add_argument("--wishart", choices=["scale", "rate"], default="rate",
                   help="reading of the stored matrix as Wishart scale or rate")
    p.add_argument("--validation", help="CSV 'scenario,log10_lr_b,log10_lr_c'")
    p.add_argument("--sweep", help="comma-separated validation sizes, e.g. '0,10,100'")
    _add_common(p)
    p.set_defaults(func=_cmd_two_expert)

    p = sub.add_parser("coin", help="three observers' next-toss probabilities")
    p.add_argument("--seq", required=True, help="toss sequence such as HHHHHTTT")
    _add_common(p)
    p.set_defaults(func=_cmd_coin)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; write its outputs only once it has succeeded."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if [] in vars(args).values():  # argparse reads a flag value of '--' as []
        parser.error("'--' is not a flag value")
    started = time.perf_counter()
    try:
        run = args.func(args)
    except (InputFormatError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConstraintIntractableError, QuadratureConvergenceError, LrRangeError,
            MemoryError) as exc:
        print(f"numerical failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ArithmeticError, ValueError) as exc:  # ValueError: "math domain error"
        print(f"numerical failure: the inputs take float arithmetic out of range ({exc})",
              file=sys.stderr)
        return 3
    writer = RunWriter(Path(args.out), " ".join(["evidential-weight"] + argv), args.seed,
                       run.n_samples, run.parameters, run.input_paths)
    try:
        writer.out_dir.mkdir(parents=True, exist_ok=True)
        writer.write_result(run.result, fmt=args.format)
        for name, header, rows in run.tables:
            writer.write_csv(name, header, rows)
        # the manifest's wall time covers the whole command, writes included
        writer.write_manifest({**(run.diagnostics or {}),
                               "wall_time_s": time.perf_counter() - started})
    except OSError as exc:
        print(f"error: cannot write outputs to {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
