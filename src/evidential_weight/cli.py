"""Command-line front end.

Each subcommand ingests priors and validation data, runs one opinion
module, and writes ``result.json`` (or ``result.csv``), figure-data CSVs,
and a ``manifest.json`` recording everything needed to reproduce the run.
Every CSV starts with a comment line carrying the manifest digest.

Exit codes: 0 on success, 2 on input errors, 3 on numerical failures
(intractable constraints, quadrature non-convergence).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, categorical, coin_oracle, interval_opinion, mc, multi_expert, scalar_opinion
from .core import Scenario
from .errors import (
    ConstraintIntractableError,
    DomainError,
    InputFormatError,
    QuadratureConvergenceError,
)

DEFAULT_SEED = 1
DEFAULT_SAMPLES = 1_000_000

DEFAULT_SCALAR_PRIORS = {
    Scenario.H1: scalar_opinion.NormalGammaParams(5.0, 1.0, 0.01, 1.0),
    Scenario.H2: scalar_opinion.NormalGammaParams(-5.0, 1.0, 0.01, 1.0),
}
DEFAULT_WIDTH_PRIORS = {
    Scenario.H1: interval_opinion.GammaConjParams.from_p(9.0, 6.0, 2.0, 2.0),
    Scenario.H2: interval_opinion.GammaConjParams.from_p(9.0, 6.0, 2.0, 2.0),
}


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
    """Collects outputs for one command and writes them with a manifest."""

    def __init__(self, out_dir: Path, command: str, seed: int, n_samples: int,
                 parameters: dict, input_paths: list[Path]):
        self.out_dir = out_dir
        self.started = time.perf_counter()
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
        self.out_dir.mkdir(parents=True, exist_ok=True)
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
        self.out_dir.mkdir(parents=True, exist_ok=True)
        lines = [f"# manifest={self.digest}", ",".join(header)]
        for row in rows:
            lines.append(",".join(str(v) for v in row))
        (self.out_dir / name).write_text("\n".join(lines) + "\n")

    def write_manifest(self, diagnostics: dict | None = None) -> None:
        """Write ``manifest.json``; ``diagnostics`` entries join it outside the digest."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        manifest = dict(diagnostics or {})
        manifest.update(self.core)
        manifest["manifest_digest"] = self.digest
        manifest["wall_time_s"] = time.perf_counter() - self.started
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


# ----------------------------------------------------------------------
# input parsing
# ----------------------------------------------------------------------

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


def _load_conclusion_counts(path: Path) -> categorical.ConclusionCounts:
    if path.suffix.lower() == ".json":
        return categorical.ConclusionCounts.from_json_obj(_load_json(path), path=str(path))
    return categorical.ConclusionCounts.from_csv_rows(_read_lines(path), path=str(path))


def _parse_scenario_field(text: str, path: Path, lineno: int) -> Scenario:
    try:
        return Scenario.parse(text)
    except DomainError as exc:
        raise InputFormatError(str(exc), path=str(path), line=lineno) from exc


def _parse_float_field(text: str, name: str, path: Path, lineno: int) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise InputFormatError(f"bad {name} value {text!r}", path=str(path), line=lineno) from exc


def _load_scenario_csv(path: Path, n_fields: int, header: str) -> dict[Scenario, list[tuple]]:
    """Rows ``scenario,<floats...>`` grouped by scenario; header optional."""
    grouped: dict[Scenario, list[tuple]] = {Scenario.H1: [], Scenario.H2: []}
    saw_row = False
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line.lower().replace(" ", "") == header:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != n_fields:
            raise InputFormatError(
                f"expected {n_fields} fields '{header}', got {len(parts)}",
                path=str(path), line=lineno,
            )
        scen = _parse_scenario_field(parts[0], path, lineno)
        values = tuple(
            _parse_float_field(parts[i], header.split(",")[i], path, lineno)
            for i in range(1, n_fields)
        )
        grouped[scen].append(values)
        saw_row = True
    if not saw_row:
        raise InputFormatError("no data rows found", path=str(path))
    return grouped


def _load_scalar_priors(path: Path | None) -> dict[Scenario, scalar_opinion.NormalGammaParams]:
    if path is None:
        return dict(DEFAULT_SCALAR_PRIORS)
    obj = _load_json(path)
    try:
        return {
            scen: scalar_opinion.NormalGammaParams.from_dict(obj[scen.value])
            for scen in Scenario
        }
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        raise InputFormatError(f"bad scalar prior JSON: {exc}", path=str(path)) from exc


def _load_width_priors(path: Path | None) -> dict[Scenario, interval_opinion.GammaConjParams]:
    if path is None:
        return dict(DEFAULT_WIDTH_PRIORS)
    obj = _load_json(path)
    try:
        return {
            scen: interval_opinion.GammaConjParams.from_dict(obj[scen.value])
            for scen in Scenario
        }
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        raise InputFormatError(f"bad width prior JSON: {exc}", path=str(path)) from exc


def _load_pair_priors(path: Path) -> dict[Scenario, multi_expert.NormalWishartParams]:
    obj = _load_json(path)
    try:
        return {
            scen: multi_expert.NormalWishartParams.from_dict(obj[scen.value])
            for scen in Scenario
        }
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        raise InputFormatError(f"bad pair prior JSON: {exc}", path=str(path)) from exc


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InputFormatError(f"bad {flag} list {text!r}: {exc}") from exc
    if not values:
        raise InputFormatError(f"{flag} list is empty")
    return values


def _parse_grid(text: str, flag: str) -> np.ndarray:
    """Parse 'lo:hi:count' into a linspace grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InputFormatError(f"{flag} must look like 'lo:hi:count', got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputFormatError(f"bad {flag} {text!r}: {exc}") from exc
    if count < 1 or not lo < hi:
        raise InputFormatError(f"{flag} needs lo < hi and count >= 1, got {text!r}")
    return np.linspace(lo, hi, count)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_categorical(args) -> int:
    out_dir = Path(args.out)
    counts = _load_conclusion_counts(Path(args.validation)) if args.validation else None
    conclusion = categorical.Conclusion.parse(args.conclusion)
    sweep_sizes = _parse_int_list(args.sweep, "--sweep") if args.sweep else None

    writer = RunWriter(
        out_dir,
        command=_command_string(args),
        seed=args.seed,
        n_samples=args.samples,
        parameters={
            "conclusion": conclusion.name.lower(),
            "counts": None if counts is None else {"H1": list(counts.h1), "H2": list(counts.h2)},
            "sweep": sweep_sizes,
        },
        input_paths=[Path(args.validation)] if args.validation else [],
    )

    rng = mc.RngStream(args.seed)
    samples = categorical.sample_rate_pairs(counts, args.samples, rng)
    estimate = categorical.lr_from_samples(samples, conclusion)
    writer.write_result(
        {
            "conclusion": conclusion.name.lower(),
            "lr_estimate": estimate.to_dict(),
        },
        fmt=args.format,
    )

    for grid_conclusion in categorical.Conclusion:
        centers, grid = categorical.density_grid(samples, grid_conclusion)
        rows = (
            (centers[i], centers[j], grid[i, j])
            for i in range(centers.size)
            for j in range(centers.size)
        )
        writer.write_csv(
            f"density_grid_{grid_conclusion.name.lower()}.csv",
            ["p_bin", "q_bin", "density"],
            rows,
        )

    if sweep_sizes:
        if counts is None:
            raise InputFormatError("--sweep requires --validation counts to rescale")
        sweep = categorical.lr_sweep(counts, sweep_sizes, args.samples, rng)
        rows = [
            (
                row.size,
                row.conclusion.name.lower(),
                row.estimate.lr,
                row.estimate.mc_std_err,
                sweep.asymptotes[row.conclusion],
            )
            for row in sweep.rows
        ]
        writer.write_csv(
            "sweep.csv", ["size", "conclusion", "lr", "mc_std_err", "asymptote"], rows
        )

    writer.write_manifest()
    return 0


def _cmd_scalar(args) -> int:
    out_dir = Path(args.out)
    priors = _load_scalar_priors(Path(args.priors) if args.priors else None)
    posteriors = dict(priors)
    input_paths = [Path(p) for p in (args.priors, args.validation) if p]
    if args.validation:
        grouped = _load_scenario_csv(Path(args.validation), 2, "scenario,log10_lr")
        for scen, rows in grouped.items():
            if rows:
                summary = scalar_opinion.ScalarValidationSummary.from_values(
                    [v[0] for v in rows]
                )
                posteriors[scen] = scalar_opinion.update_normal_gamma(priors[scen], summary)

    writer = RunWriter(
        out_dir,
        command=_command_string(args),
        seed=args.seed,
        n_samples=0,
        parameters={
            "r": args.r,
            "priors": {s.value: p.to_dict() for s, p in priors.items()},
            "posteriors": {s.value: p.to_dict() for s, p in posteriors.items()},
        },
        input_paths=input_paths,
    )

    estimate = scalar_opinion.lr_for_scalar(
        args.r, posteriors[Scenario.H1], posteriors[Scenario.H2]
    )
    writer.write_result(
        {
            "r": args.r,
            "lr_estimate": estimate.to_dict(),
            "posteriors": {s.value: p.to_dict() for s, p in posteriors.items()},
        },
        fmt=args.format,
    )

    grid = _parse_grid(args.grid, "--grid")
    curve = scalar_opinion.lr_curve(posteriors[Scenario.H1], posteriors[Scenario.H2], grid)
    writer.write_csv("lr_curve.csv", ["r", "density_h1", "density_h2", "lr_a"], curve.rows())
    writer.write_manifest()
    return 0


def _cmd_interval(args) -> int:
    out_dir = Path(args.out)
    iv = interval_opinion.LrInterval(args.lo, args.hi)
    mid_priors = _load_scalar_priors(Path(args.mid_priors) if args.mid_priors else None)
    width_priors = _load_width_priors(Path(args.width_priors) if args.width_priors else None)
    mid_post = dict(mid_priors)
    width_post = dict(width_priors)
    input_paths = [
        Path(p) for p in (args.mid_priors, args.width_priors, args.validation) if p
    ]
    if args.validation:
        grouped = _load_scenario_csv(Path(args.validation), 3, "scenario,log10_lo,log10_hi")
        for scen, rows in grouped.items():
            if not rows:
                continue
            mids = [0.5 * (lo + hi) for lo, hi in rows]
            widths = [hi - lo for lo, hi in rows]
            if any(w <= 0 for w in widths):
                raise InputFormatError(
                    "interval rows must satisfy log10_lo < log10_hi",
                    path=str(args.validation),
                )
            mid_post[scen] = scalar_opinion.update_normal_gamma(
                mid_priors[scen], scalar_opinion.ScalarValidationSummary.from_values(mids)
            )
            width_post[scen] = interval_opinion.update_gamma_conj(width_priors[scen], widths)

    spec = interval_opinion.DEFAULT_WIDTH_QUAD_SPEC
    if args.quad_rel_tol is not None:
        spec = dataclasses.replace(spec, rel_tol=args.quad_rel_tol)
    if args.quad_max_refinements is not None:
        spec = dataclasses.replace(spec, max_refinements=args.quad_max_refinements)

    writer = RunWriter(
        out_dir,
        command=_command_string(args),
        seed=args.seed,
        n_samples=0,
        parameters={
            "interval": [args.lo, args.hi],
            "mid_posteriors": {s.value: p.to_dict() for s, p in mid_post.items()},
            "width_posteriors": {s.value: p.to_dict() for s, p in width_post.items()},
            "quadrature": {"rel_tol": spec.rel_tol, "max_refinements": spec.max_refinements},
        },
        input_paths=input_paths,
    )

    result = interval_opinion.lr_for_interval(
        iv,
        mid_post[Scenario.H1], mid_post[Scenario.H2],
        width_post[Scenario.H1], width_post[Scenario.H2],
        spec,
    )
    writer.write_result(
        {
            "interval": [args.lo, args.hi],
            "midpoint": result.midpoint,
            "width": result.width,
            "lr_m": result.lr_m,
            "lr_w": result.lr_w,
            "lr_estimate": result.estimate.to_dict(),
        },
        fmt=args.format,
    )

    w_grid = _parse_grid(args.w_grid, "--w-grid")
    curve = interval_opinion.width_curve(
        width_post[Scenario.H1], width_post[Scenario.H2], w_grid, spec
    )
    writer.write_csv(
        "width_curve.csv", ["w", "density_h1", "density_h2", "lr_w"], curve.rows()
    )
    quadrature = {}
    for i, scen in enumerate((Scenario.H1, Scenario.H2)):
        normalizer = interval_opinion.width_normalizer_diagnostics(width_post[scen], spec)
        quadrature[scen.value] = {
            "boundary_mass_fraction": normalizer["boundary_mass_fraction"],
            "normalizer_levels": normalizer["levels"],
            "normalizer_abs_delta_log": normalizer["abs_delta_log"],
            "curve_levels": curve.levels[i],
            "curve_abs_delta_log": curve.abs_delta_log[i],
        }
    writer.write_manifest({"width_quadrature": quadrature})
    return 0


def _cmd_two_expert(args) -> int:
    out_dir = Path(args.out)
    parts = args.x.split(",")
    if len(parts) != 2:
        raise InputFormatError(f"--x must be 'log10_lr_b,log10_lr_c', got {args.x!r}")
    try:
        x = np.array([float(parts[0]), float(parts[1])])
    except ValueError as exc:
        raise InputFormatError(f"bad --x {args.x!r}: {exc}") from exc

    if args.priors:
        priors = _load_pair_priors(Path(args.priors))
        input_paths = [Path(args.priors)]
    else:
        h1, h2 = multi_expert.PRIOR_PRESETS[args.prior_preset]
        priors = {Scenario.H1: h1, Scenario.H2: h2}
        input_paths = []
    posteriors = dict(priors)
    if args.validation:
        input_paths.append(Path(args.validation))
        grouped = _load_scenario_csv(
            Path(args.validation), 3, "scenario,log10_lr_b,log10_lr_c"
        )
        for scen, rows in grouped.items():
            if rows:
                summary = multi_expert.PairedLrSummary.from_values(rows)
                posteriors[scen] = multi_expert.posterior_params(
                    priors[scen], summary, args.wishart
                )

    sweep_sizes = _parse_int_list(args.sweep, "--sweep") if args.sweep else None
    writer = RunWriter(
        out_dir,
        command=_command_string(args),
        seed=args.seed,
        n_samples=0,
        parameters={
            "x": [float(v) for v in x],
            "df_convention": args.df,
            "wishart_matrix": args.wishart,
            "prior_preset": None if args.priors else args.prior_preset,
            "priors": {s.value: p.to_dict() for s, p in priors.items()},
        },
        input_paths=input_paths,
    )

    estimate = multi_expert.lr_for_pair(
        x, posteriors[Scenario.H1], posteriors[Scenario.H2], args.df, args.wishart
    )
    writer.write_result(
        {
            "x": [float(v) for v in x],
            "df_convention": args.df,
            "wishart_matrix": args.wishart,
            "lr_estimate": estimate.to_dict(),
        },
        fmt=args.format,
    )

    if sweep_sizes is not None:
        sweep = multi_expert.pair_lr_sweep(
            x,
            priors[Scenario.H1],
            priors[Scenario.H2],
            sweep_sizes,
            df_convention=args.df,
            wishart_matrix=args.wishart,
        )
        writer.write_csv(
            "pair_sweep.csv", ["m", "lr_a"], ((row.m, row.estimate.lr) for row in sweep.rows)
        )
    writer.write_manifest()
    return 0


def _cmd_coin(args) -> int:
    out_dir = Path(args.out)
    seq = coin_oracle.TossSequence.from_string(args.seq)
    writer = RunWriter(
        out_dir,
        command=_command_string(args),
        seed=args.seed,
        n_samples=0,
        parameters={"seq": "".join(seq.tosses)},
        input_paths=[],
    )
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
    writer.write_result(result, fmt=args.format)
    writer.write_manifest()
    return 0


# ----------------------------------------------------------------------
# parser wiring
# ----------------------------------------------------------------------

def _command_string(args) -> str:
    return " ".join(args._argv)


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
                   help="accepted Monte Carlo draws")
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
    p.add_argument("--prior-preset", dest="prior_preset",
                   choices=sorted(multi_expert.PRIOR_PRESETS), default="default")
    p.add_argument("--df", choices=["n0", "n0-1"],
                   default=multi_expert.DEFAULT_DF_CONVENTION,
                   help="degrees-of-freedom convention for the marginal t")
    p.add_argument("--wishart", choices=["scale", "rate"],
                   default=multi_expert.DEFAULT_WISHART_MATRIX,
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
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = ["evidential-weight"] + argv
    try:
        return args.func(args)
    except (InputFormatError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConstraintIntractableError, QuadratureConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
