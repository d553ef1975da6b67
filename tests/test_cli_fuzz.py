"""Fuzzing the command line with malformed and extreme inputs.

Every input must end in exit code 0 (a result), 2 (input error) or 3
(numerical failure): never an exception, and never a leaked
``RuntimeWarning``, which the suite's warning filter turns into one.  A
failing command must leave its output directory empty.

Each example is either well formed, with values from across the float
range, or malformed anywhere: bad numbers, field counts, JSON and flag
values.
"""

import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from evidential_weight import cli, mc

POSITIVE = st.one_of(
    st.floats(0.01, 100.0),
    st.sampled_from([5e-324, 1e-300, 1e-10, 1e10, 1e300, 3e306, 1.7e308]),
)
NUMBER = st.one_of(
    st.floats(-30.0, 30.0), POSITIVE, st.sampled_from([0.0, -1e300, -1.7e308]), st.floats()
)
SIZE = st.integers(0, 60) | st.sampled_from([10**6, 10**13, 10**19, 10**400])
SCENARIO = st.sampled_from(["H1", "H2", "h2", " H1 "])

NUMBER_TEXT = NUMBER.map(str) | st.sampled_from(
    ["", " ", "1e400", "x", "0x10", "1_0", "--", str(10**400)]
)
SIZE_TEXT = SIZE.map(str) | st.sampled_from(["", "-1", "2.5", "1e3", "x"])
JUNK = st.text(alphabet="0123456789.eE+-:,naifHT x", max_size=16)
BAD_SCENARIO = st.sampled_from(["H3", "", "H1 H2"])


def maybe(strategy: st.SearchStrategy) -> st.SearchStrategy:
    return st.none() | strategy


def ordered(values: st.SearchStrategy) -> st.SearchStrategy:
    """Two distinct ``values`` in increasing order."""
    return st.lists(values, min_size=2, max_size=2, unique=True).map(sorted)


def grid(values: st.SearchStrategy) -> st.SearchStrategy:
    return st.tuples(ordered(values), st.integers(1, 40)).map(
        lambda t: f"{t[0][0]}:{t[0][1]}:{t[1]}"
    )


BAD_GRID = st.tuples(NUMBER_TEXT, NUMBER_TEXT, SIZE_TEXT).map(":".join) | JUNK


def listing(values: st.SearchStrategy, n: int | None = None) -> st.SearchStrategy:
    return st.lists(values.map(str), min_size=n or 1, max_size=n or 4).map(",".join)


def csv_text(header: str, fields: st.SearchStrategy, scenario=SCENARIO) -> st.SearchStrategy:
    """Rows 'scenario,<fields>' with blank lines and an optional header."""
    row = st.tuples(scenario, fields).map(lambda r: ",".join([r[0], *r[1]]))
    lines = st.lists(row | st.just(""), max_size=8)
    return st.tuples(st.booleans(), lines).map(
        lambda t: "\n".join(([header] if t[0] else []) + t[1]) + "\n"
    )


def json_text(fields: dict) -> st.SearchStrategy:
    """A complete H1/H2 JSON object with entries of ``fields``."""
    entry = st.fixed_dictionaries(fields)
    return st.fixed_dictionaries({"H1": entry, "H2": entry}).map(json.dumps)


def bad_json_text(fields: dict) -> st.SearchStrategy:
    """JSON with missing entries or keys, values of the wrong type, or no JSON at all."""
    wrong = st.sampled_from([None, "1", True, [1.0, 2.0], -1.0])
    entry = st.one_of(
        st.fixed_dictionaries({key: value | wrong for key, value in fields.items()}),
        st.dictionaries(st.sampled_from(sorted(fields)), NUMBER),
    )
    obj = st.fixed_dictionaries({"H1": entry, "H2": entry}) | st.dictionaries(
        SCENARIO | BAD_SCENARIO, entry
    )
    return obj.map(json.dumps) | JUNK


def bad_csv(header: str, n_fields: int) -> st.SearchStrategy:
    fields = st.lists(NUMBER_TEXT, min_size=n_fields - 2, max_size=n_fields)
    return csv_text(header, fields, SCENARIO | BAD_SCENARIO) | JUNK


def numbers(n: int) -> st.SearchStrategy:
    return st.lists(NUMBER.map(str), min_size=n, max_size=n)


def either(good: dict, bad: dict) -> st.SearchStrategy:
    """Keyword arguments that are all well formed, or each possibly malformed."""
    anything = {key: st.one_of(good[key], bad[key]) for key in good}
    return st.fixed_dictionaries(good) | st.fixed_dictionaries(anything)


SCALAR_PRIOR = {"mu0": NUMBER, "n_mu": POSITIVE, "tau0": POSITIVE, "n_tau": POSITIVE}
WIDTH_PRIOR = {"p": POSITIVE, "q": POSITIVE, "r": POSITIVE, "s": POSITIVE}
PAIR_PRIOR = {
    "mu0": st.lists(NUMBER, min_size=2, max_size=2),
    "k0": POSITIVE,
    "lambda0": st.lists(NUMBER, min_size=4, max_size=4).map(lambda v: [v[0], v[1], v[1], v[3]])
    | st.sampled_from(
        [[0.1, -0.08, -0.08, 0.1], [1.0, 0.0, 0.0, 1e-300], [1e300, 0.0, 0.0, 1e300]]
    ),
    "n0": POSITIVE,
}
COUNT = st.integers(0, 40) | st.sampled_from([10**6, 10**400])
COUNTS = {"id": COUNT, "inc": COUNT, "exc": COUNT}
CONCLUSION = st.sampled_from(["id", "inc", "exc", "Exclusion"])

SCALAR_ARGS = either(
    {"r": NUMBER.map(str), "grid": grid(NUMBER), "priors": maybe(json_text(SCALAR_PRIOR)),
     "validation": maybe(csv_text("scenario,log10_lr", numbers(1)))},
    {"r": NUMBER_TEXT, "grid": BAD_GRID, "priors": bad_json_text(SCALAR_PRIOR),
     "validation": bad_csv("scenario,log10_lr", 2)},
)
INTERVAL_ARGS = either(
    {"lo_hi": ordered(POSITIVE), "w_grid": grid(POSITIVE),
     "mid_priors": maybe(json_text(SCALAR_PRIOR)), "width_priors": maybe(json_text(WIDTH_PRIOR)),
     "validation": maybe(csv_text("scenario,log10_lo,log10_hi",
                                  ordered(NUMBER).map(lambda v: [str(x) for x in v])))},
    {"lo_hi": st.tuples(NUMBER, NUMBER), "w_grid": BAD_GRID,
     "mid_priors": bad_json_text(SCALAR_PRIOR), "width_priors": bad_json_text(WIDTH_PRIOR),
     "validation": bad_csv("scenario,log10_lo,log10_hi", 3)},
)
TWO_EXPERT_ARGS = either(
    {"x": listing(NUMBER, 2), "sweep": maybe(listing(SIZE)),
     "priors": maybe(json_text(PAIR_PRIOR)),
     "validation": maybe(csv_text("scenario,log10_lr_b,log10_lr_c", numbers(2)))},
    {"x": listing(NUMBER_TEXT) | JUNK, "sweep": listing(SIZE_TEXT) | JUNK,
     "priors": bad_json_text(PAIR_PRIOR),
     "validation": bad_csv("scenario,log10_lr_b,log10_lr_c", 3)},
)
CATEGORICAL_ARGS = either(
    {"samples": st.integers(3, 2000), "sweep": maybe(listing(SIZE)),
     "validation": maybe(json_text(COUNTS) | csv_text(
         "scenario,conclusion", st.lists(CONCLUSION, min_size=1, max_size=1)))},
    {"samples": st.integers(-1, 2) | st.integers(10**9 + 1, 10**19),
     "sweep": listing(SIZE_TEXT) | JUNK,
     "validation": bad_json_text(COUNTS) | csv_text(
         "scenario,conclusion", st.lists(st.sampled_from(["x", "", "id"]), max_size=2))},
)
COIN_ARGS = either(
    {"seq": st.text(alphabet="HTht", max_size=40)},
    {"seq": st.text(alphabet="HTht -", max_size=40) | JUNK},
)


def run_fuzzed(argv: list[str], files: dict) -> int:
    """Run ``argv`` after writing each ``{flag: file text}`` to a file; return its exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i, (flag, text) in enumerate(files.items()):
            if text is not None:
                path = tmp / f"in{i}{'.json' if text.startswith('{') else '.csv'}"
                path.write_text(text)
                argv += [flag, str(path)]
        out = tmp / "out"
        try:
            code = cli.main(argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse rejects a flag value with exit 2
            code = exc.code
        assert code in (0, 2, 3)
        assert out.exists() == (code == 0)
    return code


# the same examples on every run, so that the suite's verdict is reproducible
FUZZ = settings(max_examples=60, deadline=None, derandomize=True)


@FUZZ
@given(args=SCALAR_ARGS)
def test_scalar(args):
    run_fuzzed(["scalar", f"--r={args['r']}", f"--grid={args['grid']}"],
               {"--priors": args["priors"], "--validation": args["validation"]})


@FUZZ
@given(args=INTERVAL_ARGS)
def test_interval(args):
    lo, hi = args["lo_hi"]
    run_fuzzed(["interval", f"--lo={lo}", f"--hi={hi}", f"--w-grid={args['w_grid']}"],
               {"--mid-priors": args["mid_priors"], "--width-priors": args["width_priors"],
                "--validation": args["validation"]})


@FUZZ
@given(args=TWO_EXPERT_ARGS, df=st.sampled_from(["n0", "n0-1"]),
       wishart=st.sampled_from(["scale", "rate"]))
def test_two_expert(args, df, wishart):
    argv = ["two-expert", f"--x={args['x']}", "--df", df, "--wishart", wishart]
    if args["sweep"] is not None:
        argv.append(f"--sweep={args['sweep']}")
    run_fuzzed(argv, {"--priors": args["priors"], "--validation": args["validation"]})


@FUZZ
@given(args=CATEGORICAL_ARGS)
def test_categorical(args):
    argv = ["categorical", f"--samples={args['samples']}"]
    if args["sweep"] is not None:
        argv.append(f"--sweep={args['sweep']}")
    # a small probe budget, so that an unreachable region fails in ms
    with mock.patch.object(mc, "INTRACTABLE_PROBE", 4 * mc.CHUNK_SIZE):
        code = run_fuzzed(argv, {"--validation": args["validation"]})
    if not cli.MIN_SAMPLES <= args["samples"] <= cli.MAX_SAMPLES:
        assert code == 2


@FUZZ
@given(args=COIN_ARGS)
def test_coin(args):
    run_fuzzed(["coin", f"--seq={args['seq']}"], {})
