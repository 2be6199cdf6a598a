"""Property tests over the CLI grammar.  Every argv either succeeds with
output that parses, or ends in exactly one `error:` line on stderr; and every
argv built only from valid values succeeds.

Examples are kept cheap by their size (n <= 12, k and kmax <= 4, trials
<= 200), not by a deadline.  Memory-bound inputs are covered by the
address-space-limited child-process tests in test_cli.py.
"""

import contextlib
import csv
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from spinmix.cli import DEFAULT_N, main

AWKWARD = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-200, 1e-13, 1e308, -1.7e308,
           math.inf, -math.inf, math.nan]

components = st.one_of(st.sampled_from(AWKWARD), st.floats(-10.0, 10.0),
                       st.floats(allow_nan=True, allow_infinity=True))
triples = st.tuples(components, components, components).map(
    lambda v: ",".join(repr(u) for u in v))
axes = st.one_of(st.sampled_from(["x", "y", "z", "X", " z "]), triples)


@st.composite
def literals(draw) -> str:
    kind = draw(st.sampled_from(["fixed", "iid"]))
    size = draw(st.integers(1, 4))
    states = [draw(st.one_of(st.sampled_from(["x", "y", "z"]), triples.map("({})".format)))
              + draw(st.sampled_from("+-")) for _ in range(size)]
    if kind == "fixed":
        values = [str(draw(st.integers(-1, 3))) for _ in range(size)]
    else:
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
        total = sum(weights)
        values = [repr(w / total) if total > 0 else repr(w) for w in weights]
        if draw(st.booleans()):
            values[draw(st.integers(0, size - 1))] = repr(draw(components))
    return f"{kind}:" + "/".join(f"{s}*{v}" for s, v in zip(states, values))


ensembles = st.one_of(
    st.sampled_from(["A", "B", "S", "a"]),
    st.builds("{}:{}".format, st.sampled_from(["S", "A"]), axes),
    literals(),
)
sizes = st.one_of(st.none(), st.integers(-2, 12))


def option(name, strategy):
    """`--name=value` pairs, or nothing when the value drawn is None."""
    return st.one_of(st.none(), strategy).map(lambda v: [] if v is None else [f"--{name}={v}"])


def sampling():
    parts = st.tuples(option("trials", st.integers(-2, 200)),
                      option("seed", st.integers(-3, 2**64 + 3)),
                      option("workers", st.integers(-1, 3)))
    return parts.map(lambda groups: [a for group in groups for a in group])


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(["rho", "pmf", "urn", "distinguish"]))
    argv = [command]
    if command == "rho":
        parts = [option("ensemble", ensembles), option("n", sizes),
                 option("k", st.integers(-1, 4)), option("basis", st.sampled_from("zx"))]
    elif command == "pmf":
        parts = [option("ensemble", ensembles), option("n", sizes), option("axis", axes),
                 option("format", st.sampled_from(["json", "csv"])), sampling()]
    elif command == "urn":
        parts = [option("n", st.integers(-2, 12)), option("black", st.integers(-1, 13)),
                 option("format", st.sampled_from(["json", "csv"])), sampling()]
    else:
        parts = [st.tuples(ensembles, ensembles).map(lambda ab: [f"--a={ab[0]}", f"--b={ab[1]}"]),
                 option("n", sizes), option("kmax", st.integers(-1, 4)),
                 st.lists(axes, max_size=2).map(lambda xs: [f"--axis={x}" for x in xs]),
                 sampling()]
    for part in parts:
        argv += draw(part)
    return argv


def reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON output")


def check_csv(text: str) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] in (["count", "probability"], ["count", "probability", "empirical"])
    for m, row in enumerate(rows[1:]):
        assert len(row) == len(rows[0]) and int(row[0]) == m
        assert all(math.isfinite(float(cell)) for cell in row[1:])


@given(argvs())
@settings(max_examples=300)
def test_every_argv_parses_or_ends_in_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
        if "--format=csv" in argv:
            check_csv(out.getvalue())
        else:
            json.loads(out.getvalue(), parse_constant=reject_constant)
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


# ---------------------------------------------------------------------------
# Valid argvs only: each must exit 0, so a wrong rejection fails here.
# ---------------------------------------------------------------------------

# Pairwise distinct states (no two equal up to phase), so any subset is valid.
STATES = [d + s for d in ("x", "y", "z", "(1,1,0)", "(0.6,0,0.8)", "(1,-2,3)") for s in "+-"]
finite = st.floats(allow_nan=False, allow_infinity=False)
valid_axes = st.one_of(
    st.sampled_from(["x", "y", "z"]),
    st.tuples(finite, finite, finite).filter(any).map(lambda v: ",".join(map(repr, v))))


@st.composite
def valid_literal(draw, n: int) -> str:
    """A fixed: literal with counts >= 0 summing to n, or an iid: literal whose
    probabilities sum to 1."""
    states = draw(st.lists(st.sampled_from(STATES), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        cuts = sorted(draw(st.lists(st.integers(0, n), min_size=len(states) - 1,
                                    max_size=len(states) - 1)))
        values = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
        return "fixed:" + "/".join(f"{s}*{c}" for s, c in zip(states, values))
    weights = draw(st.lists(st.integers(0, 4), min_size=len(states), max_size=len(states))
                   .filter(any))
    values = [repr(w / sum(weights)) for w in weights]
    return "iid:" + "/".join(f"{s}*{p}" for s, p in zip(states, values))


def valid_ensemble(n: int):
    presets = ["S", *(["A", "B"] if n % 2 == 0 else [])]
    return st.one_of(st.sampled_from(presets), valid_axes.map("S:{}".format),
                     valid_literal(n))


def n_options(n: int, specs: list[str], omit: bool) -> list[str]:
    """--n, left out when asked to and every spec then resolves to n."""
    resolves = all(s.startswith("fixed:") or n == DEFAULT_N for s in specs)
    return [] if omit and resolves else [f"--n={n}"]


def valid_sampling():
    return st.tuples(st.integers(0, 200), st.integers(0, 2**64 - 1), st.integers(1, 3)).map(
        lambda t: [f"--trials={t[0]}", f"--seed={t[1]}", f"--workers={t[2]}"])


@st.composite
def valid_argvs(draw) -> list[str]:
    command = draw(st.sampled_from(["rho", "pmf", "urn", "distinguish"]))
    n = draw(st.integers(1, 12))
    if command == "urn":
        black = draw(st.one_of(st.none(), st.integers(0, n)))
        return (["urn", f"--n={n}"] + ([] if black is None else [f"--black={black}"])
                + [f"--format={draw(st.sampled_from(['json', 'csv']))}"] + draw(valid_sampling()))
    specs = [draw(valid_ensemble(n)) for _ in range(2 if command == "distinguish" else 1)]
    argv = [command] + n_options(n, specs, draw(st.booleans()))
    if command == "rho":
        return argv + [f"--ensemble={specs[0]}", f"--k={draw(st.integers(1, min(n, 4)))}",
                       f"--basis={draw(st.sampled_from('zx'))}"]
    if command == "pmf":
        return argv + [f"--ensemble={specs[0]}", f"--axis={draw(valid_axes)}",
                       f"--format={draw(st.sampled_from(['json', 'csv']))}"] + draw(valid_sampling())
    axes = draw(st.lists(valid_axes, max_size=2))
    return (argv + [f"--a={specs[0]}", f"--b={specs[1]}",
                    f"--kmax={draw(st.integers(1, min(n, 4)))}"]
            + [f"--axis={x}" for x in axes] + draw(valid_sampling()))


@given(valid_argvs())
@settings(max_examples=100)
def test_every_valid_argv_succeeds(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    if "--format=csv" in argv:
        check_csv(out.getvalue())
    else:
        json.loads(out.getvalue(), parse_constant=reject_constant)
