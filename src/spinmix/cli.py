"""Command-line front end.

Subcommands: rho | pmf | distinguish | urn.  All results go to stdout,
diagnostics to stderr; exit status is 0 exactly when no error occurred.
JSON encodes complex entries as [re, im] pairs, matrices as row-major
nested arrays, and floats with 17 significant digits so output is
byte-identical across reruns and parses back losslessly.  Each distinct
float of an array is formatted once, and the array is written one row per
`%` call from a row template built once per array.

`--n` may be omitted: a fixed: literal then takes n from its counts, and
presets, iid: literals and `urn` use n = 10.  `rho` prints at most
k = 10 particles (an x-basis dump at k = 10 is already about 50-100 MB of
JSON).  Count pmfs, count figures and Monte Carlo runs take n up to
COUNT_N_CAP = 10**6; a larger n ends in one `error:` line before any array
of that size is allocated, and so does running out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .discrimination import build_report
from .ensembles import (
    CountPmf,
    ensemble_literal,
    make_urn,
    parse_ensemble,
    reduced_density_matrix,
)
from .measurement import exact_count_pmf, monte_carlo_count_pmf, pmf_moments
from .spin import X_AXIS, Z_AXIS, axis_basis_matrix, axis_label, parse_axis


# Largest k whose matrices `rho` prints; the library's PARTICLE_CAP is larger.
RHO_CAP = 10
# Ensemble size for presets, iid: literals and urns when --n is omitted.
DEFAULT_N = 10
N_HELP = f"ensemble size; if omitted, a fixed: literal's total count, else {DEFAULT_N}"


def _float_texts(a: np.ndarray) -> list:
    """format(x, ".17g") of every float of `a`, as nested lists of a's shape.

    Each distinct bit pattern is formatted once; keying on bits rather than
    values keeps -0.0 apart from 0.0.
    """
    flat = np.ascontiguousarray(a, dtype=float).reshape(-1)
    bits, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
    texts = np.array(["%.17g" % x for x in bits.view(float).tolist()], dtype=object)
    return texts[inverse].reshape(a.shape).tolist()


def _array_text(a: np.ndarray) -> str:
    """A complex matrix as rows of [re, im] cells, or a real vector.

    The floats' texts come from _float_texts; the row template is built once
    and each row costs one `%` call.
    """
    if np.iscomplexobj(a):
        rows = np.ascontiguousarray(a, dtype=complex).view(float)
        template = "[" + ", ".join(["[%s, %s]"] * (rows.shape[1] // 2)) + "]"
        return "[" + ", ".join(template % tuple(row) for row in _float_texts(rows)) + "]"
    return "[" + ", ".join(_float_texts(a)) + "]"


def _json_text(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return format(float(value), ".17g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return _array_text(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _parse_spec(text: str, n: int | None):
    """parse_ensemble, with DEFAULT_N for presets and iid: literals when n is
    omitted; a fixed: literal then takes n from its counts."""
    if n is None and text.partition(":")[0].strip().lower() != "fixed":
        n = DEFAULT_N
    return parse_ensemble(text, n)


def cmd_rho(args) -> str:
    spec = _parse_spec(args.ensemble, args.n)
    if args.k > RHO_CAP:
        raise ValueError(f"k = {args.k} exceeds the particle cap {RHO_CAP}")
    rho = reduced_density_matrix(spec, args.k)
    payload = {
        "command": "rho",
        "ensemble": ensemble_literal(spec),
        "n": spec.n,
        "k": args.k,
        "matrix": rho.matrix,
    }
    if args.basis == "x":
        payload["matrix_x"] = axis_basis_matrix(rho, X_AXIS)
    return _json_text(payload) + "\n"


def _pmf_csv(pmf: CountPmf, empirical: CountPmf | None) -> str:
    columns = [pmf.probabilities]
    header = "count,probability"
    if empirical is not None:
        columns.append(empirical.probabilities)
        header += ",empirical"
    row = "%d" + ",%s" * len(columns) + "\n"
    table = _float_texts(np.column_stack(columns))
    return header + "\n" + "".join(row % (m, *cells) for m, cells in enumerate(table))


def _check_sampling(args) -> None:
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")


def _pmf_output(args, payload: dict, spec, axis) -> str:
    pmf = exact_count_pmf(spec, axis)
    _check_sampling(args)
    mean, variance = pmf_moments(pmf)
    empirical = None
    if args.trials > 0:
        empirical = monte_carlo_count_pmf(spec, axis, args.trials, args.seed, workers=args.workers)
    if args.format == "csv":
        return _pmf_csv(pmf, empirical)
    payload["exact"] = pmf.probabilities
    payload["mean"] = mean
    payload["variance"] = variance
    if empirical is not None:
        payload["empirical"] = empirical.probabilities
        payload["trials"] = args.trials
        payload["seed"] = args.seed
    return _json_text(payload) + "\n"


def cmd_pmf(args) -> str:
    spec = _parse_spec(args.ensemble, args.n)
    axis = parse_axis(args.axis)
    payload = {
        "command": "pmf",
        "ensemble": ensemble_literal(spec),
        "n": spec.n,
        "axis": axis_label(axis),
    }
    return _pmf_output(args, payload, spec, axis)


def cmd_urn(args) -> str:
    spec = make_urn(args.n, args.black)
    payload = {
        "command": "urn",
        "ensemble": ensemble_literal(spec),
        "n": spec.n,
        "black": args.black,
    }
    # Counting z+ outcomes along z is exactly counting black balls, so both
    # columns come from the count law along z.
    return _pmf_output(args, payload, spec, Z_AXIS)


def cmd_distinguish(args) -> str:
    _check_sampling(args)
    a = _parse_spec(args.a, args.n)
    b = _parse_spec(args.b, args.n)
    if a.n != b.n:
        raise ValueError(f"--a and --b differ in n: {a.n} vs {b.n}")
    axes = [parse_axis(t) for t in (args.axis or ["x", "z"])]
    report = build_report(
        a,
        b,
        labels=(args.a.strip(), args.b.strip()),
        k_max=args.kmax,
        axes=axes,
        trials=args.trials,
        master_seed=args.seed,
        workers=args.workers,
    )
    return _json_text({"command": "distinguish", **report}) + "\n"


def _add_sampling(sub) -> None:
    sub.add_argument("--trials", type=int, default=0, help="Monte Carlo trials (0 = exact only)")
    sub.add_argument("--seed", type=int, default=0, help="master seed for Monte Carlo streams")
    sub.add_argument("--workers", type=int, default=1,
                     help="threads for Monte Carlo blocks (at most the CPU count)")


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = argparse.ArgumentParser(
        prog="spinmix",
        description="Exact and sampled statistics of fixed vs randomly mixed spin-1/2 ensembles.",
        formatter_class=fmt,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rho = sub.add_parser("rho", help="k-particle reduced density matrix", formatter_class=fmt)
    rho.add_argument("--ensemble", default="S", help="preset A|B|S[:axis] or fixed:/iid: literal")
    rho.add_argument("--n", type=int, default=None, help=N_HELP)
    rho.add_argument("--k", type=int, default=2,
                     help=f"number of particles kept, at most {RHO_CAP}")
    rho.add_argument("--basis", choices=["z", "x"], default="z",
                     help="x additionally prints the matrix in the x product basis")
    rho.set_defaults(func=cmd_rho)

    pmf = sub.add_parser("pmf", help="exact (and sampled) +1-count distribution",
                         formatter_class=fmt)
    pmf.add_argument("--ensemble", default="S", help="preset A|B|S[:axis] or fixed:/iid: literal")
    pmf.add_argument("--n", type=int, default=None, help=N_HELP)
    pmf.add_argument("--axis", default="z", help="measurement axis: x, y, z or ux,uy,uz")
    pmf.set_defaults(func=cmd_pmf)

    urn = sub.add_parser("urn", help="black-ball count distribution of an urn",
                         formatter_class=fmt)
    urn.add_argument("--n", type=int, default=DEFAULT_N, help="number of balls")
    urn.add_argument("--black", type=int, default=None,
                     help="exact black-ball count (omit for random mixing)")
    urn.set_defaults(func=cmd_urn)
    for counts in (pmf, urn):
        counts.add_argument("--format", choices=["json", "csv"], default="json",
                            help="output format")

    dist = sub.add_parser("distinguish", help="distinguishability report for two ensembles",
                          formatter_class=fmt)
    dist.add_argument("--a", required=True, help="first ensemble literal")
    dist.add_argument("--b", required=True, help="second ensemble literal")
    dist.add_argument("--n", type=int, default=None, help=N_HELP)
    dist.add_argument("--kmax", type=int, default=2, help="largest k for trace distances")
    dist.add_argument("--axis", action="append", default=None,
                      help="measurement axis (repeatable; default: x and z)")
    dist.set_defaults(func=cmd_distinguish)
    for sampled in (pmf, urn, dist):
        _add_sampling(sampled)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.func(args)
    except (ValueError, OverflowError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
