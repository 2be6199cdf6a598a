"""The three workloads: stratified rounds of CLI ops, each with its check.

A round holds a fixed multiset of op kinds and sizes, so every seed runs the
same number of ops of each kind.  The seed only picks the order within a
round, the measurement axes, the rho ensemble size and the Monte Carlo seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import sqrt
from typing import Callable

import numpy as np

import oracles as o
from oracles import CheckError, close, expect

# Latency limits: a failed op is charged its own time plus the cap.
CAP_S = {"exact_distances": 5.0, "monte_carlo": 5.0, "exact_outputs": 2.0}
# Rounds per pass: a pass takes about 20 s on the reference machine and holds
# enough ops for a tail percentile with ten samples above it.
PASS_ROUNDS = {"exact_distances": 3, "monte_carlo": 4, "exact_outputs": 4}
MC_TRIALS = 5000
PROBE_TRIALS = 2000

_NAMED = {"x": o.X_PLUS, "y": (0.0, 1.0, 0.0), "z": o.Z_PLUS}


@dataclass(frozen=True)
class Op:
    kind: str
    argv: list[str]
    check: Callable[[str], None]
    trials: int = 0


# ------------------------------------------------------------------ inputs


def oblique_axis(rng: random.Random) -> str:
    """Comma triple with three clearly nonzero components."""
    while True:
        v = [round(rng.uniform(-1, 1), 3) for _ in range(3)]
        u = o.unit(v) if any(v) else (1.0, 0.0, 0.0)
        if min(abs(c) for c in u) > 0.15:
            return ",".join(repr(c) for c in v)


def random_axis(rng: random.Random) -> str:
    return rng.choice(("x", "z", oblique_axis(rng)))


def axis_vector(text: str) -> tuple[float, float, float]:
    return _NAMED[text] if text in _NAMED else o.unit(float(c) for c in text.split(","))


def ensemble(name: str, n: int) -> tuple[str, tuple]:
    """CLI literal and oracle model for a preset or the 3-component literal."""
    if name == "literal":
        return o.fixed_literal(n)
    if name == "iid-literal":
        return o.iid_literal(n)
    return name, o.preset(name, n)


def seed64(rng: random.Random) -> int:
    return rng.randrange(2**63)


# ------------------------------------------------------------------ checks


def matrix(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def first_particle(m: np.ndarray) -> np.ndarray:
    half = m.shape[0] // 2
    return np.trace(m.reshape(2, half, 2, half), axis1=1, axis2=3)


def check_state(m: np.ndarray, k: int, what: str) -> None:
    expect(m.shape == (2**k, 2**k), f"{what}: shape {m.shape}")
    close(complex(np.trace(m)).real, 1.0, 1e-9, f"{what} trace")
    close(complex(np.trace(m)).imag, 0.0, 1e-9, f"{what} trace imaginary part")
    expect(float(np.abs(m - m.conj().T).max()) <= 1e-12, f"{what} is not Hermitian")


def check_rho(out: str, name: str, model, n: int, k: int, basis: str) -> None:
    payload = json.loads(out)
    expect(payload["n"] == n and payload["k"] == k, "n or k not echoed")
    dim = 2**k
    flat = np.full(dim, 2.0**-k)
    pattern = np.array(
        [o.balanced_pattern_weight(n, k, bin(i).count("1")) for i in range(dim)]
    )
    m = matrix(payload["matrix"])
    check_state(m, k, "matrix")
    err = np.abs(first_particle(m) - o.one_particle_state(model)).max()
    expect(err <= 1e-12, f"one-particle marginal off by {err:.3e}")
    # The z-basis diagonal of A and the x-basis diagonal of B are uniform;
    # each is the pattern law of sampling without replacement in its own basis.
    diag_want = {"A": (flat, pattern), "B": (pattern, flat)}.get(name)
    if model[0] == "iid":
        expect(np.abs(m - np.eye(dim) * 2.0**-k).max() <= 1e-12, "iid state is not 2**-k I")
    if diag_want is not None:
        expect(np.abs(m.diagonal() - diag_want[0]).max() <= 1e-12, "z-basis diagonal")
    if name == "B":
        expect(np.abs(m - np.diag(m.diagonal())).max() <= 1e-12, "B is not z-diagonal")
    if basis == "z":
        expect("matrix_x" not in payload, "unexpected matrix_x")
        return
    x = matrix(payload["matrix_x"])
    check_state(x, k, "matrix_x")
    rx = o.mean_bloch(model)[0]
    marginal = first_particle(x).diagonal().real
    expect(
        np.abs(marginal - [0.5 * (1 + rx), 0.5 * (1 - rx)]).max() <= 1e-12,
        "x-basis one-particle populations",
    )
    if model[0] == "iid":
        expect(np.abs(x - np.eye(dim) * 2.0**-k).max() <= 1e-12, "iid matrix_x is not 2**-k I")
    if diag_want is not None:
        expect(np.abs(x.diagonal() - diag_want[1]).max() <= 1e-12, "x-basis diagonal")
    if name == "A":
        expect(np.abs(x - np.diag(x.diagonal())).max() <= 1e-12, "A is not x-diagonal")


def check_exact_pmf(payload: dict, model, axis) -> list[float]:
    """The exact part of a pmf payload; returns the oracle pmf when n is small
    enough for float binomials, else the payload's own."""
    n = o.size(model)
    p = payload["exact"]
    expect(payload["n"] == n and len(p) == n + 1, "pmf support")
    expect(min(p) >= 0.0, "negative probability")
    close(sum(p), 1.0, 1e-9, "pmf sum")
    mean, var = o.count_moments(model, axis)
    scale = max(1.0, n)
    close(sum(m * pm for m, pm in enumerate(p)), mean, 1e-9 * scale, "pmf mean")
    close(payload["mean"], mean, 1e-9 * scale, "reported mean")
    close(payload["variance"], var, 1e-8 * scale, "reported variance")
    if n > 1000:
        return p
    want = o.count_pmf(model, axis)
    expect(max(abs(a - b) for a, b in zip(p, want)) <= 1e-12, "pmf differs from closed form")
    return want


def check_pmf(out: str, model, axis, trials: int = 0, seed: int = 0) -> None:
    payload = json.loads(out)
    exact = check_exact_pmf(payload, model, axis)
    if not trials:
        expect("empirical" not in payload, "unexpected empirical pmf")
        return
    expect(payload["trials"] == trials and payload["seed"] == seed, "trials or seed not echoed")
    emp = payload["empirical"]
    counts = [e * trials for e in emp]
    expect(all(abs(c - round(c)) < 1e-6 for c in counts), "empirical pmf is not a histogram")
    expect(round(sum(counts)) == trials, "histogram does not hold every trial")
    dist, bound = o.tv(emp, exact), o.mc_tv_bound(exact, trials)
    expect(dist <= bound, f"empirical TV {dist:.4f} above its bound {bound:.4f}")


def check_distinguish(out: str, pair: str, a, b, kmax: int, axes, trials: int = 0) -> None:
    payload = json.loads(out)
    n = o.size(a)
    expect(payload["n"] == n, "n not echoed")
    ds = [(e["k"], e["distance"]) for e in payload["trace_distances"]]
    expect([k for k, _ in ds] == list(range(1, kmax + 1)), "k range")
    prev = 0.0
    for k, d in ds:
        expect(-1e-9 <= d <= 1 + 1e-9, f"T_{k} = {d!r} outside [0, 1]")
        expect(d >= prev - 1e-9, f"T_{k} = {d!r} below T_{k - 1} = {prev!r}")
        prev = d
        if pair in ("A/S", "B/S"):
            close(d, o.hypergeometric_binomial_tv(n, k), 1e-9, f"T_{k}")
        elif pair == "S:z/S:x" or k == 1:
            # Equal one-particle states: A/B, S:z/S:x and the literal pair.
            close(d, 0.0, 1e-9, f"T_{k}")
        elif pair == "A/B" and k == 2:
            close(d, 1.0 / (2 * (n - 1)), 1e-9, "T_2")
    figs = list(payload["axes"].values())
    expect(len(figs) == len(axes), "one figure per axis")
    for fig, axis in zip(figs, axes):
        d = o.tv(o.count_pmf(a, axis), o.count_pmf(b, axis))
        bayes = 0.5 * (1 + d)
        close(fig["tv_distance"], d, 1e-9, "count TV")
        close(fig["bayes_success"], bayes, 1e-9, "Bayes success")
        if not trials:
            expect("monte_carlo" not in fig, "unexpected Monte Carlo figure")
            continue
        mc = fig["monte_carlo"]
        s = mc["success"]
        expect(mc["trials"] == trials, "trials not echoed")
        close(mc["stderr"], sqrt(s * (1 - s) / trials), 1e-12, "reported stderr")
        sigma = max(sqrt(bayes * (1 - bayes) / trials), 1.0 / trials)
        expect(abs(s - bayes) <= 6 * sigma, f"MC success {s} is over 6 sigma from {bayes}")


# ------------------------------------------------------------------ ops


def distinguish_op(rng, pair: str, n: int, kmax: int, axes: list[str], trials: int = 0) -> Op:
    na, nb = ("literal", "iid-literal") if pair == "literal" else pair.split("/")
    (ta, ma), (tb, mb) = ensemble(na, n), ensemble(nb, n)
    argv = ["distinguish", "--a", ta, "--b", tb, "--n", str(n), "--kmax", str(kmax)]
    argv += [f"--axis={t}" for t in axes]
    vectors = [axis_vector(t) for t in axes]
    seed = 0
    if trials:
        seed = seed64(rng)
        argv += ["--trials", str(trials), "--seed", str(seed)]
    return Op(
        f"distinguish {pair} n={n} kmax={kmax}" + (f" trials={trials}" if trials else ""),
        argv,
        lambda out: check_distinguish(out, pair, ma, mb, kmax, vectors, trials),
        trials * len(axes),
    )


def pmf_op(rng, name: str, n: int, axis: str, trials: int = 0) -> Op:
    text, model = ensemble(name, n)
    argv = ["pmf", "--ensemble", text, "--n", str(n), f"--axis={axis}"]
    seed = 0
    if trials:
        seed = seed64(rng)
        argv += ["--trials", str(trials), "--seed", str(seed)]
    vector = axis_vector(axis)
    return Op(
        f"pmf {name} n={n}" + (f" trials={trials}" if trials else ""),
        argv,
        lambda out: check_pmf(out, model, vector, trials, seed),
        trials,
    )


def rho_op(rng, name: str, k: int, basis: str) -> Op:
    n = rng.choice((12, 16, 20, 24, 40))
    if name == "S":
        name = rng.choice(("S", "S:x"))
    text, model = ensemble(name, n)
    argv = ["rho", "--ensemble", text, "--n", str(n), "--k", str(k), "--basis", basis]
    family = name.partition(":")[0]
    return Op(
        f"rho {family} k={k} basis={basis}",
        argv,
        lambda out: check_rho(out, family, model, n, k, basis),
    )


def exact_distances_round(rng: random.Random, r: int) -> list[Op]:
    # Latin rotation: each round has every pair once per kmax and every n
    # five times; the (pair, kmax) -> n map cycles with period three.
    ns = (12, 20, 40)
    ops = [
        distinguish_op(rng, pair, ns[(i + j + r) % 3], kmax, [rng.choice("xz"), oblique_axis(rng)])
        for i, pair in enumerate(("A/B", "A/S", "B/S", "S:z/S:x", "literal"))
        for j, kmax in enumerate((5, 6, 7))
    ]
    rng.shuffle(ops)
    return ops


def monte_carlo_round(rng: random.Random, r: int) -> list[Op]:
    ops = [
        pmf_op(rng, name, n, random_axis(rng), MC_TRIALS)
        for name in ("A", "B", "S", "S:x", "literal")
        for n in (10, 40)
    ]
    ops += [
        distinguish_op(rng, pair, n, 2, [random_axis(rng)], MC_TRIALS)
        for pair in ("A/B", "A/S", "S:z/S:x")
        for n in (10, 40)
    ]
    rng.shuffle(ops)
    return ops


def exact_outputs_round(rng: random.Random, r: int) -> list[Op]:
    ops = [
        rho_op(rng, name, k, basis)
        for name in ("A", "B", "S", "literal")
        for k in (6, 7, 8)
        for basis in ("z", "x")
    ]
    ops += [
        pmf_op(rng, name, n, random_axis(rng))
        for name in ("S", "A", "literal")
        for n in (10**3, 10**4, 10**5)
    ]
    rng.shuffle(ops)
    return ops


ROUNDS = {
    "exact_distances": exact_distances_round,
    "monte_carlo": monte_carlo_round,
    "exact_outputs": exact_outputs_round,
}


def probe_op(rng: random.Random) -> Op:
    """The seeded Monte Carlo op replayed for the determinism probe."""
    return pmf_op(rng, "S", 10, random_axis(rng), PROBE_TRIALS)


def round_rng(seed: int, r: int) -> random.Random:
    return random.Random(seed * 1_000_003 + r)

