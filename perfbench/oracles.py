"""Closed forms the benchmark checks spinmix against.

Everything here is computed independently of spinmix, from Bloch vectors
and exact integer binomials (`math.comb`, `math.perm`).  An ensemble is a
small tuple model:

* ``("fixed", ((bloch, count), ...))`` — exact per-type counts;
* ``("iid", ((bloch, prob), ...), n)`` — n independent draws.
"""

from __future__ import annotations

import math
from math import comb, perm, sqrt

import numpy as np

X_PLUS, X_MINUS = (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)
Z_PLUS, Z_MINUS = (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)
# Oblique third component of the 3-component literals.
OBLIQUE = (0.6, 0.0, 0.8)
OBLIQUE_TEXT = "(0.6,0,0.8)"

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class CheckError(Exception):
    """An op's output disagrees with its closed form."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(got: float, want: float, tol: float, what: str) -> None:
    expect(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


def unit(v) -> tuple[float, float, float]:
    v = tuple(v)
    norm = math.sqrt(sum(c * c for c in v))
    return tuple(c / norm for c in v)


# ---------------------------------------------------------------- ensembles


def literal_counts(n: int) -> tuple[int, int, int]:
    third = n // 3
    return n - 2 * third, third, third


def preset(name: str, n: int):
    """A, B, S or S:<x|z> as a tuple model."""
    key, _, axis = name.partition(":")
    if key == "A":
        return ("fixed", ((X_PLUS, n // 2), (X_MINUS, n // 2)))
    if key == "B":
        return ("fixed", ((Z_PLUS, n // 2), (Z_MINUS, n // 2)))
    up, down = (X_PLUS, X_MINUS) if axis == "x" else (Z_PLUS, Z_MINUS)
    return ("iid", ((up, 0.5), (down, 0.5)), n)


def fixed_literal(n: int) -> tuple[str, tuple]:
    """3-component fixed literal with counts summing to n, and its model."""
    c = literal_counts(n)
    text = f"fixed:x+*{c[0]}/z-*{c[1]}/{OBLIQUE_TEXT}+*{c[2]}"
    return text, ("fixed", ((X_PLUS, c[0]), (Z_MINUS, c[1]), (unit(OBLIQUE), c[2])))


def iid_literal(n: int) -> tuple[str, tuple]:
    """i.i.d. mixture with the same one-particle state as fixed_literal(n)."""
    p = [c / n for c in literal_counts(n)]
    text = f"iid:x+*{p[0]!r}/z-*{p[1]!r}/{OBLIQUE_TEXT}+*{p[2]!r}"
    return text, ("iid", ((X_PLUS, p[0]), (Z_MINUS, p[1]), (unit(OBLIQUE), p[2])), n)


def size(model) -> int:
    return sum(c for _, c in model[1]) if model[0] == "fixed" else model[2]


def mean_bloch(model) -> tuple[float, float, float]:
    weights = [(b, c / size(model)) for b, c in model[1]] if model[0] == "fixed" else model[1]
    return tuple(sum(w * b[i] for b, w in weights) for i in range(3))


def one_particle_state(model) -> np.ndarray:
    r = mean_bloch(model)
    return 0.5 * (np.eye(2) + sum(ri * s for ri, s in zip(r, _SIGMA)))


# ---------------------------------------------------------------- count pmfs


def born(bloch, axis) -> float:
    return 0.5 * (1.0 + sum(a * b for a, b in zip(axis, bloch)))


def binomial(n: int, q: float) -> list[float]:
    return [comb(n, m) * q**m * (1.0 - q) ** (n - m) for m in range(n + 1)]


def convolve(p: list[float], q: list[float]) -> list[float]:
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def count_moments(model, axis) -> tuple[float, float]:
    """Mean and variance of the +1 count along `axis`."""
    if model[0] == "fixed":
        qs = [(born(b, axis), c) for b, c in model[1]]
        return sum(c * q for q, c in qs), sum(c * q * (1 - q) for q, c in qs)
    q = sum(p * born(b, axis) for b, p in model[1])
    return model[2] * q, model[2] * q * (1 - q)


def count_pmf(model, axis) -> list[float]:
    """Exact +1-count pmf; float binomials, so only for n up to about 1000."""
    if model[0] == "iid":
        return binomial(model[2], sum(p * born(b, axis) for b, p in model[1]))
    pmf = [1.0]
    for b, c in model[1]:
        pmf = convolve(pmf, binomial(c, born(b, axis)))
    return pmf


def tv(p, q) -> float:
    return 0.5 * sum(abs(a - b) for a, b in zip(p, q))


def mc_tv_bound(pmf, trials: int) -> float:
    """Bound on TV(empirical, exact) that a correct sampler exceeds with
    probability below e**-20: E[TV] <= ½ Σ sqrt(p(1-p)/T) (Jensen), plus
    sqrt(10/T) from McDiarmid (one trial moves TV by at most 1/T)."""
    mean = 0.5 * sum(sqrt(p * (1 - p) / trials) for p in pmf if p > 0)
    return mean + sqrt(10.0 / trials)


# ------------------------------------------------------- trace distances


def hypergeometric_binomial_tv(n: int, k: int) -> float:
    """TV(Hypergeometric(n, n/2, k), Binomial(k, ½)): the k-particle trace
    distance between a balanced fixed composition and the i.i.d. mixture."""
    h = n // 2
    return 0.5 * sum(
        abs(comb(h, j) * comb(h, k - j) / comb(n, k) - comb(k, j) / 2**k) for j in range(k + 1)
    )


def balanced_pattern_weight(n: int, k: int, ups: int) -> float:
    """Probability of one ordered k-pattern with `ups` up-spins, drawn without
    replacement from n/2 up and n/2 down."""
    h = n // 2
    return perm(h, ups) * perm(h, k - ups) / perm(n, k)
