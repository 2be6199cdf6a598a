"""Quantifying how distinguishable two ensembles are.

Two complementary views: trace distances between the exact k-particle
reduced states, and the success probability of the Bayes-optimal
equal-prior guesser that sees only the +1-outcome count along one axis,
with a Monte Carlo estimate of the latter for validation.  `build_report`
puts both side by side as the payload that `spinmix distinguish` prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .ensembles import (
    EnsembleSpec,
    ensemble_literal,
    exchangeable_blocks,
    reduced_density_matrix,
    total_variation,
)
from .linalg import PARTICLE_CAP, block_trace_distance, trace_distance
from .measurement import born_weights, exact_count_pmf, measure_block, run_blocks
from .spin import Axis, axis_label


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Empirical success rate with its binomial standard error."""

    value: float
    stderr: float
    trials: int


def pairwise_trace_distances(
    a: EnsembleSpec,
    b: EnsembleSpec,
    k_max: int,
) -> list[tuple[int, float]]:
    """Trace distance of ρ_k of a and ρ_k of b for k = 1..k_max: from the
    exchangeable blocks when neither spec has more than two components,
    else from the dense 2**k matrices."""
    limit = min(a.n, b.n, PARTICLE_CAP)
    if not 1 <= k_max <= limit:
        raise ValueError(f"k_max {k_max} outside 1..{limit}")
    two_components = len(a.components) <= 2 and len(b.components) <= 2
    distance = _block_distance if two_components else _dense_distance
    return [(k, distance(a, b, k)) for k in range(1, k_max + 1)]


def _block_distance(a: EnsembleSpec, b: EnsembleSpec, k: int) -> float:
    return block_trace_distance(
        (d, block_a - block_b)
        for (_, d, block_a), (_, _, block_b) in zip(exchangeable_blocks(a, k),
                                                    exchangeable_blocks(b, k))
    )


def _dense_distance(a: EnsembleSpec, b: EnsembleSpec, k: int) -> float:
    return trace_distance(reduced_density_matrix(a, k), reduced_density_matrix(b, k))


def bayes_success_from_counts(a: EnsembleSpec, b: EnsembleSpec, axis: Axis) -> float:
    """Best equal-prior guessing probability from the exact count pmfs:
    ½ Σ max(p_a(m), p_b(m)), i.e. ½(1 + TV)."""
    return _count_figures(a, b, axis)[1]


def _count_figures(a: EnsembleSpec, b: EnsembleSpec, axis: Axis) -> tuple[float, float]:
    """TV distance and Bayes success of the counts along `axis`, from one
    pair of exact pmfs."""
    if a.n != b.n:
        raise ValueError(f"ensembles differ in n: {a.n} vs {b.n}")
    pa, pb = exact_count_pmf(a, axis), exact_count_pmf(b, axis)
    bayes = 0.5 * float(np.maximum(pa.probabilities, pb.probabilities).sum())
    return total_variation(pa, pb), bayes


def monte_carlo_discrimination(
    a: EnsembleSpec,
    b: EnsembleSpec,
    axis: Axis,
    trials: int,
    master_seed: int,
    *,
    workers: int = 1,
) -> MonteCarloEstimate:
    """Simulated equal-prior discrimination on the count statistic.

    Per block of trials: a fair coin per trial picks the true ensemble, then
    the full experiments of the a-trials and of the b-trials run, all on the
    block's stream.  The guess is the spec whose exact pmf puts more mass on
    the observed count, ties broken toward `a`.
    """
    if a.n != b.n:
        raise ValueError(f"ensembles differ in n: {a.n} vs {b.n}")
    pa = exact_count_pmf(a, axis).probabilities
    pb = exact_count_pmf(b, axis).probabilities
    guess_is_a = pa >= pb
    born_a, born_b = born_weights(a, axis), born_weights(b, axis)

    def draw(rng: np.random.Generator, first: int, rows: int) -> int:
        rows_a = int((rng.random(rows) < 0.5).sum())
        counts_a = measure_block(a, born_a, rng, rows_a).sum(axis=1)
        counts_b = measure_block(b, born_b, rng, rows - rows_a).sum(axis=1)
        return int(guess_is_a[counts_a].sum()) + int((~guess_is_a[counts_b]).sum())

    successes = sum(run_blocks(a.n, trials, master_seed, draw, workers=workers))
    rate = successes / trials
    return MonteCarloEstimate(rate, sqrt(rate * (1.0 - rate) / trials), trials)


def build_report(
    a: EnsembleSpec,
    b: EnsembleSpec,
    *,
    labels: tuple[str, str] | None = None,
    k_max: int,
    axes: list[Axis],
    trials: int = 0,
    master_seed: int = 0,
    workers: int = 1,
) -> dict:
    """The `distinguish` payload: per-k trace distances, then the count
    figures of each axis, keyed by its label.  Axes with one label share one
    entry, at the first one's place, computed once from the last one."""
    ensembles = [ensemble_literal(a), ensemble_literal(b)]
    report = {
        "pair": list(labels or ensembles),
        "ensembles": ensembles,
        "n": a.n,
        "trace_distances": [{"k": k, "distance": d}
                            for k, d in pairwise_trace_distances(a, b, k_max)],
        "axes": {},
    }
    for label, axis in {axis_label(axis): axis for axis in axes}.items():
        tv, bayes = _count_figures(a, b, axis)
        entry = report["axes"][label] = {"tv_distance": tv, "bayes_success": bayes}
        if trials > 0:
            mc = monte_carlo_discrimination(a, b, axis, trials, master_seed, workers=workers)
            entry["monte_carlo"] = {"success": mc.value, "stderr": mc.stderr, "trials": mc.trials}
    if trials > 0:
        report["seed"] = master_seed
    return report
