"""Simulated experiments: prepare a realization, measure every particle once
along a single global axis, and collect the +1-outcome count.

Nothing here depends on the spec's kind: the particle types of a realization
and the exact count pmf come from the spec's own methods (ensembles.py).

Randomness contract
-------------------
Monte Carlo trials run in blocks of B = ``block_size(n)`` = max(1, 2**16 // n)
consecutive trials, so one block's arrays hold at most 2**16 particles (or
one realization, when n exceeds that).  Block b covers trials b·B to
b·B + B - 1 and draws from its own stream, ``trial_stream(master_seed, b)``:
a Philox4x64 counter-based generator keyed by the (master seed, block index)
pair.  Within a block, every trial's realization is drawn first, in trial
order, and then one uniform per particle decides its outcome; discrimination
draws the block's coin flips first, then runs its a-trials and its b-trials
that way.  Distinct keys give statistically independent streams and B
depends only on n, so replaying a master seed reproduces every record
bitwise, and any execution order — including the thread pool used when
``workers > 1``, which hands out whole blocks — yields identical results.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

import numpy as np

from .ensembles import CountPmf, EnsembleSpec, _check_count_n, ensemble_literal
from .spin import Axis, PureState, transition_probability

_SEED_LIMIT = 2**64
_BLOCK_PARTICLES = 2**16
# With a thread pool, blocks are handed out this many per thread at a time,
# so finished results wait for the caller in a bounded window.
_BLOCKS_PER_THREAD = 4

T = TypeVar("T")


def trial_stream(master_seed: int, trial: int) -> np.random.Generator:
    """Independent, reproducible stream for one block of trials; `trial` is
    the block index (see the module's randomness contract)."""
    if not 0 <= master_seed < _SEED_LIMIT:
        raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {master_seed}")
    if trial < 0:
        raise ValueError(f"block index must be nonnegative, got {trial}")
    # A uint64 array: numpy would turn a list holding an int >= 2**63 into
    # float64 and drop the seed's low bits.
    key = np.array([master_seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def block_size(n: int) -> int:
    """Trials per block for ensembles of n particles."""
    return max(1, _BLOCK_PARTICLES // n)


@dataclass(frozen=True)
class Realization:
    """One prepared instance of an ensemble: the ordered particle states."""

    states: tuple[PureState, ...]

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("a realization holds at least one particle")


@dataclass(frozen=True)
class ExperimentRecord:
    """Outcomes of measuring one realization along one axis."""

    seed: int
    trial: int
    ensemble: str
    axis: Axis
    outcomes: tuple[int, ...]
    plus_count: int

    def __post_init__(self) -> None:
        if self.plus_count != sum(1 for o in self.outcomes if o == 1):
            raise ValueError("plus_count does not match the outcomes")


def _draw_hits(rng: np.random.Generator, weights: np.ndarray) -> np.ndarray:
    """One Bernoulli per particle against its Born weight; True means +1."""
    return rng.random(weights.shape) < weights


def _records(
    hits: np.ndarray, first_trial: int, seed: int, ensemble: str, axis: Axis
) -> list[ExperimentRecord]:
    counts = hits.sum(axis=1).tolist()
    return [
        ExperimentRecord(seed, first_trial + r, ensemble, axis, tuple(row), counts[r])
        for r, row in enumerate(np.where(hits, 1, -1).tolist())
    ]


def born_weights(spec: EnsembleSpec, axis: Axis) -> np.ndarray:
    """Born weight of a +1 outcome along `axis` for each component."""
    return np.array([transition_probability(state, axis, +1) for state, _ in spec.components])


def measure_block(
    spec: EnsembleSpec, born: np.ndarray, rng: np.random.Generator, rows: int
) -> np.ndarray:
    """Outcomes of `rows` full experiments (fresh realization, then
    measurement), shape (rows, n), True for +1; `born` is born_weights(spec, axis)."""
    return _draw_hits(rng, born[spec._draw_types(rng, rows)])


def run_blocks(
    n: int,
    trials: int,
    master_seed: int,
    draw: Callable[[np.random.Generator, int, int], T],
    *,
    workers: int = 1,
) -> Iterator[T]:
    """``draw(stream, first_trial, rows)`` for every block of `trials`, yielded
    in block order.

    Block b covers trials b·B to b·B + B - 1, with B = block_size(n), and
    draws from trial_stream(master_seed, b).  With ``workers > 1`` whole
    blocks go to a pool of at most min(workers, CPU count, blocks) threads,
    _BLOCKS_PER_THREAD blocks per thread at a time, so the memory held does
    not grow with the number of blocks.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _check_count_n(n)
    size = block_size(n)
    starts = range(0, trials, size)

    def run(lo: int) -> T:
        return draw(trial_stream(master_seed, lo // size), lo, min(size, trials - lo))

    threads = min(workers, os.cpu_count() or 1, len(starts))
    if threads == 1:
        return map(run, starts)

    def pooled() -> Iterator[T]:
        window = threads * _BLOCKS_PER_THREAD
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for w in range(0, len(starts), window):
                yield from pool.map(run, starts[w : w + window])

    return pooled()


def sample_realization(spec: EnsembleSpec, rng: np.random.Generator) -> Realization:
    """One realization, its particle types drawn by the spec's own law."""
    states = [state for state, _ in spec.components]
    return Realization(tuple(states[i] for i in spec._draw_types(rng, 1)[0]))


def measure_realization(
    realization: Realization,
    axis: Axis,
    rng: np.random.Generator,
    *,
    seed: int = 0,
    trial: int = 0,
    ensemble: str = "",
) -> ExperimentRecord:
    """Projective measurement of every particle along `axis`.

    Each particle independently yields +1 with its Born weight along the
    axis, else -1.  Particles are measured in list order; their outcomes are
    independent, so the order carries no statistical weight.
    """
    born: dict[int, float] = {}
    for state in realization.states:
        key = id(state)
        if key not in born:
            born[key] = transition_probability(state, axis, +1)
    weights = np.array([[born[id(s)] for s in realization.states]])
    return _records(_draw_hits(rng, weights), trial, seed, ensemble, axis)[0]


def exact_count_pmf(spec: EnsembleSpec, axis: Axis) -> CountPmf:
    """Exact distribution of the +1-outcome count over the whole ensemble,
    from the Born weight of each component along `axis`."""
    _check_count_n(spec.n)
    return spec._count_pmf(born_weights(spec, axis).tolist())


def pmf_moments(pmf: CountPmf) -> tuple[float, float]:
    """Mean and variance of a count pmf."""
    counts = np.arange(pmf.n + 1, dtype=float)
    mean = float(counts @ pmf.probabilities)
    variance = float(((counts - mean) ** 2) @ pmf.probabilities)
    return mean, variance


def run_experiments(
    spec: EnsembleSpec,
    axis: Axis,
    trials: int,
    master_seed: int,
    *,
    workers: int = 1,
) -> list[ExperimentRecord]:
    """One full experiment (fresh realization, then measurement) per trial.

    The records come from the same block arrays as monte_carlo_count_pmf,
    so their plus_count histogram is trials × that pmf for the same seed,
    and the list is identical for every `workers`.
    """
    born = born_weights(spec, axis)
    label = ensemble_literal(spec)

    def draw(rng: np.random.Generator, first: int, rows: int) -> list[ExperimentRecord]:
        return _records(measure_block(spec, born, rng, rows), first, master_seed, label, axis)

    blocks = run_blocks(spec.n, trials, master_seed, draw, workers=workers)
    return [record for block in blocks for record in block]


def monte_carlo_count_pmf(
    spec: EnsembleSpec,
    axis: Axis,
    trials: int,
    master_seed: int,
    *,
    workers: int = 1,
) -> CountPmf:
    """Empirical +1-count histogram over independent full experiments.

    Each block's counts are added to the histogram as the block completes,
    so memory does not grow with `trials`.
    """
    born = born_weights(spec, axis)

    def draw(rng: np.random.Generator, first: int, rows: int) -> np.ndarray:
        counts = measure_block(spec, born, rng, rows).sum(axis=1)
        return np.bincount(counts, minlength=spec.n + 1)

    hist = sum(run_blocks(spec.n, trials, master_seed, draw, workers=workers))
    return CountPmf(spec.n, hist / trials)
