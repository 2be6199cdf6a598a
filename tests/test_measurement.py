import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinmix.measurement as measurement
from helpers import pair_frequencies, unit_axes
from spinmix import (
    COUNT_N_CAP,
    ExperimentRecord,
    IidMixture,
    Realization,
    X_AXIS,
    Z_AXIS,
    balanced_fixed,
    balanced_mixture,
    binomial_pmf,
    block_size,
    delta_pmf,
    exact_count_pmf,
    measure_realization,
    monte_carlo_count_pmf,
    parse_ensemble,
    pmf_moments,
    preset_ensemble,
    run_experiments,
    sample_realization,
    spinor,
    total_variation,
    trial_stream,
)


def test_trial_stream_is_reproducible():
    a = trial_stream(123, 5).random(4)
    b = trial_stream(123, 5).random(4)
    assert np.array_equal(a, b)
    c = trial_stream(123, 6).random(4)
    assert not np.array_equal(a, c)


def test_seeds_from_two_to_the_63_keep_every_bit():
    seeds = (0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1)
    draws = [trial_stream(seed, 3).random(4) for seed in seeds]
    for i in range(len(draws)):
        for j in range(i):
            assert not np.array_equal(draws[i], draws[j]), (seeds[i], seeds[j])


def test_seeds_below_two_to_the_63_keep_their_streams():
    # The stream of a list key, as trial streams were first keyed; every
    # seeded output printed so far used such a seed.
    for seed in (0, 7, 2**40 + 5, 2**63 - 1):
        old = np.random.Generator(np.random.Philox(key=[seed, 3])).random(4)
        assert np.array_equal(trial_stream(seed, 3).random(4), old)


def test_trial_stream_rejects_bad_arguments():
    with pytest.raises(ValueError):
        trial_stream(-1, 0)
    with pytest.raises(ValueError):
        trial_stream(2**64, 0)
    with pytest.raises(ValueError):
        trial_stream(0, -1)


def test_fixed_realization_is_the_exact_multiset():
    spec = preset_ensemble("A", 4)
    xp = spinor(X_AXIS, +1)
    xm = spinor(X_AXIS, -1)
    orders = set()
    for i in range(50):
        r = sample_realization(spec, trial_stream(11, i))
        assert len(r.states) == 4
        assert sum(1 for s in r.states if s == xp) == 2
        assert sum(1 for s in r.states if s == xm) == 2
        orders.add(tuple(s == xp for s in r.states))
    assert len(orders) > 1  # the shuffle actually shuffles


def test_deterministic_mixture_realization():
    spec = IidMixture(((spinor(Z_AXIS, +1), 1.0), (spinor(Z_AXIS, -1), 0.0)), 6)
    r = sample_realization(spec, trial_stream(0, 0))
    assert all(s == spinor(Z_AXIS, +1) for s in r.states)


def test_mixture_composition_fluctuates_binomially():
    spec = balanced_mixture(4, Z_AXIS)
    zp = spinor(Z_AXIS, +1)
    counts = np.zeros(5)
    trials = 4000
    for i in range(trials):
        r = sample_realization(spec, trial_stream(21, i))
        counts[sum(1 for s in r.states if s == zp)] += 1
    empirical = counts / trials
    expected = binomial_pmf(4, 0.5).probabilities
    assert 0.5 * np.abs(empirical - expected).sum() < 0.03


def test_measurement_along_own_axis_is_deterministic():
    all_up = Realization((spinor(Z_AXIS, +1),) * 5)
    record = measure_realization(all_up, Z_AXIS, trial_stream(3, 0))
    assert record.plus_count == 5
    assert record.outcomes == (1, 1, 1, 1, 1)

    spec = preset_ensemble("B", 4)
    for i in range(30):
        rng = trial_stream(99, i)
        record = measure_realization(sample_realization(spec, rng), Z_AXIS, rng)
        assert record.plus_count == 2


def test_record_validation():
    with pytest.raises(ValueError):
        ExperimentRecord(0, 0, "", Z_AXIS, (1, -1), 2)
    with pytest.raises(ValueError):
        Realization(())


def test_exact_pmf_examples():
    b4 = preset_ensemble("B", 4)
    a4 = preset_ensemble("A", 4)
    s4 = preset_ensemble("S", 4)

    along_z = exact_count_pmf(b4, Z_AXIS)
    assert np.array_equal(along_z.probabilities, delta_pmf(4, 2).probabilities)
    assert pmf_moments(along_z) == (2.0, 0.0)

    mixed = exact_count_pmf(a4, Z_AXIS)
    assert np.array_equal(mixed.probabilities, binomial_pmf(4, 0.5).probabilities)
    assert pmf_moments(mixed) == (2.0, 1.0)

    own_basis = exact_count_pmf(a4, X_AXIS)
    assert np.array_equal(own_basis.probabilities, delta_pmf(4, 2).probabilities)

    statistical = exact_count_pmf(s4, Z_AXIS)
    assert np.array_equal(statistical.probabilities, binomial_pmf(4, 0.5).probabilities)


@given(unit_axes(), st.sampled_from(["A", "B", "S"]), st.sampled_from([2, 4, 6]))
@settings(max_examples=50)
def test_exact_pmf_is_normalized(axis, preset, n):
    pmf = exact_count_pmf(preset_ensemble(preset, n), axis)
    assert pmf.probabilities.shape == (n + 1,)
    assert abs(pmf.probabilities.sum() - 1.0) <= 1e-12
    assert pmf.probabilities.min() >= 0.0


@pytest.mark.parametrize("n", [1030, 10**4, 10**5])
def test_large_n_count_pmfs_along_z(n):
    """B is a spike at n/2 and S is Binomial(n, ½), so TV(B, S) = 1 - C(n, n/2)/2**n;
    A along z is two Binomial(n/2, ½) halves, which convolve to S's pmf."""
    pmfs = {name: exact_count_pmf(preset_ensemble(name, n), Z_AXIS) for name in "ABS"}
    assert abs(total_variation(pmfs["B"], pmfs["S"]) - (1 - comb(n, n // 2) / 2**n)) <= 1e-12
    assert np.abs(pmfs["A"].probabilities - pmfs["S"].probabilities).max() <= 1e-12


def test_pmf_moments_examples():
    assert pmf_moments(binomial_pmf(4, 0.5)) == (2.0, 1.0)
    assert pmf_moments(delta_pmf(4, 2)) == (2.0, 0.0)
    assert pmf_moments(binomial_pmf(10, 0.5)) == (5.0, 2.5)


def test_monte_carlo_single_trial_is_a_delta():
    pmf = monte_carlo_count_pmf(preset_ensemble("S", 6), Z_AXIS, 1, 17)
    assert sorted(pmf.probabilities)[-1] == 1.0


def test_monte_carlo_deterministic_ensemble_concentrates():
    pmf = monte_carlo_count_pmf(preset_ensemble("B", 10), Z_AXIS, 2000, 5)
    assert pmf.probabilities[5] == 1.0


def test_monte_carlo_tracks_exact_pmf():
    spec = preset_ensemble("A", 10)
    exact = exact_count_pmf(spec, Z_AXIS)
    empirical = monte_carlo_count_pmf(spec, Z_AXIS, 20000, 42)
    assert total_variation(empirical, exact) < 0.02


def test_monte_carlo_rejects_zero_trials():
    with pytest.raises(ValueError):
        monte_carlo_count_pmf(preset_ensemble("S", 4), Z_AXIS, 0, 1)


def test_replay_is_bitwise_identical():
    spec = preset_ensemble("S", 8)
    first = run_experiments(spec, X_AXIS, 400, 123)
    second = run_experiments(spec, X_AXIS, 400, 123)
    assert first == second
    assert all(r.seed == 123 and r.trial == i for i, r in enumerate(first))


def test_parallel_equals_sequential():
    spec = preset_ensemble("A", 10)
    sequential = run_experiments(spec, Z_AXIS, 1000, 9)
    parallel = run_experiments(spec, Z_AXIS, 1000, 9, workers=4)
    assert sequential == parallel


def test_block_size_caps_block_arrays():
    assert block_size(1) == 2**16
    assert block_size(10) == 6553
    assert block_size(2**15) == 2
    assert block_size(2**15 + 1) == block_size(2**17) == 1


@pytest.mark.parametrize("literal", ["A", "S:x", "fixed:x+*3/z-*4/(0.6,0,0.8)+*3"])
def test_record_histogram_equals_monte_carlo_pmf(literal):
    spec = parse_ensemble(literal, 10)
    trials = block_size(10) + 500  # two blocks
    records = run_experiments(spec, X_AXIS, trials, 8)
    pmf = monte_carlo_count_pmf(spec, X_AXIS, trials, 8)
    hist = np.bincount([r.plus_count for r in records], minlength=11)
    assert np.array_equal(hist / trials, pmf.probabilities)


@pytest.mark.parametrize("literal", ["A", "S"])
@pytest.mark.parametrize("trials", [5, 17, 40])
def test_results_do_not_depend_on_workers(monkeypatch, literal, trials):
    # n = 4096 gives blocks of 16 trials: fewer than one block, one block plus
    # one trial, and a count that is not a multiple of the block size.  The
    # CPU count is pinned so that two threads run even on a one-CPU host.
    monkeypatch.setattr(measurement.os, "cpu_count", lambda: 2)
    spec = parse_ensemble(literal, 4096)
    assert block_size(spec.n) == 16
    one = run_experiments(spec, X_AXIS, trials, 3)
    two = run_experiments(spec, X_AXIS, trials, 3, workers=2)
    assert one == two
    assert np.array_equal(
        monte_carlo_count_pmf(spec, X_AXIS, trials, 3).probabilities,
        monte_carlo_count_pmf(spec, X_AXIS, trials, 3, workers=2).probabilities,
    )


def test_thread_pool_is_capped_by_cpus_and_blocks(monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for ThreadPoolExecutor without starting threads."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(measurement, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(measurement.os, "cpu_count", lambda: 3)
    spec = preset_ensemble("S", 4096)
    for blocks in (10, 2, 1):
        monte_carlo_count_pmf(spec, Z_AXIS, 16 * blocks, 1, workers=100_000)
    assert sizes == [3, 2]  # a single block runs without a pool


def test_results_do_not_depend_on_workers_across_pool_windows(monkeypatch):
    # 21 blocks of 16 trials run in windows of 8 blocks on two threads.
    monkeypatch.setattr(measurement.os, "cpu_count", lambda: 2)
    spec = parse_ensemble("S:x", 4096)
    trials = 16 * 20 + 3
    assert 2 * measurement._BLOCKS_PER_THREAD < -(-trials // block_size(spec.n))
    assert run_experiments(spec, Z_AXIS, trials, 6) == run_experiments(
        spec, Z_AXIS, trials, 6, workers=2
    )
    assert np.array_equal(
        monte_carlo_count_pmf(spec, Z_AXIS, trials, 6).probabilities,
        monte_carlo_count_pmf(spec, Z_AXIS, trials, 6, workers=2).probabilities,
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_monte_carlo_memory_does_not_grow_with_trials(monkeypatch, workers):
    # 2·10**6 trials held as one int64 each would take 16 MB, twice over
    # while concatenated; one block's arrays take about 1 MB.
    monkeypatch.setattr(measurement.os, "cpu_count", lambda: 2)
    spec = preset_ensemble("S", 10)
    tracemalloc.start()
    try:
        monte_carlo_count_pmf(spec, Z_AXIS, 2 * 10**6, 5, workers=workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_counts_above_the_cap_are_rejected_before_allocating():
    big = COUNT_N_CAP + 1
    fixed = parse_ensemble(f"fixed:x+*{big // 2}/z-*{big - big // 2}")
    calls = (
        lambda: delta_pmf(big, 0),
        lambda: binomial_pmf(big, 0.5),
        lambda: binomial_pmf(big, 1.0),
        lambda: exact_count_pmf(fixed, X_AXIS),
        lambda: exact_count_pmf(preset_ensemble("S", big), X_AXIS),
        lambda: monte_carlo_count_pmf(fixed, X_AXIS, 1, 0),
    )
    for call in calls:
        with pytest.raises(ValueError, match="COUNT_N_CAP"):
            call()
    at_cap = binomial_pmf(COUNT_N_CAP, 0.5)
    assert abs(pmf_moments(at_cap)[0] - COUNT_N_CAP / 2) <= 1e-6


def test_workers_below_one_are_rejected():
    spec = preset_ensemble("S", 4)
    with pytest.raises(ValueError, match="workers"):
        monte_carlo_count_pmf(spec, Z_AXIS, 10, 1, workers=0)
    with pytest.raises(ValueError, match="workers"):
        run_experiments(spec, Z_AXIS, 10, 1, workers=-1)


def test_fixed_composition_outcome_pairs_follow_the_urn_law():
    # Along x, A's outcomes reveal the particle types, so the first two
    # outcomes are an ordered draw without replacement: unshuffled pools
    # would put all the mass on (+1, +1).
    records = run_experiments(preset_ensemble("A", 6), X_AXIS, 20000, 5)
    pairs = np.array([r.outcomes[:2] for r in records])
    parallel, antiparallel = pair_frequencies(6)
    for first, second, p in (
        (1, 1, parallel), (-1, -1, parallel), (1, -1, antiparallel), (-1, 1, antiparallel)
    ):
        freq = np.mean((pairs[:, 0] == first) & (pairs[:, 1] == second))
        assert abs(freq - p) <= 4.0 * np.sqrt(p * (1.0 - p) / len(records))


def test_one_trial_blocks_at_large_n():
    n = 2**17
    assert block_size(n) == 1
    for spec in (balanced_fixed(n, X_AXIS), balanced_mixture(n, Z_AXIS)):
        records = run_experiments(spec, X_AXIS, 3, 12)
        for i, record in enumerate(records):
            # One trial per block: trial i is the one-row call on block i's stream.
            rng = trial_stream(12, i)
            realization = sample_realization(spec, rng)
            assert record == measure_realization(
                realization, X_AXIS, rng, seed=12, trial=i, ensemble=record.ensemble
            )
        hist = np.bincount([r.plus_count for r in records], minlength=n + 1)
        pmf = monte_carlo_count_pmf(spec, X_AXIS, 3, 12)
        assert np.array_equal(hist / 3, pmf.probabilities)


def test_headline_count_statistics():
    a = preset_ensemble("A", 10)
    b = preset_ensemble("B", 10)
    s = preset_ensemble("S", 10)
    pa = exact_count_pmf(a, Z_AXIS)
    pb = exact_count_pmf(b, Z_AXIS)
    ps = exact_count_pmf(s, Z_AXIS)
    # the statistical mixture is reproduced by the x composition along z ...
    assert np.array_equal(pa.probabilities, ps.probabilities)
    # ... but not by the z composition, which is a zero-variance spike
    expected_tv = 1.0 - comb(10, 5) / 2**10
    assert total_variation(pa, pb) == pytest.approx(expected_tv, abs=1e-12)
    assert pmf_moments(pb)[1] == 0.0
