import contextlib
import io
import json

import numpy as np
import pytest

import spinmix.discrimination as discrimination
import spinmix.measurement as measurement
from spinmix import (
    X_AXIS,
    Z_AXIS,
    balanced_mixture,
    bayes_success_from_counts,
    block_size,
    build_report,
    monte_carlo_discrimination,
    pairwise_trace_distances,
    parse_ensemble,
    preset_ensemble,
    reduced_density_matrix,
    trace_distance,
)
from spinmix.cli import main


def test_one_particle_distance_vanishes_for_fixed_pair():
    a = preset_ensemble("A", 4)
    b = preset_ensemble("B", 4)
    distances = dict(pairwise_trace_distances(a, b, 2))
    assert distances[1] <= 1e-12
    assert distances[2] == pytest.approx(1 / 6, abs=1e-10)


def test_mixtures_along_different_axes_are_identical():
    sz = balanced_mixture(6, Z_AXIS)
    sx = balanced_mixture(6, X_AXIS)
    for _, d in pairwise_trace_distances(sz, sx, 3):
        assert d <= 1e-12


def test_distances_between_complex_states_match_lapack():
    # A y-polarized component makes the differences complex from k = 2 on,
    # so these distances run the eigen path through the real embedding.
    a = parse_ensemble("fixed:y+*3/z-*3")
    b = parse_ensemble("iid:y+*0.5/z-*0.5", 6)
    for k, distance in pairwise_trace_distances(a, b, 4):
        diff = reduced_density_matrix(a, k).matrix - reduced_density_matrix(b, k).matrix
        assert k == 1 or np.abs(diff.imag).max() > 0.01
        expected = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
        assert abs(distance - expected) <= 1e-10


def test_distance_range_errors():
    a = preset_ensemble("A", 4)
    b = preset_ensemble("B", 4)
    with pytest.raises(ValueError):
        pairwise_trace_distances(a, b, 5)
    with pytest.raises(ValueError):
        pairwise_trace_distances(a, b, 0)


def test_bayes_success_values():
    a4 = preset_ensemble("A", 4)
    b4 = preset_ensemble("B", 4)
    s4 = preset_ensemble("S", 4)
    assert bayes_success_from_counts(a4, s4, Z_AXIS) == 0.5
    assert bayes_success_from_counts(a4, b4, X_AXIS) == 0.8125
    assert bayes_success_from_counts(a4, a4, Z_AXIS) == 0.5


def test_bayes_rejects_size_mismatch():
    with pytest.raises(ValueError):
        bayes_success_from_counts(preset_ensemble("A", 4), preset_ensemble("B", 6), Z_AXIS)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_count_guessing_cannot_beat_the_full_state_bound(n):
    # Data processing: the count statistic extracts at most the trace-distance
    # advantage of the full n-particle states.
    a = preset_ensemble("A", n)
    b = preset_ensemble("B", n)
    bound = 0.5 * trace_distance(reduced_density_matrix(a, n), reduced_density_matrix(b, n))
    for axis in (X_AXIS, Z_AXIS):
        advantage = bayes_success_from_counts(a, b, axis) - 0.5
        assert advantage <= bound + 1e-12


@pytest.mark.parametrize("n", [2, 4, 6])
def test_trace_distance_grows_with_k(n):
    a = preset_ensemble("A", n)
    b = preset_ensemble("B", n)
    distances = [d for _, d in pairwise_trace_distances(a, b, n)]
    for smaller, larger in zip(distances, distances[1:]):
        assert larger >= smaller - 1e-12


def test_monte_carlo_matches_bayes_success():
    a = preset_ensemble("A", 4)
    b = preset_ensemble("B", 4)
    estimate = monte_carlo_discrimination(a, b, X_AXIS, 20000, 31)
    assert abs(estimate.value - 0.8125) <= 3.0 * estimate.stderr


def test_monte_carlo_is_at_chance_for_identical_pmfs():
    a = preset_ensemble("A", 10)
    s = preset_ensemble("S", 10)
    estimate = monte_carlo_discrimination(a, s, Z_AXIS, 20000, 13)
    assert abs(estimate.value - 0.5) <= 3.0 * estimate.stderr


def test_monte_carlo_argument_errors():
    a = preset_ensemble("A", 4)
    with pytest.raises(ValueError):
        monte_carlo_discrimination(a, a, Z_AXIS, 0, 1)
    with pytest.raises(ValueError):
        monte_carlo_discrimination(a, preset_ensemble("B", 6), Z_AXIS, 10, 1)
    with pytest.raises(ValueError):
        monte_carlo_discrimination(a, a, Z_AXIS, 10, 1, workers=0)


def test_monte_carlo_parallel_matches_sequential():
    a = preset_ensemble("A", 6)
    b = preset_ensemble("B", 6)
    one = monte_carlo_discrimination(a, b, X_AXIS, 2000, 77)
    four = monte_carlo_discrimination(a, b, X_AXIS, 2000, 77, workers=4)
    assert one == four


@pytest.mark.parametrize("trials", [5, 66, 150])
def test_monte_carlo_does_not_depend_on_workers(monkeypatch, trials):
    # n = 1000 gives blocks of 65 trials: fewer than one block, one block plus
    # one trial, and a count that is not a multiple of the block size.  The
    # CPU count is pinned so that two threads run even on a one-CPU host.
    monkeypatch.setattr(measurement.os, "cpu_count", lambda: 2)
    a = preset_ensemble("A", 1000)
    b = preset_ensemble("S", 1000)
    assert block_size(1000) == 65
    one = monte_carlo_discrimination(a, b, X_AXIS, trials, 77)
    two = monte_carlo_discrimination(a, b, X_AXIS, trials, 77, workers=2)
    assert one == two


def test_report_structure():
    a = preset_ensemble("A", 4)
    b = preset_ensemble("B", 4)
    report = build_report(
        a, b, labels=("A", "B"), k_max=2, axes=[X_AXIS, Z_AXIS], trials=2000, master_seed=7
    )
    assert list(report) == ["pair", "ensembles", "n", "trace_distances", "axes", "seed"]
    assert report["pair"] == ["A", "B"]
    assert report["n"] == 4
    assert report["seed"] == 7
    assert [entry["k"] for entry in report["trace_distances"]] == [1, 2]
    assert report["trace_distances"][0]["distance"] <= 1e-12
    assert report["trace_distances"][1]["distance"] == pytest.approx(1 / 6, abs=1e-10)
    assert list(report["axes"]) == ["x", "z"]
    for figures in report["axes"].values():
        assert 0.0 <= figures["tv_distance"] <= 1.0
        assert 0.5 <= figures["bayes_success"] <= 1.0
        assert figures["bayes_success"] == pytest.approx(
            0.5 * (1.0 + figures["tv_distance"]), abs=1e-12)
        mc = figures["monte_carlo"]
        assert mc["trials"] == 2000
        assert abs(mc["success"] - figures["bayes_success"]) <= 4.0 * max(mc["stderr"], 1e-3)


def test_report_without_trials_has_no_monte_carlo():
    report = build_report(
        preset_ensemble("A", 4),
        preset_ensemble("B", 4),
        k_max=1,
        axes=[Z_AXIS],
    )
    assert "seed" not in report
    assert report["axes"]["z"].keys() == {"tv_distance", "bayes_success"}


def test_every_figure_is_at_chance_for_rotated_mixtures():
    sz = balanced_mixture(6, Z_AXIS)
    sx = balanced_mixture(6, X_AXIS)
    report = build_report(
        sz, sx, k_max=3, axes=[X_AXIS, Z_AXIS], trials=5000, master_seed=19
    )
    for entry in report["trace_distances"]:
        assert entry["distance"] <= 1e-12
    for figures in report["axes"].values():
        assert figures["tv_distance"] <= 1e-12
        assert figures["bayes_success"] == pytest.approx(0.5, abs=1e-12)
        mc = figures["monte_carlo"]
        assert abs(mc["success"] - 0.5) <= 3.0 * mc["stderr"]


@pytest.mark.parametrize("flags, calls, labels", [
    (["--axis=x", "--axis=z"], 4, ["x", "z"]),
    (["--axis=x", "--axis=x", "--axis=2,0,0"], 2, ["x"]),
    (["--axis=x", "--axis=z", "--trials=10"], 8, ["x", "z"]),
])
def test_each_axis_pays_its_count_pmfs_once(monkeypatch, flags, calls, labels):
    # TV and Bayes success of an axis come from one pair of exact pmfs, and
    # three spellings of x print (and compute) one entry; Monte Carlo takes
    # its own pair per axis.
    seen = []

    def counting(spec, axis):
        seen.append(axis)
        return measurement.exact_count_pmf(spec, axis)

    monkeypatch.setattr(discrimination, "exact_count_pmf", counting)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["distinguish", "--a", "A", "--b", "S", "--n", "6", "--kmax", "2", *flags]) == 0
    assert len(seen) == calls
    assert list(json.loads(out.getvalue())["axes"]) == labels
