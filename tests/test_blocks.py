"""The exchangeable block form of k-particle states against the dense 2**k
matrices and against closed forms.

For specs with at most two components, ρ_k = ⊕_j B_j ⊗ I_{d_j} with blocks
of size 2j + 1 ≤ k + 1, and trace distances come from the blocks alone.
"""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings

from spinmix import (
    X_AXIS,
    Z_AXIS,
    balanced_fixed,
    block_trace_distance,
    exchangeable_blocks,
    pairwise_trace_distances,
    parse_ensemble,
    preset_ensemble,
    reduced_density_matrix,
)
from spinmix.discrimination import _dense_distance
from test_spec_laws import specs

EXAMPLES = 30
two_component_specs = specs.filter(lambda spec: len(spec.components) <= 2)


def dense_distance(a, b, k: int) -> float:
    diff = reduced_density_matrix(a, k).matrix - reduced_density_matrix(b, k).matrix
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def hypergeometric_binomial_tv(n: int, k: int) -> float:
    """TV(Hypergeometric(n, n/2, k), Binomial(k, ½)), exactly: the k-particle
    law of A or B along its own axis against that of S."""
    half = n // 2
    return float(sum(
        abs(Fraction(comb(half, c) * comb(n - half, k - c), comb(n, k)) - Fraction(comb(k, c), 2**k))
        for c in range(k + 1)
    ) / 2)


@given(two_component_specs, two_component_specs)
@settings(max_examples=EXAMPLES)
def test_block_distances_equal_the_dense_ones(a, b):
    for k, distance in pairwise_trace_distances(a, b, min(a.n, b.n)):
        # Jacobi on the dense 2**k matrix is too slow past k = 5 for this
        # suite, so larger k meet LAPACK only, within the absolute accuracy
        # both solvers reach on near-degenerate spectra: LAPACK was 1.1e-14
        # off the exact distance of two 8-particle product states.
        if k <= 5:
            assert abs(distance - _dense_distance(a, b, k)) <= 1e-14
        assert abs(distance - dense_distance(a, b, k)) <= 1e-13


@given(two_component_specs)
@settings(max_examples=EXAMPLES)
def test_block_spectra_repeated_d_j_times_are_the_dense_spectrum(spec):
    for k in range(1, min(6, spec.n) + 1):
        blocks = exchangeable_blocks(spec, k)
        assert [two_j for two_j, _, _ in blocks] == list(range(k, -1, -2))
        assert sum(d * (two_j + 1) for two_j, d, _ in blocks) == 2**k
        assert abs(sum(d * np.trace(block).real for _, d, block in blocks) - 1.0) <= 1e-13
        spectrum = np.concatenate([np.repeat(np.linalg.eigvalsh(block), d) for _, d, block in blocks])
        dense = np.linalg.eigvalsh(reduced_density_matrix(spec, k).matrix)
        assert np.abs(np.sort(spectrum) - dense).max() <= 1e-13


@pytest.mark.parametrize("n", [4, 10, 40])
@pytest.mark.parametrize("pair", ["A/B", "A/S", "B/S"])
def test_pair_distance_is_one_over_two_n_minus_one(pair, n):
    a, b = (preset_ensemble(name, n) for name in pair.split("/"))
    distances = dict(pairwise_trace_distances(a, b, 2))
    assert abs(distances[2] - 1.0 / (2 * (n - 1))) <= 1e-14


@pytest.mark.parametrize("n", [12, 40])
def test_fixed_against_mixture_is_hypergeometric_against_binomial(n):
    s = preset_ensemble("S", n)
    for name in ("A", "B"):
        for k, distance in pairwise_trace_distances(preset_ensemble(name, n), s, 12):
            assert abs(distance - hypergeometric_binomial_tv(n, k)) <= 1e-13


def test_fifty_particle_blocks_keep_their_accuracy():
    # d_j reaches 2.1e13 at k = 50, so some blocks have entries near 1e-13:
    # unscaled, Jacobi's absolute tolerances stop early on them, and the
    # distance was off by 4.8e-2.
    a, s = preset_ensemble("A", 100), preset_ensemble("S", 100)
    pairs = [(d, x - y) for (_, d, x), (_, _, y) in
             zip(exchangeable_blocks(a, 50), exchangeable_blocks(s, 50))]
    assert abs(block_trace_distance(pairs) - hypergeometric_binomial_tv(100, 50)) <= 1e-12


@pytest.mark.parametrize("n", [12, 40])
def test_fixed_pair_distance_never_decreases_up_to_twelve(n):
    distances = [d for _, d in pairwise_trace_distances(preset_ensemble("A", n),
                                                        preset_ensemble("B", n), 12)]
    assert all(later >= earlier for earlier, later in zip(distances, distances[1:]))


def test_draw_weights_are_exact_where_falling_factorials_overflow():
    fixed = balanced_fixed(200, Z_AXIS)
    assert fixed.draw_weight((100, 100)) == pytest.approx(1 / comb(200, 100), rel=1e-12)
    assert fixed.draw_weight((101, 0)) == 0.0
    assert fixed.draw_weight((3, 0)) == pytest.approx(100 * 99 * 98 / (200 * 199 * 198), rel=1e-15)
    mixture = parse_ensemble("iid:x+*0.25/z-*0.75", 10)
    assert mixture.draw_weight((2, 3)) == 0.25**2 * 0.75**3
    with pytest.raises(ValueError):
        mixture.draw_weight((1,))


def test_blocks_reject_three_components_and_too_many_draws():
    with pytest.raises(ValueError, match="at most two components"):
        exchangeable_blocks(parse_ensemble("fixed:x+*1/y+*1/z+*1"), 2)
    with pytest.raises(ValueError, match="cannot select k = 5"):
        exchangeable_blocks(preset_ensemble("S", 4), 5)
    with pytest.raises(ValueError, match="k must be >= 1"):
        exchangeable_blocks(preset_ensemble("S", 4), 0)


def test_blocks_that_lost_their_trace_raise():
    # The polynomial coefficients cancel at large k: for A at n = k the
    # trace defect is 7e-13 at 200 and 3.7e-6 at 280.
    blocks = exchangeable_blocks(balanced_fixed(200, X_AXIS), 200)
    assert abs(sum(d * np.trace(b).real for _, d, b in blocks) - 1.0) <= 1e-10
    with pytest.raises(RuntimeError, match="lost accuracy at k = 280"):
        exchangeable_blocks(balanced_fixed(280, X_AXIS), 280)
