"""Property tests over random m-component specs of both kinds.

Each spec kind carries its own law: reduced matrices and count pmfs; the
composition marginal is the count pmf at indicator Born weights.  These
properties pin those laws on random specs
(1-4 components, n <= 8, k <= 4) against raw-numpy oracles and against each
other, beyond the presets the other tests use.  Two more reach further: pmf
moments at n between 1030 and 2·10⁴, and the bridge from the count figures
of `build_report` to the trace distances of the full n-particle states.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import pure_states, unit_axes
from spinmix import (
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    FixedComposition,
    IidMixture,
    binomial_pmf,
    build_report,
    composition_distribution,
    delta_pmf,
    ensemble_literal,
    exact_count_pmf,
    parse_ensemble,
    partial_trace_last,
    pmf_moments,
    reduced_density_matrix,
)

PAULI = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))
EXAMPLES = 30


def bloch(state) -> np.ndarray:
    v = state.vector
    return np.array([np.vdot(v, s @ v).real for s in PAULI])


@st.composite
def distinct_states(draw, max_size: int = 4) -> list:
    states = draw(st.lists(pure_states(), min_size=1, max_size=max_size))
    vectors = [bloch(s) for s in states]
    assume(all(np.abs(vectors[i] - vectors[j]).max() > 1e-3
               for i in range(len(vectors)) for j in range(i)))
    return states


@st.composite
def fixed_specs(draw) -> FixedComposition:
    states = draw(distinct_states())
    top = 8 // len(states)
    counts = draw(st.lists(st.integers(0, top), min_size=len(states), max_size=len(states)))
    assume(sum(counts) >= 1)
    return FixedComposition(tuple(zip(states, counts)))


@st.composite
def iid_specs(draw) -> IidMixture:
    states = draw(distinct_states())
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=len(states), max_size=len(states)))
    total = sum(weights)
    assume(total > 0.01)
    return IidMixture(tuple(zip(states, (w / total for w in weights))), draw(st.integers(1, 8)))


specs = st.one_of(fixed_specs(), iid_specs())


@st.composite
def specs_of_size(draw, n: int, max_components: int):
    """A spec of either kind with exactly n particles and at most
    `max_components` entries."""
    states = draw(distinct_states(max_components))
    if draw(st.booleans()):
        cuts = sorted(draw(st.lists(st.integers(0, n), min_size=len(states) - 1,
                                    max_size=len(states) - 1)))
        counts = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, n])]
        return FixedComposition(tuple(zip(states, counts)))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=len(states), max_size=len(states)))
    total = sum(weights)
    assume(total > 0.01)
    return IidMixture(tuple(zip(states, (w / total for w in weights))), n)


@st.composite
def spec_pairs(draw) -> tuple:
    """Two specs on one n: up to two entries each with n <= 8 (the block
    path), or up to three with n <= 5 (the dense path when one has three)."""
    max_components = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 8 if max_components == 2 else 5))
    return draw(specs_of_size(n, max_components)), draw(specs_of_size(n, max_components))


def weights(spec) -> np.ndarray:
    """c_i / n or p_i: the one-particle weight of each component."""
    return np.array([v for _, v in spec.components], dtype=float) / (
        spec.n if isinstance(spec, FixedComposition) else 1.0)


def rho1_oracle(spec) -> np.ndarray:
    return sum(w * np.outer(s.vector, s.vector.conj())
               for w, (s, _) in zip(weights(spec), spec.components))


def plus_weights(spec, axis) -> np.ndarray:
    """Born weight q_i = (1 + b_i·u) / 2 of a +1 outcome for each component."""
    u = np.array([axis.ux, axis.uy, axis.uz])
    return np.array([(1.0 + bloch(s) @ u) / 2.0 for s, _ in spec.components])


@given(specs)
@settings(max_examples=EXAMPLES)
def test_one_particle_state_is_the_weighted_projector_sum(spec):
    rho1 = reduced_density_matrix(spec, 1).matrix
    assert np.abs(rho1 - rho1_oracle(spec)).max() <= 1e-12


@given(specs)
@settings(max_examples=EXAMPLES)
def test_tracing_out_a_particle_gives_the_smaller_reduced_state(spec):
    previous = reduced_density_matrix(spec, 1)
    for k in range(2, min(4, spec.n) + 1):
        current = reduced_density_matrix(spec, k)
        assert np.abs(partial_trace_last(current).matrix - previous.matrix).max() <= 1e-12
        previous = current


def check_count_pmf_moments(spec, axis, atol: float) -> None:
    """The pmf sums to 1, with mean Σ c_i q_i and variance Σ c_i q_i (1 - q_i)
    for a fixed composition, n q̄ and n q̄ (1 - q̄) for a mixture."""
    pmf = exact_count_pmf(spec, axis)
    q = plus_weights(spec, axis)
    if isinstance(spec, FixedComposition):
        c = np.array([c for _, c in spec.components], dtype=float)
        mean, variance = c @ q, c @ (q * (1.0 - q))
    else:
        q_bar = weights(spec) @ q
        mean, variance = spec.n * q_bar, spec.n * q_bar * (1.0 - q_bar)
    assert abs(pmf.probabilities.sum() - 1.0) <= 1e-12
    got_mean, got_variance = pmf_moments(pmf)
    assert abs(got_mean - mean) <= atol and abs(got_variance - variance) <= atol


@given(specs, unit_axes())
@settings(max_examples=EXAMPLES)
def test_count_pmf_moments_follow_the_spec_law(spec, axis):
    check_count_pmf_moments(spec, axis, 1e-9)


@given(st.integers(1030, 2 * 10**4).flatmap(lambda n: specs_of_size(n, 3)), unit_axes())
@settings(max_examples=10)
def test_large_n_count_pmf_moments_follow_the_spec_law(spec, axis):
    # Past n = 1029 binomials come from the ratio recurrence, and a fixed
    # composition convolves one per entry.
    check_count_pmf_moments(spec, axis, 1e-9 * spec.n)


@given(spec_pairs(), unit_axes())
@settings(max_examples=EXAMPLES)
def test_count_figures_never_beat_the_full_state_distance(pair, axis):
    # The count is a measurement on the n-particle state, so its TV is at
    # most T_n; tracing out a particle never increases T_k.
    a, b = pair
    report = build_report(a, b, k_max=a.n, axes=[X_AXIS, Y_AXIS, Z_AXIS, axis])
    distances = [entry["distance"] for entry in report["trace_distances"]]
    assert [entry["k"] for entry in report["trace_distances"]] == list(range(1, a.n + 1))
    assert all(0.0 <= d <= 1.0 for d in distances)
    assert all(later >= earlier - 1e-12 for earlier, later in zip(distances, distances[1:]))
    for figures in report["axes"].values():
        assert figures["tv_distance"] <= distances[-1] + 1e-12
        assert abs(figures["bayes_success"] - 0.5 * (1.0 + figures["tv_distance"])) <= 1e-12


@given(specs)
@settings(max_examples=EXAMPLES)
def test_composition_mean_is_the_count_or_n_times_the_probability(spec):
    for i, w in enumerate(weights(spec)):
        mean, _ = pmf_moments(composition_distribution(spec, i))
        assert abs(mean - spec.n * w) <= 1e-9


@given(specs)
@settings(max_examples=EXAMPLES)
def test_composition_is_a_delta_or_a_binomial_bit_for_bit(spec):
    for i, (_, value) in enumerate(spec.components):
        expected = (delta_pmf(spec.n, value) if isinstance(spec, FixedComposition)
                    else binomial_pmf(spec.n, value))
        got = composition_distribution(spec, i).probabilities
        assert got.tobytes() == expected.probabilities.tobytes()


@given(specs)
@settings(max_examples=EXAMPLES)
def test_literal_round_trips(spec):
    literal = ensemble_literal(spec)
    back = parse_ensemble(literal, spec.n)
    assert type(back) is type(spec) and back.n == spec.n
    assert [v for _, v in back.components] == [v for _, v in spec.components]
    for (s, _), (t, _) in zip(spec.components, back.components):
        # A state is labelled ±x, ±y or ±z only within 1e-12 of that axis.
        assert np.abs(bloch(s) - bloch(t)).max() <= 1e-12


@given(fixed_specs(), unit_axes())
@settings(max_examples=EXAMPLES)
def test_fixed_and_matching_mixture_share_one_particle_state_and_count_mean(fixed, axis):
    mixture = IidMixture(tuple((s, c / fixed.n) for s, c in fixed.components), fixed.n)
    rho_fixed = reduced_density_matrix(fixed, 1).matrix
    assert np.abs(rho_fixed - reduced_density_matrix(mixture, 1).matrix).max() <= 1e-12
    for u in (X_AXIS, Y_AXIS, Z_AXIS, axis):
        fixed_mean, _ = pmf_moments(exact_count_pmf(fixed, u))
        mixture_mean, _ = pmf_moments(exact_count_pmf(mixture, u))
        assert abs(fixed_mean - mixture_mean) <= 1e-9
