import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_reduced,
    iid_sequence_sum,
    pair_frequencies,
    pair_state,
    particle_vectors,
    swap_slots,
)
from spinmix import (
    COUNT_N_CAP,
    PARTICLE_CAP,
    Axis,
    CountPmf,
    FixedComposition,
    IidMixture,
    X_AXIS,
    Z_AXIS,
    axis_basis_matrix,
    balanced_fixed,
    balanced_mixture,
    binomial_pmf,
    composition_distribution,
    delta_pmf,
    ensemble_literal,
    make_urn,
    parse_ensemble,
    partial_trace_last,
    preset_ensemble,
    reduced_density_matrix,
    spinor,
    total_variation,
    trace_distance,
)
from spinmix.ensembles import BINOMIAL_DIRECT_MAX_N

TILTED = Axis.from_vector(0.6, 0.0, 0.8)


def three_component_spec() -> FixedComposition:
    return FixedComposition(
        ((spinor(Z_AXIS, +1), 1), (spinor(TILTED, +1), 2), (spinor(X_AXIS, -1), 1))
    )


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def test_preset_a_holds_equal_x_counts():
    spec = preset_ensemble("A", 4)
    assert spec.components == ((spinor(X_AXIS, +1), 2), (spinor(X_AXIS, -1), 2))
    assert spec.n == 4


def test_preset_b_holds_equal_z_counts():
    spec = preset_ensemble("B", 4)
    assert spec.components == ((spinor(Z_AXIS, +1), 2), (spinor(Z_AXIS, -1), 2))


def test_smallest_balanced_fixed():
    spec = balanced_fixed(2, X_AXIS)
    assert spec.components == ((spinor(X_AXIS, +1), 1), (spinor(X_AXIS, -1), 1))


@pytest.mark.parametrize("n", [3, 0, -2])
def test_balanced_fixed_rejects_bad_n(n):
    with pytest.raises(ValueError):
        balanced_fixed(n, X_AXIS)


def test_balanced_mixture_components():
    spec = balanced_mixture(4, Z_AXIS)
    assert spec.n == 4
    assert spec.components == ((spinor(Z_AXIS, +1), 0.5), (spinor(Z_AXIS, -1), 0.5))


def test_balanced_mixture_single_draw():
    assert balanced_mixture(1, TILTED).n == 1


def test_preset_dispatch_rejects_unknown():
    with pytest.raises(ValueError):
        preset_ensemble("Q", 4)


def test_spec_validation():
    up = spinor(Z_AXIS, +1)
    down = spinor(Z_AXIS, -1)
    with pytest.raises(ValueError):
        FixedComposition(((up, 2), (up, 2)))  # duplicate states
    with pytest.raises(ValueError):
        FixedComposition(((up, -1), (down, 2)))
    with pytest.raises(ValueError):
        FixedComposition(((up, 0), (down, 0)))
    with pytest.raises(ValueError):
        IidMixture(((up, 0.7), (down, 0.2)), 4)  # sums to 0.9
    with pytest.raises(ValueError):
        IidMixture(((up, 0.5), (down, 0.5)), 0)


@pytest.mark.parametrize("count", [2.7, 2.0, "3", True, None, np.float64(2.0)])
def test_fixed_counts_must_be_integers(count):
    with pytest.raises(ValueError, match="not an integer"):
        FixedComposition(((spinor(Z_AXIS, +1), count), (spinor(Z_AXIS, -1), 1)))


@pytest.mark.parametrize("n", [2.5, 4.0, "4", True, None])
def test_iid_n_must_be_an_integer(n):
    with pytest.raises(ValueError, match="not an integer"):
        IidMixture(((spinor(Z_AXIS, +1), 0.5), (spinor(Z_AXIS, -1), 0.5)), n)
    if isinstance(n, float):
        with pytest.raises(ValueError, match="not an integer"):
            make_urn(n)
        with pytest.raises(ValueError, match="not an integer"):
            make_urn(5, n)


@pytest.mark.parametrize("n", ["4", None, [4]])
def test_constructors_reject_a_non_integer_n_before_comparing_it(n):
    for build in (balanced_fixed, balanced_mixture):
        with pytest.raises(ValueError, match="not an integer"):
            build(n, Z_AXIS)
    with pytest.raises(ValueError, match="not an integer"):
        make_urn(n)
    if n is not None:
        with pytest.raises(ValueError, match="not an integer"):
            make_urn(4, n)


def test_numpy_integer_counts_and_n_are_plain_ints():
    up, down = spinor(Z_AXIS, +1), spinor(Z_AXIS, -1)
    fixed = FixedComposition(((up, np.int64(3)), (down, np.uint8(1))))
    assert fixed == FixedComposition(((up, 3), (down, 1)))
    assert all(type(c) is int for _, c in fixed.components)
    mixture = IidMixture(((up, 0.5), (down, 0.5)), np.int32(4))
    assert mixture == balanced_mixture(4, Z_AXIS) and type(mixture.n) is int
    assert ensemble_literal(fixed) == "fixed:z+*3/z-*1"
    assert ensemble_literal(mixture) == "iid:z+*0.5/z-*0.5"


# ---------------------------------------------------------------------------
# Composition distributions and the urn
# ---------------------------------------------------------------------------


def test_iid_composition_is_binomial():
    pmf = composition_distribution(balanced_mixture(2, Z_AXIS), 0)
    assert np.array_equal(pmf.probabilities, [0.25, 0.5, 0.25])


def test_single_draw_composition():
    pmf = composition_distribution(balanced_mixture(1, Z_AXIS), 0)
    assert np.array_equal(pmf.probabilities, [0.5, 0.5])


def test_fixed_composition_is_delta():
    pmf = composition_distribution(balanced_fixed(4, Z_AXIS), 0)
    assert np.array_equal(pmf.probabilities, [0.0, 0.0, 1.0, 0.0, 0.0])


def test_composition_rejects_bad_index():
    with pytest.raises(ValueError):
        composition_distribution(balanced_fixed(4, Z_AXIS), 2)


def test_fixed_urn_is_peaked():
    spec = make_urn(4, 2)
    assert np.array_equal(
        composition_distribution(spec, 0).probabilities, delta_pmf(4, 2).probabilities
    )


def test_single_black_ball_urn():
    from spinmix import urn_composition

    assert np.array_equal(urn_composition(make_urn(1, 1)).probabilities, [0.0, 1.0])


def test_random_urn_is_exactly_binomial():
    from spinmix import urn_composition

    pmf = urn_composition(make_urn(4))
    expected = [comb(4, m) * 2.0**-4 for m in range(5)]
    assert all(pmf.probabilities[m] == expected[m] for m in range(5))


def test_urn_rejects_bad_counts():
    with pytest.raises(ValueError):
        make_urn(4, 5)
    with pytest.raises(ValueError):
        make_urn(0)


@given(st.integers(1, 40))
@settings(max_examples=40)
def test_symmetric_binomial_composition_is_symmetric(n):
    pmf = composition_distribution(balanced_mixture(n, Z_AXIS), 0).probabilities
    for m in range(n + 1):
        assert abs(pmf[m] - pmf[n - m]) <= 1e-15
    assert abs(pmf.sum() - 1.0) <= 1e-15


def test_direct_binomial_limit_is_the_last_n_without_overflow():
    n = BINOMIAL_DIRECT_MAX_N
    assert comb(n, n // 2) < 2**1024 <= comb(n + 1, (n + 1) // 2)
    float(comb(n, n // 2))
    with pytest.raises(OverflowError):
        float(comb(n + 1, (n + 1) // 2))


@pytest.mark.parametrize("n", [5, 1030, 5000, 10**4, 10**5])
def test_binomial_at_p_zero_and_one_is_a_delta(n):
    assert np.array_equal(binomial_pmf(n, 0.0).probabilities, delta_pmf(n, 0).probabilities)
    assert np.array_equal(binomial_pmf(n, 1.0).probabilities, delta_pmf(n, n).probabilities)


@pytest.mark.parametrize("n", [1030, 10**4, 10**5])
@pytest.mark.parametrize("q", [0.5, 0.3, 1e-3, 0.999, 1e-200])
def test_large_binomial_sum_and_moments(n, q):
    pmf = binomial_pmf(n, q)
    counts = np.arange(n + 1, dtype=float)
    mean = float(counts @ pmf.probabilities)
    variance = float(((counts - mean) ** 2) @ pmf.probabilities)
    assert abs(pmf.probabilities.sum() - 1.0) <= 1e-12
    assert abs(mean - n * q) <= 1e-9 * n
    assert abs(variance - n * q * (1.0 - q)) <= 1e-9 * n


# ---------------------------------------------------------------------------
# Pair weights
# ---------------------------------------------------------------------------


def test_ordered_weights_match_pair_frequencies():
    par, anti = pair_frequencies(4)
    assert par == pytest.approx(1 / 6, abs=1e-15)
    assert anti == pytest.approx(1 / 3, abs=1e-15)


# ---------------------------------------------------------------------------
# Reduced density matrices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 10, 100])
def test_one_particle_state_is_maximally_mixed(n):
    rho = reduced_density_matrix(balanced_fixed(n, X_AXIS), 1)
    assert np.abs(rho.matrix - np.eye(2) / 2.0).max() <= 1e-12


def test_iid_pair_state_is_quarter_identity():
    rho = reduced_density_matrix(balanced_mixture(8, Z_AXIS), 2)
    assert np.abs(rho.matrix - np.eye(4) / 4.0).max() <= 1e-12


def test_x_pair_state_is_diagonal_in_its_own_basis():
    rho = reduced_density_matrix(balanced_fixed(4, X_AXIS), 2)
    rotated = axis_basis_matrix(rho, X_AXIS)
    assert np.abs(np.diag(rotated) - np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6])).max() <= 1e-12
    assert np.abs(rotated - np.diag(np.diag(rotated))).max() <= 1e-12


def test_z_pair_state_closed_form_structure():
    # 1/4 I⊗I minus 1/12 times the x-basis spin-flip cross operator, at n=4.
    rho = reduced_density_matrix(balanced_fixed(4, Z_AXIS), 2)
    xp = spinor(X_AXIS, +1).vector
    xm = spinor(X_AXIS, -1).vector
    flip = {id(xp): xm, id(xm): xp}
    cross = np.zeros((4, 4), dtype=complex)
    for v0, v1 in itertools.product((xp, xm), repeat=2):
        ket = np.kron(flip[id(v0)], flip[id(v1)])
        bra = np.kron(v0, v1)
        cross += np.outer(ket, bra.conj())
    expected = np.eye(4) / 4.0 - cross / 12.0
    assert np.abs(rho.matrix - expected).max() <= 1e-12


def test_reduced_matrix_range_errors():
    spec = balanced_fixed(4, X_AXIS)
    with pytest.raises(ValueError):
        reduced_density_matrix(spec, 0)
    with pytest.raises(ValueError):
        reduced_density_matrix(spec, 5)  # k > n for a fixed composition
    with pytest.raises(ValueError):
        reduced_density_matrix(balanced_mixture(20, Z_AXIS), 13)  # over the cap


def test_reduced_matrix_checks_the_particle_cap_before_building(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr("spinmix.ensembles.state_projector", fail)
    with pytest.raises(ValueError, match=f"k = 13 exceeds the particle cap {PARTICLE_CAP}"):
        reduced_density_matrix(balanced_fixed(40, X_AXIS), PARTICLE_CAP + 1)


def test_composition_rejects_n_above_the_count_cap():
    spec = FixedComposition(((spinor(Z_AXIS, +1), COUNT_N_CAP), (spinor(Z_AXIS, -1), 1)))
    with pytest.raises(ValueError, match="exceeds the count cap"):
        composition_distribution(spec, 0)


def test_mixture_reduced_matrix_takes_at_most_n_particles():
    with pytest.raises(ValueError, match="cannot select k = 3 of the ensemble's n = 2"):
        reduced_density_matrix(balanced_mixture(2, Z_AXIS), 3)


@pytest.mark.parametrize("preset", ["A", "B"])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_fixed_reduced_matrices_match_brute_force(preset, n):
    spec = preset_ensemble(preset, n)
    particles = particle_vectors(spec)
    for k in range(1, n + 1):
        expected = brute_force_reduced(particles, k)
        actual = reduced_density_matrix(spec, k).matrix
        assert np.abs(actual - expected).max() <= 1e-12


def test_three_component_reduced_matches_brute_force():
    spec = three_component_spec()
    particles = particle_vectors(spec)
    for k in range(1, spec.n + 1):
        expected = brute_force_reduced(particles, k)
        assert np.abs(reduced_density_matrix(spec, k).matrix - expected).max() <= 1e-12


def test_iid_reduced_matches_sequence_sum():
    spec = IidMixture(((spinor(TILTED, +1), 0.3), (spinor(Z_AXIS, -1), 0.7)), 5)
    for k in range(1, 5):
        expected = iid_sequence_sum(spec, k)
        assert np.abs(reduced_density_matrix(spec, k).matrix - expected).max() <= 1e-12


@pytest.mark.parametrize(
    "spec",
    [balanced_fixed(6, X_AXIS), balanced_fixed(4, Z_AXIS), balanced_mixture(5, X_AXIS)],
    ids=["A6", "B4", "S5"],
)
def test_partial_trace_consistency(spec):
    limit = min(spec.n, 5)
    for k in range(2, limit + 1):
        rho_k = reduced_density_matrix(spec, k)
        rho_prev = reduced_density_matrix(spec, k - 1)
        assert np.abs(partial_trace_last(rho_k).matrix - rho_prev.matrix).max() <= 1e-12


def test_exchange_symmetry_of_fixed_reduced_matrices():
    for spec, k in ((balanced_fixed(6, X_AXIS), 3), (three_component_spec(), 3)):
        rho = reduced_density_matrix(spec, k).matrix
        for i, j in itertools.combinations(range(k), 2):
            assert np.abs(swap_slots(rho, k, i, j) - rho).max() <= 1e-12


def test_reduced_matrices_are_positive():
    for spec in (balanced_fixed(4, X_AXIS), three_component_spec(), balanced_mixture(4, Z_AXIS)):
        rho = reduced_density_matrix(spec, 3)
        assert rho.min_eigenvalue() >= -1e-12


def test_one_particle_states_of_both_fixed_ensembles_coincide():
    a = reduced_density_matrix(balanced_fixed(10, X_AXIS), 1)
    b = reduced_density_matrix(balanced_fixed(10, Z_AXIS), 1)
    assert trace_distance(a, b) <= 1e-12


@pytest.mark.parametrize("n", [2, 4, 6, 10, 100])
def test_pair_distance_law(n):
    a = reduced_density_matrix(balanced_fixed(n, X_AXIS), 2)
    b = reduced_density_matrix(balanced_fixed(n, Z_AXIS), 2)
    law = 1.0 / (2.0 * (n - 1.0))
    assert trace_distance(a, b) == pytest.approx(law, abs=1e-10)


@pytest.mark.parametrize("n", [2, 4, 6, 10, 100])
def test_closed_pair_forms_match_reduced_matrices(n):
    for axis in (X_AXIS, Z_AXIS):
        direct = reduced_density_matrix(balanced_fixed(n, axis), 2).matrix
        assert np.abs(direct - pair_state(n, axis)).max() <= 1e-12


# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------


def test_preset_literals_parse():
    assert parse_ensemble("A", 4) == balanced_fixed(4, X_AXIS)
    assert parse_ensemble("B", 6) == balanced_fixed(6, Z_AXIS)
    assert parse_ensemble("S", 4) == balanced_mixture(4, Z_AXIS)
    assert parse_ensemble("S:x", 3) == balanced_mixture(3, X_AXIS)


def test_explicit_literals_parse():
    assert parse_ensemble("fixed:x+*2/x-*2") == balanced_fixed(4, X_AXIS)
    assert parse_ensemble("fixed:x+*2/x-*2", 4) == balanced_fixed(4, X_AXIS)
    assert parse_ensemble("iid:z+*0.5/z-*0.5", 4) == balanced_mixture(4, Z_AXIS)
    spec = parse_ensemble("fixed:(0.6,0,0.8)+*3/z-*1")
    assert spec.n == 4
    assert spec.components[0][1] == 3


def test_literal_round_trip():
    for spec in (
        balanced_fixed(4, X_AXIS),
        balanced_mixture(5, Z_AXIS),
        three_component_spec(),
    ):
        text = ensemble_literal(spec)
        again = parse_ensemble(text, spec.n)
        assert type(again) is type(spec)
        assert again.n == spec.n
        for (s1, v1), (s2, v2) in zip(spec.components, again.components):
            assert v1 == pytest.approx(v2, abs=1e-12)
            assert abs(s1.a0 - s2.a0) <= 1e-9 and abs(s1.a1 - s2.a1) <= 1e-9


def test_literal_errors():
    with pytest.raises(ValueError):
        parse_ensemble("A")  # preset without n
    with pytest.raises(ValueError):
        parse_ensemble("A:x", 4)  # A takes no axis qualifier
    with pytest.raises(ValueError):
        parse_ensemble("fixed:x+*2/x-*2", 3)  # n mismatch
    with pytest.raises(ValueError):
        parse_ensemble("iid:z+*0.5/z-*0.5")  # iid needs n
    with pytest.raises(ValueError):
        parse_ensemble("iid:z+*0.6/z-*0.5", 2)  # probabilities exceed 1
    with pytest.raises(ValueError):
        parse_ensemble("fixed:z+*1/z+*1")  # duplicate states
    with pytest.raises(ValueError):
        parse_ensemble("bogus", 4)
    with pytest.raises(ValueError):
        parse_ensemble("fixed:", 4)
    with pytest.raises(ValueError):
        parse_ensemble("fixed:x*2", 2)  # missing sign


# ---------------------------------------------------------------------------
# CountPmf plumbing
# ---------------------------------------------------------------------------


def test_count_pmf_validation():
    with pytest.raises(ValueError):
        CountPmf(2, np.array([0.5, 0.5]))  # wrong length
    with pytest.raises(ValueError):
        CountPmf(1, np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        CountPmf(1, np.array([0.3, 0.3]))


def test_total_variation_requires_matching_support():
    with pytest.raises(ValueError):
        total_variation(delta_pmf(2, 1), delta_pmf(3, 1))
    assert total_variation(delta_pmf(2, 0), delta_pmf(2, 2)) == 1.0
