import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    pair_state,
    pair_state_cross_expansion,
    pure_states,
    reference_axis_from_vector,
    signs,
    unit_axes,
)
from spinmix import (
    Axis,
    PureState,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    axis_label,
    kron,
    parse_axis,
    projector,
    spinor,
    state_projector,
    transition_probability,
)
from spinmix.spin import SIGMA_X, SIGMA_Y, SIGMA_Z

SQ2 = 1.0 / math.sqrt(2.0)


def test_spinor_z_plus_is_computational_basis():
    s = spinor(Z_AXIS, +1)
    assert s.a0 == 1.0 and s.a1 == 0.0


def test_spinor_x_eigenstates():
    plus = spinor(X_AXIS, +1)
    minus = spinor(X_AXIS, -1)
    assert plus.a0 == pytest.approx(SQ2, abs=1e-15) and plus.a1 == pytest.approx(SQ2, abs=1e-15)
    assert minus.a0 == pytest.approx(SQ2, abs=1e-15) and minus.a1 == pytest.approx(-SQ2, abs=1e-15)


def test_spinor_is_bitwise_deterministic():
    axis = Axis.from_vector(0.3, -0.4, 0.5)
    a = spinor(axis, -1)
    b = spinor(axis, -1)
    assert a.a0 == b.a0 and a.a1 == b.a1


@given(unit_axes(), signs())
def test_spinor_is_axis_eigenvector(axis, sign):
    op = axis.ux * SIGMA_X + axis.uy * SIGMA_Y + axis.uz * SIGMA_Z
    v = spinor(axis, sign).vector
    assert np.abs(op @ v - sign * v).max() <= 1e-12


def test_spinor_rejects_bad_sign():
    with pytest.raises(ValueError):
        spinor(Z_AXIS, 2)


def test_projector_examples():
    assert np.abs(projector(Z_AXIS, +1) - np.diag([1.0, 0.0])).max() <= 1e-15
    expected = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    assert np.abs(projector(X_AXIS, +1) - expected).max() <= 1e-15


@given(unit_axes())
@settings(max_examples=100)
def test_projector_completeness(axis):
    total = projector(axis, +1) + projector(axis, -1)
    assert np.abs(total - np.eye(2)).max() <= 1e-12


@given(unit_axes(), signs())
def test_projector_matches_spinor_outer_product(axis, sign):
    assert np.abs(projector(axis, sign) - state_projector(spinor(axis, sign))).max() <= 1e-12


def test_transition_probability_examples():
    assert transition_probability(spinor(Z_AXIS, +1), Z_AXIS, +1) == 1.0
    assert transition_probability(spinor(X_AXIS, +1), Z_AXIS, +1) == 0.5


def test_transition_probability_polar_angle_law():
    # Analytic oracle: starting from z+, the +1 weight along a tilted axis
    # at polar angle theta is cos^2(theta/2).
    up = spinor(Z_AXIS, +1)
    for theta in np.linspace(0.0, math.pi, 31):
        axis = Axis.from_vector(math.sin(theta), 0.0, math.cos(theta))
        expected = math.cos(theta / 2.0) ** 2
        assert transition_probability(up, axis, +1) == pytest.approx(expected, abs=1e-12)


@given(pure_states(), unit_axes())
def test_transition_probabilities_sum_to_one(state, axis):
    total = transition_probability(state, axis, +1) + transition_probability(state, axis, -1)
    assert total == pytest.approx(1.0, abs=1e-12)


@given(pure_states(), unit_axes(), signs())
def test_transition_probability_matches_overlap(state, axis, sign):
    # Independent route: literal squared overlap with the target spinor.
    overlap = np.vdot(spinor(axis, sign).vector, state.vector)
    assert transition_probability(state, axis, sign) == pytest.approx(
        abs(overlap) ** 2, abs=1e-12
    )


def test_parse_axis_names_and_triples():
    assert parse_axis("x") == X_AXIS
    assert parse_axis(" Z ") == Z_AXIS
    axis = parse_axis("0,3,4")
    assert (axis.ux, axis.uy, axis.uz) == pytest.approx((0.0, 0.6, 0.8), abs=1e-15)


def test_parse_axis_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_axis("0,0,0")
    with pytest.raises(ValueError):
        parse_axis("north")
    with pytest.raises(ValueError):
        parse_axis("1,2")


def test_axis_label_round_trip():
    assert axis_label(X_AXIS) == "x"
    tilted = Axis.from_vector(1.0, 1.0, 0.0)
    relabeled = parse_axis(axis_label(tilted))
    assert (relabeled.ux, relabeled.uy, relabeled.uz) == pytest.approx(
        (tilted.ux, tilted.uy, tilted.uz), abs=1e-15
    )


@pytest.mark.parametrize("v", [(1e308, 1e308, 0.0), (1.7e308, -3e307, 1e300), (0.0, 0.0, -1e200)])
def test_overflowing_axis_vectors_equal_their_mantissas_at_unit_scale(v):
    e = math.frexp(max(abs(u) for u in v))[1]
    assert Axis.from_vector(*v) == Axis.from_vector(*(math.ldexp(u, -e) for u in v))


@pytest.mark.parametrize(
    "v", [(1e-200, 1e-200, 0.0), (5e-324, -5e-324, 1e-320), (0.0, -1e-160, 0.0)]
)
def test_underflowing_axis_vectors_equal_their_mantissas_at_unit_scale(v):
    e = math.frexp(max(abs(u) for u in v))[1]
    assert Axis.from_vector(*v) == Axis.from_vector(*(math.ldexp(u, -e) for u in v))


def test_only_the_zero_vector_has_no_direction():
    assert Axis.from_vector(1e-13, 0.0, 0.0) == X_AXIS
    assert Axis.from_vector(0.0, -5e-324, 0.0) == Axis(0.0, -1.0, 0.0)
    for v in ((0.0, 0.0, 0.0), (-0.0, 0.0, -0.0)):
        with pytest.raises(ValueError, match="nonzero"):
            Axis.from_vector(*v)


finite = st.floats(allow_nan=False, allow_infinity=False)
tiny = st.floats(-1e-10, 1e-10)


@given(st.tuples(*[st.one_of(finite, tiny)] * 3))
@settings(max_examples=300)
def test_every_vector_accepted_before_keeps_its_bits(v):
    try:
        expected = reference_axis_from_vector(*v)
    except ValueError:
        return
    assert [repr(u) for u in Axis.from_vector(*v).components()] == [
        repr(u) for u in expected.components()
    ]


def test_axis_requires_unit_norm():
    with pytest.raises(ValueError):
        Axis(1.0, 1.0, 0.0)


def test_pure_state_requires_normalization():
    with pytest.raises(ValueError):
        PureState(1.0, 1.0)


def test_pure_state_bloch_vector():
    assert spinor(Z_AXIS, +1).bloch() == (0.0, 0.0, 1.0)
    bx, by, bz = spinor(Y_AXIS, +1).bloch()
    assert (bx, by, bz) == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)


def test_phase_key_fixes_leading_sign():
    state = PureState(-SQ2 + 0.0j, SQ2 + 0.0j)
    k0, k1 = state.phase_key()
    assert k0.real > 0.0
    assert k0 == pytest.approx(SQ2, abs=1e-15) and k1 == pytest.approx(-SQ2, abs=1e-15)


@pytest.mark.parametrize("n", [2, 4, 10])
def test_pair_state_agrees_between_z_and_x_constructions(n):
    # The z-basis pair state of the half/half z composition equals its
    # expansion over x pair projectors plus spin-flip cross terms.
    assert np.abs(pair_state(n, Z_AXIS) - pair_state_cross_expansion(n)).max() <= 1e-12


def test_single_projector_cross_basis_identity_does_not_hold():
    # The pair-level agreement above does NOT descend to single projectors:
    # |z+ z+><z+ z+| has rank 1 while the symmetric x combination has rank 2,
    # so asserting that identity operator-by-operator would be wrong.
    zz = kron(projector(Z_AXIS, +1), projector(Z_AXIS, +1))
    xx = 0.5 * (
        kron(projector(X_AXIS, +1), projector(X_AXIS, +1))
        + kron(projector(X_AXIS, -1), projector(X_AXIS, -1))
    )
    assert np.abs(zz - xx).max() > 0.1
