import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_reduced,
    composed_rotation,
    particle_vectors,
    random_density,
    random_hermitian,
    reference_jacobi_diagonal,
)
import spinmix.linalg as linalg
from spinmix import (
    DensityMatrix,
    X_AXIS,
    Z_AXIS,
    balanced_fixed,
    hermitian_eigenvalues,
    kron,
    kron_power,
    partial_trace_last,
    projector,
    trace_distance,
)

I2 = np.eye(2, dtype=complex)


def test_kron_identity():
    assert np.array_equal(kron(I2, I2), np.eye(4, dtype=complex))


def test_kron_projectors():
    p = np.diag([1.0, 0.0]).astype(complex)
    assert np.array_equal(kron(p, p), np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))


def test_kron_of_orthogonal_projectors_is_rank_one():
    m = kron(projector(X_AXIS, +1), projector(X_AXIS, -1))
    assert abs(np.trace(m) - 1.0) < 1e-12
    eigs = hermitian_eigenvalues(m)
    assert np.allclose(eigs, [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_kron_rejects_nonsquare():
    with pytest.raises(ValueError):
        kron(np.ones((2, 3)), I2)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_kron_associativity_and_trace(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    assert np.abs(left - right).max() <= 1e-12
    assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) <= 1e-12


def test_kron_power():
    assert np.array_equal(kron_power(I2, 3), np.eye(8, dtype=complex))
    with pytest.raises(ValueError):
        kron_power(I2, 0)


def test_partial_trace_of_quarter_identity():
    rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0, 2)
    out = partial_trace_last(rho)
    assert np.abs(out.matrix - I2 / 2.0).max() <= 1e-12
    assert out.particle_count == 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_partial_trace_of_product_state(seed):
    rng = np.random.default_rng(seed)
    p = random_density(rng, 2)
    sigma = random_density(rng, 2)
    rho = DensityMatrix(kron(p, sigma), 2)
    out = partial_trace_last(rho)
    assert np.abs(out.matrix - p).max() <= 1e-12


def test_partial_trace_of_brute_force_pair_state():
    # Pair state of the half/half x composition at n=4, built by enumeration.
    pair = brute_force_reduced(particle_vectors(balanced_fixed(4, X_AXIS)), 2)
    out = partial_trace_last(DensityMatrix(pair, 2))
    assert np.abs(out.matrix - I2 / 2.0).max() <= 1e-12


def test_partial_trace_rejects_single_particle():
    rho = DensityMatrix(I2 / 2.0, 1)
    with pytest.raises(ValueError):
        partial_trace_last(rho)


def test_eigenvalues_of_diagonal():
    assert np.allclose(hermitian_eigenvalues(np.diag([1.0, 0.0])), [0.0, 1.0], atol=1e-13)


def test_eigenvalues_of_rank_one_projector():
    m = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    assert np.allclose(hermitian_eigenvalues(m), [0.0, 1.0], atol=1e-13)


def test_eigenvalues_of_brute_force_pair_state():
    # Oracle value: spectrum {1/6, 1/6, 1/3, 1/3} for the z pair state at n=4.
    pair = brute_force_reduced(particle_vectors(balanced_fixed(4, Z_AXIS)), 2)
    eigs = hermitian_eigenvalues(pair)
    assert np.allclose(eigs, [1 / 6, 1 / 6, 1 / 3, 1 / 3], atol=1e-12)


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 8]))
@settings(max_examples=40)
def test_eigenvalue_sum_matches_trace(seed, dim):
    m = random_hermitian(np.random.default_rng(seed), dim)
    eigs = hermitian_eigenvalues(m)
    assert abs(eigs.sum() - np.trace(m).real) <= 1e-10


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 6]))
@settings(max_examples=25)
def test_eigenvalues_recover_rotated_diagonal(seed, dim):
    rng = np.random.default_rng(seed)
    d = np.sort(rng.uniform(-2.0, 2.0, size=dim))
    u = composed_rotation(rng, dim)
    m = u @ np.diag(d) @ u.conj().T
    m = 0.5 * (m + m.conj().T)
    assert np.abs(hermitian_eigenvalues(m) - d).max() <= 1e-10


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 8]))
@settings(max_examples=25)
def test_eigenvalues_match_lapack(seed, dim):
    m = random_hermitian(np.random.default_rng(seed), dim)
    assert np.abs(hermitian_eigenvalues(m) - np.linalg.eigvalsh(m)).max() <= 1e-10


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 3, 8, 32]),
    st.sampled_from(["dense", "sparse", "scaled"]),
)
@settings(max_examples=40)
def test_real_matrices_give_the_embedding_spectrum_bit_for_bit(seed, dim, kind):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    if kind == "sparse":
        a[rng.random((dim, dim)) < 0.7] = 0.0
    a = a + a.T
    if kind == "scaled":
        a *= 1e-8
    # The complex path: Jacobi on the real symmetric embedding, one copy of each pair.
    b = np.zeros_like(a)
    s = np.block([[a, -b], [b, a]])
    diag = linalg._jacobi_diagonal(0.5 * (s + s.T), linalg.JACOBI_OFF_TOL)
    diag.sort()
    assert np.array_equal(hermitian_eigenvalues(a), diag[::2])


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 3, 8, 32]),
    st.sampled_from(["dense", "sparse", "scaled"]),
    st.booleans(),
)
@settings(max_examples=40)
def test_mirrored_rotations_give_the_column_then_row_spectrum_bit_for_bit(
    seed, dim, kind, complex_input
):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim))
    if complex_input:
        m = m + 1j * rng.normal(size=(dim, dim))
    if kind == "sparse":
        m[rng.random((dim, dim)) < 0.7] = 0.0
    m = m + m.conj().T
    if kind == "scaled":
        m *= 1e-8
    a, b = m.real, m.imag
    if complex_input:
        s = np.block([[a, -b], [b, a]])
        expected = reference_jacobi_diagonal(0.5 * (s + s.T), linalg.JACOBI_OFF_TOL)
        expected.sort()
        expected = expected[::2]
    else:
        expected = reference_jacobi_diagonal(0.5 * (a + a.T), linalg.JACOBI_OFF_TOL, copies=2)
        expected.sort()
    assert np.array_equal(hermitian_eigenvalues(m), expected)


def test_jacobi_leaves_its_input_intact():
    a = random_hermitian(np.random.default_rng(3), 6).real
    before = a.copy()
    linalg._jacobi_diagonal(a, linalg.JACOBI_OFF_TOL)
    assert np.array_equal(a, before)


def test_trace_distance_of_identical_states():
    rho = DensityMatrix(I2 / 2.0, 1)
    assert trace_distance(rho, rho) == 0.0


def test_trace_distance_of_orthogonal_pure_states():
    up = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), 1)
    down = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), 1)
    assert abs(trace_distance(up, down) - 1.0) <= 1e-12


def test_trace_distance_rejects_dimension_mismatch():
    a = DensityMatrix(I2 / 2.0, 1)
    b = DensityMatrix(np.eye(4, dtype=complex) / 4.0, 2)
    with pytest.raises(ValueError):
        trace_distance(a, b)


def test_trace_distance_clamps_rounding_and_rejects_solver_error(monkeypatch):
    up = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), 1)
    down = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), 1)

    def spectrum(distance):
        return lambda m: np.array([-distance, distance])

    monkeypatch.setattr(linalg, "hermitian_eigenvalues", spectrum(1.0 + 0.5 * linalg.ATOL_EIGEN))
    assert trace_distance(up, down) == 1.0
    monkeypatch.setattr(linalg, "hermitian_eigenvalues", spectrum(1.0 + 2.0 * linalg.ATOL_EIGEN))
    with pytest.raises(RuntimeError, match="exceeds 1"):
        trace_distance(up, down)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_trace_distance_metric_properties(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (DensityMatrix(random_density(rng, 4), 2) for _ in range(3))
    dab = trace_distance(a, b)
    dba = trace_distance(b, a)
    dac = trace_distance(a, c)
    dcb = trace_distance(c, b)
    assert dab >= 0.0
    assert abs(dab - dba) <= 1e-10
    assert dab <= dac + dcb + 1e-10


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_random_density_matrices_are_positive(seed):
    rho = DensityMatrix(random_density(np.random.default_rng(seed), 4), 2)
    assert rho.min_eigenvalue() >= -1e-12


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]), 1)  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(I2, 1)  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(I2 / 2.0, 2)  # dim != 2**k
    with pytest.raises(ValueError, match="outside 1..12"):
        DensityMatrix(I2 / 2.0, 13)  # over the cap, checked before any copy


def test_density_matrix_is_frozen():
    rho = DensityMatrix(I2 / 2.0, 1)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0
