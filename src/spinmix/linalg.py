"""Dense complex matrix algebra for k-particle spin spaces (dimension 2**k),
and trace distances of states given as multiplicity-weighted blocks.

Everything here is a pure function of its inputs; matrices handed to
callers are never mutated and `DensityMatrix` freezes its payload.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

# Absolute tolerance for algebraic identities (hermiticity, trace, entrywise equality).
ATOL_ALGEBRA = 1e-12
# Tolerance for eigenvalue-mediated quantities (spectra, trace distances).
ATOL_EIGEN = 1e-10
# Jacobi sweeps stop once the off-diagonal Frobenius norm falls below this.
JACOBI_OFF_TOL = 1e-13
# Largest supported particle number; 2**12 = 4096-dimensional matrices.
PARTICLE_CAP = 12

_MAX_JACOBI_SWEEPS = 100


def _as_square_complex(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square complex matrices."""
    return np.kron(_as_square_complex(a, "a"), _as_square_complex(b, "b"))


def kron_power(a: np.ndarray, k: int) -> np.ndarray:
    """k-fold Kronecker power a ⊗ a ⊗ ... ⊗ a, k >= 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    out = _as_square_complex(a, "a")
    for _ in range(k - 1):
        out = np.kron(out, a)
    return out


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation |M - M†|."""
    m = np.asarray(m)
    return float(np.abs(m - m.conj().T).max())


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated k-particle density matrix in the computational (z) basis.

    Construction enforces the cheap invariants (k within 1..PARTICLE_CAP,
    checked before the matrix is copied; shape 2**k; hermiticity and unit
    trace within ATOL_ALGEBRA).  Positive semidefiniteness needs a spectrum,
    so it is exposed through :meth:`min_eigenvalue` and asserted in the test
    suite rather than on every construction.
    """

    matrix: np.ndarray
    particle_count: int

    def __post_init__(self) -> None:
        k = self.particle_count
        if not 1 <= k <= PARTICLE_CAP:
            raise ValueError(f"particle_count {k} outside 1..{PARTICLE_CAP}")
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if m.shape[0] != 2**k:
            raise ValueError(f"dim {m.shape[0]} does not match 2**{k}")
        defect = hermiticity_defect(m)
        if not defect <= ATOL_ALGEBRA:
            raise ValueError(f"not Hermitian: max |M - M†| = {defect:.3e} > {ATOL_ALGEBRA:.1e}")
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= ATOL_ALGEBRA:
            raise ValueError(f"trace {tr} differs from 1 by more than {ATOL_ALGEBRA:.1e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return hermitian_eigenvalues(self.matrix)

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues()[0])


def partial_trace_last(m: DensityMatrix) -> DensityMatrix:
    """Trace out the last 2-dimensional tensor factor."""
    if m.particle_count < 2:
        raise ValueError("partial_trace_last needs at least 2 particles")
    half = m.dim // 2
    t = m.matrix.reshape(half, 2, half, 2)
    return DensityMatrix(np.trace(t, axis1=1, axis2=3), m.particle_count - 1)


def _jacobi_diagonal(s: np.ndarray, off_tol: float, copies: int = 1) -> np.ndarray:
    """Diagonal of a real symmetric matrix after cyclic Jacobi sweeps.

    Symmetrises `s` into a new array, then rotates (p, q) pairs in row order
    until the off-diagonal Frobenius norm drops below `off_tol`.  The matrix
    stays exactly symmetric, so each rotation rotates rows p and q once and
    mirrors them into columns p and q; the 2x2 block takes the values a
    column rotation followed by a row rotation would give.  O(n^3) per
    sweep; fine for the 2**k spaces handled here, not meant for general use.
    With `copies` > 1, `s` stands for that many uncoupled copies of itself
    on the block diagonal: the skip threshold and the stopping norm are the
    whole matrix's, so the rotations are exactly those of one block.
    """
    s = 0.5 * (s + s.T)  # the mirrored update needs exact symmetry
    n = s.shape[0]
    if n == 1:
        return s.diagonal().copy()
    # Elements below this can be skipped without pushing the off-norm above off_tol.
    skip = off_tol / (2.0 * copies * n)
    for _ in range(_MAX_JACOBI_SWEEPS):
        off = math.sqrt(2.0 * copies * float(np.sum(np.triu(s, 1) ** 2)))
        if off <= off_tol:
            return s.diagonal().copy()
        for p in range(n - 1):
            row_p = s[p]
            for q in range(p + 1, n):
                row_q = s[q]
                apq = row_p[q]
                if abs(apq) <= skip:
                    continue
                theta = 0.5 * math.atan2(2.0 * apq, row_q[q] - row_p[p])
                c = math.cos(theta)
                sn = math.sin(theta)
                newp = c * row_p - sn * row_q
                newq = sn * row_p + c * row_q
                newp[p], newq[q] = c * newp[p] - sn * newp[q], sn * newq[p] + c * newq[q]
                newp[q] = newq[p] = 0.0
                s[p] = s[:, p] = newp
                s[q] = s[:, q] = newq
    raise RuntimeError("Jacobi sweeps did not converge")


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix H = A + iB, ascending.

    Uses cyclic Jacobi.  A complex H is diagonalized through its real
    symmetric embedding [[A, -B], [B, A]], whose spectrum is that of H with
    every eigenvalue doubled; one copy of each pair is returned.  A real H
    (B = 0) is diagonalized as it is: the embedding would be two uncoupled
    copies of A, so the rotations on A alone, run with the embedding's
    thresholds, give the same eigenvalues bit for bit at a quarter of the
    pair visits.  Rejects input whose hermiticity defect exceeds
    ATOL_ALGEBRA.
    """
    m = _as_square_complex(m)
    defect = hermiticity_defect(m)
    if not defect <= ATOL_ALGEBRA:
        raise ValueError(f"not Hermitian: max |M - M†| = {defect:.3e} > {ATOL_ALGEBRA:.1e}")
    a = m.real
    b = m.imag
    if not b.any():
        diag = _jacobi_diagonal(a, JACOBI_OFF_TOL, copies=2)
        diag.sort()
        return diag
    diag = _jacobi_diagonal(np.block([[a, -b], [b, a]]), JACOBI_OFF_TOL)
    diag.sort()
    return diag[::2].copy()


def block_trace_distance(blocks: Iterable[tuple[int, np.ndarray]]) -> float:
    """Half the trace norm of ⊕_j ΔB_j ⊗ I_{d_j}, from (d_j, ΔB_j) pairs of
    multiplicity and Hermitian block.

    Each block is diagonalised as d_j·ΔB_j: its eigenvalues then sit on the
    scale of their share of the distance rather than 1/d_j of it, so the
    solver's absolute tolerances hold that share to the same accuracy in
    every block.  Values up to 1 + ATOL_EIGEN are rounding and are clamped
    to 1; a larger value means the eigensolver failed and raises
    RuntimeError.
    """
    # d = 1 passes the block itself: a dense 2**12 difference is 256 MB.
    distance = 0.5 * sum(
        float(np.abs(hermitian_eigenvalues(block if d == 1 else d * block)).sum())
        for d, block in blocks
    )
    if distance > 1.0 + ATOL_EIGEN:
        raise RuntimeError(
            f"trace distance {distance!r} exceeds 1 by more than {ATOL_EIGEN:.0e}: "
            "eigenvalues are inaccurate"
        )
    return min(1.0, distance)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of a - b (one block of
    :func:`block_trace_distance`)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return block_trace_distance([(1, a.matrix - b.matrix)])
