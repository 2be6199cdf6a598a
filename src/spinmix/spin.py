"""Spin-1/2 states: Bloch axes, eigen-spinors, projectors and Born weights.

All matrices are stored in one fixed computational basis (the z eigenbasis).
Statements "in the x basis" are made by explicitly rotating with
:func:`axis_basis_matrix`, never by tagging matrices with a basis.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import ATOL_ALGEBRA, DensityMatrix, kron_power

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class Axis:
    """Unit vector on the Bloch sphere."""

    ux: float
    uy: float
    uz: float

    def __post_init__(self) -> None:
        norm = math.sqrt(self.ux**2 + self.uy**2 + self.uz**2)
        if not abs(norm - 1.0) <= ATOL_ALGEBRA:
            raise ValueError(f"axis ({self.ux}, {self.uy}, {self.uz}) has norm {norm!r}, not 1")

    @classmethod
    def from_vector(cls, ux: float, uy: float, uz: float) -> Axis:
        """Normalize an arbitrary nonzero 3-vector."""
        norm_sq = ux * ux + uy * uy + uz * uz
        if norm_sq == math.inf or norm_sq < sys.float_info.min:
            # The squares overflowed or lost bits below the normal range:
            # rescale by a power of two, which is exact.
            e = math.frexp(max(abs(ux), abs(uy), abs(uz)))[1]
            ux, uy, uz = (math.ldexp(u, -e) for u in (ux, uy, uz))
            norm_sq = ux * ux + uy * uy + uz * uz
        if norm_sq == 0.0:
            raise ValueError("axis vector must be nonzero")
        norm = math.sqrt(norm_sq)
        return cls(ux / norm, uy / norm, uz / norm)

    def components(self) -> tuple[float, float, float]:
        return (self.ux, self.uy, self.uz)


X_AXIS = Axis(1.0, 0.0, 0.0)
Y_AXIS = Axis(0.0, 1.0, 0.0)
Z_AXIS = Axis(0.0, 0.0, 1.0)
_NAMED_AXES = {"x": X_AXIS, "y": Y_AXIS, "z": Z_AXIS}


def parse_axis(text: str) -> Axis:
    """Parse "x", "y", "z" or a comma triple "ux,uy,uz" (normalized on input)."""
    t = text.strip().lower()
    if t in _NAMED_AXES:
        return _NAMED_AXES[t]
    parts = t.split(",")
    if len(parts) != 3:
        raise ValueError(f"cannot parse axis {text!r}: expected x, y, z or ux,uy,uz")
    try:
        ux, uy, uz = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"cannot parse axis {text!r}: non-numeric component") from None
    return Axis.from_vector(ux, uy, uz)


def _direction_name(ux: float, uy: float, uz: float) -> str | None:
    """"x+", "x-", "y+", ... "z-" when the unit vector lies within
    ATOL_ALGEBRA of that signed coordinate axis in every component, else None."""
    for name, (along, a, b) in (("x", (ux, uy, uz)), ("y", (uy, ux, uz)), ("z", (uz, ux, uy))):
        if abs(a) <= ATOL_ALGEBRA and abs(b) <= ATOL_ALGEBRA:
            if abs(along - 1.0) <= ATOL_ALGEBRA:
                return name + "+"
            if abs(along + 1.0) <= ATOL_ALGEBRA:
                return name + "-"
    return None


def axis_label(axis: Axis) -> str:
    """Short text form: the letter for a coordinate axis, else the triple."""
    name = _direction_name(axis.ux, axis.uy, axis.uz)
    if name is not None and name[1] == "+":
        return name[0]
    return f"{axis.ux!r},{axis.uy!r},{axis.uz!r}"


@dataclass(frozen=True)
class PureState:
    """Normalized one-particle state; amplitudes in the computational (z) basis."""

    a0: complex
    a1: complex

    def __post_init__(self) -> None:
        norm_sq = abs(self.a0) ** 2 + abs(self.a1) ** 2
        if not abs(norm_sq - 1.0) <= ATOL_ALGEBRA:
            raise ValueError(f"amplitudes not normalized: |a|^2 = {norm_sq!r}")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.a0, self.a1], dtype=complex)

    def bloch(self) -> tuple[float, float, float]:
        """Pauli expectation values (<σx>, <σy>, <σz>)."""
        c = self.a0.conjugate() * self.a1
        return (2.0 * c.real, 2.0 * c.imag, abs(self.a0) ** 2 - abs(self.a1) ** 2)

    def phase_key(self) -> tuple[complex, complex]:
        """Amplitudes after fixing the global phase (first nonzero entry real positive)."""
        return _fix_phase(self.a0, self.a1)


def _fix_phase(a0: complex, a1: complex) -> tuple[complex, complex]:
    for lead in (a0, a1):
        if abs(lead) > ATOL_ALGEBRA:
            phase = lead.conjugate() / abs(lead)
            return (a0 * phase, a1 * phase)
    raise ValueError("zero state has no phase convention")


def _check_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return sign


def spinor(axis: Axis, sign: int) -> PureState:
    """Eigenstate of axis·σ with eigenvalue `sign`.

    The global phase is fixed so that the first nonzero amplitude is real
    and positive, making repeated calls bitwise identical.
    """
    _check_sign(sign)
    ux, uy, uz = axis.components()
    # Pivot on the larger of 1 ± uz so the formula stays accurate near both poles.
    if uz >= 0.0:
        scale = 1.0 / math.sqrt(2.0 * (1.0 + uz))
        if sign > 0:
            amps = ((1.0 + uz) * scale + 0.0j, (ux + 1j * uy) * scale)
        else:
            amps = ((-ux + 1j * uy) * scale, (1.0 + uz) * scale + 0.0j)
    else:
        scale = 1.0 / math.sqrt(2.0 * (1.0 - uz))
        if sign > 0:
            amps = ((ux - 1j * uy) * scale, (1.0 - uz) * scale + 0.0j)
        else:
            amps = ((1.0 - uz) * scale + 0.0j, -(ux + 1j * uy) * scale)
    return PureState(*_fix_phase(*amps))


def projector(axis: Axis, sign: int) -> np.ndarray:
    """Rank-1 projector ½(I + sign·axis·σ) onto spinor(axis, sign)."""
    _check_sign(sign)
    ux, uy, uz = axis.components()
    s = float(sign)
    return 0.5 * np.array(
        [
            [1.0 + s * uz, s * (ux - 1j * uy)],
            [s * (ux + 1j * uy), 1.0 - s * uz],
        ],
        dtype=complex,
    )


def state_projector(state: PureState) -> np.ndarray:
    """|ψ⟩⟨ψ| for a pure state."""
    v = state.vector
    return np.outer(v, v.conj())


def transition_probability(state: PureState, axis: Axis, sign: int) -> float:
    """Born weight |⟨spinor(axis, sign)|state⟩|².

    Evaluated as ½(1 + sign·axis·bloch(state)), which is the same quantity
    but lands exactly on 0, ½ and 1 in the eigenbasis and mutually unbiased
    cases.  The Bloch vector of a pure state has unit norm, so it is
    renormalized to strip roundoff; the result is clipped to [0, 1].
    """
    _check_sign(sign)
    bx, by, bz = state.bloch()
    norm = math.sqrt(bx * bx + by * by + bz * bz)
    dot = (axis.ux * bx + axis.uy * by + axis.uz * bz) / norm
    p = 0.5 * (1.0 + float(sign) * dot)
    return min(1.0, max(0.0, p))


def axis_basis_matrix(rho: DensityMatrix, axis: Axis) -> np.ndarray:
    """Matrix of a k-particle state in the k-fold product eigenbasis of `axis`.

    Columns of the single-particle change of basis are the (+1, -1) spinors,
    so the result's diagonal lists populations of |axis,±⟩⊗...⊗|axis,±⟩.
    """
    v = np.column_stack([spinor(axis, +1).vector, spinor(axis, -1).vector])
    vk = kron_power(v, rho.particle_count)
    return vk.conj().T @ rho.matrix @ vk
