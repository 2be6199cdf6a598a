"""Shared strategies and independent oracles.

The oracles here deliberately use raw numpy (np.kron, np.outer, eigvalsh)
and explicit enumeration so they share no code path with the library
functions they check.
"""

import itertools
import json
import math

import numpy as np
from hypothesis import strategies as st

from spinmix import X_AXIS, Axis, FixedComposition, IidMixture, PureState, spinor


def unit_axes():
    return (
        st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
        .filter(lambda v: 0.01 < v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
        .map(lambda v: Axis.from_vector(*v))
    )


def _build_state(v) -> PureState:
    a0 = complex(v[0], v[1])
    a1 = complex(v[2], v[3])
    norm = math.sqrt(abs(a0) ** 2 + abs(a1) ** 2)
    return PureState(a0 / norm, a1 / norm)


def pure_states():
    return (
        st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
        .filter(lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2 + v[3] ** 2 > 0.05)
        .map(_build_state)
    )


def signs():
    return st.sampled_from([+1, -1])


def particle_vectors(spec: FixedComposition) -> list[np.ndarray]:
    """The explicit particle list of a fixed composition, as state vectors."""
    out = []
    for state, count in spec.components:
        out.extend([state.vector] * count)
    return out


def brute_force_reduced(particles: list[np.ndarray], k: int) -> np.ndarray:
    """Average of projector tensor products over every ordered k-selection of
    distinct particles from the list."""
    acc = np.zeros((2**k, 2**k), dtype=complex)
    count = 0
    for selection in itertools.permutations(range(len(particles)), k):
        term = np.array([[1.0 + 0.0j]])
        for i in selection:
            v = particles[i]
            term = np.kron(term, np.outer(v, v.conj()))
        acc += term
        count += 1
    return acc / count


def iid_sequence_sum(spec: IidMixture, k: int) -> np.ndarray:
    """Direct sum over all type sequences with product weights (i.i.d. oracle)."""
    vectors = [s.vector for s, _ in spec.components]
    probs = [p for _, p in spec.components]
    acc = np.zeros((2**k, 2**k), dtype=complex)
    for seq in itertools.product(range(len(vectors)), repeat=k):
        weight = 1.0
        term = np.array([[1.0 + 0.0j]])
        for i in seq:
            weight *= probs[i]
            term = np.kron(term, np.outer(vectors[i], vectors[i].conj()))
        acc += weight * term
    return acc


def pair_frequencies(n: int) -> tuple[float, float]:
    """Ordered-pair weights (parallel, antiparallel) when drawing two particles
    without replacement from a half/half composition of n."""
    parallel = (0.5 * n * (0.5 * n - 1.0)) / (n * (n - 1.0))
    antiparallel = (n * n / 4.0) / (n * (n - 1.0))
    return parallel, antiparallel


def pair_state(n: int, axis: Axis) -> np.ndarray:
    """Closed-form two-particle state of the half/half composition along `axis`."""
    par, anti = pair_frequencies(n)
    up, dn = (np.outer(v, v.conj()) for v in (spinor(axis, +1).vector, spinor(axis, -1).vector))
    return par * (np.kron(up, up) + np.kron(dn, dn)) + anti * (np.kron(up, dn) + np.kron(dn, up))


def pair_state_cross_expansion(n: int) -> np.ndarray:
    """The z pair state assembled in the x product basis: weight (par + anti)/2
    on the four x pair projectors, plus (par - anti)/2 on the spin-flip cross
    terms |v_{-s,-s'}><v_{s,s'}|.  Equal to pair_state(n, Z_AXIS) only under
    the spinor phase convention, where the x flip operator is the z Pauli
    matrix."""
    par, anti = pair_frequencies(n)
    vec = {+1: spinor(X_AXIS, +1).vector, -1: spinor(X_AXIS, -1).vector}
    out = np.zeros((4, 4), dtype=complex)
    for s, t in itertools.product((+1, -1), repeat=2):
        ket = np.kron(vec[s], vec[t])
        out += 0.5 * (par + anti) * np.outer(ket, ket.conj())
        out += 0.5 * (par - anti) * np.outer(np.kron(vec[-s], vec[-t]), ket.conj())
    return out


def swap_slots(matrix: np.ndarray, k: int, i: int, j: int) -> np.ndarray:
    """Conjugate a k-particle operator by the swap of tensor slots i and j."""
    t = matrix.reshape((2,) * (2 * k))
    axes = list(range(2 * k))
    axes[i], axes[j] = axes[j], axes[i]
    axes[k + i], axes[k + j] = axes[k + j], axes[k + i]
    return t.transpose(axes).reshape(2**k, 2**k)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def random_density(rng: np.random.Generator, dim: int, rank: int = 3) -> np.ndarray:
    """Random mixture of a few random pure projectors: Hermitian, unit trace, PSD."""
    weights = rng.random(rank)
    weights /= weights.sum()
    acc = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        acc += w * np.outer(v, v.conj())
    return acc


def composed_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Unitary built from composed 2x2 complex plane rotations."""
    u = np.eye(dim, dtype=complex)
    for _ in range(3 * dim):
        p, q = rng.choice(dim, size=2, replace=False)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        g = np.eye(dim, dtype=complex)
        g[p, p] = np.cos(theta)
        g[q, q] = np.cos(theta)
        g[p, q] = -np.sin(theta) * np.exp(1j * phi)
        g[q, p] = np.sin(theta) * np.exp(-1j * phi)
        u = u @ g
    return u


def reference_jacobi_diagonal(s: np.ndarray, off_tol: float, copies: int = 1) -> np.ndarray:
    """The cyclic Jacobi loop that rotated columns p, q and then rows p, q of
    a real symmetric `s` (destroyed), with copies, skip threshold, stopping
    norm and sweep cap as in spinmix.linalg.  Bit-level oracle for the
    mirrored-row update of spinmix.linalg._jacobi_diagonal."""
    n = s.shape[0]
    if n == 1:
        return s.diagonal().copy()
    skip = off_tol / (2.0 * copies * n)
    for _ in range(100):
        off = math.sqrt(2.0 * copies * float(np.sum(np.triu(s, 1) ** 2)))
        if off <= off_tol:
            return s.diagonal().copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = s[p, q]
                if abs(apq) <= skip:
                    continue
                theta = 0.5 * math.atan2(2.0 * apq, s[q, q] - s[p, p])
                c = math.cos(theta)
                sn = math.sin(theta)
                cp = s[:, p].copy()
                cq = s[:, q].copy()
                s[:, p] = c * cp - sn * cq
                s[:, q] = sn * cp + c * cq
                rp = s[p, :].copy()
                rq = s[q, :].copy()
                s[p, :] = c * rp - sn * rq
                s[q, :] = sn * rp + c * rq
                s[p, q] = 0.0
                s[q, p] = 0.0
    raise RuntimeError("Jacobi sweeps did not converge")


def reference_json_text(value) -> str:
    """The CLI's former per-float JSON writer: every float through
    format(x, ".17g"), arrays first turned into nested lists (complex
    entries as [re, im] pairs).  Byte-level oracle for spinmix.cli._json_text."""
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            value = [[[float(z.real), float(z.imag)] for z in row] for row in value]
        else:
            value = [float(x) for x in value]
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return format(float(value), ".17g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(k)}: {reference_json_text(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(reference_json_text(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def reference_axis_from_vector(ux: float, uy: float, uz: float) -> Axis:
    """The former Axis.from_vector, with its fixed 1e-12 floor on the norm:
    the bit-level oracle for every vector it accepted."""
    norm = math.sqrt(ux * ux + uy * uy + uz * uz)
    if norm == math.inf:
        e = math.frexp(max(abs(ux), abs(uy), abs(uz)))[1]
        ux, uy, uz = (math.ldexp(u, -e) for u in (ux, uy, uz))
        norm = math.sqrt(ux * ux + uy * uy + uz * uz)
    if norm < 1e-12:
        raise ValueError("axis vector must be nonzero")
    return Axis(ux / norm, uy / norm, uz / norm)
