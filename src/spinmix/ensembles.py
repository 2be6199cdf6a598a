"""Ensemble specifications and their exact k-particle reduced density matrices.

Two preparation disciplines are distinguished, and each has one spec class
that holds everything depending on it: the k-particle matrix, the k-draw
weight, the random type draw of a realization, the +1-count pmf and the
literal prefix.  The public functions (composition_distribution,
reduced_density_matrix, exchangeable_blocks, ensemble_literal, and
measurement's exact_count_pmf and samplers) check their arguments and hand
the rest to those methods.

* :class:`FixedComposition` — a multiset of pure states with exact per-type
  counts.  Selecting particles from it is sampling without replacement.

* :class:`IidMixture` — every member is drawn independently from a fixed
  distribution over pure states.

The half-and-half constructors along the x and z axes build the two
fixed ensembles whose one-particle states coincide (both are ½I) while
their pair and higher reduced states do not, and the i.i.d. counterpart
that realizes the unpolarized state as a proper statistical mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod

import numpy as np

from .linalg import ATOL_ALGEBRA, ATOL_EIGEN, PARTICLE_CAP, DensityMatrix, kron_power
from .spin import Axis, PureState, Z_AXIS, _direction_name, parse_axis, spinor, state_projector

__all__ = [
    "BINOMIAL_DIRECT_MAX_N",
    "COUNT_N_CAP",
    "CountPmf",
    "EnsembleSpec",
    "FixedComposition",
    "IidMixture",
    "balanced_fixed",
    "balanced_mixture",
    "binomial_pmf",
    "composition_distribution",
    "delta_pmf",
    "ensemble_literal",
    "exchangeable_blocks",
    "make_urn",
    "parse_ensemble",
    "preset_ensemble",
    "reduced_density_matrix",
    "total_variation",
    "urn_composition",
]


def _check_distinct(states: tuple[PureState, ...]) -> None:
    keys = [s.phase_key() for s in states]
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            if (
                abs(keys[i][0] - keys[j][0]) <= ATOL_ALGEBRA
                and abs(keys[i][1] - keys[j][1]) <= ATOL_ALGEBRA
            ):
                raise ValueError(f"components {i} and {j} are the same state up to phase")


def _integer(value, name: str) -> int:
    """`value` as an int; floats, strings and bools are not integers."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} {value!r} is not an integer")
    return int(value)


@dataclass(frozen=True)
class FixedComposition:
    """Multiset of pure states with exact nonnegative integer counts summing
    to n >= 1."""

    components: tuple[tuple[PureState, int], ...]
    _prefix = "fixed"

    def __post_init__(self) -> None:
        comps = tuple((state, _integer(count, "count")) for state, count in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("at least one component required")
        for state, count in comps:
            if count < 0:
                raise ValueError(f"negative count {count}")
        if sum(c for _, c in comps) < 1:
            raise ValueError("counts must sum to at least 1")
        _check_distinct(tuple(s for s, _ in comps))

    @property
    def n(self) -> int:
        return sum(c for _, c in self.components)

    def draw_weight(self, counts: tuple[int, ...]) -> float:
        """w_k(c): probability of one given ordered sequence of k draws
        without replacement holding counts[i] particles of type i,
        Π(n_i)_{c_i} / (n)_k.  Built as a product of ratios, since falling
        factorials such as (200)_200 overflow a float."""
        weight = 1.0
        left = self.n
        for (_, n_i), c in zip(self.components, counts, strict=True):
            if c > n_i:
                return 0.0
            for t in range(c):
                weight *= (n_i - t) / left
                left -= 1
        return weight

    def _reduced_matrix(self, k: int) -> np.ndarray:
        """Ordered type sequences carry a falling-factorial weight.  The sum of
        weight times projector product is evaluated recursively over suffixes,
        memoized on the remaining counts, which visits far fewer states than
        the m**k raw sequences."""
        projectors = [state_projector(s) for s, _ in self.components]
        memo: dict[tuple[tuple[int, ...], int], np.ndarray] = {}

        def suffix_state(counts: tuple[int, ...], depth: int) -> np.ndarray:
            if depth == 0:
                return np.array([[1.0 + 0.0j]])
            key = (counts, depth)
            cached = memo.get(key)
            if cached is not None:
                return cached
            total = sum(counts)
            dim = 2**depth
            acc = np.zeros((dim, dim), dtype=complex)
            for i, c in enumerate(counts):
                if c == 0:
                    continue
                rest = counts[:i] + (c - 1,) + counts[i + 1 :]
                acc += (c / total) * np.kron(projectors[i], suffix_state(rest, depth - 1))
            memo[key] = acc
            return acc

        return suffix_state(tuple(c for _, c in self.components), k)

    def _draw_types(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        """Component index of every particle in `rows` realizations, shape
        (rows, n): each row is the exact multiset in uniformly random order,
        so ordered outcomes keep the exchangeable without-replacement law."""
        pool = np.repeat(np.arange(len(self.components)), [c for _, c in self.components])
        types = np.tile(pool, (rows, 1))
        return rng.permuted(types, axis=1, out=types)

    def _count_pmf(self, born: list[float]) -> CountPmf:
        """+1-count pmf from each component's Born weight q: the convolution
        of Binomial(count, q), as outcomes are independent given the multiset."""
        pmf = np.array([1.0])
        for (_, count), q in zip(self.components, born):
            pmf = np.convolve(pmf, binomial_pmf(count, q).probabilities)
        return CountPmf(self.n, pmf)


@dataclass(frozen=True)
class IidMixture:
    """Distribution over pure states, drawn independently n times."""

    components: tuple[tuple[PureState, float], ...]
    n: int
    _prefix = "iid"

    def __post_init__(self) -> None:
        comps = tuple((state, float(p)) for state, p in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("at least one component required")
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        total = 0.0
        for state, p in comps:
            if not p >= 0.0:
                raise ValueError(f"probability {p} is negative or not a number")
            total += p
        if not abs(total - 1.0) <= ATOL_ALGEBRA:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        _check_distinct(tuple(s for s, _ in comps))

    def draw_weight(self, counts: tuple[int, ...]) -> float:
        """w_k(c): probability of one given ordered sequence of k independent
        draws holding counts[i] particles of type i, Π p_i^{c_i}."""
        return prod(p**c for (_, p), c in zip(self.components, counts, strict=True))

    def _reduced_matrix(self, k: int) -> np.ndarray:
        """Selections are i.i.d.: the k-fold Kronecker power of ρ₁ = Σ p·P."""
        rho1 = np.zeros((2, 2), dtype=complex)
        for state, p in self.components:
            rho1 += p * state_projector(state)
        return kron_power(rho1, k)

    def _draw_types(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        """Component index of every particle in `rows` realizations, shape
        (rows, n), each by inverse CDF of a uniform."""
        cdf = np.cumsum([p for _, p in self.components])
        return np.searchsorted(cdf[:-1], rng.random((rows, self.n)), side="right")

    def _count_pmf(self, born: list[float]) -> CountPmf:
        """Binomial(n, Σ p·q), q each component's Born weight: every
        draw-and-measure is one Bernoulli trial with the averaged weight."""
        q_bar = sum(p * q for (_, p), q in zip(self.components, born))
        return binomial_pmf(self.n, min(1.0, max(0.0, q_bar)))


EnsembleSpec = FixedComposition | IidMixture


def balanced_fixed(n: int, axis: Axis) -> FixedComposition:
    """Exactly n/2 particles polarized up and n/2 down along `axis`; n even."""
    n = _integer(n, "n")
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    half = n // 2
    return FixedComposition(((spinor(axis, +1), half), (spinor(axis, -1), half)))


def balanced_mixture(n: int, axis: Axis) -> IidMixture:
    """n independent draws, up or down along `axis` with probability ½ each."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return IidMixture(((spinor(axis, +1), 0.5), (spinor(axis, -1), 0.5)), n)


def preset_ensemble(name: str, n: int, axis: Axis = Z_AXIS) -> EnsembleSpec:
    """Named presets: "A" = half/half along x, "B" = half/half along z,
    "S" = balanced i.i.d. mixture along `axis`."""
    key = name.strip().upper()
    if key == "A":
        return balanced_fixed(n, Axis(1.0, 0.0, 0.0))
    if key == "B":
        return balanced_fixed(n, Z_AXIS)
    if key == "S":
        return balanced_mixture(n, axis)
    raise ValueError(f"unknown preset {name!r}: expected A, B or S")


def make_urn(n: int, n_black: int | None = None) -> EnsembleSpec:
    """Classical urn of black/white balls, encoded as the orthogonal states z± .

    With `n_black` given, the urn holds exactly that many black balls (fixed
    mixing).  Without it, every ball is black or white with probability ½
    (random mixing).
    """
    if n_black is None:
        return balanced_mixture(n, Z_AXIS)
    n = _integer(n, "n")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    n_black = _integer(n_black, "n_black")
    if not 0 <= n_black <= n:
        raise ValueError(f"n_black {n_black} outside 0..{n}")
    return FixedComposition(((spinor(Z_AXIS, +1), n_black), (spinor(Z_AXIS, -1), n - n_black)))


# --------------------------------------------------------------------------
# Count distributions
# --------------------------------------------------------------------------

# Largest n with C(n, n//2) < 2**1024, so that no binomial coefficient
# overflows a float.
BINOMIAL_DIRECT_MAX_N = 1029
# Largest n for which count pmfs and Monte Carlo blocks are built: their
# arrays hold n + 1 (or n) entries, so larger n would be an unbounded
# memory request.
COUNT_N_CAP = 10**6


def _check_count_n(n: int) -> None:
    if n > COUNT_N_CAP:
        raise ValueError(f"n = {n} exceeds the count cap COUNT_N_CAP = {COUNT_N_CAP}")


@dataclass(frozen=True, eq=False)
class CountPmf:
    """Probability mass function on {0, ..., n}."""

    n: int
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        p = np.array(self.probabilities, dtype=float)
        if p.shape != (self.n + 1,):
            raise ValueError(f"expected {self.n + 1} probabilities, got shape {p.shape}")
        if not p.min() >= 0.0:
            raise ValueError(f"probability {p.min()!r} is negative or not a number")
        total = float(p.sum())
        if not abs(total - 1.0) <= ATOL_ALGEBRA:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)


def delta_pmf(n: int, at: int) -> CountPmf:
    """All mass on a single count."""
    _check_count_n(n)
    if not 0 <= at <= n:
        raise ValueError(f"count {at} outside 0..{n}")
    p = np.zeros(n + 1)
    p[at] = 1.0
    return CountPmf(n, p)


def binomial_pmf(n: int, p: float) -> CountPmf:
    """Binomial(n, p) for every n; up to BINOMIAL_DIRECT_MAX_N the p = ½
    values C(n, m)·2**(-n) come out exact.

    Up to that n the terms are C(n, m)·p**m·(1-p)**(n-m) as floats.  Beyond
    it C(n, n//2) no longer fits a float, so the pmf is built outward from
    the mode by the ratio P(m+1)/P(m) = (n-m)/(m+1) · p/(1-p), which keeps
    every term at most the mode's, and normalised once.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    _check_count_n(n)
    if p == 0.0 or p == 1.0:
        return delta_pmf(n, n if p == 1.0 else 0)
    if n <= BINOMIAL_DIRECT_MAX_N:
        probs = np.array([comb(n, m) * p**m * (1.0 - p) ** (n - m) for m in range(n + 1)])
        return CountPmf(n, probs)
    mode = min(n, int((n + 1) * p))
    odds = p / (1.0 - p)
    up = np.arange(mode, n, dtype=float)
    down = np.arange(mode, 0, -1, dtype=float)
    probs = np.concatenate((
        np.cumprod(down / (n - down + 1.0) / odds)[::-1],
        [1.0],
        np.cumprod((n - up) / (up + 1.0) * odds),
    ))
    return CountPmf(n, probs / probs.sum())


def total_variation(p: CountPmf, q: CountPmf) -> float:
    """½ Σ |p(m) - q(m)|; the pmfs must share a support size."""
    if p.n != q.n:
        raise ValueError(f"support mismatch: {p.n} vs {q.n}")
    return 0.5 * float(np.abs(p.probabilities - q.probabilities).sum())


def composition_distribution(spec: EnsembleSpec, component_index: int) -> CountPmf:
    """Distribution of how many of the n prepared particles carry the given
    type: the +1-count pmf at Born weight 1 for that type and 0 for the rest."""
    m = len(spec.components)
    if not 0 <= component_index < m:
        raise ValueError(f"component_index {component_index} outside 0..{m - 1}")
    _check_count_n(spec.n)
    return spec._count_pmf([float(i == component_index) for i in range(m)])


def urn_composition(spec: EnsembleSpec) -> CountPmf:
    """Distribution of the black-ball count (component 0) of an urn spec."""
    return composition_distribution(spec, 0)


# --------------------------------------------------------------------------
# Reduced density matrices
# --------------------------------------------------------------------------


def reduced_density_matrix(spec: EnsembleSpec, k: int) -> DensityMatrix:
    """Exact state of k of the ensemble's n particles: the sum over ordered
    type sequences of the sequence weight times the tensor product of
    component projectors, in the closed form of the spec's kind."""
    if k > PARTICLE_CAP:
        raise ValueError(f"k = {k} exceeds the particle cap {PARTICLE_CAP}")
    _check_draws(spec, k)
    return DensityMatrix(spec._reduced_matrix(k), k)


def _check_draws(spec: EnsembleSpec, k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > spec.n:
        raise ValueError(f"cannot select k = {k} of the ensemble's n = {spec.n} particles")


def _polynomial_powers(v: np.ndarray, k: int) -> list[np.ndarray]:
    """Coefficients of (v₀ + v₁Y)^a in ascending powers of Y, for a = 0..k."""
    powers = [np.ones(1, dtype=complex)]
    for _ in range(k):
        powers.append(np.convolve(powers[-1], v))
    return powers


def exchangeable_blocks(spec: EnsembleSpec, k: int) -> list[tuple[int, int, np.ndarray]]:
    """The k-particle state of a spec with one or two components in block
    form, ρ_k = ⊕_j B_j ⊗ I_{d_j}, as (2j, d_j, B_j) for 2j = k, k−2, ...

    Draws are exchangeable, so ρ_k = Σ_c w_k(c)·[s^c] M(s)^{⊗k} with
    M(s) = s₁ψ₁ψ₁† + s₂ψ₂ψ₂†, and by Schur–Weyl duality M^{⊗k} acts on the
    spin-j block as Sym^{2j}(M)·det(M)^p, p = k/2 − j, det M = δ·s₁s₂ with
    δ = |ψ₁∧ψ₂|².  Hence B_j = δ^p Σ_a w_k(a+p, 2j−a+p)·u_a u_a†, where u_a
    is the normalised symmetric product of a copies of ψ₁ and 2j−a of ψ₂:
    (u_a)_t = √(C(2j,a)/C(2j,t))·[Y^t] (ψ₁·(1,Y))^a (ψ₂·(1,Y))^{2j−a}, t
    counting the z− particles of a Dicke state.  Every spec shares that
    basis, so blocks of different specs can be subtracted.  d_j =
    C(k,p) − C(k,p−1) and Σ_j d_j tr B_j = 1.  Holds for every k ≤ n and
    builds no 2**k matrix.

    Its polynomial coefficients cancel at large k (A loses accuracy from
    about n = k = 240), so a trace defect above ATOL_EIGEN raises RuntimeError.
    """
    _check_draws(spec, k)
    (psi, _), *rest = spec.components
    if len(rest) > 1:
        raise ValueError(f"blocks need at most two components, got {len(rest) + 1}")
    if rest:
        chi = rest[0][0]
        weights = [spec.draw_weight((c, k - c)) for c in range(k + 1)]
    else:
        # One type drawn k times.  With ψ₂ = ψ₁, δ = 0, so only the spin-k/2
        # block is nonzero.
        chi = psi
        weights = [float(c == k) for c in range(k + 1)]
    psi, chi = psi.vector, chi.vector
    delta = abs(psi[0] * chi[1] - psi[1] * chi[0]) ** 2
    psi_powers, chi_powers = _polynomial_powers(psi, k), _polynomial_powers(chi, k)
    blocks = []
    for p in range(k // 2 + 1):
        two_j = k - 2 * p
        binomials = np.array([comb(two_j, t) for t in range(two_j + 1)], dtype=float)
        u = np.array([np.convolve(psi_powers[a], chi_powers[two_j - a]) for a in range(two_j + 1)])
        u *= np.sqrt(binomials[:, None] / binomials[None, :])
        w = delta**p * np.array(weights[p : p + two_j + 1])
        multiplicity = comb(k, p) - (comb(k, p - 1) if p else 0)
        blocks.append((two_j, multiplicity, (u.T * w) @ u.conj()))
    defect = sum(d * b.trace().real for _, d, b in blocks) - 1.0
    if not abs(defect) <= ATOL_EIGEN:
        raise RuntimeError(f"blocks lost accuracy at k = {k}: trace defect {defect:.3e}")
    return blocks


# --------------------------------------------------------------------------
# Text literals
# --------------------------------------------------------------------------


def _parse_entry(entry: str) -> tuple[PureState, str]:
    head, star, value = entry.rpartition("*")
    if not star:
        raise ValueError(f"bad ensemble entry {entry!r}: expected <axis><sign>*<value>")
    head = head.strip()
    if not head or head[-1] not in "+-":
        raise ValueError(f"bad ensemble entry {entry!r}: missing +/- sign")
    sign = +1 if head[-1] == "+" else -1
    axis_text = head[:-1].strip()
    if axis_text.startswith("(") and axis_text.endswith(")"):
        axis_text = axis_text[1:-1]
    axis = parse_axis(axis_text)
    return spinor(axis, sign), value.strip()


def parse_ensemble(text: str, n: int | None = None) -> EnsembleSpec:
    """Build a spec from a literal.

    Presets: "A" (half/half along x), "B" (half/half along z), "S" or
    "S:<axis>" (balanced i.i.d. mixture, default axis z); all need `n`.

    Explicit: "fixed:<entries>" or "iid:<entries>" with "/"-separated
    entries "<axis><sign>*<value>", axis one of x, y, z or "(ux,uy,uz)",
    e.g. "fixed:x+*2/x-*2" or "iid:z+*0.5/z-*0.5".  Fixed literals may omit
    `n` (it is the sum of counts, and must match when given); i.i.d.
    literals require it.
    """
    t = text.strip()
    head, colon, tail = t.partition(":")
    key = head.strip().upper()
    if key in ("A", "B", "S"):
        if n is None:
            raise ValueError(f"preset {key} needs n")
        axis = parse_axis(tail) if colon else Z_AXIS
        if key != "S" and colon:
            raise ValueError(f"preset {key} does not take an axis qualifier")
        return preset_ensemble(key, n, axis)
    kind = head.strip().lower()
    if kind not in ("fixed", "iid"):
        raise ValueError(f"cannot parse ensemble {text!r}: expected A, B, S, fixed:... or iid:...")
    if not colon or not tail.strip():
        raise ValueError(f"ensemble literal {text!r} has no entries")
    parsed = [_parse_entry(e) for e in tail.split("/") if e.strip()]
    if kind == "iid" and n is None:
        raise ValueError("iid literals need n (the number of draws)")
    value_of, what = ((int, "count {!r} is not an integer") if kind == "fixed"
                      else (float, "probability {!r} is not a number"))
    comps = []
    for state, value in parsed:
        try:
            comps.append((state, value_of(value)))
        except ValueError:
            raise ValueError(f"{kind} entry " + what.format(value)) from None
    spec = FixedComposition(tuple(comps)) if kind == "fixed" else IidMixture(tuple(comps), n)
    if n is not None and n != spec.n:
        raise ValueError(f"n = {n} does not match the literal's total count {spec.n}")
    return spec


def _entry_label(state: PureState) -> str:
    bloch = state.bloch()
    name = _direction_name(*bloch)
    if name is not None:
        return name
    axis = Axis.from_vector(*bloch)
    return f"({axis.ux!r},{axis.uy!r},{axis.uz!r})+"


def ensemble_literal(spec: EnsembleSpec) -> str:
    """Canonical literal for a spec; parse_ensemble inverts it up to float noise."""
    return spec._prefix + ":" + "/".join(f"{_entry_label(s)}*{v!r}" for s, v in spec.components)
