"""Beam-splitter photon statistics in a truncated two-mode Fock space.

One input mode carrying a number, coherent, or chaotic (thermal) state meets
a lossless beam splitter and the two output arms are read out in coincidence.
Closed-form expectation values and the normalized coincidence ratio g2 are
provided alongside a brute-force oracle that builds the two-arm output state
by repeated application of creation-operator matrices and evaluates the same
expectations from its amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np


class DegenerateState(ValueError):
    """The coincidence ratio is undefined: an arm or the source is dark."""


class TruncationError(ValueError):
    """Probability leaked past the Fock-space cutoff beyond tolerance."""


@dataclass(frozen=True)
class BeamSplitter:
    """Lossless splitter with real transmission t, reflection r, t^2 + r^2 = 1.

    The reflected arm picks up a fixed phase, pi/2 by default.
    """

    t: float = 1.0 / math.sqrt(2.0)
    r: float = 1.0 / math.sqrt(2.0)
    reflection_phase: float = math.pi / 2.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.t <= 1.0 and 0.0 <= self.r <= 1.0):
            raise ValueError("amplitudes must lie in [0, 1]")
        if abs(self.t**2 + self.r**2 - 1.0) > 1e-12:
            raise ValueError("t^2 + r^2 must equal 1 (lossless splitter)")
        if not math.isfinite(self.reflection_phase):
            raise ValueError("reflection phase must be finite")

    @classmethod
    def from_transmittance(cls, t2: float) -> "BeamSplitter":
        if not 0.0 <= t2 <= 1.0:
            raise ValueError("transmittance must lie in [0, 1]")
        return cls(t=math.sqrt(t2), r=math.sqrt(1.0 - t2))


@dataclass(frozen=True)
class NumberState:
    """Fock state with exactly n photons in the input mode."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.n != int(self.n):
            raise ValueError("photon number must be a nonnegative integer")

    @property
    def mean_photons(self) -> float:
        return float(self.n)


@dataclass(frozen=True)
class CoherentState:
    """Coherent state of complex amplitude alpha (Poissonian statistics)."""

    alpha: complex

    def __post_init__(self) -> None:
        alpha = complex(self.alpha)
        if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
            raise ValueError("coherent amplitude must be finite")

    @property
    def mean_photons(self) -> float:
        return abs(self.alpha) ** 2


@dataclass(frozen=True)
class ChaoticState:
    """Single-mode thermal state with Boltzmann weight ratio u in (0, 1)."""

    u: float

    def __post_init__(self) -> None:
        if not 0.0 < self.u < 1.0:
            raise ValueError("weight ratio must lie strictly in (0, 1)")

    @classmethod
    def from_temperature_ratio(cls, hw_over_kt: float) -> "ChaoticState":
        """Build from the mode quantum divided by the thermal quantum."""
        if hw_over_kt <= 0.0:
            raise ValueError("temperature ratio must be positive")
        return cls(u=math.exp(-hw_over_kt))

    @property
    def mean_photons(self) -> float:
        return self.u / (1.0 - self.u)


InputState = Union[NumberState, CoherentState, ChaoticState]


def expect_transmitted(state: InputState, bs: BeamSplitter) -> float:
    """Mean photon number in the transmitted arm, t^2 <n>."""
    return bs.t**2 * state.mean_photons


def expect_reflected(state: InputState, bs: BeamSplitter) -> float:
    """Mean photon number in the reflected arm, r^2 <n>."""
    return bs.r**2 * state.mean_photons


def expect_coincidence(state: InputState, bs: BeamSplitter) -> float:
    """Cross correlation <n_t n_r> between the two arms.

    Equals t^2 r^2 times the input normally-ordered second moment:
    n(n-1) for a number state, |alpha|^4 for a coherent state, and
    2 u^2 / (1-u)^2 for a chaotic state.
    """
    scale = bs.t**2 * bs.r**2
    if isinstance(state, NumberState):
        return scale * state.n * (state.n - 1)
    if isinstance(state, CoherentState):
        return scale * abs(state.alpha) ** 4
    if isinstance(state, ChaoticState):
        return scale * 2.0 * state.u**2 / (1.0 - state.u) ** 2
    raise TypeError(f"unsupported state type: {type(state).__name__}")


def g2(state: InputState, bs: BeamSplitter | None = None) -> float:
    """Normalized zero-delay coincidence ratio between the two arms.

    Returns <n_t n_r> / (<n_t> <n_r>).  Independent of t and r: 1 - 1/n
    for a number state, 1 for a coherent state, 2 for a chaotic state.
    A number state with a single photon gives exactly zero.

    Raises DegenerateState when either arm is dark (t = 0 or r = 0) or the
    input carries no light.
    """
    if bs is None:
        bs = BeamSplitter()
    nt = expect_transmitted(state, bs)
    nr = expect_reflected(state, bs)
    if nt == 0.0 or nr == 0.0:
        raise DegenerateState("coincidence ratio undefined for a dark arm or empty input")
    return expect_coincidence(state, bs) / (nt * nr)


def creation_matrix(n_max: int) -> np.ndarray:
    """Matrix of the creation operator on the basis |0> .. |n_max>.

    Raising out of the top level is truncated to zero.
    """
    if n_max < 0:
        raise ValueError("cutoff must be nonnegative")
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1.0)), -1)


@dataclass
class TwoModeFockSpace:
    """Pure two-arm state: amplitudes[i, j] multiplies |i>_t |j>_r."""

    n_max: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.n_max + 1, self.n_max + 1):
            raise ValueError("amplitude grid must be (n_max+1) x (n_max+1)")

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def arm_expectations(self) -> tuple[float, float, float]:
        """(<n_t>, <n_r>, <n_t n_r>); the diagonal number operators scale
        rows and columns instead of entering as dense matrix products."""
        n = np.arange(float(self.n_max + 1))
        psi = self.amplitudes
        n_t_psi = n[:, None] * psi
        exp_t = np.vdot(psi, n_t_psi).real
        exp_r = np.vdot(psi, psi * n).real
        exp_c = np.vdot(psi, n_t_psi * n).real
        return exp_t, exp_r, exp_c


@dataclass
class TwoModeMixture:
    """Statistical mixture of pure two-arm states with fixed weights.

    The weights are the untruncated distribution evaluated on the retained
    photon numbers; any truncated tail is reported, not renormalized away.
    """

    weights: np.ndarray
    components: list[TwoModeFockSpace]
    tail: float

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.weights) != len(self.components):
            raise ValueError("one weight per component required")

    def arm_expectations(self) -> tuple[float, float, float]:
        exp_t = exp_r = exp_c = 0.0
        for w, comp in zip(self.weights, self.components):
            et, er, ec = comp.arm_expectations()
            exp_t += w * et
            exp_r += w * er
            exp_c += w * ec
        return exp_t, exp_r, exp_c


def _ladder(bs: BeamSplitter, n_max: int, n: int):
    """Yield the splitter outputs of |0>, |1>, .. |n> on one input port.

    Each rung applies the combined creation operator t b_t+ + e^{i phase}
    r b_r+ to the previous one as matrix products, with the normalization
    1/sqrt(k) of rung k folded into the two scalar coefficients, so every
    rung is a unit vector and no n! is formed.
    """
    create = creation_matrix(n_max)
    into_r = np.exp(1j * bs.reflection_phase) * bs.r
    psi = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    psi[0, 0] = 1.0
    yield psi
    for k in range(1, n + 1):
        norm = 1.0 / math.sqrt(k)
        psi = (bs.t * norm) * (create @ psi) + (into_r * norm) * (psi @ create.T)
        yield psi


def split_photons(n: int, bs: BeamSplitter, n_max: int | None = None) -> TwoModeFockSpace:
    """Send |n> through the splitter: (t b_t+ + e^{i phase} r b_r+)^n / sqrt(n!)
    applied to the two-arm vacuum, one normalized creation step per photon."""
    if n < 0:
        raise ValueError("photon number must be nonnegative")
    if n_max is None:
        n_max = n
    if n_max < n:
        raise TruncationError(f"cutoff {n_max} cannot hold {n} photons")
    for psi in _ladder(bs, n_max, n):
        pass
    return TwoModeFockSpace(n_max=n_max, amplitudes=psi)


def default_cutoff(state: InputState, leakage_tol: float = 1e-12) -> int:
    """Cutoff keeping the truncated weight of the photon-number
    distribution at or below the leakage tolerance (with headroom)."""
    if isinstance(state, NumberState):
        return state.n
    if isinstance(state, CoherentState):
        nbar = state.mean_photons
        return int(math.ceil(nbar + 10.0 * math.sqrt(nbar) + 10.0))
    if isinstance(state, ChaoticState):
        return int(math.ceil(math.log(leakage_tol) / math.log(state.u))) + 5
    raise TypeError(f"unsupported state type: {type(state).__name__}")


def poisson_weights(mean: float, n_max: int) -> tuple[np.ndarray, float]:
    """Poisson probabilities of 0 .. n_max and the weight beyond n_max.

    The ratio recurrence runs both ways from the mode, set to one, and stops
    at terms under 1e-300 of it; dividing by the sum then normalizes, so a
    large mean overflows nothing.  The tail sums the terms beyond n_max
    rather than taking 1 - cdf, so it stays accurate far below 1e-12.
    """
    if not 0.0 <= mean < math.inf:
        raise ValueError("Poisson mean must be finite and nonnegative")
    low = n = int(mean)
    terms = [1.0]  # terms[k] belongs to low + k photons
    while low > 0 and terms[-1] > 1e-300:
        terms.append(terms[-1] * low / mean)
        low -= 1
    terms.reverse()
    while n <= n_max or terms[-1] > 1e-300:
        n += 1
        terms.append(terms[-1] * mean / n)
    cut = max(n_max + 1 - low, 0)
    weights = np.zeros(n_max + 1)
    weights[low:] = terms[:cut]
    total = math.fsum(terms)
    return weights / total, math.fsum(terms[cut:]) / total


def oracle_output_state(
    state: InputState,
    bs: BeamSplitter,
    n_max: int | None = None,
    leakage_tol: float = 1e-12,
) -> TwoModeFockSpace | TwoModeMixture:
    """Two-arm output state built by brute-force operator application.

    Number states give a pure state; coherent and chaotic inputs give a
    mixture over photon number with Poisson and geometric weights.  The
    component states are generated incrementally, one creation-operator
    application per photon.  Raises TruncationError when the untruncated
    weight beyond the cutoff exceeds the leakage tolerance.
    """
    if isinstance(state, NumberState):
        return split_photons(state.n, bs, n_max)

    if n_max is None:
        n_max = default_cutoff(state, leakage_tol)

    if isinstance(state, CoherentState):
        weights, tail = poisson_weights(state.mean_photons, n_max)
    elif isinstance(state, ChaoticState):
        ns = np.arange(n_max + 1)
        weights = (1.0 - state.u) * state.u**ns
        tail = float(state.u ** (n_max + 1))
    else:
        raise TypeError(f"unsupported state type: {type(state).__name__}")

    if tail > leakage_tol:
        raise TruncationError(
            f"weight {tail:.3e} beyond cutoff {n_max} exceeds tolerance {leakage_tol:.1e}"
        )

    components = [TwoModeFockSpace(n_max, psi) for psi in _ladder(bs, n_max, n_max)]
    return TwoModeMixture(weights=weights, components=components, tail=tail)


def oracle_g2(
    state: InputState,
    bs: BeamSplitter | None = None,
    n_max: int | None = None,
    leakage_tol: float = 1e-12,
) -> float:
    """Coincidence ratio evaluated from the brute-force output state."""
    if bs is None:
        bs = BeamSplitter()
    out = oracle_output_state(state, bs, n_max=n_max, leakage_tol=leakage_tol)
    exp_t, exp_r, exp_c = out.arm_expectations()
    if exp_t <= 0.0 or exp_r <= 0.0:
        raise DegenerateState("coincidence ratio undefined for a dark arm or empty input")
    return exp_c / (exp_t * exp_r)
