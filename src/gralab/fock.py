"""Beam-splitter photon statistics of one input mode.

One input mode carrying a number, coherent, or chaotic (thermal) state meets
a lossless beam splitter and the two output arms are read out in coincidence.
Closed-form expectation values and the normalized coincidence ratio g2 are
provided alongside a brute-force oracle.  The oracle builds the two-arm
output of k input photons by k applications of the splitter's creation
operator to the vacuum, stores it as one rung vector of k + 1 amplitudes on
|k-j>_t |j>_r (photon number is conserved, so no rung reaches the cutoff),
and evaluates the same expectations from the amplitudes, each rung weighted
by the input's photon-number distribution as it is built.  Rung vectors are
the package's only two-arm representation; `gralab.photodetect` uses the
same layout.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np


class DegenerateState(ValueError):
    """The coincidence ratio is undefined: an arm or the source is dark."""


class TruncationError(ValueError):
    """Probability leaked past the Fock-space cutoff beyond tolerance."""


# Largest photon-number weight the oracle may leave beyond its cutoff.
LEAKAGE_TOL = 1e-12


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
    def from_transmittance(cls, t2: float = 0.5) -> "BeamSplitter":
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
        # |alpha|^2 and the coincidence moment |alpha|^4 that g2 needs, as
        # products: they reach inf instead of raising OverflowError, and a
        # non-finite alpha gives inf or NaN.
        mean = abs(complex(self.alpha)) * abs(complex(self.alpha))
        if not math.isfinite(mean * mean):
            raise ValueError("coherent amplitude must have finite |alpha|^2 and |alpha|^4")

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
    input carries no light, or so little that <n_t><n_r> falls below the
    smallest normal float, where it has lost its digits or reads 0.
    """
    if bs is None:
        bs = BeamSplitter()
    nt = expect_transmitted(state, bs)
    nr = expect_reflected(state, bs)
    if not nt * nr >= sys.float_info.min:
        raise DegenerateState(f"no coincidence ratio for {state} at t^2 {bs.t**2:g}: a dark arm or input")
    return expect_coincidence(state, bs) / (nt * nr)


def _rungs(bs: BeamSplitter, top: int):
    """Yield the splitter outputs of |0>, |1>, .. |top> on one input port as
    rung vectors: one normalized step (t b_t+ + e^{i phase} r b_r+) / sqrt(k)
    per photon, done as two sqrt-scaled, shifted adds, so no n! is formed.
    The yielded view is overwritten by the next step.
    """
    root = np.sqrt(np.arange(top + 1.0))
    # Amplitude j of rung k gains sqrt(k-j) = into_t[top-k+j] / t through b_t+
    # and sqrt(j) = into_r[j] / (e^{i phase} r) through b_r+.
    into_t = bs.t * root[::-1]
    into_r = (cmath.exp(1j * bs.reflection_phase) * bs.r) * root
    # Rung k sits at buf[1 : k+2].  Building it reads the pad buf[0] and
    # buf[k+1] past rung k-1, and both meet a zero factor.
    old, new, term = (np.zeros(top + 2, dtype=complex) for _ in range(3))
    old[1] = 1.0
    yield old[1:2]
    for k in range(1, top + 1):
        out, part = new[1 : k + 2], term[: k + 1]
        np.multiply(old[1 : k + 2], into_t[top - k :], out=part)
        np.multiply(old[: k + 1], into_r[: k + 1], out=out)
        np.add(out, part, out=out)
        np.multiply(out, 1.0 / math.sqrt(k), out=out)
        old, new = new, old
        yield out


def default_cutoff(state: InputState, leakage_tol: float = LEAKAGE_TOL) -> int:
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


# Largest oracle cutoff.  The rungs 0 .. n_max cost O(n_max^2) work: at this
# cap, oracle_g2 on NumberState(10000) takes about 3.4 s (2 CPUs, numpy 2.4),
# and ChaoticState(0.997) needs 9,202 rungs.  A larger cutoff is refused before
# anything is allocated.
MAX_CUTOFF = 10_000


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


def photon_weights(state: InputState, n_max: int | None = None) -> tuple[int, np.ndarray, float]:
    """The oracle's cutoff, the input's photon-number weights on 0 .. n_max,
    and the untruncated weight beyond the cutoff (reported, not renormalized).

    Raises TruncationError when the cutoff exceeds MAX_CUTOFF, cannot hold
    a number state, or leaves a tail above LEAKAGE_TOL.
    """
    source = "n_max"
    if n_max is None:
        n_max = default_cutoff(state)
        source = "the number state" if isinstance(state, NumberState) else "default_cutoff"
    if n_max > MAX_CUTOFF:
        raise TruncationError(
            f"cutoff {n_max} of {state!r}, from {source}, exceeds the oracle's cap of {MAX_CUTOFF} rungs"
        )
    if isinstance(state, NumberState):
        if n_max < state.n:
            raise TruncationError(f"cutoff {n_max} cannot hold {state.n} photons")
        weights, tail = np.zeros(n_max + 1), 0.0
        weights[state.n] = 1.0
    elif isinstance(state, CoherentState):
        weights, tail = poisson_weights(state.mean_photons, n_max)
    elif isinstance(state, ChaoticState):
        weights = (1.0 - state.u) * state.u ** np.arange(n_max + 1)
        tail = float(state.u ** (n_max + 1))
    else:
        raise TypeError(f"unsupported state type: {type(state).__name__}")
    if tail > LEAKAGE_TOL:
        raise TruncationError(f"weight {tail:.3e} beyond cutoff {n_max} exceeds tolerance {LEAKAGE_TOL:.1e}")
    return n_max, weights, tail


def oracle_moments(
    state: InputState, bs: BeamSplitter, n_max: int | None = None
) -> tuple[float, float, float]:
    """(<n_t>, <n_r>, <n_t n_r>) of the brute-force two-arm output state.

    The output mixes the rungs k = 0 .. n_max with the weights of
    photon_weights (a number state is the single rung n); each rung adds
    its moments as it is built and is not kept.
    """
    weights = photon_weights(state, n_max)[1].tolist()
    top = state.n if isinstance(state, NumberState) else len(weights) - 1
    # A rung's probabilities p are indexed by the count m in the arm with the
    # smaller share: m = j reflected photons, or m = k - j transmitted ones
    # when t^2 < 1/2, read from the powers of top - j from column 2 (top - k).
    # Rows 1, m, m^2 (twice each, for a rung's real and imaginary parts)
    # give sum p, sum m p, sum m^2 p; with them that arm's mean is sum m p,
    # the other's k sum p - sum m p and <n_t n_r> = k sum m p - sum m^2 p,
    # none of which cancels however small the smaller share is.
    flip = bs.t**2 < 0.5
    counts = np.arange(top + 1.0)
    powers = (counts[::-1] if flip else counts).repeat(2) ** np.arange(3.0)[:, None]
    probs, sums = np.empty(2 * (top + 1)), np.empty(3)
    exp_major = exp_minor = exp_c = 0.0
    for k, rung in enumerate(_rungs(bs, top)):
        weight = weights[k]
        if weight:
            p = np.square(rung.view(float), out=probs[: 2 * k + 2])
            start = 2 * (top - k) if flip else 0
            total, mean, square = np.matmul(powers[:, start : start + 2 * k + 2], p, out=sums).tolist()
            exp_major += weight * (k * total - mean)
            exp_minor += weight * mean
            exp_c += weight * (k * mean - square)
    return (exp_minor, exp_major, exp_c) if flip else (exp_major, exp_minor, exp_c)


def oracle_g2(state: InputState, bs: BeamSplitter | None = None, n_max: int | None = None) -> float:
    """Coincidence ratio evaluated from the brute-force output state."""
    if bs is None:
        bs = BeamSplitter()
    exp_t, exp_r, exp_c = oracle_moments(state, bs, n_max=n_max)
    if not (min(exp_t, exp_r) > 0.0 and exp_t * exp_r >= sys.float_info.min):
        raise DegenerateState(f"no coincidence ratio for {state} at t^2 {bs.t**2:g}: a dark arm or input")
    return exp_c / (exp_t * exp_r)
