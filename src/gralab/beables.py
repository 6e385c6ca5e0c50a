"""Causal field-mode dynamics behind the splitter and the interferometer.

Two excited traveling-wave coordinates evolve under coupled first-order
equations of motion driven by the field's guiding wave.  From the mode
coordinates the module evaluates the local vector-potential, electric,
magnetic, and intensity beables at spacetime points, in the divided region
(two independent beams) and the recombined region (beams remixed with a
relative phase phi), together with the field quantum potential, the mode
wave-equation residual, and the conserved energy.

The beables come from one kernel.  A mode set holds the beams, the doubled beams
of sin^2 theta = (1 - cos 2 theta) / 2, the background and the zero wave as sines,
a cosine a quarter turn on, in one wave matrix, rate and phase vector, and one
real block with the weights, the volume and the intensity cross term folded in.
A call makes one sine pass and one product; each pair keeps its last mode set,
with the time offsets of its last float time, for the next.

Natural units: hbar = c = 1 throughout, so neither appears in a signature
or a formula; the wavenumber of the excited pair sets the frequency scale.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


class SingularDenominator(ValueError):
    """The guiding denominator q_a - i q_b vanished; the motion is undefined."""


class EmptyCurve(ValueError):
    """A visibility needs at least one sample."""


_XHAT = np.array([1.0, 0.0, 0.0])
_YHAT = np.array([0.0, 1.0, 0.0])
_ZHAT = np.array([0.0, 0.0, 1.0])
# v @ _Z_CROSS = z x v for row vectors v: both beams are polarized along z.
_Z_CROSS = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

# Block columns: A, E, B and I, three each, then with a background g = sum of
# w sin theta and c = z x v / V, whose product the intensity loses.
_A, _E, _B, _I = (slice(3 * i, 3 * i + 3) for i in range(4))
_G, _C = 12, slice(13, 16)
_QUARTER = math.pi / 2.0  # cos theta = sin(theta + pi/2): a cosine row's phase is this much less


def _freeze(obj, **arrays) -> None:
    """Set fields of a frozen dataclass as read-only arrays."""
    for name, value in arrays.items():
        value.flags.writeable = False
        object.__setattr__(obj, name, value)


@dataclass(frozen=True, eq=False)
class ModePair:
    """Two excited traveling-wave coordinates with their geometry.

    amp_a and amp_b are the constant moduli of the starting coordinates,
    phase_a and phase_b their initial phases, and k0 the one wavenumber
    of both beams (a single optical frequency feeds them).  Beam a runs
    along x and beam b along y, both polarized along z, as the read-only
    arrays k_a, k_b, pol_a and pol_b.  The pair is frozen, its scalars
    floats and its arrays read-only, and it compares by identity; the last
    mode set the beables built from it is kept outside its fields.
    """

    amp_a: float
    amp_b: float
    phase_a: float = 0.0
    phase_b: float = 0.0
    k0: float = 1.0

    def __post_init__(self) -> None:
        # An int amplitude would reach the kernel as an int64 array, where
        # amp^2 wraps; every scalar is stored as a float.
        for name in ("amp_a", "amp_b", "phase_a", "phase_b", "k0"):
            try:
                object.__setattr__(self, name, float(getattr(self, name)))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{name} does not convert to a float: {exc}") from None
        # Written so that NaN fails every comparison and is rejected.
        if not (0.0 < self.amp_a < math.inf and 0.0 < self.amp_b < math.inf):
            raise ValueError("mode amplitudes must be positive and finite")
        for amp in (self.amp_a, self.amp_b):
            # amp^2, the period 8 pi amp^2, the frequency 1 / (4 amp^2) and
            # the rigid orbit's acceleration 1 / (16 amp^3).
            square = amp * amp
            if not (0.0 < square and 8.0 * math.pi * square < math.inf and 1.0 / square / amp < math.inf):
                raise ValueError(f"mode amplitude {amp:g} leaves amp^2, 1/amp^3 or the period non-finite")
        if not (math.isfinite(self.phase_a) and math.isfinite(self.phase_b)):
            raise ValueError("mode phases must be finite")
        k0, amp = self.k0, max(self.amp_a, self.amp_b)
        if not 0.0 < k0 < math.inf:
            raise ValueError("beam wavenumber must be positive and finite")
        if not 0.0 < k0 * k0 < math.inf:  # k0^2 enters Q, the energy and the residual
            raise ValueError(f"beam wavenumber {k0:g} squares to {k0 * k0:g}")
        # rho^2 = amp_a^2 + amp_b^2 on every orbit, so this is the oscillator energy.
        if not k0 * k0 * (self.amp_a * self.amp_a + self.amp_b * self.amp_b) < math.inf:
            raise ValueError(f"mode amplitude {amp:g} at beam wavenumber {k0:g} overflows k0^2 rho^2")
        _freeze(self, k_a=k0 * _XHAT, k_b=k0 * _YHAT, pol_a=_ZHAT.copy(), pol_b=_ZHAT.copy())
        object.__setattr__(self, "_memo", (None,) * 5)

    @classmethod
    def single_frequency(cls, amp: float, phase_b: float = 0.0, k0: float = 1.0) -> "ModePair":
        """Equal-amplitude pair with a quarter-cycle phase offset.

        On this manifold both coordinates rotate rigidly at the mode
        frequency 1 / (4 amp^2) and keep their moduli: analytic_region1
        reduces to q* = q*(0) e^(i omega t).
        """
        return cls(amp_a=amp, amp_b=amp, phase_a=phase_b + math.pi / 2.0, phase_b=phase_b, k0=k0)


def _weights(phi: float | None) -> tuple[float, float]:
    """Beam weights: (1, 1) in the divided region (phi None), and
    (1 + cos phi, 1 - cos phi) for beams c and d of the recombined one."""
    if phi is None:
        return 1.0, 1.0
    if not math.isfinite(phi):
        raise ValueError("interferometer phase must be finite")
    return 1.0 + math.cos(phi), 1.0 - math.cos(phi)


def _flux(volume: float) -> float:
    """1 / V; a NaN volume fails the comparison and is rejected."""
    if not 0.0 < volume < math.inf:
        raise ValueError("quantization volume must be positive and finite")
    return 1.0 / volume


def mode_frequencies(pair: ModePair, *, phi: float | None = None) -> tuple[float, float]:
    """Nonclassical rotation frequencies w / (4 amp^2) per mode.

    The weights w are 1 in the divided region (phi None).  At interferometer
    phase phi the recombined beam c carries 1 + cos(phi) and beam d
    1 - cos(phi), so an extinguished beam also stops rotating.
    """
    w_a, w_b = _weights(phi)
    return w_a / (4.0 * pair.amp_a**2), w_b / (4.0 * pair.amp_b**2)


def region1_equations_of_motion(q_a: complex, q_b: complex) -> tuple[complex, complex]:
    """Starred-coordinate velocities (dq_a*/dt, dq_b*/dt).

    Both coordinates are driven by the shared denominator q_a - i q_b:
    dq_a*/dt = (i / 2) / (q_a - i q_b) and dq_b*/dt the same
    without the i.  Raises SingularDenominator on the ray where the
    denominator vanishes, to 1e-12 of the larger coordinate's modulus.
    """
    denom = q_a - 1j * q_b
    common = _pull(denom.conjugate(), (q_a + 1j * q_b).conjugate())
    return 1j * common, common


def _pull(w: complex, v: complex) -> complex:
    """The common velocity c = 0.5 / conj(w) of the equations of motion, from
    w = q_a* + i q_b* and v = q_a* - i q_b*: dq_a*/dt = i c and dq_b*/dt = c,
    so w moves at 2 i c and v not at all.  Raises SingularDenominator where
    |w| = |q_a - i q_b| is at most 1e-12 of max(|q_a|, |q_b|), that is of
    max(|w + v|, |w - v|) / 2; both are at most (|w| + |v|) / 2, so only
    |w| <= 1e-12 |v| needs the full test."""
    if abs(w) <= 1e-12 * abs(v) and abs(w) <= 0.5e-12 * max(abs(w + v), abs(w - v)):
        raise SingularDenominator("q_a - i q_b vanished")
    return 0.5 / w.conjugate()


def _start(pair: ModePair):
    """Starting q_a* and q_b*, their combination w0 = q_a* + i q_b*, and the
    frequency 1 / |w0|^2 at which w0 turns.  Raises SingularDenominator
    where region1_equations_of_motion would, as the motion is undefined."""
    a0 = pair.amp_a * np.exp(1j * pair.phase_a)
    b0 = pair.amp_b * np.exp(1j * pair.phase_b)
    w0 = a0 + 1j * b0
    if abs(w0) <= 1e-12 * max(pair.amp_a, pair.amp_b):
        raise SingularDenominator("q_a - i q_b vanishes at the start")
    return a0, b0, w0, 1.0 / abs(w0) ** 2


def analytic_region1(pair: ModePair, times):
    """Closed-form starred coordinates (q_a*(t), q_b*(t)) for any start.

    The combination w* = q_a* + i q_b* rotates rigidly at 1 / |w|^2
    while the orthogonal combination stays fixed, so each coordinate moves
    on a circle about an offset center.  Vectorized over times.
    """
    t = np.asarray(times, dtype=float)
    a0, b0, w0, omega = _start(pair)
    turn = np.exp(1j * omega * t) - 1.0
    return a0 + 0.5 * w0 * turn, b0 - 0.5j * w0 * turn


@dataclass(frozen=True)
class ModeTrajectory:
    """Sampled divided-region coordinates q_a(t), q_b(t), aligned with the times."""

    times: np.ndarray
    q_a: np.ndarray
    q_b: np.ndarray


def integrate_region1(pair: ModePair, t_end: float) -> ModeTrajectory:
    """Integrate the coupled equations of motion with fixed-step RK4.

    The step resolves the fastest of the mode frequencies and the
    rigid-rotation frequency with a thousand steps per cycle.  Every step
    is kept, so a run of more than a million steps, a thousand cycles, is refused.
    """
    if not 0.0 <= t_end < math.inf:
        raise ValueError("end time must be nonnegative and finite")
    a0, b0, w0, omega_turn = _start(pair)
    dt = 2.0 * math.pi / max(*mode_frequencies(pair), omega_turn) / 1000.0
    if not t_end / dt <= 1e6:
        raise ValueError(f"end time {t_end:g} needs more than a million RK4 steps of {dt:.3e}")

    # Only w = q_a* + i q_b* moves, at 2 i c: v = q_a* - i q_b* stays put.  RK4
    # commutes with this change of variables, so stepping w alone gives the
    # two-coordinate iterates up to rounding, at a third of their cost.
    # Python complex scalars: a step costs a quarter of one on 2-element arrays.
    w, v = complex(w0), complex(a0 - 1j * b0)
    path = [w]
    n = 0 if t_end == 0.0 else max(1, math.ceil(t_end / dt))
    h = t_end / n if n else 0.0
    half, full = 1j * h, 2j * h  # a half step and a step of w' = 2 i c, per unit c
    for _ in range(n):
        c1 = _pull(w, v)
        c2 = _pull(w + half * c1, v)
        c3 = _pull(w + half * c2, v)
        c4 = _pull(w + full * c3, v)
        w = w + (full / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        path.append(w)
    path = np.array(path)
    return ModeTrajectory(np.linspace(0.0, t_end, n + 1), np.conj(0.5 * (path + v)), np.conj(-0.5j * (path - v)))


@dataclass(frozen=True, eq=False)
class VacuumModes:
    """Unexcited mode coordinates entering the beables as background noise.

    Each row represents one +k member of a +-k pair (the -k partner is the
    conjugate coordinate, already folded into the sums), so every mode
    contributes a real standing-wave term.  Unexcited coordinates do not
    move, so the fields they source are static.  Frozen and compared by
    identity, like ModePair.
    """

    k_vectors: np.ndarray
    pols: np.ndarray
    coords: np.ndarray

    def __post_init__(self) -> None:
        _freeze(
            self,
            k_vectors=np.array(self.k_vectors, dtype=float, ndmin=2),
            pols=np.array(self.pols, dtype=float, ndmin=2),
            coords=np.array(self.coords, dtype=complex, ndmin=1),
        )
        m = len(self.coords)
        if self.k_vectors.shape != (m, 3) or self.pols.shape != (m, 3):
            raise ValueError("need one wave vector and one polarization per coordinate")
        norms = np.linalg.norm(self.k_vectors, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("vacuum wave vectors must be nonzero")
        if np.any(np.abs(np.linalg.norm(self.pols, axis=1) - 1.0) > 1e-9):
            raise ValueError("vacuum polarizations must be unit vectors")
        if np.any(np.abs(np.sum(self.k_vectors * self.pols, axis=1)) > 1e-9 * norms):
            raise ValueError("vacuum polarizations must be transverse")

    @classmethod
    def sample_ground_state(cls, k_vectors, pols, rng: np.random.Generator) -> "VacuumModes":
        """Draw coordinates from the ground-state modulus squared.

        Each complex coordinate is Gaussian with per-quadrature variance
        1 / (4 |k|).
        """
        k_vectors = np.atleast_2d(np.asarray(k_vectors, dtype=float))
        std = np.sqrt(1.0 / (4.0 * np.linalg.norm(k_vectors, axis=1)))
        coords = std * (rng.standard_normal(len(std)) + 1j * rng.standard_normal(len(std)))
        return cls(k_vectors=k_vectors, pols=pols, coords=coords)


@dataclass(slots=True)
class BeableFrame:
    """Local field beables at a spacetime point, or at an array of them.

    Each field has the shape of the points, (..., 3).
    """

    vector_potential: np.ndarray
    electric_field: np.ndarray
    magnetic_field: np.ndarray
    intensity: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below, by name
def _mode_set(pair, weights, volume, vacuum):
    """(waves, rates, phases, block) of the doubled beams, the beams at weights
    (w_a, w_b), the static background u = 2 Re(q e^(i k.x)) pol, v = curl u, and
    the zero wave: with theta = x @ waves - t rates - phases, the fields are
    sin(theta) @ block.  A cosine row is a sine row at a phase _QUARTER less."""
    flux, w, turn = _flux(volume), np.array(weights)[:, None], 2.0 * math.pi
    # Phases in [0, 2 pi), reduced before they are doubled or shifted and
    # again after, so that theta keeps the digits of a 1e-5 rad step.
    phase = np.remainder([pair.phase_a, pair.phase_b], turn)
    amp = np.array([[pair.amp_a], [pair.amp_b]])
    k, pol = np.stack([pair.k_a, pair.k_b]), np.stack([pair.pol_a, pair.pol_b])
    rate = w[:, 0] / (4.0 * amp[:, 0] ** 2)
    m, width = (0, 12) if vacuum is None else (len(vacuum.coords), 16)
    # Rows cos 2 theta, cos theta, cos k.x and the bias cos 0, then sin theta and
    # sin k.x; w sin^2 theta k / V is the bias w k / 2V less the cos 2 theta rows.
    block = np.zeros((7 + 2 * m, width))
    cos, sin = block[: 5 + m], block[5 + m :]
    cos[0:2, _I], cos[-1, _I] = -0.5 * w * k, 0.5 * (w * k).sum(axis=0)
    cos[2:4, _A] = 2.0 * amp * pol
    sin[0:2, _E] = -w / (2.0 * amp) * pol
    sin[0:2, _B] = -2.0 * amp * np.cross(k, pol)
    if vacuum is not None:
        q, curl = vacuum.coords[:, None], np.cross(vacuum.k_vectors, vacuum.pols)
        # q e^(i k.x) = (Re q cos - Im q sin) + i (Im q cos + Re q sin).
        for rows, re, im in ((cos[4:-1], q.real, q.imag), (sin[2:], -q.imag, q.real)):
            rows[:, _A], rows[:, _B] = 2.0 * re * vacuum.pols, -2.0 * im * curl
            rows[:, _C] = flux * rows[:, _B] @ _Z_CROSS
        sin[0:2, _G] = w[:, 0]
    block[:, _I] *= flux  # and A, E, B below carry 1 / sqrt(V)
    block[:, :9] *= math.sqrt(flux)
    # A field is at most its column's sum; a norm sums 3 squares, the cross term is a product.
    peak = float(np.abs(block).sum(axis=0).max())
    if not 3.0 * peak * peak < math.inf:
        raise ValueError(f"quantization volume {volume:g} overflows the fields at k0 {pair.k0:g}")
    still, k_vac = np.zeros(m), (np.zeros((0, 3)) if vacuum is None else vacuum.k_vectors)
    cos_phases = np.remainder(np.r_[np.remainder(2.0 * phase, turn), phase, still, 0.0] - _QUARTER, turn)
    waves = np.concatenate([2.0 * k, k, k_vac, np.zeros((1, 3)), k, k_vac]).T.copy()
    return waves, np.r_[2.0 * rate, rate, still, 0.0, rate, still], np.r_[cos_phases, phase, still], block


def _frames(pair, phi, x, t, volume, vacuum) -> BeableFrame:
    """Beables of the two beams, weighted as _weights(phi), plus the background.

    A weight scales its beam's frequency, electric field and intensity:
    (1, 1) is the divided region, (1 + cos phi, 1 - cos phi) the recombined
    one.  Points x have shape (..., 3) and times t broadcast against x[..., 0].
    The memo is one tuple, read once: the mode set of a phase and volume, its
    background held alive, and the offsets t rates + phases of the last float
    t, which an array of times recomputes alike.  It is written only when it
    changes, and a concurrent call sees an offset with its own set.
    """
    key, memo = (phi, volume), pair._memo
    changed = memo[1] is not vacuum or memo[0] != key
    if changed:
        # _weights and _mode_set refuse a bad phase or volume, so none is ever
        # memoised; the key holds their values, not a 0-d array changed later.
        mode_set = _mode_set(pair, _weights(phi), volume, vacuum)
        memo = ((phi if phi is None else float(phi), float(volume)), vacuum, mode_set, None, None)
    waves, rates, phases, block = memo[2]
    if isinstance(t, float) and memo[3] == t:
        offset = memo[4]
    else:
        offset = np.multiply.outer(t, rates) + phases
        if isinstance(t, float):
            memo, changed = (*memo[:3], t, offset), True
    if changed:
        object.__setattr__(pair, "_memo", memo)
    theta = np.asarray(x, dtype=float).dot(waves) - offset
    out = np.sin(theta, out=theta) @ block
    intensity = out[..., _I]
    if vacuum is not None:
        intensity = intensity - out[..., _G, None] * out[..., _C]
    return BeableFrame(out[..., _A], out[..., _E], out[..., _B], intensity)


def beables_region1(
    pair: ModePair, x, t: float, volume: float = 1.0, vacuum: VacuumModes | None = None
) -> BeableFrame:
    """Field beables in the divided region, two beams plus background.

    The electric field scales inversely with each amplitude because the
    mode frequency does; with the frequency law 1 / (4 amp^2) the frame
    satisfies E = -dA/dt and B = curl A identically.  Points x may be an
    array of shape (..., 3), with times t broadcast against x[..., 0].  The
    background's intensity cross term is taken against the beams' polarization z.
    """
    return _frames(pair, None, x, t, volume, vacuum)


def beables_region2(
    pair: ModePair, phi: float, x, t: float, volume: float = 1.0, vacuum: VacuumModes | None = None
) -> BeableFrame:
    """Field beables in the recombined region at interferometer phase phi.

    Each output beam keeps its full vector-potential amplitude while its
    electric field and intensity carry the interference weight 1 +- cos(phi),
    consistent with the phase-modulated frequencies: at phi = 0 the d beam
    freezes and stops transporting energy, at phi = pi the c beam does.
    At phi = pi/2 both weights are 1 and the frame is the divided region's.
    Points and times batch as in beables_region1.
    """
    return _frames(pair, phi, x, t, volume, vacuum)


def beam_intensity_curves(pair: ModePair, phis) -> tuple[np.ndarray, np.ndarray]:
    """Averaged intensity magnitudes k0 w / 2 at unit volume along the
    recombined beams c and d, with the weights w of beables_region2, across
    a phase sweep."""
    phis = np.asarray(phis, dtype=float)
    weights = np.array([_weights(phi) for phi in phis.ravel()]).reshape(phis.shape + (2,))
    return 0.5 * pair.k0 * weights[..., 0], 0.5 * pair.k0 * weights[..., 1]


def visibility(curve) -> float:
    """Fringe visibility (max - min) / (max + min) of an intensity curve.

    A constant curve has zero visibility; a curve reaching zero has unit
    visibility.  Raises EmptyCurve for no samples and rejects negative
    intensities.
    """
    arr = np.asarray(curve, dtype=float)
    if arr.size == 0:
        raise EmptyCurve("visibility needs at least one sample")
    if np.any(arr < 0.0):
        raise ValueError("intensities must be nonnegative")
    hi, lo = float(arr.max()), float(arr.min())
    return (hi - lo) / (hi + lo) if hi + lo else 0.0


def _guiding(q_a, q_b):
    """Coordinates as complex arrays and their denominator w = q_a - i q_b.
    Raises SingularDenominator where w vanishes, on the ray where
    region1_equations_of_motion does."""
    q_a, q_b = np.asarray(q_a, dtype=complex), np.asarray(q_b, dtype=complex)
    w = q_a - 1j * q_b
    if (np.abs(w) <= 1e-12 * np.maximum(np.abs(q_a), np.abs(q_b))).any():
        raise SingularDenominator("q_a - i q_b vanished")
    return q_a, q_b, w


def quantum_potential(pair: ModePair, q_a, q_b):
    """Field quantum potential of the divided-region state, in closed form.

    The state's modulus is R = |w| exp(-k0 rho^2), with w = q_a - i q_b and
    rho^2 = |q_a|^2 + |q_b|^2.  Each coordinate carries weight 2 for its -k
    partner in Q = -(1 / 2R) sum_i w_i d2R/dq_i* dq_i.  ln|w| is harmonic in
    each coordinate, so
    Q = 3 k0 - k0^2 rho^2 - 1 / (2 |w|^2).
    Broadcasts over arrays of coordinates.
    """
    constant, oscillator, pull = _potential_terms(pair, q_a, q_b)
    return constant + oscillator + pull


def _potential_terms(pair: ModePair, q_a, q_b):
    """The three terms of quantum_potential: 3 k0, -k0^2 rho^2 and -1 / (2 |w|^2)."""
    q_a, q_b, w = _guiding(q_a, q_b)
    k0 = pair.k0
    return 3.0 * k0, -(k0**2) * (np.abs(q_a) ** 2 + np.abs(q_b) ** 2), -0.5 / np.abs(w) ** 2


def _quantum_gradient(pair: ModePair, q_a, q_b):
    """Wirtinger gradient (dQ/dq_a, dQ/dq_b) of quantum_potential in two
    parts: the oscillator part -k0^2 (q_a*, q_b*) and the quantum pull
    (1, -i) / (2 w^2 w*), with 1 / (w^2 w*) = 1 / (|w|^2 w), which overflows
    nothing where |w|^2 is finite.  Their sum would round the pull away
    from amp ~ 1e3, where it falls below the oscillator part's last bit."""
    q_a, q_b, w = _guiding(q_a, q_b)
    pull = 0.5 / np.abs(w) ** 2 / w
    k2 = pair.k0**2
    return (-k2 * np.conj(q_a), -k2 * np.conj(q_b)), (pull, -1j * pull)


def wave_equation_residual(pair: ModePair, t: float) -> float:
    """Relative residual of the mode wave equation along the closed orbit.

    Checks d2q*/dt2 + k0^2 q* + dQ/dq = 0 at time t, with d2q*/dt2 from
    analytic_region1 differentiated twice (w0 = q_a* + i q_b* turns at
    omega, so q_a*'' = -w0 omega^2 e^(i omega t) / 2 and q_b*'' = -i times
    that) and dQ/dq the gradient of quantum_potential.  The residual thus
    ties the orbit, the equations of motion and Q together.  The oscillator
    terms are summed first, where they cancel exactly, so the residual is
    relative to the quantum pull 1 / (2 |w|^3) that q*'' balances.  A pull
    below the smallest normal float, from amp ~ 1e102, has lost its
    precision, and the residual is relative to that float there.
    """
    _, _, w0, omega = _start(pair)
    # omega^2 alone would underflow from amp ~ 1e80, long before q*'' does.
    turn = 0.5 * w0 * omega * omega * np.exp(1j * omega * t)
    d2_a, d2_b = -turn, 1j * turn
    qa_star, qb_star = analytic_region1(pair, t)
    (osc_a, osc_b), (pull_a, pull_b) = _quantum_gradient(pair, np.conj(qa_star), np.conj(qb_star))
    k2 = pair.k0**2
    res_a = (k2 * qa_star + osc_a) + (d2_a + pull_a)
    res_b = (k2 * qb_star + osc_b) + (d2_b + pull_b)
    h = abs(w0)
    return float(math.hypot(abs(res_a), abs(res_b)) / max(0.5 / h / h / h, sys.float_info.min))


def total_energy(pair: ModePair, t: float = 0.0) -> float:
    """Kinetic plus oscillator plus quantum-potential energy at time t.

    Each coordinate contributes 2 (|dq*/dt|^2 / 2 + k0^2 |q|^2 / 2), weight 2
    for its -k partner.  With quantum_potential the total is 3 k0 for every
    state, so it is a constant of the motion for every trajectory.  The
    terms of _energy_terms are summed exactly, so an overflowed k0^2 rho^2
    raises ValueError (inf - inf).
    """
    return math.fsum(_energy_terms(pair, t))


def _energy_terms(pair: ModePair, t: float) -> list[float]:
    """Kinetic, oscillator and the three _potential_terms at time t.  The
    oscillator and -k0^2 rho^2 take |q| from the same numpy absolute, whose
    last bit can differ from Python's abs, so they cancel exactly."""
    qa_star, qb_star = analytic_region1(pair, t)
    q_a = complex(np.conj(qa_star))
    q_b = complex(np.conj(qb_star))
    da, db = region1_equations_of_motion(q_a, q_b)
    kinetic = abs(da) ** 2 + abs(db) ** 2
    oscillator = pair.k0**2 * (np.abs(q_a) ** 2 + np.abs(q_b) ** 2)
    return [float(term) for term in (kinetic, oscillator, *_potential_terms(pair, q_a, q_b))]


# Rows of the shifted evaluations: the point itself, t +- h_t and x +- h_x e_j,
# with steps that turn the fastest beam phase by _STEP radians at most.
_STEP = 1e-5
_TIME_SHIFTS = np.array([0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
_POINT_SHIFTS = np.concatenate([np.zeros((3, 3)), np.eye(3), -np.eye(3)])


def _frame_consistency(pair, phi, x, t, volume, vacuum):
    # One kernel call evaluates the point and its eight shifts.  Errors are
    # measured against the field envelopes so points where a component
    # passes through zero do not blow up the relative error.
    x, weights = np.asarray(x, dtype=float), _weights(phi)
    h_t, h_x = _STEP / max(mode_frequencies(pair, phi=phi)), _STEP / pair.k0
    frames = _frames(pair, phi, x + h_x * _POINT_SHIFTS, t + h_t * _TIME_SHIFTS, volume, vacuum)
    a = frames.vector_potential
    e_field = frames.electric_field[0]
    b_field = frames.magnetic_field[0]
    rv = math.sqrt(volume)
    e_floor = 1.0 / (2.0 * rv) * (weights[0] / pair.amp_a + weights[1] / pair.amp_b)
    b_floor = 2.0 * pair.k0 * (pair.amp_a + pair.amp_b) / rv

    e_fd = -(a[1] - a[2]) / (2.0 * h_t)
    e_scale = max(float(np.linalg.norm(e_field)), e_floor)
    e_err = float(np.linalg.norm(e_fd - e_field)) / e_scale

    # partial[j, k] = dA_k/dx_j; curl_i = partial[j, k] - partial[k, j] for cyclic (i, j, k).
    partial = (a[3:6] - a[6:9]) / (2.0 * h_x)
    curl = partial[[1, 2, 0], [2, 0, 1]] - partial[[2, 0, 1], [1, 2, 0]]
    b_scale = max(float(np.linalg.norm(b_field)), b_floor)
    b_err = float(np.linalg.norm(curl - b_field)) / b_scale
    return e_err, b_err


def frame_consistency_region1(
    pair: ModePair, x, t: float, volume: float = 1.0, vacuum: VacuumModes | None = None
) -> tuple[float, float]:
    """Relative errors of (E vs -dA/dt, B vs curl A) in the divided region."""
    return _frame_consistency(pair, None, x, t, volume, vacuum)


def frame_consistency_region2(
    pair: ModePair, phi: float, x, t: float, volume: float = 1.0, vacuum: VacuumModes | None = None
) -> tuple[float, float]:
    """Relative errors of (E vs -dA/dt, B vs curl A) in the recombined region."""
    return _frame_consistency(pair, phi, x, t, volume, vacuum)
