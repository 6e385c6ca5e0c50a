"""Causal field-mode dynamics behind the splitter and the interferometer.

Two excited traveling-wave coordinates evolve under coupled first-order
equations of motion driven by the field's guiding wave.  From the mode
coordinates the module evaluates the local vector-potential, electric,
magnetic, and intensity beables at spacetime points, in the divided region
(two independent beams) and the recombined region (beams remixed with a
relative phase phi), together with the field quantum potential, the mode
wave-equation residual, and the conserved energy.

Natural units: hbar = c = 1 throughout, so neither appears in a signature
or a formula; the wavenumber of the excited pair sets the frequency scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class SingularDenominator(ValueError):
    """The guiding denominator q_a - i q_b vanished; the motion is undefined."""


class StepTooLarge(ValueError):
    """Requested integration step cannot resolve the fastest rotation."""


class EmptyCurve(ValueError):
    """A visibility needs at least one sample."""


_XHAT = np.array([1.0, 0.0, 0.0])
_YHAT = np.array([0.0, 1.0, 0.0])
_ZHAT = np.array([0.0, 0.0, 1.0])


def _freeze(obj, **arrays) -> None:
    """Set fields or derived rows of a frozen dataclass as read-only arrays."""
    for name, value in arrays.items():
        value.flags.writeable = False
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class ModePair:
    """Two excited traveling-wave coordinates with their geometry.

    amp_a and amp_b are the constant moduli of the starting coordinates,
    phase_a and phase_b their initial phases.  The wave vectors must share
    one magnitude (a single optical frequency feeds both beams) and each
    polarization must be a unit vector transverse to its wave vector.
    Defaults place beam a along x, beam b along y, both polarized along z,
    with unit wavenumber.  The pair is frozen, its arrays read-only: the
    beables read the two beams as rows derived here once.
    """

    amp_a: float
    amp_b: float
    phase_a: float = 0.0
    phase_b: float = 0.0
    k_a: np.ndarray | None = None
    k_b: np.ndarray | None = None
    pol_a: np.ndarray | None = None
    pol_b: np.ndarray | None = None

    def __post_init__(self) -> None:
        # Written so that NaN fails every comparison and is rejected.
        if not (0.0 < self.amp_a < math.inf and 0.0 < self.amp_b < math.inf):
            raise ValueError("mode amplitudes must be positive and finite")
        if not (math.isfinite(self.phase_a) and math.isfinite(self.phase_b)):
            raise ValueError("mode phases must be finite")
        for name, default in (("k_a", _XHAT), ("k_b", _YHAT), ("pol_a", _ZHAT), ("pol_b", _ZHAT)):
            given = getattr(self, name)
            value = np.array(default if given is None else given, dtype=float)
            if value.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
            _freeze(self, **{name: value})
        ka, kb = np.linalg.norm(self.k_a), np.linalg.norm(self.k_b)
        if abs(ka - kb) > 1e-12 * max(ka, kb, 1.0):
            raise ValueError("wave vectors must share one magnitude")
        if ka == 0.0:
            raise ValueError("wave vectors must be nonzero")
        for pol, k in ((self.pol_a, self.k_a), (self.pol_b, self.k_b)):
            if abs(np.linalg.norm(pol) - 1.0) > 1e-9:
                raise ValueError("polarizations must be unit vectors")
            if abs(float(np.dot(pol, k))) > 1e-9 * ka:
                raise ValueError("polarizations must be transverse to their wave vectors")
        k, pol = np.stack([self.k_a, self.k_b]), np.stack([self.pol_a, self.pol_b])
        amp, phase = np.array([self.amp_a, self.amp_b]), np.array([self.phase_a, self.phase_b])
        _freeze(self, _k=k, _pol=pol, _curl=np.cross(k, pol), _amp=amp, _phase=phase)
        _freeze(self, _pol_a_cross=_cross_matrix(self.pol_a))
        object.__setattr__(self, "_k0", float(ka))

    @property
    def k0(self) -> float:
        return self._k0

    @classmethod
    def single_frequency(
        cls, amp: float, phase_b: float = 0.0, k0: float = 1.0
    ) -> "ModePair":
        """Equal-amplitude pair with a quarter-cycle phase offset.

        On this manifold both coordinates rotate rigidly at the mode
        frequency 1 / (4 amp^2) and keep their moduli: analytic_region1
        reduces to q* = q*(0) e^(i omega t).  The beams run along +x and +y
        with wavenumber k0, which must be positive and finite.
        """
        if not 0.0 < k0 < math.inf:
            raise ValueError("beam wavenumber must be positive and finite")
        return cls(
            amp_a=amp,
            amp_b=amp,
            phase_a=phase_b + math.pi / 2.0,
            phase_b=phase_b,
            k_a=k0 * _XHAT,
            k_b=k0 * _YHAT,
        )


def _cross_matrix(r) -> np.ndarray:
    """Matrix M with v @ M = r x v for row vectors v."""
    r0, r1, r2 = (float(value) for value in r)
    return np.array([[0.0, r2, -r1], [-r2, 0.0, r0], [r1, -r0, 0.0]])


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
    denominator vanishes.
    """
    denom = q_a - 1j * q_b
    scale = max(1.0, abs(q_a), abs(q_b))
    if abs(denom) < 1e-12 * scale:
        raise SingularDenominator("q_a - i q_b vanished")
    common = 0.5 / denom
    return 1j * common, common


def _start(pair: ModePair):
    """Starting q_a* and q_b*, their combination w0 = q_a* + i q_b*, and the
    frequency 1 / |w0|^2 at which w0 turns.  Raises SingularDenominator
    when w0 vanishes, where the equations of motion are undefined."""
    a0 = pair.amp_a * np.exp(1j * pair.phase_a)
    b0 = pair.amp_b * np.exp(1j * pair.phase_b)
    w0 = a0 + 1j * b0
    h2 = abs(w0) ** 2
    if h2 < 1e-24:
        raise SingularDenominator("q_a - i q_b vanishes at the start")
    return a0, b0, w0, 1.0 / h2


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


def integrate_region1(pair: ModePair, t_end: float, dt: float | None = None) -> ModeTrajectory:
    """Integrate the coupled equations of motion with fixed-step RK4.

    The default step resolves the fastest of the mode frequencies and the
    rigid-rotation frequency with a thousand steps per cycle; explicit
    steps coarser than an eighth of that cycle raise StepTooLarge.
    """
    if not 0.0 <= t_end < math.inf:
        raise ValueError("end time must be nonnegative and finite")
    omega_a, omega_b = mode_frequencies(pair)
    a0, b0, _, omega_turn = _start(pair)
    fastest = max(omega_a, omega_b, omega_turn)
    cycle = 2.0 * math.pi / fastest
    if dt is None:
        dt = cycle / 1000.0
    if not dt > 0.0:  # NaN fails here; an infinite step is StepTooLarge
        raise ValueError("step must be positive")
    if dt > cycle / 8.0:
        raise StepTooLarge(f"step {dt:.3e} exceeds an eighth of the fastest cycle {cycle:.3e}")

    def deriv(y_a: complex, y_b: complex) -> tuple[complex, complex]:
        return region1_equations_of_motion(y_a.conjugate(), y_b.conjugate())

    # Python complex scalars: a step costs a quarter of one on 2-element arrays.
    y_a, y_b = complex(a0), complex(b0)
    path_a, path_b = [y_a], [y_b]
    n = 0 if t_end == 0.0 else max(1, math.ceil(t_end / dt))
    h = t_end / n if n else 0.0
    for _ in range(n):
        k1a, k1b = deriv(y_a, y_b)
        k2a, k2b = deriv(y_a + 0.5 * h * k1a, y_b + 0.5 * h * k1b)
        k3a, k3b = deriv(y_a + 0.5 * h * k2a, y_b + 0.5 * h * k2b)
        k4a, k4b = deriv(y_a + h * k3a, y_b + h * k3b)
        y_a = y_a + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        y_b = y_b + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        path_a.append(y_a)
        path_b.append(y_b)

    return ModeTrajectory(np.linspace(0.0, t_end, n + 1), np.conj(path_a), np.conj(path_b))


def fitted_frequency(trajectory: ModeTrajectory) -> float:
    """Rotation frequency of q_a from a least-squares fit to its phase.

    Meaningful for rigid rotations, where the unwrapped phase is linear
    in time; offset-circle motion has no single frequency to fit.
    """
    if len(trajectory.times) < 2:
        raise ValueError("need at least two samples to fit a frequency")
    phases = np.unwrap(np.angle(trajectory.q_a))
    slope = np.polyfit(trajectory.times, phases, 1)[0]
    return float(abs(slope))


@dataclass(frozen=True)
class VacuumModes:
    """Unexcited mode coordinates entering the beables as background noise.

    Each row represents one +k member of a +-k pair (the -k partner is the
    conjugate coordinate, already folded into the sums), so every mode
    contributes a real standing-wave term.  Unexcited coordinates do not
    move, so the fields they source are static.  Frozen like ModePair.
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
        _freeze(self, _curls=np.cross(self.k_vectors, self.pols))

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


@dataclass
class BeableFrame:
    """Local field beables at a spacetime point, or at an array of them.

    Each field has the shape of the points, (..., 3).
    """

    vector_potential: np.ndarray
    electric_field: np.ndarray
    magnetic_field: np.ndarray
    intensity: np.ndarray


def _frames(pair, weights, x, t, volume, vacuum) -> BeableFrame:
    """Beables of the two beams with weights (w_a, w_b) plus the background.

    A weight scales its beam's frequency, electric field and intensity:
    (1, 1) is the divided region, (1 + cos phi, 1 - cos phi) the recombined
    one.  Points x have shape (..., 3) and times t broadcast against x[..., 0].
    """
    flux = _flux(volume)
    x = np.asarray(x, dtype=float)
    w = np.array(weights)
    rv = math.sqrt(volume)
    omega = 0.25 * w / pair._amp**2
    theta = x @ pair._k.T - np.multiply.outer(t, omega) - pair._phase
    cos, sin = np.cos(theta), np.sin(theta)

    a_field = (cos * ((2.0 / rv) * pair._amp)) @ pair._pol
    e_field = (sin * ((-1.0 / (2.0 * rv)) * w / pair._amp)) @ pair._pol
    b_field = (sin * ((-2.0 / rv) * pair._amp)) @ pair._curl
    # The oscillating factor (1 - cos 2 theta) / 2 of each beam, as sin^2 theta.
    intensity = (sin**2 * (flux * w)) @ pair._k
    if vacuum is not None:
        # Static standing waves: u = 2 Re(q e^(i k.x)) pol, v = curl u, and
        # the cross term (pol_a x v) weighted by the beams' sin theta.
        waves = vacuum.coords * np.exp(1j * (x @ vacuum.k_vectors.T))
        v = (-2.0 * waves.imag) @ vacuum._curls
        a_field = a_field + (2.0 / rv) * (waves.real @ vacuum.pols)
        b_field = b_field + v / rv
        g = (sin @ w)[..., None]
        intensity = intensity - flux * g * (v @ pair._pol_a_cross)
    return BeableFrame(a_field, e_field, b_field, intensity)


def beables_region1(
    pair: ModePair, x, t: float, volume: float = 1.0, vacuum: VacuumModes | None = None
) -> BeableFrame:
    """Field beables in the divided region, two beams plus background.

    The electric field scales inversely with each amplitude because the
    mode frequency does; with the frequency law 1 / (4 amp^2) the frame
    satisfies E = -dA/dt and B = curl A identically.  Points x may be an
    array of shape (..., 3), with times t broadcast against x[..., 0].  The
    background's intensity cross term is taken against beam a's polarization.
    """
    return _frames(pair, _weights(None), x, t, volume, vacuum)


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
    return _frames(pair, _weights(phi), x, t, volume, vacuum)


def average_intensity(pair: ModePair, phi: float | None = None, volume: float = 1.0) -> np.ndarray:
    """Cycle-averaged intensity vector (1 / 2V)(w_a k_a + w_b k_b).

    The weights are those of mode_frequencies: phi None is the divided
    region, a phase the recombined one.  The oscillatory and background
    cross terms average to zero, so the result is amplitude-independent.
    """
    w_a, w_b = _weights(phi)
    return _flux(volume) / 2.0 * (pair.k_a * w_a + pair.k_b * w_b)


def beam_intensity_curves(pair: ModePair, phis, volume: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Averaged intensity magnitudes (1 / 2V) k0 (1 +- cos phi) along
    the recombined beams c and d, across a phase sweep."""
    cos = np.cos(np.asarray(phis, dtype=float))
    scale = _flux(volume) / 2.0 * pair.k0
    return scale * (1.0 + cos), scale * (1.0 - cos)


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
    hi = float(arr.max())
    lo = float(arr.min())
    if hi + lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


def _guiding(q_a, q_b):
    """Coordinates as complex arrays and their denominator w = q_a - i q_b.
    Raises SingularDenominator where w vanishes, on the ray where
    region1_equations_of_motion does."""
    q_a, q_b = np.asarray(q_a, dtype=complex), np.asarray(q_b, dtype=complex)
    w = q_a - 1j * q_b
    if (np.abs(w) < 1e-12 * np.maximum(1.0, np.maximum(np.abs(q_a), np.abs(q_b)))).any():
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
    q_a, q_b, w = _guiding(q_a, q_b)
    k0 = pair.k0
    return 3.0 * k0 - k0**2 * (np.abs(q_a) ** 2 + np.abs(q_b) ** 2) - 0.5 / np.abs(w) ** 2


def _quantum_gradient(pair: ModePair, q_a, q_b):
    """Wirtinger gradient (dQ/dq_a, dQ/dq_b) of quantum_potential:
    -k0^2 q* + (1, -i) / (2 w^2 w*)."""
    q_a, q_b, w = _guiding(q_a, q_b)
    pull = 0.5 / (w**2 * np.conj(w))
    k2 = pair.k0**2
    return -k2 * np.conj(q_a) + pull, -k2 * np.conj(q_b) - 1j * pull


def wave_equation_residual(pair: ModePair, t: float) -> float:
    """Relative residual of the mode wave equation along the closed orbit.

    Checks d2q*/dt2 + k0^2 q* + dQ/dq = 0 at time t, with d2q*/dt2 from
    analytic_region1 differentiated twice (w0 = q_a* + i q_b* turns at
    omega, so q_a*'' = -w0 omega^2 e^(i omega t) / 2 and q_b*'' = -i times
    that) and dQ/dq the gradient of quantum_potential.  The residual thus
    ties the orbit, the equations of motion and Q together.
    """
    _, _, w0, omega = _start(pair)
    turn = 0.5 * w0 * omega**2 * np.exp(1j * omega * t)
    d2_a, d2_b = -turn, 1j * turn
    qa_star, qb_star = analytic_region1(pair, t)
    grad_a, grad_b = _quantum_gradient(pair, np.conj(qa_star), np.conj(qb_star))
    k2 = pair.k0**2
    res_a = d2_a + k2 * qa_star + grad_a
    res_b = d2_b + k2 * qb_star + grad_b
    scale = max(abs(d2_a), abs(d2_b), k2 * abs(qa_star), k2 * abs(qb_star), 1e-30)
    return float(math.hypot(abs(res_a), abs(res_b)) / scale)


def total_energy(pair: ModePair, t: float = 0.0) -> float:
    """Kinetic plus oscillator plus quantum-potential energy at time t.

    Each coordinate contributes 2 (|dq*/dt|^2 / 2 + k0^2 |q|^2 / 2), weight 2
    for its -k partner.  With quantum_potential the total is 3 k0 for every
    state, so it is a constant of the motion for every trajectory.
    """
    qa_star, qb_star = analytic_region1(pair, t)
    q_a = complex(np.conj(qa_star))
    q_b = complex(np.conj(qb_star))
    da, db = region1_equations_of_motion(q_a, q_b)
    kinetic = abs(da) ** 2 + abs(db) ** 2
    oscillator = pair.k0**2 * (abs(q_a) ** 2 + abs(q_b) ** 2)
    return kinetic + oscillator + float(quantum_potential(pair, q_a, q_b))


# Rows of the shifted evaluations: the point itself, t +- h, x + h e_j, x - h e_j,
# for the central-difference step h in time and in each coordinate.
_STEP = 1e-5
_TIME_SHIFTS = _STEP * np.array([0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
_POINT_SHIFTS = _STEP * np.concatenate([np.zeros((3, 3)), np.eye(3), -np.eye(3)])


def _frame_consistency(pair, weights, x, t, volume, vacuum):
    # One kernel call evaluates the point and its eight shifts.  Errors are
    # measured against the field envelopes so points where a component
    # passes through zero do not blow up the relative error.
    x = np.asarray(x, dtype=float)
    frames = _frames(pair, weights, x + _POINT_SHIFTS, t + _TIME_SHIFTS, volume, vacuum)
    a = frames.vector_potential
    e_field = frames.electric_field[0]
    b_field = frames.magnetic_field[0]
    rv = math.sqrt(volume)
    e_floor = 1.0 / (2.0 * rv) * (weights[0] / pair.amp_a + weights[1] / pair.amp_b)
    b_floor = 2.0 * pair.k0 * (pair.amp_a + pair.amp_b) / rv

    e_fd = -(a[1] - a[2]) / (2.0 * _STEP)
    e_scale = max(float(np.linalg.norm(e_field)), e_floor, 1e-30)
    e_err = float(np.linalg.norm(e_fd - e_field)) / e_scale

    # partial[j, k] = dA_k/dx_j; curl_i = partial[j, k] - partial[k, j] for cyclic (i, j, k).
    partial = (a[3:6] - a[6:9]) / (2.0 * _STEP)
    curl = partial[[1, 2, 0], [2, 0, 1]] - partial[[2, 0, 1], [1, 2, 0]]
    b_scale = max(float(np.linalg.norm(b_field)), b_floor, 1e-30)
    b_err = float(np.linalg.norm(curl - b_field)) / b_scale
    return e_err, b_err


def frame_consistency_region1(
    pair: ModePair, x, t: float, volume: float = 1.0, vacuum: VacuumModes | None = None
) -> tuple[float, float]:
    """Relative errors of (E vs -dA/dt, B vs curl A) in the divided region."""
    return _frame_consistency(pair, _weights(None), x, t, volume, vacuum)


def frame_consistency_region2(
    pair: ModePair, phi: float, x, t: float, volume: float = 1.0, vacuum: VacuumModes | None = None
) -> tuple[float, float]:
    """Relative errors of (E vs -dA/dt, B vs curl A) in the recombined region."""
    return _frame_consistency(pair, _weights(phi), x, t, volume, vacuum)
