"""Causal field-mode dynamics behind the splitter and the interferometer.

Two excited traveling-wave coordinates evolve under coupled first-order
equations of motion driven by the field's guiding wave.  From the mode
coordinates the module evaluates the local vector-potential, electric,
magnetic, and intensity beables at spacetime points, in the divided region
(two independent beams) and the recombined region (beams remixed with a
relative phase phi), together with the field quantum potential, the mode
wave-equation residual, and the conserved energy.

Natural units: hbar and c default to 1 and every quantity is expressed in
them; the wavenumber of the excited pair sets the frequency scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class SingularDenominator(ValueError):
    """The guiding denominator q_a - i q_b vanished; the motion is undefined."""


class StepTooLarge(ValueError):
    """Requested integration step cannot resolve the fastest rotation."""


class NodeError(ValueError):
    """The wavefunction modulus vanishes here; no quantum potential exists."""


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

    @property
    def k0(self) -> float:
        return float(np.linalg.norm(self.k_a))

    @classmethod
    def single_frequency(
        cls, amp: float, phase_b: float = 0.0, k0: float = 1.0
    ) -> "ModePair":
        """Equal-amplitude pair with a quarter-cycle phase offset.

        On this manifold both coordinates rotate rigidly at one frequency
        and keep their moduli; it is the regime the closed single-frequency
        solution describes exactly.
        """
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
    return 1.0 + math.cos(phi), 1.0 - math.cos(phi)


def mode_frequencies(
    pair: ModePair, hbar: float = 1.0, c: float = 1.0, *, phi: float | None = None
) -> tuple[float, float]:
    """Nonclassical rotation frequencies hbar c^2 w / (4 amp^2) per mode.

    The weights w are 1 in the divided region (phi None).  At interferometer
    phase phi the recombined beam c carries 1 + cos(phi) and beam d
    1 - cos(phi), so an extinguished beam also stops rotating.
    """
    w_a, w_b = _weights(phi)
    return (
        hbar * c**2 * w_a / (4.0 * pair.amp_a**2),
        hbar * c**2 * w_b / (4.0 * pair.amp_b**2),
    )


def region1_equations_of_motion(
    q_a: complex, q_b: complex, hbar: float = 1.0, c: float = 1.0
) -> tuple[complex, complex]:
    """Starred-coordinate velocities (dq_a*/dt, dq_b*/dt).

    Both coordinates are driven by the shared denominator q_a - i q_b:
    dq_a*/dt = (hbar c^2 / 2) i / (q_a - i q_b) and dq_b*/dt the same
    without the i.  Raises SingularDenominator on the ray where the
    denominator vanishes.
    """
    denom = q_a - 1j * q_b
    scale = max(1.0, abs(q_a), abs(q_b))
    if abs(denom) < 1e-12 * scale:
        raise SingularDenominator("q_a - i q_b vanished")
    common = 0.5 * hbar * c**2 / denom
    return 1j * common, common


def _start(pair: ModePair, hbar: float, c: float):
    """Starting q_a* and q_b*, their combination w0 = q_a* + i q_b*, and the
    frequency hbar c^2 / |w0|^2 at which w0 turns.  Raises SingularDenominator
    when w0 vanishes, where the equations of motion are undefined."""
    a0 = pair.amp_a * np.exp(1j * pair.phase_a)
    b0 = pair.amp_b * np.exp(1j * pair.phase_b)
    w0 = a0 + 1j * b0
    h2 = abs(w0) ** 2
    if h2 < 1e-24:
        raise SingularDenominator("q_a - i q_b vanishes at the start")
    return a0, b0, w0, hbar * c**2 / h2


def analytic_region1(pair: ModePair, times, hbar: float = 1.0, c: float = 1.0):
    """Closed-form starred coordinates (q_a*(t), q_b*(t)) for any start.

    The combination w* = q_a* + i q_b* rotates rigidly at hbar c^2 / |w|^2
    while the orthogonal combination stays fixed, so each coordinate moves
    on a circle about an offset center.  Vectorized over times.
    """
    t = np.asarray(times, dtype=float)
    a0, b0, w0, omega = _start(pair, hbar, c)
    turn = np.exp(1j * omega * t) - 1.0
    return a0 + 0.5 * w0 * turn, b0 - 0.5j * w0 * turn


def is_single_frequency(pair: ModePair, tol: float = 1e-9) -> bool:
    """True when the pair sits on the rigid-rotation manifold.

    Requires equal amplitudes and a phase offset of a quarter cycle,
    phase_a - phase_b = pi/2 (mod 2 pi).
    """
    if abs(pair.amp_a - pair.amp_b) > tol * max(pair.amp_a, pair.amp_b):
        return False
    d = (pair.phase_a - pair.phase_b - math.pi / 2.0) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d) <= tol


def single_frequency_solution(pair: ModePair, times, hbar: float = 1.0, c: float = 1.0):
    """Rigid-rotation solution q*(t) = amp e^(i (omega t + phase)).

    Valid only on the single-frequency manifold; elsewhere the coupled
    motion is an offset circle and this form does not solve it.
    """
    if not is_single_frequency(pair):
        raise ValueError("pair is off the single-frequency manifold")
    t = np.asarray(times, dtype=float)
    omega, _ = mode_frequencies(pair, hbar, c)
    return (
        pair.amp_a * np.exp(1j * (omega * t + pair.phase_a)),
        pair.amp_b * np.exp(1j * (omega * t + pair.phase_b)),
    )


@dataclass
class ModeTrajectory:
    """Sampled divided-region coordinates q_a(t), q_b(t) with their frequencies."""

    pair: ModePair
    times: np.ndarray
    q_a: np.ndarray
    q_b: np.ndarray
    omega_a: float
    omega_b: float

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.q_a = np.asarray(self.q_a, dtype=complex)
        self.q_b = np.asarray(self.q_b, dtype=complex)
        if not (len(self.times) == len(self.q_a) == len(self.q_b)):
            raise ValueError("times and coordinate samples must align")


def integrate_region1(
    pair: ModePair,
    t_end: float,
    dt: float | None = None,
    hbar: float = 1.0,
    c: float = 1.0,
) -> ModeTrajectory:
    """Integrate the coupled equations of motion with fixed-step RK4.

    The default step resolves the fastest of the mode frequencies and the
    rigid-rotation frequency with a thousand steps per cycle; explicit
    steps coarser than an eighth of that cycle raise StepTooLarge.
    """
    if not 0.0 <= t_end < math.inf:
        raise ValueError("end time must be nonnegative and finite")
    omega_a, omega_b = mode_frequencies(pair, hbar, c)
    a0, b0, _, omega_turn = _start(pair, hbar, c)
    fastest = max(omega_a, omega_b, omega_turn)
    cycle = 2.0 * math.pi / fastest
    if dt is None:
        dt = cycle / 1000.0
    if dt <= 0.0:
        raise ValueError("step must be positive")
    if dt > cycle / 8.0:
        raise StepTooLarge(f"step {dt:.3e} exceeds an eighth of the fastest cycle {cycle:.3e}")

    def deriv(y_a: complex, y_b: complex) -> tuple[complex, complex]:
        return region1_equations_of_motion(y_a.conjugate(), y_b.conjugate(), hbar, c)

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

    return ModeTrajectory(
        pair=pair,
        times=np.linspace(0.0, t_end, n + 1),
        q_a=np.conj(path_a),
        q_b=np.conj(path_b),
        omega_a=omega_a,
        omega_b=omega_b,
    )


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
    def sample_ground_state(
        cls,
        k_vectors,
        pols,
        rng: np.random.Generator,
        hbar: float = 1.0,
        c: float = 1.0,
    ) -> "VacuumModes":
        """Draw coordinates from the ground-state modulus squared.

        Each complex coordinate is Gaussian with per-quadrature variance
        hbar c / (4 |k|).
        """
        k_vectors = np.atleast_2d(np.asarray(k_vectors, dtype=float))
        std = np.sqrt(hbar * c / (4.0 * np.linalg.norm(k_vectors, axis=1)))
        coords = std * (rng.standard_normal(len(std)) + 1j * rng.standard_normal(len(std)))
        return cls(k_vectors=k_vectors, pols=pols, coords=coords)


@dataclass
class BeableFrame:
    """Local field beables at a spacetime point, or at an array of them.

    Each field has the shape of the points x, (..., 3); t is as given.
    """

    x: np.ndarray
    t: float | np.ndarray
    vector_potential: np.ndarray
    electric_field: np.ndarray
    magnetic_field: np.ndarray
    intensity: np.ndarray


def _frames(pair, weights, x, t, volume, vacuum, reference_pol, hbar, c) -> BeableFrame:
    """Beables of the two beams with weights (w_a, w_b) plus the background.

    A weight scales its beam's frequency, electric field and intensity:
    (1, 1) is the divided region, (1 + cos phi, 1 - cos phi) the recombined
    one.  Points x have shape (..., 3) and times t broadcast against x[..., 0].
    """
    if not 0.0 < volume < math.inf:
        raise ValueError("quantization volume must be positive and finite")
    x = np.asarray(x, dtype=float)
    w = np.array(weights)
    rv = math.sqrt(volume)
    omega = (hbar * c**2 / 4.0) * w / pair._amp**2
    theta = x @ pair._k.T - np.multiply.outer(t, omega) - pair._phase
    cos, sin = np.cos(theta), np.sin(theta)

    a_field = (cos * ((2.0 / rv) * pair._amp)) @ pair._pol
    e_field = (sin * ((-hbar * c / (2.0 * rv)) * w / pair._amp)) @ pair._pol
    b_field = (sin * ((-2.0 / rv) * pair._amp)) @ pair._curl
    # The oscillating factor (1 - cos 2 theta) / 2 of each beam, as sin^2 theta.
    intensity = (sin**2 * ((hbar * c**2 / volume) * w)) @ pair._k
    if vacuum is not None:
        # Static standing waves: u = 2 Re(q e^(i k.x)) pol, v = curl u, and
        # the cross term hbar c^2 (ref x v) weighted by the beams' sin theta.
        waves = vacuum.coords * np.exp(1j * (x @ vacuum.k_vectors.T))
        v = (-2.0 * waves.imag) @ vacuum._curls
        a_field = a_field + (2.0 / rv) * (waves.real @ vacuum.pols)
        b_field = b_field + v / rv
        cross = pair._pol_a_cross if reference_pol is None else _cross_matrix(reference_pol)
        g = (sin @ w)[..., None]
        intensity = intensity - (hbar * c**2 / volume) * g * (v @ cross)
    return BeableFrame(x, t, a_field, e_field, b_field, intensity)


def beables_region1(
    pair: ModePair,
    x,
    t: float,
    volume: float = 1.0,
    vacuum: VacuumModes | None = None,
    reference_pol=None,
    hbar: float = 1.0,
    c: float = 1.0,
) -> BeableFrame:
    """Field beables in the divided region, two beams plus background.

    The electric field scales inversely with each amplitude because the
    mode frequency does; with the frequency law hbar c^2 / (4 amp^2) the
    frame satisfies E = -(1/c) dA/dt and B = curl A identically.  Points
    x may be an array of shape (..., 3), with times t broadcast against
    x[..., 0].  The background's intensity cross term is taken against
    reference_pol, by default beam a's polarization.
    """
    return _frames(pair, _weights(None), x, t, volume, vacuum, reference_pol, hbar, c)


def beables_region2(
    pair: ModePair,
    phi: float,
    x,
    t: float,
    volume: float = 1.0,
    vacuum: VacuumModes | None = None,
    reference_pol=None,
    hbar: float = 1.0,
    c: float = 1.0,
) -> BeableFrame:
    """Field beables in the recombined region at interferometer phase phi.

    Each output beam keeps its full vector-potential amplitude while its
    electric field and intensity carry the interference weight 1 +- cos(phi),
    consistent with the phase-modulated frequencies: at phi = 0 the d beam
    freezes and stops transporting energy, at phi = pi the c beam does.
    At phi = pi/2 both weights are 1 and the frame is the divided region's.
    Points and times batch as in beables_region1.
    """
    return _frames(pair, _weights(phi), x, t, volume, vacuum, reference_pol, hbar, c)


def average_intensity(
    pair: ModePair,
    phi: float | None = None,
    volume: float = 1.0,
    hbar: float = 1.0,
    c: float = 1.0,
) -> np.ndarray:
    """Cycle-averaged intensity vector (hbar c^2 / 2V)(w_a k_a + w_b k_b).

    The weights are those of mode_frequencies: phi None is the divided
    region, a phase the recombined one.  The oscillatory and background
    cross terms average to zero, so the result is amplitude-independent.
    """
    w_a, w_b = _weights(phi)
    return hbar * c**2 / (2.0 * volume) * (pair.k_a * w_a + pair.k_b * w_b)


def beam_intensity_curves(
    pair: ModePair, phis, volume: float = 1.0, hbar: float = 1.0, c: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Averaged intensity magnitudes (hbar c^2 / 2V) k0 (1 +- cos phi) along
    the recombined beams c and d, across a phase sweep."""
    cos = np.cos(np.asarray(phis, dtype=float))
    scale = hbar * c**2 / (2.0 * volume) * pair.k0
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


@dataclass
class ModulusEvaluator:
    """Wavefunction modulus R(q_a, q_b) with per-coordinate mode weights.

    Each traveling-wave coordinate has a conjugate partner at -k whose
    contribution to mode sums duplicates its own, so physical two-beam
    states carry weight 2 per coordinate; a standalone single-coordinate
    state carries weight 1.  The weights multiply each coordinate's term
    in the curvature sum of the quantum potential.
    """

    fn: Callable[[complex, complex], float]
    weights: tuple[float, float] = (2.0, 2.0)


def region1_modulus(pair: ModePair, hbar: float = 1.0, c: float = 1.0) -> ModulusEvaluator:
    """Modulus of the divided-region single-excitation state.

    R = |q_a - i q_b| exp(-(k0 / hbar c)(|q_a|^2 + |q_b|^2)) over the two
    excited coordinates, each weighted twice for its -k partner.
    """
    lam = pair.k0 / (hbar * c)

    def fn(q_a: complex, q_b: complex) -> float:
        rho2 = abs(q_a) ** 2 + abs(q_b) ** 2
        return abs(q_a - 1j * q_b) * math.exp(-lam * rho2)

    return ModulusEvaluator(fn=fn, weights=(2.0, 2.0))


def single_mode_ground_state(kappa: float, hbar: float = 1.0, c: float = 1.0) -> ModulusEvaluator:
    """Ground-state modulus exp(-(kappa / hbar c)|q|^2) of one coordinate."""
    if kappa <= 0.0:
        raise ValueError("wavenumber must be positive")
    lam = kappa / (hbar * c)

    def fn(q_a: complex, q_b: complex) -> float:
        return math.exp(-lam * abs(q_a) ** 2)

    return ModulusEvaluator(fn=fn, weights=(1.0, 0.0))


def quantum_potential(
    state: ModulusEvaluator,
    q_a: complex,
    q_b: complex,
    hbar: float = 1.0,
    c: float = 1.0,
    step: float = 1e-5,
    node_tol: float = 1e-12,
) -> float:
    """Field quantum potential -(hbar^2 c^2 / 2 R) sum_i w_i d2R/dq_i* dq_i.

    The mixed derivative is a quarter of the flat Laplacian over the real
    and imaginary parts of each coordinate, evaluated by central finite
    differences with a relative step.  Raises NodeError where the modulus
    vanishes.
    """
    r0 = state.fn(q_a, q_b)
    if not math.isfinite(r0) or r0 <= node_tol:
        raise NodeError("modulus vanishes; quantum potential undefined")
    q = [complex(q_a), complex(q_b)]
    curvature = 0.0
    for idx, w in enumerate(state.weights):
        if w == 0.0:
            continue
        h = step * max(1.0, abs(q[idx]))
        samples = 0.0
        for delta in (h, -h, 1j * h, -1j * h):
            shifted = list(q)
            shifted[idx] = q[idx] + delta
            samples += state.fn(shifted[0], shifted[1])
        lap = (samples - 4.0 * r0) / h**2
        curvature += w * lap / 4.0
    return -(hbar**2 * c**2 / 2.0) * curvature / r0


def wave_equation_residual(
    pair: ModePair,
    t: float,
    hbar: float = 1.0,
    c: float = 1.0,
    inner_step: float = 1e-4,
    outer_step: float = 3e-3,
) -> float:
    """Relative residual of the mode wave equation along a trajectory.

    Checks (1/c^2) d2q*/dt2 + k0^2 q* + dQ/dq = 0 at the closed-form
    trajectory point for time t, with the quantum-potential gradient taken
    by nested finite differences (inner step inside Q, wider outer step
    for the gradient so the noise stays below the reported scale).
    """
    qa_star, qb_star = analytic_region1(pair, t, hbar, c)
    qa_star = complex(qa_star)
    qb_star = complex(qb_star)
    q_a = np.conj(qa_star)
    q_b = np.conj(qb_star)
    w = q_a - 1j * q_b
    denom = w**2 * np.conj(w)
    d2_a = -(hbar**2 * c**4 / 2.0) / denom
    d2_b = (1j * hbar**2 * c**4 / 2.0) / denom

    state = region1_modulus(pair, hbar, c)

    def grad(idx: int) -> complex:
        base = q_a if idx == 0 else q_b
        h = outer_step * max(1.0, abs(base))

        def q_at(delta: complex) -> float:
            args = [q_a, q_b]
            args[idx] = base + delta
            return quantum_potential(state, args[0], args[1], hbar, c, step=inner_step)

        d_re = (q_at(h) - q_at(-h)) / (2.0 * h)
        d_im = (q_at(1j * h) - q_at(-1j * h)) / (2.0 * h)
        return 0.5 * (d_re - 1j * d_im)

    k2 = pair.k0**2
    res_a = d2_a / c**2 + k2 * qa_star + grad(0)
    res_b = d2_b / c**2 + k2 * qb_star + grad(1)
    scale = max(
        abs(d2_a) / c**2,
        abs(d2_b) / c**2,
        k2 * abs(qa_star),
        k2 * abs(qb_star),
        1e-30,
    )
    return float(math.hypot(abs(res_a), abs(res_b)) / scale)


def total_energy(
    pair: ModePair,
    t: float = 0.0,
    hbar: float = 1.0,
    c: float = 1.0,
    step: float = 1e-5,
) -> float:
    """Kinetic plus oscillator plus quantum-potential energy at time t.

    Each coordinate contributes w (|dq*/dt|^2 / 2c^2 + k0^2 |q|^2 / 2)
    with its mode weight; adding the quantum potential makes the total a
    constant of the motion for every trajectory of the coupled equations.
    """
    qa_star, qb_star = analytic_region1(pair, t, hbar, c)
    q_a = complex(np.conj(qa_star))
    q_b = complex(np.conj(qb_star))
    da, db = region1_equations_of_motion(q_a, q_b, hbar, c)
    state = region1_modulus(pair, hbar, c)
    weights = state.weights
    k2 = pair.k0**2
    kinetic = (abs(da) ** 2 * weights[0] + abs(db) ** 2 * weights[1]) / (2.0 * c**2)
    oscillator = k2 * (abs(q_a) ** 2 * weights[0] + abs(q_b) ** 2 * weights[1]) / 2.0
    return kinetic + oscillator + quantum_potential(state, q_a, q_b, hbar, c, step=step)


# Rows of the shifted evaluations: the point itself, t +- dt, x + dx e_j, x - dx e_j.
_TIME_SHIFTS = np.array([0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
_POINT_SHIFTS = np.concatenate([np.zeros((3, 3)), np.eye(3), -np.eye(3)])


def _frame_consistency(pair, weights, x, t, volume, vacuum, hbar, c, dt, dx):
    # One kernel call evaluates the point and its eight shifts.  Errors are
    # measured against the field envelopes so points where a component
    # passes through zero do not blow up the relative error.
    x = np.asarray(x, dtype=float)
    frames = _frames(
        pair, weights, x + dx * _POINT_SHIFTS, t + dt * _TIME_SHIFTS, volume, vacuum, None, hbar, c
    )
    a = frames.vector_potential
    e_field = frames.electric_field[0]
    b_field = frames.magnetic_field[0]
    rv = math.sqrt(volume)
    e_floor = hbar * c / (2.0 * rv) * (weights[0] / pair.amp_a + weights[1] / pair.amp_b)
    b_floor = 2.0 * pair.k0 * (pair.amp_a + pair.amp_b) / rv

    e_fd = -(a[1] - a[2]) / (2.0 * dt * c)
    e_scale = max(float(np.linalg.norm(e_field)), e_floor, 1e-30)
    e_err = float(np.linalg.norm(e_fd - e_field)) / e_scale

    # partial[j, k] = dA_k/dx_j; curl_i = partial[j, k] - partial[k, j] for cyclic (i, j, k).
    partial = (a[3:6] - a[6:9]) / (2.0 * dx)
    curl = partial[[1, 2, 0], [2, 0, 1]] - partial[[2, 0, 1], [1, 2, 0]]
    b_scale = max(float(np.linalg.norm(b_field)), b_floor, 1e-30)
    b_err = float(np.linalg.norm(curl - b_field)) / b_scale
    return e_err, b_err


def frame_consistency_region1(
    pair: ModePair,
    x,
    t: float,
    volume: float = 1.0,
    vacuum: VacuumModes | None = None,
    hbar: float = 1.0,
    c: float = 1.0,
    dt: float = 1e-5,
    dx: float = 1e-5,
) -> tuple[float, float]:
    """Relative errors of (E vs -(1/c) dA/dt, B vs curl A) in the divided region."""
    return _frame_consistency(pair, _weights(None), x, t, volume, vacuum, hbar, c, dt, dx)


def frame_consistency_region2(
    pair: ModePair,
    phi: float,
    x,
    t: float,
    volume: float = 1.0,
    vacuum: VacuumModes | None = None,
    hbar: float = 1.0,
    c: float = 1.0,
    dt: float = 1e-5,
    dx: float = 1e-5,
) -> tuple[float, float]:
    """Relative errors of (E vs -(1/c) dA/dt, B vs curl A) in the recombined region."""
    return _frame_consistency(pair, _weights(phi), x, t, volume, vacuum, hbar, c, dt, dx)
