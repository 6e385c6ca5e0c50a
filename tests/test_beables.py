"""Mode dynamics, local field beables, and the quantum potential."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gralab import beables, checks
from gralab.beables import (
    EmptyCurve,
    ModePair,
    SingularDenominator,
    VacuumModes,
    analytic_region1,
    beables_region1,
    beables_region2,
    beam_intensity_curves,
    frame_consistency_region1,
    frame_consistency_region2,
    integrate_region1,
    mode_frequencies,
    quantum_potential,
    region1_equations_of_motion,
    total_energy,
    visibility,
    wave_equation_residual,
)

RIGID = ModePair.single_frequency(1.0)
TILTED = ModePair(amp_a=1.0, amp_b=1.0, phase_a=0.0, phase_b=0.0)


def average_intensity(pair, phi=None, volume=1.0):
    """Cycle-averaged intensity vector (1 / 2V)(w_a k_a + w_b k_b).

    The weights are those of mode_frequencies: phi None is the divided
    region, a phase the recombined one.  The oscillatory and background
    cross terms average to zero, so the result is amplitude-independent.
    """
    w_a, w_b = beables._weights(phi)
    return beables._flux(volume) / 2.0 * (pair.k_a * w_a + pair.k_b * w_b)


def fitted_frequency(trajectory):
    """Rotation frequency of q_a from a least-squares fit to its phase.

    Meaningful for rigid rotations, where the unwrapped phase is linear
    in time; offset-circle motion has no single frequency to fit.
    """
    if len(trajectory.times) < 2:
        raise ValueError("need at least two samples to fit a frequency")
    phases = np.unwrap(np.angle(trajectory.q_a))
    slope = np.polyfit(trajectory.times, phases, 1)[0]
    return float(abs(slope))


def _sample_vacuum(n=4, seed=43):
    rng = np.random.default_rng(seed)
    angles = np.linspace(0.3, 1.1, n)
    k_vectors = np.stack(
        [np.cos(angles), np.sin(angles) * 0.6, np.sin(angles) * 0.8], axis=1
    )
    k_vectors /= np.linalg.norm(k_vectors, axis=1, keepdims=True)
    raw = np.cross(k_vectors, [0.0, 0.0, 1.0])
    pols = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return VacuumModes.sample_ground_state(k_vectors, pols, rng)


def test_equations_of_motion_example():
    da, db = region1_equations_of_motion(1.0, 0.0)
    assert da == 0.5j
    assert db == 0.5 + 0.0j


def test_equations_of_motion_singular():
    with pytest.raises(SingularDenominator):
        region1_equations_of_motion(1.0, -1.0j)


@pytest.mark.parametrize("scale", [1.0, 1e-13, 1e-100, 1e100])
def test_vanishing_denominator_is_relative_to_the_coordinates(scale):
    # The equations of motion, Q and the start took the denominator
    # q_a - i q_b to vanish below 1e-12 of max(1, |q|), or of 1 at the start,
    # so amp 4e-13 was refused although |w| = 2 amp.  All three now measure
    # it against the coordinates alone.
    q_a, q_b = scale, 0.0
    da, db = region1_equations_of_motion(q_a, q_b)
    assert (da, db) == (0.5j / scale, 0.5 / scale)
    assert np.isfinite(quantum_potential(RIGID, q_a, q_b))
    near = scale * (1.0 + 1e-13j)
    for call in (
        lambda: region1_equations_of_motion(near, -1j * scale),
        lambda: quantum_potential(RIGID, near, -1j * scale),
        lambda: integrate_region1(ModePair(amp_a=scale, amp_b=scale, phase_a=-math.pi / 2.0), 0.0),
    ):
        with pytest.raises(SingularDenominator):
            call()
    start = integrate_region1(ModePair.single_frequency(scale), 0.0).q_a[0]
    assert abs(start + 1j * scale) < 1e-15 * scale


def test_mode_frequency_law():
    for amp in (0.5, 1.0, 2.0):
        pair = ModePair.single_frequency(amp)
        omega_a, omega_b = mode_frequencies(pair)
        assert np.abs(omega_a * amp**2 - 0.25) < 1e-15
        assert np.abs(omega_b * amp**2 - 0.25) < 1e-15


def test_mode_pair_validation():
    with pytest.raises(ValueError):
        ModePair(amp_a=0.0, amp_b=1.0)
    with pytest.raises(ValueError):
        ModePair(amp_a=1.0, amp_b=1.0, k_a=np.array([1.0, 0, 0]), k_b=np.array([0, 2.0, 0]))
    with pytest.raises(ValueError):
        ModePair(amp_a=1.0, amp_b=1.0, pol_a=np.array([0.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        ModePair(amp_a=1.0, amp_b=1.0, pol_a=np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("k0", [0.0, -1.0, math.nan, math.inf])
def test_single_frequency_rejects_bad_wavenumber(k0):
    with pytest.raises(ValueError, match="beam wavenumber must be positive and finite"):
        ModePair.single_frequency(1.0, k0=k0)


@pytest.mark.parametrize(
    "amp,k0,named",
    [
        (1e200, 1.0, "mode amplitude 1e+200"),  # amp^2 overflows
        (1e-200, 1.0, "mode amplitude 1e-200"),  # amp^2 underflows to 0
        (5e153, 1.0, "mode amplitude 5e+153"),  # the period 8 pi amp^2 overflows
        (1e-150, 1.0, "mode amplitude 1e-150"),  # the acceleration 1 / (16 amp^3) overflows
        (1.0, 1e300, "beam wavenumber: k_a overflows k0^2"),
        (1e150, 1e100, "mode amplitude 1e+150 at beam wavenumber 1e+100"),  # k0^2 rho^2 overflows
    ],
)
def test_pair_rejects_overflowing_amplitude_or_wavenumber(amp, k0, named):
    # The first two used to end in OverflowError and ZeroDivisionError from
    # mode_frequencies, 1e-150 in the residual's overflow and the last two in
    # a NaN past validation or numpy's overflow warning.
    with pytest.raises(ValueError, match=re.escape(named)):
        ModePair.single_frequency(amp, k0=k0)


def test_integer_amplitude_is_stored_as_a_float():
    # An int amplitude used to reach the kernel as an int64 array, where
    # amp^2 wrapped past 3.04e9: the E error read 4.49 at 10**10.
    x = (0.3, 0.2, 0.1)
    for amp in (10**10, 10**20):
        pair = ModePair.single_frequency(amp)
        assert all(type(getattr(pair, name)) is float for name in ("amp_a", "amp_b", "phase_a", "phase_b"))
        errors = frame_consistency_region1(pair, x, 5.0)
        assert errors == frame_consistency_region1(ModePair.single_frequency(float(amp)), x, 5.0)
        assert max(errors) < 1e-6


@pytest.mark.parametrize(
    "name,value",
    [("amp_a", 10**400), ("amp_b", "one"), ("phase_a", 1j), ("phase_b", None)],
    ids=["int-past-float-range", "string", "complex", "none"],
)
def test_mode_pair_scalar_must_convert_to_a_float(name, value):
    # 10**400 used to end in an uncaught OverflowError.
    with pytest.raises(ValueError, match=f"^{name} does not convert to a float"):
        ModePair(**{"amp_a": 1.0, "amp_b": 1.0, name: value})


def test_rk4_step_count_must_be_finite():
    # 2.5e307 / 0.025 steps used to end in OverflowError from math.ceil.
    with pytest.raises(ValueError, match="RK4 steps"):
        integrate_region1(ModePair.single_frequency(1.0), 2.5e307)
    # Every step is kept, so `beables --periods 1e9` filled memory for hours.
    with pytest.raises(ValueError, match="needs more than a million RK4 steps"):
        integrate_region1(ModePair.single_frequency(1.0), 1001 * 8.0 * math.pi)


NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(name=st.sampled_from(["amp_a", "amp_b", "phase_a", "phase_b"]), value=NONFINITE)
@example(name="amp_a", value=math.nan)
@example(name="amp_a", value=math.inf)
@example(name="phase_b", value=math.nan)
def test_mode_pair_rejects_nonfinite_scalars(name, value):
    with pytest.raises(ValueError):
        ModePair(**{"amp_a": 1.0, "amp_b": 1.0, name: value})


@given(name=st.sampled_from(["k_a", "k_b", "pol_a", "pol_b"]), index=st.integers(0, 2), value=NONFINITE)
def test_mode_pair_rejects_nonfinite_vectors(name, index, value):
    pair = ModePair(amp_a=1.0, amp_b=1.0)
    vector = getattr(pair, name).copy()
    vector[index] = value
    with pytest.raises(ValueError):
        ModePair(amp_a=1.0, amp_b=1.0, **{name: vector})


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_volume_and_end_time_must_be_positive_and_finite(value):
    x = [0.1, 0.2, 0.3]
    for call in (
        lambda: beables_region1(RIGID, x, 0.5, volume=value),
        lambda: beables_region2(RIGID, 0.4, x, 0.5, volume=value),
        lambda: frame_consistency_region2(RIGID, 0.4, x, 0.5, volume=value),
        lambda: average_intensity(RIGID, 0.4, volume=value),
        lambda: beam_intensity_curves(RIGID, [0.0, 1.0], volume=value),
    ):
        with pytest.raises(ValueError, match="volume"):
            call()
    if value != 0.0:  # a zero-length trajectory is allowed
        with pytest.raises(ValueError, match="end time"):
            integrate_region1(RIGID, value)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_nonfinite_phase_rejected(phi):
    x = [0.1, 0.2, 0.3]
    for call in (
        lambda: mode_frequencies(RIGID, phi=phi),
        lambda: average_intensity(RIGID, phi),
        lambda: beables_region2(RIGID, phi, x, 0.5),
        lambda: frame_consistency_region2(RIGID, phi, x, 0.5),
    ):
        with pytest.raises(ValueError, match="phase must be finite"):
            call()


def test_closed_orbit_is_rigid_on_the_manifold():
    # There w0 = 2i amp e^(i phase_b), so the orbit turns at 1 / |w0|^2, the
    # mode frequency 1 / (4 amp^2), and each coordinate keeps its modulus.
    for amp, phase_b in ((1.0, 0.0), (0.7, 1.3), (2.2, -0.4)):
        pair = ModePair.single_frequency(amp, phase_b=phase_b)
        omega = mode_frequencies(pair)[0]
        times = np.linspace(0.0, 2.0 * math.pi / omega, 9)
        qa_star, qb_star = analytic_region1(pair, times)
        turn = np.exp(1j * omega * times)
        assert np.abs(qa_star - amp * np.exp(1j * pair.phase_a) * turn).max() < 1e-12 * amp
        assert np.abs(qb_star - amp * np.exp(1j * pair.phase_b) * turn).max() < 1e-12 * amp


def test_rigid_solution_satisfies_equations_of_motion():
    omega = mode_frequencies(RIGID)[0]
    for t in np.linspace(0.0, 4.0 * math.pi, 17):
        qa_star, qb_star = analytic_region1(RIGID, t)
        da, db = region1_equations_of_motion(np.conj(qa_star), np.conj(qb_star))
        assert np.abs(da - 1j * omega * qa_star) < 1e-12
        assert np.abs(db - 1j * omega * qb_star) < 1e-12


def test_integrator_matches_rigid_solution():
    omega = mode_frequencies(RIGID)[0]
    traj = integrate_region1(RIGID, 2.0 * math.pi / omega)
    qa_ref, qb_ref = analytic_region1(RIGID, traj.times)
    err_a = np.abs(np.conj(traj.q_a) - qa_ref).max()
    err_b = np.abs(np.conj(traj.q_b) - qb_ref).max()
    assert max(err_a, err_b) < 1e-6


def test_integrator_matches_general_solution_off_manifold():
    # q_a passes through zero on this orbit; only the combined coordinate
    # may not, and the integration crosses it without trouble.
    traj = integrate_region1(TILTED, 4.0 * math.pi)
    qa_ref, qb_ref = analytic_region1(TILTED, traj.times)
    err_a = np.abs(np.conj(traj.q_a) - qa_ref).max()
    err_b = np.abs(np.conj(traj.q_b) - qb_ref).max()
    assert max(err_a, err_b) < 1e-8
    assert np.abs(traj.q_a).min() < 1e-2


def test_trajectory_initial_conditions():
    traj = integrate_region1(RIGID, 0.0)
    assert len(traj.times) == 1
    assert np.abs(traj.q_a[0] - np.exp(-1j * RIGID.phase_a)) < 1e-15
    assert np.abs(traj.q_b[0] - 1.0) < 1e-15


def test_moduli_conserved():
    traj = integrate_region1(RIGID, 8.0 * math.pi)
    assert np.abs(np.abs(traj.q_a) - 1.0).max() < 1e-9
    tilted = integrate_region1(TILTED, 4.0 * math.pi)
    w = np.conj(tilted.q_a) + 1j * np.conj(tilted.q_b)
    assert np.abs(np.abs(w) - np.abs(w[0])).max() < 1e-9


def test_integrator_rejects_singular_start():
    with pytest.raises(SingularDenominator):
        integrate_region1(
            ModePair(amp_a=1.0, amp_b=1.0, phase_a=-math.pi / 2.0, phase_b=0.0), 1.0
        )


def test_fitted_frequency_matches_law():
    for amp in (0.7, 1.0):
        pair = ModePair.single_frequency(amp)
        omega = mode_frequencies(pair)[0]
        traj = integrate_region1(pair, 2.0 * math.pi / omega)
        assert np.abs(fitted_frequency(traj) - omega) / omega < 1e-9


def test_region1_frame_consistency():
    e_err, b_err = frame_consistency_region1(TILTED, [0.3, 0.2, 0.1], 0.7)
    assert e_err < 1e-6
    assert b_err < 1e-6


def test_region1_frame_consistency_with_vacuum():
    vac = _sample_vacuum()
    e_err, b_err = frame_consistency_region1(RIGID, [0.4, -0.2, 0.3], 1.3, vacuum=vac)
    assert e_err < 1e-6
    assert b_err < 1e-6


def test_electric_field_has_no_background_term():
    vac = _sample_vacuum()
    x = np.array([0.2, 0.4, -0.1])
    with_vac = beables_region1(RIGID, x, 0.8, vacuum=vac)
    without = beables_region1(RIGID, x, 0.8)
    assert np.abs(with_vac.electric_field - without.electric_field).max() < 1e-15
    assert np.abs(with_vac.vector_potential - without.vector_potential).max() > 1e-3


def test_background_fields_static():
    vac = _sample_vacuum()
    x = np.array([0.2, 0.4, -0.1])
    shifts = []
    for t in (0.0, 2.5):
        shifts.append(
            beables_region1(RIGID, x, t, vacuum=vac).vector_potential
            - beables_region1(RIGID, x, t).vector_potential
        )
    assert np.abs(shifts[0] - shifts[1]).max() < 1e-15


def test_region1_cycle_averaged_intensity():
    omega = mode_frequencies(RIGID)[0]
    period = 2.0 * math.pi / omega
    x = np.array([0.3, 0.1, 0.0])
    samples = np.array(
        [
            beables_region1(RIGID, x, t).intensity
            for t in np.arange(256) * (period / 256.0)
        ]
    )
    mean = samples.mean(axis=0)
    expected = average_intensity(RIGID)
    assert np.abs(mean - expected).max() < 1e-12
    assert np.abs(expected - 0.5 * (RIGID.k_a + RIGID.k_b)).max() < 1e-15


def test_region2_frequency_modulation():
    pair = ModePair(amp_a=1.0, amp_b=1.0)
    omega_c, omega_d = mode_frequencies(pair, phi=0.0)
    assert np.abs(omega_c - 0.5) < 1e-15
    assert omega_d == 0.0
    omega_c, omega_d = mode_frequencies(pair, phi=math.pi / 2.0)
    assert np.abs(omega_c - 0.25) < 1e-15
    assert np.abs(omega_d - 0.25) < 1e-15
    # At phi = pi/2 the recombined frequencies are the divided region's.
    wide = ModePair(amp_a=1.3, amp_b=0.8)
    half = mode_frequencies(wide, phi=math.pi / 2.0)
    assert np.abs(np.subtract(half, mode_frequencies(wide))).max() < 1e-15


def test_region2_frame_consistency():
    pair = ModePair(amp_a=1.3, amp_b=0.8)
    for phi in (0.3, math.pi / 2.0, 2.5):
        e_err, b_err = frame_consistency_region2(pair, phi, [0.2, 0.3, -0.4], 0.9)
        assert e_err < 1e-6
        assert b_err < 1e-6


def test_region2_sampled_average_matches_closed_form():
    # at phi = pi/2 both beams rotate at one frequency, so a single
    # period covers the full cycle of every oscillatory term
    pair = ModePair(amp_a=1.0, amp_b=1.0)
    phi = math.pi / 2.0
    omega = mode_frequencies(pair, phi=phi)[0]
    period = 2.0 * math.pi / omega
    x = np.array([0.2, -0.3, 0.5])
    samples = np.array(
        [
            beables_region2(pair, phi, x, t).intensity
            for t in np.arange(128) * (period / 128.0)
        ]
    )
    expected = average_intensity(pair, phi)
    assert np.abs(samples.mean(axis=0) - expected).max() < 1e-12
    assert np.abs(expected - average_intensity(pair)).max() < 1e-15


def test_region2_extinctions_and_balance():
    pair = ModePair(amp_a=1.0, amp_b=1.0)
    (i_c0, i_cpi, i_ch), (i_d0, i_dpi, i_dh) = beam_intensity_curves(
        pair, [0.0, math.pi, math.pi / 2.0]
    )
    assert i_d0 == 0.0
    assert np.abs(i_c0 - 1.0) < 1e-15
    assert np.abs(i_cpi) < 1e-16
    assert np.abs(i_dpi - 1.0) < 1e-15
    assert np.abs(i_ch - i_dh) < 1e-15
    # At phi = pi/2 each beam carries the divided region's averaged intensity.
    divided = average_intensity(pair)
    assert np.abs(i_ch - divided @ pair.k_a / pair.k0) < 1e-15
    assert np.abs(i_dh - divided @ pair.k_b / pair.k0) < 1e-15


def test_region2_magnitudes_independent_of_amplitudes():
    wide = ModePair(amp_a=2.0, amp_b=0.3)
    narrow = ModePair(amp_a=1.0, amp_b=1.0)
    for phi in (0.4, 1.8):
        assert np.abs(
            np.array(beam_intensity_curves(wide, [phi]))
            - np.array(beam_intensity_curves(narrow, [phi]))
        ).max() < 1e-15


def test_region2_sweep_visibility():
    pair = ModePair(amp_a=1.0, amp_b=1.0)
    phis = np.linspace(0.0, 2.0 * math.pi, 72, endpoint=False)
    i_c, i_d = beam_intensity_curves(pair, phis)
    assert np.abs(visibility(i_c) - 1.0) < 1e-12
    assert np.abs(visibility(i_d) - 1.0) < 1e-12
    total = i_c + i_d
    assert total.max() - total.min() < 1e-12


def test_visibility_edges():
    assert visibility(np.full(10, 3.0)) == 0.0
    assert np.abs(visibility((1.0 + np.cos(np.linspace(0, 2 * math.pi, 73))) / 2.0) - 1.0) < 1e-12
    with pytest.raises(EmptyCurve):
        visibility([])
    with pytest.raises(ValueError):
        visibility([-1.0, 2.0])


def test_vacuum_modes_validation():
    with pytest.raises(ValueError):
        VacuumModes(np.array([[1.0, 0, 0]]), np.array([[0, 0, 2.0]]), np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        VacuumModes(np.array([[1.0, 0, 0]]), np.array([[1.0, 0, 0]]), np.array([1.0 + 0j]))


def test_pairs_and_vacuum_modes_are_immutable():
    # The beables read rows derived at construction; nothing may change under them.
    vac = _sample_vacuum()
    with pytest.raises(dataclasses.FrozenInstanceError):
        RIGID.amp_a = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        vac.coords = vac.coords * 2.0
    for array in (RIGID.k_a, RIGID.pol_b, vac.k_vectors, vac.pols, vac.coords):
        with pytest.raises(ValueError):
            array[0] = 0.0
    k_vectors = np.array([[0.0, 0.0, 1.0]])
    alias = VacuumModes(k_vectors, np.array([[1.0, 0.0, 0.0]]), np.array([0.5j]))
    k_vectors[0, 2] = 2.0
    assert alias.k_vectors[0, 2] == 1.0


def test_pairs_and_vacuum_modes_compare_by_identity():
    # The generated __eq__ compared the array fields elementwise and raised
    # "The truth value of an array ... is ambiguous" for equal values.
    for make in (lambda: ModePair.single_frequency(1.0), _sample_vacuum):
        first, second = make(), make()
        assert first == first
        assert not first == second
        assert first != second
        assert len({first, second}) == 2


def test_vacuum_curl_consistency():
    # The background alone: frames with the vacuum minus frames without it.
    vac = _sample_vacuum(n=5, seed=51)
    x = np.array([0.3, -0.2, 0.7])
    h = 1e-6
    points = x + h * np.concatenate([np.eye(3), -np.eye(3), np.zeros((1, 3))])
    with_vac = beables_region1(RIGID, points, 0.4, vacuum=vac)
    without = beables_region1(RIGID, points, 0.4)
    u = with_vac.vector_potential - without.vector_potential
    v = with_vac.magnetic_field[6] - without.magnetic_field[6]
    partial = (u[:3] - u[3:6]) / (2.0 * h)
    curl = np.zeros(3)
    curl[0] = partial[1][2] - partial[2][1]
    curl[1] = partial[2][0] - partial[0][2]
    curl[2] = partial[0][1] - partial[1][0]
    assert np.abs(v).max() > 1e-2
    assert np.abs(curl - v).max() < 1e-6


FIELDS = ("vector_potential", "electric_field", "magnetic_field", "intensity")


def test_region2_reduces_to_region1_at_half_phase():
    # At phi = pi/2 both recombined weights are 1, so every field of every
    # frame must be the divided region's, background cross term included.
    pair = ModePair(amp_a=1.3, amp_b=0.8, phase_a=0.4, phase_b=-0.9)
    vac = _sample_vacuum(n=16, seed=17)
    rng = np.random.default_rng(19)
    for _ in range(6):
        x = rng.uniform(-3.0, 3.0, 3)
        t = rng.uniform(0.0, 20.0)
        one = beables_region1(pair, x, t, volume=4.0, vacuum=vac)
        two = beables_region2(pair, math.pi / 2.0, x, t, volume=4.0, vacuum=vac)
        for name in FIELDS:
            want = getattr(one, name)
            gap = np.abs(getattr(two, name) - want).max()
            assert gap <= 1e-12 * np.abs(want).max(), name


@pytest.mark.parametrize("phi", [None, 0.0, 1.1, math.pi / 2.0, 2.9])
@pytest.mark.parametrize("vacuum_modes", [0, 6])
def test_batched_frames_match_per_point(phi, vacuum_modes):
    pair = ModePair(amp_a=0.9, amp_b=1.2, phase_a=2.0, phase_b=0.3)
    vac = _sample_vacuum(n=vacuum_modes, seed=23) if vacuum_modes else None
    rng = np.random.default_rng(29)
    points = rng.uniform(-4.0, 4.0, (11, 3))

    def build(x, t):
        if phi is None:
            return beables_region1(pair, x, t, volume=2.5, vacuum=vac)
        return beables_region2(pair, phi, x, t, volume=2.5, vacuum=vac)

    for times in (1.7, rng.uniform(0.0, 30.0, 11)):
        batch = build(points, times)
        single = [build(x, t) for x, t in zip(points, np.broadcast_to(times, 11))]
        for name in FIELDS:
            want = np.array([getattr(frame, name) for frame in single])
            got = getattr(batch, name)
            assert got.shape == (11, 3)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), name
    # Any leading shape, with times broadcast against it.
    grid = build(points[:10].reshape(2, 5, 3), np.linspace(0.0, 3.0, 5))
    assert grid.magnetic_field.shape == (2, 5, 3)
    flat = build(points[:10], np.tile(np.linspace(0.0, 3.0, 5), 2))
    assert np.array_equal(grid.intensity.reshape(10, 3), flat.intensity)


def _unit(theta, azimuth):
    return np.array(
        [math.sin(theta) * math.cos(azimuth), math.sin(theta) * math.sin(azimuth), math.cos(theta)]
    )


def _transverse(theta, azimuth, psi):
    # A unit vector at angle psi in the plane transverse to _unit(theta, azimuth).
    e1 = np.array(
        [math.cos(theta) * math.cos(azimuth), math.cos(theta) * math.sin(azimuth), -math.sin(theta)]
    )
    e2 = np.array([-math.sin(azimuth), math.cos(azimuth), 0.0])
    return math.cos(psi) * e1 + math.sin(psi) * e2


def _closed_form(beams, modes, x, t, volume, hbar, c, ref):
    """A, E, B and the intensity at one point, summed term by term.

    beams holds (k, pol, amp, phase, weight) per excited beam and modes
    (k, pol, q) per background mode.  Each field comes with its envelope,
    the sum of its terms' amplitudes, which rounding is measured against:
    a phase carries an absolute error, so a term near a zero of its sine
    or cosine is not known to its own relative precision.
    """
    rv = math.sqrt(volume)
    fields = [np.zeros(3) for _ in range(4)]
    envelopes = [0.0] * 4
    g = 0.0

    def add(i, term, amplitude):
        fields[i] += term
        envelopes[i] += amplitude

    for k, pol, amp, phase, w in beams:
        theta = float(np.dot(k, x)) - hbar * c**2 * w / (4.0 * amp**2) * t - phase
        curl = np.cross(k, pol)
        scale = hbar * c**2 / (2.0 * volume) * w * np.linalg.norm(k)
        add(0, 2.0 / rv * amp * math.cos(theta) * pol, 2.0 / rv * amp)
        add(1, -hbar * c / (2.0 * rv) * w / amp * math.sin(theta) * pol, hbar * c / (2.0 * rv) * w / amp)
        add(2, -2.0 / rv * amp * math.sin(theta) * curl, 2.0 / rv * amp * np.linalg.norm(curl))
        add(3, hbar * c**2 / (2.0 * volume) * w * (1.0 - math.cos(2.0 * theta)) * k, 2.0 * scale)
        g += w * math.sin(theta)
    weight_sum = sum(beam[4] for beam in beams)
    for k, pol, q in modes:
        wave = q * complex(math.cos(np.dot(k, x)), math.sin(np.dot(k, x)))
        curl = np.cross(k, pol)
        v = -2.0 * wave.imag * curl
        reach = 2.0 * abs(q) * np.linalg.norm(curl)
        add(0, 2.0 / rv * wave.real * pol, 2.0 / rv * abs(q))
        add(2, v / rv, reach / rv)
        add(3, -hbar * c**2 / volume * g * np.cross(ref, v), hbar * c**2 / volume * weight_sum * reach)
    return fields, envelopes


ANGLE = st.floats(0.0, 2.0 * math.pi)


@given(
    region=st.sampled_from([1, 2]),
    phi=ANGLE,
    amps=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
    phases=st.tuples(ANGLE, ANGLE),
    k0=st.floats(0.5, 2.0),
    geometry=st.lists(ANGLE, min_size=6, max_size=6),
    volume=st.floats(0.2, 5.0),
    modes=st.lists(
        st.tuples(ANGLE, ANGLE, ANGLE, st.floats(0.2, 3.0), st.complex_numbers(max_magnitude=2.0)),
        max_size=4,
    ),
    samples=st.lists(
        st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(0.0, 20.0)),
        min_size=1,
        max_size=4,
    ),
)
def test_frames_match_closed_form(region, phi, amps, phases, k0, geometry, volume, modes, samples):
    th_a, az_a, psi_a, th_b, az_b, psi_b = geometry
    pair = ModePair(
        amp_a=amps[0],
        amp_b=amps[1],
        phase_a=phases[0],
        phase_b=phases[1],
        k_a=k0 * _unit(th_a, az_a),
        k_b=k0 * _unit(th_b, az_b),
        pol_a=_transverse(th_a, az_a, psi_a),
        pol_b=_transverse(th_b, az_b, psi_b),
    )
    weights = (1.0, 1.0) if region == 1 else (1.0 + math.cos(phi), 1.0 - math.cos(phi))
    beams = [
        (pair.k_a, pair.pol_a, pair.amp_a, pair.phase_a, weights[0]),
        (pair.k_b, pair.pol_b, pair.amp_b, pair.phase_b, weights[1]),
    ]
    vac = None
    if modes:
        vac = VacuumModes(
            k_vectors=[kappa * _unit(th, az) for th, az, _, kappa, _ in modes],
            pols=[_transverse(th, az, psi) for th, az, psi, _, _ in modes],
            coords=[q for *_, q in modes],
        )
    points = np.array([sample[:3] for sample in samples])
    times = np.array([sample[3] for sample in samples])
    if region == 1:
        frames = beables_region1(pair, points, times, volume, vac)
    else:
        frames = beables_region2(pair, phi, points, times, volume, vac)
    mode_rows = [] if vac is None else list(zip(vac.k_vectors, vac.pols, vac.coords))
    for i, (x, t) in enumerate(zip(points, times)):
        want, envelopes = _closed_form(beams, mode_rows, x, t, volume, 1.0, 1.0, pair.pol_a)
        for name, field, envelope in zip(FIELDS, want, envelopes):
            got = getattr(frames, name)[i]
            assert np.abs(got - field).max() <= 1e-12 * envelope, name


def _row(frame, index):
    return {name: getattr(frame, name)[index] for name in FIELDS}


@pytest.mark.parametrize("phi", [None, 2.2])
@pytest.mark.parametrize("vacuum_modes", [0, 1, 16])
def test_kernel_matches_closed_form_in_every_call_shape(phi, vacuum_modes):
    # One point at a scalar time (the benchmark's and the checks' shape),
    # (N, 3) points at a scalar time (the CLI's), a (2, 3, 3) grid with times
    # along its last point axis, and one point against an array of times.
    pair = ModePair(
        amp_a=0.9, amp_b=1.3, phase_a=2.0, phase_b=0.3,
        k_a=1.4 * _unit(0.7, 0.2), k_b=1.4 * _unit(1.9, 2.5),
        pol_a=_transverse(0.7, 0.2, 0.4), pol_b=_transverse(1.9, 2.5, 1.1),
    )
    weights = (1.0, 1.0) if phi is None else (1.0 + math.cos(phi), 1.0 - math.cos(phi))
    beams = [
        (pair.k_a, pair.pol_a, pair.amp_a, pair.phase_a, weights[0]),
        (pair.k_b, pair.pol_b, pair.amp_b, pair.phase_b, weights[1]),
    ]
    vac = _sample_vacuum(n=vacuum_modes, seed=31) if vacuum_modes else None
    mode_rows = [] if vac is None else list(zip(vac.k_vectors, vac.pols, vac.coords))
    volume = 2.5
    rng = np.random.default_rng(37)
    points = rng.uniform(-4.0, 4.0, (6, 3))
    times = rng.uniform(0.0, 30.0, 6)

    def build(x, t):
        if phi is None:
            return beables_region1(pair, x, t, volume, vac)
        return beables_region2(pair, phi, x, t, volume, vac)

    def check_closed_form(x, t, got):
        """Assert one frame against _closed_form; return the field envelopes."""
        want, envelopes = _closed_form(beams, mode_rows, x, t, volume, 1.0, 1.0, pair.pol_a)
        for name, field, envelope in zip(FIELDS, want, envelopes):
            assert got[name].shape == (3,)
            assert np.abs(got[name] - field).max() <= 1e-12 * envelope, name
        return envelopes

    batch = build(points, 1.7)
    for i, x in enumerate(points):
        single = build(x, 1.7)
        envelopes = check_closed_form(x, 1.7, _row(single, Ellipsis))
        check_closed_form(x, 1.7, _row(batch, i))
        for name, envelope in zip(FIELDS, envelopes):
            gap = np.abs(getattr(single, name) - getattr(batch, name)[i]).max()
            assert gap <= 1e-15 * envelope, name
    grid = build(points.reshape(2, 3, 3), times[:3])
    assert grid.intensity.shape == (2, 3, 3)
    for i, j in np.ndindex(2, 3):
        check_closed_form(points[3 * i + j], times[j], _row(grid, (i, j)))
    series = build(points[0], times)
    assert series.vector_potential.shape == (6, 3)
    for j, t in enumerate(times):
        check_closed_form(points[0], t, _row(series, j))


@given(
    rigid=st.booleans(),
    amps=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
    phases=st.tuples(ANGLE, ANGLE),
    k0=st.floats(0.5, 2.0),
    phi=st.none() | ANGLE,
    volume=st.floats(0.2, 5.0),
    modes=st.sampled_from([0, 1, 16]),
    seed=st.integers(0, 2**16),
    points=st.lists(st.tuples(*[st.floats(-5.0, 5.0)] * 3), min_size=1, max_size=5),
    times=st.floats(0.0, 20.0) | st.lists(st.floats(0.0, 20.0), min_size=5, max_size=5),
)
@settings(max_examples=50)
def test_per_point_frame_is_a_row_of_the_batched_frame(
    rigid, amps, phases, k0, phi, volume, modes, seed, points, times
):
    # The benchmark calls one point at a time, the CLI once for every point.
    if rigid:
        pair = ModePair.single_frequency(amps[0], phase_b=phases[1], k0=k0)
    else:
        pair = ModePair(
            amp_a=amps[0], amp_b=amps[1], phase_a=phases[0], phase_b=phases[1],
            k_a=k0 * np.array([1.0, 0.0, 0.0]), k_b=k0 * np.array([0.0, 1.0, 0.0]),
        )
    vac = _sample_vacuum(n=modes, seed=seed) if modes else None
    points = np.array(points)
    times = times if isinstance(times, float) else np.array(times[: len(points)])

    def build(x, t):
        if phi is None:
            return beables_region1(pair, x, t, volume, vac)
        return beables_region2(pair, phi, x, t, volume, vac)

    weights = beables._weights(phi)
    beams = [
        (pair.k_a, pair.pol_a, pair.amp_a, pair.phase_a, weights[0]),
        (pair.k_b, pair.pol_b, pair.amp_b, pair.phase_b, weights[1]),
    ]
    mode_rows = [] if vac is None else list(zip(vac.k_vectors, vac.pols, vac.coords))
    # The envelopes are sums of amplitudes: the same at every point and time.
    _, envelopes = _closed_form(beams, mode_rows, points[0], 0.0, volume, 1.0, 1.0, pair.pol_a)
    batch = build(points, times)
    for i, (x, t) in enumerate(zip(points, np.broadcast_to(times, len(points)))):
        single = build(x, float(t))
        for name, envelope in zip(FIELDS, envelopes):
            gap = np.abs(getattr(single, name) - getattr(batch, name)[i]).max()
            assert gap <= 1e-13 * envelope, name


def test_mode_set_memo_never_serves_a_stale_block():
    # A pair keeps the mode set of its last call.  Between every two settings,
    # in both orders, its frames must equal those of a pair that never ran.
    def fresh():
        return ModePair(amp_a=0.9, amp_b=1.2, phase_a=2.0, phase_b=0.3)

    geometry = _sample_vacuum(n=4, seed=61)
    # The same geometry with other coordinates.
    twin = VacuumModes(geometry.k_vectors, geometry.pols, geometry.coords * (0.5 - 1.5j))
    rng = np.random.default_rng(67)
    points, times = rng.uniform(-3.0, 3.0, (5, 3)), rng.uniform(0.0, 20.0, 5)

    def build(pair, setting):
        vac, phi, volume = setting
        if phi is None:
            return beables_region1(pair, points, times, volume, vac)
        return beables_region2(pair, phi, points, times, volume, vac)

    settings = [
        (vac, phi, volume)
        for vac in (geometry, twin, None)
        for phi in (None, 0.4, 1.3, 2.9)
        for volume in (0.7, 2.5)
    ]
    want = [build(fresh(), setting) for setting in settings]
    pair = fresh()
    for i, j in np.ndindex(len(settings), len(settings)):
        for k in (i, j):
            got = build(pair, settings[k])
            for name in FIELDS:
                assert np.array_equal(getattr(got, name), getattr(want[k], name)), (settings[k], name)
    # A bad volume is never memoised, so it is refused after any valid call.
    for volume in (math.nan, 0.0, math.inf):
        for _ in range(2):
            build(pair, (geometry, 1.3, 2.5))
            with pytest.raises(ValueError):
                build(pair, (geometry, 1.3, volume))
            with pytest.raises(ValueError):
                frame_consistency_region2(pair, 1.3, points[0], 0.5, volume, geometry)
    # The memo is no field: the pair's fields, and so its equality, are unchanged.
    assert [field.name for field in dataclasses.fields(pair)] == [
        "amp_a", "amp_b", "phase_a", "phase_b", "k_a", "k_b", "pol_a", "pol_b",
    ]


# Test-only reference: the field quantum potential of any modulus by
# central finite differences, -(1 / 2R) sum_i w_i d2R/dq_i* dq_i with the
# mixed derivative a quarter of the flat Laplacian over the real and
# imaginary parts of each coordinate, and a relative step.
def _fd_quantum_potential(modulus, weights, q_a, q_b, step=1e-4):
    r0 = modulus(q_a, q_b)
    q = [complex(q_a), complex(q_b)]
    curvature = 0.0
    for idx, w in enumerate(weights):
        if w == 0.0:
            continue
        h = step * max(1.0, abs(q[idx]))
        samples = 0.0
        for delta in (h, -h, 1j * h, -1j * h):
            shifted = list(q)
            shifted[idx] = q[idx] + delta
            samples += modulus(*shifted)
        curvature += w * (samples - 4.0 * r0) / h**2 / 4.0
    return -0.5 * curvature / r0


def _region1_modulus(k0):
    """R = |q_a - i q_b| exp(-k0 rho^2), each coordinate weighted 2 for its -k partner."""

    def modulus(q_a, q_b):
        return abs(q_a - 1j * q_b) * math.exp(-k0 * (abs(q_a) ** 2 + abs(q_b) ** 2))

    return modulus, (2.0, 2.0)


def _ground_state_modulus(kappa):
    """exp(-kappa |q|^2) of one coordinate, weight 1."""

    def modulus(q_a, q_b):
        return math.exp(-kappa * abs(q_a) ** 2)

    return modulus, (1.0, 0.0)


def test_ground_state_quantum_potential():
    # The reference on a state whose potential (kappa - kappa^2 |q|^2) / 2 is known.
    state = _ground_state_modulus(kappa=1.0)
    assert np.abs(_fd_quantum_potential(*state, 0.0, 0.0) - 0.5) < 1e-6
    for q in (0.3 + 0.2j, -0.5j, 0.8):
        value = _fd_quantum_potential(*state, q, 0.0) + 0.5 * abs(q) ** 2
        assert np.abs(value - 0.5) < 5e-6
    state2 = _ground_state_modulus(kappa=2.0)
    assert np.abs(_fd_quantum_potential(*state2, 0.0, 0.0) - 1.0) < 1e-6


COORD = st.complex_numbers(max_magnitude=2.0)


@given(k0=st.floats(0.5, 2.0), q_a=COORD, q_b=COORD)
def test_region1_quantum_potential_closed_form(k0, q_a, q_b):
    # The closed form against the reference at its best step, away from the
    # node w = 0, relative to the largest of its three terms.  The
    # reference's truncation error reaches about 2e-6 where |w| is near 0.1,
    # both |q| near 2 and k0 near 2, and stays below 1e-7 at nine points in ten.
    assume(abs(q_a - 1j * q_b) >= 0.1)
    pair = ModePair.single_frequency(1.0, k0=k0)
    state = _region1_modulus(k0)
    value = quantum_potential(pair, q_a, q_b)
    scale = max(3.0 * k0, k0**2 * (abs(q_a) ** 2 + abs(q_b) ** 2), 0.5 / abs(q_a - 1j * q_b) ** 2)
    assert abs(value - _fd_quantum_potential(*state, q_a, q_b)) < 5e-6 * scale
    # The Wirtinger gradient dQ/dq = (dQ/dRe q - i dQ/dIm q) / 2 against
    # central differences of the closed form just matched to the reference;
    # differencing the reference itself is limited by its rounding noise to
    # about 1e-5.
    h = 1e-6
    oscillator, pull = beables._quantum_gradient(pair, q_a, q_b)
    grad = [o + p for o, p in zip(oscillator, pull)]
    for idx, g in enumerate(grad):
        def at(delta):
            q = [q_a, q_b]
            q[idx] += delta
            return quantum_potential(pair, *q)

        fd = 0.5 * ((at(h) - at(-h)) - 1j * (at(1j * h) - at(-1j * h))) / (2.0 * h)
        assert abs(g - fd) < 1e-8 * max(scale, abs(g))


def test_quantum_potential_broadcasts():
    rng = np.random.default_rng(61)
    q_a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    q_b = rng.normal(size=4) + 1j * rng.normal(size=4)
    values = quantum_potential(TILTED, q_a, q_b)
    assert values.shape == (3, 4)
    for i, j in np.ndindex(3, 4):
        assert values[i, j] == quantum_potential(TILTED, q_a[i, j], q_b[j])


def test_quantum_potential_node():
    # Q is singular where w = q_a - i q_b vanishes, the ray on which the
    # equations of motion are undefined; one such point fails an array.
    with pytest.raises(SingularDenominator):
        quantum_potential(RIGID, 1.0, -1.0j)
    with pytest.raises(SingularDenominator):
        quantum_potential(RIGID, [0.5, 1.0], [0.3, -1.0j])
    with pytest.raises(SingularDenominator):
        beables._quantum_gradient(RIGID, 2.0j, 2.0)


def test_wave_equation_residual_small():
    for t in (0.0, 1.7, 6.1):
        assert wave_equation_residual(RIGID, t) < 1e-12
    assert wave_equation_residual(TILTED, 2.7) < 1e-12
    assert wave_equation_residual(ModePair.single_frequency(0.8, phase_b=0.4), 3.0) < 1e-12


def test_total_energy_value_and_conservation():
    # 3 k0 on or off the rigid manifold
    for pair in (RIGID, TILTED):
        energies = [total_energy(pair, t) for t in (0.0, 2.0, 7.3)]
        for value in energies:
            assert np.abs(value - 3.0) < 1e-14
    doubled = ModePair.single_frequency(1.0, k0=2.0)
    assert np.abs(total_energy(doubled, 0.0) - 6.0) < 1e-14


AMP = st.floats(0.3, 3.0)


@given(
    amps=st.tuples(AMP, AMP), phases=st.tuples(ANGLE, ANGLE), k0=st.floats(0.5, 2.0), t=st.floats(0.0, 50.0)
)
def test_energy_and_residual_exact_off_manifold(amps, phases, k0, t):
    pair = ModePair(
        amp_a=amps[0], amp_b=amps[1], phase_a=phases[0], phase_b=phases[1],
        k_a=[k0, 0.0, 0.0], k_b=[0.0, k0, 0.0],
    )
    w0 = pair.amp_a * np.exp(1j * pair.phase_a) + 1j * pair.amp_b * np.exp(1j * pair.phase_b)
    assume(abs(w0) >= 0.1)
    # |w| keeps its starting value along the orbit, so the kinetic term and
    # 1 / (2 |w|^2) are both 1 / (2 |w0|^2).
    qa_star, qb_star = analytic_region1(pair, t)
    largest = max(3.0 * k0, k0**2 * (abs(qa_star) ** 2 + abs(qb_star) ** 2), 0.5 / abs(w0) ** 2)
    assert abs(total_energy(pair, t) - 3.0 * k0) < 1e-12 * largest
    assert wave_equation_residual(pair, t) < 1e-12


# The unmutated functions, for the mutants below to call.
_potential_terms, _quantum_gradient, _mode_set = (
    beables._potential_terms, beables._quantum_gradient, beables._mode_set
)


def _flipped_sign(pair, q_a, q_b):
    # +1 / (2 |w|^2) in place of -1 / (2 |w|^2)
    constant, oscillator, pull = _potential_terms(pair, q_a, q_b)
    return constant, oscillator, -pull


def _no_oscillator(pair, q_a, q_b):
    constant, _, pull = _potential_terms(pair, q_a, q_b)
    return constant, 0.0, pull


def _doubled_pull(pair, q_a, q_b):
    # -1 / |w|^2 in place of -1 / (2 |w|^2)
    constant, oscillator, pull = _potential_terms(pair, q_a, q_b)
    return constant, oscillator, 2.0 * pull


def _flipped_gradient_pull(pair, q_a, q_b):
    oscillator, (pull_a, pull_b) = _quantum_gradient(pair, q_a, q_b)
    return oscillator, (-pull_a, -pull_b)


def _flipped_electric_block(pair, weights, volume, vacuum):
    waves, rates, phases, block, bias = _mode_set(pair, weights, volume, vacuum)
    block[:, beables._E] *= -1.0
    return waves, rates, phases, block, bias


@pytest.mark.parametrize("mutation", [_flipped_sign, _no_oscillator], ids=["flipped-sign", "no-oscillator"])
@pytest.mark.parametrize("pair", [RIGID, TILTED], ids=["rigid", "offset"])
def test_energy_drift_check_catches_a_wrong_quantum_potential(monkeypatch, mutation, pair):
    # The energy terms reach Q's terms through the module, so the region-I
    # checks see the mutated ones.  Both mutations are conserved along
    # every orbit (|w| and rho^2 are), so only a drift measured from 3 k0
    # catches them.
    assert all(record.passed for record in checks.region1(pair, 1.0, None))
    monkeypatch.setattr("gralab.beables._potential_terms", mutation)
    records = {record.label: record for record in checks.region1(pair, 1.0, None)}
    assert not records["energy drift over a cycle"].passed
    assert records["energy drift over a cycle"].value > 1e-2


def _region1_pairs(amp, k0=1.0):
    """Fresh pairs, so no mode set memoised before a mutation is reused:
    rigid, offset at equal amplitudes, and offset at unequal ones."""
    beams = {"k_a": [k0, 0.0, 0.0], "k_b": [0.0, k0, 0.0]}
    return [
        ModePair.single_frequency(amp, k0=k0),
        ModePair(amp_a=amp, amp_b=amp, **beams),
        ModePair(amp_a=amp, amp_b=2.0 * amp, phase_a=0.3, phase_b=1.1, **beams),
    ]


@pytest.mark.parametrize("amp", [1.0, 1e3, 1e8, 1e30, 1e150])
def test_region1_checks_pass_at_every_amplitude(amp):
    # The energy drift used to fail from amp 1e8: 3 k0 was lost beside k0^2
    # rho^2.  The frames failed at k0 1e8, probed at a point k0 x ~ 1e7;
    # there a pair refuses amp 1e150, whose k0^2 rho^2 overflows.
    for pair in [*_region1_pairs(amp), *(_region1_pairs(amp, k0=1e8) if amp < 1e150 else [])]:
        assert all(record.passed for record in checks.region1(pair, 1.0, None))


@pytest.mark.parametrize(
    "name,mutation,label,amps,large_k0_amps",
    [
        # From amp ~ 1e106 the pull underflows far below the smallest normal
        # float, and no residual can see it.
        ("_quantum_gradient", _flipped_gradient_pull, "wave-equation residual", [1.0, 1e3, 1e8, 1e30, 1e100], []),
        ("_potential_terms", _doubled_pull, "energy drift over a cycle", [1.0, 1e3, 1e8, 1e30, 1e150], []),
        ("_mode_set", _flipped_electric_block, "E vs -(1/c) dA/dt", [1.0, 1e8, 1e31, 1e40, 1e150], [1.0, 1e8, 1e40]),
    ],
    ids=["pull-sign", "doubled-pull", "electric-block-sign"],
)
def test_region1_checks_keep_their_power_at_every_amplitude(monkeypatch, name, mutation, label, amps, large_k0_amps):
    # Each check used to pass its mutant from some amplitude on: the
    # residual from amp 1e3, the energy drift from 3e5 and E from 1e30.
    # large_k0_amps run at k0 1e8 as well, where the probe now stays at
    # k0 x ~ 1 and E is checked where it did not pass on correct code.
    monkeypatch.setattr(f"gralab.beables.{name}", mutation)
    for amp, k0 in [*((amp, 1.0) for amp in amps), *((amp, 1e8) for amp in large_k0_amps)]:
        for pair in _region1_pairs(amp, k0):
            record = next(r for r in checks.region1(pair, 1.0, None) if r.label == label)
            assert not record.passed, (amp, pair)
