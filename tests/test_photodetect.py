"""Detector-atom absorption amplitude and the field-sector selection rule."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gralab.photodetect import (
    DetectorAtomConfig,
    absorption_matrix_element_check,
    energy_mismatch,
    eta,
    form_factor,
    mode_overlap_factor,
    resonance_factor,
    resonant_wavenumber,
    split_photon_state,
)
from test_fock import creation_matrix

HYDROGEN = DetectorAtomConfig()


def test_config_validation():
    assert (HYDROGEN.k0, HYDROGEN.phi) == (1.0, 0.0)
    for k0 in (0.0, -1.0):
        with pytest.raises(ValueError, match="k0 must be positive and finite"):
            DetectorAtomConfig(k0=k0)


@given(
    name=st.sampled_from(["k0", "phi"]),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
)
@example(name="k0", value=math.nan)
@example(name="k0", value=math.inf)
@example(name="phi", value=math.nan)
def test_nonfinite_config_rejected(name, value):
    with pytest.raises(ValueError):
        DetectorAtomConfig(**{name: value})


def test_energy_mismatch_values():
    assert np.abs(energy_mismatch(HYDROGEN, 1.0)) < 1e-15
    assert np.abs(energy_mismatch(HYDROGEN, 0.0) + 0.5) < 1e-15


def test_resonant_wavenumber():
    assert np.abs(resonant_wavenumber(HYDROGEN) - 1.0) < 1e-15
    starved = DetectorAtomConfig(k0=0.4)
    with pytest.raises(ValueError):
        resonant_wavenumber(starved)


def test_resonance_factor_matches_direct_form():
    for e in (-2.3, -0.4, 0.7, 3.1):
        for t in (0.5, 2.0, 7.0):
            direct = (1.0 - np.exp(1j * e * t)) / e
            assert np.abs(resonance_factor(e, t) - direct) < 1e-12


def test_resonance_factor_continuous_at_zero():
    # the factor leaves the resonance with slope t^2 / 2 in the mismatch
    t = 3.0
    center = resonance_factor(0.0, t)
    assert np.abs(center - (-1j * t)) < 1e-15
    for e in (1e-8, -1e-8):
        assert np.abs(resonance_factor(e, t) - center) < 1.01 * (t**2 / 2.0) * abs(e)


def test_resonance_factor_magnitude_even():
    for e in (0.3, 1.7, 9.2):
        assert np.abs(
            np.abs(resonance_factor(e, 2.0)) - np.abs(resonance_factor(-e, 2.0))
        ) < 1e-15


def test_resonance_factor_rejects_negative_time():
    with pytest.raises(ValueError):
        resonance_factor(1.0, -0.1)


@given(value=st.sampled_from([math.nan, math.inf, -math.inf]))
@example(value=math.nan)
@example(value=math.inf)
def test_nonfinite_exposure_time_rejected(value):
    with pytest.raises(ValueError, match="exposure time"):
        resonance_factor(1.0, value)
    with pytest.raises(ValueError, match="exposure time"):
        eta(HYDROGEN, np.linspace(0.0, 3.0, 5), value)


def test_zero_exposure_gives_zero_amplitude():
    assert np.abs(eta(HYDROGEN, 1.0, 0.0)) == 0.0


def test_resonant_amplitude_grows_linearly():
    k = resonant_wavenumber(HYDROGEN)
    for t in (0.5, 1.0, 4.0):
        ratio = np.abs(eta(HYDROGEN, k, 2.0 * t)) / np.abs(eta(HYDROGEN, k, t))
        assert np.abs(ratio - 2.0) < 1e-12


def test_resonant_amplitude_value():
    # coupling sqrt(2 pi), overlap magnitude 1 at phi = 0, form factor
    # 2 sqrt(pi) at the resonant wavenumber, resonance factor -i t
    value = np.abs(eta(HYDROGEN, 1.0, 1.0))
    assert np.abs(value - 2.0 * math.pi * math.sqrt(2.0)) < 1e-12


def test_mismatch_integral_scales_like_golden_rule():
    # integral of |resonance factor|^2 over mismatch approaches 2 pi t
    grid = np.linspace(-40.0, 40.0, 8001)
    de = grid[1] - grid[0]

    def integral(t):
        vals = np.abs(resonance_factor(grid, t)) ** 2
        return de * (vals.sum() - 0.5 * (vals[0] + vals[-1]))

    i3 = integral(3.0)
    i6 = integral(6.0)
    assert np.abs(i3 - 2.0 * math.pi * 3.0) < 0.02 * 2.0 * math.pi * 3.0
    assert np.abs(i6 / i3 - 2.0) < 0.02 * 2.0


def test_form_factor_decreasing():
    k = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    vals = form_factor(k)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_overlap_factor_magnitudes():
    assert np.abs(np.abs(mode_overlap_factor(HYDROGEN)) - 1.0) < 1e-15
    dark = DetectorAtomConfig(phi=math.pi / 2.0)
    assert np.abs(mode_overlap_factor(dark)) < 1e-15
    bright = DetectorAtomConfig(phi=-math.pi / 2.0)
    assert np.abs(np.abs(mode_overlap_factor(bright)) - math.sqrt(2.0)) < 1e-15


def test_split_state_normalized():
    for phi in (0.0, 1.1, math.pi):
        state = split_photon_state(phi)
        assert [len(rung) for rung in state] == [1, 2]
        assert state[0][0] == 0.0
        assert np.abs(np.linalg.norm(np.concatenate(state)) - 1.0) < 1e-15


def test_selection_rule_vacuum_only():
    for phi in (0.0, 1.1, 2.0 * math.pi / 3.0):
        report = absorption_matrix_element_check(split_photon_state(phi))
        expected = (1j - np.exp(1j * phi)) / math.sqrt(2.0)
        assert np.abs(report.vacuum_amplitude - expected) < 1e-12
        assert report.largest_other == 0.0
        assert report.nonzero_count == 1
        assert not report.amplitude_vanishes


def test_selection_rule_dark_fringe():
    report = absorption_matrix_element_check(split_photon_state(math.pi / 2.0))
    assert report.amplitude_vanishes
    assert report.nonzero_count == 0
    assert report.largest_other == 0.0


def test_selection_rule_wavenumber_scaling():
    base = absorption_matrix_element_check(split_photon_state(0.3), k0=1.0)
    quartered = absorption_matrix_element_check(split_photon_state(0.3), k0=4.0)
    assert np.abs(quartered.vacuum_amplitude - base.vacuum_amplitude / 2.0) < 1e-15
    for k0 in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="wavenumber must be positive and finite"):
            absorption_matrix_element_check(split_photon_state(0.3), k0=k0)


def test_absorption_check_rejects_malformed_rungs():
    for state in ([np.ones(1, dtype=complex)], [np.zeros(1), np.zeros(3)], [np.zeros(1), np.zeros(1)]):
        with pytest.raises(ValueError, match="rung k of k \\+ 1 amplitudes"):
            absorption_matrix_element_check(state)


def _dense_lowering(state, k0):
    """Test-only reference: (a_t + a_r) / sqrt(k0) on the dense grid
    psi[i, j] of |i>_t |j>_r, one creation-matrix product per arm."""
    n_max = len(state) - 1
    psi = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for k, rung in enumerate(state):
        j = np.arange(k + 1)
        psi[k - j, j] = rung
    create = creation_matrix(n_max)
    return (create.T @ psi + psi @ create) / math.sqrt(k0)


@given(
    n_max=st.integers(1, 10),
    k0=st.floats(0.05, 20.0),
    seed=st.integers(0, 2**32 - 1),
    keep=st.floats(0.0, 1.0),
    cancel=st.booleans(),
)
@example(n_max=1, k0=1.0, seed=0, keep=1.0, cancel=True)
@example(n_max=10, k0=0.3, seed=1, keep=0.5, cancel=False)
def test_absorption_check_matches_dense_reference(n_max, k0, seed, keep, cancel):
    # Random complex rungs with a share of the amplitudes zeroed, so some
    # sectors are empty; with cancel the one-photon paths cancel in the vacuum.
    rng = np.random.default_rng(seed)
    state = [
        (rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)) * (rng.uniform(size=k + 1) < keep)
        for k in range(n_max + 1)
    ]
    if cancel:
        state[1][1] = -state[1][0]
    report = absorption_matrix_element_check(state, k0=k0)
    lowered = _dense_lowering(state, k0)
    magnitudes = np.abs(lowered)
    others = magnitudes.copy()
    others[0, 0] = 0.0
    scale = max(magnitudes.max(), 1e-300)
    assert report.n_max == n_max
    assert abs(report.vacuum_amplitude - lowered[0, 0]) <= 1e-14 * scale
    assert abs(report.largest_other - others.max()) <= 1e-14 * scale
    assert report.nonzero_count == int((magnitudes > 1e-12).sum())
    assert report.amplitude_vanishes == (abs(lowered[0, 0]) <= 1e-12)
    if keep == 1.0:
        assert report.amplitude_vanishes == cancel


@pytest.mark.parametrize(
    "t,k_max,problem",
    [(1e300, 3.0, "|eta|^2"), (3e153, 3.0, "|eta|^2"), (1e153, 1e100, "the resonance phase E t / 2")],
)
def test_exposure_that_overflows_is_named(t, k_max, problem):
    # t = 1e300 used to overflow |eta|^2 in the CLI and then svgplot's ticks.
    with pytest.raises(ValueError) as exc:
        eta(DetectorAtomConfig(), np.linspace(0.0, k_max, 5), t)
    assert str(exc.value) == f"exposure time {t:g} overflows {problem}"
