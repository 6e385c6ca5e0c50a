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

HYDROGEN = DetectorAtomConfig.hydrogen()


def test_hydrogen_preset():
    assert HYDROGEN.bohr_radius == 1.0
    assert HYDROGEN.reduced_mass == 1.0
    assert HYDROGEN.binding_energy == -0.5
    assert np.abs(HYDROGEN.charge**2 - 4.0 * math.pi) < 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        DetectorAtomConfig(0.0, 1.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        DetectorAtomConfig(1.0, 1.0, -1.0, -0.5)
    with pytest.raises(ValueError):
        DetectorAtomConfig(1.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        DetectorAtomConfig(1.0, 1.0, 1.0, -0.5, k0=0.0)


@given(
    name=st.sampled_from(
        ["bohr_radius", "reduced_mass", "charge", "binding_energy", "k0", "phi", "volume"]
    ),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
)
@example(name="bohr_radius", value=math.nan)
@example(name="k0", value=math.inf)
@example(name="binding_energy", value=math.nan)
def test_nonfinite_config_rejected(name, value):
    kwargs = dict(bohr_radius=1.0, reduced_mass=1.0, charge=1.0, binding_energy=-0.5)
    kwargs[name] = value
    with pytest.raises(ValueError):
        DetectorAtomConfig(**kwargs)


def test_energy_mismatch_values():
    assert np.abs(energy_mismatch(HYDROGEN, 1.0)) < 1e-15
    assert np.abs(energy_mismatch(HYDROGEN, 0.0) + 0.5) < 1e-15


def test_resonant_wavenumber():
    assert np.abs(resonant_wavenumber(HYDROGEN) - 1.0) < 1e-15
    starved = DetectorAtomConfig.hydrogen(k0=0.4)
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
    vals = form_factor(HYDROGEN, k)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_overlap_factor_magnitudes():
    assert np.abs(np.abs(mode_overlap_factor(HYDROGEN)) - 1.0) < 1e-15
    dark = DetectorAtomConfig.hydrogen(phi=math.pi / 2.0)
    assert np.abs(mode_overlap_factor(dark)) < 1e-15
    bright = DetectorAtomConfig.hydrogen(phi=-math.pi / 2.0)
    assert np.abs(np.abs(mode_overlap_factor(bright)) - math.sqrt(2.0)) < 1e-15


def test_split_state_normalized():
    for phi in (0.0, 1.1, math.pi):
        state = split_photon_state(phi)
        assert np.abs(state.norm() - 1.0) < 1e-15
    with pytest.raises(ValueError):
        split_photon_state(0.0, n_max=0)


def test_selection_rule_vacuum_only():
    for phi in (0.0, 1.1, 2.0 * math.pi / 3.0):
        report = absorption_matrix_element_check(split_photon_state(phi))
        expected = (1j - np.exp(1j * phi)) / math.sqrt(2.0)
        assert np.abs(report.vacuum_amplitude - expected) < 1e-12
        assert report.largest_other == 0.0
        assert report.nonzero_count == 1
        assert not report.amplitude_vanishes


def test_selection_rule_independent_of_cutoff():
    reference = absorption_matrix_element_check(split_photon_state(0.7, n_max=1))
    for n_max in (3, 8):
        report = absorption_matrix_element_check(split_photon_state(0.7, n_max=n_max))
        assert np.abs(report.vacuum_amplitude - reference.vacuum_amplitude) < 1e-15
        assert report.largest_other == 0.0
        assert report.nonzero_count == 1


def test_selection_rule_dark_fringe():
    report = absorption_matrix_element_check(split_photon_state(math.pi / 2.0))
    assert report.amplitude_vanishes
    assert report.nonzero_count == 0
    assert report.largest_other == 0.0


def test_selection_rule_wavenumber_scaling():
    base = absorption_matrix_element_check(split_photon_state(0.3), k0=1.0)
    quartered = absorption_matrix_element_check(split_photon_state(0.3), k0=4.0)
    assert np.abs(quartered.vacuum_amplitude - base.vacuum_amplitude / 2.0) < 1e-15
    with pytest.raises(ValueError):
        absorption_matrix_element_check(split_photon_state(0.3), k0=0.0)
