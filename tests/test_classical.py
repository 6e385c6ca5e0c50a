"""Semiclassical intensity model: the coincidence ratio never dips below one."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gralab.classical import (
    GateIntensityEnsemble,
    ZeroMeanIntensity,
    classical_alpha,
    coincidence_probability,
    singles_probabilities,
)


def _ensemble(intensities, gate=1.0, eff_t=0.1, eff_r=0.1):
    return GateIntensityEnsemble(
        intensities=np.asarray(intensities, dtype=float),
        gate_duration=gate,
        alpha_t=eff_t,
        alpha_r=eff_r,
    )


def test_constant_intensity_alpha_exactly_one():
    assert classical_alpha(_ensemble(np.full(100, 2.7))) == 1.0


def test_two_point_alpha_two():
    assert np.abs(classical_alpha(_ensemble([0.0, 2.0])) - 2.0) < 1e-12


def test_probability_formulas():
    ens = _ensemble([1.0, 3.0], gate=0.1, eff_t=0.2, eff_r=0.3)
    p_t, p_r = singles_probabilities(ens)
    assert np.abs(p_t - 0.2 * 0.1 * 2.0) < 1e-15
    assert np.abs(p_r - 0.3 * 0.1 * 2.0) < 1e-15
    assert np.abs(coincidence_probability(ens) - 0.2 * 0.3 * 0.01 * 5.0) < 1e-15


def test_alpha_never_below_one():
    rng = np.random.default_rng(29)
    for _ in range(200):
        kind = rng.integers(0, 4)
        n = int(rng.integers(2, 200))
        if kind == 0:
            intensities = rng.uniform(0.0, 2.0, n)
        elif kind == 1:
            intensities = rng.exponential(1.0, n)
        elif kind == 2:
            intensities = rng.lognormal(0.0, 1.0, n)
        else:
            intensities = np.full(n, rng.uniform(0.1, 5.0))
        assert classical_alpha(_ensemble(intensities, eff_t=0.01, eff_r=0.01)) >= 1.0 - 1e-12


def test_coincidence_at_least_product_of_singles():
    rng = np.random.default_rng(31)
    for _ in range(50):
        ens = _ensemble(rng.exponential(1.0, 50), gate=0.1, eff_t=0.05, eff_r=0.05)
        p_t, p_r = singles_probabilities(ens)
        assert coincidence_probability(ens) >= p_t * p_r - 1e-15


def test_exponential_intensity_close_to_two():
    rng = np.random.default_rng(37)
    ens = _ensemble(rng.exponential(1.0, 40000), eff_t=0.01, eff_r=0.01)
    assert np.abs(classical_alpha(ens) - 2.0) < 0.15


def test_inadmissible_probabilities_are_flagged_without_a_warning():
    # The flag is the one report: a UserWarning as well ended
    # `python -W error -m gralab.cli classical --scale 100` in a traceback.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ens = _ensemble(np.array([50.0, 150.0]), gate=1.0, eff_t=0.5, eff_r=0.5)
    assert ens.admissible is False
    assert classical_alpha(ens) >= 1.0


def test_admissible_ensemble_quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ens = _ensemble([0.5, 1.5])
    assert ens.admissible


def test_zero_mean_raises():
    with pytest.raises(ZeroMeanIntensity):
        _ensemble(np.zeros(10))


def test_invalid_inputs():
    with pytest.raises(ValueError):
        _ensemble([-1.0, 2.0])
    with pytest.raises(ValueError):
        _ensemble([])
    with pytest.raises(ValueError):
        _ensemble([1.0], gate=0.0)
    with pytest.raises(ValueError):
        _ensemble([1.0], eff_t=-0.1)


NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(
    values=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=16),
    index=st.integers(0, 15),
    value=NONFINITE,
)
@example(values=[1.0, 2.0], index=0, value=math.nan)
@example(values=[1.0, 2.0], index=1, value=math.inf)
def test_nonfinite_intensity_rejected(values, index, value):
    values[index % len(values)] = value
    with pytest.raises(ValueError):
        _ensemble(values)


@given(name=st.sampled_from(["gate", "eff_t", "eff_r"]), value=NONFINITE)
@example(name="gate", value=math.nan)
def test_nonfinite_gate_or_coefficient_rejected(name, value):
    with pytest.raises(ValueError):
        _ensemble([1.0, 2.0], **{name: value})


@pytest.mark.parametrize(
    "settings", [{"gate": 1e300}, {"eff_t": 1e300, "eff_r": 1e300}], ids=["gate", "coefficients"]
)
def test_overflowing_probabilities_rejected(settings):
    # w**2 used to raise OverflowError; an infinite probability is now named.
    with pytest.raises(ValueError, match="count probabilities overflow at gate duration"):
        _ensemble([1.0, 2.0], **settings)


@pytest.mark.parametrize(
    "intensities", [[1e300], [0.0, 1e160], [1e153] * 10_000], ids=["square", "peak", "sum"]
)
def test_overflowing_second_moment_rejected_before_squaring(intensities):
    # intensities**2 used to overflow with numpy's RuntimeWarning, and the error
    # then blamed the gate and coefficients.  1e153 squares to a finite 1e306,
    # but 10,000 of those overflow the sum behind the mean.
    with pytest.raises(ValueError, match="intensity scale overflows the second moment"):
        _ensemble(intensities)
