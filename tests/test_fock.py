"""Splitter statistics: closed forms against the rung-vector oracle, and the
oracle against a dense creation-matrix reference."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gralab.fock import (
    BeamSplitter,
    ChaoticState,
    CoherentState,
    DegenerateState,
    NumberState,
    TruncationError,
    _rungs,
    default_cutoff,
    expect_coincidence,
    expect_reflected,
    expect_transmitted,
    g2,
    oracle_g2,
    oracle_moments,
    photon_weights,
    poisson_weights,
)

BALANCED = BeamSplitter()


def creation_matrix(n_max: int) -> np.ndarray:
    """Test-only dense reference: the creation operator on |0> .. |n_max>,
    with raising out of the top level truncated to zero."""
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1.0)), -1)


def _rung(n, bs):
    """Rung n of the oracle: amplitude j on |n-j>_t |j>_r."""
    *_, rung = _rungs(bs, n)
    return rung.copy()


def test_balanced_splitter():
    assert np.abs(BALANCED.t**2 - 0.5) < 1e-15
    assert np.abs(BALANCED.t**2 + BALANCED.r**2 - 1.0) < 1e-15


def test_from_transmittance():
    bs = BeamSplitter.from_transmittance(0.3)
    assert np.abs(bs.t**2 - 0.3) < 1e-15
    assert np.abs(bs.r**2 - 0.7) < 1e-15


def test_splitter_validation():
    with pytest.raises(ValueError):
        BeamSplitter(t=0.9, r=0.9)
    with pytest.raises(ValueError):
        BeamSplitter(t=1.2, r=0.0)
    with pytest.raises(ValueError):
        BeamSplitter.from_transmittance(1.5)


NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(part=st.sampled_from([1.0, 1j]), value=NONFINITE)
@example(part=1.0, value=math.nan)
@example(part=1j, value=math.inf)
def test_coherent_state_rejects_nonfinite_amplitude(part, value):
    with pytest.raises(ValueError, match="finite"):
        CoherentState(0.5 + part * value)


@given(value=NONFINITE)
@example(value=math.nan)
@example(value=math.inf)
def test_splitter_rejects_nonfinite_reflection_phase(value):
    with pytest.raises(ValueError, match="finite"):
        BeamSplitter(reflection_phase=value)


def test_state_validation():
    with pytest.raises(ValueError):
        NumberState(-1)
    with pytest.raises(ValueError):
        ChaoticState(0.0)
    with pytest.raises(ValueError):
        ChaoticState(1.0)


def test_chaotic_from_temperature_ratio():
    state = ChaoticState.from_temperature_ratio(1.5)
    assert np.abs(state.u - math.exp(-1.5)) < 1e-15
    assert np.abs(state.mean_photons - state.u / (1.0 - state.u)) < 1e-15


def test_single_photon_g2_exactly_zero():
    assert g2(NumberState(1), BALANCED) == 0.0


def test_number_state_closed_form():
    for n in range(2, 21):
        assert np.abs(g2(NumberState(n), BALANCED) - (n - 1) / n) < 1e-12


def test_coherent_and_chaotic_closed_forms():
    rng = np.random.default_rng(7)
    for _ in range(50):
        alpha = rng.uniform(0.2, 2.5) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        assert np.abs(g2(CoherentState(alpha), BALANCED) - 1.0) < 1e-12
        assert np.abs(g2(ChaoticState(rng.uniform(0.05, 0.95)), BALANCED) - 2.0) < 1e-12


def test_g2_independent_of_splitter():
    rng = np.random.default_rng(11)
    for _ in range(25):
        bs = BeamSplitter.from_transmittance(rng.uniform(0.05, 0.95))
        assert np.abs(g2(NumberState(4), bs) - 0.75) < 1e-12
        assert np.abs(g2(ChaoticState(0.3), bs) - 2.0) < 1e-12


def test_degenerate_inputs():
    with pytest.raises(DegenerateState):
        g2(NumberState(0), BALANCED)
    with pytest.raises(DegenerateState):
        g2(NumberState(2), BeamSplitter(t=0.0, r=1.0))
    with pytest.raises(DegenerateState):
        g2(NumberState(2), BeamSplitter(t=1.0, r=0.0))


def test_arm_expectations_sum_to_mean():
    rng = np.random.default_rng(13)
    states = [NumberState(3), CoherentState(1.3 + 0.4j), ChaoticState(0.6)]
    for _ in range(20):
        bs = BeamSplitter.from_transmittance(rng.uniform(0.0, 1.0))
        for state in states:
            total = expect_transmitted(state, bs) + expect_reflected(state, bs)
            assert np.abs(total - state.mean_photons) < 1e-9


def test_coincidence_closed_forms():
    bs = BeamSplitter.from_transmittance(0.3)
    scale = 0.3 * 0.7
    assert np.abs(expect_coincidence(NumberState(5), bs) - scale * 20.0) < 1e-12
    assert np.abs(expect_coincidence(CoherentState(1.2), bs) - scale * 1.2**4) < 1e-12
    u = 0.4
    assert np.abs(expect_coincidence(ChaoticState(u), bs) - scale * 2.0 * u**2 / 0.36) < 1e-12


def test_creation_matrix_entries():
    create = creation_matrix(3)
    vec = np.zeros(4)
    vec[1] = 1.0
    raised = create @ vec
    assert np.abs(raised[2] - math.sqrt(2.0)) < 1e-15
    assert np.abs(raised).sum() - math.sqrt(2.0) < 1e-15


def test_single_photon_amplitudes():
    rung = _rung(1, BALANCED)
    assert np.abs(rung[0] - BALANCED.t) < 1e-15
    assert np.abs(rung[1] - 1j * BALANCED.r) < 1e-15


def test_two_photon_amplitudes():
    # (t bt+ + i r br+)^2 / sqrt(2) on the vacuum, balanced splitter:
    # amplitudes t^2, i sqrt(2) t r, -r^2 on |2,0>, |1,1>, |0,2>.
    rung = _rung(2, BALANCED)
    assert np.abs(rung[0] - 0.5) < 1e-15
    assert np.abs(rung[1] - 1j / math.sqrt(2.0)) < 1e-15
    assert np.abs(rung[2] + 0.5) < 1e-15
    assert np.abs(np.linalg.norm(rung) - 1.0) < 1e-10


def _grid_moments(psi):
    """(<n_t>, <n_r>, <n_t n_r>) of a dense grid psi[i, j] on |i>_t |j>_r."""
    n = np.arange(float(len(psi)))
    prob = np.abs(psi) ** 2
    return n @ prob.sum(axis=1), n @ prob.sum(axis=0), n @ prob @ n


def test_rungs_conserve_photon_number():
    rng = np.random.default_rng(17)
    # n! overflows a float from n = 171 on; the normalized ladder never forms it.
    for n in (1, 2, 5, 9, 171):
        bs = BeamSplitter.from_transmittance(rng.uniform(0.1, 0.9))
        prob = np.abs(_rung(n, bs)) ** 2
        j = np.arange(n + 1.0)
        assert np.abs(prob.sum() - 1.0) < 1e-10
        # Each photon is reflected independently: the r arm holds n r^2 on average.
        assert np.abs(j @ prob - n * bs.r**2) < 1e-9 * n


def test_mixture_weights_keep_tail():
    n_max, weights, tail = photon_weights(ChaoticState(0.5))
    assert n_max == default_cutoff(ChaoticState(0.5))
    assert len(weights) == n_max + 1
    assert np.abs(weights.sum() + tail - 1.0) < 1e-14
    assert tail <= 1e-12


def test_oracle_cutoff_too_small():
    with pytest.raises(TruncationError):
        oracle_moments(ChaoticState(0.7), BALANCED, n_max=10)
    with pytest.raises(TruncationError):
        oracle_moments(CoherentState(2.0), BALANCED, n_max=6)


def test_number_state_above_cutoff():
    with pytest.raises(TruncationError):
        photon_weights(NumberState(3), n_max=2)
    with pytest.raises(TruncationError):
        oracle_g2(NumberState(3), BALANCED, n_max=2)


def _dense_ladder(bs, n_max, n):
    """Test-only reference: the splitter outputs of |0> .. |n> as dense
    (n_max+1)^2 grids, each rung one creation-matrix product per arm."""
    create = creation_matrix(n_max)
    into_r = np.exp(1j * bs.reflection_phase) * bs.r
    psi = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    psi[0, 0] = 1.0
    yield psi
    for k in range(1, n + 1):
        norm = 1.0 / math.sqrt(k)
        psi = (bs.t * norm) * (create @ psi) + (into_r * norm) * (psi @ create.T)
        yield psi


def _dense_moments(state, bs, n_max):
    """(<n_t>, <n_r>, <n_t n_r>) of the dense reference, weighted per rung."""
    n_max, weights, _ = photon_weights(state, n_max)
    moments = np.zeros(3)
    for weight, psi in zip(weights, _dense_ladder(bs, n_max, n_max)):
        moments += weight * np.array(_grid_moments(psi))
    return moments


STATES = st.one_of(
    st.integers(0, 24).map(NumberState),
    st.floats(0.1, 2.0).flatmap(
        lambda amp: st.floats(0.0, 2.0 * math.pi).map(
            lambda arg: CoherentState(amp * complex(math.cos(arg), math.sin(arg)))
        )
    ),
    st.floats(0.05, 0.45).map(ChaoticState),
)


@settings(deadline=None)
@given(
    state=STATES,
    headroom=st.integers(0, 6),
    t2=st.floats(0.0, 1.0),
    phase=st.floats(-2.0 * math.pi, 2.0 * math.pi),
)
@example(state=NumberState(1), headroom=0, t2=0.5, phase=math.pi / 2.0)
@example(state=NumberState(7), headroom=5, t2=0.3, phase=1.0)
@example(state=ChaoticState(0.45), headroom=0, t2=0.9, phase=-2.0)
def test_oracle_matches_dense_reference(state, headroom, t2, phase):
    bs = BeamSplitter(t=math.sqrt(t2), r=math.sqrt(1.0 - t2), reflection_phase=phase)
    n_max = default_cutoff(state) + headroom
    if isinstance(state, NumberState):
        *_, psi = _dense_ladder(bs, n_max, state.n)
        grid = np.zeros_like(psi)
        j = np.arange(state.n + 1)
        grid[state.n - j, j] = _rung(state.n, bs)
        assert np.max(np.abs(grid - psi)) < 1e-12
    moments = oracle_moments(state, bs, n_max=n_max)
    reference = _dense_moments(state, bs, n_max)
    assert np.all(np.abs(np.array(moments) - reference) <= 1e-12 * np.maximum(1.0, reference))


def _exact_poisson(mean, n_max):
    """Poisson weights of 0 .. n_max and the sum of the terms beyond n_max,
    in 60-digit decimal arithmetic from the binary value of the mean."""
    with localcontext() as ctx:
        ctx.prec = 60
        m = Decimal(mean)
        term = (-m).exp()
        weights = [term]
        for n in range(1, n_max + 1):
            term = term * m / n
            weights.append(term)
        tail, n = Decimal(0), n_max
        while True:
            n += 1
            term = term * m / n
            tail += term
            if n > 2 * mean and term < tail * Decimal("1e-30"):
                return weights, tail


@pytest.mark.parametrize("alpha", [0.7, 2.0, 3.0, math.sqrt(50.0)])
def test_poisson_weights_match_exact_reference(alpha):
    state = CoherentState(alpha)
    mean, n_max = state.mean_photons, default_cutoff(state)
    weights, tail = poisson_weights(mean, n_max)
    exact, exact_tail = _exact_poisson(mean, n_max)
    assert len(weights) == n_max + 1
    for w, ref in zip(weights, exact):
        assert abs(Decimal(float(w)) - ref) <= Decimal("1e-12") * ref
    assert abs(Decimal(tail) - exact_tail) <= Decimal("1e-12") * exact_tail
    assert tail <= 1e-12


def test_poisson_weights_large_mean_finite():
    # e^-mean mean^n / n! taken directly overflows for n > 77 here.
    state = CoherentState(100.0)
    mean, n_max = state.mean_photons, default_cutoff(state)
    weights, tail = poisson_weights(mean, n_max)
    assert np.all(np.isfinite(weights))
    assert np.abs(math.fsum(weights) - (1.0 - tail)) < 1e-12
    exact, _ = _exact_poisson(mean, n_max)
    for w, ref in zip(weights, exact):
        if ref > Decimal("1e-250"):
            assert abs(Decimal(float(w)) - ref) <= Decimal("1e-12") * ref


def test_poisson_weights_edges():
    weights, tail = poisson_weights(0.0, 3)
    assert weights.tolist() == [1.0, 0.0, 0.0, 0.0] and tail == 0.0
    weights, tail = poisson_weights(1.0e6, 5)
    assert weights.tolist() == [0.0] * 6 and tail == 1.0
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            poisson_weights(bad, 5)


def test_default_cutoff_meets_tolerance():
    assert default_cutoff(NumberState(4)) == 4
    assert 0.5 ** (default_cutoff(ChaoticState(0.5)) + 1) <= 1e-12


def test_oracle_matches_closed_forms():
    rng = np.random.default_rng(19)
    for n in range(1, 7):
        bs = BeamSplitter.from_transmittance(rng.uniform(0.2, 0.8))
        assert np.abs(oracle_g2(NumberState(n), bs) - g2(NumberState(n), bs)) < 1e-8
    for _ in range(4):
        alpha = rng.uniform(0.3, 1.5) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        assert np.abs(oracle_g2(CoherentState(alpha), BALANCED) - 1.0) < 1e-8
        assert np.abs(oracle_g2(ChaoticState(rng.uniform(0.1, 0.5)), BALANCED) - 2.0) < 1e-8
    # Past n = 170, where n! overflows a float.
    assert np.abs(oracle_g2(NumberState(171)) - 170.0 / 171.0) < 1e-12


def test_oracle_independent_of_reflection_phase():
    rng = np.random.default_rng(23)
    for _ in range(3):
        phase = rng.uniform(0.0, 2.0 * math.pi)
        bs = BeamSplitter(reflection_phase=phase)
        assert np.abs(oracle_g2(NumberState(3), bs) - oracle_g2(NumberState(3), BALANCED)) < 1e-12
        assert (
            np.abs(oracle_g2(ChaoticState(0.4), bs) - oracle_g2(ChaoticState(0.4), BALANCED))
            < 1e-12
        )


def test_oracle_degenerate_vacuum():
    with pytest.raises(DegenerateState):
        oracle_g2(NumberState(0), BALANCED)
