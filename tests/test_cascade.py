"""Gated-cascade Monte Carlo against its closed-form counting model."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gralab.cascade import (
    CascadeConfig,
    ConfigError,
    CountRecord,
    InsufficientCounts,
    alpha_stderr,
    correlation_for_f,
    exact_alpha,
    f_omega,
    g2_analytic,
    gate_probabilities,
    measured_alpha,
    simulate,
    sweep_curve,
)
from gralab.fock import BeamSplitter

F_BASE = 1.0 - math.exp(-2.0)


def _config(**kwargs) -> CascadeConfig:
    defaults = dict(decay_rate=0.1 / 9.4e-9, target_gates=20000, rng_seed=1)
    defaults.update(kwargs)
    return CascadeConfig(**defaults)


def test_default_gate_is_twice_lifetime():
    cfg = _config()
    assert np.abs(cfg.gate - 2.0 * cfg.lifetime) < 1e-24
    assert np.abs(f_omega(cfg) - F_BASE) < 1e-12


def test_correlation_for_f_round_trip():
    a = correlation_for_f(0.9)
    assert np.abs(f_omega(_config(correlation_factor=a)) - 0.9) < 1e-12
    with pytest.raises(ConfigError):
        correlation_for_f(0.5)


def test_analytic_curve_fixed_values():
    assert g2_analytic(0.0, 0.9) == 0.0
    assert np.abs(g2_analytic(0.9, 0.9) - 0.75) < 1e-15
    # hand-computed 0.0181 / 0.8281
    assert np.abs(g2_analytic(0.01, 0.9) - 181.0 / 8281.0) < 1e-15
    assert np.abs(g2_analytic(1e6, 0.9) - 1.0) < 1e-11


def test_analytic_curve_monotone():
    f = 0.9
    values = [g2_analytic(x, f) for x in np.linspace(0.0, 10.0, 200)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_analytic_validation():
    with pytest.raises(ValueError):
        g2_analytic(-0.1, 0.9)
    with pytest.raises(ValueError):
        g2_analytic(0.1, 0.0)
    with pytest.raises(ValueError):
        g2_analytic(0.1, 1.2)


def test_config_validation():
    with pytest.raises(ConfigError):
        _config(decay_rate=0.0)
    with pytest.raises(ConfigError):
        _config(correlation_factor=0.5)
    with pytest.raises(ConfigError):
        _config(correlation_factor=10.0)
    with pytest.raises(ConfigError):
        _config(epsilon_t=1.5)
    with pytest.raises(ConfigError):
        _config(arrival_mode="exact")
    with pytest.raises(ConfigError):
        _config(target_gates=None)
    with pytest.raises(ConfigError):
        _config(run_time=1.0)
    with pytest.raises(ConfigError):
        CascadeConfig(decay_rate=1e6, epsilon_1=0.1, run_time=1e-6)
    with pytest.raises(ConfigError):
        _config(target_gates=0)


@given(
    name=st.sampled_from(["decay_rate", "lifetime", "gate", "correlation_factor", "run_time"]),
    value=st.one_of(st.just(math.nan), st.just(math.inf), st.floats(max_value=0.0)),
)
def test_nonfinite_or_nonpositive_inputs_raise_config_error(name, value):
    kwargs = {name: value}
    if name == "run_time":
        kwargs["target_gates"] = None
    with pytest.raises(ConfigError):
        _config(**kwargs)


@given(n_omega=st.sampled_from([math.nan, math.inf, -math.inf, -0.1]))
@example(n_omega=math.nan)
@example(n_omega=math.inf)
def test_g2_analytic_rejects_nonfinite_or_negative_rate(n_omega):
    with pytest.raises(ValueError, match="Nw"):
        g2_analytic(n_omega, 0.9)


def test_simulation_deterministic():
    cfg = _config(rng_seed=42)
    assert simulate(cfg) == simulate(cfg)


def test_record_invariants_hold():
    rec = simulate(_config(decay_rate=0.9 / 9.4e-9, rng_seed=5))
    assert rec.total_gates == rec.n1_counts == 20000
    assert rec.nc_counts <= min(rec.nt_counts, rec.nr_counts)
    assert rec.trigger_arrivals <= rec.total_gates
    assert rec.elapsed_sim_time > 0.0


def test_record_validation():
    with pytest.raises(ValueError):
        CountRecord(10, 5, 5, 6, 10, 8, 1.0)
    with pytest.raises(ValueError):
        CountRecord(10, 5, 5, 2, 9, 8, 1.0)
    with pytest.raises(ValueError):
        CountRecord(10, 11, 5, 2, 10, 8, 1.0)


def test_dark_detector_gives_no_counts():
    rec = simulate(_config(epsilon_t=0.0))
    assert rec.nt_counts == 0 and rec.nc_counts == 0
    with pytest.raises(InsufficientCounts):
        measured_alpha(rec)


def test_isolated_gates_have_no_coincidences():
    rec = simulate(_config(decay_rate=1e6, accidental_collection=0.0, target_gates=50000))
    assert rec.nc_counts == 0
    assert measured_alpha(rec) == 0.0


def test_indicator_probabilities_match_closed_form():
    # Independent derivation: the trigger photon lands in an arm with
    # probability f eta, accidentals thin a Poisson of mean Nw, and the
    # per-gate indicator probabilities follow by inclusion-exclusion.
    n_omega, gates = 0.3, 200000
    a = correlation_for_f(0.9)
    cfg = _config(
        decay_rate=n_omega / 9.4e-9, correlation_factor=a, target_gates=gates, rng_seed=8
    )
    rec = simulate(cfg)
    f = 0.9
    eta = 0.5 * cfg.epsilon_t
    p_t = 1.0 - (1.0 - f * eta) * math.exp(-n_omega * eta)
    p_c = (
        1.0
        - 2.0 * (1.0 - f * eta) * math.exp(-n_omega * eta)
        + (1.0 - 2.0 * f * eta) * math.exp(-2.0 * n_omega * eta)
    )
    for observed, expected in ((rec.nt_counts, p_t), (rec.nr_counts, p_t), (rec.nc_counts, p_c)):
        se = math.sqrt(expected * (1.0 - expected) / gates)
        assert np.abs(observed / gates - expected) < 4.0 * se


def test_physical_arrival_fraction():
    rec = simulate(_config(decay_rate=1e6, arrival_mode="physical", target_gates=100000))
    se = math.sqrt(F_BASE * (1.0 - F_BASE) / 100000)
    assert np.abs(rec.trigger_arrivals / 100000 - F_BASE) < 4.0 * se


def test_physical_arrival_fraction_boosted():
    a = correlation_for_f(0.95)
    rec = simulate(
        _config(decay_rate=1e6, correlation_factor=a, arrival_mode="physical", target_gates=100000)
    )
    se = math.sqrt(0.95 * 0.05 / 100000)
    assert np.abs(rec.trigger_arrivals / 100000 - 0.95) < 4.0 * se


def test_physical_and_analytic_modes_agree():
    a = correlation_for_f(0.9)
    expected = g2_analytic(0.9, 0.9)
    for mode in ("analytic", "physical"):
        cfg = _config(
            decay_rate=0.9 / 9.4e-9,
            correlation_factor=a,
            arrival_mode=mode,
            target_gates=200000,
            rng_seed=12,
        )
        rec = simulate(cfg)
        assert np.abs(measured_alpha(rec) - expected) < 4.0 * alpha_stderr(rec)


def test_measured_alpha_arithmetic():
    rec = CountRecord(1000, 100, 200, 30, 1000, 900, 1.0)
    assert np.abs(measured_alpha(rec) - 1.5) < 1e-15


def test_alpha_stderr_scales_with_gates():
    rec = CountRecord(1000, 100, 200, 30, 1000, 900, 1.0)
    rec4 = CountRecord(4000, 400, 800, 120, 4000, 3600, 4.0)
    assert alpha_stderr(rec) > 0.0
    assert np.abs(alpha_stderr(rec4) / alpha_stderr(rec) - 0.5) < 1e-12


def test_alpha_stderr_zero_coincidences_finite():
    rec = CountRecord(1000, 100, 200, 0, 1000, 900, 1.0)
    assert measured_alpha(rec) == 0.0
    assert alpha_stderr(rec) > 0.0


def test_splitter_asymmetry_shifts_counts():
    cfg = _config(bs=BeamSplitter.from_transmittance(0.8), decay_rate=0.9 / 9.4e-9)
    rec = simulate(cfg)
    assert rec.nt_counts > 2 * rec.nr_counts


def test_sweep_deterministic_with_exact_zero_point():
    template = _config(target_gates=20000, rng_seed=3)
    points = sweep_curve(template, [0.0, 0.1, 0.9])
    again = sweep_curve(template, [0.0, 0.1, 0.9])
    assert [p.alpha_mc for p in points] == [p.alpha_mc for p in again]
    assert points[0].alpha_mc == 0.0
    assert points[0].alpha_analytic == 0.0
    f = f_omega(template)
    for p in points:
        assert np.abs(p.alpha_analytic - g2_analytic(p.n_omega, f)) < 1e-15
        assert p.gates == 20000


def test_sweep_rejects_negative_points():
    with pytest.raises(ConfigError):
        sweep_curve(_config(), [-0.1])


def test_run_time_mode():
    cfg = CascadeConfig(decay_rate=1e7, epsilon_1=0.1, run_time=5e-3, rng_seed=2)
    rec = simulate(cfg)
    assert rec.total_gates > 0
    assert rec.elapsed_sim_time <= 5e-3
    # expected gate spacing 1 us, so thousands of gates fit
    assert rec.total_gates > 3000
    assert simulate(cfg) == rec


# ------------------------------------------ exact finite-efficiency reference

K_SIGMA = 5.0


def _reference_counts(cfg: CascadeConfig, rng: np.random.Generator) -> tuple[int, int, int, int]:
    """(nt, nr, nc, arrivals) from a per-photon sampler that never uses the
    per-arm Poisson split: a Poisson count of accidentals, collection
    thinning, then each photon routed whole to t, r or loss."""
    g = cfg.target_gates
    f = f_omega(cfg)
    if cfg.arrival_mode == "analytic":
        arrived = rng.random(g) < f
    else:
        p_short = 1.0 - math.exp(-cfg.gate / cfg.lifetime)
        arrived = rng.exponential(cfg.lifetime, g) < cfg.gate
        arrived |= rng.random(g) < (f - p_short) / (1.0 - p_short)
    photons = arrived + rng.binomial(rng.poisson(cfg.decay_rate * cfg.gate, g), cfg.accidental_collection)
    p_t, p_r = cfg.bs.t**2 * cfg.epsilon_t, cfg.bs.r**2 * cfg.epsilon_r
    d_t = rng.binomial(photons, p_t)
    d_r = rng.binomial(photons - d_t, p_r / (1.0 - p_t))
    hit_t, hit_r = d_t > 0, d_r > 0
    return int(hit_t.sum()), int(hit_r.sum()), int((hit_t & hit_r).sum()), int(arrived.sum())


# (Nw, arrival mode, f, t^2, accidental collection); Nw = 0 switches collection off.
REFERENCE_POINTS = [
    (0.0, "analytic", 0.9, 0.5, 0.0),
    (0.0, "physical", F_BASE, 0.8, 0.0),
    (0.3, "analytic", F_BASE, 0.8, 1.0),
    (0.3, "physical", 0.95, 0.5, 0.5),
    (3.0, "analytic", 0.9, 0.8, 0.5),
    (3.0, "physical", 0.9, 0.8, 1.0),
]


def _point_config(n_omega, mode, f, t2, collection, gates, seed, eps_t=0.3, eps_r=0.2):
    return _config(
        decay_rate=(n_omega or 1.0) / 9.4e-9,
        correlation_factor=correlation_for_f(f) if f > F_BASE else 1.0,
        epsilon_t=eps_t,
        epsilon_r=eps_r,
        bs=BeamSplitter.from_transmittance(t2),
        accidental_collection=collection,
        arrival_mode=mode,
        target_gates=gates,
        rng_seed=seed,
    )


@pytest.mark.parametrize("n_omega,mode,f,t2,collection", REFERENCE_POINTS)
def test_simulate_matches_exact_probabilities_and_reference_sampler(n_omega, mode, f, t2, collection):
    gates = 300_000
    cfg = _point_config(n_omega, mode, f, t2, collection, gates, seed=17)
    rec = simulate(cfg)
    ref = _reference_counts(cfg, np.random.default_rng(23))
    big_t, big_r, big_c = gate_probabilities(cfg)
    observed = (rec.nt_counts, rec.nr_counts, rec.nc_counts, rec.trigger_arrivals)
    for got, other, p in zip(observed, ref, (big_t, big_r, big_c, f_omega(cfg))):
        sigma = math.sqrt(p * (1.0 - p) / gates)
        assert abs(got / gates - p) <= K_SIGMA * sigma
        assert abs(got - other) / gates <= K_SIGMA * math.sqrt(2.0) * sigma
    if n_omega == 0.0:
        assert rec.nc_counts == ref[2] == 0


def test_gate_probabilities_equal_no_count_factorization():
    # P_c evaluated without cancellation must equal 1 - q_t - q_r + q_0.
    cfg = _point_config(3.0, "analytic", 0.9, 0.8, 0.5, 1, seed=0)
    f, lam = 0.9, 3.0 * 0.5
    p_t, p_r = 0.8 * 0.3, 0.2 * 0.2
    q_t = (1.0 - f * p_t) * math.exp(-lam * p_t)
    q_r = (1.0 - f * p_r) * math.exp(-lam * p_r)
    q_0 = (1.0 - f * (p_t + p_r)) * math.exp(-lam * (p_t + p_r))
    expected = (1.0 - q_t, 1.0 - q_r, 1.0 - q_t - q_r + q_0)
    for got, want in zip(gate_probabilities(cfg), expected):
        assert abs(got - want) < 1e-14
    assert abs(exact_alpha(cfg) - expected[2] / (expected[0] * expected[1])) < 1e-12


@pytest.mark.parametrize("n_omega", [0.1, 0.9, 3.0])
def test_exact_alpha_converges_to_vanishing_efficiency_curve(n_omega):
    a = correlation_for_f(0.9)

    def gap(eps):
        cfg = _config(decay_rate=n_omega / 9.4e-9, correlation_factor=a, epsilon_t=eps, epsilon_r=eps)
        return abs(exact_alpha(cfg) / g2_analytic(n_omega, 0.9) - 1.0)

    # The leading correction is linear in the efficiency; P_c does not
    # cancel, so the linear law holds far below 1e-3 as well.
    assert 9.0 < gap(1e-2) / gap(1e-3) < 11.0
    assert 990.0 < gap(1e-3) / gap(1e-6) < 1010.0


def test_exact_alpha_zero_without_accidentals_and_undefined_for_dark_arm():
    assert exact_alpha(_config(accidental_collection=0.0)) == 0.0
    with pytest.raises(ConfigError):
        exact_alpha(_config(epsilon_r=0.0))


@pytest.mark.parametrize("n_omega,mode", [(0.3, "analytic"), (3.0, "physical")])
def test_alpha_stderr_calibrated_by_replication(n_omega, mode):
    # R = 200 seeded runs.  The spread of measured_alpha must match the
    # mean reported stderr within 15%, three times the 5% scatter of a
    # sample SD of 200 draws.  The z-scores against exact_alpha must have
    # mean within 0.25 of 0 (their own scatter is 0.07) and SD within 15%
    # of 1.
    runs = 200
    alphas, errors = [], []
    for seed in range(runs):
        rec = simulate(_point_config(n_omega, mode, 0.9, 0.5, 1.0, 20_000, seed, eps_t=0.2, eps_r=0.2))
        alphas.append(measured_alpha(rec))
        errors.append(alpha_stderr(rec))
    alphas, errors = np.array(alphas), np.array(errors)
    exact = exact_alpha(_point_config(n_omega, mode, 0.9, 0.5, 1.0, 1, 0, eps_t=0.2, eps_r=0.2))
    assert abs(np.std(alphas, ddof=1) / np.mean(errors) - 1.0) < 0.15
    z = (alphas - exact) / errors
    assert abs(np.mean(z)) < 0.25
    assert abs(np.std(z, ddof=1) - 1.0) < 0.15
