"""Gated-cascade Monte Carlo against its closed-form counting model."""

import json
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gralab.cascade import (
    NUMBER_KEYS,
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
    template_from,
)
from gralab import fock
from gralab.cli import main
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
    for f_target in (0.5, math.nan, math.inf):
        with pytest.raises(ConfigError, match="arrival probability"):
            correlation_for_f(f_target)
    # A zero lifetime used to divide by zero in the base probability.
    for lifetime, gate in ((0.0, None), (math.nan, None), (4.7e-9, -1e-9), (4.7e-9, math.inf)):
        with pytest.raises(ConfigError, match="lifetime and gate width"):
            correlation_for_f(0.9, lifetime=lifetime, gate=gate)
    # So did a gate short enough to round the base probability to zero.
    with pytest.raises(ConfigError, match="gate width too short"):
        correlation_for_f(0.9, gate=1e-300)


def test_analytic_curve_fixed_values():
    assert g2_analytic(0.0, 0.9) == 0.0
    assert np.abs(g2_analytic(0.9, 0.9) - 0.75) < 1e-15
    # hand-computed 0.0181 / 0.8281
    assert np.abs(g2_analytic(0.01, 0.9) - 181.0 / 8281.0) < 1e-15
    assert np.abs(g2_analytic(1e6, 0.9) - 1.0) < 1e-11


def test_analytic_curve_neither_overflows_nor_cancels():
    # (f + Nw)^2 used to overflow at huge Nw; the factored form stays at 1.
    assert g2_analytic(1e300, 0.9) == 1.0
    assert g2_analytic(sys.float_info.max, 1.0) == 1.0
    # At tiny Nw the ratio is 2 Nw / f to first order, with no cancellation.
    assert np.abs(g2_analytic(1e-300, 0.5) / 4e-300 - 1.0) < 1e-15


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


@pytest.mark.parametrize(
    "kwargs",
    [dict(epsilon_1=0.0), dict(epsilon_1=1e-320), dict(decay_rate=1e-300, epsilon_1=1e-10)],
    ids=["zero", "subnormal", "tiny rate"],
)
def test_infinite_mean_wait_raises_config_error(kwargs):
    # Under a target_gates stop nothing else rejects these: a zero gate rate
    # would divide by zero in simulate, the others give an infinite elapsed
    # time.
    with pytest.raises(ConfigError, match="epsilon_1"):
        _config(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        # Only the config is built: a NaN gate count that got through would
        # make simulate loop forever.
        dict(target_gates=math.nan),
        dict(target_gates=2.5),
        dict(target_gates=1000.0),
        dict(target_gates=True),
        dict(rng_seed=1.5),
        dict(rng_seed=True),
    ],
    ids=["nan gates", "2.5 gates", "float gates", "bool gates", "1.5 seed", "bool seed"],
)
def test_non_integer_gate_count_or_seed_raises_config_error(kwargs):
    with pytest.raises(ConfigError, match="integer"):
        _config(**kwargs)


def test_numpy_integer_gate_count_and_seed_are_accepted():
    cfg = _config(target_gates=np.int64(3000), rng_seed=np.uint32(4))
    rec = simulate(cfg)
    assert rec == simulate(_config(target_gates=3000, rng_seed=4))
    assert type(rec.total_gates) is int


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
    assert rec.elapsed_sim_time > 0.0


def test_record_validation():
    with pytest.raises(ValueError):
        CountRecord(10, 5, 5, 6, 10, 1.0)
    with pytest.raises(ValueError):
        CountRecord(10, 5, 5, 2, 9, 1.0)
    with pytest.raises(ValueError):
        CountRecord(10, 11, 5, 2, 10, 1.0)


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


def _every_gate_routed(**kwargs):
    """Both arms certain on a balanced splitter and no accidentals: every
    gate is routed to a counter, so (nt + nr) / gates is the arrival fraction."""
    return _config(
        epsilon_t=1.0, epsilon_r=1.0, bs=BeamSplitter(), accidental_collection=0.0, target_gates=100000, **kwargs
    )


def _counted_fraction(rec):
    return (rec.nt_counts + rec.nr_counts) / rec.total_gates


def test_physical_arrival_fraction():
    rec = simulate(_every_gate_routed(decay_rate=1e6, arrival_mode="physical"))
    se = math.sqrt(F_BASE * (1.0 - F_BASE) / 100000)
    assert np.abs(_counted_fraction(rec) - F_BASE) < 4.0 * se


def test_physical_arrival_fraction_boosted():
    a = correlation_for_f(0.95)
    rec = simulate(_every_gate_routed(decay_rate=1e6, correlation_factor=a, arrival_mode="physical"))
    se = math.sqrt(0.95 * 0.05 / 100000)
    assert np.abs(_counted_fraction(rec) - 0.95) < 4.0 * se


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
    rec = CountRecord(1000, 100, 200, 30, 1000, 1.0)
    assert np.abs(measured_alpha(rec) - 1.5) < 1e-15


def test_alpha_stderr_scales_with_gates():
    rec = CountRecord(1000, 100, 200, 30, 1000, 1.0)
    rec4 = CountRecord(4000, 400, 800, 120, 4000, 4.0)
    assert alpha_stderr(rec) > 0.0
    assert np.abs(alpha_stderr(rec4) / alpha_stderr(rec) - 0.5) < 1e-12


def test_alpha_stderr_zero_coincidences_finite():
    rec = CountRecord(1000, 100, 200, 0, 1000, 1.0)
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


def test_sweep_analytic_column_counts_only_collected_accidentals():
    # Of the N w accidentals a gate sees, a fraction c reaches the splitter,
    # so the vanishing-efficiency column is g2_analytic(Nw c, f), which
    # alpha_exact approaches as the arm efficiencies go to 0.  It read
    # g2_analytic(Nw, f) whatever c: 0.331 at Nw 0.2 and c 0.5, where
    # alpha_exact reads 0.190.
    values, f = [0.0, 0.2, 0.9, 3.0], f_omega(_config())
    gaps = []
    for eps in (1e-2, 1e-3):
        template = _config(accidental_collection=0.5, epsilon_t=eps, epsilon_r=eps, target_gates=200000)
        points = sweep_curve(template, values)
        assert [p.alpha_analytic for p in points] == [g2_analytic(0.5 * x, f) for x in values]
        gaps.append([abs(p.alpha_exact / p.alpha_analytic - 1.0) for p in points[1:]])
    # The leading correction is linear in the efficiency.
    for coarse, fine in zip(*gaps):
        assert 9.0 < coarse / fine < 11.0


def test_sweep_zero_point_does_not_depend_on_other_points():
    # The template's rate must not reach the Nw = 0 point: under a run_time
    # stop it would set that point's gate count as well as its source time.
    template = _config(target_gates=None, run_time=2e-4, rng_seed=3)
    (zero, _) = sweep_curve(replace(template, decay_rate=0.1 / 9.4e-9), [0.0, 0.1])
    (again, _, _) = sweep_curve(replace(template, decay_rate=0.9 / 9.4e-9), [0.0, 0.1, 0.9])
    assert zero == again
    assert zero.alpha_mc == 0.0 and zero.gates > 0


def test_sweep_zero_point_needs_one_expected_gate_at_its_own_rate():
    # N epsilon_1 run_time is 50 at Nw = 100 (epsilon_1 = 0.1, run_time
    # 5 w), but 0.5 for the zero point, which runs at 1 / w.
    w = 9.4e-9
    template = _config(decay_rate=100.0 / w, target_gates=None, run_time=5.0 * w)
    assert sweep_curve(template, [100.0])[0].gates > 0
    with pytest.raises(ConfigError, match="one expected gate"):
        sweep_curve(template, [0.0, 100.0])


def test_sweep_rejects_negative_points():
    with pytest.raises(ConfigError, match="Nw"):
        sweep_curve(_config(), [-0.1])


@pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf])
def test_sweep_rejects_nonfinite_points(point):
    with pytest.raises(ConfigError, match="Nw"):
        sweep_curve(_config(), [0.1, point])


def test_run_time_mode():
    cfg = CascadeConfig(decay_rate=1e7, epsilon_1=0.1, run_time=5e-3, rng_seed=2)
    rec = simulate(cfg)
    assert rec.total_gates > 0
    assert rec.elapsed_sim_time <= 5e-3
    # expected gate spacing 1 us, so thousands of gates fit
    assert rec.total_gates > 3000
    assert simulate(cfg) == rec


@settings(max_examples=40, deadline=None)
@given(
    log_rate=st.floats(3.0, 9.0),
    epsilon_1=st.floats(0.01, 1.0),
    expected_gates=st.floats(1.0, 200_000.0),
    seed=st.integers(0, 2**32),
)
def test_run_time_bound_is_exact_and_deterministic(log_rate, epsilon_1, expected_gates, seed):
    # Run times from one expected gate to about three chunks, so the stop
    # falls in the first chunk or several chunks in.
    rate = 10.0**log_rate
    spacing = 1.0 / (rate * epsilon_1) + 9.4e-9
    cfg = CascadeConfig(
        decay_rate=rate, epsilon_1=epsilon_1, run_time=expected_gates * spacing, rng_seed=seed
    )
    rec = simulate(cfg)
    assert rec.elapsed_sim_time <= cfg.run_time
    assert rec.elapsed_sim_time >= rec.total_gates * cfg.gate
    assert simulate(cfg) == rec


# ------------------------------------------------- sampler edge cases


@pytest.mark.parametrize("mode", ["analytic", "physical"])
def test_dark_arms_count_nothing(mode):
    rec = simulate(_config(decay_rate=3.0 / 9.4e-9, epsilon_t=0.0, epsilon_r=0.0, arrival_mode=mode))
    assert rec.nt_counts == rec.nr_counts == rec.nc_counts == 0


@pytest.mark.parametrize("mode", ["analytic", "physical"])
def test_certain_accidentals_fill_every_gate(mode):
    # N w = 9.4e5 per gate: no arm escapes an accidental count, and the
    # accidental probability 1 - e^(-N w p) rounds to exactly 1.
    cfg = _config(decay_rate=1e14, arrival_mode=mode, target_gates=70_000)
    assert gate_probabilities(cfg) == (1.0, 1.0, 1.0)
    rec = simulate(cfg)
    assert rec.nt_counts == rec.nr_counts == rec.nc_counts == 70_000


@pytest.mark.parametrize("mode", ["analytic", "physical"])
def test_certain_arrival_reaches_every_gate(mode):
    # 1 + 1e-13 lies inside the config's tolerance on f; an event or
    # promotion probability drawn at it unclamped would pass 1.
    for f in (1.0, 1.0 + 1e-13):
        cfg = _every_gate_routed(correlation_factor=correlation_for_f(f), arrival_mode=mode)
        assert f_omega(cfg) == pytest.approx(f, abs=1e-15)
        assert _counted_fraction(simulate(cfg)) == 1.0


def test_run_time_stop_inside_first_leaf():
    # One expected wait of source time: the stop falls among the first few
    # gates, and for some seeds before the first gate ends.
    cfg = _config(decay_rate=1e7, target_gates=None, run_time=1e-6)
    records = [simulate(replace(cfg, rng_seed=seed)) for seed in range(40)]
    empty = [rec for rec in records if rec.total_gates == 0]
    assert empty and all(rec == CountRecord(0, 0, 0, 0, 0, 0.0) for rec in empty)
    for rec in records:
        assert rec.total_gates < 20
        assert rec.total_gates * cfg.gate <= rec.elapsed_sim_time <= cfg.run_time
    assert any(rec.total_gates >= 2 for rec in records)


@settings(max_examples=40, deadline=None)
@given(
    log_n_omega=st.floats(-3.0, 6.0),
    eps_t=st.floats(0.0, 1.0),
    eps_r=st.floats(0.0, 1.0),
    f=st.floats(F_BASE, 1.0),
    mode=st.sampled_from(["analytic", "physical"]),
    expected_gates=st.integers(1, 150_000),
    by_time=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_record_invariants_and_determinism(log_n_omega, eps_t, eps_r, f, mode, expected_gates, by_time, seed):
    # Event probabilities from 0 to 1 put the sparse and dense draws on both
    # sides of their crossover, and gate counts from 1 span small chunks.
    cfg = _config(
        decay_rate=10.0**log_n_omega / 9.4e-9,
        correlation_factor=correlation_for_f(f) if f > F_BASE else 1.0,
        epsilon_t=eps_t,
        epsilon_r=eps_r,
        arrival_mode=mode,
        target_gates=expected_gates,
        rng_seed=seed,
    )
    if by_time:
        spacing = 1.0 / (cfg.decay_rate * cfg.epsilon_1) + cfg.gate
        cfg = replace(cfg, target_gates=None, run_time=expected_gates * spacing)
    rec = simulate(cfg)
    if by_time:
        assert rec.elapsed_sim_time <= cfg.run_time
    else:
        assert rec.total_gates == expected_gates
    assert rec.nc_counts <= min(rec.nt_counts, rec.nr_counts)
    assert max(rec.nt_counts, rec.nr_counts) <= rec.total_gates
    assert rec.elapsed_sim_time >= rec.total_gates * cfg.gate
    if eps_t == 0.0:
        assert rec.nt_counts == 0
    counts = (rec.n1_counts, rec.nt_counts, rec.nr_counts, rec.nc_counts, rec.total_gates)
    assert all(type(c) is int for c in counts)
    assert simulate(cfg) == rec


# ------------------------------------------------- source-time distribution

Z_GATE = 5.0


def _reference_gate_count(cfg: CascadeConfig, rng: np.random.Generator) -> int:
    """Gates that end by run_time when every wait is drawn on its own."""
    scale = 1.0 / (cfg.decay_rate * cfg.epsilon_1)
    mean_gates = cfg.run_time / (scale + cfg.gate)
    n = int(mean_gates + 10.0 * math.sqrt(mean_gates) + 100.0)
    t_cum = np.cumsum(rng.exponential(scale, n) + cfg.gate)
    assert t_cum[-1] > cfg.run_time
    return int(np.searchsorted(t_cum, cfg.run_time, side="right"))


def _two_sample_z(a, b) -> tuple[float, float]:
    """z of the difference in means, and of the log ratio of variances
    (its variance is about 2 / (R - 1) per sample for near-normal data)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    z_mean = (a.mean() - b.mean()) / math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    se_log_ratio = math.sqrt(2.0 / (a.size - 1) + 2.0 / (b.size - 1))
    z_var = math.log(a.var(ddof=1) / b.var(ddof=1)) / se_log_ratio
    return z_mean, z_var


def test_target_gates_elapsed_time_is_gamma():
    # The elapsed time of g gates is Gamma(g, scale) + g w: mean
    # g (scale + w) and variance g scale^2.  g spans two chunks.
    runs, g = 200, 70_000
    cfg = _config(decay_rate=0.3 / 9.4e-9, target_gates=g)
    scale = 1.0 / (cfg.decay_rate * cfg.epsilon_1)
    times = np.array([simulate(replace(cfg, rng_seed=seed)).elapsed_sim_time for seed in range(runs)])
    mean, var = g * (scale + cfg.gate), g * scale**2
    assert abs(times.mean() - mean) / math.sqrt(var / runs) < Z_GATE
    # Sample variance of R draws: variance (2 / (R - 1) + kurtosis / R) var^2,
    # with the Gamma excess kurtosis 6 / g.
    se_var = var * math.sqrt(2.0 / (runs - 1) + 6.0 / (g * runs))
    assert abs(times.var(ddof=1) - var) / se_var < Z_GATE


@pytest.mark.parametrize("expected_gates,runs", [(1_000, 300), (230_000, 60)])
def test_run_time_gate_count_matches_per_wait_reference(expected_gates, runs):
    # The stop falls inside the first chunk, or three chunks in.
    cfg = _config(decay_rate=0.3 / 9.4e-9, target_gates=None, run_time=1.0)
    scale = 1.0 / (cfg.decay_rate * cfg.epsilon_1)
    cfg = replace(cfg, run_time=expected_gates * (scale + cfg.gate))
    counts = [simulate(replace(cfg, rng_seed=seed)).total_gates for seed in range(runs)]
    rng = np.random.default_rng(31)
    reference = [_reference_gate_count(cfg, rng) for _ in range(runs)]
    z_mean, z_var = _two_sample_z(counts, reference)
    assert abs(z_mean) < Z_GATE
    assert abs(z_var) < Z_GATE


# ------------------------------------------ exact finite-efficiency reference

K_SIGMA = 5.0


def _reference_counts(cfg: CascadeConfig, rng: np.random.Generator) -> tuple[int, int, int]:
    """(nt, nr, nc) from a per-photon sampler that never uses the
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
    return int(hit_t.sum()), int(hit_r.sum()), int((hit_t & hit_r).sum())


# (Nw, arrival mode, f, t^2, accidental collection, arm efficiencies);
# Nw = 0 switches collection off.
REFERENCE_POINTS = [
    (0.0, "analytic", 0.9, 0.5, 0.0, (0.3, 0.2)),
    (0.0, "physical", F_BASE, 0.8, 0.0, (0.3, 0.2)),
    (0.3, "analytic", F_BASE, 0.8, 1.0, (0.3, 0.2)),
    (0.3, "physical", 0.95, 0.5, 0.5, (0.3, 0.2)),
    (3.0, "analytic", 0.9, 0.8, 0.5, (0.3, 0.2)),
    (3.0, "physical", 0.9, 0.8, 1.0, (0.3, 0.2)),
    # Route means above _SPARSE_MAX_MEAN: both routing rows are drawn dense.
    (0.3, "physical", 0.9, 0.5, 1.0, (0.9, 0.9)),
    # A sparse routing row of mean 0.45: about 21 % of its gates carry two
    # or more marks, each of which draws a delay.
    (0.3, "physical", 0.95, 0.6, 1.0, (0.6, 0.3)),
    # One dense routing row (mean 0.60) and one sparse row (mean 0.047).
    (0.3, "physical", 0.9, 0.5, 1.0, (0.9, 0.05)),
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


def _reference_id(row) -> str:
    """Nw, mode, f, t^2 and collection, then the arm efficiencies where
    they differ from _point_config's defaults."""
    head, eps = row[:5], row[5]
    return "-".join(map(str, head if eps == (0.3, 0.2) else head + eps))


@pytest.mark.parametrize(
    "n_omega,mode,f,t2,collection,eps", REFERENCE_POINTS, ids=[_reference_id(row) for row in REFERENCE_POINTS]
)
def test_simulate_matches_exact_probabilities_and_reference_sampler(n_omega, mode, f, t2, collection, eps):
    gates = 300_000
    cfg = _point_config(n_omega, mode, f, t2, collection, gates, seed=17, eps_t=eps[0], eps_r=eps[1])
    rec = simulate(cfg)
    ref = _reference_counts(cfg, np.random.default_rng(23))
    big_t, big_r, big_c = gate_probabilities(cfg)
    observed = (rec.nt_counts, rec.nr_counts, rec.nc_counts)
    for got, other, p in zip(observed, ref, (big_t, big_r, big_c)):
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


def _oracle_gate_probabilities(cfg):
    """Test-only reference for (P_t, P_r, P_c) from the Fock oracle's rungs.

    A gate holds the paired photon with probability f plus Poisson(N w c)
    accidentals.  Each k-photon term leaves the splitter as rung k, with
    amplitude j on |k-j>_t |j>_r, and a threshold counter behind an arm
    that receives n photons clicks with probability 1 - (1 - eps)^n.
    """
    f = f_omega(cfg)
    lam_c = cfg.decay_rate * cfg.gate * cfg.accidental_collection
    n_max = fock.default_cutoff(fock.CoherentState(math.sqrt(lam_c)))
    accidentals, tail = fock.poisson_weights(lam_c, n_max)
    assert tail < 1e-15
    # Photon-number weights of 0 .. n_max + 1 photons in the gate.
    number = (1.0 - f) * np.append(accidentals, 0.0) + f * np.append(0.0, accidentals)
    probabilities = np.zeros(3)
    for k, rung in enumerate(fock._rungs(cfg.bs, n_max + 1)):
        j = np.arange(k + 1)
        click_t = 1.0 - (1.0 - cfg.epsilon_t) ** (k - j)
        click_r = 1.0 - (1.0 - cfg.epsilon_r) ** j
        weight = number[k] * np.abs(rung) ** 2
        probabilities += weight @ click_t, weight @ click_r, weight @ (click_t * click_r)
    return tuple(probabilities)


@given(
    n_omega=st.one_of(st.just(0.0), st.floats(1e-3, 4.0)),
    collection=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
    t2=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-6, 1.0)),
    f=st.floats(F_BASE, 1.0),
    eps_t=st.floats(0.01, 1.0),
    eps_r=st.floats(0.01, 1.0),
)
@example(n_omega=0.0, collection=1.0, t2=0.5, f=0.9, eps_t=0.05, eps_r=0.05)
@example(n_omega=3.0, collection=0.5, t2=0.8, f=0.9, eps_t=0.3, eps_r=0.2)
@example(n_omega=4.0, collection=1.0, t2=0.3, f=1.0, eps_t=1.0, eps_r=0.01)
def test_gate_probabilities_match_oracle_reference(n_omega, collection, t2, f, eps_t, eps_r):
    # The closed form, the Fock oracle and (elsewhere) the Monte Carlo meet
    # at one gate.  Nw = 0 is a sweep's zero point: nominal rate, no accidentals.
    gate = 9.4e-9
    cfg = CascadeConfig(
        decay_rate=(n_omega if n_omega > 0.0 else 1.0) / gate,
        correlation_factor=correlation_for_f(f),
        epsilon_t=eps_t,
        epsilon_r=eps_r,
        bs=BeamSplitter.from_transmittance(t2),
        accidental_collection=collection if n_omega > 0.0 else 0.0,
        target_gates=1,
    )
    for got, want in zip(gate_probabilities(cfg), _oracle_gate_probabilities(cfg)):
        assert abs(got - want) <= 1e-12 * abs(want)


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
    # R = 1,000 seeded runs.  The spread of measured_alpha must match the
    # mean reported stderr within 15%, about seven times the 2% scatter of
    # a sample SD of 1,000 draws.  The z-scores against exact_alpha must
    # have mean within 0.25 of 0 (their own scatter is 0.03, the
    # estimator's offset about -0.05) and SD within 15% of 1.
    runs = 1000
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


# Signed zeros, subnormals, +-1e300, NaN, +-inf and any other float.
_EXTREME = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, math.nan, math.inf, -math.inf]),
    st.floats(),
)
_POINTS = st.lists(_EXTREME, min_size=1, max_size=3)
# Besides its own name and its flag's, the words a message may use to name a
# configuration key.  The gate defaults to twice the lifetime.
_NAMES = {
    "lifetime": ("gate",),
    "f_target": ("arrival probability",), "n_omega": ("Nw",), "n_omega_values": ("Nw",),
    "arrival_mode": ("arrival mode",),
}
_FLAGS = {
    "f_target": "--f-target", "n_omega": "--n-omega", "n_omega_values": "--points", "arrival_mode": "--arrival",
}


def _run_cli(entries, overrides, sweep):
    """Exit status of `gralab cascade --gates 100` with entries as its --config
    file and overrides as flags; a rejected run must leave no directory."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out_dir = Path(tmp) / "cascade.json", Path(tmp) / "out"
        config.write_text(json.dumps(entries))  # NaN and Infinity tokens, which json reads
        argv = ["--out-dir", str(out_dir), "cascade", "--gates", "100", "--config", str(config)]
        for key, value in overrides.items():
            text = ",".join(map(repr, value)) if key == "n_omega_values" else str(value)
            argv.append(f"{_FLAGS[key]}={text}")
        try:
            code = main(argv + ["--sweep"] * sweep)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 1, 2)
        assert code == 0 or not out_dir.exists()


@settings(max_examples=300, deadline=None)
@given(
    entries=st.fixed_dictionaries(
        {},
        optional={
            **{key: _EXTREME for key in NUMBER_KEYS},
            "n_omega_values": _POINTS,
            "arrival_mode": st.sampled_from(["analytic", "physical", "bogus"]),
        },
    ),
    overrides=st.fixed_dictionaries(
        {},
        optional={
            "f_target": _EXTREME,
            "n_omega": _EXTREME,
            "n_omega_values": _POINTS,
            "arrival_mode": st.sampled_from(["analytic", "physical"]),
        },
    ),
    sweep=st.booleans(),
    through_cli=st.just(False),
)
@example(entries={}, overrides={"n_omega": 1e300}, sweep=False, through_cli=True)
@example(
    entries={"epsilon_1": 5e-324, "transmittance": -0.0},
    overrides={"n_omega_values": [0.0, 1e-300, 1e300]},
    sweep=True,
    through_cli=True,
)
@example(
    entries={"lifetime": 1e300, "f_target": 1e-310}, overrides={"arrival_mode": "physical"},
    sweep=True, through_cli=True,
)
@example(entries={"n_omega": math.nan}, overrides={"n_omega": 0.0}, sweep=False, through_cli=True)
# Found by this property: each message named no input it was given.
@example(entries={"lifetime": 5e-324}, overrides={}, sweep=False, through_cli=True)
@example(entries={"n_omega": 5e-324}, overrides={}, sweep=False, through_cli=True)
@example(entries={"gate": 1.0}, overrides={}, sweep=False, through_cli=True)
def test_template_from_returns_a_template_or_names_the_input(entries, overrides, sweep, through_cli):
    # The reader behind `gralab cascade --config`: any key or flag may carry
    # any float, and either the run is set up or the message names an input.
    given_keys = {*entries, *overrides}
    try:
        template, points, n_omega = template_from(
            entries, overrides, sweep=sweep, target_gates=100, rng_seed=0
        )
    except ValueError as exc:  # ConfigError and BeamSplitter's errors
        message = str(exc)
        names = [(key, _FLAGS.get(key, key), *_NAMES.get(key, ())) for key in given_keys]
        assert any(name in message for name in sum(names, ())), (message, given_keys)
    else:
        assert isinstance(template, CascadeConfig) and template.target_gates == 100
        assert all(math.isfinite(x) for x in (*points, n_omega))
        assert sweep or "n_omega_values" not in given_keys
    if through_cli:
        _run_cli(entries, overrides, sweep)
