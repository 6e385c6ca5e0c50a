"""Acceptance gate: one criterion per test, one pass/fail line per criterion.

Each test exercises a headline behavior of the package end to end at its
stated tolerance and runtime budget, printing [PASS] or [FAIL] directly to
the terminal so the gate can be read off a plain pytest run.
"""

import math
import time
from dataclasses import replace

import numpy as np

from gralab import beables, cascade, checks, classical, fock, photodetect
from test_beables import fitted_frequency

MC_SEED = 20260822


def _report(capsys, number: int, label: str, failures: list[str], elapsed: float, budget: float):
    if elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f} s exceeds budget {budget:g} s")
    tag = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"[{tag}] criterion {number}: {label} ({elapsed:.2f} s)")
    assert not failures, "; ".join(failures)


def _failed(records) -> list[str]:
    return [f"{r.label} {r.value:.2e} (bound {r.bound:.1e})" for r in records if not r.passed]


def test_criterion_1_closed_form_ratios(capsys):
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(101)
    if fock.g2(fock.NumberState(1)) != 0.0:
        failures.append("one-photon ratio is not exactly zero")
    for n in range(2, 21):
        if abs(fock.g2(fock.NumberState(n)) - (n - 1) / n) >= 1e-12:
            failures.append(f"number state n={n} off (n-1)/n")
    for _ in range(100):
        alpha = rng.uniform(0.1, 3.0) * np.exp(2j * math.pi * rng.uniform())
        bs = fock.BeamSplitter.from_transmittance(rng.uniform(0.05, 0.95))
        if abs(fock.g2(fock.CoherentState(alpha), bs) - 1.0) >= 1e-12:
            failures.append(f"coherent alpha={alpha:.3f} off 1")
    for _ in range(100):
        u = rng.uniform(0.05, 0.95)
        bs = fock.BeamSplitter.from_transmittance(rng.uniform(0.05, 0.95))
        if abs(fock.g2(fock.ChaoticState(u), bs) - 2.0) >= 1e-12:
            failures.append(f"chaotic u={u:.3f} off 2")
    _report(capsys, 1, "closed-form coincidence ratios", failures, time.perf_counter() - t0, 1.0)


def test_criterion_2_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    failures = []

    def check(state, n_max, label):
        for t2 in (0.5, 0.7):
            bs = fock.BeamSplitter.from_transmittance(t2)
            gap = abs(fock.oracle_g2(state, bs, n_max=n_max) - fock.g2(state, bs))
            if gap >= 1e-8:
                failures.append(f"{label} t2={t2} oracle gap {gap:.2e}")

    for n in range(1, 11):
        check(fock.NumberState(n), None, f"number n={n}")
    for alpha in (0.7, 1.5 * np.exp(0.9j), complex(0.0, math.sqrt(5.0))):
        check(fock.CoherentState(alpha), 40, f"coherent alpha={alpha:.3f}")
    for u in (0.3, 0.5, 0.7):
        check(fock.ChaoticState(u), 100, f"chaotic u={u}")
    _report(capsys, 2, "Fock-oracle equivalence", failures, time.perf_counter() - t0, 30.0)


def test_criterion_3_classical_bound(capsys):
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(103)
    for i in range(1000):
        size = int(rng.integers(1, 200))
        if i % 2:
            intensities = rng.uniform(0.0, 2.0, size)
        else:
            intensities = rng.exponential(1.0, size)
        if not np.any(intensities > 0.0):
            intensities[0] = 1.0
        ensemble = classical.GateIntensityEnsemble(intensities=intensities, alpha_t=0.001, alpha_r=0.001)
        value = classical.classical_alpha(ensemble)
        if value < 1.0 - 1e-12:
            failures.append(f"ensemble {i} alpha {value:.15f} below 1")
    constant = classical.GateIntensityEnsemble(intensities=np.full(50, 1.3), alpha_t=0.001, alpha_r=0.001)
    if abs(classical.classical_alpha(constant) - 1.0) >= 1e-12:
        failures.append("constant ensemble not at equality")
    _report(capsys, 3, "semiclassical inequality", failures, time.perf_counter() - t0, 1.0)


def _cascade_template() -> cascade.CascadeConfig:
    lifetime = 4.7e-9
    gate = 2.0 * lifetime
    return cascade.CascadeConfig(
        decay_rate=0.1 / gate,
        lifetime=lifetime,
        gate=gate,
        correlation_factor=cascade.correlation_for_f(0.9, lifetime, gate),
        target_gates=10**6,
        rng_seed=MC_SEED,
    )


def test_criterion_4_counting_curve(capsys):
    t0 = time.perf_counter()
    failures = []
    f = cascade.f_omega(_cascade_template())
    if abs(f - 0.9) >= 1e-12:
        failures.append(f"paired-arrival probability {f} is not 0.9")
    if abs(cascade.g2_analytic(0.9, 0.9) - 0.75) >= 1e-15:
        failures.append("analytic curve misses (0.9, 0.75)")
    if cascade.g2_analytic(1e-8, 0.9) >= 1e-7:
        failures.append("analytic curve does not vanish at small Nw")
    if abs(cascade.g2_analytic(1e8, 0.9) - 1.0) >= 1e-6:
        failures.append("analytic curve does not reach 1 at large Nw")
    # Five million gates per point, five times the other criteria's count,
    # shrink each error bar by sqrt(5).
    template = replace(_cascade_template(), target_gates=5 * 10**6)
    points = cascade.sweep_curve(template, [0.01, 0.05, 0.1, 0.3, 0.9, 3.0])
    for p in points:
        bound = max(0.05 * p.alpha_analytic, 3.0 * p.stderr)
        gap = abs(p.alpha_mc - p.alpha_analytic)
        if gap > bound:
            failures.append(
                f"Nw={p.n_omega}: |{p.alpha_mc:.4f} - {p.alpha_analytic:.4f}| "
                f"= {gap:.4f} > {bound:.4f}"
            )
        # Against the exact ratio at the run's efficiencies, in error bars alone.
        z = (p.alpha_mc - p.alpha_exact) / p.stderr
        if not abs(z) < 5.0:
            failures.append(
                f"Nw={p.n_omega}: {p.alpha_mc:.4f} is {z:+.2f} sigma from exact {p.alpha_exact:.4f}"
            )
    _report(capsys, 4, "counting curve vs analytic ratio", failures, time.perf_counter() - t0, 120.0)


def test_criterion_5_anticoincidence(capsys):
    t0 = time.perf_counter()
    failures = []
    config = replace(_cascade_template(), accidental_collection=0.0)
    record = cascade.simulate(config)
    if record.total_gates != 10**6:
        failures.append(f"ran {record.total_gates} gates instead of 1000000")
    if record.nc_counts != 0:
        failures.append(f"{record.nc_counts} coincidences from isolated photons")
    _report(capsys, 5, "isolated-photon anticoincidence", failures, time.perf_counter() - t0, 60.0)


def test_criterion_6_decay_law(capsys):
    t0 = time.perf_counter()
    failures = []
    config = replace(_cascade_template(), arrival_mode="physical", correlation_factor=1.0)
    expected = 1.0 - math.exp(-config.gate / config.lifetime)
    # With both arms certain on a balanced splitter and no accidentals,
    # every gate is routed to a counter, so the counted photons are
    # exponential delay draws alone.
    every_gate = replace(
        config, epsilon_t=1.0, epsilon_r=1.0, bs=fock.BeamSplitter(), accidental_collection=0.0
    )
    routed = cascade.simulate(every_gate)
    fraction = (routed.nt_counts + routed.nr_counts) / routed.total_gates
    se = math.sqrt(expected * (1.0 - expected) / routed.total_gates)
    if abs(fraction - expected) > 3.0 * se:
        failures.append(
            f"counted fraction with every gate routed {fraction:.5f} vs {expected:.5f} (3 se = {3 * se:.5f})"
        )
    _report(capsys, 6, "exponential arrival fraction", failures, time.perf_counter() - t0, 60.0)


def test_criterion_7_mode_dynamics(capsys):
    t0 = time.perf_counter()
    failures = []
    pair = beables.ModePair.single_frequency(1.0)
    omega = beables.mode_frequencies(pair)[0]
    trajectory = beables.integrate_region1(pair, 2.0 * math.pi / omega)
    qa_ref, qb_ref = beables.analytic_region1(pair, trajectory.times)
    gap = max(
        np.abs(np.conj(trajectory.q_a) - qa_ref).max(),
        np.abs(np.conj(trajectory.q_b) - qb_ref).max(),
    )
    if gap >= 1e-6:
        failures.append(f"integrated orbit off the closed solution by {gap:.2e}")
    rel = abs(fitted_frequency(trajectory) - omega) / omega
    if rel >= 1e-9:
        failures.append(f"fitted frequency off by {rel:.2e} relative")
    off_manifold = beables.ModePair(amp_a=1.0, amp_b=1.0)
    for candidate, label in ((pair, "rigid"), (off_manifold, "offset")):
        residual = max(
            beables.wave_equation_residual(candidate, t) for t in (0.0, 2.1, 5.7)
        )
        if residual >= 1e-12:
            failures.append(f"{label} wave-equation residual {residual:.2e}")
        failures.extend(
            f"{label} {r.label} {r.value:.2e} (bound {r.bound:.1e})"
            for r in checks.region1(candidate, None)
            if not r.passed
        )
    _report(capsys, 7, "guided mode dynamics", failures, time.perf_counter() - t0, 10.0)


def test_criterion_8_interference_beables(capsys):
    t0 = time.perf_counter()
    failures = []
    pair = beables.ModePair(amp_a=1.0, amp_b=1.0)
    phis = np.linspace(0.0, 2.0 * math.pi, 72, endpoint=False)
    i_c, i_d = beables.beam_intensity_curves(pair, phis)
    # Visibility 1 to 1e-9, extinctions below 1e-12 of the peak, and a summed
    # intensity flat to 1e-10 of the peak, which must be exactly 1 here.
    if max(i_c.max(), i_d.max()) != 1.0:
        failures.append(f"peak intensity {max(i_c.max(), i_d.max())} is not 1")
    failures += _failed(checks.fringes(i_c, i_d))
    _report(capsys, 8, "interference fringes and balance", failures, time.perf_counter() - t0, 10.0)


def test_criterion_9_whole_quantum_absorption(capsys):
    t0 = time.perf_counter()
    failures = []
    report = photodetect.absorption_matrix_element_check(photodetect.split_photon_state(0.0))
    records = checks.absorption(report, photodetect.DetectorAtomConfig(phi=0.0))
    if len(records) != 3:
        failures.append(f"{len(records)} absorption checks instead of 3")
    failures += _failed(records)
    exposure = 3.0
    mismatch = np.linspace(-6.0, 6.0, 241)
    shape = np.abs(photodetect.resonance_factor(mismatch, exposure)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        target = np.where(
            mismatch == 0.0,
            exposure**2,
            4.0 * np.sin(mismatch * exposure / 2.0) ** 2 / mismatch**2,
        )
    if np.abs(shape - target).max() >= 1e-12 * target.max():
        failures.append("ejection spectrum is not sinc-squared in the mismatch")
    atom = photodetect.DetectorAtomConfig()
    k_res = photodetect.resonant_wavenumber(atom)
    ratio = (
        np.abs(photodetect.eta(atom, k_res, 2.0 * exposure)) ** 2
        / np.abs(photodetect.eta(atom, k_res, exposure)) ** 2
    )
    if abs(ratio - 4.0) >= 1e-9:
        failures.append(f"resonant peak ratio {ratio} is not 4")
    _report(capsys, 9, "whole-quantum absorption", failures, time.perf_counter() - t0, 10.0)
