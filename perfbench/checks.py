"""Output checkers and reference values for the benchmark.

Every checker takes the program's outputs (and the inputs that produced
them) and returns a list of problems; an empty list means the output
passed.  References are written here from the physics, not by calling
the program, so a checker can reject a perturbed result on its own.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

ORACLE_TOL = 1e-8
CLOSED_FORM_TOL = 1e-12
FIELD_TOL = 1e-9
CONSISTENCY_TOL = 1e-6
RK4_TOL = 1e-6
ENERGY_DRIFT_TOL = 1e-5
RESIDUAL_TOL = 1e-4
# Pooled Monte Carlo gate: |z| above this has a two-sided normal chance
# of 2e-9.  The smallest pooled coincidence count a run can have (eight
# passes of the fewest gates at Nw = 0.01, about 27 expected) is far from
# normal, but its Poisson tail beyond the bound is still below 1e-7.
POOLED_Z_MAX = 6.0


# ---------------------------------------------------------------- oracle


def exact_g2(kind: str, value: float) -> float:
    """Closed-form coincidence ratio: (n-1)/n, 1 for coherent, 2 for chaotic."""
    if kind == "number":
        return (value - 1.0) / value
    if kind == "coherent":
        return 1.0
    if kind == "chaotic":
        return 2.0
    raise ValueError(f"unknown state kind {kind!r}")


def check_oracle(kind: str, value: float, g2: float, oracle: float) -> list[str]:
    """The closed form must equal the exact ratio and the oracle must match it."""
    ref = exact_g2(kind, value)
    problems = []
    if not abs(g2 - ref) <= CLOSED_FORM_TOL:
        problems.append(f"g2 {g2!r} differs from exact {ref!r}")
    if not abs(oracle - g2) <= ORACLE_TOL:
        problems.append(f"oracle {oracle!r} differs from g2 {g2!r} by more than {ORACLE_TOL}")
    return problems


# --------------------------------------------------------------- cascade


def gate_probabilities(f: float, n_omega: float, collection: float, p_t: float, p_r: float):
    """Exact per-gate (P_t, P_r, P_c) at finite detection efficiency.

    The paired photon (probability f) and Poisson accidentals of mean
    lambda = Nw * collection pass the splitter independently, so the
    no-count probabilities factor:
    q_t = (1 - f p_t) e^(-lambda p_t), likewise q_r, and
    q_0 = (1 - f (p_t + p_r)) e^(-lambda (p_t + p_r)).
    """
    lam = n_omega * collection
    q_t = (1.0 - f * p_t) * math.exp(-lam * p_t)
    q_r = (1.0 - f * p_r) * math.exp(-lam * p_r)
    q_0 = (1.0 - f * (p_t + p_r)) * math.exp(-lam * (p_t + p_r))
    return 1.0 - q_t, 1.0 - q_r, 1.0 - q_t - q_r + q_0


def exact_alpha(f: float, n_omega: float, collection: float, p_t: float, p_r: float) -> float:
    """Exact finite-efficiency coincidence ratio P_c / (P_t P_r)."""
    big_t, big_r, big_c = gate_probabilities(f, n_omega, collection, p_t, p_r)
    return big_c / (big_t * big_r)


def pooled_z(counts: dict, f: float, n_omega: float, collection: float, p_t: float, p_r: float) -> float:
    """z-score of pooled counts against the exact ratio.

    The standard deviation is the delta-method one evaluated at the exact
    probabilities, not at the observed counts, so a low count does not
    shrink its own error bar.
    """
    big_t, big_r, big_c = gate_probabilities(f, n_omega, collection, p_t, p_r)
    g = counts["n1"]
    if counts["nt"] == 0 or counts["nr"] == 0:
        return math.inf
    alpha_mc = g * counts["nc"] / (counts["nt"] * counts["nr"])
    alpha = big_c / (big_t * big_r)
    var_log = (
        (1.0 - big_c) / big_c
        - (1.0 - big_t) / big_t
        - (1.0 - big_r) / big_r
        + 2.0 * big_c / (big_t * big_r)
        - 2.0
    ) / g
    return (alpha_mc - alpha) / (alpha * math.sqrt(var_log))


def check_cascade_record(rec, n_omega: float, target: int | None, run_time: float | None) -> list[str]:
    """Exact per-operation facts of one counting run."""
    problems = []
    if rec.total_gates <= 0:
        problems.append("no gates were run")
    if n_omega == 0.0 and rec.nc_counts != 0:
        problems.append(f"{rec.nc_counts} coincidences with accidentals switched off")
    if target is not None and rec.total_gates != target:
        problems.append(f"{rec.total_gates} gates run, {target} requested")
    if run_time is not None and not rec.elapsed_sim_time <= run_time * (1.0 + 1e-12):
        problems.append(f"source time {rec.elapsed_sim_time} exceeds run time {run_time}")
    if not rec.nc_counts <= min(rec.nt_counts, rec.nr_counts) <= rec.total_gates:
        problems.append("counter totals are inconsistent")
    return problems


# --------------------------------------------------------------- beables


def reference_fields(p: dict, points: np.ndarray, t: float):
    """Vector potential, electric and magnetic field at many points.

    p holds the pair (amplitudes, phases, wave vectors, polarizations),
    the region (1, or 2 with its phase phi), the volume and the vacuum
    background (k_vectors, pols, coords, or None).  Natural units.
    """
    if p["region"] == 1:
        w_a = w_b = 1.0
    else:
        w_a = 1.0 + math.cos(p["phi"])
        w_b = 1.0 - math.cos(p["phi"])
    om_a = w_a / (4.0 * p["amp_a"] ** 2)
    om_b = w_b / (4.0 * p["amp_b"] ** 2)
    th_a = points @ p["k_a"] - om_a * t - p["phase_a"]
    th_b = points @ p["k_b"] - om_b * t - p["phase_b"]
    rv = math.sqrt(p["volume"])
    ca, cb = np.cos(th_a)[:, None], np.cos(th_b)[:, None]
    sa, sb = np.sin(th_a)[:, None], np.sin(th_b)[:, None]
    pol_a, pol_b = p["pol_a"], p["pol_b"]
    a = (2.0 / rv) * (pol_a * p["amp_a"] * ca + pol_b * p["amp_b"] * cb)
    e = (-0.5 / rv) * (pol_a * (w_a / p["amp_a"]) * sa + pol_b * (w_b / p["amp_b"]) * sb)
    b = (-2.0 / rv) * (
        np.cross(p["k_a"], pol_a) * p["amp_a"] * sa + np.cross(p["k_b"], pol_b) * p["amp_b"] * sb
    )
    vac = p["vacuum"]
    if vac is not None:
        waves = vac["coords"][None, :] * np.exp(1j * (points @ vac["k_vectors"].T))
        a = a + (2.0 * waves.real @ vac["pols"]) / rv
        b = b + (-2.0 * waves.imag @ np.cross(vac["k_vectors"], vac["pols"])) / rv
    return a, e, b


def field_scales(p: dict) -> tuple[float, float, float]:
    """Envelopes of |A|, |E| and |B| that errors are measured against."""
    rv = math.sqrt(p["volume"])
    vac = 0.0 if p["vacuum"] is None else 2.0 * float(np.abs(p["vacuum"]["coords"]).sum())
    k0 = float(np.linalg.norm(p["k_a"]))
    a = (2.0 * (p["amp_a"] + p["amp_b"]) + vac) / rv
    e = (1.0 / p["amp_a"] + 1.0 / p["amp_b"]) / rv
    return a, e, k0 * a


def check_field_map(p: dict, points, t: float, a, e, b, intensity, consistency) -> list[str]:
    """One sampled map: A, E and B against the reference at every frame,
    a finite intensity, and the program's own frame consistency."""
    problems = []
    ref = reference_fields(p, points, t)
    for label, got, want, scale in zip("AEB", (a, e, b), ref, field_scales(p)):
        err = float(np.max(np.abs(np.asarray(got) - want))) / scale
        if not err <= FIELD_TOL:
            problems.append(f"{label} differs from the reference by {err:.3e} of its envelope")
    if not np.all(np.isfinite(intensity)):
        problems.append("intensity is not finite")
    for label, err in zip(("E vs -dA/dt", "B vs curl A"), consistency):
        if not err < CONSISTENCY_TOL:
            problems.append(f"frame consistency {label} {err:.3e}")
    return problems


def closed_orbit(amp_a, phase_a, amp_b, phase_b, times):
    """Starred coordinates on the exact orbit of the coupled equations.

    w* = q_a* + i q_b* turns rigidly at 1 / |w|^2 while q_a* - i q_b*
    stays fixed (hbar = c = 1).
    """
    a0 = amp_a * np.exp(1j * phase_a)
    b0 = amp_b * np.exp(1j * phase_b)
    w0 = a0 + 1j * b0
    turn = np.exp(1j * np.asarray(times) / abs(w0) ** 2) - 1.0
    return a0 + 0.5 * w0 * turn, b0 - 0.5j * w0 * turn


def rk4_error(q_a, q_b, ref_a_star, ref_b_star, scale: float) -> float:
    """Largest distance of the integrated coordinates from the closed-form
    (starred) orbit, relative to the amplitude scale."""
    da = np.abs(np.conj(np.asarray(q_a)) - ref_a_star)
    db = np.abs(np.conj(np.asarray(q_b)) - ref_b_star)
    return float(max(da.max(), db.max())) / scale


def check_rk4(error: float) -> list[str]:
    return [] if error <= RK4_TOL else [f"RK4 orbit off by {error:.3e}"]


def energy_drift(energies) -> float:
    """(max - min) / |first| of the total energy sampled over a cycle."""
    energies = np.asarray(energies, dtype=float)
    return float((energies.max() - energies.min()) / abs(energies[0]))


def check_energy(drift: float) -> list[str]:
    return [] if drift <= ENERGY_DRIFT_TOL else [f"energy drift {drift:.3e}"]


def check_residual(residuals) -> list[str]:
    worst = float(max(residuals))
    return [] if worst <= RESIDUAL_TOL else [f"wave-equation residual {worst:.3e}"]


def reduction_gap(frames_2, frames_1) -> float:
    """Largest difference between region II at phi = pi/2 and region I,
    over all frames and all four fields, relative to each field's peak."""
    worst = 0.0
    for got, want in zip(frames_2, frames_1):
        got, want = np.asarray(got), np.asarray(want)
        scale = max(float(np.abs(want).max()), 1e-30)
        worst = max(worst, float(np.abs(got - want).max()) / scale)
    return worst


# ------------------------------------------------------------------- cli


def check_cli_run(returncode: int, out_dir: Path, subcommand: str) -> list[str]:
    """Exit status 0 and every file the manifest lists exists, non-empty."""
    if returncode != 0:
        return [f"exit status {returncode}"]
    manifest = out_dir / f"{subcommand}_manifest.json"
    try:
        outputs = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable manifest {manifest.name}: {exc}"]
    if not outputs:
        return ["manifest lists no outputs"]
    problems = []
    for name in outputs:
        path = out_dir / name
        if not path.is_file() or path.stat().st_size == 0:
            problems.append(f"output {name} missing or empty")
    return problems
