"""Gated two-photon cascade source: Monte Carlo and the analytic ratio.

A first-photon detection opens a counting gate of width w.  The paired
second photon reaches the splitter with probability f(w) while unrelated
cascades contribute Poisson accidentals at rate N, so the normalized
coincidence ratio interpolates between 0 (isolated gates) and 1 (dense
accidentals) along alpha(Nw) = (2 f Nw + (Nw)^2) / (f + Nw)^2 in the
limit of vanishing arm efficiency.  The simulation counts gate-level
detection indicators exactly as a counter rack would, with whole photons
routed to one arm or the other.  Because the accidentals split at the
splitter into independent per-arm Poisson streams, each gate costs a few
uniforms: one routes the paired photon and one per arm decides whether
any accidental was counted there.  The same independence gives the exact
per-gate probabilities at finite efficiency (gate_probabilities) and the
exact ratio (exact_alpha) that the Monte Carlo converges to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fock import BeamSplitter

_CHUNK = 65536


class ConfigError(ValueError):
    """The run configuration is inconsistent or unusable."""


class InsufficientCounts(ValueError):
    """Too few counts to form the requested estimate."""


@dataclass(frozen=True)
class CascadeConfig:
    """Source, gate, and detection parameters for one run.

    decay_rate is the total cascade rate N (1/s).  The gate defaults to
    twice the intermediate-state lifetime.  correlation_factor a >= 1
    scales the paired-photon arrival probability f = a (1 - e^(-w/tau));
    epsilon_1 collects first photons (it sets the gate rate), epsilon_t
    and epsilon_r are the arm detection efficiencies applied on top of
    the splitter probabilities.  accidental_collection thins unrelated
    photons before the splitter; zero isolates the gates completely.
    Exactly one stopping rule applies: run_time (seconds of source time)
    or target_gates.
    """

    decay_rate: float
    lifetime: float = 4.7e-9
    gate: float | None = None
    correlation_factor: float = 1.0
    epsilon_1: float = 0.1
    epsilon_t: float = 0.05
    epsilon_r: float = 0.05
    bs: BeamSplitter = field(default_factory=BeamSplitter)
    accidental_collection: float = 1.0
    arrival_mode: str = "analytic"
    run_time: float | None = None
    target_gates: int | None = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.gate is None:
            object.__setattr__(self, "gate", 2.0 * self.lifetime)
        # Written so that NaN fails every comparison and is rejected.
        if not 0.0 < self.decay_rate < math.inf:
            raise ConfigError("decay rate must be positive and finite")
        if not (0.0 < self.lifetime < math.inf and 0.0 < self.gate < math.inf):
            raise ConfigError("lifetime and gate width must be positive and finite")
        if not self.correlation_factor >= 1.0:
            raise ConfigError("correlation factor must be at least 1")
        if f_omega(self) > 1.0 + 1e-12:
            raise ConfigError("arrival probability a (1 - e^(-w/tau)) exceeds 1")
        for name in ("epsilon_1", "epsilon_t", "epsilon_r", "accidental_collection"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.arrival_mode not in ("analytic", "physical"):
            raise ConfigError("arrival mode must be 'analytic' or 'physical'")
        if (self.run_time is None) == (self.target_gates is None):
            raise ConfigError("set exactly one of run_time and target_gates")
        if self.target_gates is not None and self.target_gates <= 0:
            raise ConfigError("target gate count must be positive")
        if self.run_time is not None:
            if not self.run_time < math.inf:
                raise ConfigError("run time must be finite")
            if self.decay_rate * self.epsilon_1 * self.run_time < 1.0:
                raise ConfigError("run time too short for even one expected gate")
        if self.rng_seed < 0:
            raise ConfigError("rng seed must be nonnegative")


def f_omega(cfg: CascadeConfig) -> float:
    """Paired-photon arrival probability a (1 - e^(-w/tau))."""
    return cfg.correlation_factor * (1.0 - math.exp(-cfg.gate / cfg.lifetime))


def correlation_for_f(f_target: float, lifetime: float = 4.7e-9, gate: float | None = None) -> float:
    """Correlation factor that realizes a requested arrival probability."""
    if gate is None:
        gate = 2.0 * lifetime
    base = 1.0 - math.exp(-gate / lifetime)
    a = f_target / base
    if a < 1.0:
        raise ConfigError(f"arrival probability {f_target} needs a < 1 (base {base:.6f})")
    return a


def g2_analytic(n_omega: float, f: float) -> float:
    """Gate-level coincidence ratio (2 f Nw + (Nw)^2) / (f + Nw)^2.

    Vanishing-efficiency limit of the counting model: exactly 0 at Nw = 0
    and approaching 1 as accidentals dominate.
    """
    if not 0.0 <= n_omega < math.inf:
        raise ValueError("Nw must be nonnegative and finite")
    if not 0.0 < f <= 1.0:
        raise ValueError("arrival probability must lie in (0, 1]")
    return (2.0 * f * n_omega + n_omega**2) / (f + n_omega) ** 2


@dataclass(frozen=True)
class CountRecord:
    """Gate-level counter totals from one run."""

    n1_counts: int
    nt_counts: int
    nr_counts: int
    nc_counts: int
    total_gates: int
    trigger_arrivals: int
    elapsed_sim_time: float

    def __post_init__(self) -> None:
        if self.total_gates != self.n1_counts:
            raise ValueError("every first-photon detection opens exactly one gate")
        counts = (self.nt_counts, self.nr_counts, self.nc_counts, self.trigger_arrivals)
        if any(c < 0 or c > self.n1_counts for c in counts):
            raise ValueError("per-gate indicators cannot exceed the gate count")
        if self.nc_counts > min(self.nt_counts, self.nr_counts):
            raise ValueError("coincidences cannot exceed either singles count")


def _arm_probabilities(cfg: CascadeConfig) -> tuple[float, float]:
    """Probabilities (t^2 eps_t, r^2 eps_r) that one photon is counted in each arm."""
    return cfg.bs.t**2 * cfg.epsilon_t, cfg.bs.r**2 * cfg.epsilon_r


def _accidental_probabilities(cfg: CascadeConfig) -> tuple[float, float]:
    """Probabilities 1 - e^(-lambda c p) that at least one accidental is
    counted in each arm; expm1 keeps a small lambda c p from rounding to 0."""
    lam_c = cfg.decay_rate * cfg.gate * cfg.accidental_collection
    return tuple(-math.expm1(-lam_c * p) for p in _arm_probabilities(cfg))


def gate_probabilities(cfg: CascadeConfig) -> tuple[float, float, float]:
    """Exact per-gate (P_t, P_r, P_c) at finite detection efficiency.

    The paired photon (probability f) and the Poisson accidentals of mean
    lambda c = N w c pass the splitter independently, and the accidentals
    split into independent Poisson streams per arm, so the no-count
    probabilities factor: q_t = (1 - f p_t) e^(-lambda c p_t), likewise
    q_r, and q_0 = (1 - f (p_t + p_r)) e^(-lambda c (p_t + p_r)).  Then
    P_t = 1 - q_t, P_r = 1 - q_r and P_c = 1 - q_t - q_r + q_0.  P_c is
    evaluated in the equal form f p_t A_r + f p_r A_t + (1 - f (p_t + p_r))
    A_t A_r with A = 1 - e^(-lambda c p), which does not cancel when the
    efficiencies are small.
    """
    f = f_omega(cfg)
    p_t, p_r = _arm_probabilities(cfg)
    acc_t, acc_r = _accidental_probabilities(cfg)
    big_t = acc_t + f * p_t * (1.0 - acc_t)
    big_r = acc_r + f * p_r * (1.0 - acc_r)
    big_c = f * p_t * acc_r + f * p_r * acc_t + (1.0 - f * (p_t + p_r)) * acc_t * acc_r
    return big_t, big_r, big_c


def exact_alpha(cfg: CascadeConfig) -> float:
    """Exact finite-efficiency coincidence ratio P_c / (P_t P_r).

    It tends to g2_analytic(N w c, f) as both arm efficiencies go to zero.
    """
    big_t, big_r, big_c = gate_probabilities(cfg)
    if big_t == 0.0 or big_r == 0.0:
        raise ConfigError("an arm that can never count leaves the ratio undefined")
    return big_c / (big_t * big_r)


def simulate(cfg: CascadeConfig) -> CountRecord:
    """Run the gated counting experiment and return the counter totals.

    Per gate, one uniform u decides the paired photon: it arrived if
    u < f, and it is counted in the transmitted arm if u < f p_t and in
    the reflected arm if f p_t <= u < f (p_t + p_r), with p_t = t^2 eps_t
    and p_r = r^2 eps_r.  In 'physical' mode the arrival comes instead
    from the exponential delay (and, for a > 1, a promotion draw), and u
    routes an arrived photon against p_t and p_t + p_r.  Accidental
    photons, Poisson with mean N w thinned by accidental_collection, split
    into independent per-arm Poisson streams, so one more uniform per arm
    marks the gates where at least one was counted.  Counters record
    per-gate indicators, whose probabilities are gate_probabilities(cfg).
    Deterministic for a fixed configuration.
    """
    f = f_omega(cfg)
    p_short = 1.0 - math.exp(-cfg.gate / cfg.lifetime)
    a = cfg.correlation_factor
    p_t_det, p_r_det = _arm_probabilities(cfg)
    acc_t, acc_r = _accidental_probabilities(cfg)
    wait_scale = 1.0 / (cfg.decay_rate * cfg.epsilon_1)

    root = np.random.SeedSequence(cfg.rng_seed)
    n1 = nt = nr = nc = arrivals = 0
    elapsed = 0.0
    remaining = cfg.target_gates

    while True:
        if remaining is not None:
            if remaining <= 0:
                break
            g = min(_CHUNK, remaining)
        else:
            g = _CHUNK
        rng = np.random.Generator(np.random.PCG64(root.spawn(1)[0]))

        waits = rng.exponential(wait_scale, g)
        if remaining is None:
            t_cum = elapsed + np.cumsum(waits + cfg.gate)
            fit = int(np.searchsorted(t_cum, cfg.run_time, side="right"))
            if fit == 0:
                break
            g = fit
            waits = waits[:g]

        u = rng.random(g)
        if cfg.arrival_mode == "analytic":
            arrived, scale = u < f, f
        else:
            arrived, scale = rng.exponential(cfg.lifetime, g) < cfg.gate, 1.0
            if a > 1.0 and p_short < 1.0:
                arrived |= rng.random(g) < (a - 1.0) * p_short / (1.0 - p_short)
        hit_t = arrived & (u < scale * p_t_det)
        hit_r = (arrived & (u < scale * (p_t_det + p_r_det))) ^ hit_t
        if acc_t > 0.0:
            hit_t |= rng.random(g) < acc_t
        if acc_r > 0.0:
            hit_r |= rng.random(g) < acc_r

        n1 += g
        arrivals += int(np.count_nonzero(arrived))
        nt += int(np.count_nonzero(hit_t))
        nr += int(np.count_nonzero(hit_r))
        nc += int(np.count_nonzero(hit_t & hit_r))
        elapsed += float(waits.sum()) + g * cfg.gate

        if remaining is not None:
            remaining -= g
        elif g < _CHUNK:
            break

    return CountRecord(
        n1_counts=n1,
        nt_counts=nt,
        nr_counts=nr,
        nc_counts=nc,
        total_gates=n1,
        trigger_arrivals=arrivals,
        elapsed_sim_time=elapsed,
    )


def measured_alpha(rec: CountRecord) -> float:
    """Coincidence ratio estimate n1 nc / (nt nr) from raw counts.

    The gate and accidental time factors cancel in the count ratio, so no
    rate normalization enters.
    """
    if rec.nt_counts == 0 or rec.nr_counts == 0:
        raise InsufficientCounts("need at least one count in each arm")
    return rec.n1_counts * rec.nc_counts / (rec.nt_counts * rec.nr_counts)


def alpha_stderr(rec: CountRecord) -> float:
    """Delta-method standard error of the measured ratio.

    Propagates the binomial variances and covariances of the three
    per-gate indicators through the log of the count ratio.  A zero
    coincidence total is floored at one count inside the variance so
    an all-null run still reports a finite scale.
    """
    if rec.nt_counts == 0 or rec.nr_counts == 0:
        raise InsufficientCounts("need at least one count in each arm")
    g = rec.total_gates
    p_t = rec.nt_counts / g
    p_r = rec.nr_counts / g
    p_c = max(rec.nc_counts, 1) / g
    var_log = (
        (1.0 - p_c) / p_c
        - (1.0 - p_t) / p_t
        - (1.0 - p_r) / p_r
        + 2.0 * p_c / (p_t * p_r)
        - 2.0
    ) / g
    var_log = max(var_log, 0.0)
    alpha_floor = g * max(rec.nc_counts, 1) / (rec.nt_counts * rec.nr_counts)
    return alpha_floor * math.sqrt(var_log)


@dataclass(frozen=True)
class SweepPoint:
    """One point of a measured-versus-analytic ratio curve."""

    n_omega: float
    alpha_mc: float
    alpha_analytic: float
    stderr: float
    gates: int


def sweep_curve(template: CascadeConfig, n_omega_values) -> list[SweepPoint]:
    """Run the simulation across source rates set by Nw values.

    Each point reuses the template with decay_rate = Nw / w and its own
    child seed, so the whole sweep is deterministic in the template seed.
    A zero Nw point is realized exactly by switching off accidental
    collection, which makes the measured ratio structurally zero.
    """
    values = [float(x) for x in n_omega_values]
    if any(x < 0.0 for x in values):
        raise ConfigError("Nw values must be nonnegative")
    f = f_omega(template)
    seeds = np.random.SeedSequence(template.rng_seed).generate_state(
        max(len(values), 1), dtype=np.uint64
    )
    points = []
    for x, seed in zip(values, seeds):
        if x == 0.0:
            cfg = replace(template, accidental_collection=0.0, rng_seed=int(seed))
        else:
            cfg = replace(template, decay_rate=x / template.gate, rng_seed=int(seed))
        rec = simulate(cfg)
        points.append(
            SweepPoint(
                n_omega=x,
                alpha_mc=measured_alpha(rec),
                alpha_analytic=g2_analytic(x, f),
                stderr=alpha_stderr(rec),
                gates=rec.total_gates,
            )
        )
    return points
