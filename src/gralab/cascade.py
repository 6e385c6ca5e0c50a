"""Gated two-photon cascade source: Monte Carlo and the analytic ratio.

A first-photon detection opens a counting gate of width w.  The paired
second photon reaches the splitter with probability f(w) while unrelated
cascades contribute Poisson accidentals at rate N, so the normalized
coincidence ratio interpolates between 0 (isolated gates) and 1 (dense
accidentals) along alpha(Nw) = (2 f Nw + (Nw)^2) / (f + Nw)^2 in the
limit of vanishing arm efficiency.  The simulation counts gate-level
detection indicators exactly as a counter rack would, with whole photons
routed to one arm or the other.  Because the accidentals split at the
splitter into independent per-arm Poisson streams, the gates where each
arm counts an accidental form independent event sets; the gates where
the paired photon is counted form two more, exclusive of each other.
At the experiment's operating point a counter fires in a few percent of
gates, so the sampler draws each event set sparsely, as a Poisson number
of marks on random gates, and compares one uniform per gate only where a
set's mean marks per gate make that cheaper.  The same independence gives the
exact per-gate probabilities at finite efficiency (gate_probabilities)
and the exact ratio (exact_alpha) that the Monte Carlo converges to.  The source
time between gates is exponential, but the counters never read a single
wait: a chunk of g gates draws its total wait as one Gamma(g) variate,
and the chunk where a run_time stop falls is halved by Beta splits of
that total until a leaf of a few hundred gates draws its waits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .fock import BeamSplitter

_CHUNK = 65536
# A run_time stop is located by halving its chunk down to at most this
# many gates, whose waits are then drawn one by one.
_LEAF = 256
# Largest mean marks per gate at which a row draws its event set as marks
# on random gates rather than one uniform per gate: the measured cost of a
# uniform over that of a placed mark (about 5 ns against 10 ns on 2 CPUs,
# numpy 2.4).
_SPARSE_MAX_MEAN = 0.5


class ConfigError(ValueError):
    """The run configuration is inconsistent or unusable."""


class InsufficientCounts(ValueError):
    """Too few counts to form the requested estimate."""


def _is_integer(value) -> bool:
    """An integer of any integral type, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        if self.target_gates is not None:
            if not _is_integer(self.target_gates):
                raise ConfigError("target gate count must be an integer")
            if self.target_gates <= 0:
                raise ConfigError("target gate count must be positive")
            object.__setattr__(self, "target_gates", int(self.target_gates))
        if self.run_time is not None:
            if not self.run_time < math.inf:
                raise ConfigError("run time must be finite")
            if self.decay_rate * self.epsilon_1 * self.run_time < 1.0:
                raise ConfigError("run time too short for even one expected gate")
        if not _is_integer(self.rng_seed):
            raise ConfigError("rng seed must be an integer")
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
    if not 1.0 <= a < math.inf:  # NaN fails here
        raise ConfigError(
            f"arrival probability {f_target} must be finite and at least the base {base:.6f}"
            " (correlation factor a >= 1)"
        )
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


def _accidental_means(cfg: CascadeConfig) -> tuple[float, float]:
    """Mean number lambda c p of accidentals counted in each arm per gate."""
    lam_c = cfg.decay_rate * cfg.gate * cfg.accidental_collection
    return tuple(lam_c * p for p in _arm_probabilities(cfg))


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
    # 1 - e^(-lambda c p); expm1 keeps a small lambda c p from rounding to 0.
    acc_t, acc_r = (-math.expm1(-m) for m in _accidental_means(cfg))
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


def _events_lambda(p: float) -> float:
    """Mean marks per gate, -log(1 - p), that leave a gate unmarked with
    probability 1 - p."""
    return -math.log1p(-p) if p < 1.0 else math.inf


def _mark_events(rng: np.random.Generator, hits: np.ndarray, lam_t: float, lam_r: float) -> None:
    """Or into the two rows of hits, one per arm, independent event sets:
    each gate is set in a row with probability 1 - e^(-lam), independently
    of other gates, for a mean of lam marks per gate.

    A sparse set is a Poisson number of marks of mean g lam, each on the
    gate floor(g u) for a uniform u, which is as fine-grained as comparing
    u with a probability.  By Poisson splitting the gates' mark counts are
    independent Poisson variates of mean lam.  A row whose mean exceeds
    _SPARSE_MAX_MEAN compares one uniform per gate with 1 - e^(-lam)
    instead; the sparse rows share one draw of mark positions, which saves
    a generator call.
    """
    g = hits.shape[1]
    counts = [0, 0]
    for i, lam in enumerate((lam_t, lam_r)):
        if lam <= 0.0:
            continue
        if lam <= _SPARSE_MAX_MEAN:
            counts[i] = int(rng.poisson(g * lam))
        else:
            hits[i] |= rng.random(g) < -math.expm1(-lam)
    n_t, n_r = counts
    if n_t + n_r:
        marks = (rng.random(n_t + n_r) * g).astype(np.intp)
        hits[0][marks[:n_t]] = True
        hits[1][marks[n_t:]] = True


def _route(rng: np.random.Generator, hits: np.ndarray, lam_t: float, lam_r: float) -> None:
    """Overwrite the two rows of hits with exclusive event sets: the gates
    where the paired photon is counted in each arm, the first with
    probability 1 - e^(-lam_t) and the second, among the other gates, with
    probability 1 - e^(-lam_r).

    The second row is the event set of mean lam_r with the gates of the
    first removed.
    """
    hits.fill(False)
    _mark_events(rng, hits, lam_t, lam_r)
    np.greater(hits[1], hits[0], out=hits[1])


def _gates_by_stop(
    rng: np.random.Generator, start: float, total_wait: float, g: int, gate: float, stop: float
) -> tuple[int, float]:
    """Gates that end by stop, and the end of the last one, among g gates
    from start whose exponential waits sum to total_wait.

    Given their sum, the first h of g waits sum to total_wait times a
    Beta(h, g - h) variate, and each half's waits are again a scaled flat
    Dirichlet.  So the chunk is halved, keeping the half where the stop
    falls, until a leaf of at most _LEAF gates draws its waits one by one.
    """
    fitted, end = 0, start
    while g > _LEAF:
        h = g // 2
        left_wait = total_wait * rng.beta(h, g - h)
        left_end = start + left_wait + h * gate
        if left_end <= stop:
            fitted, end, start = fitted + h, left_end, left_end
            total_wait, g = total_wait - left_wait, g - h
        else:
            total_wait, g = left_wait, h
    waits = rng.standard_exponential(g)
    waits *= total_wait / waits.sum()
    t_cum = start + np.cumsum(waits + gate)
    n = int(np.searchsorted(t_cum, stop, side="right"))
    return fitted + n, float(t_cum[n - 1]) if n else end


def simulate(cfg: CascadeConfig) -> CountRecord:
    """Run the gated counting experiment and return the counter totals.

    Counters record per-gate indicators, whose probabilities are
    gate_probabilities(cfg).  A chunk of gates draws only the events the
    counters read, each as an event set or-ed into one bool buffer per arm.
    The paired photon is counted in the transmitted arm with probability
    s p_t and in the reflected arm with probability s p_r (_route), with
    p_t = t^2 eps_t, p_r = r^2 eps_r and s = f in 'analytic' mode.  There
    the arrival count adds, to the counted photons, a Binomial draw over
    the other gates at the arrival probability of an uncounted photon.  In
    'physical' mode s = 1, every gate draws the photon's exponential
    delay, and a counted routing stands only where the photon arrived; for
    a > 1 a promotion draw at each routed gate whose delay missed, and a
    Binomial over the other missed gates, complete the arrivals.
    Accidental photons, Poisson with mean N w thinned by
    accidental_collection, split into independent per-arm Poisson streams,
    so each arm's accidental marks are one more event set (_mark_events).
    The coincidence count is that of gates marked in both arms.

    Each gate follows an exponential wait of mean 1 / (N epsilon_1) and
    lasts w.  A chunk of g gates draws its total wait as one
    Gamma(g, 1 / (N epsilon_1)) variate.  Under run_time a chunk fits
    exactly when its total does; the chunk where the stop falls is halved
    by Beta splits of that total down to a leaf of a few hundred gates,
    whose waits are drawn one by one (_gates_by_stop), and
    elapsed_sim_time is the end of the last gate to end by run_time.  The
    joint law of gate count and elapsed time is that of drawing every
    wait.  One generator, seeded with rng_seed, is advanced across the
    chunks, so the run is deterministic for a fixed configuration.
    """
    f = f_omega(cfg)
    analytic = cfg.arrival_mode == "analytic"
    p_t, p_r = _arm_probabilities(cfg)
    wait_scale = 1.0 / (cfg.decay_rate * cfg.epsilon_1)
    # Mean marks per gate of each event set: the paired photon counted in
    # the transmitted arm, else in the reflected one, and the counted
    # accidentals in each arm.
    scale = f if analytic else 1.0
    route_t = _events_lambda(scale * p_t)
    route_r = _events_lambda(scale * p_r / (1.0 - scale * p_t)) if scale * p_t < 1.0 else 0.0
    acc_t, acc_r = _accidental_means(cfg)
    if analytic:
        # Arrival probability at a gate whose paired photon was not counted.
        uncounted = 1.0 - f * (p_t + p_r)
        arrive_uncounted = min(1.0, f * (1.0 - p_t - p_r) / uncounted) if uncounted > 0.0 else 0.0
    else:
        p_short = 1.0 - math.exp(-cfg.gate / cfg.lifetime)
        delay_cut = cfg.gate / cfg.lifetime
        a = cfg.correlation_factor
        promote = 0.0
        if a > 1.0 and p_short < 1.0:
            promote = min(1.0, (a - 1.0) * p_short / (1.0 - p_short))

    rng = np.random.default_rng(cfg.rng_seed)
    n1 = nt = nr = nc = arrivals = 0
    elapsed = 0.0
    remaining = cfg.target_gates
    last = False
    size = _CHUNK if remaining is None else min(_CHUNK, remaining)
    buf = np.empty(2 * size, dtype=bool)

    while not last:
        if remaining is not None:
            if remaining <= 0:
                break
            g = min(_CHUNK, remaining)
        else:
            g = _CHUNK

        # The sum of g exponential waits is Gamma(g, wait_scale).
        total_wait = rng.gamma(g, wait_scale)
        chunk_end = elapsed + (total_wait + g * cfg.gate)
        if remaining is None and chunk_end > cfg.run_time:
            g, chunk_end = _gates_by_stop(rng, elapsed, total_wait, g, cfg.gate, cfg.run_time)
            if g == 0:
                break
            last = True
        elapsed = chunk_end

        hits = buf[: 2 * g].reshape(2, g)
        hit_t, hit_r = hits[0], hits[1]
        _route(rng, hits, route_t, route_r)
        if analytic:
            counted = np.count_nonzero(hits)
            arrivals += counted + int(rng.binomial(g - counted, arrive_uncounted))
        else:
            arrived = rng.standard_exponential(g) < delay_cut
            arrived_count = int(np.count_nonzero(arrived))
            if promote > 0.0:
                # Only a routed gate reads its own promotion draw.
                missed = np.flatnonzero((hit_t | hit_r) > arrived)
                promoted = missed[rng.random(missed.size) < promote]
                arrived[promoted] = True
                unread = g - arrived_count - missed.size
                arrived_count += promoted.size + int(rng.binomial(unread, promote))
            arrivals += arrived_count
            hits &= arrived
        _mark_events(rng, hits, acc_t, acc_r)

        n1 += g
        nt += int(np.count_nonzero(hit_t))
        nr += int(np.count_nonzero(hit_r))
        nc += int(np.count_nonzero(hit_t & hit_r))
        if remaining is not None:
            remaining -= g

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
    """One point of a measured ratio curve, with the vanishing-efficiency
    curve (alpha_analytic) and the exact ratio at the run's arm
    efficiencies (alpha_exact) that the measurement converges to."""

    n_omega: float
    alpha_mc: float
    alpha_analytic: float
    stderr: float
    gates: int
    alpha_exact: float
    elapsed_sim_time: float


def sweep_curve(template: CascadeConfig, n_omega_values) -> list[SweepPoint]:
    """Run the simulation across source rates set by Nw values.

    Each point reuses the template with decay_rate = Nw / w and its own
    child seed, so the whole sweep is deterministic in the template seed.
    A zero Nw point is realized exactly by switching off accidental
    collection, which makes the measured ratio structurally zero; it runs
    at the nominal rate 1 / w, so it does not depend on the other points.
    Under a run_time stop that point then has about the gate count of an
    Nw = 1 point: with epsilon_1 = 0.1 and the points [0, 0.01], about 90
    times the gates of the 0.01 point.  A run_time too short for one
    expected gate at that rate raises ConfigError, as for any other point.
    """
    values = [float(x) for x in n_omega_values]
    if not all(0.0 <= x < math.inf for x in values):  # NaN fails here
        raise ConfigError("Nw values must be nonnegative and finite")
    f = f_omega(template)
    seeds = np.random.SeedSequence(template.rng_seed).generate_state(
        max(len(values), 1), dtype=np.uint64
    )
    points = []
    for x, seed in zip(values, seeds):
        if x == 0.0:
            cfg = replace(
                template, decay_rate=1.0 / template.gate, accidental_collection=0.0, rng_seed=int(seed)
            )
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
                alpha_exact=exact_alpha(cfg),
                elapsed_sim_time=rec.elapsed_sim_time,
            )
        )
    return points
