"""The four benchmark workloads.

Each workload turns (seed, pass index) into a deterministic list of
operations whose inputs are already built, runs one operation (the only
part that is timed), and checks its output with ``checks``.  A pass is
one trip through the workload's fixed mix of operation kinds, in an
order shuffled from the seed.

Why these workloads:

* ``mc-sweep`` spends nearly all its time in the per-gate sampler of
  ``cascade.simulate``; ``fock`` and ``beables`` are bypassed.
* ``oracle-ladder`` spans oracle cutoffs from 10 to 129, so the working
  set grows from kilobytes to about 35 MB: the median measures per-call
  overhead and the tail measures matrix products and memory.
* ``field-maps`` evaluates field beables one point at a time, the way
  the command line samples them; ``cascade`` and ``fock`` are bypassed.
* ``cli-readme`` runs the README command lines in fresh processes, so it
  pays interpreter start, imports and first calls on small inputs, the
  opposite of the batch workloads above.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shlex
import shutil
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks


@dataclass
class Op:
    kind: str
    args: dict = field(default_factory=dict)
    number: int = -1


def pass_rng(seed: int, index: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, salt])


class Workload:
    name = ""
    salt = 0
    ops_per_pass = 0
    # Passes always run, however fast the program: enough operations for
    # the tail percentile the workload reports (see run.tail_percentile).
    min_passes = 1
    work_label = ""

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        # Correctness and diagnostic values reported by traced runs: name -> (value, unit).
        self.extra: dict[str, tuple[float, str]] = {}

    def prepare(self) -> None:
        """Import gralab, build the first pass's inputs and warm up."""
        import gralab  # noqa: F401
        import gralab.cli  # noqa: F401

        ops = self.make_pass(0)
        for op in self.warmup_ops(ops):
            self.before(op)
            self.check(op, self.run(op))

    def before(self, op: Op) -> None:
        """Untimed set-up of one operation, just before it runs."""

    def warmup_ops(self, ops: list[Op]) -> list[Op]:
        """One operation of each kind, the first of that kind in the pass."""
        first = {}
        for op in ops:
            first.setdefault(op.kind, op)
        return list(first.values())

    def make_pass(self, index: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> list[str]:
        raise NotImplementedError

    def work(self, op: Op, result) -> int:
        return 1

    def finish(self) -> dict[int, list[str]]:
        """Checks over the whole run; returns problems by operation number."""
        return {}

    def _worst(self, name: str, value: float) -> None:
        """Keep the largest value seen of a correctness metric (unit 1)."""
        self.extra[name] = (max(self.extra.get(name, (0.0, "1"))[0], value), "1")

    def _shuffled(self, ops: list[Op], rng: np.random.Generator) -> list[Op]:
        return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------- mc-sweep

F_TARGET = 0.9
LIFETIME = 4.7e-9
GATE = 2.0 * LIFETIME
N_OMEGA = (0.0, 0.01, 0.05, 0.1, 0.3, 0.9, 3.0)
MODES = ("analytic", "physical")
EPS_TRIGGER = 0.1
EPS_ARM = 0.05
P_ARM = 0.5 * EPS_ARM  # balanced splitter: t^2 eps_t = r^2 eps_r
# A few 65 536-gate chunks up to about fifteen per operation.  Every pass
# gives each (Nw, mode) point the same count, so the seed changes only the
# random streams and the order, not the cost of a pass.
GATE_COUNTS = np.random.default_rng(0).permutation(
    np.linspace(300_000, 1_000_000, len(N_OMEGA) * len(MODES)).round().astype(int)
)


class McSweep(Workload):
    name = "mc-sweep"
    salt = 1
    ops_per_pass = len(N_OMEGA) * len(MODES)
    min_passes = 8
    work_label = "gates_per_s"

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.pooled: dict[tuple, dict] = {}
        self.covered = self.judged = 0

    def make_pass(self, index):
        from gralab import cascade, fock

        rng = pass_rng(self.seed, index, self.salt)
        bs = fock.BeamSplitter.from_transmittance(0.5)
        a = F_TARGET / (1.0 - math.exp(-GATE / LIFETIME))
        ops = []
        for i, (j, k) in enumerate(np.ndindex(len(N_OMEGA), len(MODES))):
            n_omega, mode = N_OMEGA[j], MODES[k]
            gates = int(GATE_COUNTS[i])
            # Nw = 0 keeps a nominal source rate and switches collection off.
            rate = (n_omega if n_omega > 0.0 else 1.0) / GATE
            stop = {"target_gates": gates}
            # Half of each pass stops on source time, alternating the mode.
            if (index + j + k) % 2:
                stop = {"run_time": gates * (1.0 / (rate * EPS_TRIGGER) + GATE)}
            cfg = cascade.CascadeConfig(
                decay_rate=rate,
                lifetime=LIFETIME,
                gate=GATE,
                correlation_factor=a,
                epsilon_1=EPS_TRIGGER,
                epsilon_t=EPS_ARM,
                epsilon_r=EPS_ARM,
                bs=bs,
                accidental_collection=1.0 if n_omega > 0.0 else 0.0,
                arrival_mode=mode,
                rng_seed=int(rng.integers(2**62)),
                **stop,
            )
            ops.append(Op("cascade", {"cfg": cfg, "n_omega": n_omega}))
        return self._shuffled(ops, rng)

    def warmup_ops(self, ops):
        # Both arrival modes at the highest Nw, cut to two chunks.
        return [
            Op("cascade", {"cfg": replace(op.args["cfg"], run_time=None, target_gates=70_000), "n_omega": 3.0})
            for op in ops
            if op.args["n_omega"] == 3.0
        ]

    def run(self, op):
        from gralab import cascade

        return cascade.simulate(op.args["cfg"])

    def check(self, op, rec):
        from gralab import cascade

        cfg, n_omega = op.args["cfg"], op.args["n_omega"]
        problems = checks.check_cascade_record(rec, n_omega, cfg.target_gates, cfg.run_time)
        if n_omega > 0.0 and op.number >= 0:
            point = self.pooled.setdefault(
                (n_omega, cfg.arrival_mode), {"n1": 0, "nt": 0, "nr": 0, "nc": 0, "ops": []}
            )
            point["n1"] += rec.n1_counts
            point["nt"] += rec.nt_counts
            point["nr"] += rec.nr_counts
            point["nc"] += rec.nc_counts
            point["ops"].append(op.number)
            # Calibration of the program's own per-run error bar, reported
            # but not gated: it scales with the observed count.
            self.judged += 1
            if rec.nt_counts and rec.nr_counts:
                err = abs(cascade.measured_alpha(rec) - self.exact(n_omega))
                self.covered += err <= 3.0 * cascade.alpha_stderr(rec)
        return problems

    def work(self, op, rec):
        return rec.total_gates

    @staticmethod
    def exact(n_omega: float) -> float:
        return checks.exact_alpha(F_TARGET, n_omega, 1.0, P_ARM, P_ARM)

    def finish(self):
        problems: dict[int, list[str]] = {}
        z_max = 0.0
        for (n_omega, mode), point in sorted(self.pooled.items()):
            z = checks.pooled_z(point, F_TARGET, n_omega, 1.0, P_ARM, P_ARM)
            z_max = max(z_max, abs(z))
            if not abs(z) <= checks.POOLED_Z_MAX:
                for number in point["ops"]:
                    problems.setdefault(number, []).append(
                        f"pooled alpha at Nw={n_omega:g} ({mode}) is {z:+.2f} sigma from exact"
                    )
        self.extra["cascade.alpha_z_pooled_max"] = (z_max, "sigma")
        self.extra["cascade.stderr_coverage"] = (self.covered / self.judged if self.judged else 0.0, "ratio")
        return problems


# ----------------------------------------------------------- oracle-ladder

# (kind, value, explicit cutoff or None for the default), run at each
# transmittance.  Coherent states take cutoff 40 at the first transmittance
# and their default (up to 49) at the second.  Number states are just over
# half of a pass, so the median is a small call and the 90th percentile a
# cutoff-100 mixture.
TRANSMITTANCES = (0.5, 0.7)
LADDER = {
    t2: [("number", n, None) for n in range(1, 11)]
    + [("coherent", amp, 40 if t2 == TRANSMITTANCES[0] else None)
       for amp in (0.7, 1.5, math.sqrt(5.0), 3.0)]
    + [("chaotic", u, None) for u in (0.3, 0.5, 0.7, 0.8)]
    + [("chaotic", 0.7, 100)]
    for t2 in TRANSMITTANCES
}


class OracleLadder(Workload):
    name = "oracle-ladder"
    salt = 2
    ops_per_pass = sum(len(states) for states in LADDER.values())
    min_passes = 3
    work_label = "oracle_checks_per_s"

    def make_pass(self, index):
        from gralab import fock

        rng = pass_rng(self.seed, index, self.salt)
        ops = []
        for t2, states in LADDER.items():
            bs = fock.BeamSplitter.from_transmittance(t2)
            for kind, value, cut in states:
                if kind == "number":
                    state = fock.NumberState(value)
                elif kind == "coherent":
                    state = fock.CoherentState(value * complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))))
                else:
                    state = fock.ChaoticState(value)
                ops.append(Op(kind, {"value": value, "state": state, "bs": bs, "n_max": cut}))
        return self._shuffled(ops, rng)

    def warmup_ops(self, ops):
        # The smallest member of each kind large enough to reach the BLAS
        # kernels the ladder uses: n = 10, coherent at cutoff 40, u = 0.5.
        wanted = {("number", 10, None), ("coherent", 1.5, 40), ("chaotic", 0.5, None)}
        picked = {}
        for op in ops:
            if (op.kind, op.args["value"], op.args["n_max"]) in wanted:
                picked.setdefault(op.kind, op)
        return list(picked.values())

    def run(self, op):
        from gralab import fock

        a = op.args
        return fock.g2(a["state"], a["bs"]), fock.oracle_g2(a["state"], a["bs"], n_max=a["n_max"])

    def check(self, op, result):
        g2, oracle = result
        self._worst("fock.oracle.max_gap", abs(oracle - g2))
        return checks.check_oracle(op.kind, op.args["value"], g2, oracle)


# -------------------------------------------------------------- field-maps

MAP_SAMPLES = 257
VACUUM_MODES = 16
MAP_KINDS = ("map1", "map1_vac", "map2", "map2_vac", "map2_half_vac")
FIELD_KINDS = MAP_KINDS + ("rk4", "energy", "residual")


def vacuum_geometry(k0: float, count: int):
    """Background wave vectors and polarizations, as the command line builds them."""
    angles = np.linspace(0.2, 1.2, count)
    k_vectors = k0 * np.stack(
        [np.cos(angles), np.sin(angles) / math.sqrt(2.0), np.sin(angles) / math.sqrt(2.0)], axis=1
    )
    k_vectors /= np.linalg.norm(k_vectors, axis=1, keepdims=True) / k0
    raw = np.cross(k_vectors, np.array([0.0, 0.0, 1.0]))
    return k_vectors, raw / np.linalg.norm(raw, axis=1, keepdims=True)


def diagonal_points(pair, samples: int = MAP_SAMPLES) -> np.ndarray:
    """Points along the diagonal of the two beam directions, as the CLI samples them."""
    direction = pair.k_a / np.linalg.norm(pair.k_a) + pair.k_b / np.linalg.norm(pair.k_b)
    direction = direction / np.linalg.norm(direction)
    return np.linspace(0.0, 4.0 * math.pi / pair.k0, samples)[:, None] * direction


def pair_params(pair, region: int, phi, volume: float, vacuum) -> dict:
    """Plain description of a field configuration for checks.reference_fields."""
    return {
        "region": region, "phi": phi, "volume": volume,
        "amp_a": pair.amp_a, "amp_b": pair.amp_b,
        "phase_a": pair.phase_a, "phase_b": pair.phase_b,
        "k_a": pair.k_a, "k_b": pair.k_b, "pol_a": pair.pol_a, "pol_b": pair.pol_b,
        "vacuum": None if vacuum is None else {
            "k_vectors": vacuum.k_vectors, "pols": vacuum.pols, "coords": vacuum.coords,
        },
    }


class FieldMaps(Workload):
    name = "field-maps"
    salt = 3
    ops_per_pass = len(FIELD_KINDS)
    min_passes = 13
    work_label = "frames_per_s"

    def _pair(self, rng, rigid: bool):
        from gralab import beables

        amp = rng.uniform(0.8, 1.25)
        phase_b = rng.uniform(0.0, 2.0 * math.pi)
        if rigid:
            return beables.ModePair.single_frequency(amp, phase_b=phase_b)
        return beables.ModePair(
            amp_a=amp,
            amp_b=rng.uniform(0.8, 1.25),
            phase_a=phase_b + math.pi / 2.0 + rng.uniform(-0.5, 0.5),
            phase_b=phase_b,
        )

    def make_pass(self, index):
        from gralab import beables

        rng = pass_rng(self.seed, index, self.salt)
        ops = []
        for kind in FIELD_KINDS:
            if kind in MAP_KINDS:
                pair = self._pair(rng, rigid=True)
                region = 1 if kind.startswith("map1") else 2
                phi = None
                if region == 2:
                    phi = math.pi / 2.0 if "half" in kind else rng.uniform(0.0, 2.0 * math.pi)
                volume = rng.uniform(2.0, 4.0) if "half" in kind else rng.uniform(0.5, 4.0)
                vacuum = None
                if kind.endswith("vac"):
                    k_vectors, pols = vacuum_geometry(pair.k0, VACUUM_MODES)
                    vacuum = beables.VacuumModes.sample_ground_state(k_vectors, pols, rng)
                period = 2.0 * math.pi / max(beables.mode_frequencies(pair))
                points = diagonal_points(pair)
                ops.append(Op(kind, {
                    "pair": pair, "region": region, "phi": phi, "volume": volume,
                    "vacuum": vacuum, "t": rng.uniform(0.0, period), "points": points,
                    "probe": points[int(rng.integers(MAP_SAMPLES))],
                }))
            else:
                # The residual is checked off the rigid-rotation manifold too;
                # the energy drift is not, because off it the finite-difference
                # quantum potential alone reaches 7e-6 of the 1e-5 bound.
                pair = self._pair(rng, rigid=kind != "residual")
                period = 2.0 * math.pi / max(beables.mode_frequencies(pair))
                ops.append(Op(kind, {"pair": pair, "period": period}))
        return self._shuffled(ops, rng)

    def run(self, op):
        from gralab import beables

        a = op.args
        pair = a["pair"]
        if op.kind == "rk4":
            return beables.integrate_region1(pair, a["period"])
        if op.kind == "energy":
            return [beables.total_energy(pair, t) for t in np.linspace(0.0, a["period"], 5)]
        if op.kind == "residual":
            return [beables.wave_equation_residual(pair, f * a["period"]) for f in (0.0, 0.3, 0.6)]
        t, volume, vacuum = a["t"], a["volume"], a["vacuum"]
        if a["region"] == 1:
            frames = [beables.beables_region1(pair, x, t, volume, vacuum) for x in a["points"]]
            consistency = beables.frame_consistency_region1(pair, a["probe"], t, volume, vacuum)
        else:
            phi = a["phi"]
            frames = [beables.beables_region2(pair, phi, x, t, volume, vacuum) for x in a["points"]]
            consistency = beables.frame_consistency_region2(pair, phi, a["probe"], t, volume, vacuum)
        return frames, consistency

    def check(self, op, result):
        a = op.args
        pair = a["pair"]
        if op.kind == "rk4":
            ref_a, ref_b = checks.closed_orbit(pair.amp_a, pair.phase_a, pair.amp_b, pair.phase_b, result.times)
            error = checks.rk4_error(result.q_a, result.q_b, ref_a, ref_b, max(pair.amp_a, pair.amp_b))
            self._worst("beables.rk4_max_error", error)
            return checks.check_rk4(error)
        if op.kind == "energy":
            drift = checks.energy_drift(result)
            self._worst("beables.energy_drift_max", drift)
            return checks.check_energy(drift)
        if op.kind == "residual":
            return checks.check_residual(result)
        frames, consistency = result
        fields = [np.array([getattr(fr, name) for fr in frames]) for name in
                  ("vector_potential", "electric_field", "magnetic_field", "intensity")]
        params = pair_params(pair, a["region"], a["phi"], a["volume"], a["vacuum"])
        return checks.check_field_map(params, a["points"], a["t"], *fields, consistency)

    def work(self, op, result):
        return MAP_SAMPLES if op.kind in MAP_KINDS else 0

    def finish(self):
        """Measure (not gate) whether region II at phi = pi/2 reduces to region I."""
        from gralab import beables

        rng = pass_rng(self.seed, 0, 100 + self.salt)
        pair = self._pair(rng, rigid=True)
        k_vectors, pols = vacuum_geometry(pair.k0, VACUUM_MODES)
        vacuum = beables.VacuumModes.sample_ground_state(k_vectors, pols, rng)
        t, volume = rng.uniform(0.0, 1.0), 4.0
        names = ("vector_potential", "electric_field", "magnetic_field", "intensity")
        one, two = [], []
        for x in diagonal_points(pair):
            one.append(beables.beables_region1(pair, x, t, volume, vacuum))
            two.append(beables.beables_region2(pair, math.pi / 2.0, x, t, volume, vacuum))
        gaps = {
            name: checks.reduction_gap([getattr(f, name) for f in two], [getattr(f, name) for f in one])
            for name in names
        }
        self.extra["beables.region2_reduction_gap"] = (max(gaps.values()), "1")
        self.reduction_gaps = gaps
        return {}


# -------------------------------------------------------------- cli-readme

# The README's command lines, in README order: (label, subcommand, argv).
README_COMMANDS = (
    ("g2", "g2", "g2 number:1 coherent:2 chaotic:0.5 --oracle"),
    ("classical", "classical", "classical --law exponential --samples 20000"),
    ("cascade_sweep", "cascade", "--seed 7 cascade --sweep --gates 1000000"),
    ("cascade_point", "cascade", "cascade --n-omega 0.1 --f-target 0.9 --gates 100000"),
    ("beables_region1", "beables", "beables --region 1 --check"),
    ("beables_region2_sweep", "beables", "beables --region 2 --sweep --check"),
    ("photodetect", "photodetect", "photodetect --phi 0 --time 20"),
)


class CliReadme(Workload):
    """Each command runs in a fresh ``python -m gralab.cli`` process (timed
    runs) or through ``gralab.cli.main`` in this process (traced runs)."""

    name = "cli-readme"
    salt = 4
    ops_per_pass = len(README_COMMANDS)
    min_passes = 3
    work_label = "commands_per_s"
    in_process = False

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.out_root = root / "perfbench" / "out" / f"cli-{os.getpid()}"
        self.bytes_per_pass: dict[int, int] = {}
        self._count = 0

    def make_pass(self, index):
        rng = pass_rng(self.seed, index, self.salt)
        ops = []
        for label, subcommand, line in README_COMMANDS:
            argv = shlex.split(line)
            seed = int(rng.integers(1_000_000))
            if "--seed" not in argv:
                argv = ["--seed", str(seed)] + argv
            ops.append(Op(label, {"subcommand": subcommand, "argv": argv, "pass": index}))
        return ops

    def warmup_ops(self, ops):
        # Timed runs keep every command cold, as users meet them.
        return ops if self.in_process else []

    def _fresh_dir(self) -> Path:
        self._count += 1
        path = self.out_root / str(self._count)
        path.mkdir(parents=True)
        return path

    def run(self, op):
        out_dir = op.args["out_dir"]
        if self.in_process:
            from gralab import cli

            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = cli.main(["--out-dir", str(out_dir)] + op.args["argv"])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
            return code, sink.getvalue()
        env = dict(os.environ, GRALAB_OUT_DIR=str(out_dir))
        proc = subprocess.run(
            [sys.executable, "-m", "gralab.cli"] + op.args["argv"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        return proc.returncode, proc.stderr

    def before(self, op):
        op.args["out_dir"] = self._fresh_dir()

    def check(self, op, result):
        code, text = result
        out_dir = op.args["out_dir"]
        problems = checks.check_cli_run(code, out_dir, op.args["subcommand"])
        if problems and text:
            problems.append(text.strip().splitlines()[-1])
        if op.number >= 0:
            written = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
            index = op.args["pass"]
            self.bytes_per_pass[index] = self.bytes_per_pass.get(index, 0) + written
        shutil.rmtree(out_dir, ignore_errors=True)
        return problems

    def close(self):
        shutil.rmtree(self.out_root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (McSweep, OracleLadder, FieldMaps, CliReadme)}
