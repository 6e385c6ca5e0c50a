"""Command-line front end: statistics tables, Monte Carlo runs, beable maps.

Global options (seed, output directory, table format) come before the
subcommand.  Every invocation writes its tables under the output directory
together with a manifest recording the resolved configuration, the seed,
engine versions, the emitted files, and the wall-clock duration.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import beables, cascade, checks, classical, fock, photodetect, svgplot

_DEFAULT_SWEEP = (0.01, 0.05, 0.1, 0.3, 0.9, 3.0)


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer of at least {low}")
        return value

    return integer


def _state_spec(text: str):
    kind, sep, value = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("expected kind:value, e.g. number:1")
    try:
        if kind == "number":
            return fock.NumberState(int(value))
        if kind == "coherent":
            return fock.CoherentState(complex(value))
        if kind == "chaotic":
            return fock.ChaoticState(float(value))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad {kind} value {value!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(f"unknown state kind {kind!r}")


def _describe_state(state) -> str:
    if isinstance(state, fock.NumberState):
        return f"number:{state.n}"
    if isinstance(state, fock.CoherentState):
        return f"coherent:{state.alpha:g}"
    return f"chaotic:{state.u:g}"


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.11e}"
    return str(value)


def _write_table(out_dir: Path, name: str, fmt: str, header: list[str], rows) -> Path:
    # Every run writes a table before any other file, so the output directory
    # is made here, on first write, and a rejected run leaves none.
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [list(row) for row in rows]
    if fmt == "json":
        path = out_dir / f"{name}.json"
        payload = {
            "columns": header,
            "rows": [
                [v.item() if isinstance(v, np.generic) else v for v in row] for row in rows
            ],
        }
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return path
    path = out_dir / f"{name}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
    return path


def _write_manifest(
    out_dir: Path, subcommand: str, config: dict, seed: int, outputs: list[Path], t0: float,
    counters: dict | None = None, results: list[checks.Check] | None = None,
) -> Path:
    payload = {
        "subcommand": subcommand,
        "config": config,
        "rng_seed": seed,
        "engine_versions": {
            "gralab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "outputs": [p.name for p in outputs],
        "duration_seconds": time.monotonic() - t0,
    }
    if counters is not None:
        payload["counters"] = counters
    if results is not None:
        # Strict JSON has no NaN or infinity: a non-finite check value is null.
        payload["checks"] = [
            {**asdict(check), "value": check.value if math.isfinite(check.value) else None}
            for check in results
        ]
    path = out_dir / f"{subcommand}_manifest.json"
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")
    return path


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _seconds_key(config: dict, base: str) -> float | None:
    """Resolve a duration that may be given in seconds or nanoseconds."""
    plain, ns = config.get(base), config.get(f"{base}_ns")
    if plain is not None and ns is not None:
        raise ValueError(f"give {base} or {base}_ns, not both")
    if ns is not None:
        return float(ns) * 1e-9
    return None if plain is None else float(plain)


def cmd_g2(args, out_dir: Path) -> int:
    t0 = time.monotonic()
    bs = fock.BeamSplitter.from_transmittance(args.t2)
    header = ["state", "g2"]
    if args.oracle:
        header += ["oracle", "abs_diff"]
    rows, oracle_runs = [], []
    for state in args.states:
        value = fock.g2(state, bs)
        row = [_describe_state(state), value]
        if args.oracle:
            n_max, _, tail = fock.photon_weights(state, args.n_max)
            check = fock.oracle_g2(state, bs, n_max=n_max)
            row += [check, abs(check - value)]
            oracle_runs.append({"state": row[0], "n_max": n_max, "tail": tail})
        rows.append(row)
    for row in rows:
        print("  ".join(_format_cell(v) if not isinstance(v, str) else v for v in row))
    table = _write_table(out_dir, "g2", args.format, header, rows)
    config = {
        "states": [_describe_state(s) for s in args.states],
        "transmittance": args.t2,
        "oracle": bool(args.oracle),
        "n_max": args.n_max,
    }
    counters = {"oracle": oracle_runs} if args.oracle else None
    _write_manifest(out_dir, "g2", config, args.seed, [table], t0, counters)
    return 0


def cmd_classical(args, out_dir: Path) -> int:
    t0 = time.monotonic()
    rng = np.random.Generator(np.random.PCG64(args.seed))
    scale = args.scale
    # NaN fails the comparison; numpy's samplers would raise their own errors.
    if not 0.0 <= scale < math.inf:
        raise ValueError("intensity scale must be nonnegative and finite")
    if args.law == "constant":
        intensities = np.full(args.samples, scale)
    elif args.law == "uniform":
        intensities = rng.uniform(0.0, 2.0 * scale, args.samples)
    elif args.law == "exponential":
        intensities = rng.exponential(scale, args.samples)
    else:
        intensities = 2.0 * scale * rng.integers(0, 2, args.samples).astype(float)
    ensemble = classical.GateIntensityEnsemble(
        intensities=intensities,
        gate_duration=args.gate,
        alpha_t=args.eff_t,
        alpha_r=args.eff_r,
    )
    p_t, p_r = classical.singles_probabilities(ensemble)
    p_c = classical.coincidence_probability(ensemble)
    alpha = classical.classical_alpha(ensemble)
    print(f"law={args.law} samples={args.samples}")
    print(f"p_t={p_t:.6e} p_r={p_r:.6e} p_c={p_c:.6e}")
    print(f"alpha={alpha:.9f} admissible={ensemble.admissible}")
    header = ["law", "samples", "p_t", "p_r", "p_c", "alpha", "admissible"]
    rows = [[args.law, args.samples, p_t, p_r, p_c, alpha, ensemble.admissible]]
    table = _write_table(out_dir, "classical", args.format, header, rows)
    config = {
        "law": args.law,
        "samples": args.samples,
        "scale": scale,
        "gate_duration": args.gate,
        "alpha_t": args.eff_t,
        "alpha_r": args.eff_r,
    }
    _write_manifest(out_dir, "classical", config, args.seed, [table], t0)
    return 0


# The keys a cascade --config file may set: JSON numbers, then the Nw sweep
# list and the arrival mode.
_CASCADE_NUMBER_KEYS = (
    "lifetime", "lifetime_ns", "gate", "gate_ns", "correlation_factor", "f_target",
    "n_omega", "epsilon_1", "epsilon_t", "epsilon_r", "transmittance", "accidental_collection",
)
_CASCADE_KEYS = (*_CASCADE_NUMBER_KEYS, "n_omega_values", "arrival_mode")


def _is_number(value) -> bool:
    """A JSON number: an int or float, but not a bool (JSON true/false)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_cascade_keys(config: dict) -> None:
    """Reject a key the template does not read or a value of the wrong type."""
    for key, value in config.items():
        if key not in _CASCADE_KEYS:
            raise ValueError(f"unknown config key {key!r}; accepted: {', '.join(_CASCADE_KEYS)}")
        if key in _CASCADE_NUMBER_KEYS and not _is_number(value):
            raise ValueError(f"config key {key!r} must be a number")
    if "n_omega_values" in config:
        points = config["n_omega_values"]
        if not (isinstance(points, list) and points and all(_is_number(x) for x in points)):
            raise ValueError("config key 'n_omega_values' must be a nonempty list of numbers")


def _cascade_template(args) -> tuple[cascade.CascadeConfig, list[float], float]:
    config = _load_config_file(args.config)
    _check_cascade_keys(config)
    lifetime = _seconds_key(config, "lifetime")
    if lifetime is None:
        lifetime = 4.7e-9
    gate = _seconds_key(config, "gate")
    if gate is None:
        gate = 2.0 * lifetime

    a_explicit = config.get("correlation_factor")
    f_target = args.f_target if args.f_target is not None else config.get("f_target")
    if a_explicit is not None and f_target is not None:
        raise ValueError("give correlation_factor or f_target, not both")
    if a_explicit is not None:
        a = float(a_explicit)
    else:
        a = cascade.correlation_for_f(0.9 if f_target is None else float(f_target), lifetime, gate)

    points = args.points if args.points is not None else config.get("n_omega_values")
    points = list(_DEFAULT_SWEEP) if points is None else [float(x) for x in points]
    n_omega = args.n_omega if args.n_omega is not None else float(config.get("n_omega", 0.1))
    if not all(math.isfinite(x) for x in (*points, n_omega)):
        raise ValueError(
            "Nw (--n-omega, --points, config keys 'n_omega', 'n_omega_values') must be finite"
        )
    # The sweep list is read only by a sweep; outside one it would be ignored.
    if not args.sweep and (args.points is not None or "n_omega_values" in config):
        raise ValueError("the Nw list (--points, config key 'n_omega_values') needs --sweep")

    arrival = args.arrival or config.get("arrival_mode", "analytic")
    collection = (
        args.accidental_collection
        if args.accidental_collection is not None
        else float(config.get("accidental_collection", 1.0))
    )
    template = cascade.CascadeConfig(
        decay_rate=(n_omega if n_omega > 0.0 else 1.0) / gate,
        lifetime=lifetime,
        gate=gate,
        correlation_factor=a,
        epsilon_1=float(config.get("epsilon_1", 0.1)),
        epsilon_t=float(config.get("epsilon_t", 0.05)),
        epsilon_r=float(config.get("epsilon_r", 0.05)),
        bs=fock.BeamSplitter.from_transmittance(float(config.get("transmittance", 0.5))),
        accidental_collection=collection,
        arrival_mode=arrival,
        target_gates=args.gates,
        rng_seed=args.seed,
    )
    return template, points, n_omega


def cmd_cascade(args, out_dir: Path) -> int:
    t0 = time.monotonic()
    template, points, n_omega = _cascade_template(args)
    header = ["n_omega", "alpha_mc", "alpha_analytic", "stderr", "gates", "alpha_exact"]
    t_compute = time.monotonic()
    results = cascade.sweep_curve(template, points if args.sweep else [n_omega])
    compute_s = time.monotonic() - t_compute
    rows = [
        [p.n_omega, p.alpha_mc, p.alpha_analytic, p.stderr, p.gates, p.alpha_exact]
        for p in results
    ]
    for p in results:
        print(
            f"Nw={p.n_omega:g} alpha={p.alpha_mc:.6f} +- {p.stderr:.6f} "
            f"(analytic {p.alpha_analytic:.6f}, {p.gates} gates)"
        )
    outputs = [_write_table(out_dir, "cascade_curve", args.format, header, rows)]

    f = cascade.f_omega(template)
    xs = np.logspace(-3.0, 1.0, 181)
    series = [
        svgplot.Series(
            x=list(xs), y=[cascade.g2_analytic(float(x), f) for x in xs], label="analytic"
        )
    ]
    shown = [p for p in results if p.n_omega > 0.0]
    if shown:
        series.append(
            svgplot.Series(
                x=[p.n_omega for p in shown],
                y=[p.alpha_mc for p in shown],
                yerr=[p.stderr for p in shown],
                label="measured",
                mode="points",
            )
        )
    # The exact ratio at the run's efficiencies, which the measurement converges to.
    exact = [cascade.exact_alpha(replace(template, decay_rate=float(x) / template.gate)) for x in xs]
    series.append(svgplot.Series(x=list(xs), y=exact, label="exact"))
    svg = out_dir / "cascade_curve.svg"
    svgplot.line_plot(
        svg,
        series,
        title=f"Coincidence ratio, f = {f:.3f}",
        xlabel="N w",
        ylabel="alpha",
        logx=True,
    )
    outputs.append(svg)

    config = asdict(template)
    config["n_omega_values" if args.sweep else "n_omega"] = points if args.sweep else n_omega
    gates = sum(p.gates for p in results)
    counters = {
        "cascade": {
            "gates": gates,
            "compute_seconds": compute_s,
            "gates_per_s": gates / compute_s,
            "elapsed_sim_time": [p.elapsed_sim_time for p in results],
        }
    }
    _write_manifest(out_dir, "cascade", config, args.seed, outputs, t0, counters)
    return 0


def _beables_pair(args) -> beables.ModePair:
    pair = beables.ModePair.single_frequency(args.amp, phase_b=args.phase_b or 0.0, k0=args.k0)
    if args.amp_b is None and args.phase_a is None:
        return pair
    # Off the manifold: the same beams with their own amplitude and phase.
    return replace(
        pair,
        amp_b=args.amp if args.amp_b is None else args.amp_b,
        phase_a=0.0 if args.phase_a is None else args.phase_a,
    )


_FIELD_HEADER = [
    "s",
    "a_x", "a_y", "a_z",
    "e_x", "e_y", "e_z",
    "b_x", "b_y", "b_z",
    "i_x", "i_y", "i_z",
]


def _report(results: list[checks.Check]) -> bool:
    """Print one line per check and return whether all of them passed."""
    for check in results:
        tag = "ok" if check.passed else "FAIL"
        print(f"[{tag}] {check.label}: {check.value:.3e} (bound {check.bound:.1e})")
    return all(check.passed for check in results)


def cmd_beables(args, out_dir: Path) -> int:
    t0 = time.monotonic()
    if args.sweep and args.region == 1:
        raise ValueError("--sweep is the region-2 phase sweep and needs --region 2")
    pair = _beables_pair(args)
    vacuum = None
    if args.vacuum > 0:
        rng = np.random.Generator(np.random.PCG64(args.seed))
        # Background modes share the beam wavenumber, tilted off both beams.
        angles = np.linspace(0.2, 1.2, args.vacuum)
        k_vectors = pair.k0 * np.stack(
            [np.cos(angles), np.sin(angles) / math.sqrt(2.0), np.sin(angles) / math.sqrt(2.0)],
            axis=1,
        )
        k_vectors /= np.linalg.norm(k_vectors, axis=1, keepdims=True) / pair.k0
        raw = np.cross(k_vectors, np.array([0.0, 0.0, 1.0]))
        pols = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        vacuum = beables.VacuumModes.sample_ground_state(k_vectors, pols, rng)
    config = {
        "region": args.region,
        "amp_a": pair.amp_a,
        "amp_b": pair.amp_b,
        "k0": pair.k0,
        "volume": args.volume,
        "samples": args.samples,
        "vacuum_modes": args.vacuum,
        "check": bool(args.check),
    }
    outputs, results = [], None
    if args.region == 1:
        config.update(phase_a=pair.phase_a, phase_b=pair.phase_b, periods=args.periods)
        omega = max(beables.mode_frequencies(pair))
        trajectory = beables.integrate_region1(pair, args.periods * 2.0 * math.pi / omega)
        rows = [
            [t, q_a.real, q_a.imag, q_b.real, q_b.imag]
            for t, q_a, q_b in zip(trajectory.times, trajectory.q_a, trajectory.q_b)
        ]
        header = ["t", "re_q_a", "im_q_a", "re_q_b", "im_q_b"]
        outputs.append(_write_table(out_dir, "trajectory", args.format, header, rows))
    else:
        config.update(phi=args.phi, sweep=bool(args.sweep))

    if args.region == 2 and args.sweep:
        phis = np.linspace(0.0, 2.0 * math.pi, 72, endpoint=False)
        i_c, i_d = beables.beam_intensity_curves(pair, phis, args.volume)
        rows = list(zip(phis, i_c, i_d))
        outputs.append(
            _write_table(out_dir, "visibility", args.format, ["phi", "i_c", "i_d"], rows)
        )
        svg = out_dir / "visibility.svg"
        svgplot.line_plot(
            svg,
            [
                svgplot.Series(x=list(phis), y=list(i_c), label="beam c"),
                svgplot.Series(x=list(phis), y=list(i_d), label="beam d"),
            ],
            title="Averaged output intensities",
            xlabel="phi",
            ylabel="intensity",
        )
        outputs.append(svg)
        print(f"visibility c={beables.visibility(i_c):.12f} d={beables.visibility(i_d):.12f}")
        if args.check:
            results = checks.fringes(i_c, i_d)
    else:
        # Frames along the diagonal of the two beam directions, from one batched call.
        direction = pair.k_a / np.linalg.norm(pair.k_a) + pair.k_b / np.linalg.norm(pair.k_b)
        direction = direction / np.linalg.norm(direction)
        s = np.linspace(0.0, 4.0 * math.pi / pair.k0, args.samples)
        points = s[:, None] * direction
        if args.region == 1:
            frame = beables.beables_region1(pair, points, 0.0, args.volume, vacuum)
        else:
            frame = beables.beables_region2(pair, args.phi, points, 0.0, args.volume, vacuum)
        columns = (frame.vector_potential, frame.electric_field, frame.magnetic_field, frame.intensity)
        field_rows = np.column_stack((s,) + columns).tolist()
        outputs.append(_write_table(out_dir, "fields", args.format, _FIELD_HEADER, field_rows))
        if args.region == 1:
            svg = out_dir / "fields.svg"
            svgplot.line_plot(
                svg,
                [
                    svgplot.Series(x=list(s), y=[row[3] for row in field_rows], label="A_z"),
                    svgplot.Series(x=list(s), y=[row[6] for row in field_rows], label="E_z"),
                    svgplot.Series(
                        x=list(s),
                        y=[math.hypot(row[10], row[11]) for row in field_rows],
                        label="|I|",
                    ),
                ],
                title="Divided-region beables along the beam diagonal",
                xlabel="s",
                ylabel="field",
            )
            outputs.append(svg)
        if args.check and args.region == 1:
            results = checks.region1(pair, args.volume, vacuum)
        elif args.check:
            results = checks.frames(pair, args.phi, checks.RECOMBINED_T, args.volume, vacuum)

    ok = results is None or _report(results)
    _write_manifest(out_dir, "beables", config, args.seed, outputs, t0, results=results)
    return 0 if ok else 1


def cmd_photodetect(args, out_dir: Path) -> int:
    t0 = time.monotonic()
    if not 0.0 < args.k_max < math.inf:
        raise ValueError("spectrum wavenumber range must be positive and finite")
    cfg = photodetect.DetectorAtomConfig(k0=args.k0, phi=args.phi)
    # Rejects a photon below the binding energy before any file is written.
    k_res = photodetect.resonant_wavenumber(cfg)
    outputs = []

    k_grid = np.linspace(0.0, args.k_max, args.samples)
    mismatch = photodetect.energy_mismatch(cfg, k_grid)
    eta2 = np.abs(photodetect.eta(cfg, k_grid, args.time)) ** 2
    rows = list(zip(k_grid, mismatch, eta2))
    outputs.append(
        _write_table(out_dir, "spectrum", args.format, ["k_en", "e_mismatch", "eta2"], rows)
    )

    t_grid = np.linspace(0.0, args.time, 81)
    growth = [float(np.abs(photodetect.eta(cfg, k_res, t)) ** 2) for t in t_grid]
    outputs.append(
        _write_table(out_dir, "growth", args.format, ["t", "eta2_resonant"], list(zip(t_grid, growth)))
    )

    svg = out_dir / "spectrum.svg"
    svgplot.line_plot(
        svg,
        [svgplot.Series(x=list(mismatch), y=list(eta2), label="|eta|^2")],
        title=f"Ejection spectrum after t = {args.time:g}",
        xlabel="energy mismatch",
        ylabel="|eta|^2",
    )
    outputs.append(svg)

    report = photodetect.absorption_matrix_element_check(
        photodetect.split_photon_state(args.phi, args.n_max), k0=args.k0
    )
    vacuum = report.vacuum_amplitude
    selection = {**asdict(report), "vacuum_amplitude": [vacuum.real, vacuum.imag]}
    selection_path = out_dir / "selection.json"
    selection_path.write_text(json.dumps(selection, indent=2) + "\n", encoding="utf-8")
    outputs.append(selection_path)

    results = checks.absorption(report)
    ok = _report(results)
    if report.amplitude_vanishes:
        print("note: the two path amplitudes cancel at this phase; no absorption")
    print(f"resonant wavenumber k_en = {k_res:g}")

    config = {
        "k0": args.k0,
        "phi": args.phi,
        "time": args.time,
        "k_max": args.k_max,
        "samples": args.samples,
        "n_max": args.n_max,
    }
    _write_manifest(out_dir, "photodetect", config, args.seed, outputs, t0, results=results)
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gralab",
        description="Single-photon splitter statistics, gated-cascade counting, "
        "and causal field-beable dynamics.",
    )
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument("--out-dir", default=None, help="output directory (default $GRALAB_OUT_DIR or ./out)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="table format")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("g2", help="closed-form coincidence ratios, optionally cross-checked")
    p.add_argument("states", type=_state_spec, nargs="+", metavar="KIND:VALUE")
    p.add_argument("--t2", type=float, default=0.5, help="splitter transmittance t^2")
    p.add_argument("--oracle", action="store_true", help="cross-check against the Fock oracle")
    p.add_argument("--n-max", type=_int_at_least(1), default=None, help="oracle cutoff override")
    p.set_defaults(func=cmd_g2)

    p = sub.add_parser("classical", help="gate-averaged semiclassical intensity model")
    p.add_argument("--law", choices=("constant", "uniform", "exponential", "two-point"), default="uniform")
    p.add_argument("--samples", type=_int_at_least(1), default=10000)
    p.add_argument("--scale", type=float, default=1.0, help="mean intensity scale")
    p.add_argument("--gate", type=float, default=1.0, help="gate duration")
    p.add_argument("--eff-t", type=float, default=0.1, help="transmitted detector coefficient")
    p.add_argument("--eff-r", type=float, default=0.1, help="reflected detector coefficient")
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("cascade", help="gated-cascade Monte Carlo versus the analytic ratio")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--sweep", action="store_true", help="run the full Nw sweep")
    p.add_argument("--gates", type=_int_at_least(1), default=100000, help="gates per point")
    p.add_argument("--n-omega", type=float, default=None, help="single-point Nw")
    p.add_argument("--f-target", type=float, default=None, help="paired-photon arrival probability")
    p.add_argument(
        "--points",
        type=lambda s: [float(x) for x in s.split(",")],
        default=None,
        help="comma-separated Nw sweep values",
    )
    p.add_argument("--arrival", choices=("analytic", "physical"), default=None)
    p.add_argument("--accidental-collection", type=float, default=None)
    p.set_defaults(func=cmd_cascade)

    p = sub.add_parser("beables", help="field-beable trajectories, maps, and checks")
    p.add_argument("--region", type=int, choices=(1, 2), default=1)
    p.add_argument("--phi", type=float, default=math.pi / 2.0, help="interferometer phase")
    p.add_argument("--amp", type=float, default=1.0, help="mode amplitude")
    p.add_argument("--amp-b", type=float, default=None, help="second amplitude (off-manifold)")
    p.add_argument("--phase-a", type=float, default=None, help="first phase (off-manifold)")
    p.add_argument("--phase-b", type=float, default=None, help="second phase")
    p.add_argument("--k0", type=float, default=1.0, help="beam wavenumber")
    p.add_argument("--volume", type=float, default=1.0)
    p.add_argument("--periods", type=float, default=1.0, help="trajectory length in cycles")
    p.add_argument("--samples", type=_int_at_least(1), default=257, help="spatial samples")
    p.add_argument("--vacuum", type=_int_at_least(0), default=0, help="number of background modes to sample")
    p.add_argument("--sweep", action="store_true", help="region 2: phase sweep and visibility")
    p.add_argument("--check", action="store_true", help="run consistency checks")
    p.set_defaults(func=cmd_beables)

    p = sub.add_parser("photodetect", help="detector-atom ejection amplitude and selection rule")
    p.add_argument("--k0", type=float, default=1.0, help="monitored mode wavenumber")
    p.add_argument("--phi", type=float, default=0.0, help="interferometer phase")
    p.add_argument("--time", type=float, default=20.0, help="exposure time")
    p.add_argument("--k-max", type=float, default=3.0, help="spectrum wavenumber range")
    p.add_argument("--samples", type=_int_at_least(1), default=400)
    p.add_argument("--n-max", type=_int_at_least(1), default=8, help="selection-scan cutoff")
    p.set_defaults(func=cmd_photodetect)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir or os.environ.get("GRALAB_OUT_DIR") or "out")
    try:
        return args.func(args, out_dir)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
