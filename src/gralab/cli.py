"""Command-line front end: statistics tables, Monte Carlo runs, beable maps.

Global options (seed, output directory, table format) come before the
subcommand.  Each subcommand computes and returns a ``Run`` record; only
then does ``_write`` make the output directory and write the run's tables,
plots and documents, its stdout lines and a manifest recording the resolved
configuration, the seed, engine versions, the emitted files, and the
wall-clock duration.  A run rejected for bad input writes nothing.
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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import beables, cascade, checks, classical, fock, photodetect, svgplot

def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer of at least {low}")
        return value

    return integer


def _nw_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated numbers, e.g. 0,0.1,0.9") from None


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
    # numpy's float64 is a float, so it takes the float branch too.
    return f"{value:.11e}" if isinstance(value, float) else str(value)


def _write_table(fh, fmt: str, header: list[str], rows) -> None:
    """Write a table as CSV, row by row, or as a JSON object of columns and rows."""
    if fmt == "json":
        fh.write(json.dumps({"columns": header, "rows": rows}, indent=2) + "\n")
        return
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows([_format_cell(v) for v in row] for row in rows)


@dataclass
class Run:
    """Everything one subcommand computed, for ``_write`` to emit.

    ``tables`` holds (name, header, rows), ``plots`` (name, series,
    ``line_plot`` keywords) and ``documents`` (name, JSON object); ``lines``
    are the stdout lines in order.  ``checks`` and ``counters`` go to the
    manifest when set, and a failed check makes the exit status 1.
    """

    config: dict
    tables: list = field(default_factory=list)
    plots: list = field(default_factory=list)
    documents: list = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    checks: list[checks.Check] | None = None
    counters: dict | None = None


def _write(run: Run, args, out_dir: Path, t0: float) -> int:
    """Write a run's files, stdout and manifest; return its exit status."""
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for name, header, rows in run.tables:
        outputs.append(f"{name}.{args.format}")
        with open(out_dir / outputs[-1], "w", newline="", encoding="utf-8") as fh:
            _write_table(fh, args.format, header, rows)
    for name, series, keywords in run.plots:
        outputs.append(f"{name}.svg")
        svgplot.line_plot(out_dir / outputs[-1], series, **keywords)
    for name, document in run.documents:
        outputs.append(f"{name}.json")
        (out_dir / outputs[-1]).write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    for line in run.lines:
        print(line)

    payload = {
        "subcommand": args.command,
        "config": run.config,
        "rng_seed": args.seed,
        "engine_versions": {
            "gralab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "outputs": outputs,
        "duration_seconds": time.monotonic() - t0,
    }
    if run.counters is not None:
        payload["counters"] = run.counters
    if run.checks is not None:
        # Strict JSON has no NaN or infinity: a non-finite check value is null.
        payload["checks"] = [
            {**asdict(check), "value": check.value if math.isfinite(check.value) else None}
            for check in run.checks
        ]
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    (out_dir / f"{args.command}_manifest.json").write_text(text + "\n", encoding="utf-8")
    return 0 if run.checks is None or all(check.passed for check in run.checks) else 1


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def cmd_g2(args) -> Run:
    bs = fock.BeamSplitter.from_transmittance(args.t2)
    header = ["state", "g2"]
    if args.oracle:
        header += ["oracle", "abs_diff"]
    rows, oracle_runs = [], []
    for state in args.states:
        value = fock.g2(state, bs)
        row = [_describe_state(state), value]
        if args.oracle:
            n_max, _, tail = fock.photon_weights(state)
            check = fock.oracle_g2(state, bs, n_max=n_max)
            row += [check, abs(check - value)]
            oracle_runs.append({"state": row[0], "n_max": n_max, "tail": tail})
        rows.append(row)
    config = {
        "states": [_describe_state(s) for s in args.states],
        "transmittance": args.t2,
        "oracle": bool(args.oracle),
    }
    lines = ["  ".join(_format_cell(v) for v in row) for row in rows]
    counters = {"oracle": oracle_runs} if args.oracle else None
    return Run(config, tables=[("g2", header, rows)], lines=lines, counters=counters)


def cmd_classical(args) -> Run:
    rng = np.random.Generator(np.random.PCG64(args.seed))
    scale = args.scale + 0.0  # -0.0 would reach numpy's uniform as high < low
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
    ensemble = classical.GateIntensityEnsemble(intensities=intensities, alpha_t=args.eff_t, alpha_r=args.eff_r)
    p_t, p_r = classical.singles_probabilities(ensemble)
    p_c = classical.coincidence_probability(ensemble)
    alpha = classical.classical_alpha(ensemble)
    header = ["law", "samples", "p_t", "p_r", "p_c", "alpha", "admissible"]
    rows = [[args.law, args.samples, p_t, p_r, p_c, alpha, ensemble.admissible]]
    config = {
        "law": args.law,
        "samples": args.samples,
        "scale": scale,
        "alpha_t": args.eff_t,
        "alpha_r": args.eff_r,
    }
    lines = [
        f"law={args.law} samples={args.samples}",
        f"p_t={p_t:.6e} p_r={p_r:.6e} p_c={p_c:.6e}",
        f"alpha={alpha:.9f} admissible={ensemble.admissible}",
    ]
    return Run(config, tables=[("classical", header, rows)], lines=lines)


# The cascade flags that override a --config file, and the keys they set.
_CASCADE_FLAG_KEYS = {"f_target": "f_target", "points": "n_omega_values", "n_omega": "n_omega",
                      "arrival": "arrival_mode"}


def cmd_cascade(args) -> Run:
    overrides = {key: v for flag, key in _CASCADE_FLAG_KEYS.items() if (v := getattr(args, flag)) is not None}
    template, points, n_omega = cascade.template_from(
        _load_config_file(args.config), overrides, sweep=args.sweep, target_gates=args.gates, rng_seed=args.seed
    )
    header = ["n_omega", "alpha_mc", "alpha_analytic", "stderr", "gates", "alpha_exact"]
    t_compute = time.monotonic()
    results = cascade.sweep_curve(template, points if args.sweep else [n_omega])
    compute_s = time.monotonic() - t_compute
    rows = [
        [p.n_omega, p.alpha_mc, p.alpha_analytic, p.stderr, p.gates, p.alpha_exact]
        for p in results
    ]
    lines = [
        f"Nw={p.n_omega:g} alpha={p.alpha_mc:.6f} +- {p.stderr:.6f} "
        f"(analytic {p.alpha_analytic:.6f}, {p.gates} gates)"
        for p in results
    ]

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
    plot = dict(title=f"Coincidence ratio, f = {f:.3f}", xlabel="N w", ylabel="alpha", logx=True)

    config = asdict(template)
    config[_CASCADE_FLAG_KEYS["points" if args.sweep else "n_omega"]] = points if args.sweep else n_omega
    gates = sum(p.gates for p in results)
    counters = {
        "cascade": {
            "gates": gates,
            "compute_seconds": compute_s,
            "gates_per_s": gates / compute_s,
            "elapsed_sim_time": [p.elapsed_sim_time for p in results],
        }
    }
    tables, plots = [("cascade_curve", header, rows)], [("cascade_curve", series, plot)]
    return Run(config, tables=tables, plots=plots, lines=lines, counters=counters)


# Arc length, then the x, y, z components of A, E, B and the intensity I.
_FIELD_HEADER = ["s", *(f"{name}_{axis}" for name in "aebi" for axis in "xyz")]


def _report(results: list[checks.Check]) -> list[str]:
    """One stdout line per check: its verdict, value and bound."""
    return [
        f"[{'ok' if check.passed else 'FAIL'}] {check.label}: {check.value:.3e} "
        f"(bound {check.bound:.1e})"
        for check in results
    ]


def cmd_beables(args) -> Run:
    if args.sweep and args.region == 1:
        raise ValueError("--sweep is the region-2 phase sweep and needs --region 2")
    # A flag the run would not read is refused, not ignored; None is a flag not given.
    if args.periods is not None and args.region == 2:
        raise ValueError("--periods sets the region-1 trajectory and is not read in region 2")
    for flag, value in (("--samples", args.samples), ("--vacuum", args.vacuum)):
        if value is not None and args.sweep:
            raise ValueError(f"{flag} sets the field map, which --sweep does not draw")
    periods = 1.0 if args.periods is None else args.periods
    samples = 257 if args.samples is None else args.samples
    n_vacuum = args.vacuum or 0
    pair = beables.ModePair.single_frequency(args.amp, phase_b=args.phase_b, k0=args.k0)
    # The divided region is phi None, as in gralab.beables and gralab.checks.
    phi = None if args.region == 1 else args.phi
    if not (phi is None or math.isfinite(phi)):  # a sweep reads no phase, but records it
        raise ValueError("interferometer phase must be finite")
    vacuum = None
    if n_vacuum > 0:
        rng = np.random.Generator(np.random.PCG64(args.seed))
        # Background modes share the beam wavenumber, tilted off both beams.
        angles = np.linspace(0.2, 1.2, n_vacuum)
        k_vectors = pair.k0 * np.stack(
            [np.cos(angles), np.sin(angles) / math.sqrt(2.0), np.sin(angles) / math.sqrt(2.0)],
            axis=1,
        )
        k_vectors /= np.linalg.norm(k_vectors, axis=1, keepdims=True) / pair.k0
        raw = np.cross(k_vectors, np.array([0.0, 0.0, 1.0]))
        pols = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        vacuum = beables.VacuumModes.sample_ground_state(k_vectors, pols, rng)
    config = {"region": args.region, "amp_a": pair.amp_a, "amp_b": pair.amp_b, "k0": pair.k0,
              "samples": samples, "vacuum_modes": n_vacuum, "check": bool(args.check)}
    run = Run(config)
    if phi is None:
        config.update(phase_a=pair.phase_a, phase_b=pair.phase_b, periods=periods)
        omega = max(beables.mode_frequencies(pair))
        trajectory = beables.integrate_region1(pair, periods * 2.0 * math.pi / omega)
        rows = [
            [t, q_a.real, q_a.imag, q_b.real, q_b.imag]
            for t, q_a, q_b in zip(trajectory.times, trajectory.q_a, trajectory.q_b)
        ]
        run.tables.append(("trajectory", ["t", "re_q_a", "im_q_a", "re_q_b", "im_q_b"], rows))
    else:
        config.update(phi=phi, sweep=bool(args.sweep))

    if args.sweep:
        phis = np.linspace(0.0, 2.0 * math.pi, 72, endpoint=False)
        i_c, i_d = beables.beam_intensity_curves(pair, phis)
        run.tables.append(("visibility", ["phi", "i_c", "i_d"], list(zip(phis, i_c, i_d))))
        series = [
            svgplot.Series(x=list(phis), y=list(i_c), label="beam c"),
            svgplot.Series(x=list(phis), y=list(i_d), label="beam d"),
        ]
        plot = dict(title="Averaged output intensities", xlabel="phi", ylabel="intensity")
        run.plots.append(("visibility", series, plot))
        run.lines.append(f"visibility c={beables.visibility(i_c):.12f} d={beables.visibility(i_d):.12f}")
        if args.check:
            run.checks = checks.fringes(i_c, i_d)
    else:
        # Frames along the diagonal of the beams, x and y, from one batched call.
        s = np.linspace(0.0, 4.0 * math.pi / pair.k0, samples)
        points = s[:, None] * (np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0))
        if phi is None:
            frame = beables.beables_region1(pair, points, 0.0, vacuum=vacuum)
        else:
            frame = beables.beables_region2(pair, phi, points, 0.0, vacuum=vacuum)
        columns = (frame.vector_potential, frame.electric_field, frame.magnetic_field, frame.intensity)
        field_rows = np.column_stack((s,) + columns).tolist()
        run.tables.append(("fields", _FIELD_HEADER, field_rows))
        if phi is None:
            series = [
                svgplot.Series(x=list(s), y=[row[3] for row in field_rows], label="A_z"),
                svgplot.Series(x=list(s), y=[row[6] for row in field_rows], label="E_z"),
                svgplot.Series(x=list(s), y=[math.hypot(row[10], row[11]) for row in field_rows], label="|I|"),
            ]
            title = "Divided-region beables along the beam diagonal"
            run.plots.append(("fields", series, dict(title=title, xlabel="s", ylabel="field")))
        if args.check:
            run.checks = checks.region1(pair, vacuum) if phi is None else checks.frames(pair, phi, vacuum)

    if run.checks is not None:
        run.lines += _report(run.checks)
    return run


def cmd_photodetect(args) -> Run:
    if not 0.0 < args.k_max < math.inf:
        raise ValueError("spectrum wavenumber range must be positive and finite")
    # The mismatch squares k_en and the form factor squares 1 + k_en^2.
    square = 1.0 + args.k_max * args.k_max
    if not square * square < math.inf:
        raise ValueError(f"--k-max {args.k_max:g} overflows the form factor's (1 + k^2)^2")
    cfg = photodetect.DetectorAtomConfig(k0=args.k0, phi=args.phi)
    k_res = photodetect.resonant_wavenumber(cfg)
    k_grid = np.linspace(0.0, args.k_max, args.samples)
    mismatch = photodetect.energy_mismatch(cfg, k_grid)
    eta2 = np.abs(photodetect.eta(cfg, k_grid, args.time)) ** 2
    t_grid = np.linspace(0.0, args.time, 81)
    growth = [float(np.abs(photodetect.eta(cfg, k_res, t)) ** 2) for t in t_grid]
    tables = [
        ("spectrum", ["k_en", "e_mismatch", "eta2"], list(zip(k_grid, mismatch, eta2))),
        ("growth", ["t", "eta2_resonant"], list(zip(t_grid, growth))),
    ]
    series = [svgplot.Series(x=list(mismatch), y=list(eta2), label="|eta|^2")]
    plot = dict(
        title=f"Ejection spectrum after t = {args.time:g}", xlabel="energy mismatch", ylabel="|eta|^2"
    )

    report = photodetect.absorption_matrix_element_check(photodetect.split_photon_state(args.phi), k0=args.k0)
    vacuum = report.vacuum_amplitude
    selection = {**asdict(report), "vacuum_amplitude": [vacuum.real, vacuum.imag]}
    results = checks.absorption(report, cfg)
    lines = _report(results)
    if report.amplitude_vanishes:
        lines.append("note: the two path amplitudes cancel at this phase; no absorption")
    lines.append(f"resonant wavenumber k_en = {k_res:g}")

    config = {key: getattr(args, key) for key in ("k0", "phi", "time", "k_max", "samples")}
    return Run(
        config, tables=tables, plots=[("spectrum", series, plot)],
        documents=[("selection", selection)], lines=lines, checks=results,
    )


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
    p.set_defaults(func=cmd_g2)

    p = sub.add_parser("classical", help="gate-averaged semiclassical intensity model")
    p.add_argument("--law", choices=("constant", "uniform", "exponential", "two-point"), default="uniform")
    p.add_argument("--samples", type=_int_at_least(1), default=10000)
    p.add_argument("--scale", type=float, default=1.0, help="mean intensity scale")
    p.add_argument("--eff-t", type=float, default=0.1, help="transmitted counts per unit intensity per gate")
    p.add_argument("--eff-r", type=float, default=0.1, help="reflected counts per unit intensity per gate")
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("cascade", help="gated-cascade Monte Carlo versus the analytic ratio")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--sweep", action="store_true", help="run the full Nw sweep")
    p.add_argument("--gates", type=_int_at_least(1), default=100000, help="gates per point")
    p.add_argument("--n-omega", type=float, default=None, help="single-point Nw")
    p.add_argument("--f-target", type=float, default=None, help="paired-photon arrival probability")
    p.add_argument("--points", type=_nw_list, default=None, help="comma-separated Nw sweep values")
    p.add_argument("--arrival", choices=("analytic", "physical"), default=None)
    p.set_defaults(func=cmd_cascade)

    p = sub.add_parser("beables", help="field-beable trajectories, maps, and checks")
    p.add_argument("--region", type=int, choices=(1, 2), default=1)
    p.add_argument("--phi", type=float, default=math.pi / 2.0, help="interferometer phase")
    p.add_argument("--amp", type=float, default=1.0, help="mode amplitude")
    p.add_argument("--phase-b", type=float, default=0.0, help="second phase")
    p.add_argument("--k0", type=float, default=1.0, help="beam wavenumber")
    p.add_argument("--periods", type=float, help="region 1: trajectory length in cycles (default 1)")
    p.add_argument("--samples", type=_int_at_least(1), help="field-map samples (default 257)")
    p.add_argument("--vacuum", type=_int_at_least(0), help="field-map background modes to sample (default 0)")
    p.add_argument("--sweep", action="store_true", help="region 2: phase sweep and visibility")
    p.add_argument("--check", action="store_true", help="run consistency checks")
    p.set_defaults(func=cmd_beables)

    p = sub.add_parser("photodetect", help="detector-atom ejection amplitude and selection rule")
    p.add_argument("--k0", type=float, default=1.0, help="monitored mode wavenumber")
    p.add_argument("--phi", type=float, default=0.0, help="interferometer phase")
    p.add_argument("--time", type=float, default=20.0, help="exposure time")
    p.add_argument("--k-max", type=float, default=3.0, help="spectrum wavenumber range")
    p.add_argument("--samples", type=_int_at_least(1), default=400)
    p.set_defaults(func=cmd_photodetect)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir or os.environ.get("GRALAB_OUT_DIR") or "out")
    t0 = time.monotonic()
    try:
        return _write(args.func(args), args, out_dir, t0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
