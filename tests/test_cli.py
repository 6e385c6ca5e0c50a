"""Command-line entry point: outputs, manifests, exit codes, determinism."""

import csv
import io
import json
import math
import re
import shlex
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gralab import checks, photodetect
from gralab.beables import ModePair, beables_region1
from gralab.cascade import CascadeConfig, correlation_for_f, exact_alpha
from gralab.cli import _write_table, main
from gralab.fock import ChaoticState, default_cutoff

FLOAT_CELL = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,}$")
FIELD_NAMES = ("vector_potential", "electric_field", "magnetic_field", "intensity")
README = Path(__file__).resolve().parents[1] / "README.md"


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _manifest(out_dir, subcommand):
    """The manifest, read as strict JSON: a NaN or Infinity token fails."""
    text = (out_dir / f"{subcommand}_manifest.json").read_text()
    return json.loads(text, parse_constant=_reject_constant)


def test_g2_table_and_manifest(tmp_path):
    assert main(["--out-dir", str(tmp_path), "g2", "number:1", "coherent:1.5"]) == 0
    header, rows = _read_csv(tmp_path / "g2.csv")
    assert header == ["state", "g2"]
    assert rows[0][0] == "number:1"
    assert float(rows[0][1]) == 0.0
    assert np.abs(float(rows[1][1]) - 1.0) < 1e-12
    assert FLOAT_CELL.match(rows[1][1])
    manifest = json.loads((tmp_path / "g2_manifest.json").read_text())
    assert manifest["subcommand"] == "g2"
    assert manifest["rng_seed"] == 0
    assert "g2.csv" in manifest["outputs"]
    assert set(manifest["engine_versions"]) == {"gralab", "numpy", "python"}
    assert manifest["duration_seconds"] >= 0.0
    assert "counters" not in manifest


def test_g2_oracle_column(tmp_path):
    assert main(["--out-dir", str(tmp_path), "g2", "number:2", "chaotic:0.4", "--oracle"]) == 0
    header, rows = _read_csv(tmp_path / "g2.csv")
    assert header == ["state", "g2", "oracle", "abs_diff"]
    for row in rows:
        assert float(row[3]) < 1e-8
    manifest = json.loads((tmp_path / "g2_manifest.json").read_text())
    cutoff = default_cutoff(ChaoticState(0.4))
    assert manifest["counters"]["oracle"] == [
        {"state": "number:2", "n_max": 2, "tail": 0.0},
        {"state": "chaotic:0.4", "n_max": cutoff, "tail": 0.4 ** (cutoff + 1)},
    ]
    assert 0.0 < manifest["counters"]["oracle"][1]["tail"] <= 1e-12


def test_json_table_format(tmp_path):
    assert main(["--out-dir", str(tmp_path), "--format", "json", "g2", "number:3"]) == 0
    payload = json.loads((tmp_path / "g2.json").read_text())
    assert payload["columns"] == ["state", "g2"]
    assert np.abs(payload["rows"][0][1] - 2.0 / 3.0) < 1e-12


def test_write_table_cells():
    # A float, numpy's float64 among them, is written to 12 digits in CSV;
    # anything else as str.  JSON takes the row as it was built.
    header, row = ["s", "i", "b", "f", "f64"], ["number:1", 3, True, 0.25, np.float64(-1.5)]
    out = io.StringIO()
    _write_table(out, "csv", header, [row])
    assert out.getvalue() == "s,i,b,f,f64\r\nnumber:1,3,True,2.50000000000e-01,-1.50000000000e+00\r\n"
    out = io.StringIO()
    _write_table(out, "json", header, [row])
    assert out.getvalue() == (
        '{\n  "columns": [\n    "s",\n    "i",\n    "b",\n    "f",\n    "f64"\n  ],\n'
        '  "rows": [\n    [\n      "number:1",\n      3,\n      true,\n      0.25,\n      -1.5\n    ]\n  ]\n}\n'
    )


def test_bad_state_spec_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(tmp_path), "g2", "number:x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(tmp_path), "g2", "squeezed:1"])
    assert exc.value.code == 2


def test_nonfinite_coherent_amplitude_exits_two(tmp_path):
    for spec in ("coherent:nan", "coherent:inf", "coherent:1+nanj"):
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", str(tmp_path), "g2", spec])
        assert exc.value.code == 2


@pytest.mark.parametrize("spec", ["coherent:1e200", "coherent:1e100"])
def test_coherent_amplitude_with_overflowing_moments_exits_two(tmp_path, capsys, spec):
    # Both used to end in an OverflowError traceback.
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(out_dir), "g2", spec, "--oracle"])
    assert exc.value.code == 2
    assert "|alpha|^2 and |alpha|^4" in capsys.readouterr().err
    assert not out_dir.exists()


def test_nonpositive_gates_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(tmp_path), "cascade", "--gates", "0"])
    assert exc.value.code == 2


def test_negative_vacuum_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(tmp_path), "beables", "--vacuum", "-1"])
    assert exc.value.code == 2


def test_classical_constant_law(tmp_path, capsys):
    assert main(["--out-dir", str(tmp_path), "classical", "--law", "constant"]) == 0
    header, rows = _read_csv(tmp_path / "classical.csv")
    assert header[-2:] == ["alpha", "admissible"]
    assert np.abs(float(rows[0][-2]) - 1.0) < 1e-12
    assert rows[0][-1] == "True"
    assert "alpha=" in capsys.readouterr().out


def test_classical_inadmissible_run_is_reported_in_its_table(tmp_path, capsys):
    # Probabilities past 1 are reported by the admissible column and the
    # stdout line alone; the UserWarning that also came ended the run under
    # -W error, as filterwarnings = error would here.
    assert main(["--out-dir", str(tmp_path), "classical", "--scale", "100"]) == 0
    header, rows = _read_csv(tmp_path / "classical.csv")
    assert header[-1] == "admissible" and rows[0][-1] == "False"
    assert capsys.readouterr().out.splitlines()[-1].endswith(" admissible=False")


@pytest.mark.parametrize("scale", ["nan", "inf", "-1"])
def test_classical_bad_scale_exits_one(tmp_path, capsys, scale):
    for law in ("constant", "uniform", "exponential", "two-point"):
        argv = ["--out-dir", str(tmp_path), "classical", "--law", law, f"--scale={scale}"]
        assert main(argv) == 1
        assert "error: intensity scale must be nonnegative and finite" in capsys.readouterr().err
    assert not (tmp_path / "classical.csv").exists()


@pytest.mark.parametrize(
    "argv", [["--gate", "1e300"], ["--eff-t", "1e300", "--eff-r", "1e300"]], ids=["gate", "coefficients"]
)
def test_classical_overflowing_probabilities_exit_one(tmp_path, capsys, argv):
    # --gate 1e300 used to end in an OverflowError traceback.
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "classical", "--samples", "1", *argv]) == 1
    assert capsys.readouterr().err.startswith("error: count probabilities overflow at gate duration")
    assert not out_dir.exists()


def test_cascade_huge_finite_nw(tmp_path):
    # (f + Nw) ** 2 in g2_analytic used to end in an OverflowError traceback.
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "cascade", "--gates", "100", "--n-omega", "1e300"]) == 0
    header, rows = _read_csv(out_dir / "cascade_curve.csv")
    assert header[:3] == ["n_omega", "alpha_mc", "alpha_analytic"]
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)
    assert float(rows[0][2]) == 1.0
    _manifest(out_dir, "cascade")  # strict JSON: no NaN or Infinity


def test_cascade_single_point(tmp_path, capsys):
    assert main(
        ["--out-dir", str(tmp_path), "cascade", "--gates", "3000", "--n-omega", "0.3"]
    ) == 0
    header, rows = _read_csv(tmp_path / "cascade_curve.csv")
    assert header == ["n_omega", "alpha_mc", "alpha_analytic", "stderr", "gates", "alpha_exact"]
    assert len(rows) == 1
    assert np.abs(float(rows[0][0]) - 0.3) < 1e-12
    assert rows[0][4] == "3000"
    # The exact ratio at the run's default efficiencies, not the analytic limit.
    cfg = CascadeConfig(
        decay_rate=0.3 / 9.4e-9, correlation_factor=correlation_for_f(0.9), target_gates=1
    )
    exact = exact_alpha(cfg)
    assert abs(float(rows[0][5]) / exact - 1.0) < 1e-11
    assert abs(exact / float(rows[0][2]) - 1.0) > 1e-3
    assert ">exact</text>" in (tmp_path / "cascade_curve.svg").read_text()
    assert "Nw=0.3" in capsys.readouterr().out
    manifest = _manifest(tmp_path, "cascade")
    assert manifest["config"]["n_omega"] == 0.3
    counters = manifest["counters"]["cascade"]
    assert counters["gates"] == 3000
    assert counters["gates_per_s"] == pytest.approx(3000 / counters["compute_seconds"])
    assert 0.0 < counters["compute_seconds"] <= manifest["duration_seconds"]
    # 3000 exponential waits of mean 1 / (N eps_1) plus a gate each, within 5 sigma.
    scale = 9.4e-9 / (0.3 * 0.1)
    (elapsed,) = counters["elapsed_sim_time"]
    assert abs(elapsed - 3000 * (scale + 9.4e-9)) < 5.0 * math.sqrt(3000) * scale


def test_cascade_deterministic_across_runs(tmp_path):
    args = ["cascade", "--gates", "3000", "--n-omega", "0.1"]
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["--out-dir", str(first), "--seed", "7"] + args) == 0
    assert main(["--out-dir", str(second), "--seed", "7"] + args) == 0
    assert (first / "cascade_curve.csv").read_bytes() == (second / "cascade_curve.csv").read_bytes()


def test_cascade_sweep_with_isolated_point(tmp_path):
    assert main(
        ["--out-dir", str(tmp_path), "cascade", "--sweep", "--points", "0,0.1,0.9", "--gates", "2000"]
    ) == 0
    _, rows = _read_csv(tmp_path / "cascade_curve.csv")
    assert len(rows) == 3
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][1]) == 0.0
    # Accidentals off at Nw = 0: the exact ratio is exactly zero too.
    assert float(rows[0][5]) == 0.0
    manifest = _manifest(tmp_path, "cascade")
    assert manifest["config"]["n_omega_values"] == [0.0, 0.1, 0.9]
    counters = manifest["counters"]["cascade"]
    assert counters["gates"] == 6000
    elapsed = counters["elapsed_sim_time"]
    assert len(elapsed) == 3 and all(t > 2000 * 9.4e-9 for t in elapsed)
    # The source rate N = Nw / w sets the mean wait, so a denser source runs shorter.
    assert elapsed[2] < elapsed[1]


def test_cascade_sweep_zero_point_does_not_depend_on_other_points(tmp_path):
    results = []
    for points in ("0,0.1", "0,0.1,0.9"):
        out = tmp_path / points
        argv = ["--out-dir", str(out), "cascade", "--sweep", "--n-omega", "0", "--points", points]
        assert main(argv + ["--gates", "2000"]) == 0
        _, rows = _read_csv(out / "cascade_curve.csv")
        elapsed = _manifest(out, "cascade")["counters"]["cascade"]["elapsed_sim_time"]
        results.append((rows[0], elapsed[0]))
    assert results[0] == results[1]


def test_cascade_config_conflicts(tmp_path, capsys):
    config = tmp_path / "cascade.json"
    config.write_text(json.dumps({"correlation_factor": 5.0}))
    code = main(
        ["--out-dir", str(tmp_path), "cascade", "--config", str(config), "--f-target", "0.9"]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err

    config.write_text(json.dumps({"gate": 9.4e-9, "gate_ns": 9.4}))
    code = main(["--out-dir", str(tmp_path), "cascade", "--config", str(config)])
    assert code == 1
    assert "gate" in capsys.readouterr().err


def test_cascade_config_nanosecond_keys(tmp_path):
    config = tmp_path / "cascade.json"
    config.write_text(json.dumps({"lifetime_ns": 4.7, "gate_ns": 9.4, "n_omega": 0.2}))
    assert main(
        ["--out-dir", str(tmp_path), "cascade", "--config", str(config), "--gates", "2000"]
    ) == 0
    manifest = _manifest(tmp_path, "cascade")
    assert np.abs(manifest["config"]["gate"] - 9.4e-9) < 1e-21
    assert np.abs(manifest["config"]["lifetime"] - 4.7e-9) < 1e-21


@pytest.mark.parametrize(
    "entry,key",
    [
        ({"transmittance": None}, "transmittance"),
        ({"lifetime_ns": [1]}, "lifetime_ns"),
        ({"epsilon_1": True}, "epsilon_1"),
        ({"n_omega": "0.1"}, "n_omega"),
        ({"epsilon1": 0.9}, "epsilon1"),
        ({"n_omega_values": [0.1, "0.3"]}, "n_omega_values"),
        ({"n_omega_values": None}, "n_omega_values"),
        ({"n_omega_values": []}, "n_omega_values"),
    ],
    ids=["null", "list", "bool", "string", "typo", "string-point", "null-points", "no-points"],
)
def test_cascade_config_rejects_unread_or_mistyped_keys(tmp_path, capsys, entry, key):
    config = tmp_path / "cascade.json"
    config.write_text(json.dumps(entry))
    out_dir = tmp_path / "out"
    code = main(["--out-dir", str(out_dir), "cascade", "--config", str(config), "--gates", "2000"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv,entry,named",
    [
        (["--points", "0.1,nan"], None, "Nw"),
        (["--n-omega", "nan"], None, "Nw"),
        (["--n-omega", "inf"], None, "Nw"),
        ([], {"n_omega": math.nan}, "Nw"),
        ([], {"n_omega_values": [0.1, math.nan]}, "Nw"),
        (["--f-target", "nan"], None, "arrival probability"),
        ([], {"f_target": math.nan}, "arrival probability"),
        # No gate rate: the mean wait between gates is infinite.
        ([], {"epsilon_1": 0}, "epsilon_1"),
        # A zero lifetime used to end in a ZeroDivisionError traceback, and a
        # NaN lifetime or negative gate in an error about the arrival probability.
        ([], {"lifetime": 0}, "lifetime"),
        ([], {"lifetime": math.nan}, "lifetime"),
        ([], {"gate_ns": -1}, "gate"),
        ([], {"gate": 1e-300}, "gate"),
    ],
    ids=["points", "n-omega-nan", "n-omega-inf", "config-n-omega", "config-points",
         "f-target", "config-f-target", "config-epsilon-1-zero", "config-lifetime-zero",
         "config-lifetime-nan", "config-gate-negative", "config-gate-underflow"],
)
def test_cascade_nonfinite_input_is_named(tmp_path, capsys, argv, entry, named):
    # Python's json reads a bare NaN token, so a config file can carry one.
    if entry is not None:
        config = tmp_path / "cascade.json"
        config.write_text(json.dumps(entry))
        argv = [*argv, "--config", str(config)]
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "cascade", "--gates", "2000", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv,entry,named",
    [
        (["--points", "1,2"], None, "--points"),
        ([], {"n_omega_values": [0.1, 0.3]}, "'n_omega_values'"),
    ],
    ids=["points", "config-points"],
)
def test_cascade_sweep_list_needs_sweep(tmp_path, capsys, argv, entry, named):
    # Without --sweep the list used to be ignored and the default point run.
    if entry is not None:
        config = tmp_path / "cascade.json"
        config.write_text(json.dumps(entry))
        argv = [*argv, "--config", str(config)]
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "cascade", "--gates", "1000", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and "--sweep" in err
    assert not out_dir.exists()


def test_cascade_config_integer_past_float_range_is_named(tmp_path, capsys):
    # A JSON integer of 401 digits used to end in an OverflowError traceback.
    config = tmp_path / "cascade.json"
    config.write_text('{"epsilon_1": 1' + "0" * 400 + "}")
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "cascade", "--config", str(config), "--gates", "100"]) == 1
    assert capsys.readouterr().err == "error: config key 'epsilon_1' must be a number\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "line,named",
    [
        ("classical --scale 1e300", "intensity scale overflows the second moment"),
        ("beables --region 1 --amp 1e200", "mode amplitude 1e+200"),
        ("beables --region 1 --amp 1e-200", "mode amplitude 1e-200"),
        ("beables --region 1 --k0 1e300 --check", "beam wavenumber"),
        ("beables --region 1 --amp 1e150 --k0 1e100 --check", "mode amplitude 1e+150 at beam wavenumber 1e+100"),
        ("beables --region 1 --amp 1e-150 --check", "mode amplitude 1e-150"),
        ("beables --region 1 --volume 1e-320", "quantization volume 9.99989e-321 overflows the fields"),
        ("beables --region 2 --k0 1e10 --volume 1e-300 --sweep", "quantization volume 1e-300 overflows the intensity"),
        ("photodetect --k0 1e300", "k0 1e+300 overflows the resonant form factor"),
        ("classical --scale 1e-300", "intensity scale underflows the squared mean"),
        ("g2 coherent:1e-150", "CoherentState(alpha=(1e-150+0j))"),
        ("photodetect --time 1e300", "exposure time 1e+300"),
        ("photodetect --k-max 1e100", "--k-max 1e+100"),
        ("photodetect --k-max 1e300", "--k-max 1e+300"),
        ("g2 number:100000000 --oracle", "NumberState(n=100000000), from the number state"),
    ],
)
def test_extreme_finite_input_is_named(tmp_path, capsys, line, named):
    # Each used to end in a traceback, a NaN message after a partial output
    # directory, numpy's overflow warning, or (the oracle) the memory limit.
    # k0^2 rho^2 overflowed in the energy terms at amp 1e150 and k0 1e100,
    # the orbit's acceleration 1 / (16 amp^3) in the residual at 1e-150, and
    # 1/V, k0 / V, the form factor at k0 1e300 and <i>^2 or <n_t><n_r> (a
    # ZeroDivisionError) below them.
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), *line.split()]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not out_dir.exists()


def test_beables_sweep_needs_region_2(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "beables", "--region", "1", "--sweep"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--sweep" in err and "--region 2" in err
    assert not out_dir.exists()


def test_beables_region1_with_checks(tmp_path, capsys):
    assert main(
        ["--out-dir", str(tmp_path), "beables", "--region", "1", "--check", "--samples", "33"]
    ) == 0
    for name in ("trajectory.csv", "fields.csv", "fields.svg", "beables_manifest.json"):
        assert (tmp_path / name).exists()
    out = capsys.readouterr().out
    assert "[ok]" in out
    assert "FAIL" not in out
    # Every printed check is recorded with its value and bound.
    records = _manifest(tmp_path, "beables")["checks"]
    assert [r["label"] for r in records] == [
        "wave-equation residual", "E vs -(1/c) dA/dt", "B vs curl A", "energy drift over a cycle",
    ]
    assert [r["bound"] for r in records] == [1e-12, 1e-6, 1e-6, 1e-12]
    assert all(r["passed"] and 0.0 <= r["value"] < r["bound"] for r in records)
    assert records == [asdict(r) for r in checks.region1(ModePair.single_frequency(1.0), 1.0, None)]
    for r in records:
        assert f"[ok] {r['label']}: {r['value']:.3e} (bound {r['bound']:.1e})" in out
    header, rows = _read_csv(tmp_path / "fields.csv")
    assert len(header) == 13
    assert len(rows) == 33
    # The table comes from one batched call and must equal per-point frames
    # along the beam diagonal: to 1e-12 of each field's envelope, plus the
    # rounding of the table's 12 printed digits.
    pair = ModePair.single_frequency(1.0)
    diagonal = np.array([1.0, 1.0, 0.0]) / np.linalg.norm([1.0, 1.0, 0.0])
    s_values = np.linspace(0.0, 4.0 * math.pi, 33)
    frames = [beables_region1(pair, s * diagonal, 0.0) for s in s_values]
    fields = [np.array([getattr(frame, name) for frame in frames]) for name in FIELD_NAMES]
    want = np.hstack([s_values[:, None], *fields])
    envelope = np.concatenate([[1.0], *(np.full(3, np.abs(field).max()) for field in fields)])
    table = np.array(rows, dtype=float)
    assert np.all(np.abs(table - want) <= 1e-12 * envelope + 5e-12 * np.abs(want))
    # Full precision in JSON: the same comparison without the printing term.
    assert main(["--out-dir", str(tmp_path / "json"), "--format", "json", "beables", "--samples", "33"]) == 0
    table = np.array(json.loads((tmp_path / "json" / "fields.json").read_text())["rows"])
    assert np.all(np.abs(table - want) <= 1e-12 * envelope)
    assert "checks" not in _manifest(tmp_path / "json", "beables")


@pytest.mark.parametrize(
    "line",
    [
        "--region 1 --k0 1000",
        "--region 1 --k0 1e8",
        "--region 1 --k0 1e12",
        "--region 2 --phi 1.0 --k0 1e8",
        "--region 1 --amp 0.01",
        "--region 1 --amp 0.001",
        "--region 1 --amp 4e-13",
        "--region 1 --amp 1e-100",
        "--region 1 --phase-b 1e8",
        "--region 2 --phi 1.0 --phase-b 1e300",
        "--region 2 --phi 1.0 --amp 0.01",
    ],
)
def test_beables_checks_pass_at_large_wavenumber_and_fast_rotation(tmp_path, capsys, line):
    # Fixed central-difference steps failed these frames: B vs curl A read
    # 5.9e-6 at k0 1000, E vs -dA/dt 7.2e-6, 5.2e-2 and 1.8e-4 at the small
    # amplitudes, whose frequency 1 / (4 amp^2) is large.  A probe at a fixed
    # point failed k0 1e8 (E 1.5e-5, B 1.2e-4) and 1e12 (0.44, 0.25); it now
    # sits at (0.3, 0.2, 0.1) / k0.  An absolute floor on q_a - i q_b
    # refused amp 4e-13 as a vanishing denominator.
    assert main(["--out-dir", str(tmp_path), "beables", *line.split(), "--check", "--samples", "9"]) == 0
    out = capsys.readouterr().out
    assert "[ok] E vs -(1/c) dA/dt" in out and "[ok] B vs curl A" in out
    assert "FAIL" not in out


def test_beables_huge_amplitude_checks_run_without_overflow(tmp_path, capsys):
    # The quantum gradient formed w^2 w*, which overflowed past amp 1e102 and,
    # under filterwarnings = error, ended in a RuntimeWarning.  The energy
    # drift failed too, with 3 k0 lost beside k0^2 rho^2, until its terms
    # were summed exactly.
    argv = ["beables", "--region", "1", "--amp", "1e150", "--check", "--samples", "9"]
    assert main(["--out-dir", str(tmp_path), *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "[ok] wave-equation residual", "[ok] E vs -(1/c) dA/dt", "[ok] B vs curl A",
        "[ok] energy drift over a cycle",
    ]


def test_beables_failed_check_is_recorded(tmp_path, capsys, monkeypatch):
    # The checks reach the beables through the module attribute, so a NaN
    # residual shows up as a failed record, and a NaN never passes.
    monkeypatch.setattr("gralab.beables.wave_equation_residual", lambda *args, **kwargs: math.nan)
    argv = ["--out-dir", str(tmp_path), "beables", "--check", "--samples", "9"]
    assert main(argv) == 1
    assert "[FAIL] wave-equation residual: nan (bound 1.0e-12)" in capsys.readouterr().out
    # A NaN value is written as null, never as a bare NaN token.
    records = _manifest(tmp_path, "beables")["checks"]
    assert records[0]["label"] == "wave-equation residual"
    assert records[0]["value"] is None
    assert records[0]["passed"] is False
    assert [r["passed"] for r in records[1:]] == [True, True, True]


def test_beables_region2_sweep_checks(tmp_path, capsys):
    assert main(
        ["--out-dir", str(tmp_path), "beables", "--region", "2", "--sweep", "--check"]
    ) == 0
    assert (tmp_path / "visibility.csv").exists()
    assert (tmp_path / "visibility.svg").exists()
    out = capsys.readouterr().out
    assert "visibility c=1.000000000000" in out
    assert "FAIL" not in out
    _, rows = _read_csv(tmp_path / "visibility.csv")
    assert len(rows) == 72
    records = _manifest(tmp_path, "beables")["checks"]
    assert [r["label"] for r in records] == [
        "beam c visibility - 1", "beam d visibility - 1",
        "beam d at phi=0", "beam c at phi=pi", "summed intensity spread",
    ]
    # The averaged intensity peaks at exactly 1 with unit volume and k0.
    assert [r["bound"] for r in records] == [1e-9, 1e-9, 1e-12, 1e-12, 1e-10]
    assert all(r["passed"] and 0.0 <= r["value"] < r["bound"] for r in records)
    # The visibility line first, then one line per check in manifest order.
    assert out.splitlines() == ["visibility c=1.000000000000 d=1.000000000000"] + [
        f"[ok] {r['label']}: {r['value']:.3e} (bound {r['bound']:.1e})" for r in records
    ]


def test_beables_region2_fields_with_vacuum(tmp_path, capsys):
    assert main(
        [
            "--out-dir", str(tmp_path),
            "beables", "--region", "2", "--phi", "0.7",
            "--vacuum", "3", "--check", "--samples", "17",
        ]
    ) == 0
    assert "FAIL" not in capsys.readouterr().out
    _, rows = _read_csv(tmp_path / "fields.csv")
    assert len(rows) == 17
    records = _manifest(tmp_path, "beables")["checks"]
    assert [r["label"] for r in records] == ["E vs -(1/c) dA/dt", "B vs curl A"]
    assert [r["bound"] for r in records] == [1e-6, 1e-6]
    assert all(r["passed"] and 0.0 <= r["value"] < r["bound"] for r in records)


@pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
def test_beables_nonfinite_phase_exits_one(tmp_path, capsys, phi):
    argv = ["--out-dir", str(tmp_path), "beables", "--region", "2", f"--phi={phi}"]
    assert main(argv) == 1
    assert "error: interferometer phase must be finite" in capsys.readouterr().err
    assert not (tmp_path / "fields.csv").exists()


@pytest.mark.parametrize("k0", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("extra", [[], ["--region", "2"], ["--region", "2", "--sweep"]])
def test_beables_bad_wavenumber_exits_one(tmp_path, capsys, k0, extra):
    # In both regions' field maps, and for the sweep.
    assert main(["--out-dir", str(tmp_path), "beables", f"--k0={k0}"] + extra) == 1
    assert "error: beam wavenumber must be positive and finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_beables_pair_is_on_the_rigid_manifold(tmp_path, capsys):
    # The frames follow the integrated orbit only on the rigid manifold, so
    # the command builds no other pair: --amp-b and --phase-a are gone.
    argv = ["beables", "--amp", "0.8", "--phase-b", "0.3", "--k0", "2", "--samples", "5"]
    assert main(["--out-dir", str(tmp_path)] + argv) == 0
    config = _manifest(tmp_path, "beables")["config"]
    assert (config["amp_a"], config["amp_b"], config["k0"]) == (0.8, 0.8, 2.0)
    assert (config["phase_a"], config["phase_b"]) == (0.3 + math.pi / 2.0, 0.3)
    for flag in ("--amp-b", "--phase-a"):
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", str(tmp_path / "off"), "beables", flag, "0"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 0" in capsys.readouterr().err
    assert not (tmp_path / "off").exists()


_BAD_VOLUMES = ["nan", "inf", "0", "-1"]


@pytest.mark.parametrize(
    "volume,region",
    [pytest.param(v, ["--region", "2", "--sweep"], id=v) for v in _BAD_VOLUMES]
    + [pytest.param(v, ["--region", "1"], id=f"region1-{v}") for v in _BAD_VOLUMES],
)
def test_beables_sweep_bad_volume_exits_one(tmp_path, capsys, volume, region):
    # Region 1 integrates its trajectory before the field map rejects the
    # volume; the trajectory table must not be left behind.
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "beables", *region, f"--volume={volume}"]) == 1
    assert "error: quantization volume must be positive and finite" in capsys.readouterr().err
    assert not out_dir.exists()


def test_photodetect_outputs(tmp_path, capsys):
    assert main(["--out-dir", str(tmp_path), "photodetect", "--time", "5"]) == 0
    _, spectrum = _read_csv(tmp_path / "spectrum.csv")
    assert len(spectrum) == 400
    _, growth = _read_csv(tmp_path / "growth.csv")
    assert len(growth) == 81
    assert float(growth[0][1]) == 0.0
    assert (tmp_path / "spectrum.svg").exists()
    selection = json.loads((tmp_path / "selection.json").read_text())
    assert selection["nonzero_count"] == 1
    assert selection["largest_other"] == 0.0
    assert not selection["amplitude_vanishes"]
    assert np.abs(selection["vacuum_amplitude"][0] + 1.0 / math.sqrt(2.0)) < 1e-12
    assert np.abs(selection["vacuum_amplitude"][1] - 1.0 / math.sqrt(2.0)) < 1e-12
    assert "resonant wavenumber" in capsys.readouterr().out
    assert _manifest(tmp_path, "photodetect")["checks"] == [
        {"label": "largest non-vacuum overlap", "value": 0.0, "bound": 1e-12, "passed": True},
        {"label": "surviving field sectors", "value": 1.0, "bound": 1.0, "passed": True},
        {"label": "vacuum amplitude vs overlap factor", "value": 0.0, "bound": 1e-12 * math.sqrt(2.0),
         "passed": True},
    ]
    assert "n_max" not in _manifest(tmp_path, "photodetect")["config"]
    assert selection["n_max"] == 1


def test_photodetect_dark_phase(tmp_path, capsys):
    assert main(
        ["--out-dir", str(tmp_path), "photodetect", "--phi", str(math.pi / 2.0)]
    ) == 0
    selection = json.loads((tmp_path / "selection.json").read_text())
    assert selection["amplitude_vanishes"]
    assert selection["nonzero_count"] == 0
    # No sector count when nothing is absorbed: the overlap and the vacuum
    # amplitude, which must vanish with the overlap factor, are checked.
    overlap, vacuum = _manifest(tmp_path, "photodetect")["checks"]
    assert overlap["label"] == "largest non-vacuum overlap"
    assert vacuum["label"] == "vacuum amplitude vs overlap factor" and vacuum["passed"]
    # The check lines first, then the note, then the resonant wavenumber.
    assert capsys.readouterr().out.splitlines() == [
        f"[ok] largest non-vacuum overlap: {overlap['value']:.3e} (bound 1.0e-12)",
        f"[ok] vacuum amplitude vs overlap factor: {vacuum['value']:.3e} (bound 1.4e-12)",
        "note: the two path amplitudes cancel at this phase; no absorption",
        "resonant wavenumber k_en = 1",
    ]


def test_photodetect_overlap_factor_off_by_a_quarter_turn_fails(tmp_path, capsys, monkeypatch):
    # The scan and eta's photon factor are computed apart; a factor with its
    # phase offset by pi/2 vanishes at phi = 0, where the scan reads modulus 1.
    factor = photodetect.mode_overlap_factor

    def shifted(cfg):
        return factor(replace(cfg, phi=cfg.phi + math.pi / 2.0))

    monkeypatch.setattr("gralab.photodetect.mode_overlap_factor", shifted)
    assert main(["--out-dir", str(tmp_path), "photodetect", "--phi", "0"]) == 1
    record = _manifest(tmp_path, "photodetect")["checks"][-1]
    assert record["label"] == "vacuum amplitude vs overlap factor" and not record["passed"]
    assert abs(record["value"] - 1.0) < 1e-12
    assert "[FAIL] vacuum amplitude vs overlap factor: 1.000e+00" in capsys.readouterr().out


def test_photodetect_photon_below_binding_energy_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "photodetect", "--k0", "0.1"]) == 1
    assert "binding energy" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("time", ["nan", "inf"])
def test_photodetect_nonfinite_time_exits_one(tmp_path, capsys, time):
    assert main(["--out-dir", str(tmp_path), "photodetect", "--time", time]) == 1
    assert "error: exposure time must be nonnegative and finite" in capsys.readouterr().err


@pytest.mark.parametrize("k_max", ["nan", "inf", "0", "-1"])
def test_photodetect_bad_wavenumber_range_exits_one(tmp_path, capsys, k_max):
    assert main(["--out-dir", str(tmp_path), "photodetect", f"--k-max={k_max}"]) == 1
    assert "error: spectrum wavenumber range must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()


def _readme_commands():
    usage = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = usage.split("```")[1]
    return [line for line in block.splitlines() if line.startswith("gralab ")]


def test_readme_commands_pass_their_checks(tmp_path):
    # Each command line of the README's usage block, run as documented.
    commands = _readme_commands()
    assert len(commands) >= 7
    checked = 0
    for i, line in enumerate(commands):
        out_dir = tmp_path / str(i)
        assert main(["--out-dir", str(out_dir)] + shlex.split(line)[1:]) == 0, line
        (manifest,) = out_dir.glob("*_manifest.json")
        for record in json.loads(manifest.read_text()).get("checks", []):
            assert record["passed"], (line, record)
            checked += 1
    assert checked > 0


def test_out_dir_environment_fallback(tmp_path, monkeypatch):
    target = tmp_path / "env-out"
    monkeypatch.setenv("GRALAB_OUT_DIR", str(target))
    assert main(["g2", "number:1"]) == 0
    assert (target / "g2.csv").exists()


def test_missing_subcommand_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(tmp_path)])
    assert exc.value.code == 2


# Every boundary a numeric option has: both signs of zero, the ends of the
# float range, non-finite values and ordinary ones.  Counts stay small, so an
# accepted run stays cheap.
_FLOATS = st.sampled_from(
    [-1.0, -0.0, 0.0, 5e-324, 1e-300, 1e-150, 1e-13, 0.3, 1.0, 2.5, 1e8, 1e150, 1e300,
     math.nan, math.inf, -math.inf]
)
_COUNTS = st.sampled_from([-1, 0, 1, 3])
# Each command's numeric options, with the words besides the flag that its
# messages may use to name them.
_NUMERIC_OPTIONS = {
    "g2": {"--t2": ("transmittance", "t^2")},
    "classical": {
        "--samples": (), "--scale": ("intensity scale", "dark"), "--gate": ("gate duration",),
        "--eff-t": ("detector coefficients",), "--eff-r": ("detector coefficients",),
    },
    "beables": {
        "--phi": ("interferometer phase",), "--amp": ("mode amplitude",), "--phase-b": ("mode phases",),
        "--k0": ("beam wavenumber", "wave vectors"), "--volume": ("quantization volume",), "--periods": ("end time",),
        "--samples": (), "--vacuum": (),
    },
    "photodetect": {
        "--k0": ("k0", "photon energy"), "--phi": ("interferometer phase",), "--time": ("exposure time",),
        "--k-max": ("spectrum wavenumber range",), "--samples": (),
    },
}
_INTEGER_OPTIONS = {"--samples", "--vacuum"}
_STATE_KINDS = {"number": _COUNTS, "coherent": _FLOATS, "chaotic": _FLOATS}


@st.composite
def _command_lines(draw):
    """A command with any of its numeric options set, and the names each may go by."""
    command = draw(st.sampled_from(sorted(_NUMERIC_OPTIONS)))
    argv, names = [command], []
    if command == "g2":
        kind = draw(st.sampled_from(sorted(_STATE_KINDS)))
        argv.append(f"{kind}:{draw(_STATE_KINDS[kind])!r}")
        names += ["KIND:VALUE", kind, "State("]
        if draw(st.booleans()):
            argv.append("--oracle")
    if command == "classical":
        argv += ["--law", draw(st.sampled_from(["constant", "uniform", "exponential", "two-point"]))]
    if command == "beables":
        region = draw(st.sampled_from(["1", "2"]))
        argv += ["--region", region]
        if region == "2" and draw(st.booleans()):
            argv.append("--sweep")
        if draw(st.booleans()):
            argv.append("--check")
    for flag, words in _NUMERIC_OPTIONS[command].items():
        if draw(st.booleans()):
            value = draw(_COUNTS if flag in _INTEGER_OPTIONS else _FLOATS)
            argv.append(f"{flag}={value!r}")
            names += [flag, *words]
    return argv, names


def _cells_are_finite(path):
    """Every cell of a written table that reads as a number is finite."""
    if path.suffix == ".json":
        rows = json.loads(path.read_text(), parse_constant=_reject_constant)["rows"]
    else:
        rows = _read_csv(path)[1]
    for cell in (cell for row in rows for cell in row):
        try:
            value = float(cell)
        except (TypeError, ValueError):
            continue  # a state, a law or a flag
        assert math.isfinite(value), (path.name, cell)


@settings(max_examples=200, deadline=None)
@given(line=_command_lines(), fmt=st.sampled_from(["csv", "json"]))
@example(line=(["beables", "--region", "1", "--periods=1e+300"], ["--periods", "end time"]), fmt="csv")
@example(line=(["beables", "--region", "1", "--check", "--amp=1e-13"], ["--amp"]), fmt="csv")
@example(line=(["beables", "--region", "1", "--check", "--amp=1e-150"], ["--amp", "mode amplitude"]), fmt="csv")
@example(line=(["classical", "--law", "uniform", "--scale=100.0"], ["--scale"]), fmt="json")
# Found by this property: a sweep recorded a NaN phase it does not read, and
# failed the strict manifest after writing its tables; -0.0 reached numpy's
# uniform as high < low.
@example(line=(["beables", "--region", "2", "--sweep", "--phi=nan"], ["interferometer phase"]), fmt="csv")
@example(line=(["classical", "--law", "uniform", "--scale=-0.0"], ["dark"]), fmt="csv")
def test_numeric_options_run_or_are_refused_by_name(line, fmt):
    # As cascade's config reader is: an accepted run writes only finite cells
    # and strict JSON; a rejected one exits 1 or 2, names an input it was
    # given and leaves no directory.  A warning or an uncaught error fails
    # here, as -W error makes it end the command in a traceback.
    argv, names = line
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = main(["--out-dir", str(out_dir), "--format", fmt, *argv])
            except SystemExit as exc:
                code = exc.code
        if out_dir.exists():
            # Written: the run was accepted, though a physics check may fail.
            assert code == 0 or (code == 1 and "[FAIL]" in stdout.getvalue()), (argv, stderr.getvalue())
            manifest = _manifest(out_dir, argv[0])
            for name in manifest["outputs"]:
                if name.endswith(f".{fmt}") and name != "selection.json":
                    _cells_are_finite(out_dir / name)
        else:
            message = stderr.getvalue()
            assert code in (1, 2) and message, (argv, code)
            assert any(name in message for name in names), (argv, message)
