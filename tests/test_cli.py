"""Command-line entry point: outputs, manifests, exit codes, determinism."""

import csv
import json
import math
import re

import numpy as np
import pytest

from gralab.beables import ModePair, beables_region1
from gralab.cli import main

FLOAT_CELL = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,}$")
FIELD_NAMES = ("vector_potential", "electric_field", "magnetic_field", "intensity")


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


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


def test_g2_oracle_column(tmp_path):
    assert main(["--out-dir", str(tmp_path), "g2", "number:2", "chaotic:0.4", "--oracle"]) == 0
    header, rows = _read_csv(tmp_path / "g2.csv")
    assert header == ["state", "g2", "oracle", "abs_diff"]
    for row in rows:
        assert float(row[3]) < 1e-8


def test_json_table_format(tmp_path):
    assert main(["--out-dir", str(tmp_path), "--format", "json", "g2", "number:3"]) == 0
    payload = json.loads((tmp_path / "g2.json").read_text())
    assert payload["columns"] == ["state", "g2"]
    assert np.abs(payload["rows"][0][1] - 2.0 / 3.0) < 1e-12


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


def test_cascade_single_point(tmp_path, capsys):
    assert main(
        ["--out-dir", str(tmp_path), "cascade", "--gates", "3000", "--n-omega", "0.3"]
    ) == 0
    header, rows = _read_csv(tmp_path / "cascade_curve.csv")
    assert header == ["n_omega", "alpha_mc", "alpha_analytic", "stderr", "gates"]
    assert len(rows) == 1
    assert np.abs(float(rows[0][0]) - 0.3) < 1e-12
    assert rows[0][4] == "3000"
    assert (tmp_path / "cascade_curve.svg").exists()
    assert "Nw=0.3" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "cascade_manifest.json").read_text())
    assert manifest["config"]["n_omega"] == 0.3


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
    manifest = json.loads((tmp_path / "cascade_manifest.json").read_text())
    assert manifest["config"]["n_omega_values"] == [0.0, 0.1, 0.9]


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
    manifest = json.loads((tmp_path / "cascade_manifest.json").read_text())
    assert np.abs(manifest["config"]["gate"] - 9.4e-9) < 1e-21
    assert np.abs(manifest["config"]["lifetime"] - 4.7e-9) < 1e-21


def test_beables_region1_with_checks(tmp_path, capsys):
    assert main(
        ["--out-dir", str(tmp_path), "beables", "--region", "1", "--check", "--samples", "33"]
    ) == 0
    for name in ("trajectory.csv", "fields.csv", "fields.svg", "beables_manifest.json"):
        assert (tmp_path / name).exists()
    out = capsys.readouterr().out
    assert "[ok]" in out
    assert "FAIL" not in out
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


def test_photodetect_dark_phase(tmp_path, capsys):
    assert main(
        ["--out-dir", str(tmp_path), "photodetect", "--phi", str(math.pi / 2.0)]
    ) == 0
    selection = json.loads((tmp_path / "selection.json").read_text())
    assert selection["amplitude_vanishes"]
    assert selection["nonzero_count"] == 0
    assert "no absorption" in capsys.readouterr().out


@pytest.mark.parametrize("time", ["nan", "inf"])
def test_photodetect_nonfinite_time_exits_one(tmp_path, capsys, time):
    assert main(["--out-dir", str(tmp_path), "photodetect", "--time", time]) == 1
    assert "error: exposure time must be nonnegative and finite" in capsys.readouterr().err


def test_out_dir_environment_fallback(tmp_path, monkeypatch):
    target = tmp_path / "env-out"
    monkeypatch.setenv("GRALAB_OUT_DIR", str(target))
    assert main(["g2", "number:1"]) == 0
    assert (target / "g2.csv").exists()


def test_missing_subcommand_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(tmp_path)])
    assert exc.value.code == 2
