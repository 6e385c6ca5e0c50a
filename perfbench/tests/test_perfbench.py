"""Tests of the benchmark itself: metric names, checkers, determinism, statistics.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------ metric names


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert all(unit for unit in run.per_layer_units().values())


def test_layer_metrics_cover_every_name_even_when_a_layer_is_idle():
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        from gralab import fock

        fock.oracle_g2(fock.NumberState(3))
    metrics = spans.layer_metrics(tracer)
    assert set(metrics) == set(spans.layer_metrics(spans.Tracer()))
    assert metrics["fock.oracle_g2.calls"] == (1, "count")
    assert metrics["cascade.simulate.calls"] == (0, "count")


# ---------------------------------------------------------------- checkers


def _one(workload_cls, kind, seed=5):
    w = workload_cls(seed, ROOT)
    op = next(o for o in w.make_pass(0) if o.kind == kind)
    return w, op


def test_oracle_checker_rejects_perturbed_values():
    w, op = _one(workloads.OracleLadder, "chaotic")
    g2, oracle = w.run(op)
    assert w.check(op, (g2, oracle)) == []
    assert w.check(op, (g2, oracle + 1e-7))
    assert w.check(op, (g2 + 1e-9, oracle + 1e-9))
    assert checks.check_oracle("number", 1, 0.0, 0.0) == []
    assert checks.check_oracle("number", 1, 1e-10, 1e-10)


def test_cascade_record_checker_rejects_perturbed_records():
    w = workloads.McSweep(5, ROOT)
    ops = w.make_pass(0)
    dark = next(o for o in ops if o.args["n_omega"] == 0.0)
    dark.args["cfg"] = replace(dark.args["cfg"], run_time=None, target_gates=70_000)
    rec = w.run(dark)
    assert w.check(dark, rec) == []
    assert w.check(dark, replace(rec, nc_counts=1))
    assert w.check(dark, replace(rec, n1_counts=69_999, total_gates=69_999))
    timed = next(o for o in ops if o.args["cfg"].run_time is not None and o.args["n_omega"] == 3.0)
    timed.args["cfg"] = replace(timed.args["cfg"], run_time=timed.args["cfg"].run_time / 10.0)
    rec = w.run(timed)
    assert w.check(timed, rec) == []
    assert w.check(timed, replace(rec, elapsed_sim_time=timed.args["cfg"].run_time * 1.01))


def test_pooled_check_rejects_a_shifted_ratio():
    p = workloads.P_ARM
    big_t, big_r, big_c = checks.gate_probabilities(0.9, 0.1, 1.0, p, p)
    g = 10_000_000
    exact = {"n1": g, "nt": round(g * big_t), "nr": round(g * big_r), "nc": round(g * big_c)}
    assert abs(checks.pooled_z(exact, 0.9, 0.1, 1.0, p, p)) < 0.1
    # Twelve standard deviations of the coincidence count.
    shifted = dict(exact, nc=exact["nc"] + round(12.0 * math.sqrt(exact["nc"])))
    assert checks.pooled_z(shifted, 0.9, 0.1, 1.0, p, p) > checks.POOLED_Z_MAX


def test_exact_alpha_limits():
    p = workloads.P_ARM
    assert checks.exact_alpha(0.9, 0.0, 1.0, p, p) == pytest.approx(0.0, abs=1e-12)
    # At vanishing efficiency the exact ratio tends to (2 f Nw + Nw^2) / (f + Nw)^2.
    eps = 1e-4
    assert checks.exact_alpha(0.9, 0.9, 1.0, eps, eps) == pytest.approx(0.75, rel=1e-3)


@pytest.mark.parametrize("kind", workloads.MAP_KINDS)
def test_field_map_checker_rejects_perturbed_frames(kind):
    w, op = _one(workloads.FieldMaps, kind)
    frames, consistency = w.run(op)
    assert w.check(op, (frames, consistency)) == []
    for field in ("vector_potential", "electric_field", "magnetic_field"):
        bad = list(frames)
        frame = bad[100]
        bad[100] = replace(frame, **{field: getattr(frame, field) * (1.0 + 1e-6)})
        assert w.check(op, (bad, consistency)), field
    bad = list(frames)
    bad[7] = replace(bad[7], intensity=np.full(3, np.nan))
    assert w.check(op, (bad, consistency))
    assert w.check(op, (frames, (consistency[0], 2e-6)))


def test_rk4_energy_and_residual_checkers_reject_perturbed_results():
    w = workloads.FieldMaps(5, ROOT)
    ops = {o.kind: o for o in w.make_pass(0)}
    traj = w.run(ops["rk4"])
    assert w.check(ops["rk4"], traj) == []
    assert w.check(ops["rk4"], replace(traj, q_a=traj.q_a * (1.0 + 1e-5)))
    energies = w.run(ops["energy"])
    assert w.check(ops["energy"], energies) == []
    assert w.check(ops["energy"], energies[:-1] + [energies[-1] * (1.0 + 1e-4)])
    residuals = w.run(ops["residual"])
    assert w.check(ops["residual"], residuals) == []
    assert w.check(ops["residual"], residuals[:-1] + [2e-4])


def test_reduction_gap_sees_a_difference():
    same = [np.ones(3), np.ones(3)]
    assert checks.reduction_gap(same, same) == 0.0
    assert checks.reduction_gap([np.ones(3), np.array([1.0, 1.5, 1.0])], same) == 0.5


def _fake_run(out_dir, subcommand, files):
    for name, text in files.items():
        (out_dir / name).write_text(text)
    manifest = {"outputs": list(files)}
    (out_dir / f"{subcommand}_manifest.json").write_text(json.dumps(manifest))


def test_cli_checker_rejects_failed_runs(tmp_path):
    _fake_run(tmp_path, "g2", {"g2.csv": "state,g2\n"})
    assert checks.check_cli_run(0, tmp_path, "g2") == []
    assert checks.check_cli_run(1, tmp_path, "g2")
    (tmp_path / "g2.csv").write_text("")
    assert checks.check_cli_run(0, tmp_path, "g2")
    (tmp_path / "g2.csv").unlink()
    assert checks.check_cli_run(0, tmp_path, "g2")
    assert checks.check_cli_run(0, tmp_path, "cascade")


# ------------------------------------------------------------- determinism


def _describe(op):
    out = [op.kind]
    for key, value in sorted(op.args.items()):
        if key in ("points", "probe", "argv", "n_max", "value", "volume", "t", "phi", "period"):
            out.append(np.asarray(value, dtype=object).tolist())
        elif key == "vacuum":
            out.append(None if value is None else value.coords.tolist())
        else:
            out.append(repr(value))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_operations(name):
    cls = workloads.WORKLOADS[name]
    first = [_describe(o) for o in cls(11, ROOT).make_pass(3)]
    again = [_describe(o) for o in cls(11, ROOT).make_pass(3)]
    other = [_describe(o) for o in cls(12, ROOT).make_pass(3)]
    assert first == again
    assert len(first) == cls.ops_per_pass
    assert first != other


def test_same_seed_gives_identical_cascade_counts():
    def counts(seed):
        w = workloads.McSweep(seed, ROOT)
        op = next(o for o in w.make_pass(2) if o.args["n_omega"] == 0.3)
        op.args["cfg"] = replace(op.args["cfg"], run_time=None, target_gates=100_000)
        return w.run(op)

    assert counts(21) == counts(21)
    assert counts(21) != counts(22)


# -------------------------------------------------------------- statistics


@pytest.mark.parametrize(
    "n, q", [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)]
)
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert run.tail_percentile(n) == q


def test_percentile_picks_the_nearest_rank_sample():
    samples = list(np.random.default_rng(0).permutation(np.arange(1.0, 101.0)))
    assert run.percentile(samples, 90.0) == 90.0
    assert sum(s > run.percentile(samples, 90.0) for s in samples) == 10
    assert run.percentile(samples, 50.0) == 50.0
    assert run.percentile([3.0, 1.0, 2.0], 50.0) == 2.0


def test_minimum_passes_give_each_workload_its_tail_percentile():
    for cls in workloads.WORKLOADS.values():
        assert run.tail_percentile(cls.min_passes * cls.ops_per_pass) is not None


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    outer = tracer.begin("cli.g2")
    inner = tracer.begin("fock.oracle_g2")
    tracer.end(inner)
    tracer.end(outer)
    outer.start, outer.end, outer.child_ns = 0, 100, 0
    inner.start, inner.end = 10, 40
    outer.child_ns = inner.duration_ns
    assert inner.parent == 0 and outer.parent is None
    assert outer.self_ns == 70
    assert inner.self_ns == 30


def test_tracing_restores_the_original_functions():
    from gralab import cascade

    original = cascade.simulate
    with spans.tracing(spans.Tracer()):
        assert cascade.simulate is not original
    assert cascade.simulate is original


def test_parse_importtime_splits_numpy_scipy_and_gralab():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         numpy.core",
        "import time:        50 |        150 |       numpy",
        "import time:        30 |         30 |         numpy.linalg",
        "import time:       200 |        230 |       scipy.stats",
        "import time:        20 |        400 |     gralab.fock",
        "import time:        10 |        410 |   gralab",
        "import time:         5 |          5 |   gralab.cli",
    ])
    got = run.parse_importtime(text)
    assert got["import.numpy_s"] == pytest.approx(150e-6)
    assert got["import.scipy_s"] == pytest.approx(230e-6)
    assert got["import.gralab_s"] == pytest.approx((410 + 5 - 150 - 230) * 1e-6)
