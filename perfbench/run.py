"""gralab benchmark: one command, four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mc-sweep --seed 1 --seconds 20 --trace 0

Workloads: mc-sweep, oracle-ladder, field-maps, cli-readme (see
workloads.py for what each runs and why).  The program is imported from
``src/`` of the checkout; nothing needs installing.

One process drives a closed loop: the next operation starts when the
last one has finished, at most one child process runs at a time, and no
threads or pools are added (BLAS keeps its default thread count, which is
recorded).  Operations come in passes through the workload's fixed mix;
passes run until ``--seconds`` have passed, and at least ``min_passes``.
Only the program's calls are timed; checking happens between operations.

``--trace 0`` prints the end-to-end metrics:

    setup_s      median of fresh interpreters started until the workload is
                 ready (imports, inputs built, one warm-up operation of each
                 kind; cli-readme has no warm-up, its commands start cold)
    op_ms_p50    median operation latency
    op_ms_tail   latency at the highest percentile that keeps at least ten
                 samples beyond it at the workload's minimum sample count
    peak_rss_mb  peak resident memory of the workload's process (for
                 cli-readme, of the largest command process)
    work_per_s   median over passes of work done per second of operation
                 time: gates (mc-sweep), oracle checks (oracle-ladder),
                 frames (field-maps) or commands (cli-readme)

``--trace 1`` alternates untraced and traced passes, records spans around
calls into gralab's public functions (spans.py), and prints the per-layer
metrics with the tracing overhead.  cli-readme runs its commands through
``gralab.cli.main`` in this process when traced.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run, with the environment, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Sibling modules; they import gralab only inside functions, after main()
# has put the checkout's src/ on the path.
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 3
IMPORT_PROBES = 3
PERCENTILES = (50.0, 90.0, 99.0, 99.9)

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {
        "import.numpy_s": "s",
        "import.scipy_s": "s",
        "import.gralab_s": "s",
    }
    units.update({name: unit for name, (_, unit) in spans.layer_metrics(spans.Tracer()).items()})
    units.update({
        "cascade.alpha_z_pooled_max": "sigma",
        "cascade.stderr_coverage": "ratio",
        "fock.oracle.max_gap": "1",
        "beables.region2_reduction_gap": "1",
        "beables.rk4_max_error": "1",
        "beables.energy_drift_max": "1",
    })
    for label, _, _ in workloads.README_COMMANDS:
        units[f"cli.{label}.ms"] = "ms"
    units["cli.bytes_written"] = "B"
    units["trace.overhead_frac"] = "ratio"
    return units


# ------------------------------------------------------------- statistics


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile q among n samples."""
    return max(math.ceil(round(q / 100.0 * n, 9)), 1)


def tail_percentile(n: int) -> float | None:
    """Highest of PERCENTILES whose nearest-rank sample has >= 10 samples above it."""
    best = None
    for q in PERCENTILES:
        if n - _rank(q, n) >= 10:
            best = q
    return best


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the ceil(q n / 100)-th smallest sample."""
    ordered = sorted(samples)
    return ordered[_rank(q, len(ordered)) - 1]


# ------------------------------------------------------------ environment


def _blas_threads():
    import numpy

    base = Path(numpy.__file__).resolve().parent.parent
    libs = glob.glob(str(base / "numpy.libs" / "*openblas*")) + glob.glob(
        str(base / "scipy_openblas*" / "lib" / "*openblas*.so*")
    )
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment() -> dict:
    import numpy
    import scipy

    caches = {}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, check=True).stdout
        for line in text.splitlines():
            key, _, value = line.partition(":")
            if "cache" in key.lower():
                caches[key.strip()] = value.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "loadavg_start": _loadavg(),
    }


# ----------------------------------------------------------------- probes


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it reports ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
    return elapsed


def parse_importtime(text: str) -> dict[str, float]:
    """Import seconds of numpy, scipy and gralab (less the first two) from
    ``python -X importtime`` output."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals = {"numpy": 0.0, "scipy": 0.0, "gralab": 0.0, "nested": 0.0}
    stack: list[tuple[int, str]] = []
    # importtime prints children before their parent; walk it backwards so
    # each module's ancestors are on the stack when it is reached.
    for depth, name, seconds in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        roots = {n.split(".")[0] for _, n in stack}
        root = name.split(".")[0]
        # numpy imported from inside scipy is scipy's cost, and vice versa.
        outer = roots & {"numpy", "scipy"} if root != "gralab" else roots & {"gralab"}
        if root in totals and not outer:
            totals[root] += seconds
            if root != "gralab" and "gralab" in roots:
                totals["nested"] += seconds
        stack.append((depth, name))
    return {
        "import.numpy_s": totals["numpy"],
        "import.scipy_s": totals["scipy"],
        "import.gralab_s": totals["gralab"] - totals["nested"],
    }


def import_times() -> dict[str, float]:
    runs = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gralab, gralab.cli"],
            capture_output=True, text=True, check=True,
        )
        runs.append(parse_importtime(proc.stderr))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


# ------------------------------------------------------------------- loop


@dataclass
class Record:
    number: int
    kind: str
    seconds: float
    problems: list[str]


def run_pass(workload, index: int, records: list, tracer=None) -> tuple[float, int]:
    """Run one pass; returns (operation seconds, work done)."""
    busy, work = 0.0, 0
    for op in workload.make_pass(index):
        op.number = len(records)
        workload.before(op)
        result, problems = None, []
        start = time.perf_counter()
        try:
            if tracer is None:
                result = workload.run(op)
            else:
                tracer.op = op.number
                prefix = "cli" if workload.name == "cli-readme" else "op"
                with spans.tracing(tracer), tracer.span(f"{prefix}.{op.kind}"):
                    result = workload.run(op)
        except Exception as exc:  # a raised exception is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        done = 0
        if not problems:
            try:
                problems = workload.check(op, result)
                done = workload.work(op, result)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        busy += elapsed
        work += done
        records.append(Record(op.number, op.kind, elapsed, problems))
    return busy, work


def run_loop(workload, seconds: float, tracer=None):
    """Passes until the time is up (and min_passes ran).  With a tracer,
    even passes run untraced and odd passes traced."""
    records: list[Record] = []
    passes = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < workload.min_passes or time.perf_counter() < deadline:
        traced = tracer is not None and index % 2 == 1
        busy, work = run_pass(workload, index, records, tracer if traced else None)
        passes.append((busy, work, traced))
        index += 1
    for number, problems in workload.finish().items():
        records[number].problems.extend(problems)
    return records, passes


# ---------------------------------------------------------------- results


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_run(workload, args) -> tuple[dict, dict]:
    setups = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    workload.prepare()
    records, passes = run_loop(workload, args.seconds)
    latencies = [r.seconds for r in records]
    q = tail_percentile(workload.min_passes * workload.ops_per_pass)
    rates = [work / busy for busy, work, _ in passes if busy > 0]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_ms_p50": percentile(latencies, 50.0) * 1e3,
        "op_ms_tail": percentile(latencies, q) * 1e3,
        "peak_rss_mb": _peak_rss_mb(children=workload.name == "cli-readme"),
        "work_per_s": statistics.median(rates),
    }
    failed = sum(1 for r in records if r.problems)
    notes = {
        "tail_percentile": q,
        "samples": len(records),
        "passes": len(passes),
        "setup_probes_s": setups,
        "fail_frac": failed / len(records),
        "work_label": workload.work_label,
    }
    return metrics, {"records": records, "notes": notes}


def traced_run(workload, args) -> tuple[dict, dict]:
    imports = import_times()
    if workload.name == "cli-readme":
        workload.in_process = True
    workload.prepare()
    tracer = spans.Tracer()
    records, passes = run_loop(workload, args.seconds, tracer)

    def cost(traced):
        return statistics.median(b / w for b, w, t in passes if t == traced and w > 0)

    values = {name: value for name, (value, _) in spans.layer_metrics(tracer).items()}
    values.update(imports)
    values.update({name: value for name, (value, _) in workload.extra.items()})
    if workload.name == "cli-readme":
        for label, _, _ in workloads.README_COMMANDS:
            durations = [s.duration_ns * 1e-6 for s in tracer.spans if s.name == f"cli.{label}"]
            values[f"cli.{label}.ms"] = statistics.median(durations)
        values["cli.bytes_written"] = statistics.median(workload.bytes_per_pass.values())
    values["trace.overhead_frac"] = cost(True) / cost(False) - 1.0
    units = per_layer_units()
    metrics = {name: values.get(name, 0.0) for name in units}
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    notes = {"samples": len(records), "passes": len(passes), "spans": len(tracer.spans)}
    return metrics, {"records": records, "notes": notes, "units": units}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(args, workload, metrics, units, info, env) -> dict:
    records = info["records"]
    notes = info["notes"]
    failed = [r for r in records if r.problems]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} operations in {notes['passes']} passes, {len(failed)} failed")
    for r in failed[:10]:
        print(f"  FAILED op {r.number} ({r.kind}): {'; '.join(r.problems)}")
    for name, value in metrics.items():
        line = f"  {name:<48} {_fmt(value):>14} {units[name]}"
        if name == "op_ms_tail":
            line += f"  (p{notes['tail_percentile']:g} of {notes['samples']} samples)"
        if name == "work_per_s":
            line += f"  ({notes['work_label']}, median over {notes['passes']} passes)"
        if name.startswith("fock.oracle.") and name != "fock.oracle.max_gap":
            line += "  (computed from cutoffs, not measured)"
        print(line)
    if "fail_frac" in notes:
        print(f"  {'fail_frac':<48} {_fmt(notes['fail_frac']):>14} ratio")
    gaps = getattr(workload, "reduction_gaps", None)
    if gaps:
        print("  region II at phi=pi/2 against region I, largest relative gap per field "
              "(measured, not gated): " + ", ".join(f"{k} {v:.3e}" for k, v in gaps.items()))
    env["loadavg_end"] = _loadavg()
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, notes=notes, env=env,
                  problems=[[r.number, r.kind, r.problems] for r in failed])
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc-sweep", "oracle-ladder", "field-maps", "cli-readme"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "gralab" / "__init__.py").is_file():
        print(f"error: no gralab source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Child processes (set-up probes, import probes, CLI commands) inherit this.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    import gralab

    if not Path(gralab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: gralab imported from {gralab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    if args.setup_probe:
        workload.prepare()
        print("ready", flush=True)
        return 0
    try:
        env = environment()
        if args.trace:
            metrics, info = traced_run(workload, args)
            units = info["units"]
        else:
            metrics, info = timed_run(workload, args)
            units = END_TO_END
        result = report(args, workload, metrics, units, info, env)
    finally:
        close = getattr(workload, "close", None)
        if close:
            close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
