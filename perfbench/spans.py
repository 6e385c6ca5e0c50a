"""In-memory spans around calls into gralab's public functions.

Tracing rebinds module attributes (``gralab.cascade.simulate`` and so on)
to wrappers for the duration of a ``with tracing(tracer):`` block and
restores them afterwards.  Module code looks those names up at call time,
so calls made inside gralab (``sweep_curve`` calling ``simulate``, the CLI
calling ``line_plot``) are traced too.  Nothing in gralab is edited.
Helpers called once per RK4 step or per frame term, such as
``region1_equations_of_motion`` or ``mode_frequencies``, are left alone.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    op: int
    key: str = ""
    work: int = 0
    child_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        # Spans nest strictly on one thread, so children never overlap and
        # their summed durations are the time they cover.
        return self.duration_ns - self.child_ns


class Tracer:
    """Collects spans; one operation id is shared by all spans of an operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0

    def begin(self, name: str, key: str = "") -> Span:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        record = Span(name, time.perf_counter_ns(), 0, parent, self.op, key)
        self.spans.append(record)
        return record

    def end(self, record: Span) -> None:
        record.end = time.perf_counter_ns()
        self._stack.pop()
        if record.parent is not None:
            self.spans[record.parent].child_ns += record.duration_ns

    @contextlib.contextmanager
    def span(self, name: str, key: str = ""):
        record = self.begin(name, key)
        try:
            yield record
        finally:
            self.end(record)

    def wrap(self, fn, name: str, key=None, work=None):
        def wrapper(*args, **kwargs):
            record = self.begin(name, key(*args, **kwargs) if key else "")
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    record.work = int(work(result, *args, **kwargs))
            finally:
                self.end(record)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"name": s.name, "start_ns": s.start, "end_ns": s.end,
                         "parent": s.parent, "op": s.op, "key": s.key,
                         "work": s.work, "self_ns": s.self_ns}
                    )
                    + "\n"
                )


def _vacuum_key(vacuum_pos: int):
    def key(*args, **kwargs):
        vacuum = kwargs.get("vacuum", args[vacuum_pos] if len(args) > vacuum_pos else None)
        return f"vac{0 if vacuum is None else len(vacuum.coords)}"

    return key


def _cascade_key(cfg):
    stop = "run_time" if cfg.run_time is not None else "target"
    return f"{cfg.arrival_mode}/{stop}"


def _oracle_key(state, bs=None, n_max=None, leakage_tol=1e-12):
    from gralab import fock

    if n_max is None:
        n_max = fock.default_cutoff(state, leakage_tol)
    pure = isinstance(state, fock.NumberState)
    return f"nmax{n_max}/{'pure' if pure else 'mixture'}"


def _wrapped_functions():
    """(module, attribute, span name, key function, work function)."""
    from gralab import beables, cascade, classical, fock, photodetect, svgplot

    return [
        (cascade, "simulate", "cascade.simulate", _cascade_key, lambda r, *a, **k: r.total_gates),
        (cascade, "sweep_curve", "cascade.sweep_curve", None, None),
        (fock, "g2", "fock.g2", None, None),
        (fock, "oracle_g2", "fock.oracle_g2", _oracle_key, None),
        (beables, "beables_region1", "beables.beables_region1", _vacuum_key(4), None),
        (beables, "beables_region2", "beables.beables_region2", _vacuum_key(5), None),
        (beables, "integrate_region1", "beables.integrate_region1", None,
         lambda r, *a, **k: len(r.times) - 1),
        (beables, "frame_consistency_region1", "beables.frame_consistency", None, None),
        (beables, "frame_consistency_region2", "beables.frame_consistency", None, None),
        (beables, "wave_equation_residual", "beables.wave_equation_residual", None, None),
        (beables, "total_energy", "beables.total_energy", None, None),
        (photodetect, "eta", "photodetect.eta", None, lambda r, *a, **k: np.size(r)),
        (photodetect, "absorption_matrix_element_check", "photodetect.absorption_check", None, None),
        (classical, "GateIntensityEnsemble", "classical.ensemble", None, None),
        (classical, "classical_alpha", "classical.ensemble", None, None),
        (svgplot, "line_plot", "svgplot.line_plot", None, None),
    ]


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Rebind the traced gralab functions to span-recording wrappers."""
    saved = []
    try:
        for module, attr, name, key, work in _wrapped_functions():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, key, work))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ------------------------------------------------------- per-layer metrics

LAYERS = ("fock", "classical", "cascade", "beables", "photodetect", "svgplot", "cli")


def _busy_s(spans) -> float:
    return sum(s.duration_ns for s in spans) * 1e-9


def _per_call(spans, scale: float) -> float:
    return _busy_s(spans) / len(spans) * scale if spans else 0.0


def _rate(spans, work_scale: float = 1.0) -> float:
    busy = _busy_s(spans)
    return sum(s.work for s in spans) * work_scale / busy if busy > 0 else 0.0


def _median_ms(spans) -> float:
    return float(np.median([s.duration_ns for s in spans])) * 1e-6 if spans else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans, as name -> (value, unit).

    A layer the workload never calls reports zero counts and zero rates.
    """
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def spans(name, key_prefix=""):
        return [s for s in by_name.get(name, []) if s.key.startswith(key_prefix)]

    sim = spans("cascade.simulate")
    oracle = spans("fock.oracle_g2")
    out: dict[str, tuple[float, str]] = {
        "cascade.simulate.calls": (len(sim), "count"),
        "cascade.simulate.gates": (sum(s.work for s in sim), "count"),
        "cascade.simulate.busy_s": (_busy_s(sim), "s"),
        "cascade.simulate.mgates_per_s.analytic": (_rate(spans("cascade.simulate", "analytic"), 1e-6), "Mgates/s"),
        "cascade.simulate.mgates_per_s.physical": (_rate(spans("cascade.simulate", "physical"), 1e-6), "Mgates/s"),
        "cascade.simulate.mgates_per_s.run_time": (
            _rate([s for s in sim if s.key.endswith("run_time")], 1e-6), "Mgates/s"),
        "cascade.sweep_curve.busy_s": (_busy_s(spans("cascade.sweep_curve")), "s"),
        "fock.oracle_g2.calls": (len(oracle), "count"),
        "fock.oracle_g2.busy_s": (_busy_s(oracle), "s"),
        "fock.g2.us_per_call": (_per_call(spans("fock.g2"), 1e6), "us"),
    }
    for n_max in (10, 40, 49, 100, 129):
        out[f"fock.oracle_g2.ms.nmax{n_max}"] = (_median_ms(spans("fock.oracle_g2", f"nmax{n_max}/")), "ms")
    components = bytes_computed = 0
    for s in oracle:
        n_max = int(s.key.split("/")[0][4:])
        count = 1 if s.key.endswith("pure") else n_max + 1
        components += count
        bytes_computed += count * 16 * (n_max + 1) ** 2
    out["fock.oracle.components"] = (components, "count")
    out["fock.oracle.bytes_computed"] = (bytes_computed, "B")
    for region in ("beables_region1", "beables_region2"):
        for vac in ("vac0", "vac16"):
            frames = spans(f"beables.{region}", vac)
            busy = _busy_s(frames)
            out[f"beables.{region}.frames_per_s.{vac}"] = (len(frames) / busy if busy else 0.0, "1/s")
    rk4 = spans("beables.integrate_region1")
    steps = sum(s.work for s in rk4)
    out["beables.integrate_region1.steps"] = (steps, "count")
    out["beables.integrate_region1.us_per_step"] = (_busy_s(rk4) / steps * 1e6 if steps else 0.0, "us")
    out["beables.frame_consistency.ms_per_call"] = (_per_call(spans("beables.frame_consistency"), 1e3), "ms")
    out["beables.wave_equation_residual.ms_per_call"] = (
        _per_call(spans("beables.wave_equation_residual"), 1e3), "ms")
    out["beables.total_energy.us_per_call"] = (_per_call(spans("beables.total_energy"), 1e6), "us")
    out["photodetect.eta.points_per_s"] = (_rate(spans("photodetect.eta")), "1/s")
    out["photodetect.absorption_check.us_per_call"] = (
        _per_call(spans("photodetect.absorption_check"), 1e6), "us")
    # One ensemble build plus one classical_alpha call make one use.
    ensemble = spans("classical.ensemble")
    uses = len(ensemble) // 2
    out["classical.ensemble.us_per_call"] = (_busy_s(ensemble) / uses * 1e6 if uses else 0.0, "us")
    plots = spans("svgplot.line_plot")
    out["svgplot.line_plot.calls"] = (len(plots), "count")
    out["svgplot.line_plot.ms_per_call"] = (_per_call(plots, 1e3), "ms")
    for layer in LAYERS:
        own = [s for s in tracer.spans if s.name.split(".")[0] == layer]
        out[f"{layer}.self_s"] = (sum(s.self_ns for s in own) * 1e-9, "s")
    return out
