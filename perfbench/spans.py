"""Span recorder for the traced benchmark run.

The kgpair package has no tracing of its own yet, so the spans are recorded
from outside it: ``install`` wraps each public function or method listed in
``TARGETS`` (and every module-level alias of it, because ``kgpair.cli`` and
``kgpair/__init__`` bind imports by name) and returns a function that puts
every original object back. The untraced run never calls ``install``.

Spans are kept in memory with their parent and item id and written once, at
the end of the run. A span's self time is its duration minus the time covered
by its child spans; a single thread runs the program, so children nest inside
their parent and the stack gives self time exactly.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from workloads import SIM_GRIDS

PARTITION_SPANS = ("cutoffs.CutoffFamily.chi_R", "cutoffs.CutoffFamily.chi_S",
                   "cutoffs.CutoffFamily.chi_T")
STEP_SPAN = "simulator.step"


class Recorder:
    """Spans, per-item counters and samples of one traced run."""

    def __init__(self):
        self.item = -1
        self.spans: list[tuple] = []  # (id, parent id, item, name, start, end, self)
        self.counters: dict = defaultdict(float)  # (item, name) -> amount
        self.samples: dict = defaultdict(list)  # name -> values
        self.open: dict = defaultdict(int)  # span name -> currently open count
        self._stack: list[list] = []  # [id, name, start, child time]
        self._next_id = 0

    def enter(self, name: str):
        self.open[name] += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> float:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        self.open[name] -= 1
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else None, self.item, name,
                           start, end, duration - child))
        return duration

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str, amount: float = 1.0):
        self.counters[(self.item, name)] += amount

    def write(self, path: Path):
        """JSON lines: [id, parent id, item, name, start s, end s, self s]."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


# -- hooks: (recorder, call args, call kwargs[, result, duration]) ------------

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _vector_points(xi, eta) -> int:
    shape = np.broadcast_shapes(np.shape(xi)[:-1], np.shape(eta)[:-1])
    return math.prod(shape)


def _count_bytes(rec, args, kwargs, result, duration):
    rec.count("reporting.bytes", len(result))


def _count_z_points(rec, args, kwargs):
    rec.count("resonance.z_points", np.size(_arg(args, kwargs, 2, "r")))


def _count_components(rec, args, kwargs, result, duration):
    rec.count("resonance.components", len(result.components))
    rec.count("resonance.scan_warnings", len(result.warnings))


def _count_phase_points(rec, args, kwargs):
    xi, eta = _arg(args, kwargs, 2, "xi"), _arg(args, kwargs, 3, "eta")
    rec.count("dispersion.SpeedPair.phase.points", _vector_points(xi, eta))


def _count_radial_points(rec, args, kwargs):
    moduli = [_arg(args, kwargs, i, key) for i, key in ((2, "r_xi"), (3, "r_eta"), (4, "r_diff"))]
    rec.count("dispersion.SpeedPair.phase_radial.points", np.broadcast(*moduli).size)


def _partition_hook(is_chi_R: bool):
    def hook(rec, args, kwargs):
        points = _vector_points(_arg(args, kwargs, 1, "xi"), _arg(args, kwargs, 2, "eta"))
        if is_chi_R:
            rec.count("cutoffs.chi_R_points", points)
        if not any(rec.open[name] for name in PARTITION_SPANS):
            rec.count("cutoffs.partition_points", points)
    return hook


def _count_materialize(rec, args, kwargs):
    symbol, grid = args[0], _arg(args, kwargs, 1, "grid")
    rec.count("bilinear.materialize_calls")
    if (grid.n, grid.box_length) in getattr(symbol, "_cache", {}):
        rec.count("bilinear.materialize_hits")


# computed, not measured: bytes of the n x n arrays each dense call touches.
# pseudo_product reads the complex table, builds an int64 index and three
# complex temporaries; symbol_l1_norm writes a complex ifft2 and its modulus.
def _count_dense_product(rec, args, kwargs, result, duration):
    if not _arg(args, kwargs, 0, "symbol").is_separable:
        n = _arg(args, kwargs, 1, "f").n
        rec.count("bilinear.dense_bytes", (16 + 8 + 3 * 16) * n * n)


def _count_l1_norm(rec, args, kwargs, result, duration):
    n = _arg(args, kwargs, 1, "grid").n
    rec.count("bilinear.dense_bytes", (16 + 8) * n * n)


def _fft_hook(points_of):
    def hook(rec, args, kwargs):
        rec.count("bilinear.fft_points", points_of(args, kwargs))
        if rec.open[STEP_SPAN]:
            rec.count("simulator.fft_calls_in_step")
    return hook


def _count_field_built(rec, args, kwargs):
    if rec.open[STEP_SPAN]:
        rec.count("simulator.fields_built_in_step")


def _time_step(rec, args, kwargs, result, duration):
    n = _arg(args, kwargs, 0, "state").grid.n
    rec.samples[f"simulator.step_us.n{n}"].append(duration * 1e6)


# (module, attribute or Class.attribute, span name or None for a counter
#  only, hook before the call, hook after the call)
TARGETS = (
    ("kgpair.reporting", "to_canonical_json", "reporting.to_canonical_json", None, _count_bytes),
    ("kgpair.resonance", "scan_all", "resonance.scan_all", None, _count_components),
    ("kgpair.resonance", "find_resonant_components", "resonance.find_resonant_components",
     None, None),
    ("kgpair.resonance", "time_resonance_gap", "resonance.time_resonance_gap",
     _count_z_points, None),
    ("kgpair.resonance", "find_admissible_constants", "resonance.find_admissible_constants",
     None, None),
    ("kgpair.dispersion", "SpeedPair.phase", "dispersion.SpeedPair.phase",
     _count_phase_points, None),
    ("kgpair.dispersion", "SpeedPair.phase_radial", "dispersion.SpeedPair.phase_radial",
     _count_radial_points, None),
    ("kgpair.cutoffs", "CutoffFamily.chi_R", "cutoffs.CutoffFamily.chi_R",
     _partition_hook(True), None),
    ("kgpair.cutoffs", "CutoffFamily.chi_S", "cutoffs.CutoffFamily.chi_S",
     _partition_hook(False), None),
    ("kgpair.cutoffs", "CutoffFamily.chi_T", "cutoffs.CutoffFamily.chi_T",
     _partition_hook(False), None),
    ("kgpair.cutoffs", "bound_probe", "cutoffs.bound_probe", None, None),
    ("kgpair.bilinear", "pseudo_product", "bilinear.pseudo_product", None, _count_dense_product),
    ("kgpair.bilinear", "symbol_l1_norm", "bilinear.symbol_l1_norm", None, _count_l1_norm),
    ("kgpair.bilinear", "SymbolGrid.materialize", "bilinear.SymbolGrid.materialize",
     _count_materialize, None),
    ("kgpair.bilinear", "ridge_bound_probe", "bilinear.ridge_bound_probe", None, None),
    ("kgpair.bilinear", "holder_bound_probe", "bilinear.holder_bound_probe", None, None),
    ("kgpair.bilinear", "bernstein_check", "bilinear.bernstein_check", None, None),
    ("kgpair.bilinear", "shell_weighted_ratio", "bilinear.shell_weighted_ratio", None, None),
    ("kgpair.bilinear", "SpectralField.to_physical", "bilinear.SpectralField.to_physical",
     _fft_hook(lambda args, kwargs: args[0].coef.size), None),
    ("kgpair.bilinear", "SpectralField.from_physical", "bilinear.SpectralField.from_physical",
     _fft_hook(lambda args, kwargs: np.size(_arg(args, kwargs, 1, "values"))), None),
    ("kgpair.bilinear", "SpectralField.__init__", None, _count_field_built, None),
    ("kgpair.simulator", "run_resonant_amplification", "simulator.run_resonant_amplification",
     None, None),
    ("kgpair.simulator", "step", STEP_SPAN, None, _time_step),
    ("kgpair.simulator", "band_energy", "simulator.band_energy", None, None),
)

CLI_SPANS = tuple(f"cli.{name}" for name in
                  ("resonances", "constants", "cutoff-export", "operator-probe", "simulate"))
SPAN_NAMES = CLI_SPANS + tuple(t[2] for t in TARGETS if t[2] is not None)


def _traced(rec: Recorder, fn, name, before, after):
    if name is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before(rec, args, kwargs)
            return fn(*args, **kwargs)
        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(rec, args, kwargs)
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = rec.exit()
        if after is not None:
            after(rec, args, kwargs, result, duration)
        return result
    return traced


def kgpair_modules() -> list:
    return [mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "kgpair" or key.startswith("kgpair."))]


def install(rec: Recorder):
    """Wrap every target and its aliases; returns the function that undoes it."""
    undo = []
    modules = kgpair_modules()
    for module_name, path, name, before, after in TARGETS:
        owner = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            cls = getattr(owner, class_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_traced(rec, raw.__func__, name, before, after))
            else:
                wrapped = _traced(rec, raw, name, before, after)
            undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
            continue
        raw = getattr(owner, path)
        wrapped = _traced(rec, raw, name, before, after)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is raw]:
                undo.append((mod, key, raw))
                setattr(mod, key, wrapped)

    def restore():
        for obj, attr, raw in reversed(undo):
            setattr(obj, attr, raw)

    return restore


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rollup(rec: Recorder, count_items: int, time_items: int) -> dict:
    """Per-layer metrics: counts over the first ``count_items`` items (exact and
    repeatable for a seed), times as means over all ``time_items`` items."""
    calls: dict = defaultdict(int)
    total: dict = defaultdict(float)
    self_total: dict = defaultdict(float)
    for _, _, item, name, start, end, self_time in rec.spans:
        total[name] += end - start
        self_total[name] += self_time
        if item < count_items:
            calls[name] += 1
    counts: dict = defaultdict(float)
    for (item, name), amount in rec.counters.items():
        if item < count_items:
            counts[name] += amount

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name] / count_items, "calls/item")
        metrics[f"{name}.ms"] = (total[name] * 1e3 / time_items, "ms")
        metrics[f"{name}.self_ms"] = (self_total[name] * 1e3 / time_items, "ms")
    for name, unit in (("reporting.bytes", "bytes/item"),
                       ("resonance.z_points", "points/item"),
                       ("resonance.components", "count/item"),
                       ("resonance.scan_warnings", "count/item"),
                       ("dispersion.SpeedPair.phase.points", "points/item"),
                       ("dispersion.SpeedPair.phase_radial.points", "points/item"),
                       ("cutoffs.partition_points", "points/item"),
                       ("bilinear.dense_bytes", "bytes/item"),
                       ("bilinear.fft_points", "points/item")):
        metrics[name] = (counts[name] / count_items, unit)
    metrics["cutoffs.chi_R_evals_per_point"] = (
        _ratio(counts["cutoffs.chi_R_points"], counts["cutoffs.partition_points"]), "ratio")
    metrics["bilinear.materialize_hit_ratio"] = (
        _ratio(counts["bilinear.materialize_hits"], counts["bilinear.materialize_calls"]), "ratio")
    metrics["simulator.fft_calls_per_step"] = (
        _ratio(counts["simulator.fft_calls_in_step"], calls[STEP_SPAN]), "calls/step")
    metrics["simulator.fields_built_per_step"] = (
        _ratio(counts["simulator.fields_built_in_step"], calls[STEP_SPAN]), "fields/step")
    for n in SIM_GRIDS:
        values = rec.samples.get(f"simulator.step_us.n{n}", [])
        metrics[f"simulator.step_us.n{n}"] = (statistics.median(values) if values else 0.0, "us")
    return metrics
