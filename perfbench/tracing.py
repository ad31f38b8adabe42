"""Spans around polelab's public functions, recorded from outside the package.

`instrument` replaces every public function of the traced modules with a
wrapper, in every `polelab.*` namespace that bound it (so `angmom`'s imported
`yukawa_electric_field` and `interference`'s own global `propagate_free`
are both caught), and puts the originals back on exit. A wrapper records a
span only while `Tracer.recording` is set, which the runner does around each
CLI call; the benchmark's own output checks therefore leave no spans.

A span is (name, start, end, parent index, pass id, error flag, info), kept
in memory; `layer_metrics` turns one pass's spans into the per-layer numbers.
"""

import contextlib
import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

MODULES = ("cli", "interference", "angmom", "vortex", "gauge", "fields")


@dataclass
class Span:
    name: str
    start: float
    parent: int
    pass_id: int
    end: float = 0.0
    error: bool = False
    info: dict = field(default_factory=dict)

    @property
    def module(self):
        return self.name.split(".", 1)[0]


def _sites_steps(args, result):
    grid = args["grid"]
    return {"sites": grid.nx * grid.ny, "steps": int(args["steps"])}


def _vector_points(args, result):
    return {"points": int(np.size(args["r"])) // 3}


def _written(args, result):
    return {"bytes": os.path.getsize(args["path"])}


# name -> probe(bound arguments, return value) -> counts stored on the span
PROBES = {
    "interference.propagate_free": _sites_steps,
    "interference.propagate_with_flux": _sites_steps,
    "interference.save_snapshot": lambda args, result: {
        "bytes": sum(os.path.getsize(p) for p in result)},
    "cli.write_csv": _written,
    "cli.write_json": _written,
    "fields.yukawa_electric_field": _vector_points,
    "fields.monopole_field": _vector_points,
    "fields.local_charge": lambda args, result: {
        "points": int(np.size(args["R"]))},
}


class Tracer:
    """Spans grouped by pass; parent indices are local to their pass."""

    def __init__(self):
        self.passes = {}
        self.recording = False
        self._spans = []
        self._pass_id = None
        self._stack = []

    def start_pass(self, pass_id):
        self._pass_id = pass_id
        self._spans = self.passes.setdefault(pass_id, [])

    def wrap(self, name, fn):
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), parent, self._pass_id)
            self._stack.append(len(self._spans))
            self._spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if probe:
                span.info = probe(signature.bind(*args, **kwargs).arguments,
                                  result)
            return result

        return traced


@contextlib.contextmanager
def instrument(tracer):
    """Wrap the public functions of MODULES for the duration of the block."""
    wrappers = {}
    for short in MODULES:
        mod = importlib.import_module(f"polelab.{short}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                wrappers[obj] = tracer.wrap(f"{short}.{name}", obj)

    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "polelab"
                               or mod_name.startswith("polelab.")):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])
                patched.append((mod, name, obj))
    try:
        yield tracer
    finally:
        for mod, name, obj in patched:
            setattr(mod, name, obj)


# ---------------------------------------------------------------------------
# per-layer metrics from one pass's spans
# ---------------------------------------------------------------------------

def self_times(spans):
    """Duration of each span minus the durations of its direct children.

    Parent indices refer to positions in `spans`.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _time_in(spans, names):
    """Wall time inside any of `names`, counting nested calls once."""
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            total += s.end - s.start
    return total


def _info_sum(spans, names, key):
    return sum(s.info.get(key, 0) for s in spans if s.name in names)


def layer_metrics(spans):
    """Per-layer numbers for one traced pass. `spans` must be the complete
    list of that pass, with parent indices local to it."""
    selfs = self_times(spans)
    m = {f"{mod}.self_s": sum(t for s, t in zip(spans, selfs)
                              if s.module == mod) for mod in MODULES}
    m["trace.spans"] = len(spans)

    prop = {"interference.propagate_free", "interference.propagate_with_flux"}
    prop_s = _time_in(spans, prop)
    steps = _info_sum(spans, prop, "steps")
    site_steps = sum(s.info.get("sites", 0) * s.info.get("steps", 0)
                     for s in spans if s.name in prop)
    m["interference.propagate_s"] = prop_s
    m["interference.propagations"] = sum(s.name in prop for s in spans)
    m["interference.steps"] = steps
    m["interference.step_ms"] = 1e3 * prop_s / steps if steps else 0.0
    m["interference.msite_steps_per_s"] = \
        site_steps / prop_s / 1e6 if prop_s else 0.0
    m["interference.array_mib"] = max(
        [s.info.get("sites", 0) * 16 / 2**20 for s in spans if s.name in prop],
        default=0.0)
    m["interference.packet_s"] = _time_in(
        spans, {"interference.gaussian_packet",
                "interference.two_gaussian_packet"})
    m["interference.measure_s"] = _time_in(
        spans, {"interference.invisibility_metric",
                "interference.fringe_shift", "interference.intensity_slice"})
    snap = {"interference.save_snapshot"}
    m["interference.snapshot_s"] = _time_in(spans, snap)
    m["interference.snapshot_bytes"] = _info_sum(spans, snap, "bytes")

    cells = [s for s in spans if s.name == "angmom.field_angular_momentum"]
    m["angmom.cell_s"] = statistics.median(
        [s.end - s.start for s in cells]) if cells else 0.0
    m["angmom.cells"] = len(cells)
    m["angmom.failed_cells"] = sum(s.error for s in cells)

    m["vortex.solve_s"] = _time_in(spans, {"vortex.solve_vortex"})
    m["vortex.energy_s"] = _time_in(spans, {"vortex.vortex_energy"})
    m["vortex.solves"] = sum(s.name == "vortex.solve_vortex" for s in spans)

    m["gauge.cap_flux_s"] = _time_in(spans, {"gauge.cap_flux"})
    m["gauge.line_integral_s"] = _time_in(spans, {"gauge.line_integral"})
    m["gauge.line_integral_calls"] = sum(
        s.name == "gauge.line_integral" for s in spans)
    m["gauge.check_s"] = _time_in(spans, {"gauge.check_quantization"})

    evals = {"fields.yukawa_electric_field", "fields.monopole_field",
             "fields.local_charge"}
    m["fields.eval_s"] = _time_in(spans, evals)
    m["fields.points"] = _info_sum(spans, evals, "points")

    writes = {"cli.write_csv", "cli.write_json"}
    m["cli.write_s"] = _time_in(spans, writes)
    m["cli.output_bytes"] = _info_sum(spans, writes, "bytes")
    m["cli.commands"] = sum(s.name == "cli.main" for s in spans)
    return m
