"""Span tracing of the library's layers, installed from the benchmark side.

``Tracer.install`` replaces each traced public name with a wrapper that
records a span (name, start, end, parent span, operation id).  A function
is patched in every ``cherenkov_wigner`` module that holds it, because that
is where callers look it up (``cli.evaluate_map`` as well as
``wignerfield.evaluate_map``); methods are patched on their class.  Names
that a later version of the library no longer has are skipped, and their
metrics read 0.  Spans stay in memory; ``write`` saves them at the end.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from cherenkov_wigner import medium

# (span name, module, attribute path): each span name is one layer metric.
SPANS = [
    ("numerics.quad", "numerics", "integrate_adaptive"),
    ("observables.kernel", "observables", "PhaseSpaceKernel.from_geometry"),
    ("observables.coeffs", "observables", "PhaseSpaceKernel.prefactor_complex"),
    ("observables.coeffs", "observables",
     "PhaseSpaceKernel.exponent_coefficients"),
    ("observables.envelope", "observables", "PhaseSpaceKernel.big_g"),
    ("observables.wkb_flags", "observables", "wkb_flags"),
    ("observables.closed_form", "observables", "spread_times_at_angle"),
    ("observables.closed_form", "observables", "singular_angles"),
    ("observables.closed_form", "observables", "flash_stats"),
    ("observables.closed_form", "observables",
     "PhaseSpaceKernel.exponent_complex"),
    ("amplitudes", "amplitudes", "summed_mod_squared"),
    ("amplitudes", "amplitudes", "helicity_amplitude"),
    ("amplitudes", "amplitudes", "combined_phase_gradient"),
    ("wignerfield.map", "wignerfield", "evaluate_map"),
    ("wignerfield.point", "wignerfield", "evaluate_point"),
    ("wignerfield.default_grid", "wignerfield", "default_grid"),
    ("wignerfield.csv", "wignerfield", "write_map_csv"),
    ("cli.parse", "cli", "parse_config"),
    ("cli.study", "cli", "run_study"),
    ("svgplot.heatmap", "svgplot", "heatmap_svg"),
    ("svgplot.polyline", "svgplot", "polyline_svg"),
]
# Cheap, frequent calls: counted, not spanned.
COUNTS = [
    ("kinematics.geometry", "kinematics", "EmissionGeometry.from_final_state"),
    ("kinematics.geometry", "kinematics", "triangle_geometry"),
]

# (metric, unit) in report order; BENCHMARK.json lists the same names.
LAYER_METRICS = [
    ("numerics.quad.calls", "count"), ("numerics.quad.self_s", "s"),
    ("numerics.quad.panels", "count"), ("numerics.quad.panels_p50", "count"),
    ("numerics.quad.panels_max", "count"),
    ("numerics.quad.nonconverged", "count"),
    ("observables.kernel.calls", "count"), ("observables.kernel.s", "s"),
    ("observables.coeffs.calls", "count"), ("observables.coeffs.s", "s"),
    ("observables.envelope.s", "s"),
    ("observables.wkb_flags.calls", "count"),
    ("observables.wkb_flags.s", "s"),
    ("observables.closed_form.calls", "count"),
    ("observables.closed_form.s", "s"),
    ("amplitudes.calls", "count"), ("amplitudes.s", "s"),
    ("kinematics.geometry.calls", "count"),
    ("medium.index.calls", "count"), ("medium.import_s", "s"),
    ("wignerfield.map.calls", "count"), ("wignerfield.map.s", "s"),
    ("wignerfield.map.self_s", "s"), ("wignerfield.map.w2_speedup", "ratio"),
    ("wignerfield.point.calls", "count"), ("wignerfield.point.s", "s"),
    ("wignerfield.point.self_s", "s"),
    ("wignerfield.default_grid.calls", "count"),
    ("wignerfield.default_grid.s", "s"),
    ("wignerfield.nodes", "count"), ("wignerfield.err_est_max", "ratio"),
    ("wignerfield.csv.calls", "count"), ("wignerfield.csv.s", "s"),
    ("wignerfield.csv.bytes", "bytes"),
    ("wignerfield.coeff_miss_ratio", "ratio"),
    ("cli.parse.calls", "count"), ("cli.parse.s", "s"),
    ("cli.study.calls", "count"), ("cli.study.s", "s"),
    ("cli.study.self_s", "s"), ("cli.csv_bytes", "bytes"),
    ("svgplot.heatmap.calls", "count"), ("svgplot.heatmap.s", "s"),
    ("svgplot.heatmap.bytes", "bytes"),
    ("svgplot.polyline.calls", "count"), ("svgplot.polyline.s", "s"),
    ("svgplot.polyline.bytes", "bytes"),
    ("trace.overhead", "ratio"),
]


def _size(path):
    try:
        return Path(path).stat().st_size
    except (OSError, TypeError):
        return 0


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, op id]
        self.stack = []
        self.op = 0
        self.counts = Counter()
        self.panels = []
        self.err_est_max = 0.0
        self._undo = []
        self._after = {
            "numerics.quad": self._after_quad,
            "wignerfield.map": self._after_map,
            "wignerfield.point": self._after_point,
            "wignerfield.csv": self._after_bytes("wignerfield.csv"),
            "svgplot.heatmap": self._after_bytes("svgplot.heatmap"),
            "svgplot.polyline": self._after_bytes("svgplot.polyline"),
            "cli.study": self._after_study,
        }

    # wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        after = self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0,
                   self.stack[-1] if self.stack else -1, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(out, args, kwargs)
            return out

        return wrapper

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_quad(self, out, args, kwargs):
        self.panels.append(out.panels_used)
        if not out.converged:
            self.counts["numerics.quad.nonconverged"] += 1

    def _after_map(self, out, args, kwargs):
        self.counts["wignerfield.nodes"] += out.values.size
        if out.error_estimates is not None and out.error_estimates.size:
            self.err_est_max = max(self.err_est_max,
                                   float(np.max(out.error_estimates)))

    def _after_point(self, out, args, kwargs):
        self.counts["wignerfield.nodes"] += 1

    def _after_bytes(self, name):
        """Size of the file written to the call's ``path`` argument."""
        def after(out, args, kwargs):
            path = args[0] if args else kwargs.get("path")
            self.counts[name + ".bytes"] += _size(path)
        return after

    def _after_study(self, out, args, kwargs):
        artifacts, _ = out
        self.counts["cli.csv_bytes"] += sum(
            _size(a) for a in artifacts if str(a).endswith(".csv"))

    # installation --------------------------------------------------------

    def _patch(self, owner, attr, wrap):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(wrap(raw.__func__))
        else:
            new = wrap(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def _install(self, name, module, path, make):
        mod = sys.modules.get(f"cherenkov_wigner.{module}")
        owner = mod
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            return
        wrap = functools.partial(make, name)
        if outer:  # a method: patch it on its class
            self._patch(owner, attr, wrap)
            return
        original = vars(owner)[attr]
        new = wrap(original)
        modules = [m for key, m in sys.modules.items()
                   if key == "cherenkov_wigner"
                   or key.startswith("cherenkov_wigner.")]
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, new)
                    self._undo.append((m, key, original))

    def install(self):
        for name, module, path in SPANS:
            self._install(name, module, path, self._span)
        for name, module, path in COUNTS:
            self._install(name, module, path, self._count)
        # every medium model's index(omega)
        todo = [medium.MediumModel]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "index" in vars(cls):
                self._patch(cls, "index",
                            functools.partial(self._count, "medium.index"))

    def restore(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # results -------------------------------------------------------------

    def layer_stats(self):
        """Per span name: calls, outer seconds (time not already inside a
        span of the same name) and self seconds (minus direct children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["self_s"] += (end - start) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                st["s"] += end - start
        return stats

    def _coeffs_in_quad(self):
        """Coefficient evaluations made by quadrature integrands, i.e. two
        per miss of the per-scenario coefficient cache."""
        return sum(1 for name, _, _, parent, _ in self.spans
                   if name == "observables.coeffs" and parent >= 0
                   and self.spans[parent][0] == "numerics.quad")

    def metrics(self, overhead, import_s, w2_speedup):
        stats = self.layer_stats()

        def get(name, key):
            return stats.get(name, {}).get(key, 0)

        values = {
            "numerics.quad.panels": sum(self.panels),
            "numerics.quad.panels_p50": (statistics.median(self.panels)
                                         if self.panels else 0),
            "numerics.quad.panels_max": max(self.panels, default=0),
            "numerics.quad.nonconverged":
                self.counts["numerics.quad.nonconverged"],
            "observables.envelope.s": get("observables.envelope", "s"),
            "kinematics.geometry.calls": self.counts["kinematics.geometry"],
            "medium.index.calls": self.counts["medium.index"],
            "medium.import_s": import_s,
            "wignerfield.nodes": self.counts["wignerfield.nodes"],
            "wignerfield.err_est_max": self.err_est_max,
            "wignerfield.csv.bytes": self.counts["wignerfield.csv.bytes"],
            "wignerfield.coeff_miss_ratio": (
                self._coeffs_in_quad() / sum(self.panels)
                if self.panels else 0.0),
            "cli.csv_bytes": self.counts["cli.csv_bytes"],
            "svgplot.heatmap.bytes": self.counts["svgplot.heatmap.bytes"],
            "svgplot.polyline.bytes": self.counts["svgplot.polyline.bytes"],
            "wignerfield.map.w2_speedup": w2_speedup,
            "trace.overhead": overhead,
        }
        out = {}
        for metric, unit in LAYER_METRICS:
            if metric not in values:
                layer, _, key = metric.rpartition(".")
                values[metric] = get(layer, key)
            out[metric] = {"value": values[metric], "unit": unit}
        return out

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {"fields": ["name", "start_s", "end_s", "parent", "op"],
               "names": names,
               "spans": [[index[n], round(s - t0, 9), round(e - t0, 9), p, op]
                         for n, s, e, p, op in self.spans]}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def medium_import_s(root, runs=3):
    """Cumulative import time of cherenkov_wigner.medium, from
    ``python -X importtime`` in a fresh interpreter (median of ``runs``)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(runs):
        res = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import cherenkov_wigner.medium"],
            env=env, cwd=root, capture_output=True, text=True, timeout=120,
            check=True)
        for line in res.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "cherenkov_wigner.medium":
                times.append(int(fields[1]) * 1e-6)
    return statistics.median(times) if times else 0.0
