"""Spans around the benchmark's calls into seriesdyn, and the per-layer
metrics computed from them.

A span records the name of the public function called (``layer.function``),
its start and end (``perf_counter_ns``), the index of the enclosing span,
the pass it belongs to, the case that made it, and counts noted after the
call (coefficients computed, steps accepted, seeds tried, ...).  Spans are
kept in memory and written out once, when the run ends.  A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Recorder:
    """Makes the benchmark's calls into the program.

    Untraced, ``rec(name, fn, *args)`` is just ``fn(*args)``.  Traced, it
    also records a span, and ``rec.note(**counts)`` attaches counts to the
    span of the last call.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.pass_id = 0
        self.case = ""
        self._last = None

    def __call__(self, name, fn, *args, **kwargs):
        if not self.traced:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def note(self, **counts):
        if self.traced:
            self.spans[self._last]["counts"].update(counts)

    @contextmanager
    def span(self, name):
        if not self.traced:
            yield
            return
        idx = len(self.spans)
        self.spans.append({
            "name": name, "start": time.perf_counter_ns(), "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id, "case": self.case, "counts": {},
        })
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx]["end"] = time.perf_counter_ns()
            self._last = idx

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans):
    """Duration minus child coverage, in ns, one value per span."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# Each per-layer metric: (name, unit, kind, span name or layer, selector,
# ns to the unit or None for a count).  The selector picks spans (per_call),
# or names the noted count and picks spans (per_count), or names the count.
#   per_call:   mean span duration, scaled to the unit
#   per_count:  total duration over the total of a noted count
#   per_pass:   total duration per pass
#   busy:       self time of every span of the layer, per pass
#   count_pass: a noted count summed per pass
#   count_call: a noted count averaged per call
_US, _MS, _NS = 1e-3, 1e-6, 1.0


def _deep(s):
    return s["counts"].get("order", 0) >= 100


def _cli_inputs(s):
    return s["case"].startswith("layers:")


PER_LAYER = [
    ("model.eval_field_us", "us", "per_call", "model.eval_field", None, _US),
    ("model.jacobian_at_us", "us", "per_call", "model.jacobian_at", None, _US),
    ("model.busy_ms", "ms/pass", "busy", "model", None, _MS),
    ("series.taylor_us_per_coeff", "us", "per_count", "series.taylor_solve",
     ("coeffs", _deep), _US),
    ("series.taylor_small_k_us", "us", "per_call", "series.taylor_solve",
     _cli_inputs, _US),
    ("series.hpm_solve_ms", "ms/pass", "per_pass", "series.hpm_solve", None, _MS),
    ("series.collapse_check_ms", "ms/pass", "per_pass",
     "series.hpm_collapse_check", None, _MS),
    ("series.radius_estimate_us", "us", "per_call", "series.radius_estimate",
     None, _US),
    ("series.series_eval_ns_per_point", "ns", "per_count", "series.series_eval",
     ("points", None), _NS),
    ("series.busy_ms", "ms/pass", "busy", "series", None, _MS),
    ("series.coeffs", "count/pass", "count_pass", "series.taylor_solve",
     "coeffs", None),
    ("integrate.us_per_step", "us", "per_count", "integrate.integrate",
     ("steps", None), _US),
    ("integrate.accepted_steps", "count/pass", "count_pass",
     "integrate.integrate", "steps", None),
    ("integrate.sample_us_per_point", "us", "per_count", "integrate.sample",
     ("points", None), _US),
    ("integrate.busy_ms", "ms/pass", "busy", "integrate", None, _MS),
    ("phase.fixed_points_ms", "ms", "per_call", "phase.fixed_points", None, _MS),
    ("phase.us_per_seed", "us", "per_count", "phase.fixed_points",
     ("seeds", None), _US),
    ("phase.seeds", "count", "count_call", "phase.fixed_points", "seeds", None),
    ("phase.roots", "count", "count_call", "phase.fixed_points", "roots", None),
    ("phase.classify_us", "us", "per_call", "phase.classify", None, _US),
    ("phase.busy_ms", "ms/pass", "busy", "phase", None, _MS),
    ("modelfile.load_model_us", "us", "per_call", "modelfile.load_model", None,
     _US),
    ("report.table1_ms", "ms", "per_call", "report.cmd_table1", None, _MS),
    ("report.phase2d_ms", "ms", "per_call", "report.cmd_phase2d", None, _MS),
    ("report.spiral_ms", "ms", "per_call", "report.cmd_spiral", None, _MS),
    ("report.radius_ms", "ms", "per_call", "report.cmd_radius", None, _MS),
    ("report.solve_ms", "ms", "per_call", "report.cmd_solve", None, _MS),
    ("report.fixed_points_ms", "ms", "per_call", "report.cmd_fixed_points",
     None, _MS),
    ("cli.interpreter_ms", "ms", "per_call", "cli.interpreter", None, _MS),
    ("cli.import_ms", "ms", "per_call", "cli.import", None, _MS),
    ("cli.output_bytes", "count/pass", "count_pass", "report", "bytes", None),
]
OVERHEAD = ("trace.overhead_pct", "%")


def layer_metrics(spans, passes, speed=1.0):
    """Every per-layer metric the spans have data for, as
    {name: {"value": v, "unit": u}}; ``passes`` is the number of passes
    the spans cover, and times are multiplied by ``speed`` (reference
    seconds per wall second)."""
    own = self_times(spans)
    out = {}
    for name, unit, kind, target, sel, unit_scale in PER_LAYER:
        scale = unit_scale * speed if unit_scale else None
        if kind == "busy":
            picked = [i for i, s in enumerate(spans)
                      if s["name"].startswith(target + ".")]
            if picked:
                out[name] = sum(own[i] for i in picked) * scale / passes
            continue
        if kind in ("count_pass", "count_call"):
            key = sel
            picked = [s for s in spans if s["name"].startswith(target)
                      and key in s["counts"]]
            if picked:
                total = sum(s["counts"][key] for s in picked)
                out[name] = total / (passes if kind == "count_pass"
                                     else len(picked))
            continue
        key, where = sel if kind == "per_count" else (None, sel)
        picked = [s for s in spans if s["name"] == target
                  and (where is None or where(s))]
        if not picked:
            continue
        dur = sum(s["end"] - s["start"] for s in picked) * scale
        if kind == "per_call":
            out[name] = dur / len(picked)
        elif kind == "per_pass":
            out[name] = dur / passes
        else:
            total = sum(s["counts"].get(key, 0) for s in picked)
            if total:
                out[name] = dur / total
    units = {m[0]: m[1] for m in PER_LAYER}
    return {k: {"value": v, "unit": units[k]} for k, v in out.items()}
