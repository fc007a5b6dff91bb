"""Per-layer tracing installed from outside the library.

A `Tracer` keeps spans (name, start, end, parent, job) in memory and writes
them out at the end.  Spans wrap the layer entry points the benchmark and
the library call; hot ring methods get count + time wrappers that record the
outermost call only, so recursion and internal re-use are not double
counted.  Each wrapper is installed where its caller looks the name up
(e.g. `isomonodromy.match_ordering`, not `frames.match_ordering`), and
`installed()` restores every original on exit.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter

from frobforge import (
    charts,
    deformed,
    descendents,
    frames,
    isomonodromy,
    laurent,
    monodromy,
    poly,
    projective,
    series,
    unfolding,
)

import workloads

# (owner, attribute, span name); one name may be installed at several owners
SPANS = (
    (unfolding, "build_an_chart", "unfolding.build"),
    (unfolding, "critical_values", "unfolding.critical"),
    (projective, "instanton_numbers", "projective.instanton"),
    (projective, "build_p2_chart", "projective.chart"),
    (charts, "check_wdvv", "charts.wdvv"),
    (charts, "check_axioms", "charts.axioms"),
    (deformed, "deformed_flat_coordinates", "deformed.flat"),
    (deformed, "pairing_holds", "deformed.pairing"),
    (descendents, "omega_table", "descendents.omega"),
    (frames.ChartEvaluator, "__init__", "frames.evaluator"),
    (frames, "canonical_frame", "frames.frame"),
    (isomonodromy, "canonical_frame", "frames.frame"),
    (isomonodromy, "match_ordering", "frames.match"),
    (isomonodromy, "vi_matrices", "frames.vi"),
    (isomonodromy, "g_function", "isomonodromy.g"),
    (isomonodromy, "integrate", "isomonodromy.integrate"),
    (monodromy, "braid_orbit", "monodromy.orbit"),
    (monodromy, "braid_act", "monodromy.braid_act"),
    (monodromy, "pd_connection", "monodromy.connection"),
    (monodromy, "check_compatibility", "monodromy.compat"),
    (workloads, "_roundtrip", "serialize.roundtrip"),
)

COUNTERS = (
    (poly.MultiPoly, "__mul__", "poly.mul"),
    (poly.MultiPoly, "__add__", "poly.add"),
    (poly.MultiPoly, "compose", "poly.compose"),
    (laurent.LaurentTail, "mul", "laurent.mul"),
    (series.ExpSeries, "__mul__", "series.mul"),
    (monodromy, "sign_canonical", "monodromy.canon"),
)

# per-layer metrics, in the order BENCHMARK.json lists them: (name, unit, better)
PER_LAYER = (
    ("poly.mul_calls", "count", "lower"),
    ("poly.mul_s", "s", "lower"),
    ("poly.add_calls", "count", "lower"),
    ("poly.add_s", "s", "lower"),
    ("poly.compose_s", "s", "lower"),
    ("laurent.mul_calls", "count", "lower"),
    ("laurent.mul_s", "s", "lower"),
    ("unfolding.build_s", "s", "lower"),
    ("unfolding.critical_s", "s", "lower"),
    ("series.mul_calls", "count", "lower"),
    ("series.mul_s", "s", "lower"),
    ("projective.instanton_s", "s", "lower"),
    ("projective.chart_s", "s", "lower"),
    ("charts.wdvv_s", "s", "lower"),
    ("charts.wdvv_checked", "count", "higher"),
    ("charts.axioms_s", "s", "lower"),
    ("deformed.flat_s", "s", "lower"),
    ("deformed.pairing_s", "s", "lower"),
    ("descendents.omega_s", "s", "lower"),
    ("serialize.roundtrip_s", "s", "lower"),
    ("frames.evaluator_s", "s", "lower"),
    ("frames.frame_calls", "count", "lower"),
    ("frames.frame_s", "s", "lower"),
    ("frames.max_defect", "abs", "lower"),
    ("frames.match_calls", "count", "lower"),
    ("frames.match_s", "s", "lower"),
    ("frames.vi_calls", "count", "lower"),
    ("frames.vi_s", "s", "lower"),
    ("isomonodromy.g_calls", "count", "lower"),
    ("isomonodromy.g_self_s", "s", "lower"),
    ("isomonodromy.frames_per_g", "count", "lower"),
    ("isomonodromy.integrate_self_s", "s", "lower"),
    ("isomonodromy.ode_steps", "count", "lower"),
    ("isomonodromy.ode_rejected", "count", "lower"),
    ("isomonodromy.ode_accept_ratio", "ratio", "higher"),
    ("monodromy.orbit_s", "s", "lower"),
    ("monodromy.orbit_classes", "count", "higher"),
    ("monodromy.braid_act_calls", "count", "lower"),
    ("monodromy.braid_act_s", "s", "lower"),
    ("monodromy.canon_s", "s", "lower"),
    ("monodromy.new_class_ratio", "ratio", "higher"),
    ("monodromy.connection_s", "s", "lower"),
    ("monodromy.compat_s", "s", "lower"),
    ("monodromy.compat_residual", "abs", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """In-memory spans plus outermost-call counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.counters: dict[str, list] = {}  # name -> [calls, seconds]
        self.max_defect = 0.0
        self.job = "setup"
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if name == "frames.frame":
                tracer.max_defect = max(tracer.max_defect, result.defect)
            return result

        return wrapper

    def _counter_wrapper(self, fn, name):
        stat = self.counters.setdefault(name, [0, 0.0])
        active = [False]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[0] += 1
                stat[1] += perf_counter() - start
                active[0] = False

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in SPANS:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._span_wrapper(getattr(owner, attr), name))
            for owner, attr, name in COUNTERS:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._counter_wrapper(getattr(owner, attr), name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")

    def layer_metrics(self, facts: dict, overhead_s: float, speed: float) -> dict:
        """Every PER_LAYER value from the spans, counters and job facts; span
        and counter seconds are multiplied by `speed`, the run's ratio of
        reference-speed to raw time."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        frames_in_g = 0
        acts_in_orbit = 0
        for k, (name, start, end, parent, _) in enumerate(spans):
            total[name] = total.get(name, 0.0) + end - start
            self_time[name] = self_time.get(name, 0.0) + end - start - child_time[k]
            calls[name] = calls.get(name, 0) + 1
            parent_name = spans[parent][0] if parent is not None else None
            if name == "frames.frame" and parent_name == "isomonodromy.g":
                frames_in_g += 1
            if name == "monodromy.braid_act" and parent_name == "monodromy.orbit":
                acts_in_orbit += 1
        counter = self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        unit_of = {name: unit for name, unit, _ in PER_LAYER}
        steps = facts.get("ode_steps", 0)
        rejected = facts.get("ode_rejected", 0)
        values = {
            "poly.mul_calls": counter["poly.mul"][0],
            "poly.mul_s": counter["poly.mul"][1],
            "poly.add_calls": counter["poly.add"][0],
            "poly.add_s": counter["poly.add"][1],
            "poly.compose_s": counter["poly.compose"][1],
            "laurent.mul_calls": counter["laurent.mul"][0],
            "laurent.mul_s": counter["laurent.mul"][1],
            "unfolding.build_s": total.get("unfolding.build", 0.0),
            "unfolding.critical_s": total.get("unfolding.critical", 0.0),
            "series.mul_calls": counter["series.mul"][0],
            "series.mul_s": counter["series.mul"][1],
            "projective.instanton_s": total.get("projective.instanton", 0.0),
            "projective.chart_s": total.get("projective.chart", 0.0),
            "charts.wdvv_s": total.get("charts.wdvv", 0.0),
            "charts.wdvv_checked": facts.get("wdvv_checked", 0),
            "charts.axioms_s": total.get("charts.axioms", 0.0),
            "deformed.flat_s": total.get("deformed.flat", 0.0),
            "deformed.pairing_s": total.get("deformed.pairing", 0.0),
            "descendents.omega_s": total.get("descendents.omega", 0.0),
            "serialize.roundtrip_s": total.get("serialize.roundtrip", 0.0),
            "frames.evaluator_s": total.get("frames.evaluator", 0.0),
            "frames.frame_calls": calls.get("frames.frame", 0),
            "frames.frame_s": total.get("frames.frame", 0.0),
            "frames.max_defect": self.max_defect,
            "frames.match_calls": calls.get("frames.match", 0),
            "frames.match_s": total.get("frames.match", 0.0),
            "frames.vi_calls": calls.get("frames.vi", 0),
            "frames.vi_s": total.get("frames.vi", 0.0),
            "isomonodromy.g_calls": calls.get("isomonodromy.g", 0),
            "isomonodromy.g_self_s": self_time.get("isomonodromy.g", 0.0),
            "isomonodromy.frames_per_g": ratio(frames_in_g, calls.get("isomonodromy.g", 0)),
            "isomonodromy.integrate_self_s": self_time.get("isomonodromy.integrate", 0.0),
            "isomonodromy.ode_steps": steps,
            "isomonodromy.ode_rejected": rejected,
            "isomonodromy.ode_accept_ratio": ratio(steps, steps + rejected),
            "monodromy.orbit_s": total.get("monodromy.orbit", 0.0),
            "monodromy.orbit_classes": facts.get("orbit_classes", 0),
            "monodromy.braid_act_calls": calls.get("monodromy.braid_act", 0),
            "monodromy.braid_act_s": total.get("monodromy.braid_act", 0.0),
            "monodromy.canon_s": counter["monodromy.canon"][1],
            "monodromy.new_class_ratio": ratio(facts.get("orbit_new_classes", 0), acts_in_orbit),
            "monodromy.connection_s": total.get("monodromy.connection", 0.0),
            "monodromy.compat_s": total.get("monodromy.compat", 0.0),
            "monodromy.compat_residual": facts.get("compat_residual", 0.0),
        }
        values = {k: v * speed if unit_of[k] == "s" else v for k, v in values.items()}
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
