"""Probes around the calls into each `kronscale` layer, and the per-layer
metrics computed from what they record.

Every probe wraps the name its caller looks up at call time (a module
global of the calling module, a method, or a property), so a refactor that
moves a function only makes its probe absent.  Metrics that depend on an
absent probe, or on one whose hook no longer fits, are reported as absent.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass

from tracing import Probe, Tracer, layer_of, self_times

# the layers that spans are attributed to; "bench" is the benchmark's own
# code and the program code it calls outside any probe
LAYERS = ("bench", "circuit", "coeffx", "counting", "scaling", "sieving",
          "steinitz", "tensor")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _scheme_before(tracer, args):
    return _maxrss_mb()


def _scheme_after(tracer, args, result, rss_before):
    tracer.values["scaling.scheme_init.peak_mb"] = _maxrss_mb() - rss_before
    tracer.values["tensor.rank"] = args[0].dec.rank


def _bottom_after(tracer, args, result, state):
    tracer.values["counting.bottom_arcs"] = result.meta["bottom_arcs"]


def _types_after(tracer, args, result, state):
    tracer.values["scaling.types"] = len(result)


def _decompose_after(tracer, args, result, state):
    tracer.values["scaling.d_eff"] = result.d_eff
    tracer.values["scaling.delta"] = result.delta


def _instantiate_before(tracer, args):
    return len(args[1].gates)


def _instantiate_after(tracer, args, result, gates_before):
    tracer.add("scaling.instantiate.gates", len(args[1].gates) - gates_before)


def _counted_instantiate_before(tracer, args):
    return len(args[1].gates), tracer.count("circuit.scale")


def _counted_instantiate_after(tracer, args, result, state):
    gates_before, scales_before = state
    tracer.add("scaling.instantiate.gates", len(args[1].gates) - gates_before)
    tracer.add("scaling.instantiate.scales",
               tracer.count("circuit.scale") - scales_before)


def _extract_after(tracer, args, result, state):
    meta = result.meta
    tracer.add("coeffx.table_entries", meta["table_entries"])
    # only the tripartition route has cuts
    for key, name in (("s", "coeffx.cut1"), ("t", "coeffx.cut2")):
        if key in meta:
            tracer.add(name, meta[key])


def _dge_after(tracer, args, result, state):
    tracer.add("circuit.dge.gates_in", len(args[0].gates))
    tracer.add("circuit.dge.gates_out", len(result.gates))


def _run_after(tracer, args, result, state):
    tracer.values.setdefault("sieving.answers", []).append(result)
    tracer.values["sieving.circuit"] = args[0].circuit


_PKG = "kronscale."
RUN_PROBE = Probe(_PKG + "sieving", "SieveRunner.run", span="sieving.run",
                  after=_run_after)
PROBES = (
    Probe(_PKG + "counting", "build_permanent_circuit",
          span="counting.build_permanent_circuit",
          after=_bottom_after),
    Probe(_PKG + "counting", "p_scheme", span="scaling.p_scheme"),
    Probe(_PKG + "coeffx", "p_scheme", span="scaling.p_scheme"),
    Probe(_PKG + "scaling", "PScalingScheme.__init__", span="scaling.scheme_init",
          before=_scheme_before, after=_scheme_after),
    Probe(_PKG + "scaling", "decompose_P", span="scaling.decompose_P",
          after=_decompose_after),
    Probe(_PKG + "scaling", "enumerate_types", span="scaling.enumerate_types",
          after=_types_after),
    Probe(_PKG + "scaling", "concentration_partition",
          span="steinitz.concentration_partition"),
    Probe(_PKG + "scaling", "trivial_decomposition",
          span="tensor.trivial_decomposition"),
    Probe(_PKG + "scaling", "verify_decomposition",
          span="tensor.verify_decomposition"),
    Probe(_PKG + "scaling", "PScalingScheme.instantiate", span="scaling.instantiate",
          before=_instantiate_before, after=_instantiate_after),
    Probe(_PKG + "circuit", "CircuitBuilder.arcs", span="circuit.arcs"),
    Probe(_PKG + "sieving", "kpath_detect", span="sieving.kpath_detect"),
    Probe(_PKG + "sieving", "extract_coefficient", span="coeffx.extract",
          after=_extract_after),
    Probe(_PKG + "sieving", "dead_gate_elimination",
          span="circuit.dead_gate_elimination", after=_dge_after),
    Probe(_PKG + "sieving", "SieveRunner.__init__", span="sieving.runner_init"),
    RUN_PROBE,
    Probe(_PKG + "sieving", "evaluate", span="circuit.evaluate"),
    Probe(_PKG + "circuit", "evaluate", span="circuit.evaluate"),
)
# Counting ~10^7 builder calls through wrappers would inflate the spans
# around them, so the counters run in a separate, untimed build.
COUNTERS = ("circuit.scale", "circuit.is_zero")
COUNT_PROBES = (
    Probe(_PKG + "scaling", "PScalingScheme.instantiate", span="scaling.instantiate",
          before=_counted_instantiate_before, after=_counted_instantiate_after),
    Probe(_PKG + "circuit", "CircuitBuilder.scale", count="circuit.scale"),
    Probe(_PKG + "circuit", "CircuitBuilder.is_zero", count="circuit.is_zero"),
)
_BY_SPAN = {}
for _p in PROBES + COUNT_PROBES:
    _BY_SPAN.setdefault(_p.span or _p.count, []).append(_p.target)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str


class TraceView:
    """Read-only summary of one traced run, for the metric functions."""

    def __init__(self, tracer: Tracer, circuit_ops: dict, wall_s: float):
        self.tracer = tracer
        self.selfs = self_times(tracer.spans)
        self.ops = circuit_ops
        self.wall_s = wall_s

    def _totals(self, name):
        calls, incl, excl = 0, 0.0, 0.0
        for (nm, start, end, _), self_s in zip(self.tracer.spans, self.selfs):
            if nm == name:
                calls += 1
                incl += end - start
                excl += self_s
        return calls, incl, excl

    def calls(self, name):
        return self._totals(name)[0]

    def incl(self, name):
        return self._totals(name)[1]

    def excl(self, name):
        return self._totals(name)[2]

    def value(self, name):
        return self.tracer.values.get(name, 0)

    def count(self, name):
        return self.tracer.count(name)

    def layer_self(self, layer):
        return sum(s for (nm, *_), s in zip(self.tracer.spans, self.selfs)
                   if layer_of(nm) == layer)


def _ratio(num, den):
    return num / den if den else 0.0


# (metric, the span or counter names whose probes it needs, value)
_TABLE = [
    (Metric("circuit.arcs.calls", "count", "lower"), ["circuit.arcs"],
     lambda v: v.calls("circuit.arcs")),
    (Metric("circuit.arcs.s", "s", "lower"), ["circuit.arcs"],
     lambda v: v.incl("circuit.arcs")),
    (Metric("circuit.scale.calls", "count", "lower"), ["circuit.scale"],
     lambda v: v.count("circuit.scale")),
    (Metric("circuit.is_zero.calls", "count", "lower"), ["circuit.is_zero"],
     lambda v: v.count("circuit.is_zero")),
    (Metric("scaling.instantiate.scale_per_gate", "ratio", "lower"),
     ["scaling.instantiate", "circuit.scale"],
     lambda v: _ratio(v.value("scaling.instantiate.scales"),
                      v.value("scaling.instantiate.gates"))),
    (Metric("tensor.trivial_decomposition.s", "s", "lower"),
     ["tensor.trivial_decomposition"],
     lambda v: v.incl("tensor.trivial_decomposition")),
    (Metric("tensor.verify_decomposition.s", "s", "lower"),
     ["tensor.verify_decomposition"],
     lambda v: v.incl("tensor.verify_decomposition")),
    (Metric("tensor.rank", "count", "lower"), ["scaling.scheme_init"],
     lambda v: v.value("tensor.rank")),
    (Metric("scaling.scheme_init.s", "s", "lower"), ["scaling.scheme_init"],
     lambda v: v.incl("scaling.scheme_init")),
    (Metric("scaling.scheme_init.peak_mb", "MB", "lower"), ["scaling.scheme_init"],
     lambda v: v.value("scaling.scheme_init.peak_mb")),
    (Metric("steinitz.concentration_partition.calls", "count", "lower"),
     ["steinitz.concentration_partition"],
     lambda v: v.calls("steinitz.concentration_partition")),
    (Metric("steinitz.concentration_partition.s", "s", "lower"),
     ["steinitz.concentration_partition"],
     lambda v: v.incl("steinitz.concentration_partition")),
    (Metric("scaling.enumerate_types.s", "s", "lower"), ["scaling.enumerate_types"],
     lambda v: v.incl("scaling.enumerate_types")),
    (Metric("scaling.types", "count", "lower"), ["scaling.enumerate_types"],
     lambda v: v.value("scaling.types")),
    (Metric("scaling.decompose_P.s", "s", "lower"), ["scaling.decompose_P"],
     lambda v: v.incl("scaling.decompose_P")),
    (Metric("scaling.d_eff", "count", "lower"), ["scaling.decompose_P"],
     lambda v: v.value("scaling.d_eff")),
    (Metric("scaling.delta", "count", "lower"), ["scaling.decompose_P"],
     lambda v: v.value("scaling.delta")),
    (Metric("scaling.instantiate.calls", "count", "lower"), ["scaling.instantiate"],
     lambda v: v.calls("scaling.instantiate")),
    (Metric("scaling.instantiate.s", "s", "lower"), ["scaling.instantiate"],
     lambda v: v.incl("scaling.instantiate")),
    (Metric("scaling.instantiate.gates", "count", "lower"), ["scaling.instantiate"],
     lambda v: v.value("scaling.instantiate.gates")),
    (Metric("coeffx.extract.s", "s", "lower"), ["coeffx.extract"],
     lambda v: v.excl("coeffx.extract")),
    (Metric("coeffx.table_entries", "count", "lower"), ["coeffx.extract"],
     lambda v: v.value("coeffx.table_entries")),
    (Metric("coeffx.cut1", "count", "lower"), ["coeffx.extract"],
     lambda v: v.value("coeffx.cut1")),
    (Metric("coeffx.cut2", "count", "lower"), ["coeffx.extract"],
     lambda v: v.value("coeffx.cut2")),
    (Metric("circuit.dead_gate_elimination.s", "s", "lower"),
     ["circuit.dead_gate_elimination"],
     lambda v: v.incl("circuit.dead_gate_elimination")),
    (Metric("circuit.live_frac", "ratio", "higher"),
     ["circuit.dead_gate_elimination"],
     lambda v: _ratio(v.value("circuit.dge.gates_out"),
                      v.value("circuit.dge.gates_in"))),
    (Metric("sieving.runner_init.s", "s", "lower"), ["sieving.runner_init"],
     lambda v: v.excl("sieving.runner_init")),
    (Metric("sieving.run.calls", "count", "lower"), ["sieving.run"],
     lambda v: v.calls("sieving.run")),
    (Metric("sieving.run.s", "s", "lower"), ["sieving.run"],
     lambda v: v.incl("sieving.run")),
    (Metric("sieving.hits", "count", "lower"), ["sieving.run"],
     lambda v: sum(1 for a in v.tracer.values.get("sieving.answers", ()) if a)),
    (Metric("circuit.evaluate.s", "s", "lower"), ["circuit.evaluate"],
     lambda v: v.incl("circuit.evaluate")),
    (Metric("circuit.evaluate.calls", "count", "lower"), ["circuit.evaluate"],
     lambda v: v.calls("circuit.evaluate")),
    (Metric("circuit.evaluate.arcs_per_s", "1/s", "higher"), ["circuit.evaluate"],
     lambda v: _ratio(v.ops["arcs"] * v.calls("circuit.evaluate"),
                      v.incl("circuit.evaluate"))),
    (Metric("fields.mul.per_eval", "count", "lower"), [],
     lambda v: v.ops["mul"]),
    (Metric("fields.add.per_eval", "count", "lower"), [],
     lambda v: v.ops["add"]),
    (Metric("counting.build_permanent_circuit.s", "s", "lower"),
     ["counting.build_permanent_circuit"],
     lambda v: v.excl("counting.build_permanent_circuit")),
    (Metric("counting.bottom_arcs", "count", "lower"),
     ["counting.build_permanent_circuit"],
     lambda v: v.value("counting.bottom_arcs")),
]
for _layer in LAYERS:
    _TABLE.append((Metric(f"layer.{_layer}.self_s", "s", "lower"), [],
                   lambda v, _l=_layer: v.layer_self(_l)))
    _TABLE.append((Metric(f"layer.{_layer}.share", "ratio", "lower"), [],
                   lambda v, _l=_layer: _ratio(v.layer_self(_l), v.wall_s)))
_TABLE += [
    (Metric("trace.wall_s", "s", "lower"), [], lambda v: v.wall_s),
    (Metric("trace.spans", "count", "lower"), [], lambda v: len(v.tracer.spans)),
]

# computed by run.py from the traced and the untraced run
OVERHEAD = Metric("trace.overhead_frac", "ratio", "lower")
PER_LAYER = [m for m, _, _ in _TABLE] + [OVERHEAD]


def circuit_ops(circ, op_add: int, op_mul: int) -> dict:
    """Arcs, and field additions and multiplications per evaluation."""
    ops = {"arcs": 0, "add": 0, "mul": 0}
    for op, payload in circ.gates:
        if op == op_add:
            ops["add"] += len(payload) - 1
        elif op == op_mul:
            ops["mul"] += len(payload) - 1
        else:
            continue
        ops["arcs"] += len(payload)
    return ops


def per_layer_metrics(view: TraceView, absent_targets, counted: bool) -> dict:
    """name -> {"value", "unit"} for the metrics of the counting run
    (`counted`) or of the traced run; metrics whose probes are absent or
    broken carry "absent": true and value 0."""
    absent = set(absent_targets) | set(view.tracer.broken)
    out = {}
    for metric, needs, read in _TABLE:
        if counted != any(n in COUNTERS for n in needs):
            continue
        # a name is recorded while any probe that records it is installed
        if any(all(t in absent for t in _BY_SPAN[n]) for n in needs):
            out[metric.name] = {"value": 0, "unit": metric.unit, "absent": True}
        else:
            out[metric.name] = {"value": read(view), "unit": metric.unit}
    return out
