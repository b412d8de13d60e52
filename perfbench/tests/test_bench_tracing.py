"""Self-time arithmetic and probe installation."""

import pytest

import layers
from tracing import Probe, Probes, Tracer, self_times


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    tr = Tracer(clock=_clock(0, 1, 2, 3, 4, 5, 9, 10))
    a = tr.begin("x.a")
    b = tr.begin("y.b")
    c = tr.begin("z.c")
    tr.end(c)
    tr.end(b)
    d = tr.begin("y.d")
    tr.end(d)
    tr.end(a)
    assert self_times(tr.spans) == [3, 2, 1, 4]
    view = layers.TraceView(tr, {"arcs": 0, "add": 0, "mul": 0}, wall_s=10)
    assert view.layer_self("x") == 3
    assert view.layer_self("y") == 6
    assert view.layer_self("z") == 1
    assert (view.calls("y.b"), view.incl("y.b"), view.excl("y.b")) == (1, 3, 2)


def test_span_end_out_of_order_is_an_error():
    tr = Tracer(clock=_clock(0, 1, 2))
    outer = tr.begin("a")
    tr.begin("b")
    with pytest.raises(RuntimeError):
        tr.end(outer)


class Target:
    def method(self, x):
        return x + 1

    @property
    def prop(self):
        return 7


def test_probes_wrap_and_restore():
    original_method = Target.__dict__["method"]
    original_prop = Target.__dict__["prop"]
    tr = Tracer()
    probes = [Probe(__name__, "Target.method", span="t.method",
                    after=lambda t, a, r, s: t.add("results", r)),
              Probe(__name__, "Target.prop", count="t.prop")]
    with Probes(probes, tr) as installed:
        assert installed.absent == []
        obj = Target()
        assert obj.method(1) == 2 and obj.method(2) == 3
        assert obj.prop == 7
    assert [s[0] for s in tr.spans] == ["t.method", "t.method"]
    assert tr.values["results"] == 5
    assert tr.count("t.prop") == 1
    assert Target.__dict__["method"] is original_method
    assert Target.__dict__["prop"] is original_prop


def test_missing_target_is_absent_not_a_crash():
    tr = Tracer()
    probes = [Probe(__name__, "Target.gone", span="t.gone"),
              Probe(__name__, "Nowhere.method", span="t.x"),
              Probe("no_such_module_here", "f", span="t.y")]
    with Probes(probes, tr) as installed:
        assert installed.absent == [p.target for p in probes]


def test_a_hook_that_no_longer_fits_marks_the_probe_broken():
    def bad_after(tracer, args, result, state):
        return result.no_such_attribute

    tr = Tracer()
    probe = Probe(__name__, "Target.method", span="t.method", after=bad_after)
    with Probes([probe], tr):
        assert Target().method(4) == 5
        assert Target().method(5) == 6
    assert list(tr.broken) == [probe.target]
    assert "AttributeError" in tr.broken[probe.target]
    assert len(tr.spans) == 2


def test_metrics_of_absent_probes_are_marked():
    tr = Tracer()
    view = layers.TraceView(tr, {"arcs": 10, "add": 3, "mul": 4}, wall_s=1.0)
    arcs_probe = next(p for p in layers.PROBES if p.span == "circuit.arcs")
    out = layers.per_layer_metrics(view, [arcs_probe.target], counted=False)
    assert out["circuit.arcs.calls"] == {"value": 0, "unit": "count", "absent": True}
    assert "absent" not in out["fields.mul.per_eval"]
    assert out["fields.mul.per_eval"]["value"] == 4
    # a broken hook makes the metrics of that probe absent too
    dge = next(p for p in layers.PROBES if p.span == "circuit.dead_gate_elimination")
    tr.broken[dge.target] = "KeyError"
    out = layers.per_layer_metrics(view, [], counted=False)
    assert out["circuit.live_frac"]["absent"] is True
    assert "absent" not in out["circuit.arcs.calls"]
    del tr.broken[dge.target]
    # evaluate has two probes; losing one keeps the metric
    one_eval = next(p for p in layers.PROBES if p.span == "circuit.evaluate")
    out = layers.per_layer_metrics(view, [one_eval.target], counted=False)
    assert "absent" not in out["circuit.evaluate.calls"]


def test_counter_metrics_come_only_from_the_counting_run():
    tr = Tracer()
    view = layers.TraceView(tr, {"arcs": 0, "add": 0, "mul": 0}, wall_s=1.0)
    traced = layers.per_layer_metrics(view, [], counted=False)
    counted = layers.per_layer_metrics(view, [], counted=True)
    assert set(counted) == {"circuit.scale.calls", "circuit.is_zero.calls",
                            "scaling.instantiate.scale_per_gate"}
    assert not set(traced) & set(counted)
    assert set(traced) | set(counted) | {layers.OVERHEAD.name} == {
        m.name for m in layers.PER_LAYER}
    assert not any(p.count for p in layers.PROBES)


@pytest.mark.parametrize("probes", ["PROBES", "COUNT_PROBES"])
def test_every_probe_target_exists_in_kronscale(probes):
    with Probes(getattr(layers, probes), Tracer()) as installed:
        assert installed.absent == []
