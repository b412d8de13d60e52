"""The benchmark's probes still fit the program.

perfbench/layers.py wraps kronscale functions and reads their arguments
and results in hooks.  A hook that no longer fits marks its probe broken,
and every metric that needs the probe is then reported as absent.  Here
both probe sets run around a small permanent build with one evaluation
and around a small tri k-path detection, calling through the module
attributes that the benchmark's worker calls through, and every per-layer
metric must come out present.  The tri k-path build runs at s = 1, where
no type is enumerated; it must still record d_eff through decompose_P.
"""

import sys
from pathlib import Path

import pytest

from kronscale import circuit, counting, fields, sieving

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
from tracing import Probes, Tracer  # noqa: E402


def permanent_run(tracer):
    """build_permanent_circuit(6, b=1, g=1) and one evaluation."""
    field = fields.prime_field()
    rng = fields.Rng(3)
    mat = counting.SquareMatrix(field, tuple(tuple(field.random(rng) for _ in range(6))
                                             for _ in range(6)))
    circ = counting.build_permanent_circuit(6, field=field, b=1, g=1)
    value = circuit.evaluate(circ, counting.matrix_assignment(mat))[0]
    assert value == counting.permanent_ryser(mat)
    return circ


def kpath_run(tracer):
    """A tri k-path detection, k = 3, on the complete digraph on 4 vertices."""
    arcs = tuple((u, v) for u in range(1, 5) for v in range(1, 5) if u != v)
    assert sieving.kpath_detect(sieving.DirectedGraph(4, arcs), 3, fields.Rng(7),
                                trials=2, method="tri")
    return tracer.values["sieving.circuit"]


@pytest.mark.parametrize("run", [permanent_run, kpath_run], ids=["perm6", "kpath-tri"])
@pytest.mark.parametrize("counted", [False, True], ids=["PROBES", "COUNT_PROBES"])
def test_every_per_layer_metric_is_present(run, counted):
    probes = layers.COUNT_PROBES if counted else layers.PROBES
    if run is kpath_run and layers.RUN_PROBE not in probes:
        probes += (layers.RUN_PROBE,)
    tracer = Tracer()
    with Probes(probes, tracer) as installed:
        circ = run(tracer)
    # the instantiate hooks ran, and none of them raised
    assert any(span[0] == "scaling.instantiate" for span in tracer.spans)
    assert tracer.broken == {}
    ops = layers.circuit_ops(circ, circuit.OP_ADD, circuit.OP_MUL)
    metrics = layers.per_layer_metrics(layers.TraceView(tracer, ops, wall_s=1.0),
                                       installed.absent, counted=counted)
    assert metrics
    assert [name for name, m in metrics.items() if m.get("absent")] == []
    if run is kpath_run and not counted:
        # at s = 1 the tri route still asks decompose_P for d_eff and delta
        assert any(span[0] == "scaling.decompose_P" for span in tracer.spans)
        assert metrics["scaling.d_eff"]["value"] == 3


def test_the_default_sieve_width_is_the_one_kpath_detect_picks():
    # the worker builds its k-path field from this constant
    w = sieving.DEFAULT_SIEVE_FIELD_WIDTH
    assert w in fields.REDUCTION_POLY_LOW
    arcs = tuple((u, v) for part in (range(1, 6), range(6, 8))
                 for u in part for v in part if u != v)
    tracer = Tracer()
    with Probes((layers.RUN_PROBE,), tracer):
        sieving.kpath_detect(sieving.DirectedGraph(7, arcs), 5, fields.Rng(1), trials=1)
    assert tracer.values["sieving.circuit"].field == fields.gf2(w)
