"""One measurement in a fresh interpreter, so the module-level caches of
`kronscale` start empty as they do for a command-line user.

    python3 perfbench/worker.py '<json spec>'

The spec names the workload, seed, query count, mode and the monotonic
time at which the parent started this process.  Every mode times the
host-speed reference of hostspeed.py after setup, and the timed modes
time it again after the timed work; the samples are reported as ref_s.
Modes:

* setup: imports, seeded inputs and field tables; reports setup_s.
* run:   setup, one timed build of the evaluated circuit, then every
  query, each checked by an oracle.
* trace: like run, with every span probe of layers.py installed; also
  writes the spans to perfbench/out/.
* count: like run, untimed, with the counting probes of layers.py.

A k-path run also checks, untimed, that the workload's route finds the
path in a small yes-instance.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def _answers_digest(values) -> str:
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]


class _Run:
    """The seeded inputs and the calls into kronscale for one workload."""

    def __init__(self, wl, seed: int, queries: int):
        from kronscale import circuit, counting, fields, sieving
        self.wl = wl
        self.seed = seed
        self.fields = fields
        self.circuit_mod = circuit
        self.counting = counting
        self.sieving = sieving
        self.queries = queries
        if wl.kind == "perm":
            self.field = fields.prime_field()
            self.inputs = [counting.SquareMatrix(self.field, m) for m in
                           workloads.random_matrices(seed, wl.n, queries, self.field.order)]
        else:
            self.field = fields.gf2(sieving.DEFAULT_SIEVE_FIELD_WIDTH)
            n, arcs = workloads.component_digraph(seed, wl.components)
            self.graph = sieving.DirectedGraph(n, arcs)
            self.rng = fields.Rng(workloads.sieve_seed(seed))

    def perm(self, tracer):
        """Returns (build_s, per-query seconds, answers, evaluated circuit,
        answers equal to Ryser's)."""
        gc.collect()
        span = tracer.begin("bench.build")
        t0 = time.perf_counter()
        circ = self.counting.build_permanent_circuit(
            self.wl.n, field=self.field, b=self.wl.b, g=self.wl.g)
        build_s = time.perf_counter() - t0
        tracer.end(span)
        gc.collect()
        latencies, answers, ok = [], [], 0
        for mat in self.inputs:
            # module attributes are looked up per call so probes see them
            span = tracer.begin("bench.query")
            t = time.perf_counter()
            value = self.circuit_mod.evaluate(circ, self.counting.matrix_assignment(mat))[0]
            latencies.append(time.perf_counter() - t)
            tracer.end(span)
            answers.append(value)
            # checking between queries spreads them over twice the time
            ok += value == self.counting.permanent_ryser(mat)
        return build_s, latencies, answers, circ, ok

    def kpath(self, tracer):
        """Times kpath_detect; the build ends where the first trial starts,
        and each trial lasts until the next one starts.  On a no-instance,
        found by brute force, every trial must evaluate to zero."""
        gc.collect()
        t0 = time.perf_counter()
        detected = self.sieving.kpath_detect(self.graph, self.wl.k, self.rng,
                                             trials=self.queries, method=self.wl.method)
        t_end = time.perf_counter()
        starts = [s[1] for s in tracer.spans if s[0] == "sieving.run"]
        answers = list(tracer.values.get("sieving.answers", ()))
        if detected:
            answers.append("detected")
        if not starts:
            raise RuntimeError("kpath_detect ran no trial")
        build_s = starts[0] - t0
        latencies = [b - a for a, b in zip(starts, starts[1:] + [t_end])]
        if workloads.has_simple_path(self.graph.n, self.graph.edges, self.wl.k):
            ok = 0
        else:
            ok = sum(1 for got in answers if got == self.field.zero)
        return build_s, latencies, answers, tracer.values["sieving.circuit"], ok

    def kpath_yes(self) -> bool:
        """Untimed: the workload's route must detect the path in a small
        yes-instance, so a route that extracts a zero circuit fails."""
        n, arcs = workloads.component_digraph(self.seed, workloads.YES_COMPONENTS)
        if not workloads.has_simple_path(n, arcs, workloads.YES_K):
            raise RuntimeError("the yes-instance has no path")
        rng = self.fields.Rng(workloads.sieve_seed(self.seed))
        return self.sieving.kpath_detect(self.sieving.DirectedGraph(n, arcs),
                                         workloads.YES_K, rng, trials=3,
                                         method=self.wl.method)


def main(argv) -> int:
    spec = json.loads(argv[1])
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import kronscale
    if Path(kronscale.__file__).resolve().parent != root / "src" / "kronscale":
        raise RuntimeError(f"kronscale imported from {kronscale.__file__}")
    import hostspeed
    import layers
    from tracing import Probes, Tracer

    wl = workloads.WORKLOADS[spec["workload"]]
    mode = spec["mode"]
    run = _Run(wl, spec["seed"], spec["queries"])
    setup_s = time.perf_counter() - spec["t_spawn"]
    out = {"setup_s": setup_s, "ref_s": hostspeed.sample()}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = Tracer()
    probes = {"trace": layers.PROBES, "count": layers.COUNT_PROBES}.get(mode, ())
    if wl.kind == "kpath" and layers.RUN_PROBE not in probes:
        probes += (layers.RUN_PROBE,)
    with Probes(probes, tracer) as installed:
        if layers.RUN_PROBE.target in installed.absent and wl.kind == "kpath":
            raise RuntimeError("k-path trials cannot be timed: "
                               f"{layers.RUN_PROBE.target} is gone")
        if wl.kind == "perm":
            build_s, latencies, answers, circ, ok = run.perm(tracer)
        else:
            build_s, latencies, answers, circ, ok = run.kpath(tracer)
    out["ref_s"] += hostspeed.sample()
    wall_s = build_s + sum(latencies)
    stats = circ.stats()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = spec["queries"]
    if wl.kind == "kpath" and mode != "count":
        attempted += 1
        ok += run.kpath_yes()
    out.update(build_s=build_s, arcs=stats["arcs"], gates=stats["gates"],
               peak_rss_mb=peak_rss_mb, latencies=latencies, wall_s=wall_s,
               answers=_answers_digest(answers), attempted=attempted, ok=ok)
    if mode in ("trace", "count"):
        ops = layers.circuit_ops(circ, run.circuit_mod.OP_ADD, run.circuit_mod.OP_MUL)
        view = layers.TraceView(tracer, ops, wall_s)
        out["per_layer"] = layers.per_layer_metrics(view, installed.absent,
                                                    counted=mode == "count")
        out["absent"] = installed.absent + sorted(tracer.broken)
    if mode == "trace":
        trace_dir = root / "perfbench" / "out"
        trace_dir.mkdir(exist_ok=True)
        trace_file = trace_dir / f"trace-{wl.name}-seed{spec['seed']}.json"
        trace_file.write_text(json.dumps({
            "workload": wl.name, "seed": spec["seed"], "absent": installed.absent,
            "broken": tracer.broken,
            "spans": tracer.spans}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
