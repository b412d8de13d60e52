"""Benchmark for `kronscale`: one workload per command, from the repository root.

    python3 perfbench/run.py --workload perm6-s2 --seed 1 --seconds 40 --trace 0

Each measurement runs in a fresh interpreter (worker.py), one at a time.
Every time reported is in seconds at a nominal host speed: the worker's
measured time scaled by hostspeed.REF_S over the median time of a fixed
reference task run in the same interpreter (see hostspeed.py).  The line
before the result gives the unscaled medians and the median scale factor.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run, plus the tracing overhead against an untraced run of the same
inputs.  Every answer is checked against an oracle; any mismatch makes
`correct` false and the exit code 1.  Without `src/kronscale` next to this
directory the command exits with code 2 and prints no result.

The benchmark's own tests: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from layers import OVERHEAD, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9        # setup_s is the median over this many interpreters
DEADLINE_S = 170.0       # the whole command stays under 180 s

END_TO_END = (
    ("setup_s", "s"), ("build_s", "s"), ("eval_ms_p50", "ms"), ("wall_s", "s"),
    ("peak_rss_mb", "MB"), ("arcs", "count"), ("gates", "count"),
    ("ok_frac", "ratio"),
)


class BenchError(Exception):
    pass


def spawn(spec: dict, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    # perf_counter reads CLOCK_MONOTONIC on Linux, one clock for all
    # processes, so the worker can time its setup from this instant
    spec = dict(spec, root=str(ROOT), t_spawn=time.perf_counter())
    env = dict(os.environ, PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a worker could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['mode']} worker exceeded the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{spec['mode']} worker failed:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["speed"] = hostspeed.factor(result["ref_s"])
    return result


def measure(wl, seed: int, builds: int, queries: int, deadline: float):
    """Untraced run: metrics, answers attempted, answers matching the
    oracle, problems, detail.

    Each build runs in its own interpreter and answers every query.
    build_s is the median build, and a query's latency is its mean over
    the builds, so each sample spans the stretches of host speed that the
    builds met.  Times are scaled to the nominal host speed per worker."""
    base = {"workload": wl.name, "seed": seed, "queries": queries}
    # setup-only interpreters go before, between and after the builds
    extra = max(0, SETUP_SAMPLES - builds)
    slots = builds + 1
    runs, setup_only = [], []
    for slot in range(slots):
        for _ in range(extra // slots + (slot < extra % slots)):
            setup_only.append(spawn(dict(base, mode="setup"), deadline))
        if slot < builds:
            runs.append(spawn(dict(base, mode="run"), deadline))
    setups = [w["setup_s"] * w["speed"] for w in setup_only + runs]
    problems = [f"{key} differs between builds" for key in ("arcs", "gates", "answers")
                if len({w[key] for w in runs}) > 1]
    per_query = [statistics.fmean(lat) for lat in zip(
        *([t * w["speed"] for t in w["latencies"]] for w in runs))]
    build_s = statistics.median(w["build_s"] * w["speed"] for w in runs)
    attempted = sum(w["attempted"] for w in runs)
    ok = sum(w["ok"] for w in runs)
    values = {
        "setup_s": statistics.median(setups),
        "build_s": build_s,
        "eval_ms_p50": 1000.0 * statistics.median(per_query),
        "wall_s": build_s + sum(per_query),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in runs),
        "arcs": runs[0]["arcs"],
        "gates": runs[0]["gates"],
        "ok_frac": ok / attempted,
    }
    detail = {"eval_ms_p90": 1000.0 * statistics.quantiles(per_query, n=10)[-1],
              "unscaled_setup_s": statistics.median(
                  w["setup_s"] for w in setup_only + runs),
              "unscaled_build_s": statistics.median(w["build_s"] for w in runs),
              "speed_p50": statistics.median(w["speed"] for w in setup_only + runs)}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, attempted, ok, problems, detail


def measure_traced(wl, seed: int, builds: int, queries: int, deadline: float):
    """Traced run next to an untraced one on the same inputs, and an untimed
    build that counts builder calls: per-layer metrics, answers attempted,
    answers matching the oracle, problems, detail."""
    base = {"workload": wl.name, "seed": seed, "queries": queries}
    plain = spawn(dict(base, mode="run"), deadline)
    traced = spawn(dict(base, mode="trace"), deadline)
    counted = spawn(dict(base, mode="count", queries=1), deadline)
    problems = [f"traced run changed {key}" for key in ("arcs", "gates", "answers")
                if plain[key] != traced[key]]
    problems += [f"counting run changed {key}" for key in ("arcs", "gates")
                 if plain[key] != counted[key]]
    metrics = dict(traced["per_layer"], **counted["per_layer"])
    overhead = traced["wall_s"] * traced["speed"] / (plain["wall_s"] * plain["speed"])
    metrics[OVERHEAD.name] = {"value": overhead - 1.0, "unit": OVERHEAD.unit}
    mismatch = {m.name for m in PER_LAYER} ^ set(metrics)
    if mismatch:
        raise BenchError(f"per-layer metrics out of step with layers.py: {sorted(mismatch)}")
    detail = {"absent_probes": sorted(set(traced["absent"]) | set(counted["absent"])),
              "untraced_wall_s": plain["wall_s"] * plain["speed"]}
    runs = (plain, traced, counted)
    return (metrics, sum(w["attempted"] for w in runs), sum(w["ok"] for w in runs),
            problems, detail)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kronscale" / "__init__.py").is_file():
        print(f"no kronscale sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    wl = WORKLOADS[args.workload]
    builds, queries = wl.builds(args.seconds), wl.queries(args.seconds)
    deadline = time.monotonic() + DEADLINE_S
    try:
        measure_fn = measure_traced if args.trace else measure
        metrics, attempted, ok, problems, detail = measure_fn(
            wl, args.seed, builds, queries, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    correct = ok == attempted and not problems
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": wl.name, "params": wl.params(args.seconds), **detail}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": attempted - ok, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
