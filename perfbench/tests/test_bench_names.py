"""Metric names and the benchmark description stay in step with the code."""

import json
import re
from pathlib import Path

import layers
import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_use_only_allowed_characters():
    names = [m.name for m in layers.PER_LAYER] + [n for n, _ in run.END_TO_END]
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))
    for unit in [m.unit for m in layers.PER_LAYER] + [u for _, u in run.END_TO_END]:
        assert UNIT.match(unit), unit


def test_name_rule_rejects_other_characters():
    for bad in ("a b", "a/b", "_a", "a:b", "a" * 65, ""):
        assert not NAME.match(bad)


def test_benchmark_json_matches_the_code():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for entry in bench["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.PER_LAYER]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_layer_map_covers_every_per_layer_metric():
    doc = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    assert set(doc["metrics"]) == {m.name for m in layers.PER_LAYER}
    e2e = {n for n, _ in run.END_TO_END}
    for name, entry in doc["metrics"].items():
        assert set(entry["moves"]) <= e2e, name
        assert set(entry["on"]) <= set(workloads.WORKLOADS), name
    assert set(doc["seed_shares"]) == set(workloads.WORKLOADS)
