"""BENCHMARK.json matches what the benchmark prints."""

import json
import re
from pathlib import Path

import run
from tracing import Span, op_layer_metrics

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _names(section):
    return [m["name"] for m in SPEC[section]]


def test_file_layout():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_names_and_units_are_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]] + _names("end_to_end") + _names("per_layer")
    assert all(NAME.match(n) for n in names)
    for section in ("workloads", "end_to_end", "per_layer"):
        listed = [m["name"] for m in SPEC[section]]
        assert len(listed) == len(set(listed))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_workloads_match_the_benchmark():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.load_workloads())


def test_end_to_end_names_match_the_untraced_run():
    assert set(_names("end_to_end")) == set(run.end_to_end_values([1.0], [1.0], 1.0))


def test_per_layer_names_match_the_traced_run():
    layer = op_layer_metrics([Span("op", 0.0, 1.0, -1, 1)])
    printed = set(layer) | set(run.STARTUP_METRICS) | set(run.bench_values({}, 0.0))
    assert set(_names("per_layer")) == printed
