"""The benchmark's own test: tiny versions of every workload, untraced and traced.

    python3 -m pytest perfbench -q

Any failed operation fails the test.  The repository's own suite does not
collect this file.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import ops
import run
import spans

sys.path.insert(0, str(run.SRC))
import satminors as sm  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Attributes the callers look the traced functions up through.
NAMED_BINDINGS = {
    ("satminors.formula", "reduce"),
    ("satminors.simplify", "substitute"),
    ("satminors.minors", "find_topological_minor"),
    ("satminors.minors", "two_core"),
    ("satminors.minors", "cut_vertices"),
    ("satminors.minors", "connected_components"),
    ("satminors.minors", "cycle_rank"),
    ("satminors.witness", "decide_support"),
    ("satminors.witness", "solve"),
    ("satminors.witness", "lift_subdivision"),
    ("satminors.census", "solve"),
    ("satminors", "solve"),
    ("satminors", "census"),
}

# Layers each workload must exercise, so their self time is above zero.
EXERCISED = {
    "sentences": ("formula", "simplify", "sat", "cli"),
    "analyze": ("formula", "sat", "graph", "minors", "witness", "cli"),
    "census": ("sat", "graph", "minors", "census", "cli"),
}


def _unchanged(snapshot) -> bool:
    return all(getattr(module, attr) is fn for module, attr, fn in snapshot)


def test_wrapped_bindings_cover_the_cross_layer_lookups():
    found = {(module.__name__, attr) for module, attr, _ in spans.bindings()}
    assert NAMED_BINDINGS <= found


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_untraced_quick_run_is_correct_and_installs_nothing(workload):
    snapshot = spans.bindings()
    out = run.bench(workload, seed=3, seconds=0.01, trace=False, quick=True)
    assert _unchanged(snapshot)
    result = out["result"]
    assert out["failures"] == [] and result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= out["ops"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_traced_quick_run_reports_every_layer_and_restores(workload):
    snapshot = spans.bindings()
    out = run.bench(workload, seed=4, seconds=0.01, trace=True, quick=True)
    assert _unchanged(snapshot)
    result = out["result"]
    assert out["failures"] == [] and result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for layer in EXERCISED[workload]:
        assert metrics[f"{layer}.self_s"] > 0, layer
    assert metrics["cli.startup.ms"] > 0
    tracer = out["tracers"][0]
    assert tracer.spans and all(span is not None for span in tracer.spans)


def test_metric_specs_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    for m in BENCHMARK["end_to_end"]:
        assert (m["unit"], m["better"]) == run.END_TO_END[m["name"]]
    for m in BENCHMARK["per_layer"]:
        better = "higher" if m["name"] in run.HIGHER_IS_BETTER else "lower"
        assert (m["unit"], m["better"]) == (run.per_layer_unit(m["name"]), better)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(ops.WORKLOADS)


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    first, cli = ops.build(workload, 8, True, sm)
    again, cli_again = ops.build(workload, 8, True, sm)
    other, _ = ops.build(workload, 9, True, sm)
    assert first == again and cli == cli_again
    assert first != other


def _flipped(op: ops.Op) -> ops.Op:
    case = op.case
    if isinstance(case, ops.gen.Sentence):
        case = dataclasses.replace(case, satisfiable=not case.satisfiable)
    else:
        case = dataclasses.replace(case, supports_unsat=not case.supports_unsat)
    return dataclasses.replace(op, case=case)


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_a_wrong_known_answer_is_a_failure(workload):
    oplist, _ = ops.build(workload, 5, True, sm)
    broken = [_flipped(op) for op in oplist]
    _, latencies, failures = run.run_pass(sm, broken)
    assert len(latencies) == len(broken)
    assert len(failures) == len(broken)


def test_reference_speed_scales_each_latency_by_the_samples_around_it():
    nominal = run.REF_NOMINAL_S
    refs = [nominal, nominal, 2 * nominal, 2 * nominal]
    assert run.at_reference_speed([1.0, 3.0, 4.0], refs) == pytest.approx([1.0, 2.0, 2.0])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
