"""Tests of the benchmark itself: reference checks, tracing, the no-sources exit.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_package()

import bisectsdp.heuristic  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def desargues_state(ref0=5, ref_final=6, optimum=7):
    inst = workloads._instance("desargues", 15, 5)
    return {"seed": 0, "rows": [(inst, ref0, ref_final, optimum)]}


def traced(fn, *args):
    tracer = Tracer()
    layers.bind_layers(tracer)
    try:
        with tracer.span("pass"):
            out = fn(*args)
    finally:
        tracer.restore()
    return out, tracer.spans()


@pytest.fixture(scope="module")
def desargues_untraced():
    return workloads.run_table(desargues_state())


def test_published_references_pass(desargues_untraced):
    (o,) = desargues_untraced
    assert o.checks == {
        "exit_zero": True,
        "round0_ceiling": True,
        "final_ceiling": True,
        "tabu_optimal": True,
        "ub_is_cut": True,
    }
    assert not o.failed and not o.wrong and o.ceiled == 6


@pytest.mark.parametrize("refs,check", [((4, 6), "round0_ceiling"), ((5, 7), "final_ceiling")])
def test_wrong_reference_is_a_failure(refs, check):
    (o,) = workloads.run_table(desargues_state(*refs))
    assert o.checks[check] is False
    assert o.failed and o.wrong


def test_table_optima_are_exact():
    optima = [
        bisectsdp.heuristic.brute_force(workloads._instance(spec, m1, m2))[1]
        for spec, m1, m2, *_ in workloads.TABLE_ROWS
    ]
    assert optima == [row[-1] for row in workloads.TABLE_ROWS]


def test_bound_above_optimum_ends_the_run():
    with pytest.raises(workloads.BoundViolation, match="exact optimum"):
        workloads.run_table(desargues_state(optimum=5))


def test_traced_loop_matches_untraced(desargues_untraced):
    out, spans = traced(workloads.run_table, desargues_state())
    assert [o.record for o in out] == [o.record for o in desargues_untraced]
    assert [o.ceiled for o in out] == [o.ceiled for o in desargues_untraced]
    m = layers.layer_metrics(spans)
    assert m["cuts.rounds"] == len(out[0].record["rounds"])
    assert m["solver.solve_calls"] == m["cuts.rounds"]
    assert m["heuristic.tabu_s"] > 0 and m["cli.main_s"] > m["cuts.loop_s"] > m["solver.solve_s"]


def test_traced_crossval_matches_untraced():
    state = workloads.prepare_crossval(3)
    state["cases"] = state["cases"][:3]
    plain = workloads.run_crossval(state)
    out, spans = traced(workloads.run_crossval, state)
    assert [o.record for o in out] == [o.record for o in plain]
    assert [o.ceiled for o in out] == [o.ceiled for o in plain]
    m = layers.layer_metrics(spans)
    # four relaxations per instance through compare, iteration counts as seen untraced
    assert m["solver.solve_calls"] == 4 * len(plain)
    assert m["solver.iterations"] == sum(sum(o.record["iterations"]) for o in plain)
    assert m["cuts.rounds"] == 0 and m["heuristic.tabu_s"] == 0


def test_wrappers_are_removed():
    tracer = Tracer()
    layers.bind_layers(tracer)
    bound = list(tracer._bound)
    assert all(
        (owner[attr] if isinstance(owner, dict) else getattr(owner, attr)) is not original
        for owner, attr, original in bound
    )
    tracer.restore()
    for owner, attr, original in bound:
        now = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        assert now is original, attr


def test_self_times_add_up():
    tracer = Tracer()
    with tracer.span("pass"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    spans = {s["name"]: s for s in tracer.spans()}
    assert spans["a"]["parent"] == spans["pass"]["id"] == spans["c"]["parent"]
    assert spans["a"]["self"] == pytest.approx(spans["a"]["dur"] - spans["b"]["dur"])
    assert sum(s["self"] for s in spans.values()) == pytest.approx(spans["pass"]["dur"])


def test_metric_names_match_benchmark_json():
    assert set(layers.LAYER_UNITS) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert layers.LAYER_UNITS[m["name"]] == m["unit"]
    computed = set(layers.layer_metrics([]))
    # the three the runner adds from the outcomes and the untraced pass
    assert computed | {"heuristic.tabu_optimal_ratio", "trace.overhead_s", "trace.unspanned_s"} == set(
        layers.LAYER_UNITS
    )
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_no_sources_exits_without_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "crossval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".perfbench_out").exists()
