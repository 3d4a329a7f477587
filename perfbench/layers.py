"""Which bisectsdp names the traced run wraps, and the per-layer metrics.

Each wrapper is bound where its caller looks the name up: the cutting-plane
loop calls ``bisectsdp.cuts.solve``, the command line calls
``bisectsdp.cli.solve`` and the builders in ``bisectsdp.cli._BUILDERS``,
the workloads call module attributes such as ``bisectsdp.heuristic.brute_force``.
"""

from __future__ import annotations

import numpy as np

import bisectsdp.cli
import bisectsdp.cuts
import bisectsdp.equivalence
import bisectsdp.graphs
import bisectsdp.heuristic
import bisectsdp.report
import bisectsdp.solver

# a dual above this marks a row as active (the loop's own hint threshold)
ACTIVE_DUAL = 1e-12


def _on_build(attrs, args, kwargs, p):
    attrs["rows"] = p.num_eq + p.num_ineq


def _on_solve(attrs, args, kwargs, sol):
    p = args[0]
    attrs["iterations"] = sol.iterations
    attrs["non_optimal"] = sol.status is not bisectsdp.solver.SolverStatus.OPTIMAL
    attrs["regularized"] = bool(sol.regularized)
    attrs["rows_offered"] = p.num_ineq
    attrs["rows_active"] = int(np.count_nonzero(sol.dual_ineq > ACTIVE_DUAL))


def _on_safe_bound(attrs, args, kwargs, sb):
    attrs["penalty"] = args[0].trace_constant * max(0.0, -sb.slack_min_eigenvalue)


def _on_loop(attrs, args, kwargs, report):
    cfg = args[1] if len(args) > 1 and args[1] is not None else bisectsdp.cuts.LoopConfig()
    bounds = [r.safe_bound for r in report.rounds]
    improving = 0
    best = bounds[0]
    for b in bounds[1:]:
        gain = b - best
        best = max(best, b)
        # the loop's own stall test, inverted
        improving += gain >= cfg.stall_tol * (1.0 + abs(best))
    attrs["rounds"] = len(bounds)
    attrs["later_rounds"] = len(bounds) - 1
    attrs["improving"] = improving


def _on_separate(attrs, args, kwargs, cuts):
    attrs["found"] = len(cuts)


def _on_append(attrs, args, kwargs, p):
    attrs["appended"] = len(args[1])


def _on_linking(attrs, args, kwargs, rep):
    attrs["passed"] = bool(rep.passed)


def _on_main(attrs, args, kwargs, code):
    attrs["exit"] = code


def bind_layers(tracer) -> None:
    cli, cuts, eq = bisectsdp.cli, bisectsdp.cuts, bisectsdp.equivalence
    tracer.bind(bisectsdp.graphs, "generate", "graphs.generate")
    tracer.bind(cli, "generate", "graphs.generate")
    for key in list(cli._BUILDERS):
        tracer.bind(cli._BUILDERS, key, "model.build", _on_build)
    tracer.bind(cuts, "build_new", "model.build", _on_build)
    tracer.bind(eq, "build_new", "model.build", _on_build)
    tracer.bind(eq, "build_wz", "model.build", _on_build)
    tracer.bind(cuts, "solve", "solver.solve", _on_solve)
    tracer.bind(cli, "solve", "solver.solve", _on_solve)
    tracer.bind(cuts, "safe_lower_bound", "solver.safe_bound", _on_safe_bound)
    tracer.bind(cli, "safe_lower_bound", "solver.safe_bound", _on_safe_bound)
    tracer.bind(bisectsdp.solver, "safe_lower_bound", "solver.safe_bound", _on_safe_bound)
    tracer.bind(cuts, "cutting_plane_loop", "cuts.loop", _on_loop)
    tracer.bind(cli, "cutting_plane_loop", "cuts.loop", _on_loop)
    tracer.bind(cuts, "separate", "cuts.separate", _on_separate)
    tracer.bind(cuts, "append_cuts", "cuts.append", _on_append)
    tracer.bind(eq, "lift_new_to_wz", "equivalence.lift")
    tracer.bind(eq, "project_wz_to_new", "equivalence.project")
    tracer.bind(eq, "check_linking_identities", "equivalence.linking", _on_linking)
    tracer.bind(cli, "tabu_search", "heuristic.tabu")
    tracer.bind(bisectsdp.heuristic, "brute_force", "heuristic.brute")
    tracer.bind(bisectsdp.report.BoundReport, "to_json", "report.serialize")
    tracer.bind(cli, "main", "cli.main", _on_main)


LAYER_UNITS = {
    "graphs.generate_s": "s",
    "model.build_s": "s",
    "model.build_calls": "count",
    "model.rows_built": "count",
    "solver.solve_s": "s",
    "solver.solve_calls": "count",
    "solver.iterations": "count",
    "solver.s_per_iter": "s",
    "solver.rows_offered": "count",
    "solver.rows_active": "count",
    "solver.active_ratio": "ratio",
    "solver.non_optimal": "count",
    "solver.regularized": "count",
    "solver.safe_bound_s": "s",
    "solver.cert_penalty": "objective",
    "cuts.loop_s": "s",
    "cuts.rounds": "count",
    "cuts.separate_s": "s",
    "cuts.cuts_found": "count",
    "cuts.cuts_appended": "count",
    "cuts.improving_round_ratio": "ratio",
    "equivalence.check_s": "s",
    "equivalence.map_failures": "count",
    "equivalence.linking_pass_ratio": "ratio",
    "heuristic.tabu_s": "s",
    "heuristic.tabu_optimal_ratio": "ratio",
    "heuristic.brute_s": "s",
    "report.serialize_s": "s",
    "cli.main_s": "s",
    "cli.nonzero_exits": "count",
    "trace.overhead_s": "s",
    "trace.unspanned_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals over the given spans (one traced pass plus its set-up)."""

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["dur"] for s in named(name))

    def count(name, key):
        return sum(s["attrs"].get(key, 0) for s in named(name))

    solves = named("solver.solve")
    iterations = count("solver.solve", "iterations")
    offered = count("solver.solve", "rows_offered")
    active = count("solver.solve", "rows_active")
    maps = named("equivalence.lift") + named("equivalence.project")
    links = named("equivalence.linking")
    mains = named("cli.main")
    return {
        "graphs.generate_s": total("graphs.generate"),
        "model.build_s": total("model.build"),
        "model.build_calls": len(named("model.build")),
        "model.rows_built": count("model.build", "rows"),
        "solver.solve_s": total("solver.solve"),
        "solver.solve_calls": len(solves),
        "solver.iterations": iterations,
        "solver.s_per_iter": _ratio(total("solver.solve"), iterations),
        "solver.rows_offered": offered,
        "solver.rows_active": active,
        "solver.active_ratio": _ratio(active, offered),
        "solver.non_optimal": count("solver.solve", "non_optimal"),
        "solver.regularized": count("solver.solve", "regularized"),
        "solver.safe_bound_s": total("solver.safe_bound"),
        "solver.cert_penalty": count("solver.safe_bound", "penalty"),
        "cuts.loop_s": total("cuts.loop"),
        "cuts.rounds": count("cuts.loop", "rounds"),
        "cuts.separate_s": total("cuts.separate"),
        "cuts.cuts_found": count("cuts.separate", "found"),
        "cuts.cuts_appended": count("cuts.append", "appended"),
        "cuts.improving_round_ratio": _ratio(
            count("cuts.loop", "improving"), count("cuts.loop", "later_rounds")
        ),
        "equivalence.check_s": sum(s["dur"] for s in maps + links),
        "equivalence.map_failures": sum("error" in s["attrs"] for s in maps),
        "equivalence.linking_pass_ratio": _ratio(count("equivalence.linking", "passed"), len(links)),
        "heuristic.tabu_s": total("heuristic.tabu"),
        "heuristic.brute_s": total("heuristic.brute"),
        "report.serialize_s": total("report.serialize"),
        "cli.main_s": total("cli.main"),
        "cli.nonzero_exits": sum(s["attrs"].get("exit", 0) != 0 for s in mains),
    }


def self_times(spans: list[dict]) -> dict[str, dict]:
    """Calls, total and self seconds per span name."""
    out: dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += s["dur"]
        agg["self_s"] += s["self"]
    return out
