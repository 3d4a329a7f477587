"""The benchmark's workloads: their inputs, one pass over them, and the checks.

Each workload has a ``prepare(seed)`` that builds its instance list (this
is part of set-up) and a ``run(state)`` that makes one pass and returns one
``Outcome`` per instance. The program only ever sees the generated inputs.

All calls into bisectsdp go through module attributes
(``bisectsdp.cuts.cutting_plane_loop``, ``bisectsdp.cli.main``, ...) so
that a tracer which rebinds those names sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

import bisectsdp.cli
import bisectsdp.cuts
import bisectsdp.equivalence
import bisectsdp.graphs
import bisectsdp.heuristic
import bisectsdp.report
import bisectsdp.solver

# spec, m1, m2, round-0 ceiling, final ceiling, exact optimum
TABLE_ROWS = (
    ("pappus", 10, 8, 6, 7, 8),
    ("desargues", 15, 5, 5, 6, 7),
    ("johnson:7,2", 11, 10, 37, 40, 40),
)
# spec, m1, m2, round-0 ceiling; the full row (round 1 alone ~45 s) is too
# slow to run 22 times per check, so only round 0 is gated here
BIGGS_ROW = ("biggs-smith", 70, 32, 10)
# spec, m1, m2, cut rounds after round 0: big enough that round 0 already sifts.
# The seed relabels the vertices of this one graph. Over ten different
# G(60,0.2) graphs the loop took 18 to 29 s on a 2-CPU box (742 to 1026
# active rows after the cuts), so the seed, not the code, would set the spread.
SIFT_GNP = ("gnp:60,0.2,1", 36, 24, 2)
# (n, p, m2) cells: n in [8, 14], p in {0.3, 0.5, 0.7}, m1 = n - m2 in
# (n/2, n), half of them with the degenerate small parts m2 in {1, 2}. The
# seed draws the graphs, CROSSVAL_DRAWS per cell; fixing the cells keeps the
# mix, and so the work of a pass and its bound sum, steady from seed to seed.
CROSSVAL_CELLS = (
    (8, 0.3, 1), (8, 0.7, 3), (9, 0.5, 2), (9, 0.3, 4),
    (10, 0.7, 1), (10, 0.5, 4), (11, 0.3, 2), (11, 0.7, 5),
    (12, 0.5, 1), (12, 0.3, 3), (13, 0.7, 2), (13, 0.5, 6),
    (14, 0.3, 1), (14, 0.7, 4), (14, 0.5, 2), (12, 0.7, 5),
)
CROSSVAL_DRAWS = 2
COMPARE_ORDER = ("basic", "new", "new-bare", "wz")

# checks whose failure means the program's output is wrong, not just worse
GATED_CHECKS = ("round0_ceiling", "final_ceiling")


class BoundViolation(RuntimeError):
    """A certified lower bound above a known upper bound: the run must stop."""


@dataclass
class Outcome:
    name: str
    certified: float
    checks: dict[str, bool]
    # outputs that must be bit-identical between a traced and an untraced pass
    record: dict = field(default_factory=dict)

    @property
    def ceiled(self) -> int:
        return _ceil(self.certified)

    @property
    def failed(self) -> bool:
        return not all(self.checks.values())

    @property
    def wrong(self) -> bool:
        return not all(self.checks.get(k, True) for k in GATED_CHECKS)


def _ceil(value: float) -> int:
    return int(bisectsdp.report.ceil_bound(value, integral=True))


def _check_sandwich(name: str, certified: float, upper: float, what: str) -> None:
    # every upper bound here is an integer cut weight
    if _ceil(certified) > upper:
        raise BoundViolation(
            f"{name}: certified lower bound {certified!r} exceeds the {what} {upper!r}"
        )


def _first_part_cut(inst) -> float:
    """Cut of the assignment {0..m1-1}: a valid upper bound needing no search."""
    a = bisectsdp.graphs.Assignment.from_part1(inst.n, range(inst.m1))
    return bisectsdp.graphs.cut_value(inst.graph, a)


def _instance(spec: str, m1: int, m2: int):
    g = bisectsdp.graphs.generate(spec)
    return bisectsdp.graphs.BisectionInstance(g, m1, m2, name=spec)


def _relabeled(inst, seed: int):
    perm = np.random.default_rng(seed).permutation(inst.n)
    edges = [(int(perm[i]), int(perm[j]), w) for i, j, w in inst.graph.edges]
    g = bisectsdp.graphs.Graph.from_edges(inst.n, edges)
    return bisectsdp.graphs.BisectionInstance(g, inst.m1, inst.m2, name=f"{inst.name}@perm{seed}")


def _round_record(report) -> list:
    return [(r.solver_status, r.raw_bound, r.safe_bound, r.cuts_total) for r in report.rounds]


# ---------------------------------------------------------------------------
# table-sandwich: the paper's table through the command line
# ---------------------------------------------------------------------------

def prepare_table(seed: int) -> dict:
    rows = [(_instance(spec, m1, m2), r0, rf, opt) for spec, m1, m2, r0, rf, opt in TABLE_ROWS]
    return {"seed": seed, "rows": rows}


def run_table(state: dict) -> list[Outcome]:
    out = []
    for inst, ref0, ref_final, optimum in state["rows"]:
        argv = [
            "solve", "--generate", inst.name, "--m", f"{inst.m1},{inst.m2}",
            "--cuts", "--ub", "tabu", "--seed", str(state["seed"]),
        ]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = bisectsdp.cli.main(argv)
        rep = bisectsdp.report.BoundReport.from_json(buf.getvalue())
        certified = rep.certified_lower_bound
        ub = rep.upper_bound
        assignment = bisectsdp.graphs.Assignment.from_part1(
            inst.n, [v - 1 for v in rep.upper_bound_part1]
        )
        _check_sandwich(inst.name, certified, optimum, "exact optimum")
        _check_sandwich(inst.name, certified, ub, "tabu upper bound")
        out.append(
            Outcome(
                name=inst.name,
                certified=certified,
                checks={
                    "exit_zero": code == 0,
                    "round0_ceiling": _ceil(rep.rounds[0].safe_bound) == ref0,
                    "final_ceiling": rep.ceiled_lower_bound == ref_final,
                    "tabu_optimal": ub == optimum,
                    "ub_is_cut": bisectsdp.graphs.cut_value(inst.graph, assignment) == ub,
                },
                record={"rounds": _round_record(rep), "ub": ub},
            )
        )
    return out


# ---------------------------------------------------------------------------
# large-sift: cutting-plane loop on models whose inequality list is sifted
# ---------------------------------------------------------------------------

def prepare_large_sift(seed: int) -> dict:
    spec, m1, m2, ref0 = BIGGS_ROW
    gspec, gm1, gm2, rounds = SIFT_GNP
    return {
        "cases": [
            (_instance(spec, m1, m2), 0, ref0),
            (_relabeled(_instance(gspec, gm1, gm2), seed), rounds, None),
        ]
    }


def run_large_sift(state: dict) -> list[Outcome]:
    out = []
    for inst, max_rounds, ref0 in state["cases"]:
        report = bisectsdp.cuts.cutting_plane_loop(
            inst, bisectsdp.cuts.LoopConfig(max_rounds=max_rounds)
        )
        certified = report.certified_lower_bound
        _check_sandwich(inst.name, certified, _first_part_cut(inst), "cut of {0..m1-1}")
        checks = {"rounds_optimal": all(r.solver_status == "optimal" for r in report.rounds)}
        if ref0 is not None:
            checks["round0_ceiling"] = _ceil(report.rounds[0].safe_bound) == ref0
        out.append(
            Outcome(
                name=inst.name,
                certified=certified,
                checks=checks,
                record={"rounds": _round_record(report)},
            )
        )
    return out


# ---------------------------------------------------------------------------
# crossval: four relaxations, their relations and the maps between them
# ---------------------------------------------------------------------------

def prepare_crossval(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    cases = []
    for n, p, m2 in CROSSVAL_CELLS * CROSSVAL_DRAWS:
        gseed = int(rng.integers(10**6))
        cases.append(_instance(f"gnp:{n},{p},{gseed}", n - m2, m2))
    return {"cases": cases}


@contextlib.contextmanager
def _cli_solves():
    """Collect the (problem, solution) pairs ``bisectsdp.cli.solve`` sees."""
    original = bisectsdp.cli.solve
    calls = []

    def capture(p, *args, **kwargs):
        sol = original(p, *args, **kwargs)
        calls.append((p, sol))
        return sol

    bisectsdp.cli.solve = capture
    try:
        yield calls
    finally:
        bisectsdp.cli.solve = original


def _maps_ok(fn, *args) -> bool:
    try:
        fn(*args)
    except ValueError:
        return False
    return True


def run_crossval(state: dict) -> list[Outcome]:
    out = []
    for inst in state["cases"]:
        argv = ["compare", "--generate", inst.name, "--m", f"{inst.m1},{inst.m2}"]
        buf = io.StringIO()
        with _cli_solves() as calls, contextlib.redirect_stdout(buf):
            bisectsdp.cli.main(argv)
        result = json.loads(buf.getvalue())
        solved = dict(zip(COMPARE_ORDER, calls))
        p_new, sol_new = solved["new"]
        sol_wz = solved["wz"][1]
        eq = bisectsdp.equivalence
        checks = dict(result["checks"])
        checks["lift_new_to_wz"] = _maps_ok(eq.lift_new_to_wz, sol_new.primal, inst)
        checks["project_wz_to_new"] = _maps_ok(eq.project_wz_to_new, sol_wz.primal, inst)
        checks["linking"] = eq.check_linking_identities(sol_wz.primal, inst.m1, inst.m2).passed
        certified = bisectsdp.solver.safe_lower_bound(p_new, sol_new).value
        _, optimum = bisectsdp.heuristic.brute_force(inst)
        _check_sandwich(inst.name, certified, optimum, "exact optimum")
        out.append(
            Outcome(
                name=inst.name,
                certified=certified,
                checks=checks,
                record={
                    "values": result["values"],
                    "statuses": result["statuses"],
                    "iterations": [sol.iterations for _, sol in calls],
                    "optimum": optimum,
                },
            )
        )
    return out


WORKLOADS = {
    "table-sandwich": (prepare_table, run_table),
    "large-sift": (prepare_large_sift, run_large_sift),
    "crossval": (prepare_crossval, run_crossval),
}
