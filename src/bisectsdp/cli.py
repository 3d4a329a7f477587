"""Command-line pipeline: bound a bisection instance and emit a report.

Two subcommands. ``solve`` runs one relaxation (optionally with the
cutting-plane loop and a heuristic upper bound) and prints a JSON report or
a benchmark-table CSV row. ``compare`` solves several relaxations on one
instance and checks the domination/equivalence relations between them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .cuts import LoopConfig, cutting_plane_loop
from .graphs import BisectionInstance, InstanceFormatError, generate, parse_instance
from .heuristic import TabuConfig, brute_force, tabu_search
from .model import build_basic, build_new, build_wz
from .report import BoundReport, RoundTrace, ceil_bound, csv_header, csv_row
from .solver import SolverConfig, SolverStatus, safe_lower_bound, solve

__all__ = ["main", "run_solve", "run_compare"]

_BUILDERS = {
    "basic": build_basic,
    "new": lambda inst: build_new(inst, with_nonneg=True),
    "new-bare": lambda inst: build_new(inst, with_nonneg=False),
    "wz": build_wz,
}

_WZ_MAX_N = 60


def _load_instance(args) -> BisectionInstance:
    if args.instance:
        path = Path(args.instance)
        if not path.exists():
            raise FileNotFoundError(f"instance file not found: {path}")
        inst = parse_instance(path.read_text(), name=path.stem)
        if args.m:
            m1, m2 = _parse_m(args.m)
            inst = BisectionInstance(inst.graph, m1, m2, name=inst.name)
        return inst
    if not args.m:
        raise InstanceFormatError("--generate requires --m m1,m2")
    m1, m2 = _parse_m(args.m)
    g = generate(args.generate)
    return BisectionInstance(g, m1, m2, name=args.generate)


def _parse_m(text: str) -> tuple[int, int]:
    try:
        m1, m2 = (int(t) for t in text.split(","))
    except ValueError as exc:
        raise InstanceFormatError(f"--m expects 'm1,m2', got {text!r}") from exc
    return m1, m2


def run_solve(args) -> int:
    inst = _load_instance(args)
    if args.cuts and args.relaxation != "new":
        raise InstanceFormatError("--cuts requires --relaxation new")
    cfg = SolverConfig(tol=args.tol)
    # built first, so that a bad loop setting is refused before any bound runs
    loop_cfg = None
    if args.cuts:
        loop_cfg = LoopConfig(
            max_rounds=args.max_rounds,
            cuts_per_round=args.cuts_per_round,
            eps=args.eps,
            solver=cfg,
        )

    # the upper bound goes first, so that brute force rejects a large
    # instance before the lower bound is paid for, and so that the cut loop
    # can stop once its bound meets it; tabu is seeded on its own
    upper = None
    if args.ub == "tabu":
        upper = tabu_search(inst, TabuConfig(seed=args.seed))
    elif args.ub == "brute":
        upper = brute_force(inst)

    if loop_cfg is not None:
        report = cutting_plane_loop(
            inst, loop_cfg, upper_bound=None if upper is None else upper[1]
        )
        ok = all(
            r.solver_status == SolverStatus.OPTIMAL.value for r in report.rounds
        )
    else:
        t0 = time.perf_counter()
        p = _BUILDERS[args.relaxation](inst)
        sol = solve(p, cfg)
        sb = safe_lower_bound(p, sol)
        report = BoundReport(
            instance=inst.name,
            n=inst.n,
            m1=inst.m1,
            m2=inst.m2,
            relaxation=args.relaxation,
            integral_weights=inst.graph.integral_weights,
            rounds=[
                RoundTrace(
                    round=0,
                    cuts_added=0,
                    cuts_total=0,
                    raw_bound=sol.objective_primal,
                    safe_bound=sb.value,
                    solver_status=sol.status.value,
                    wall_time=time.perf_counter() - t0,
                    iterations=sol.iterations,
                )
            ],
            certified_lower_bound=sb.value,
            ceiled_lower_bound=ceil_bound(sb.value, inst.graph.integral_weights),
            config={"relaxation": args.relaxation, "tol": args.tol},
            total_wall_time=time.perf_counter() - t0,
        )
        report.values[args.relaxation.replace("-", "_")] = sb.value
        ok = sol.usable()

    if upper is not None:
        assignment, report.upper_bound = upper
        report.upper_bound_method = args.ub
        report.upper_bound_part1 = sorted(v + 1 for v in assignment.part1_set())

    if args.out == "json":
        print(report.to_json())
    else:
        print(csv_header())
        print(csv_row(report))
    return 0 if ok else 1


def run_compare(args) -> int:
    inst = _load_instance(args)
    names = [r.strip() for r in args.relaxations.split(",") if r.strip()]
    if not names:
        raise InstanceFormatError("--relaxations names no relaxation")
    for i, name in enumerate(names):
        if name not in _BUILDERS:
            raise InstanceFormatError(f"unknown relaxation {name!r}")
        if name in names[:i]:
            raise InstanceFormatError(f"--relaxations names {name!r} twice")
    if "wz" in names and inst.n > _WZ_MAX_N:
        raise InstanceFormatError(
            f"the vector-lifted relaxation is limited to n <= {_WZ_MAX_N} (got n={inst.n})"
        )
    cfg = SolverConfig(tol=args.tol)
    values: dict[str, float] = {}
    statuses: dict[str, str] = {}
    ok = True
    for name in names:
        sol = solve(_BUILDERS[name](inst), cfg)
        values[name] = float(sol.objective_primal)
        statuses[name] = sol.status.value
        ok = ok and sol.usable()

    checks: dict[str, bool] = {}
    if "basic" in values and "new" in values:
        checks["basic_dominated_by_new"] = bool(
            values["basic"] <= values["new"] + 1e-6 * (1 + abs(values["new"]))
        )
    if "new" in values and "wz" in values:
        checks["new_equivalent_to_wz"] = bool(
            abs(values["new"] - values["wz"]) <= 1e-5 * (1 + abs(values["new"]))
        )
    if "new-bare" in values and "new" in values:
        checks["bare_no_stronger_than_new"] = bool(
            values["new-bare"] <= values["new"] + 1e-6 * (1 + abs(values["new"]))
        )
    gaps = {
        f"{a}-{b}": values[a] - values[b]
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    }
    out = {
        "instance": inst.name,
        "n": inst.n,
        "m": [inst.m1, inst.m2],
        "values": values,
        "statuses": statuses,
        "pairwise_gaps": gaps,
        "checks": checks,
    }
    print(json.dumps(out, indent=2))
    return 0 if ok and all(checks.values()) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bisectsdp",
        description="Certified SDP lower bounds for minimum graph bisection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--instance", help="path to an instance file")
        src.add_argument(
            "--generate",
            help="named generator, e.g. pappus, desargues, biggs-smith, johnson:7,2, gnp:30,0.3,42",
        )
        sp.add_argument("--m", help="part sizes 'm1,m2' (required with --generate)")
        sp.add_argument("--tol", type=float, default=1e-7, help="solver tolerance")
        sp.add_argument("--seed", type=int, default=0, help="seed for heuristics")

    sp = sub.add_parser("solve", help="bound one instance with one relaxation")
    add_common(sp)
    sp.add_argument(
        "--relaxation",
        choices=sorted(_BUILDERS),
        default="new",
        help="which relaxation to solve",
    )
    sp.add_argument("--cuts", action="store_true", help="run the cutting-plane loop")
    sp.add_argument("--max-rounds", type=int, default=20)
    sp.add_argument(
        "--cuts-per-round", type=int, default=None, help="defaults to 2n"
    )
    sp.add_argument("--eps", type=float, default=1e-6, help="cut violation threshold")
    sp.add_argument("--ub", choices=["tabu", "brute", "none"], default="none")
    sp.add_argument("--out", choices=["json", "csv"], default="json")

    sp = sub.add_parser("compare", help="solve several relaxations and check relations")
    add_common(sp)
    sp.add_argument(
        "--relaxations",
        default="basic,new,new-bare,wz",
        help="comma-separated subset of basic,new,new-bare,wz",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return run_solve(args)
        return run_compare(args)
    except (InstanceFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
