"""Tour of the four bisection relaxations on small graphs.

Builds each relaxation for a couple of instances, solves them, and prints
the bound ladder next to the exact optimum. Also shows the calibration that
makes the bounds comparable: a 0/1 assignment lifted into any of the four
models evaluates exactly to its cut weight.
"""

import numpy as np

from bisectsdp import (
    Assignment,
    BisectionInstance,
    Graph,
    RelaxationKind,
    SolverConfig,
    brute_force,
    build_basic,
    build_new,
    build_wz,
    cut_value,
    gen_gnp,
    integer_point,
    safe_lower_bound,
    solve,
)

BUILDERS = [
    ("basic", build_basic),
    ("new-bare", lambda i: build_new(i, with_nonneg=False)),
    ("new", lambda i: build_new(i, with_nonneg=True)),
    ("wz", build_wz),
]


def bound_ladder(inst):
    print(f"\n=== {inst.name}: n={inst.n}, m=({inst.m1},{inst.m2}) ===")
    _, opt = brute_force(inst)
    cfg = SolverConfig(tol=1e-9)
    for name, build in BUILDERS:
        p = build(inst)
        sol = solve(p, cfg)
        sb = safe_lower_bound(p, sol)
        print(f"  {name:9s} bound = {sol.objective_primal:10.6f}   "
              f"certified = {sb.value:10.6f}   [{sol.status.value}, {sol.iterations} iters]")
    print(f"  {'optimum':9s} cut   = {opt:10.6f}   (exact enumeration)")


def calibration_demo(inst):
    print(f"\n--- integer-point calibration on {inst.name} ---")
    rng = np.random.default_rng(0)
    part1 = rng.choice(inst.n, size=inst.m1, replace=False)
    a = Assignment.from_part1(inst.n, part1)
    z = a.indicator()
    target = cut_value(inst.graph, a)
    print(f"  assignment part 1 = {sorted(int(v) + 1 for v in part1)}, cut = {target}")
    builders = dict(BUILDERS)
    for kind, name in [
        (RelaxationKind.BASIC, "basic"),
        (RelaxationKind.NEW_BARE, "new-bare"),
        (RelaxationKind.NEW, "new"),
        (RelaxationKind.WZ, "wz"),
    ]:
        p = builders[name](inst)
        M = integer_point(inst, z, kind)
        print(f"  {name:9s} objective at lifted point = {p.objective_value(M)} "
              f"(equal: {p.objective_value(M) == target})")


if __name__ == "__main__":
    star = BisectionInstance(
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), 3, 1, name="star K(1,3)"
    )
    bound_ladder(star)

    rnd = BisectionInstance(gen_gnp(10, 0.5, 11), 6, 4, name="G(10, 0.5)")
    bound_ladder(rnd)
    calibration_demo(rnd)
