"""Cutting-plane strengthening on the distance-regular benchmark graphs.

Reproduces the named-graph bound table: for each graph the plain order-n
bound, the bound after triangle cuts, and the tabu-search upper bound.
Prints the per-round trace so the bound progression is visible.
"""

import math

from bisectsdp import (
    BisectionInstance,
    LoopConfig,
    TabuConfig,
    cutting_plane_loop,
    generate,
    tabu_search,
)

GRAPHS = [
    ("pappus", 10, 8),
    ("desargues", 15, 5),
    ("johnson:7,2", 11, 10),
    ("biggs-smith", 70, 32),  # n=102: solved on its coherent closure, see README
]

if __name__ == "__main__":
    rows = []
    for spec, m1, m2 in GRAPHS:
        inst = BisectionInstance(generate(spec), m1, m2, name=spec)
        print(f"\n=== {spec}: n={inst.n}, m=({m1},{m2}) ===")
        rep = cutting_plane_loop(inst, LoopConfig())
        for r in rep.rounds:
            print(f"  round {r.round:2d}: +{r.cuts_added:3d} cuts ({r.cuts_total:4d} total)  "
                  f"bound {r.safe_bound:11.6f}  [{r.solver_status}, {r.wall_time:4.1f}s]")
        _, ub = tabu_search(inst, TabuConfig(seed=0))
        rows.append((spec, inst.n, (m1, m2),
                     math.ceil(rep.rounds[0].safe_bound - 1e-6),
                     int(rep.ceiled_lower_bound), int(ub)))

    print("\ngraph        |   n | m        | plain | +cuts | u.b.")
    print("-" * 55)
    for spec, n, m, b0, bc, ub in rows:
        print(f"{spec:12s} | {n:3d} | {str(m):8s} | {b0:5d} | {bc:5d} | {ub:4d}")
