"""The constructive maps between the order-n and vector-lifted relaxations.

Lifts a feasible order-n matrix into the bordered lifted form and projects
it back, showing exact objective preservation; checks the linking
identities on a solved lifted matrix; and verifies the bordered-PSD
equivalence on both a generic interior point and a constructed
counterexample where both sides fail together.
"""

import numpy as np

from bisectsdp import (
    BisectionInstance,
    SolverConfig,
    build_new,
    build_wz,
    check_bordered_psd_equivalence,
    check_linking_identities,
    feasibility_report,
    gen_gnp,
    lift_new_to_wz,
    project_wz_to_basic,
    project_wz_to_new,
    solve,
    strictly_feasible_point,
)

if __name__ == "__main__":
    inst = BisectionInstance(gen_gnp(8, 0.5, 3), 5, 3, name="G(8,0.5)")
    p_new = build_new(inst, True)
    p_wz = build_wz(inst)

    print("=== lift and project ===")
    X = strictly_feasible_point(inst)
    B = lift_new_to_wz(X, inst)
    print(f"objective before lift: {p_new.objective_value(X):.10f}")
    print(f"objective after lift : {p_wz.objective_value(B):.10f}")
    back = project_wz_to_new(B, inst)
    print(f"round trip exact: {np.array_equal(back, X)}")
    rep = feasibility_report(p_wz, B, tol=1e-9)
    print(f"lifted point feasible for the lifted model: {rep.passed}")

    print("\n=== linking identities on a solved lifted matrix ===")
    sol = solve(p_wz, SolverConfig(tol=1e-9))
    p8 = check_linking_identities(sol.primal, inst.m1, inst.m2, tol=1e-5)
    for fam, res in p8.family_residuals.items():
        print(f"  {fam:12s} residual {res:.2e}")
    print(f"  all within 1e-5: {p8.passed}")

    print("\n=== block-sum projection dominates the plain bound ===")
    Xb = project_wz_to_basic(sol.primal, inst, tol=1e-5)
    n = inst.n
    M = 2 * Xb - np.ones((n, n))
    print(f"diag(X) == 1 to {np.abs(np.diag(Xb) - 1).max():.1e}; "
          f"min eig of shifted block {np.linalg.eigvalsh(M)[0]:.2e}")

    print("\n=== bordered-PSD equivalence ===")
    print(f"interior point: sides agree = {check_bordered_psd_equivalence(strictly_feasible_point(inst))}")
    Xneg = np.eye(5) - 0.1 * (np.ones((5, 5)) - np.eye(5))
    print(f"negative-coupling matrix (both sides false): sides agree = {check_bordered_psd_equivalence(Xneg)}")
