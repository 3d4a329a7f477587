import numpy as np
import pytest

from bisectsdp import (
    Assignment,
    BisectionInstance,
    SolverConfig,
    build_basic,
    build_new,
    build_wz,
    check_bordered_psd_equivalence,
    check_linking_identities,
    cut_value,
    feasibility_report,
    gen_gnp,
    integer_point,
    lift_new_to_wz,
    project_wz_to_basic,
    project_wz_to_new,
    solve,
    strictly_feasible_point,
)
from bisectsdp.model import RelaxationKind
from bisectsdp.solver import safe_lower_bound


def tight():
    return SolverConfig(tol=1e-9)


def test_lift_integer_point_exact(gnp8):
    z = np.zeros(8)
    z[[0, 2, 3, 5, 6]] = 1.0
    X = np.outer(z, z)
    B = lift_new_to_wz(X, gnp8)
    yhat = np.concatenate([[1.0], z, 1.0 - z])
    assert np.array_equal(B, np.outer(yhat, yhat))
    rep = feasibility_report(build_wz(gnp8), B, tol=1e-12)
    assert rep.passed
    p8 = check_linking_identities(B, gnp8.m1, gnp8.m2, tol=0.0)
    assert p8.passed and p8.worst() == 0.0


def test_lift_interior_point_block_traces():
    inst = BisectionInstance(gen_gnp(4, 0.9, 1), 3, 1)
    X = strictly_feasible_point(inst)
    B = lift_new_to_wz(X, inst)
    n = 4
    Y22 = B[n + 1 :, n + 1 :]
    # trace of the all-ones form on the complement block: n^2 + m1^2 - 2 n m1
    assert np.ones(n) @ Y22 @ np.ones(n) == pytest.approx(1.0, abs=1e-9)
    rep = feasibility_report(build_wz(inst), B, tol=1e-9)
    assert rep.passed


def test_lift_objective_preserved():
    inst = BisectionInstance(gen_gnp(7, 0.6, 3), 4, 3)
    p_new = build_new(inst, True)
    p_wz = build_wz(inst)
    X = strictly_feasible_point(inst)
    B = lift_new_to_wz(X, inst)
    assert p_wz.objective_value(B) == pytest.approx(p_new.objective_value(X), abs=1e-10)


def test_lift_rejects_infeasible_input(gnp8):
    X = np.eye(8)  # violates the row-sum linkage badly
    with pytest.raises(ValueError, match="not feasible"):
        lift_new_to_wz(X, gnp8)


@pytest.mark.parametrize(
    "map_, order, expected",
    [(lift_new_to_wz, 7, 6), (project_wz_to_new, 12, 13), (project_wz_to_basic, 12, 13)],
)
def test_maps_check_the_input_order_first(map_, order, expected):
    inst = BisectionInstance(gen_gnp(6, 0.5, 7), 4, 2)
    shapes = rf"needs shape \({expected}, {expected}\), got \({order}, {order}\)"
    with pytest.raises(ValueError, match=shapes):
        map_(np.zeros((order, order)), inst)


def test_schur_style_psd_identity():
    # the lifted slack difference is PSD: quadratic form identity on z1 - z2
    rng = np.random.default_rng(4)
    inst = BisectionInstance(gen_gnp(6, 0.5, 9), 4, 2)
    X = strictly_feasible_point(inst)
    x = np.diag(X)
    M = X - np.outer(x, x)
    for _ in range(25):
        z1 = rng.standard_normal(6)
        z2 = rng.standard_normal(6)
        quad = (z1 - z2) @ M @ (z1 - z2)
        assert quad >= -1e-10


def test_project_round_trip_exact(gnp8):
    X = strictly_feasible_point(gnp8)
    B = lift_new_to_wz(X, gnp8)
    X2 = project_wz_to_new(B, gnp8)
    assert np.array_equal(X2, X)


def test_project_solver_solution_amplification():
    inst = BisectionInstance(gen_gnp(6, 0.5, 7), 4, 2)
    sol = solve(build_wz(inst), tight())
    X = project_wz_to_new(sol.primal, inst, tol=1e-5)
    rep = feasibility_report(build_new(inst, True), X, tol=1e-5)
    assert rep.passed
    p_new = build_new(inst, True)
    p_wz = build_wz(inst)
    assert p_new.objective_value(X) == pytest.approx(
        p_wz.objective_value(sol.primal), abs=1e-5
    )


def test_project_to_basic_integer_point(gnp8):
    a = Assignment.from_part1(8, [0, 1, 2, 4, 7])
    z = a.indicator()
    B = integer_point(gnp8, z, RelaxationKind.WZ)
    X = project_wz_to_basic(B, gnp8)
    assert np.array_equal(np.diag(X), np.ones(8))
    M = 2 * X - np.ones((8, 8))
    assert np.linalg.eigvalsh(M)[0] >= -1e-9
    p_basic = build_basic(gnp8)
    assert p_basic.objective_value(M) == cut_value(gnp8.graph, a)


def test_project_to_basic_solver_solution():
    inst = BisectionInstance(gen_gnp(8, 0.5, 15), 5, 3)
    sol = solve(build_wz(inst), tight())
    X = project_wz_to_basic(sol.primal, inst, tol=1e-5)
    assert np.abs(np.diag(X) - 1).max() <= 1e-6
    n = 8
    assert np.ones(n) @ X @ np.ones(n) == pytest.approx(
        inst.m1**2 + inst.m2**2, abs=1e-5
    )
    assert np.linalg.eigvalsh(2 * X - np.ones((n, n)))[0] >= -1e-6
    # domination direction: the projected value is a valid basic objective
    p_basic = build_basic(inst)
    v_proj = p_basic.objective_value(2 * X - np.ones((n, n)))
    v_wz = build_wz(inst).objective_value(sol.primal)
    assert v_proj == pytest.approx(v_wz, abs=1e-5)


def test_linking_identities_on_solver_solution():
    inst = BisectionInstance(gen_gnp(6, 0.5, 3), 4, 2)
    sol = solve(build_wz(inst), tight())
    rep = check_linking_identities(sol.primal, inst.m1, inst.m2, tol=1e-7)
    assert rep.passed, rep.family_residuals


@pytest.mark.parametrize("shape", [(12, 12), (13, 12)])
def test_linking_identities_reject_a_matrix_without_a_border(shape):
    with pytest.raises(ValueError, match=rf"odd order 2n\+1, got shape \({shape[0]}, {shape[1]}\)"):
        check_linking_identities(np.zeros(shape), 4, 2)


def test_linking_identities_reject_part_sizes_that_miss_n():
    inst = BisectionInstance(gen_gnp(8, 0.5, 3), 5, 3)
    B = solve(build_wz(inst)).primal
    assert check_linking_identities(B, 5, 3).passed
    # sizes that add up to n but are not the matrix's fail the degree families
    assert not check_linking_identities(B, 4, 4).passed
    for m1, m2 in ((9, 9), (4, 3)):
        with pytest.raises(ValueError, match=rf"m1={m1} and m2={m2} do not add up to n=8"):
            check_linking_identities(B, m1, m2)


def test_bordered_equivalence_positive_cases(gnp8):
    assert check_bordered_psd_equivalence(strictly_feasible_point(gnp8))
    z = np.zeros(8)
    z[:5] = 1.0
    assert check_bordered_psd_equivalence(np.outer(z, z))


def test_bordered_equivalence_counterexample_family():
    # circulant-style X with negative coupling: trace condition fails and the
    # bordered matrix is simultaneously not PSD, so the sides agree on False
    for n, b in ((5, -0.1), (7, -0.08)):
        X = np.eye(n) + b * (np.ones((n, n)) - np.eye(n))
        assert np.linalg.eigvalsh(X)[0] > 0
        trJ = float(np.ones(n) @ X @ np.ones(n))
        assert trJ < np.trace(X) ** 2  # the plain side is false
        assert check_bordered_psd_equivalence(X)


def test_bordered_equivalence_rejects_unlinked_input():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((5, 5))
    X = A @ A.T + np.eye(5)
    with pytest.raises(ValueError, match="parallel"):
        check_bordered_psd_equivalence(X)


def test_solved_equivalence_and_domination_small():
    inst = BisectionInstance(gen_gnp(9, 0.5, 23), 6, 3)
    v_new = solve(build_new(inst, True), tight()).objective_primal
    v_wz = solve(build_wz(inst), tight()).objective_primal
    v_basic = solve(build_basic(inst), tight()).objective_primal
    v_bare = solve(build_new(inst, False), tight()).objective_primal
    assert abs(v_new - v_wz) <= 1e-5 * (1 + abs(v_new))
    assert v_basic <= v_new + 1e-6 * (1 + abs(v_new))
    assert v_bare <= v_new + 1e-6 * (1 + abs(v_new))


def test_redundancy_of_full_facet_family_small():
    # adding every pair/triangle facet to the lifted model gains exactly as
    # much as adding the order-n triangle cuts to the small model
    from bisectsdp.cuts import Cut, append_cuts
    from bisectsdp.equivalence import add_lifted_facets
    import itertools

    inst = BisectionInstance(gen_gnp(6, 0.6, 31), 4, 2)
    n = inst.n

    p_new = build_new(inst, True)
    all_cuts = [
        Cut("tri-a", i, j, k)
        for i, j in itertools.combinations(range(n), 2)
        for k in range(n)
        if k not in (i, j)
    ] + [Cut("tri-b", i, j, k) for i, j, k in itertools.combinations(range(n), 3)]
    append_cuts(p_new, all_cuts)
    v_new = solve(p_new, tight()).objective_primal

    p_wz = build_wz(inst)
    add_lifted_facets(p_wz)
    sol_wz = solve(p_wz, tight())
    v_wz = sol_wz.objective_primal
    assert abs(v_new - v_wz) <= 1e-5 * (1 + abs(v_new))
