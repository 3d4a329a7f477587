"""The vector-lifted relaxation solved on its minimal face, and the presolve."""

import itertools

import numpy as np
import pytest

from bisectsdp import (
    BisectionInstance,
    ConicProblem,
    RelaxationKind,
    SolverConfig,
    SolverStatus,
    build_new,
    build_wz,
    check_linking_identities,
    gen_gnp,
    generate,
    integer_point,
    lift_new_to_wz,
    project_wz_to_new,
    safe_lower_bound,
    solve,
)
from bisectsdp.model import problem_from_text, problem_to_text, wz_face
from conftest import enumerate_min_cut


def exposing_vectors(n, m1):
    e = np.ones(n)
    vs = [np.concatenate(([-float(m1)], e, np.zeros(n)))]
    vs += [np.concatenate(([-1.0], row, row)) for row in np.eye(n)]
    return vs


def test_wz_face_holds_every_integer_point():
    n, m1, m2 = 6, 4, 2
    V = wz_face(n, m1, m2)
    assert V.shape == (2 * n + 1, n)
    assert np.abs(V.T @ V - np.eye(n)).max() <= 1e-14
    for v in exposing_vectors(n, m1):
        assert np.abs(V.T @ v).max() <= 1e-14
    inst = BisectionInstance(gen_gnp(n, 0.5, 1), m1, m2)
    P = V @ V.T
    for part1 in itertools.combinations(range(n), m1):
        z = np.zeros(n)
        z[list(part1)] = 1.0
        B = integer_point(inst, z, RelaxationKind.WZ)
        assert np.abs(P @ B @ P - B).max() <= 1e-13


def test_wz_face_rejects_part_sizes_off_n():
    with pytest.raises(ValueError, match="do not add up"):
        wz_face(6, 4, 1)


def test_problem_rejects_a_malformed_face():
    with pytest.raises(ValueError, match="face must be 3 x k"):
        ConicProblem(block_order=3, obj_matrix=np.eye(3), face=np.eye(2))
    with pytest.raises(ValueError, match="orthonormal"):
        ConicProblem(block_order=3, obj_matrix=np.eye(3), face=np.ones((3, 1)))


CELLS = [
    ("gnp8", (8, 0.5, 3), 5, 3),
    ("m2=1", (10, 0.7, 11), 9, 1),
    ("m2=2", (11, 0.3, 5), 9, 2),
    # without the move onto the kept equalities its j-trace-1 row missed
    # project_wz_to_new's 1e-6 check by 1.1e-6
    ("j-trace-1", (14, 0.3, 424930), 13, 1),
]


@pytest.fixture(scope="module", params=CELLS, ids=[c[0] for c in CELLS])
def solved_cell(request):
    _, (n, p, seed), m1, m2 = request.param
    inst = BisectionInstance(gen_gnp(n, p, seed), m1, m2)
    p_wz, p_new = build_wz(inst), build_new(inst, True)
    return inst, p_wz, solve(p_wz, SolverConfig()), p_new, solve(p_new, SolverConfig())


def test_face_solve_passes_the_maps(solved_cell):
    inst, _, sol, _, _ = solved_cell
    assert sol.status is SolverStatus.OPTIMAL
    assert sol.primal.shape == (2 * inst.n + 1,) * 2
    # the equalities that the presolve drops hold too, not only the kept ones
    assert np.abs(build_wz(inst).eq_residuals(sol.primal)).max() <= 1e-10
    project_wz_to_new(sol.primal, inst)
    rep = check_linking_identities(sol.primal, inst.m1, inst.m2)
    assert rep.passed, rep.family_residuals


def test_dropped_rows_carry_dual_zero(solved_cell):
    inst, p, sol, _, _ = solved_cell
    n = inst.n
    # the nonneg rows on the y12-diag entries, which an equality pins at 0
    pinned = [p.ineq_labels.index(f"nonneg({i},{i + n})") for i in range(n)]
    assert np.all(sol.dual_ineq[pinned] == 0.0)
    # the face leaves n + 1 independent equalities; the rest are dropped
    assert np.count_nonzero(sol.dual_eq == 0.0) == p.num_eq - (n + 1)
    # the order-n model has one dependent equality, the trace
    _, _, _, p_new, sol_new = solved_cell
    assert np.flatnonzero(sol_new.dual_eq == 0.0).tolist() == [p_new.eq_labels.index("trace")]


@pytest.mark.parametrize(
    "spec,m1,m2",
    [("gnp:13,0.5,669297", 7, 6), ("gnp:14,0.5,756741", 12, 2), ("gnp:12,0.3,349889", 9, 3)],
)
def test_order_n_solve_passes_the_lift(spec, m1, m2):
    # with its dependent trace row kept, the order-n solve missed the lift's
    # 1e-6 feasibility check on its j-trace row (3.0e-6 and 1.1e-6); the
    # third missed it until every solve ended on its kept equalities
    inst = BisectionInstance(generate(spec), m1, m2)
    p = build_new(inst, True)
    sol = solve(p, SolverConfig())
    assert sol.status is SolverStatus.OPTIMAL
    # the trace row that the presolve drops holds too
    assert np.abs(p.eq_residuals(sol.primal)).max() <= 1e-10
    assert type(sol.objective_primal) is float
    lift_new_to_wz(sol.primal, inst)


def test_kkt_refinement_keeps_a_tight_face_solve_optimal():
    # criterion 2's battery instance 1 at tolerance 1e-9: without the
    # two-pass refinement of each direction against the full Newton system
    # a Schur factorization breaks down and the solve ends NUMERICAL_TROUBLE,
    # under one BLAS thread and under two
    inst = BisectionInstance(gen_gnp(11, 0.3, 275002), 6, 5)
    sol = solve(build_wz(inst), SolverConfig(tol=1e-9))
    assert sol.status is SolverStatus.OPTIMAL, sol.message


def test_face_safe_bound_matches_order_n(solved_cell):
    inst, p_wz, sol_wz, p_new, sol_new = solved_cell
    opt, _ = enumerate_min_cut(inst)
    v_wz = safe_lower_bound(p_wz, sol_wz).value
    assert v_wz <= opt
    assert abs(v_wz - safe_lower_bound(p_new, sol_new).value) <= 1e-5


def test_wz_without_face_still_certifies(gnp8):
    p = problem_from_text(problem_to_text(build_wz(gnp8)))
    assert p.face is None
    sol = solve(p, SolverConfig())
    opt, _ = enumerate_min_cut(gnp8)
    assert safe_lower_bound(p, sol).value <= opt


def with_empty_row(line):
    inst = BisectionInstance(generate("gnp:6,0.5,1"), 4, 2)
    return problem_from_text(problem_to_text(build_new(inst, True)) + line + "\n")


@pytest.mark.parametrize("line", ["empty |  | 1 | <=", "empty |  | 0 | ="])
def test_consistent_empty_row_is_dropped(line):
    p = with_empty_row(line)
    ref = solve(with_empty_row(""), SolverConfig())
    sol = solve(p, SolverConfig())
    assert sol.status is SolverStatus.OPTIMAL
    assert sol.objective_primal == ref.objective_primal
    duals = sol.dual_ineq if "<=" in line else sol.dual_eq
    assert duals[-1] == 0.0
    ref_bound = safe_lower_bound(with_empty_row(""), ref).value
    assert safe_lower_bound(p, sol).value == pytest.approx(ref_bound, abs=1e-12)


@pytest.mark.parametrize("line", ["empty |  | -1 | <=", "empty |  | 1 | ="])
def test_inconsistent_empty_row_is_an_error(line):
    p = with_empty_row(line)
    with pytest.raises(ValueError, match="'empty'.*infeasible"):
        solve(p, SolverConfig())


def test_face_presolve_rejects_rows_its_equalities_contradict(gnp8):
    p = build_wz(gnp8)
    p.eq_rhs[p.eq_labels.index("j-cross")] += 1.0
    with pytest.raises(ValueError, match="contradicts the equalities it depends on"):
        solve(p, SolverConfig())
    p = build_wz(gnp8)
    # Y12_00 >= 1 against the pinned Y12_00 = 0
    p.ineq_rhs[p.ineq_labels.index(f"nonneg(0,{gnp8.n})")] = -1.0
    with pytest.raises(ValueError, match=r"'nonneg\(0,8\)' contradicts the equalities"):
        solve(p, SolverConfig())
