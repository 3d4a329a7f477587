import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

import bisectsdp.solver
from bisectsdp import (
    BisectionInstance,
    ConicProblem,
    SolverConfig,
    SolverStatus,
    UnsupportedProblem,
    build_basic,
    build_new,
    build_wz,
    gen_gnp,
    generate,
    min_eigenvalue,
    safe_lower_bound,
    solve,
    strictly_feasible_point,
)
from bisectsdp.model import problem_from_text
from conftest import enumerate_min_cut


def tight_cfg(**kw):
    return SolverConfig(tol=1e-9, **kw)


def test_min_eigenvalue_basics():
    assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0, abs=1e-12)
    assert min_eigenvalue(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError):
        min_eigenvalue(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        min_eigenvalue(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_min_eigenvalue_interior_point_closed_form():
    inst = BisectionInstance(gen_gnp(18, 0.3, 4), 10, 8)
    X = strictly_feasible_point(inst)
    expected = min(10 * 10 / 18, 10 * 8 / (18 * 17))
    assert min_eigenvalue(X) == pytest.approx(expected, rel=1e-10)


def test_solve_star_bounds_brute_force(star31):
    opt, _ = enumerate_min_cut(star31)
    assert opt == 1.0
    p = build_new(star31, with_nonneg=True)
    sol = solve(p, tight_cfg())
    assert sol.status is SolverStatus.OPTIMAL
    assert -1e-8 <= sol.objective_primal <= opt + 1e-7
    sb = safe_lower_bound(p, sol)
    assert np.ceil(sb.value - 1e-6) <= opt


def test_solve_pappus_new_bound_in_published_range():
    inst = BisectionInstance(generate("pappus"), 10, 8)
    sol = solve(build_new(inst, True), SolverConfig())
    assert sol.status is SolverStatus.OPTIMAL
    assert 5.0 < sol.objective_primal <= 6.0 + 1e-6


@pytest.mark.parametrize("kw", [dict(tol=0), dict(tol=0.02), dict(tol=float("nan")), dict(max_iters=0)])
def test_solver_config_rejects_bad_settings(kw):
    with pytest.raises(ValueError):
        SolverConfig(**kw)


def test_contradictory_equalities_detected(gnp8):
    p = build_new(gnp8, with_nonneg=False)
    idx = np.arange(gnp8.n)
    p.add_equalities(idx, idx, 1.0, gnp8.m1 + 1.0, ["trace-conflict"])
    with pytest.raises(ValueError, match="'trace-conflict' contradicts"):
        solve(p, SolverConfig(max_iters=200))


def test_short_independent_equalities_are_kept(gnp8):
    # the presolve's rank test must not depend on row scaling: the order-n
    # model with diag(0) scaled by 1e-5 and an extra 1e-5 * X_01 = 0 row
    # keeps every equality and meets both
    n = gnp8.n
    base = build_basic(gnp8)
    p = ConicProblem(block_order=n, obj_matrix=base.obj_matrix, trace_constant=float(n))
    idx = np.arange(n)
    short = np.where(idx == 0, 1e-5, 1.0)
    p.add_equalities(idx, idx, short, short, [f"diag({i})" for i in idx])
    p.add_equalities(*np.triu_indices(n), 1.0, base.eq_rhs[-1], ["j-trace"])
    p.add_equalities(0, 1, 1e-5, 0.0, ["short-x01"])
    sol = solve(p, SolverConfig())
    assert sol.status is SolverStatus.OPTIMAL
    assert np.all(sol.dual_eq != 0.0)
    assert abs(sol.primal[0, 0] - 1.0) <= 1e-6
    assert abs(sol.primal[0, 1]) <= 1e-6


def test_weak_duality_on_optimal_solves(gnp8):
    for build in (build_basic, lambda i: build_new(i, True), build_wz):
        p = build(gnp8)
        sol = solve(p, SolverConfig())
        gap_allow = 1e-6 * (1 + abs(sol.objective_primal))
        assert sol.objective_dual <= sol.objective_primal + gap_allow


def test_safe_bound_formula_by_hand():
    # min <I,X> s.t. tr X = 1: optimum 1; a hand-made dual with lambda < 0
    p = ConicProblem(block_order=2, obj_matrix=np.eye(2), trace_constant=1.0)
    p.add_equalities([0, 1], [0, 1], 1.0, 1.0, ["trace"])
    from bisectsdp.solver import ConicSolution

    sol = ConicSolution(
        status=SolverStatus.OPTIMAL,
        primal=0.5 * np.eye(2),
        dual_eq=np.array([1.0 + 1e-6]),
        dual_ineq=np.zeros(0),
        objective_primal=1.0,
        objective_dual=1.0 + 1e-6,
        residuals=(0.0, 0.0, 0.0),
        iterations=0,
    )
    sb = safe_lower_bound(p, sol)
    # slack matrix is -1e-6 I, so the certified value drops back to 1
    assert sb.slack_min_eigenvalue == pytest.approx(-1e-6, rel=1e-6)
    assert sb.value == pytest.approx(1.0, abs=1e-12)
    assert sb.value <= 1.0 + 1e-12


def test_safe_bound_matches_dual_objective_when_clean(gnp8):
    p = build_new(gnp8, with_nonneg=True)
    sol = solve(p, tight_cfg())
    sb = safe_lower_bound(p, sol)
    assert sb.value == pytest.approx(sol.objective_dual, abs=1e-6)
    assert sb.value <= sol.objective_primal + 1e-7


def test_safe_bound_below_brute_force_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(6):
        n = int(rng.integers(6, 11))
        m1 = int(rng.integers(n // 2 + 1, n))
        inst = BisectionInstance(gen_gnp(n, 0.5, int(rng.integers(10**6))), m1, n - m1)
        opt, _ = enumerate_min_cut(inst)
        for build in (build_basic, lambda i: build_new(i, True), build_wz):
            p = build(inst)
            sb = safe_lower_bound(p, solve(p, SolverConfig()))
            assert sb.value <= opt + 1e-7


def test_safe_bound_requires_trace_constant(gnp8):
    p = build_new(gnp8, with_nonneg=False)
    p.trace_constant = None
    sol = solve(p, SolverConfig())
    with pytest.raises(UnsupportedProblem):
        safe_lower_bound(p, sol)


def test_safe_bound_rejects_duals_of_another_shape(gnp8):
    from bisectsdp import Cut, append_cuts

    p = build_new(gnp8, with_nonneg=True)
    sol = solve(p, SolverConfig())
    mi = p.num_ineq
    append_cuts(p, [Cut("tri-b", 0, 1, 2)])
    with pytest.raises(ValueError, match=rf"\({mi},\) \(inequalities\).*\({mi + 1},\)"):
        safe_lower_bound(p, sol)
    sol.dual_ineq = np.zeros(mi + 1)
    sol.dual_eq = sol.dual_eq[:-1]
    with pytest.raises(ValueError, match=rf"\({p.num_eq - 1},\) \(equalities\)"):
        safe_lower_bound(p, sol)


def test_block_order_cap():
    p = ConicProblem(block_order=301, obj_matrix=np.zeros((301, 301)))
    with pytest.raises(UnsupportedProblem):
        solve(p, SolverConfig())


_DIAG_AT_MOST_ONE = "".join(f"d{i} | {i},{i},1 | 1 | <=\n" for i in (1, 2, 3))
_NO_EQUALITIES = "* block_order 3\nobjective | 1,1,-1 2,2,-1 3,3,-1 | 0 | min\n" + _DIAG_AT_MOST_ONE


@pytest.mark.parametrize(
    "text, hint, status, value",
    [
        ("* block_order 2\nobjective | 1,1,1 2,2,1 | 0 | min\n", None, SolverStatus.OPTIMAL, 0.0),
        (_NO_EQUALITIES, None, SolverStatus.OPTIMAL, -3.0),
        # the first pass, on no rows, is unbounded and violates no row
        (_NO_EQUALITIES, [], SolverStatus.OPTIMAL, -3.0),
        ("* block_order 2\nobjective | 1,1,-1 | 0 | min\n", None, SolverStatus.NUMERICAL_TROUBLE, None),
    ],
    ids=["no-rows", "no-equalities", "no-equalities-empty-hint", "no-rows-unbounded"],
)
def test_solves_without_rows_or_equalities(text, hint, status, value):
    """A problem with no rows, or with inequalities only, solves without a
    RuntimeWarning, also from an empty hint; an unbounded one ends on the
    embedding's certificate."""
    p = problem_from_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve(p, ineq_hint=hint)
    assert sol.status is status
    assert sol.dual_eq.shape == (0,)
    if value is None:
        assert "tau collapsed" in sol.message
    else:
        assert sol.objective_primal == pytest.approx(value, abs=1e-6)


def _schur_case(name, inst):
    """A problem and an inequality working set for the Schur build test."""
    if name == "no-rows":
        return problem_from_text("* block_order 2\nobjective | 1,1,1 2,2,1 | 0 | min\n"), []
    if name == "basic":
        p = build_basic(inst)
    elif name == "pappus-reduced":
        from bisectsdp.algebra import coherent_closure, reduce_problem
        from bisectsdp.graphs import adjacency

        pappus = BisectionInstance(generate("pappus"), 10, 8)
        p = reduce_problem(build_new(pappus), coherent_closure(adjacency(pappus.graph)))
    elif name == "wz":
        p = build_wz(inst)
    else:
        p = build_new(inst, with_nonneg=True)
    if name != "new-cuts":
        return p, np.arange(p.num_ineq)
    from bisectsdp import Cut, append_cuts

    added = append_cuts(p, [Cut("tri-a", 0, 1, 2), Cut("tri-b", 0, 1, 3), Cut("tri-b", 2, 4, 6)])
    # a scrambled hint mixes rows of 1, 2, 3, 4 and 6 upper-triangle entries
    rng = np.random.default_rng(5)
    hint = np.concatenate([rng.choice(p.num_ineq - added, 40, replace=False),
                           np.arange(p.num_ineq - added, p.num_ineq)])
    return p, rng.permutation(hint)


def _pair_count(data, i):
    """The number of factor pairs that hold row i of the solver data."""
    place = data._inverse[i]
    return next(uv.shape[1] // 2 for a, b, uv, _ in data._batches if a <= place < b)


@pytest.mark.parametrize("name", ["basic", "new", "new-cuts", "wz", "no-rows", "pappus-reduced"])
def test_schur_matches_its_definition(gnp8, name):
    """The factor-pair build gives S[i,j] = <K_i, W K_j W> + diag(d) in the
    order of the working set's rows, exactly symmetric, with the all-ones
    rows, dense cell sums and a face included."""
    p, idx = _schur_case(name, gnp8)
    data = bisectsdp.solver._Data(p, idx)
    labels = [p.eq_labels[i] for i in data.eq_idx]
    if name in ("basic", "new", "new-cuts"):
        assert _pair_count(data, labels.index("j-trace")) <= data.n
    if name in ("new", "new-cuts"):
        row_sums = [i for i, label in enumerate(labels) if label.startswith("row-sum")]
        assert row_sums and all(_pair_count(data, i) == 1 for i in row_sums)
    rng = np.random.default_rng(11)
    G = rng.standard_normal((data.n, data.n))
    W = G @ G.T + 0.1 * np.eye(data.n)
    d = rng.random(data.mi)
    N = p.block_order
    K = data.A.toarray().reshape(-1, N, N)
    if p.face is not None:
        K = p.face.T @ K @ p.face
    expected = np.einsum("iab,jab->ij", K, W @ K @ W)
    expected[data.me :, data.me :] += np.diag(d)
    S = data.schur(W, d)
    assert S.shape == (data.m, data.m)
    assert np.array_equal(S, S.T)
    assert np.abs(S - expected).max(initial=0.0) <= 1e-12 * np.abs(expected).max(initial=1.0)
    # S is positive definite here, so the factor needs no shift
    assert np.array_equal(bisectsdp.solver._factor_schur(S), sla.cho_factor(S, lower=True)[0])


@pytest.mark.parametrize(
    "builder",
    [build_basic, lambda inst: build_new(inst, True), build_wz],
    ids=["basic", "new", "wz"],
)
@pytest.mark.parametrize("max_iters", [1, 3, 10])
def test_truncated_solve_still_certifies(gnp8, builder, max_iters):
    opt, _ = enumerate_min_cut(gnp8)
    p = builder(gnp8)
    # stop before the untruncated solve would finish
    max_iters = min(max_iters, solve(p, tight_cfg()).iterations - 1)
    sol = solve(p, tight_cfg(max_iters=max_iters))
    assert sol.status is SolverStatus.MAX_ITERS
    assert sol.iterations == max_iters
    assert safe_lower_bound(p, sol).value <= opt


def test_determinism(gnp8):
    p = build_new(gnp8, with_nonneg=True)
    # truncated solves stand in for the iterates along the way
    for max_iters in (3, 7, 500):
        cfg = SolverConfig(max_iters=max_iters)
        a = solve(p, cfg)
        b = solve(p, cfg)
        assert a.iterations == b.iterations
        assert np.array_equal(a.primal, b.primal)
        assert np.array_equal(a.dual_eq, b.dual_eq)
        assert np.array_equal(a.dual_ineq, b.dual_ineq)
        assert a.objective_primal == b.objective_primal


def test_bound_never_decreases_when_cut_appended(gnp8):
    from bisectsdp import Cut, append_cuts

    p = build_new(gnp8, with_nonneg=True)
    v0 = solve(p, tight_cfg()).objective_primal
    append_cuts(p, [Cut("tri-b", 0, 1, 2)])
    v1 = solve(p, tight_cfg()).objective_primal
    assert v1 >= v0 - 2e-7 * (1 + abs(v0))


def test_sifting_handles_large_inequality_sets():
    inst = BisectionInstance(gen_gnp(30, 0.3, 21), 18, 12)
    p = build_new(inst, with_nonneg=True)
    assert p.num_ineq > 700  # far more rows than bind
    sol = solve(p, SolverConfig())
    assert sol.status is SolverStatus.OPTIMAL
    viol = p.ineq_violations(sol.primal)
    scale = 1.0 + max(abs(v) for v in p.ineq_rhs + p.eq_rhs)
    assert viol.max() <= 1e-6 * scale
    assert len(sol.dual_ineq) == p.num_ineq


def test_hintless_solve_starts_from_no_rows(monkeypatch):
    p = build_new(BisectionInstance(generate("pappus"), 10, 8), with_nonneg=True)
    assert p.num_ineq == 648
    ipm, seen = bisectsdp.solver._ipm, []  # each pass's inequality working set

    def recording_ipm(data, cfg, start=None):
        seen.append(data.ineq_idx.copy())
        return ipm(data, cfg, start)

    monkeypatch.setattr(bisectsdp.solver, "_ipm", recording_ipm)
    hintless = solve(p)
    passes, seen[:] = seen[:], []
    empty = solve(p, ineq_hint=[])
    assert len(passes[0]) == 0
    assert all(np.array_equal(a, b) for a, b in zip(passes, seen, strict=True))
    assert hintless.status is SolverStatus.OPTIMAL
    assert hintless.iterations == empty.iterations
    for field in ("primal", "dual_eq", "dual_ineq"):
        assert np.array_equal(getattr(hintless, field), getattr(empty, field))


def test_hint_outside_the_rows_is_refused(gnp8):
    p = build_new(gnp8, with_nonneg=True)
    for bad in (-1, p.num_ineq):
        with pytest.raises(ValueError, match=f"ineq_hint holds rows outside .*\\[{bad}\\]"):
            solve(p, ineq_hint=[0, bad])


@pytest.mark.parametrize(
    "build, inst",
    [
        (lambda inst: build_new(inst, True), BisectionInstance(gen_gnp(30, 0.3, 21), 18, 12)),
        (build_wz, BisectionInstance(gen_gnp(19, 0.5, 2), 10, 9)),
    ],
    ids=["new", "wz-face"],
)
def test_warm_start_resolves_in_fewer_iterations(build, inst):
    p = build(inst)
    assert p.num_ineq > 700  # far more rows than bind
    cold = solve(p)
    # the rows that bind, as the cut loop passes them, with and without the start
    hint = np.flatnonzero(cold.dual_ineq > 1e-12)
    rerun, warm = solve(p, ineq_hint=hint), solve(p, ineq_hint=hint, start=cold)
    assert warm.status is SolverStatus.OPTIMAL
    assert warm.iterations < rerun.iterations
    assert warm.objective_primal == pytest.approx(cold.objective_primal, rel=1e-6)
    assert safe_lower_bound(p, warm).value == pytest.approx(safe_lower_bound(p, cold).value, rel=1e-6)


def test_start_that_does_not_fit_is_refused(gnp8):
    p = build_new(gnp8, with_nonneg=True)
    sol = solve(p)
    misfits = [
        dict(primal=sol.primal[:-1, :-1]),
        dict(dual_eq=sol.dual_eq[:-1]),
        dict(dual_ineq=np.zeros(p.num_ineq + 1)),
    ]
    for change in misfits:
        with pytest.raises(ValueError, match="start has"):
            solve(p, start=dataclasses.replace(sol, **change))
    # fewer inequality multipliers than rows: the rows appended since get 0
    short = solve(p, start=dataclasses.replace(sol, dual_ineq=sol.dual_ineq[:-5]))
    assert short.status is SolverStatus.OPTIMAL


def test_iterations_count_every_sifting_pass(monkeypatch):
    p = build_new(BisectionInstance(gen_gnp(30, 0.3, 21), 18, 12), with_nonneg=True)
    ipm, counts = bisectsdp.solver._ipm, []

    def recording_ipm(data, cfg, start=None):
        sol = ipm(data, cfg, start)
        counts.append(sol.iterations)
        return sol

    monkeypatch.setattr(bisectsdp.solver, "_ipm", recording_ipm)
    sol = solve(p)
    assert len(counts) > 1
    assert sol.iterations == sum(counts)


def test_budget_spent_before_sifting_settles_is_max_iters(gnp8, monkeypatch):
    p = build_new(gnp8, with_nonneg=True)
    ipm, passes = bisectsdp.solver._ipm, []

    def recording_ipm(data, cfg, start=None):
        passes.append(ipm(data, cfg, start))
        return passes[-1]

    monkeypatch.setattr(bisectsdp.solver, "_ipm", recording_ipm)
    solve(p)
    # the first pass, on no rows, ends OPTIMAL with rows left to activate
    first = passes[0]
    assert first.status is SolverStatus.OPTIMAL and len(passes) > 1
    sol = solve(p, SolverConfig(max_iters=first.iterations))
    assert sol.status is SolverStatus.MAX_ITERS
    assert sol.iterations == first.iterations


def test_wz_solves_close_to_new(gnp8):
    vn = solve(build_new(gnp8, True), tight_cfg()).objective_primal
    sw = solve(build_wz(gnp8), tight_cfg())
    assert abs(vn - sw.objective_primal) <= 1e-5 * (1 + abs(vn))
