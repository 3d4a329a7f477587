import hashlib
import math

import numpy as np
import pytest

from bisectsdp import (
    Assignment,
    BisectionInstance,
    ConicProblem,
    Cut,
    Graph,
    RelaxationKind,
    append_cuts,
    build_basic,
    build_new,
    build_wz,
    cut_value,
    gen_gnp,
    integer_point,
    laplacian,
    strictly_feasible_point,
)
from bisectsdp.equivalence import add_lifted_facets
from bisectsdp.model import problem_from_text, problem_to_text


def random_assignment(inst, rng):
    part1 = rng.choice(inst.n, size=inst.m1, replace=False)
    return Assignment.from_part1(inst.n, part1)


def test_build_basic_counts(star31):
    p = build_basic(star31)
    assert p.num_eq == star31.n + 1
    assert p.num_ineq == 0
    assert p.trace_constant == star31.n
    assert p.kind is RelaxationKind.BASIC


def test_build_new_counts(star31):
    p = build_new(star31, with_nonneg=True)
    n = star31.n
    assert p.num_eq == n + 2
    expected_ineq = n * (n + 1) // 2 + n * (n - 1) + n * (n - 1) // 2 + n
    assert p.num_ineq == expected_ineq
    assert p.trace_constant == star31.m1
    bare = build_new(star31, with_nonneg=False)
    assert bare.num_ineq == 0
    assert bare.num_eq == p.num_eq
    assert np.array_equal(bare.obj_matrix, p.obj_matrix)
    assert bare.eq_rhs == p.eq_rhs


def test_build_wz_counts():
    inst = BisectionInstance(Graph.from_edges(3, [(0, 1), (1, 2)]), 2, 1)
    p = build_wz(inst)
    assert p.block_order == 7
    assert p.num_eq == 15
    assert p.num_ineq == 6 * 7 // 2
    assert p.trace_constant == 4


@pytest.mark.parametrize("kind", list(RelaxationKind))
def test_integer_points_feasible_and_calibrated(kind, gnp8):
    rng = np.random.default_rng(7)
    builders = {
        RelaxationKind.BASIC: build_basic,
        RelaxationKind.NEW: lambda i: build_new(i, True),
        RelaxationKind.NEW_BARE: lambda i: build_new(i, False),
        RelaxationKind.WZ: build_wz,
    }
    p = builders[kind](gnp8)
    for _ in range(5):
        a = random_assignment(gnp8, rng)
        z = a.indicator()
        M = integer_point(gnp8, z, kind)
        assert np.abs(p.eq_residuals(M)).max() <= 1e-9
        if p.num_ineq:
            assert p.ineq_violations(M).max() <= 1e-9
        assert np.linalg.eigvalsh(M)[0] >= -1e-9
        # the factor calibration: every relaxation measures the cut itself
        assert p.objective_value(M) == cut_value(gnp8.graph, a)


def test_objective_identities_behind_calibration(gnp8):
    L = laplacian(gnp8.graph)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(gnp8.n)
    assert abs(np.ones(gnp8.n) @ L @ x) <= 1e-9
    assert abs(np.tensordot(L, np.ones((gnp8.n, gnp8.n)))) <= 1e-9


def test_strictly_feasible_point_values():
    inst = BisectionInstance(Graph.from_edges(4, [(0, 1)]), 3, 1)
    X = strictly_feasible_point(inst)
    assert np.allclose(np.diag(X), 0.75)
    off = X[0, 1]
    assert off == pytest.approx(0.5)
    assert np.allclose(X @ np.ones(4), 3 * 0.75 * np.ones(4))
    inst2 = BisectionInstance(Graph.from_edges(2, [(0, 1)]), 1, 1)
    assert np.array_equal(strictly_feasible_point(inst2), 0.5 * np.eye(2))


def test_strictly_feasible_point_spectrum():
    # closed form for aI + b(J-I): eigenvalues m1^2/n and m1(n-m1)/(n(n-1))
    inst = BisectionInstance(gen_gnp(18, 0.3, 1), 10, 8)
    X = strictly_feasible_point(inst)
    eigs = np.linalg.eigvalsh(X)
    n, m1 = 18, 10
    lam_big = m1 * m1 / n
    lam_small = m1 * (n - m1) / (n * (n - 1))
    assert eigs[-1] == pytest.approx(lam_big, rel=1e-12)
    assert np.allclose(eigs[:-1], lam_small, rtol=1e-10)
    assert eigs[0] > 0


def test_strictly_feasible_point_satisfies_new_equalities():
    inst = BisectionInstance(gen_gnp(11, 0.4, 2), 7, 4)
    p = build_new(inst, with_nonneg=True)
    X = strictly_feasible_point(inst)
    assert np.abs(p.eq_residuals(X)).max() <= 1e-12


def test_redundant_trace_equality_is_harmless(gnp8):
    from bisectsdp import SolverConfig, solve

    p = build_new(gnp8, with_nonneg=False)
    keep = [i for i, lab in enumerate(p.eq_labels) if lab != "trace"]
    q = ConicProblem(
        block_order=p.block_order,
        obj_matrix=p.obj_matrix,
        kind=p.kind,
        trace_constant=p.trace_constant,
    )
    for i in keep:
        q.add_equalities(*p.rows([i])[1:], p.eq_rhs[i], [p.eq_labels[i]])
    cfg = SolverConfig(tol=1e-9)
    v_with = solve(p, cfg).objective_primal
    v_without = solve(q, cfg).objective_primal
    assert v_with == pytest.approx(v_without, abs=1e-6)


def test_unique_labels_enforced(star31):
    p = build_basic(star31)
    with pytest.raises(ValueError, match="duplicate"):
        p.add_equalities(0, 0, 1.0, 1.0, ["diag(0)"])


def test_problem_text_round_trip(gnp8):
    p = build_new(gnp8, with_nonneg=True)
    text = problem_to_text(p)
    q = problem_from_text(text)
    assert q.block_order == p.block_order
    assert q.num_eq == p.num_eq and q.num_ineq == p.num_ineq
    assert q.eq_labels == p.eq_labels and q.ineq_labels == p.ineq_labels
    assert q.trace_constant == p.trace_constant
    assert q.kind is p.kind
    rng = np.random.default_rng(0)
    M = rng.standard_normal((p.block_order, p.block_order))
    M = M + M.T
    assert np.allclose(q.eq_residuals(M), p.eq_residuals(M), atol=1e-12)
    assert np.allclose(q.ineq_violations(M), p.ineq_violations(M), atol=1e-12)
    assert q.objective_value(M) == pytest.approx(p.objective_value(M), abs=1e-12)


def test_problem_text_rejects_an_entry_named_twice():
    text = "* block_order 3\nobjective | 1,1,1 | 0 | min\ndup | 1,2,1 1,2,3 | 0 | =\n"
    with pytest.raises(ValueError, match="names the same entry twice"):
        problem_from_text(text)


CUTS = [Cut("tri-a", 0, 1, 2), Cut("tri-b", 0, 1, 2), Cut("tri-a", 3, 5, 7)]


def _gnp8_problems(inst):
    built = {
        "basic": build_basic(inst),
        "new": build_new(inst, with_nonneg=True),
        "new-bare": build_new(inst, with_nonneg=False),
        "wz": build_wz(inst),
    }
    cut = build_new(inst, with_nonneg=True)
    append_cuts(cut, CUTS)
    built["new+cuts"] = cut
    return built


def test_operator_rows_equal_exact_row_sums(gnp8):
    rng = np.random.default_rng(5)
    problems = _gnp8_problems(gnp8)
    late = build_new(gnp8, with_nonneg=True)
    late.operator()
    append_cuts(late, CUTS[:2])
    append_cuts(late, CUTS[2:])
    problems["new, cuts appended after the operator was built"] = late
    for name, p in problems.items():
        N = p.block_order
        # small integers keep every product and partial sum exact
        M = rng.integers(-4, 5, size=(N, N)).astype(float)
        M = M + M.T
        rows = [p.rows([i])[1:] for i in range(p.num_eq + p.num_ineq)]
        exact = [
            math.fsum(w * M[a, b] for a, b, w in zip(r, c, np.where(r == c, 1.0, 2.0) * v))
            for r, c, v in rows
        ]
        assert (p.operator() @ M.ravel()).tolist() == exact, name


@pytest.mark.parametrize(
    "name, digest",
    [
        ("basic", "2153c5af0b9e7fcbf37174372c1ab279d0e65325a21b33bdd0ca867610b21bea"),
        ("new", "62a28f574831fef58aec1c2feffbac1d514e792043d0c2c916e0007cc3420614"),
        ("new-bare", "7daaed5bfa41a7c0170df2b913d37906258dbb06226594de363afe9d55a8fde5"),
        ("wz", "5cebb116f2c87e308557674c7b66c19a4f83f6af8f91654b5eef0fd6e8e7aff0"),
        ("new+cuts", "cfd15ed89890d9a16240304896cf20c996b9dd08b6eb77ba1407b9c9ee5cc560"),
        ("wz+lifted", "e0e68290378d5c652fa0c880687ca95dd39af6814dd7c034fff0a3b2093db943"),
    ],
)
def test_problem_text_digest_is_pinned(gnp8, name, digest):
    # pins every row, label, entry order and value the builders produce; the
    # lifted facet families at n = 5 add 670 inequality rows
    problems = _gnp8_problems(gnp8)
    problems["wz+lifted"] = lifted = build_wz(BisectionInstance(gen_gnp(5, 0.5, 3), 3, 2))
    add_lifted_facets(lifted)
    text = problem_to_text(problems[name])
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert problem_to_text(problem_from_text(text)) == text


def test_lifted_facets_need_the_lifted_relaxation(gnp8):
    p = build_new(gnp8, with_nonneg=True)
    with pytest.raises(ValueError, match="vector-lifted"):
        add_lifted_facets(p)
    assert p.num_ineq == build_new(gnp8, with_nonneg=True).num_ineq


def test_ragged_batch_and_row_selection(gnp8):
    p = ConicProblem(block_order=4, obj_matrix=np.zeros((4, 4)))
    p.add_inequalities([0, 1, 2, 3, 0, 1], [1, 1, 3, 3, 0, 3], [0.5, 0.0, 2.0, 1.0, 1.0, -1.0],
                       [0.0, 1.0, 2.0], ["a", "b", "c"], counts=[2, 3, 1])
    counts, r, c, v = p.rows([2, 0, 1])
    assert counts.tolist() == [1, 1, 3]  # the zero entry of row "a" is dropped
    assert list(zip(r.tolist(), c.tolist(), v.tolist())) == [
        (1, 3, -1.0), (0, 1, 0.5), (0, 0, 1.0), (2, 3, 2.0), (3, 3, 1.0)]
    with pytest.raises(ValueError, match="same entry twice"):
        p.add_inequalities([0, 0], [1, 1], 1.0, 0.0, ["d"])
    with pytest.raises(ValueError, match="split"):
        p.add_inequalities([0, 1, 2], [1, 1, 3], 1.0, 0.0, ["e", "f"], counts=[1, 1])
    assert p.num_ineq == 3
    q = build_new(gnp8, with_nonneg=True)
    sel = [0, 5, 2, q.num_eq + 7, q.num_eq + q.num_ineq - 1]
    counts, r, c, v = q.rows(sel)
    ends = np.cumsum(counts)
    for t, i in enumerate(sel):
        (_, ri, ci, vi), s = q.rows([i]), slice(ends[t] - counts[t], ends[t])
        assert (r[s].tolist(), c[s].tolist(), v[s].tolist()) == (
            ri.tolist(), ci.tolist(), vi.tolist())
