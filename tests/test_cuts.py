import itertools

import numpy as np
import pytest

import bisectsdp.cuts
import bisectsdp.solver
from bisectsdp import (
    BisectionInstance,
    Cut,
    LoopConfig,
    SolverConfig,
    SolverStatus,
    append_cuts,
    build_new,
    build_wz,
    cutting_plane_loop,
    gen_gnp,
    generate,
    separate,
    strictly_feasible_point,
)
from bisectsdp.cuts import TRI_A, TRI_B
from bisectsdp.graphs import Graph


def separate_reference(X, eps):
    """Plain triple-loop re-enumeration, independent of the vectorized path."""
    n = X.shape[0]
    found = set()
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k in (i, j):
                    continue
                v = X[i, k] + X[j, k] - X[k, k] - X[i, j]
                if v > eps:
                    found.add((TRI_A, i, j, k))
    for i, j, k in itertools.combinations(range(n), 3):
        v = X[i, i] + X[j, j] + X[k, k] - X[i, j] - X[i, k] - X[j, k] - 1.0
        if v > eps:
            found.add((TRI_B, i, j, k))
    return found


def test_separate_arithmetic_case():
    X = np.full((3, 3), 0.5)
    np.fill_diagonal(X, 0.9)
    cuts = separate(X, limit=None, eps=1e-6)
    assert len(cuts) == 1
    c = cuts[0]
    assert c.kind == TRI_B and (c.i, c.j, c.k) == (0, 1, 2)
    assert c.violation == pytest.approx(2.7 - 1.5 - 1.0)


def test_integer_points_are_never_cut():
    rng = np.random.default_rng(5)
    for n in (4, 7, 10):
        for _ in range(5):
            z = (rng.random(n) < 0.5).astype(float)
            X = np.outer(z, z)
            assert separate(X, limit=None, eps=1e-9) == []


def test_interior_point_is_never_cut():
    inst = BisectionInstance(gen_gnp(18, 0.3, 2), 10, 8)
    X = strictly_feasible_point(inst)
    assert separate(X, limit=None, eps=1e-9) == []


def test_separation_matches_reference_enumeration():
    rng = np.random.default_rng(12)
    for _ in range(4):
        A = rng.standard_normal((8, 8))
        X = 0.2 * (A + A.T) + 0.5
        eps = 1e-6
        got = {c.key() for c in separate(X, limit=None, eps=eps)}
        assert got == separate_reference(X, eps)


def test_separation_order_and_limit():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((7, 7))
    X = 0.3 * (A + A.T) + 0.4
    cuts = separate(X, limit=None, eps=1e-8)
    viols = [c.violation for c in cuts]
    assert viols == sorted(viols, reverse=True)
    assert separate(X, limit=5, eps=1e-8) == cuts[:5]
    again = separate(X, limit=None, eps=1e-8)
    assert [c.key() for c in again] == [c.key() for c in cuts]


def test_separate_rejects_a_negative_limit():
    # every triangle of this X is a violated TRI_B cut; slicing the order
    # with -1 would drop the weakest of the four without a word
    X = np.full((4, 4), 0.5)
    np.fill_diagonal(X, 0.9)
    assert len(separate(X, limit=None)) == 4
    assert separate(X, limit=0) == []
    with pytest.raises(ValueError, match="limit must be None or nonnegative, got -1"):
        separate(X, limit=-1)


def test_cut_rejects_an_unknown_kind():
    # without the check every method falls through to tri-b, and append_cuts
    # would add a tri-b row under the label bqp-cut(tri-c,0,1,2)
    with pytest.raises(ValueError, match="unknown cut kind 'tri-c'"):
        Cut("tri-c", 0, 1, 2)


def inner(r, c, v, M):
    """<K, M> of the upper-triangle entries (r, c, v); off-diagonals count twice."""
    r, c = np.asarray(r), np.asarray(c)
    return float(np.where(r == c, 1.0, 2.0) * np.asarray(v) @ M[r, c])


def test_cut_validity_on_all_boolean_points():
    # facet check: every cut holds at every 0/1 lift X = z z^T
    rng = np.random.default_rng(9)
    n = 9
    zs = np.array(list(itertools.product([0.0, 1.0], repeat=n)))
    for _ in range(40):
        kind = TRI_A if rng.random() < 0.5 else TRI_B
        if kind == TRI_A:
            i, j, k = map(int, rng.choice(n, size=3, replace=False))
            i, j = min(i, j), max(i, j)
        else:
            i, j, k = sorted(map(int, rng.choice(n, size=3, replace=False)))
        cut = Cut(kind, i, j, k)
        if kind == TRI_A:
            lhs = zs[:, i] * zs[:, k] + zs[:, j] * zs[:, k] - zs[:, k] - zs[:, i] * zs[:, j]
            assert lhs.max() <= 0
        else:
            lhs = (
                zs[:, i] + zs[:, j] + zs[:, k]
                - zs[:, i] * zs[:, j] - zs[:, i] * zs[:, k] - zs[:, j] * zs[:, k]
            )
            assert lhs.max() <= 1
        # coefficient row agrees with the direct evaluation
        X = np.outer(zs[123], zs[123])
        assert inner(*cut.entries(), X) - cut.rhs() == pytest.approx(cut.evaluate(X), abs=1e-12)


def test_every_cut_row_matches_its_evaluation():
    # every triple at n = 5, k = 0 included; each row is read back both from
    # entries() and from the problem after append_cuts
    n = 5
    inst = BisectionInstance(gen_gnp(n, 0.5, 3), 3, 2)
    rng = np.random.default_rng(4)
    X = rng.standard_normal((n, n))
    points = [X + X.T] + [np.outer(z, z) for z in itertools.product([0.0, 1.0], repeat=n)]
    cuts = [
        Cut(TRI_A, i, j, k)
        for i, j in itertools.combinations(range(n), 2)
        for k in range(n)
        if k not in (i, j)
    ] + [Cut(TRI_B, *t) for t in itertools.combinations(range(n), 3)]
    p = build_new(inst, with_nonneg=False)
    append_cuts(p, cuts)
    for t, cut in enumerate(cuts):
        row = p.rows([p.num_eq + t])[1:]
        assert len(row[2]) == (4 if cut.kind == TRI_A else 6)
        for M in points:
            assert inner(*cut.entries(), M) - cut.rhs() == pytest.approx(cut.evaluate(M), abs=1e-12)
            assert inner(*row, M) - cut.rhs() == pytest.approx(cut.evaluate(M), abs=1e-12)
    # z = (1, 1, 0, 0, 0) satisfies tri-a(1,2,0) with equality
    z = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    assert inner(*Cut(TRI_A, 1, 2, 0).entries(), np.outer(z, z)) == 0.0


def test_append_cuts_semantics(gnp8):
    p = build_new(gnp8, with_nonneg=True)
    base = p.num_ineq
    assert append_cuts(p, []) == 0
    assert p.num_ineq == base
    c = Cut(TRI_A, 0, 1, 2)
    assert append_cuts(p, [c]) == 1
    assert append_cuts(p, [c]) == 0
    assert p.num_ineq == base + 1
    with pytest.raises(IndexError):
        append_cuts(p, [Cut(TRI_B, 0, 1, 99)])
    with pytest.raises(ValueError, match="not distinct"):
        append_cuts(p, [Cut(TRI_A, 0, 1, 1)])
    assert p.num_ineq == base + 1
    assert append_cuts(p, [c, Cut(TRI_B, 0, 1, 2), Cut(TRI_B, 0, 1, 2)]) == 1
    assert p.num_ineq == base + 2
    wz = build_wz(gnp8)
    with pytest.raises(ValueError):
        append_cuts(wz, [c])


def test_append_many_cuts_count(gnp8):
    p = build_new(gnp8, with_nonneg=True)
    base = p.num_ineq
    X = strictly_feasible_point(gnp8) + 0.3 * np.eye(gnp8.n)
    cuts = separate(X, limit=2 * gnp8.n, eps=-10.0)  # grab plenty regardless of sign
    cuts = [c for c in cuts][: 2 * gnp8.n]
    append_cuts(p, cuts)
    assert p.num_ineq <= base + 2 * gnp8.n


def test_loop_on_empty_graph():
    inst = BisectionInstance(Graph(4, ()), 3, 1, name="empty")
    rep = cutting_plane_loop(inst, LoopConfig(max_rounds=3))
    assert rep.certified_lower_bound == pytest.approx(0.0, abs=1e-6)
    assert rep.ceiled_lower_bound == 0


def test_loop_is_deterministic():
    inst = BisectionInstance(gen_gnp(10, 0.5, 8), 6, 4)
    cfg = LoopConfig(max_rounds=4)
    r1 = cutting_plane_loop(inst, cfg)
    r2 = cutting_plane_loop(inst, cfg)
    assert [t.safe_bound for t in r1.rounds] == [t.safe_bound for t in r2.rounds]
    assert [t.cuts_added for t in r1.rounds] == [t.cuts_added for t in r2.rounds]
    # three rounds: cuts_total is the running sum of the rows appended
    running = list(itertools.accumulate(t.cuts_added for t in r1.rounds))
    assert len(r1.rounds) == 3 and [t.cuts_total for t in r1.rounds] == running


def test_loop_bounds_are_monotone_and_certified():
    inst = BisectionInstance(gen_gnp(12, 0.5, 4), 7, 5)
    rep = cutting_plane_loop(inst, LoopConfig(max_rounds=6))
    safes = [t.safe_bound for t in rep.rounds]
    for a, b in zip(safes, safes[1:]):
        assert b >= a - 2e-7 * (1 + abs(a))
    assert rep.certified_lower_bound == pytest.approx(max(safes), abs=1e-12)
    from conftest import enumerate_min_cut

    opt, _ = enumerate_min_cut(inst)
    assert rep.certified_lower_bound <= opt + 1e-7
    assert rep.ceiled_lower_bound <= opt


def test_loop_respects_round_and_cut_budgets():
    inst = BisectionInstance(gen_gnp(10, 0.6, 14), 6, 4)
    cfg = LoopConfig(max_rounds=2, cuts_per_round=7)
    rep = cutting_plane_loop(inst, cfg)
    assert len(rep.rounds) <= 3
    assert all(t.cuts_added <= 7 for t in rep.rounds)


def test_each_round_starts_from_the_rows_appended_before_it(monkeypatch):
    inst = BisectionInstance(gen_gnp(19, 0.5, 2), 10, 9)
    solve, ipm = bisectsdp.cuts.solve, bisectsdp.solver._ipm
    passes = []  # per solve: the problem's inequality count, each pass's working set

    def recording_solve(p, *args, **kwargs):
        passes.append((p.num_ineq, []))
        return solve(p, *args, **kwargs)

    def recording_ipm(data, cfg, start=None):
        passes[-1][1].append(data.ineq_idx.copy())
        return ipm(data, cfg, start)

    monkeypatch.setattr(bisectsdp.cuts, "solve", recording_solve)
    monkeypatch.setattr(bisectsdp.solver, "_ipm", recording_ipm)
    rep = cutting_plane_loop(inst, LoopConfig(max_rounds=2))
    base = passes[0][0]
    assert base > 700
    assert len(passes) == len(rep.rounds) == 3
    assert len(passes[0][1][0]) == 0
    for (rows, sets), trace in zip(passes[1:], rep.rounds[1:]):
        assert rows == base + trace.cuts_total
        assert np.isin(np.arange(base, rows), sets[0]).all()


@pytest.mark.parametrize("stall_tol", [-1e-5, np.nan, np.inf])
def test_loop_config_rejects_a_bad_stall_tol(stall_tol):
    with pytest.raises(ValueError, match="stall_tol must be finite and nonnegative"):
        LoopConfig(stall_tol=stall_tol)


def test_each_round_after_the_first_starts_from_the_last_solution(monkeypatch):
    # desargues runs the reduced model, whose round 1 leaves no cut type
    # violated; the random graph runs the full model through three rounds
    for spec, m, rounds in (("desargues", (15, 5), 2), ("gnp:10,0.5,8", (6, 4), 3)):
        inst = BisectionInstance(generate(spec), *m)
        solve, starts, sols = bisectsdp.cuts.solve, [], []

        def recording_solve(p, *args, start=None, **kwargs):
            starts.append(start)
            sols.append(solve(p, *args, start=start, **kwargs))
            return sols[-1]

        monkeypatch.setattr(bisectsdp.cuts, "solve", recording_solve)
        rep = cutting_plane_loop(inst, LoopConfig(max_rounds=2))
        monkeypatch.undo()
        assert len(rep.rounds) == rounds
        assert starts[0] is None and all(a is b for a, b in zip(starts[1:], sols))
        assert all(t.iterations == s.iterations > 0 for t, s in zip(rep.rounds, sols))


def test_every_warm_pass_ends_optimal(monkeypatch):
    # round 2 of this loop starts next to its optimum (the bound is already
    # 3, the optimum); its warm-started first pass collapsed its step while
    # a solve's matrix was moved onto its kept equalities on a face only
    inst = BisectionInstance(gen_gnp(9, 0.3, 903), 5, 4)
    ipm, passes = bisectsdp.solver._ipm, []  # (warm, status) per pass

    def recording_ipm(data, cfg, start=None):
        sol = ipm(data, cfg, start)
        passes.append((start is not None, sol.status))
        return sol

    monkeypatch.setattr(bisectsdp.solver, "_ipm", recording_ipm)
    rep = cutting_plane_loop(inst, LoopConfig())
    assert all(status is SolverStatus.OPTIMAL for warm, status in passes if warm)
    assert rep.ceiled_lower_bound == 3
    assert all(t.solver_status == "optimal" for t in rep.rounds)


def test_loop_desargues_reproduces_published_row():
    inst = BisectionInstance(generate("desargues"), 15, 5, name="desargues")
    rep = cutting_plane_loop(inst, LoopConfig())
    assert np.ceil(rep.rounds[0].safe_bound - 1e-6) == 5
    assert rep.ceiled_lower_bound == 6


def test_loop_on_fractional_weights_skips_ceiling():
    g = Graph.from_edges(
        6,
        [(0, 1, 0.5), (0, 2, 1.25), (1, 3, 2.0), (2, 4, 0.75), (3, 5, 1.5), (4, 5, 0.5), (1, 2, 1.0)],
    )
    inst = BisectionInstance(g, 4, 2, name="weighted6")
    rep = cutting_plane_loop(inst, LoopConfig(max_rounds=4))
    assert rep.ceiled_lower_bound is None
    assert not rep.integral_weights
    from bisectsdp.heuristic import brute_force

    _, opt = brute_force(inst)
    assert rep.certified_lower_bound <= opt + 1e-7
    assert rep.certified_lower_bound == pytest.approx(2.25, abs=1e-5)
