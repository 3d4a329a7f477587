"""The coherent closure, the model reduced on it and the cut types."""

import time
import tracemalloc

import numpy as np
import pytest

from bisectsdp import (
    BisectionInstance,
    Cut,
    Graph,
    LoopConfig,
    append_cuts,
    brute_force,
    build_new,
    cutting_plane_loop,
    gen_gnp,
    gen_johnson,
    gen_lcf,
    generate,
    safe_lower_bound,
    separate,
    solve,
)
from bisectsdp.algebra import coherent_closure, reduce_problem, symmetric_cells
from bisectsdp.graphs import adjacency

NAMED = [("pappus", 10, 8), ("desargues", 15, 5), ("johnson:7,2", 11, 10), ("biggs-smith", 70, 32)]


def cell_count(cells):
    return len(np.unique(symmetric_cells(cells)))


def dense(r, c, v, n):
    """The symmetric matrix of upper-triangle entries (r, c, v)."""
    K = np.zeros((n, n))
    np.add.at(K, (np.asarray(r), np.asarray(c)), v)
    return K + np.triu(K, 1).T


@pytest.mark.parametrize("spec,cells", [("pappus", 5), ("desargues", 6), ("johnson:7,2", 3), ("biggs-smith", 8)])
def test_closure_of_the_named_graphs(spec, cells):
    W = adjacency(generate(spec))
    closure = coherent_closure(W)
    assert cell_count(closure) == cells
    # each cell lies on or off the diagonal and holds one weight
    for a in range(closure.max() + 1):
        on = closure == a
        assert not np.diag(on).any() or np.diag(on).sum() == on.sum()
        assert len(np.unique(W[on])) == 1
    # the cells are coherent: every product of two cell matrices is constant on every cell
    A = [(closure == a).astype(float) for a in range(closure.max() + 1)]
    for Aa in A:
        for Ab in A:
            P = Aa @ Ab
            assert all(np.ptp(P[closure == c]) == 0 for c in range(len(A)))


@pytest.mark.parametrize("spec", ["gnp:20,0.3,1", "gnp:20,0.3,2", "gnp:20,0.3,3", "gnp:60,0.2,1"])
def test_random_graphs_have_no_closure_to_reduce_on(spec):
    assert coherent_closure(adjacency(generate(spec))) is None


def test_a_closure_over_the_cap_falls_back_quickly_and_small():
    # vertex 0 in its own colour splits biggs-smith's 8 cells into hundreds
    W = adjacency(generate("biggs-smith"))
    W[0, 0] = 1.0
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        closure = coherent_closure(W)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert closure is None or cell_count(closure) > 8
    assert elapsed < 2.0
    # one (cells, n, n) array at 100 cells would take 8 MB, a (cells^2, n, n) one 800 MB
    assert peak < 32e6


def test_each_type_row_is_the_sum_of_its_members():
    inst = BisectionInstance(generate("pappus"), 10, 8)
    n = inst.n
    closure = coherent_closure(adjacency(inst.graph))
    p = reduce_problem(build_new(inst), closure)
    X = solve(p).primal
    types = separate(X, limit=None, eps=-np.inf, cells=closure)
    assert {t.kind for t in types} == {"tri-a", "tri-b"}
    assert sum(len(t.members) for t in types) == n * (n - 1) * (n - 2) // 2 + n * (n - 1) * (n - 2) // 6
    base = p.num_ineq
    assert append_cuts(p, types) == len(types)
    sym = symmetric_cells(closure)
    for at, t in enumerate(types):
        members = [Cut(t.kind, *map(int, m)) for m in t.members]
        want = sum(dense(*c.entries(), n) for c in members)
        assert np.array_equal(dense(*t.entries(), n), want)
        _, r, c, v = p.rows([p.num_eq + base + at])
        assert np.array_equal(dense(r, c, v, n), want)
        assert t.rhs() == sum(c.rhs() for c in members)
        assert t.violation == pytest.approx(np.mean([c.evaluate(X) for c in members]), abs=1e-12)
        # the sum lies in the closure's algebra: it is constant on each cell
        assert all(np.ptp(want[sym == s]) == 0 for s in np.unique(sym))


@pytest.mark.parametrize("spec,m1,m2", NAMED)
def test_reduced_round0_matches_the_full_model(spec, m1, m2):
    inst = BisectionInstance(generate(spec), m1, m2)
    p = build_new(inst)
    full = safe_lower_bound(p, solve(p)).value
    rep = cutting_plane_loop(inst, LoopConfig(max_rounds=0))
    assert rep.closure_cells is not None
    assert rep.rounds[0].solver_status == "optimal"
    assert rep.rounds[0].safe_bound == pytest.approx(full, abs=1e-6)


def symmetric_battery():
    graphs = [
        ("cube", gen_lcf([3, -3], 4)),
        ("heawood", gen_lcf([5, -5], 7)),
        ("moebius-kantor", gen_lcf([5, -5], 8)),
        ("J(5,2)", gen_johnson(5, 2)),
        ("J(6,2)", gen_johnson(6, 2)),
        ("J(6,3)", gen_johnson(6, 3)),
    ]
    return [
        BisectionInstance(g, g.n - m2, m2, name=f"{name}@{m2}")
        for name, g in graphs
        for m2 in range(1, g.n // 2 + 1)
    ]


def test_no_reduced_ceiling_exceeds_the_optimum_on_symmetric_graphs():
    battery = symmetric_battery()
    assert len(battery) == 41
    exact = 0
    for inst in battery:
        rep = cutting_plane_loop(inst, LoopConfig())
        _, opt = brute_force(inst)
        assert rep.closure_cells is not None, inst.name
        assert rep.ceiled_lower_bound <= opt, inst.name
        exact += rep.ceiled_lower_bound == opt
    print(f"\n{exact} of {len(battery)} reduced ceilings equal the optimum")


def test_fractional_weights_stay_colours_of_the_closure():
    # an irregular weighted graph has a discrete closure and runs the full model
    g = Graph.from_edges(
        6,
        [(0, 1, 0.5), (0, 2, 1.25), (1, 3, 2.0), (2, 4, 0.75), (3, 5, 1.5), (4, 5, 0.5), (1, 2, 1.0)],
    )
    assert coherent_closure(adjacency(g)) is None
    # a 6-cycle whose weights alternate reduces, with each weight on cells of its own
    g = Graph.from_edges(6, [(i, (i + 1) % 6, 0.5 if i % 2 else 1.5) for i in range(6)])
    W = adjacency(g)
    closure = coherent_closure(W)
    assert closure is not None
    for a in range(closure.max() + 1):
        assert len(np.unique(W[closure == a])) == 1
    inst = BisectionInstance(g, 3, 3)
    rep = cutting_plane_loop(inst, LoopConfig())
    p = build_new(inst)
    assert rep.closure_cells is not None
    assert rep.rounds[0].safe_bound == pytest.approx(safe_lower_bound(p, solve(p)).value, abs=1e-6)
    assert rep.certified_lower_bound <= brute_force(inst)[1] + 1e-7


def test_small_and_edgeless_graphs_reduce():
    for inst in (
        BisectionInstance(Graph(2, ()), 1, 1),
        BisectionInstance(Graph.from_edges(2, [(0, 1)]), 1, 1),
        BisectionInstance(Graph(5, ()), 3, 2),
        BisectionInstance(gen_gnp(5, 1.0, 0), 3, 2),
    ):
        rep = cutting_plane_loop(inst, LoopConfig())
        assert rep.closure_cells is not None
        assert rep.ceiled_lower_bound == brute_force(inst)[1]
