import numpy as np
import pytest

from bisectsdp import (
    BisectionInstance,
    Graph,
    TabuConfig,
    brute_force,
    cut_value,
    gen_gnp,
    generate,
    tabu_search,
)
from bisectsdp.graphs import adjacency
from bisectsdp.heuristic import _gains, _swap
from conftest import enumerate_min_cut


def test_brute_force_trivial_cases():
    edge = BisectionInstance(Graph.from_edges(2, [(0, 1)]), 1, 1)
    _, c = brute_force(edge)
    assert c == 1.0
    k4 = BisectionInstance(
        Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]), 3, 1
    )
    _, c = brute_force(k4)
    assert c == 3.0


def test_brute_force_star(star31):
    a, c = brute_force(star31)
    assert c == 1.0
    assert 0 in a.part1_set()  # center stays with the big part


def test_brute_force_matches_independent_oracle():
    rng = np.random.default_rng(17)
    for _ in range(5):
        n = int(rng.integers(5, 11))
        m1 = int(rng.integers(n // 2 + 1, n))
        inst = BisectionInstance(gen_gnp(n, 0.5, int(rng.integers(10**6))), m1, n - m1)
        opt, subset = enumerate_min_cut(inst)
        a, c = brute_force(inst)
        assert c == opt
        assert tuple(sorted(a.part1_set())) == subset  # lexicographic tie-break


def test_brute_force_guard():
    inst = BisectionInstance(gen_gnp(25, 0.2, 1), 13, 12)
    with pytest.raises(ValueError, match="n <= 24"):
        brute_force(inst)


def test_brute_force_returns_feasible_assignment(gnp8):
    a, c = brute_force(gnp8)
    assert a.size(1) == gnp8.m1 and a.size(2) == gnp8.m2
    assert cut_value(gnp8.graph, a) == c


def test_swap_matches_recomputation():
    from bisectsdp.graphs import Assignment

    rng = np.random.default_rng(23)
    g = gen_gnp(12, 0.5, 77)
    W = adjacency(g)
    side = np.zeros(12, dtype=bool)
    side[rng.choice(12, size=7, replace=False)] = True
    D = _gains(W, side)
    for _ in range(30):
        a = int(rng.choice(np.flatnonzero(side)))
        b = int(rng.choice(np.flatnonzero(~side)))
        cut_before = cut_value(g, Assignment.from_part1(12, np.flatnonzero(side)))
        delta = _swap(W, side, D, a, b)
        assert not side[a] and side[b]
        cut_after = cut_value(g, Assignment.from_part1(12, np.flatnonzero(side)))
        assert cut_after - cut_before == pytest.approx(delta, abs=1e-9)
        # the incremental gains equal the recomputed ones exactly on unit weights
        assert np.array_equal(D, _gains(W, side))


def test_tabu_matches_optimum_on_star(star31):
    a, c = tabu_search(star31, TabuConfig(seed=5, restarts=3))
    assert c == 1.0
    assert cut_value(star31.graph, a) == c


@pytest.mark.parametrize("cfg", [dict(restarts=0), dict(max_iters=0)])
def test_tabu_rejects_nonpositive_settings(gnp8, cfg):
    with pytest.raises(ValueError, match="positive"):
        tabu_search(gnp8, TabuConfig(**cfg))


def test_tabu_deterministic(gnp8):
    cfg = TabuConfig(seed=42, restarts=3)
    a1, c1 = tabu_search(gnp8, cfg)
    a2, c2 = tabu_search(gnp8, cfg)
    assert c1 == c2
    assert a1.part1_set() == a2.part1_set()


def test_tabu_respects_part_sizes():
    inst = BisectionInstance(gen_gnp(13, 0.4, 3), 9, 4)
    a, c = tabu_search(inst, TabuConfig(seed=0, restarts=2, max_iters=500))
    assert a.size(1) == 9 and a.size(2) == 4
    assert cut_value(inst.graph, a) == c


def test_tabu_upper_bounds_brute_force_and_usually_matches():
    rng = np.random.default_rng(31)
    hits = 0
    trials = 12
    for _ in range(trials):
        n = int(rng.integers(8, 15))
        m1 = int(rng.integers(n // 2 + 1, n - 1))
        inst = BisectionInstance(gen_gnp(n, 0.4, int(rng.integers(10**6))), m1, n - m1)
        _, opt = brute_force(inst)
        _, ub = tabu_search(inst, TabuConfig(seed=7))
        assert ub >= opt - 1e-9
        hits += ub == opt
    assert hits >= 0.95 * trials


def test_tabu_reaches_published_upper_bounds():
    targets = [("pappus", 10, 8, 8), ("desargues", 15, 5, 7), ("johnson:7,2", 11, 10, 40)]
    for spec, m1, m2, ub in targets:
        inst = BisectionInstance(generate(spec), m1, m2, name=spec)
        _, c = tabu_search(inst, TabuConfig(seed=0))
        assert c <= ub
