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
from bisectsdp.graphs import Assignment, adjacency
from bisectsdp.heuristic import _gains, _tabu_run
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


@pytest.mark.parametrize("fractional", [False, True], ids=["unit", "3-decimal"])
def test_gains_and_cut_match_cut_value(fractional):
    """Along 30 random swaps, the cut from ``_gains`` is the cut of the set,
    and D[a] + D[b] + 2 w(a,b) is the cut change of swapping any a in part 1
    with any b in part 2; exactly so on unit weights."""
    rng = np.random.default_rng(23)
    g = _graph(12, 0.5, 77, fractional)
    W = adjacency(g)
    total = W.sum(axis=1)
    side = np.zeros(12, dtype=bool)
    side[rng.choice(12, size=7, replace=False)] = True

    def cut_of(s):
        return cut_value(g, Assignment.from_part1(12, np.flatnonzero(s)))

    tol = 1e-9 if fractional else 0.0
    for _ in range(30):
        D, cut = _gains(W, total, side)
        before = cut_of(side)
        assert cut == pytest.approx(before, rel=0, abs=tol)
        for a in np.flatnonzero(side):
            for b in np.flatnonzero(~side):
                swapped = side.copy()
                swapped[[a, b]] = False, True
                delta = D[a] + D[b] + 2.0 * W[a, b]
                assert cut_of(swapped) - before == pytest.approx(delta, rel=0, abs=tol)
        a, b = rng.choice(np.flatnonzero(side)), rng.choice(np.flatnonzero(~side))
        side[[a, b]] = False, True


def test_tabu_matches_optimum_on_star(star31):
    a, c = tabu_search(star31, TabuConfig(seed=5, restarts=3))
    assert c == 1.0
    assert cut_value(star31.graph, a) == c


@pytest.mark.parametrize("cfg", [dict(restarts=0), dict(max_iters=0)])
def test_tabu_rejects_nonpositive_settings(cfg):
    # refused when the config is built, not when a search first reads it
    (field,) = cfg
    with pytest.raises(ValueError, match=f"tabu {field} must be positive, got 0"):
        TabuConfig(**cfg)


def test_tabu_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative, got -3"):
        TabuConfig(seed=-3)


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
    targets = [
        ("pappus", 10, 8, 8),
        ("desargues", 15, 5, 7),
        ("johnson:7,2", 11, 10, 40),
        ("biggs-smith", 70, 32, 20),
    ]
    for spec, m1, m2, ub in targets:
        inst = BisectionInstance(generate(spec), m1, m2, name=spec)
        _, c = tabu_search(inst, TabuConfig(seed=0))
        assert c <= ub


def _reference_tabu_run(W, side, iters, tenure, global_best):
    """The restart loop without the cycle exit: it ends only when its move
    budget runs out."""
    n = len(side)
    total = W.sum(axis=1)
    side = side.copy()
    D, cut = _gains(W, total, side)
    tabu_until = np.zeros(n, dtype=int)
    best_side = side.copy()
    best_cut = cut
    for it in range(1, iters + 1):
        idx1 = np.flatnonzero(side)
        idx2 = np.flatnonzero(~side)
        deltas = D[idx1][:, None] + D[idx2][None, :] + 2.0 * W[np.ix_(idx1, idx2)]
        free = (tabu_until[idx1] < it)[:, None] & (tabu_until[idx2] < it)[None, :]
        aspiring = cut + deltas < min(best_cut, global_best) - 1e-12
        allowed = free | aspiring
        if not allowed.any():
            allowed = np.ones_like(free)
        masked = np.where(allowed, deltas, np.inf)
        flat = int(np.argmin(masked))
        a = int(idx1[flat // len(idx2)])
        b = int(idx2[flat % len(idx2)])
        side[a], side[b] = False, True
        D, cut = _gains(W, total, side)
        tabu_until[a] = it + tenure
        tabu_until[b] = it + tenure
        if cut < best_cut - 1e-12:
            best_cut = cut
            best_side = side.copy()
    return best_side, best_cut


def _graph(n, p, seed, fractional):
    g = gen_gnp(n, p, seed)
    if not fractional:
        return g
    w = np.random.default_rng(seed).uniform(0.05, 2.0, size=len(g.edges)).round(3)
    return Graph.from_edges(n, [(i, j, float(x)) for (i, j, _), x in zip(g.edges, w)])


def _exactness_battery():
    """30 seeded G(n,p) instances, n = 5..16 and m2 = 1..n/2 (m2 = 1 reaches
    the all-tabu fallback), every other one with 3-decimal weights, then a
    case that stops early when the compared state leaves out the remaining
    tenures (cut 4 instead of 3) and a 3-decimal case with a longer budget."""
    rng = np.random.default_rng(1980)
    for k in range(30):
        n = int(rng.integers(5, 17))
        g = _graph(n, float(rng.choice([0.3, 0.5, 0.8])), int(rng.integers(10**6)), k % 2 == 1)
        m2 = 1 + k % (n // 2)
        yield BisectionInstance(g, n - m2, m2), TabuConfig(seed=k, restarts=3, max_iters=60 * n)
    yield BisectionInstance(_graph(20, 0.2, 942263, False), 17, 3), TabuConfig(60 * 20, 3, seed=5)
    yield BisectionInstance(_graph(15, 0.5, 60, True), 9, 6), TabuConfig(300 * 15, 3, seed=60)


def test_cycle_exit_returns_what_the_full_run_returns(monkeypatch):
    """A restart that ends on a repeated state returns the same cut and
    part-1 set as one that runs out its move budget.

    Both fields of the compared state are needed. ``side`` fixes the gains,
    the cut and so the candidate moves. The remaining tenures fix which of
    them are free: the same side can recur with other tenures and still
    lead on to a better cut.

    Each restart's own cut is compared too: ``tabu_search`` reports
    ``cut_value`` of its set, which hides a restart cut that differs from
    it by rounding.
    """
    restarts = {"exit": [], "full": []}

    def recording(run, log):
        def wrapped(*args):
            side, cut = run(*args)
            log.append((cut, side.tolist()))
            return side, cut

        return wrapped

    cases = list(_exactness_battery())
    monkeypatch.setattr("bisectsdp.heuristic._tabu_run", recording(_tabu_run, restarts["exit"]))
    got = [tabu_search(inst, cfg) for inst, cfg in cases]
    monkeypatch.setattr("bisectsdp.heuristic._tabu_run", recording(_reference_tabu_run, restarts["full"]))
    for k, ((inst, cfg), (a, c)) in enumerate(zip(cases, got)):
        ref_a, ref_c = tabu_search(inst, cfg)
        assert (c, a.part1_set()) == (ref_c, ref_a.part1_set()), k
        assert c == cut_value(inst.graph, a), k
    assert restarts["exit"] == restarts["full"]


def test_fractional_restart_ends_on_a_repeated_state(monkeypatch):
    """A restart on 3-decimal weights with a budget of 10^6 moves ends on a
    repeated state within a few thousand moves. Moves are counted as the
    move rule's ``argmin`` calls."""
    moves = 0
    argmin = np.argmin

    def counting(*args, **kwargs):
        nonlocal moves
        moves += 1
        if moves > 5000:
            pytest.fail("the restart made more than 5000 moves")
        return argmin(*args, **kwargs)

    W = adjacency(_graph(20, 0.5, 7, True))
    iters, tenure = TabuConfig(max_iters=10**6).resolve(20)
    side = np.zeros(20, dtype=bool)
    side[np.random.default_rng(0).choice(20, size=12, replace=False)] = True
    monkeypatch.setattr(np, "argmin", counting)
    _tabu_run(W, side, iters, tenure, np.inf)


def test_tabu_default_results_are_pinned():
    """The default search returns these part-1 sets at seeds 1-3, as it did
    when every restart ran out its patience."""
    pinned = {
        ("pappus", 10, 8): [
            [0, 1, 4, 5, 6, 11, 12, 15, 16, 17],
            [3, 4, 5, 6, 7, 9, 10, 11, 15, 16],
            [0, 1, 2, 8, 9, 11, 12, 13, 16, 17],
        ],
        ("desargues", 15, 5): [
            [2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 17, 18],
            [0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13, 16, 17, 19],
            [0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 13, 14, 18, 19],
        ],
        ("johnson:7,2", 11, 10): [
            [3, 5, 8, 10, 12, 14, 15, 17, 18, 19, 20],
            [0, 1, 2, 3, 4, 5, 8, 12, 15, 18, 19],
            [4, 5, 9, 10, 13, 14, 16, 17, 18, 19, 20],
        ],
    }
    for (spec, m1, m2), sets in pinned.items():
        inst = BisectionInstance(generate(spec), m1, m2, name=spec)
        for seed, part1 in enumerate(sets, start=1):
            a, c = tabu_search(inst, TabuConfig(seed=seed))
            assert sorted(a.part1_set()) == part1, (spec, seed)
            assert cut_value(inst.graph, a) == c
