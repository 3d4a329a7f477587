"""Upper bounds: tabu search over swap moves, exact optimum by enumeration.

The tabu search keeps part sizes feasible by only exchanging one vertex of
each part. With D[v] the internal-minus-external weighted degree of v,
swapping a and b changes the cut by D[a] + D[b] + 2 w(a,b). After each swap
D and the cut are recomputed from the part-1 indicator with one product
W z. Recently moved vertices are tabu for a fixed tenure unless the move
improves the best cut seen (aspiration).

A restart ends when its budget of 2000 n moves is spent, or as soon as its
search state repeats exactly. The state is the part-1 indicator and each
vertex's remaining tenure; D and the cut are functions of the indicator.
The next move depends only on that state and on the run's and the global
best cut, and both bests are constant between improvements. So a repeated
state repeats its moves forever and never improves again, and running on
to the budget would return the same best cut and assignment. Repeats are
found by Brent's method: one checkpoint, dropped on every improvement and
retaken at distances 1, 2, 4, ... non-improving moves from the last one
(Brent, BIT 20, 1980). On the named graphs of the paper's table a restart
then makes at most about 310 moves, and on biggs-smith at most about 1,100.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graphs import Assignment, BisectionInstance, adjacency, cut_value

__all__ = ["TabuConfig", "tabu_search", "brute_force"]

_BRUTE_FORCE_MAX_N = 24
_BRUTE_CHUNK = 4096


@dataclass(frozen=True)
class TabuConfig:
    max_iters: int | None = None  # defaults to 2000 n
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"tabu seed must be non-negative, got {self.seed}")
        if self.restarts < 1:
            raise ValueError(f"tabu restarts must be positive, got {self.restarts}")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError(f"tabu max_iters must be positive, got {self.max_iters}")

    def resolve(self, n: int) -> tuple[int, int]:
        """Move budget and tabu tenure round(0.1 n) clamped to [5, 50]."""
        iters = self.max_iters if self.max_iters is not None else 2000 * n
        return iters, min(50, max(5, round(0.1 * n)))


def _gains(W: np.ndarray, total: np.ndarray, side: np.ndarray) -> tuple[np.ndarray, float]:
    """D[v] = internal minus external weighted degree of v, and the cut of
    ``side``; ``total`` holds the weighted degrees."""
    same = W @ side.astype(float)
    internal = np.where(side, same, total - same)
    return 2.0 * internal - total, float((total - same)[side].sum())


def tabu_search(inst: BisectionInstance, cfg: TabuConfig | None = None) -> tuple[Assignment, float]:
    """Best bisection found over seeded random restarts of tabu search.

    The reported value is ``cut_value`` of the returned set.
    """
    cfg = cfg or TabuConfig()
    n = inst.n
    m1 = inst.m1
    iters, tenure = cfg.resolve(n)
    W = adjacency(inst.graph)
    rng = np.random.default_rng(cfg.seed)

    best_side = None
    best_cut = np.inf
    for _ in range(cfg.restarts):
        part1 = rng.choice(n, size=m1, replace=False)
        side = np.zeros(n, dtype=bool)
        side[part1] = True
        side, cut = _tabu_run(W, side, iters, tenure, best_cut)
        if cut < best_cut - 1e-12:
            best_cut = cut
            best_side = side
    assignment = Assignment.from_part1(n, np.flatnonzero(best_side))
    return assignment, cut_value(inst.graph, assignment)


def _tabu_run(W, side, iters, tenure, global_best):
    n = len(side)
    total = W.sum(axis=1)
    side = side.copy()
    D, cut = _gains(W, total, side)
    tabu_until = np.zeros(n, dtype=int)
    best_side = side.copy()
    best_cut = cut
    # Brent checkpoint: (side, remaining tenures) taken ``lam`` moves ago;
    # ``power`` is the distance at which it is retaken
    seen = None
    power = lam = 1

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
            seen, power, lam = None, 1, 1
            continue
        # the state that fixes every later move (module docstring)
        state = (side, np.maximum(tabu_until - it, 0))
        if seen is not None and all(map(np.array_equal, state, seen)):
            break
        if lam == power:
            seen = tuple(x.copy() for x in state)
            power, lam = 2 * power, 0
        lam += 1
    return best_side, best_cut


def brute_force(inst: BisectionInstance) -> tuple[Assignment, float]:
    """Exact minimum bisection by enumerating all part-1 subsets.

    Guarded to n <= 24. Ties resolve to the lexicographically smallest
    part-1 vertex set because subsets are enumerated in that order.
    """
    n = inst.n
    if n > _BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force is limited to n <= {_BRUTE_FORCE_MAX_N}, got {n}")
    m1 = inst.m1
    edges = inst.graph.edges
    best_cut = np.inf
    best_subset = None
    combos = itertools.combinations(range(n), m1)
    while True:
        chunk = list(itertools.islice(combos, _BRUTE_CHUNK))
        if not chunk:
            break
        Z = np.zeros((len(chunk), n), dtype=bool)
        rows = np.repeat(np.arange(len(chunk)), m1)
        Z[rows, np.array(chunk).ravel()] = True
        cuts = np.zeros(len(chunk))
        for i, j, w in edges:
            cuts += w * (Z[:, i] != Z[:, j])
        t = int(np.argmin(cuts))
        if cuts[t] < best_cut - 1e-12:
            best_cut = float(cuts[t])
            best_subset = chunk[t]
    assignment = Assignment.from_part1(n, best_subset)
    return assignment, float(best_cut)
