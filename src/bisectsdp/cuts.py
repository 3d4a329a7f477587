"""Triangle-inequality cuts for the order-n relaxation and the cutting-plane loop.

Two facet families strengthen the order-n relaxation, both written on the
matrix entries with x = diag(X):

    tri-a(i,j,k):  X_ik + X_jk <= X_kk + X_ij          (i < j, k distinct)
    tri-b(i,j,k):  x_i + x_j + x_k <= X_ij + X_ik + X_jk + 1   (i < j < k)

Separation enumerates every triple exactly (O(n^3) is trivial at the sizes
this package targets) and returns the most violated cuts in a deterministic
order. The loop re-solves after each batch and certifies every round with
the safe dual bound, so the reported value never depends on the solver
having converged.

On a graph with a coherent closure (see ``algebra``) the loop solves the
reduced model and separates cuts by type: a ``CutType`` is every cut of one
kind whose pairs lie in the same cells, up to the cut's own symmetry, and
its row is the sum of its members' rows, which lies in the closure's
algebra.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .algebra import coherent_closure, reduce_problem, symmetric_cells
from .graphs import BisectionInstance, adjacency
from .model import ConicProblem, RelaxationKind, build_new
from .report import BoundReport, RoundTrace, ceil_bound
from .solver import SolverConfig, safe_lower_bound, solve

__all__ = ["Cut", "CutType", "LoopConfig", "triangles", "separate", "append_cuts", "cutting_plane_loop"]

TRI_A = "tri-a"
TRI_B = "tri-b"

# per kind, the entries of a cut on (i, j, k): positions in the triple and values
_TERMS = {
    # X_ik + X_jk - X_kk - X_ij
    TRI_A: (((0, 2), (1, 2), (2, 2), (0, 1)), (0.5, 0.5, -1.0, -0.5)),
    # x_i + x_j + x_k - X_ij - X_ik - X_jk
    TRI_B: (((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)), (1.0, 1.0, 1.0, -0.5, -0.5, -0.5)),
}
# per kind, the orders of (i, j, k) that give the same cut
_SYMMETRY = {
    TRI_A: ((0, 1, 2), (1, 0, 2)),
    TRI_B: ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)),
}


def _entries(kind: str, triples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle entries (r, c, v) of the cuts of one kind on the rows
    (i, j, k) of ``triples``, one row of entries per triple."""
    pos, v = _TERMS[kind]
    a, b = (triples[:, list(t)] for t in zip(*pos))
    return np.minimum(a, b), np.maximum(a, b), np.broadcast_to(v, a.shape)


@dataclass(frozen=True)
class Cut:
    kind: str
    i: int
    j: int
    k: int
    violation: float = 0.0

    def __post_init__(self):
        if self.kind not in (TRI_A, TRI_B):
            raise ValueError(f"unknown cut kind {self.kind!r}; expected {TRI_A!r} or {TRI_B!r}")
        if len({self.i, self.j, self.k}) < 3:
            raise ValueError(f"cut indices {self.key()} are not distinct")

    def key(self) -> tuple:
        return (self.kind, self.i, self.j, self.k)

    def label(self) -> str:
        return f"bqp-cut({self.kind},{self.i},{self.j},{self.k})"

    def entries(self) -> tuple[list[int], list[int], list[float]]:
        """Upper-triangle entries (r, c, v) of the cut row: 4 for tri-a, 6 for tri-b."""
        r, c, v = _entries(self.kind, np.array([[self.i, self.j, self.k]]))
        return r[0].tolist(), c[0].tolist(), v[0].tolist()

    def rhs(self) -> float:
        return 0.0 if self.kind == TRI_A else 1.0

    def evaluate(self, X: np.ndarray) -> float:
        """Violation at X (positive means violated)."""
        i, j, k = self.i, self.j, self.k
        if self.kind == TRI_A:
            return float(X[i, k] + X[j, k] - X[k, k] - X[i, j])
        return float(
            X[i, i] + X[j, j] + X[k, k] - X[i, j] - X[i, k] - X[j, k] - 1.0
        )


@dataclass(frozen=True, eq=False)
class CutType:
    """The cuts of one kind whose pairs lie in the same cells, as one row.

    ``cells`` is the smallest (c(i,j), c(i,k), c(j,k)) over the orders of
    (i, j, k) that give the same cut, where c is the closure's cell index.
    ``members`` holds each member's (i, j, k) in the order a ``Cut`` takes,
    and ``violation`` is the mean of their violations. The row is the sum
    of the members' rows.
    """

    kind: str
    cells: tuple[int, int, int]
    members: np.ndarray
    violation: float = 0.0

    def label(self) -> str:
        return f"bqp-type({self.kind},{','.join(map(str, self.cells))})"

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Upper-triangle entries (r, c, v) of the sum of the members' rows."""
        r, c, v = (a.ravel() for a in _entries(self.kind, self.members))
        size = int(c.max()) + 1
        flat, at = np.unique(r * size + c, return_inverse=True)
        r, c = np.divmod(flat, size)
        return r, c, np.bincount(at.ravel(), weights=v)

    def rhs(self) -> float:
        return float(len(self.members)) * (0.0 if self.kind == TRI_A else 1.0)


def triangles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the tri-a and tri-b triples over the (i, j, k) grid of order n.

    tri-a takes i < j with k distinct from both, tri-b takes i < j < k.
    ``np.nonzero`` of either lists its triples in lexicographic order.
    """
    i, j, k = np.ogrid[:n, :n, :n]
    pair = i < j
    return pair & (k != i) & (k != j), pair & (j < k)


def separate(
    X: np.ndarray, limit: int | None, eps: float = 1e-6, cells: np.ndarray | None = None
) -> list[Cut] | list[CutType]:
    """All triangle cuts violated at X by more than eps, strongest first.

    Ordering is violation descending, then (kind, i, j, k) lexicographic,
    which makes the cutting-plane loop deterministic. ``limit=None`` returns
    every violated cut; a negative limit is a ValueError.

    With the cell index ``cells`` of a coherent closure, it returns the cut
    types whose mean violation exceeds eps instead, ordered by mean
    violation descending, then (kind, cells).
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be None or nonnegative, got {limit}")
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    d = np.diag(X).copy()

    va = X[:, None, :] + X[None, :, :] - d[None, None, :] - X[:, :, None]
    vb = (
        d[:, None, None]
        + d[None, :, None]
        + d[None, None, :]
        - X[:, :, None]
        - X[:, None, :]
        - X[None, :, :]
        - 1.0
    )
    if cells is not None:
        return _separate_types(cells, triangles(n), (va, vb), limit, eps)
    hit_a, hit_b = (np.nonzero(mask & (v > eps)) for mask, v in zip(triangles(n), (va, vb)))
    kind = np.repeat([0, 1], [len(hit_a[0]), len(hit_b[0])])
    i_all, j_all, k_all = map(np.concatenate, zip(hit_a, hit_b))
    viol = np.concatenate([va[hit_a], vb[hit_b]])
    order = np.lexsort((k_all, j_all, i_all, kind, -viol))[:limit]
    names = (TRI_A, TRI_B)
    return [
        Cut(names[kind[t]], int(i_all[t]), int(j_all[t]), int(k_all[t]), float(viol[t]))
        for t in order
    ]


def _separate_types(cells, masks, violations, limit, eps) -> list[CutType]:
    """The cut types of ``separate`` with a closure's cell index."""
    n, count = len(cells), int(cells.max()) + 1
    grid = np.ogrid[:n, :n, :n]
    found = []
    for kind, mask, v in zip((TRI_A, TRI_B), masks, violations):
        # each triple's type: the least code of its cells over the cut's symmetry
        code = functools.reduce(np.minimum, (
            (cells[grid[a], grid[b]] * count + cells[grid[a], grid[c]]) * count + cells[grid[b], grid[c]]
            for a, b, c in _SYMMETRY[kind]
        ))
        types, at, size = np.unique(code[mask], return_inverse=True, return_counts=True)
        mean = np.bincount(at, weights=v[mask]) / size
        for t in np.flatnonzero(mean > eps):
            a, rest = divmod(int(types[t]), count * count)
            members = np.argwhere(mask & (code == types[t]))
            found.append(CutType(kind, (a, *divmod(rest, count)), members, float(mean[t])))
    found.sort(key=lambda ct: (-ct.violation, ct.kind, ct.cells))
    return found[:limit]


def append_cuts(p: ConicProblem, cuts: list[Cut] | list[CutType]) -> int:
    """Append cut rows to an order-n relaxation in place, as one batch.

    Cuts (or cut types) whose row is already in the problem, or earlier in
    the list, are skipped: the problem's row labels are the only record of
    which cuts it holds. Returns the number of rows appended.
    """
    if p.kind not in (RelaxationKind.NEW, RelaxationKind.NEW_BARE):
        raise ValueError("cuts apply to the order-n relaxation only")
    n = p.block_order
    fresh: dict[str, Cut | CutType] = {}
    for c in cuts:
        if not p.has_label(c.label()):
            fresh.setdefault(c.label(), c)
    new = list(fresh.values())
    if new:
        rs, cs, vs = zip(*(c.entries() for c in new))
        for c, r, col in zip(new, rs, cs):
            if np.min(r) < 0 or np.max(col) >= n:
                raise IndexError(f"cut {c.label()} out of range for n={n}")
        rhs = [c.rhs() for c in new]
        p.add_inequalities(
            np.concatenate(rs), np.concatenate(cs), np.concatenate(vs), rhs, list(fresh),
            counts=list(map(len, vs)),
        )
    return len(new)


@dataclass
class LoopConfig:
    max_rounds: int = 20
    cuts_per_round: int | None = None  # defaults to 2n
    eps: float = 1e-6
    stall_tol: float = 1e-5
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.max_rounds < 0:
            raise ValueError(f"max_rounds must be nonnegative, got {self.max_rounds}")
        if self.cuts_per_round is not None and self.cuts_per_round < 0:
            raise ValueError(f"cuts_per_round must be nonnegative, got {self.cuts_per_round}")
        if not 0.0 <= self.eps < np.inf:
            raise ValueError(f"eps must be finite and nonnegative, got {self.eps}")
        if not 0.0 <= self.stall_tol < np.inf:
            raise ValueError(f"stall_tol must be finite and nonnegative, got {self.stall_tol}")


def cutting_plane_loop(
    inst: BisectionInstance,
    cfg: LoopConfig | None = None,
    *,
    upper_bound: float | None = None,
) -> BoundReport:
    """Strengthen the order-n relaxation with separated triangle cuts.

    Round 0 solves the relaxation with its elementwise families; each later
    round separates on the current primal matrix, appends those of the
    ``cuts_per_round`` most violated cuts that are not rows yet, and
    re-solves. Every solve sifts (see ``solve``): round 0 starts from no
    inequality rows, and each later round from the rows with a positive
    multiplier in the round before plus the rows just appended. Round 0's
    IPM starts cold, and each later round's from the round before's
    solution, in which the appended rows have multiplier 0. Stops when
    a round appends no row, the round budget is exhausted, the certified
    bound stalls for two consecutive rounds, or a round's solve is not
    usable (see ``ConicSolution.usable``). With integral weights and a
    known ``upper_bound`` (the value of some bisection), it also stops once
    the ceiled bound reaches that value, which proves it optimal. Each
    round records the rows appended before it and since round 0, and the
    IPM iterations of its solve. The certified bound is the max of the
    per-round safe bounds, so it is valid even if the last solve was poor.

    When the weighted adjacency has a coherent closure (see
    ``algebra.coherent_closure``), the loop solves the model reduced on it
    (``algebra.reduce_problem``) and separates cut types, at most
    ``cuts_per_round`` of them per round; the report records the closure's
    number of symmetric cells. Otherwise the model and the cuts are the
    full ones.
    """
    cfg = cfg or LoopConfig()
    n = inst.n
    per_round = cfg.cuts_per_round if cfg.cuts_per_round is not None else 2 * n
    cells = coherent_closure(adjacency(inst.graph))
    p = build_new(inst, with_nonneg=True)
    if cells is not None:
        p = reduce_problem(p, cells)

    report = BoundReport(
        instance=inst.name,
        n=n,
        m1=inst.m1,
        m2=inst.m2,
        relaxation="new+cuts" if cfg.max_rounds > 0 else "new",
        integral_weights=inst.graph.integral_weights,
        config={
            "max_rounds": cfg.max_rounds,
            "cuts_per_round": per_round,
            "eps": cfg.eps,
            "stall_tol": cfg.stall_tol,
            "solver_tol": cfg.solver.tol,
        },
        closure_cells=None if cells is None else len(np.unique(symmetric_cells(cells))),
    )
    t_start = time.perf_counter()
    certified = -np.inf
    stalled_rounds = 0
    added = total = 0
    active_hint = np.empty(0, dtype=int)
    sol = None

    for rnd in range(cfg.max_rounds + 1):
        t0 = time.perf_counter()
        sol = solve(p, cfg.solver, ineq_hint=active_hint, start=sol)
        # rows with nonzero multipliers, plus the cuts appended below, seed
        # the next round's working set
        active_hint = np.flatnonzero(sol.dual_ineq > 1e-12)
        sb = safe_lower_bound(p, sol)
        report.rounds.append(
            RoundTrace(
                round=rnd,
                cuts_added=added,
                cuts_total=total,
                raw_bound=sol.objective_primal,
                safe_bound=sb.value,
                solver_status=sol.status.value,
                wall_time=time.perf_counter() - t0,
                iterations=sol.iterations,
            )
        )
        improvement = sb.value - certified
        certified = max(certified, sb.value)
        ceiling = ceil_bound(certified, inst.graph.integral_weights)
        proven = upper_bound is not None and ceiling is not None and ceiling >= upper_bound
        if not sol.usable() or rnd == cfg.max_rounds or proven:
            break
        if rnd > 0 and improvement < cfg.stall_tol * (1.0 + abs(certified)):
            stalled_rounds += 1
            if stalled_rounds >= 2:
                break
        else:
            stalled_rounds = 0
        added = append_cuts(p, separate(sol.primal, limit=per_round, eps=cfg.eps, cells=cells))
        if not added:
            break
        total += added
        active_hint = np.concatenate([active_hint, np.arange(p.num_ineq - added, p.num_ineq)])

    report.certified_lower_bound = float(certified)
    report.ceiled_lower_bound = ceiling
    report.values["new"] = report.rounds[0].safe_bound
    report.values["new_cuts"] = float(certified)
    report.total_wall_time = time.perf_counter() - t_start
    return report
