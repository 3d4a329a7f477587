"""The coherent closure of a weighted graph and the order-n model reduced on it.

The closure is the coarsest partition of the vertex pairs (its cells) that
separates the diagonal, separates pairs of unequal weight, and is stable
under the 2-dimensional Weisfeiler-Leman refinement: two pairs in one cell
see, for every pair of cells (a, b), the same number of vertices k with
(i, k) in a and (k, j) in b. The 0/1 matrices of the cells then span a
matrix algebra that holds I, J, the adjacency and the Laplacian, and whose
averaging map (a matrix's mean over each cell) is its trace-preserving
conditional expectation (de Klerk, Pasechnik and Schrijver, Math. Prog.
109, 2007).

``reduce_problem`` merges the rows of an order-n model whose averages are
equal into one row, their sum. A sum of valid rows is valid, so the
reduced model is a relaxation of the full one whatever the partition is;
on a closure it also has the full model's optimum, because averaging a
feasible matrix keeps it feasible. Its trace row is its own sum, so the
safe bound certifies the reduced model as it stands.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .model import ConicProblem, upper_entries

__all__ = ["coherent_closure", "symmetric_cells", "reduce_problem"]

# a closure with more cells than this many per vertex is not worth reducing on
_CELLS_PER_VERTEX = 4


def coherent_closure(W: np.ndarray) -> np.ndarray | None:
    """Cell index of every ordered pair (i, j) of the coherent closure of W.

    The first colours are the distinct values of W on the diagonal and,
    apart from them, off it (for an adjacency matrix: the diagonal, each
    edge weight and the non-edges). Each round refines every pair's colour
    by the multiset of colour pairs on its paths of length two, through one
    product per colour with integer weights drawn from a fixed seed; the
    sums stay below 2**53, so they are exact. Two pairs with different
    multisets get equal sums only by a coincidence of the weights, which
    merges cells and can only weaken a model reduced on them, never make it
    invalid (see ``reduce_problem``).

    Returns None once the cells number more than 4n, and for a discrete
    closure (every symmetric cell a single pair), which has nothing to
    reduce. Cells are numbered 0.. in the order of their first pair in
    row-major order.
    """
    W = np.asarray(W, dtype=float)
    n = W.shape[0]
    cap = _CELLS_PER_VERTEX * n
    rng = np.random.default_rng(0)
    diagonal = np.broadcast_to(np.eye(n), W.shape).ravel()
    colour, count = _renumber(np.column_stack([diagonal, W.ravel()]))
    while count <= cap:
        # paths[i, j] sums weight[a, b] over the k with (i, k) in a and (k, j) in b
        weight = rng.integers(1, 2**53 // n, size=(count, count)).astype(float)
        cells = colour.reshape(n, n)
        paths = np.zeros((n, n))
        for a in range(count):
            paths += (cells == a).astype(float) @ weight[a, cells]
        colour, refined = _renumber(np.column_stack([colour, paths.ravel()]))
        if refined == count:
            discrete = len(np.unique(symmetric_cells(cells))) == n * (n + 1) // 2
            return None if discrete else cells
        count = refined
    return None


def _renumber(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Colour of each row of ``keys`` (equal rows, equal colours), numbered
    in the order of first appearance, and the number of colours."""
    order = np.lexsort(keys.T[::-1])
    step = np.any(np.diff(keys[order], axis=0) != 0, axis=1)
    starts = np.flatnonzero(np.concatenate(([True], step)))
    # a stable sort puts each key's first row at the start of its run
    rank = np.empty(len(starts), dtype=np.intp)
    rank[np.argsort(order[starts])] = np.arange(len(starts))
    colour = np.empty(len(order), dtype=np.intp)
    colour[order] = rank[np.cumsum(np.concatenate(([0], step)))]
    return colour, len(starts)


def symmetric_cells(cells: np.ndarray) -> np.ndarray:
    """Cell index of each pair with a cell and its transpose merged: the
    smaller of the two indices, the same for (i, j) and (j, i)."""
    return np.minimum(cells, cells.T)


def reduce_problem(p: ConicProblem, cells: np.ndarray) -> ConicProblem:
    """The problem with every class of rows replaced by the sum of its rows.

    Two rows of one sense fall in one class when they have equal inner
    products with every symmetric cell matrix (equal averages over every
    cell) and equal right-hand sides. Classes keep the order of their first
    row, and a class takes the first row's label, with ``*k`` appended when
    it sums k > 1 rows. The objective, kind and trace constant are kept.
    """
    n = p.block_order
    _, sym = np.unique(symmetric_cells(cells), return_inverse=True)
    indicator = sp.csr_matrix((np.ones(n * n), (np.arange(n * n), sym.ravel())))
    A = p.operator()
    cell_sums = (A @ indicator).toarray()
    q = ConicProblem(
        block_order=n,
        obj_matrix=p.obj_matrix,
        obj_offset=p.obj_offset,
        kind=p.kind,
        trace_constant=p.trace_constant,
    )
    me = p.num_eq
    senses = (
        (q.add_equalities, slice(0, me), p.eq_rhs, p.eq_labels),
        (q.add_inequalities, slice(me, A.shape[0]), p.ineq_rhs, p.ineq_labels),
    )
    for add, rows, rhs, labels in senses:
        rhs = np.asarray(rhs, dtype=float)
        if not len(rhs):
            continue
        cls, _ = _renumber(np.column_stack([cell_sums[rows], rhs]))
        _, first, size = np.unique(cls, return_index=True, return_counts=True)
        members = sp.csr_matrix((np.ones(len(cls)), (cls, np.arange(len(cls)))))
        counts, r, c, v = upper_entries((members @ A[rows]).tocsr(), n)
        names = [labels[f] if k == 1 else f"{labels[f]}*{k}" for f, k in zip(first.tolist(), size.tolist())]
        add(r, c, v, members @ rhs, names, counts=counts)
    return q
