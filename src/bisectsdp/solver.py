"""Primal-dual interior-point solver for the conic standard form.

A path-following method with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step, specialized to one dense PSD block plus scalar
inequalities handled through nonnegative slacks. Problems in this package
are small (block order <= 300) and dense, so all factorizations are dense;
the Schur complement has one row per constraint. Its build holds each row
as factor pairs, K = sum_p e_p a_p' + a_p e_p' over the row's pivots p, as
Fujisawa, Kojima and Nakata exploit sparse rows (Math. Prog. 79, 1997) and
DSDP low-rank ones (Benson, Ye and Zhang, SIAM J. Optim. 10, 2000): a
row-sum row is one pair, the all-ones row at most one per index. It
computes the products W K_j W one batch of rows with equal pair count at a
time, one stacked matrix product per batch, reads them only at the upper
positions that some row names, and contracts them with the rows' entries
there in one sparse product.

A problem with a face V (the vector-lifted relaxation, whose equalities
force every feasible matrix into range(V)) is solved on R with M = V R V^T,
where it has an interior. Every problem then goes through one presolve on
its rows' Gram matrix (A A^T, or the reduced rows' on a face). It drops
consistent rows with no entries, the equalities that a pivoted QR finds
dependent on the others (the trace row of the order-n model, most of the
lifted equalities on the face), and the inequalities that the kept
equalities fix to a constant. Dropped rows get multiplier 0, and a row
that contradicts the kept ones is a ValueError. With the equalities
independent, the Schur complement is positive definite at every iterate
in exact arithmetic.

Rows are scaled to unit norm, and a solve stops when its largest scaled
primal residual, its relative dual residual and its relative gap are all
within tolerance. On a face a row's norm is that of its reduced row, which
is at most its norm on the whole block. That stop test bounds each kept
row only relative to its unit-norm scaling, so a row with a large
right-hand side (the order-n model's j-trace row) or one the presolve
dropped as implied by the kept ones (the all-ones rows on a face) can miss
by about tol * n. Every solve therefore returns its matrix moved onto its
kept equalities by one least-squares step, R - sum_i c_i K_i with
(A A^T) c = A(R) - b over those rows (V^T K_i V and the reduced rows' Gram
on a face), and the objective of that matrix; the multipliers, and with
them the safe bound, are unchanged.

The iteration holds its iterate as one tuple (X, u, y, Z, q, tau, kappa):
the primal block and slacks, the equality multipliers, the dual block, the
inequality multipliers and the two scalars of the embedding below. Each
search direction is a tuple in the same order.

Degenerate models still need care: the order-n relaxation loses its
interior when the smaller part has size 1 (the pair inequalities are
forced tight on average). The homogeneous self-dual embedding keeps such
solves bounded, and these safety nets keep their Newton steps usable: the
factor of the Schur complement retries with an escalating diagonal shift,
each Schur solve takes one refinement pass and each direction up to two
against the full Newton system, a plain centred step replaces a corrected
step that overshoots the cone, and up to three centrality correctors
lengthen a short step. A Cholesky breakdown of X or Z ends the solve with
status NUMERICAL_TROUBLE, and a solve that runs out of iterations returns
its best iterate with status MAX_ITERS; the certified bound below never
trusts the solver's state.

Every solve is one sifting loop: it repeatedly solves with a working
subset of inequalities and activates any whose violation over its norm on
the whole block exceeds half the tolerance; a pass that ends short of
OPTIMAL with no such row activates every row. The first working set is the
caller's hint, if one is given (the cut loop passes one on every round, so
its solves carry only the rows that bind), and no rows otherwise, which
keeps the Schur complement small: the elementwise nonnegativity families
grow as O(n^2) and the triangle cuts as O(n^3), and few of them bind.
Multipliers of never-activated rows are zero, so the returned solution
satisfies the full problem's optimality contract.

Each pass after the first starts its iteration from the pass before it,
when that one ended OPTIMAL; the first pass starts from a caller's
solution of the same problem, if one is given (the cut loop passes each
round's solution to the next), and cold otherwise. A warm start is the
previous point moved 1% of the way back to the cold start, the warm start
of Skajaa, Andersen and Ye for the homogeneous embedding (Math. Prog.
Comp., 2013); a row without a multiplier in it, such as a cut appended
since, starts with slack and multiplier 0.01 or more.
SolverConfig.max_iters bounds the iterations of the whole solve, all its
passes together; a solve that spends them with rows still to activate ends
MAX_ITERS.

Each working set's data is an equilibrated row slice of the problem's
stacked operator; sifting and the safe bound apply that operator unscaled.

The iteration's small dense kernels call LAPACK directly: the Schur
complement's Cholesky factor and solves (potrf, potrs), the step length's
triangular solves and smallest eigenvalue (trtrs, syevr), the SVD of the
Nesterov-Todd scaling (gesdd), its inverse factor (trtrs) and the
centrality corrector's eigendecomposition (syevr). At the orders most
solves run at, scipy.linalg's checks and batch dispatch cost more than the
LAPACK work under them. Each kernel runs the routine that scipy.linalg
would run, with the same arguments and the same queried workspace, so
every solve is bit-identical to one through scipy.linalg, failures
included: a positive LAPACK info raises LinAlgError. The numpy.linalg
calls (the Cholesky factors of X and Z, the small solves and the norms)
stay as they are, since numpy links its own BLAS and LAPACK and moving
them would change their rounding. The certificate's smallest eigenvalue
and the presolve's QR run once per solve and stay on scipy.linalg, the
former with its finiteness check.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import get_lapack_funcs

from .model import ConicProblem, upper_entries

__all__ = [
    "SolverStatus",
    "SolverConfig",
    "ConicSolution",
    "SafeBound",
    "UnsupportedProblem",
    "solve",
    "safe_lower_bound",
    "min_eigenvalue",
]

_BLOCK_ORDER_CAP = 300
# fraction of the distance to the cone boundary taken by each step
_STEP_FRACTION = 0.98
# a warm start's weight on the previous solution; the rest goes to the cold
# start (identity blocks, unit slacks and multipliers)
_WARM_WEIGHT = 0.99
# a stopped solve whose residuals exceed this is too far from optimality for
# its bound to be worth iterating on
_USABLE_RESIDUAL_LIMIT = 1e-4


class SolverStatus(enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITERS = "max_iters"
    NUMERICAL_TROUBLE = "numerical_trouble"


class UnsupportedProblem(ValueError):
    """Problem lacks structure required by the requested operation."""


@dataclass
class SolverConfig:
    # bound on the scaled primal residual, the relative dual residual and
    # the relative gap alike
    tol: float = 1e-7
    max_iters: int = 500

    def __post_init__(self):
        if not (0.0 < self.tol <= 1e-2):
            raise ValueError(f"tol must lie in (0, 1e-2], got {self.tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass
class ConicSolution:
    status: SolverStatus
    primal: np.ndarray
    dual_eq: np.ndarray
    dual_ineq: np.ndarray
    objective_primal: float
    objective_dual: float
    residuals: tuple[float, float, float]
    iterations: int
    # no solve perturbs its data; always False, kept for callers that read it
    regularized: bool = False
    message: str = ""

    def usable(self) -> bool:
        """Optimal, or stopped with every residual at most 1e-4."""
        return self.status is SolverStatus.OPTIMAL or max(self.residuals) <= _USABLE_RESIDUAL_LIMIT


@dataclass(frozen=True)
class SafeBound:
    value: float
    dual_eq: np.ndarray
    dual_ineq: np.ndarray
    slack_min_eigenvalue: float


def min_eigenvalue(M: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix (dense, deterministic)."""
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    if M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    scale = np.abs(M).max()
    if scale > 0 and np.abs(M - M.T).max() > 1e-8 * scale:
        raise ValueError("matrix must be symmetric")
    sym = 0.5 * (M + M.T)
    return float(sla.eigvalsh(sym, subset_by_index=[0, 0])[0])


# ---------------------------------------------------------------------------
# problem data in solver form
# ---------------------------------------------------------------------------

def _row_norms(A) -> np.ndarray:
    """Frobenius norms of the rows of a sparse operator."""
    return np.sqrt(np.asarray(A.multiply(A).sum(axis=1)).ravel())


class _Data:
    """Equilibrated row slice of a problem's operator (equalities first).

    Rows are scaled to unit Frobenius norm; ``row_scale`` maps the scaled
    multipliers back to the original problem's multipliers. Rows that the
    presolve drops are missing from ``eq_idx``/``ineq_idx``.

    With a face V (N x k) the variable is R of order k and M = V R V^T: row
    i is V^T K_i V, applied through the order-N operator, and norms are
    those of the reduced rows. ``eq_gram`` holds the kept scaled
    equalities' Gram matrix (of the reduced rows on a face), which
    ``onto_equalities`` solves with.
    """

    def __init__(self, p: ConicProblem, ineq_idx: np.ndarray):
        self.N = p.block_order
        self.V = p.face
        self.n = self.N if self.V is None else self.V.shape[1]
        C = 0.5 * (p.obj_matrix + p.obj_matrix.T)
        self.C = C if self.V is None else self.V.T @ C @ self.V
        self.c0 = p.obj_offset
        eq_idx = np.arange(p.num_eq)
        ineq_idx = np.asarray(ineq_idx, dtype=np.intp)
        me = p.num_eq
        A = p.operator()[np.concatenate([eq_idx, me + ineq_idx])]
        rhs = np.concatenate([
            np.asarray(p.eq_rhs, dtype=float)[eq_idx],
            np.asarray(p.ineq_rhs, dtype=float)[ineq_idx],
        ])
        full_norm = _row_norms(A)
        # the equalities' inner products with all rows: A A' on the whole
        # block, or on a face the reduced rows', the Schur matrix at R = I
        if self.V is None:
            norm = full_norm
            eq_gram = (A[:me] @ A.T).toarray()
        else:
            self._set_rows(A, me)
            gram = self.schur(np.eye(self.n), np.zeros(self.mi))
            norm = np.sqrt(np.maximum(np.diag(gram), 0.0))
            eq_gram = gram[:me]

        def label(t):
            return p.eq_labels[eq_idx[t]] if t < me else p.ineq_labels[ineq_idx[t - me]]

        keep = _presolve(rhs, label, norm, full_norm, eq_gram)
        self.eq_idx, self.ineq_idx = eq_idx[keep[:me]], ineq_idx[keep[me:]]
        self.row_scale = 1.0 / np.maximum(norm[keep], 1e-300)
        A = A[keep]
        A.data = A.data * np.repeat(self.row_scale, np.diff(A.indptr))
        self._set_rows(A, len(self.eq_idx))
        self.rhs = rhs[keep] * self.row_scale
        self.b = self.rhs[: self.me]
        self.h = self.rhs[self.me :]
        e, s = np.flatnonzero(keep[:me]), self.row_scale[: self.me]
        self.eq_gram = eq_gram[np.ix_(e, e)] * np.outer(s, s)

    def _set_rows(self, A, me: int) -> None:
        """Hold the operator rows A, the first me of them equalities, and
        their factor pairs for the Schur build.

        Each upper entry (r, c, v) of a row is turned so that its pivot
        comes first: of r and c, the index that the row names more often,
        the smaller on a tie. Grouping a row's entries by pivot p writes it
        as K = sum_p e_p a_p' + a_p e_p', where a_p holds the entries' values
        at their other index, a diagonal value halved. A row-sum row is one
        pair, j-trace at most N pairs. The rows of the sparse (F x N)
        matrix _fac are the a_p of all rows, row by row, and _pivots holds
        their pivots.

        The Schur build takes the rows in batch order, runs of equal pair
        count k, each (a, b, uv, vu): for the batch's (b - a, k) pair
        indices f, uv = [f, F + f] and vu = [F + f, f] index the stacked
        [U; V], where U = W[_pivots] and V = _fac W. Row i sits at place
        _inverse[i]. _at
        lists the flat upper positions that some row names, and row i of the
        sparse _bu holds row i's entries there with weight 2u (v on the
        diagonal), so <K_i, M> = _bu[i] . M[_at] for a symmetric M.
        """
        n = self.N
        self.A = A
        self.At = A.T.tocsr()
        self.me, self.m = me, A.shape[0]
        self.mi = self.m - me
        counts, r, c, v = upper_entries(A, n)
        u = v * np.where(r != c, 1.0, 0.5)
        row = np.repeat(np.arange(self.m), counts)
        at_r, at_c = row * n + r, row * n + c
        # how often each row names each index; a diagonal entry counts twice
        named = np.bincount(np.concatenate([at_r, at_c]), minlength=self.m * n)
        turn = named[at_c] > named[at_r]
        # key: a pair's row and pivot; the stable sort keeps each pair's
        # entries in row order
        key = np.where(turn, at_c, at_r)
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        F = len(first)
        self._fac = sp.csr_matrix(
            (u[order], np.where(turn, r, c)[order], np.append(first, len(key))), shape=(F, n)
        )
        self._pivots = key[first] % n
        pairs = np.bincount(key[first] // n, minlength=self.m)
        by = np.argsort(pairs, kind="stable")
        self._inverse = np.empty_like(by)
        self._inverse[by] = np.arange(self.m)
        start = np.cumsum(pairs) - pairs
        edges = np.flatnonzero(np.diff(pairs[by], prepend=-1, append=-1))
        self._batches = []
        for a, b in zip(edges[:-1], edges[1:]):
            f = start[by[a:b], None] + np.arange(pairs[by[a]])
            self._batches.append((a, b, np.hstack([f, F + f]), np.hstack([F + f, f])))
        flat = r * n + c
        named_at = np.zeros(n * n, dtype=bool)
        named_at[flat] = True
        self._at = np.flatnonzero(named_at)
        place = np.cumsum(named_at) - 1
        self._bu = sp.csr_matrix(
            (2.0 * u, place[flat], np.append(0, np.cumsum(counts))), shape=(self.m, len(self._at))
        )
        self._buf = None

    def lift(self, R: np.ndarray) -> np.ndarray:
        """The problem's matrix V R V^T of a solver iterate R."""
        return R if self.V is None else self.V @ R @ self.V.T

    def apply(self, M: np.ndarray) -> np.ndarray:
        """All constraint inner products <K_i, M>."""
        return self.A @ self.lift(M).ravel()

    def adjoint(self, yfull: np.ndarray) -> np.ndarray:
        """sum_i yfull_i K_i as a dense symmetric matrix."""
        K = (self.At @ yfull).reshape(self.N, self.N)
        return K if self.V is None else self.V.T @ K @ self.V

    def onto_equalities(self, R: np.ndarray) -> np.ndarray:
        """R - adjoint(c) with eq_gram c = A(R) - b on the kept equalities:
        the nearest matrix to R in Frobenius norm that meets them."""
        c = np.linalg.solve(self.eq_gram, self.apply(R)[: self.me] - self.b)
        return R - self.adjoint(np.concatenate([c, np.zeros(self.mi)]))

    def schur(self, W: np.ndarray, d_lp: np.ndarray) -> np.ndarray:
        """Schur complement: S[i,j] = <K_i, W K_j W>, plus diag(u/q) on slacks.

        With U = W[_pivots] and V = _fac W, row j's product is
        W K_j W = U_j'V_j + V_j'U_j over its pairs, one batched product per
        batch of _set_rows (see there). The buffer holds each product at the
        positions _at, one column per row in batch order, so _bu times it
        gives S with its columns in batch order, which _inverse puts back in
        row order. S is returned exactly symmetric. With a face,
        <V'K_iV, W V'K_jV W> = <K_i, Wt K_j Wt> for Wt = V W V'.
        """
        W = self.lift(W)
        n, m = self.N, self.m
        if self._buf is None:
            self._buf = np.empty((len(self._at), m))
        buf = self._buf
        # [U; V]' [V; U] gives each row's symmetrized product in one gemm
        UV = np.concatenate([W[self._pivots], self._fac @ W])
        for a, b, uv, vu in self._batches:
            T = np.matmul(UV[uv].transpose(0, 2, 1), UV[vu]).reshape(b - a, n * n)
            buf[:, a:b] = T[:, self._at].T
        S = (self._bu @ buf)[:, self._inverse]
        S = 0.5 * (S + S.T)
        i = np.arange(self.me, m)
        S[i, i] += d_lp
        return S


# presolve thresholds: a row keeps less than this share of its norm on the
# face; a QR diagonal below this share of its row's squared norm marks a
# dependent equality; a unit row whose distance to the equalities' span has
# a square below this lies in it; an implied right-hand side may miss by
# this much
_EMPTY_SHARE = 1e-7
_RANK_TOL = 1e-9
_SPAN_TOL = 1e-10
_CONSISTENT_TOL = 1e-7


def _presolve(rhs, label, norm, full_norm, eq_gram) -> np.ndarray:
    """Mask of the rows the solver keeps; a dropped row gets multiplier 0.

    Three kinds of rows go: rows with no entries (on the face, if there is
    one), which must read 0 = 0 or 0 <= h with h >= 0; equalities that a
    pivoted QR of the equality Gram finds dependent on the others; and
    inequalities in the span of the kept equalities, which they make a
    constant. A dropped row that contradicts the kept ones raises a
    ValueError naming its ``label(i)``: the problem is infeasible.
    ``eq_gram`` holds the inner products of the equalities with all rows
    and ``norm`` the rows' norms (both on the face, if there is one),
    ``full_norm`` their norms on the whole block.
    """
    me, m = eq_gram.shape
    eq = np.arange(m) < me
    empty = norm <= _EMPTY_SHARE * full_norm

    def contradiction(mask, what):
        if mask.any():
            i = int(np.flatnonzero(mask)[0])
            raise ValueError(f"constraint {label(i)!r} {what}: the problem is infeasible")

    scale = 1.0 + np.abs(rhs).max(initial=0.0)
    contradiction(empty & eq & (np.abs(rhs) > _CONSISTENT_TOL * scale), "reads 0 = b with b != 0")
    contradiction(empty & ~eq & (rhs < -_CONSISTENT_TOL * scale), "reads 0 <= h with h < 0")
    keep = ~empty

    # a pivoted QR of the equalities' Gram keeps a basis of them; pivoting
    # on the raw rows, not unit ones, leaves short rows last, so the order-n
    # model loses its trace row. Each diagonal is tested against its own
    # row's squared norm, so rescaling a row does not change the rank.
    e = np.flatnonzero(keep[:me])
    _, R, piv = sla.qr(eq_gram[np.ix_(e, e)], pivoting=True)
    indep = np.abs(np.diag(R)) > _RANK_TOL * eq_gram[e[piv], e[piv]]
    kept, dropped = e[piv[indep]], e[piv[~indep]]

    # inner products and right-hand sides of unit-norm rows
    s = np.where(keep, norm, 1.0)
    unit, b = eq_gram / np.outer(s[:me], s), rhs / s
    bad = np.zeros(m, dtype=bool)
    implied = unit[np.ix_(dropped, kept)] @ np.linalg.solve(unit[np.ix_(kept, kept)], b[kept])
    bad[dropped] = np.abs(b[dropped] - implied) > _CONSISTENT_TOL * (1.0 + np.abs(b[kept]).max(initial=0.0))
    contradiction(bad, "contradicts the equalities it depends on")
    keep[dropped] = False

    # an inequality in the span of the kept equalities reads c'b <= h;
    # when tight it would leave its slack no interior
    i = np.flatnonzero(keep[me:]) + me
    coef = np.linalg.solve(unit[np.ix_(kept, kept)], unit[np.ix_(kept, i)])
    in_span = 1.0 - np.sum(unit[np.ix_(kept, i)] * coef, axis=0) <= _SPAN_TOL
    i, value = i[in_span], coef[:, in_span].T @ b[kept]
    bad[i] = value > b[i] + _CONSISTENT_TOL * (1.0 + np.abs(b[i]))
    contradiction(bad, "contradicts the equalities that fix it")
    keep[i] = False
    return keep


# ---------------------------------------------------------------------------
# the iteration's dense kernels, called straight through LAPACK
# ---------------------------------------------------------------------------

# the routines scipy.linalg resolves for float64 arrays; its svd prefers an
# ILP64 build of gesdd where scipy has one
_potrf, _potrs, _trtrs, _syevr, _syevr_lwork = get_lapack_funcs(
    ("potrf", "potrs", "trtrs", "syevr", "syevr_lwork"), dtype=np.float64
)
_gesdd, _gesdd_lwork = get_lapack_funcs(
    ("gesdd", "gesdd_lwork"), dtype=np.float64, ilp64="preferred"
)


def _lapack(routine, *args, **kwargs):
    """Outputs of a LAPACK wrapper without its trailing info. A failure
    (info > 0) raises LinAlgError, as scipy.linalg does, and an illegal
    argument (info < 0) ValueError."""
    *out, info = routine(*args, **kwargs)
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine.__name__} failed with info {info}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine.__name__}")
    return out


# one entry per block order the iteration can meet
@functools.lru_cache(maxsize=_BLOCK_ORDER_CAP + 1)
def _workspace(n: int) -> tuple[int, int, int]:
    """syevr's (lwork, liwork) and gesdd's lwork at order n, from the same
    queries scipy.linalg makes; the workspace sets LAPACK's blocking, and
    with it the rounding."""
    lwork, liwork = _lapack(_syevr_lwork, n, lower=1)
    (svd_lwork,) = _lapack(_gesdd_lwork, n, n, compute_uv=1, full_matrices=1)
    return int(lwork), int(liwork), int(svd_lwork)


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sla.cho_solve((c, True), b) for a lower factor c."""
    if b.size == 0:
        # a problem with no rows; f2py refuses the empty operands
        return np.empty_like(b)
    return _lapack(_potrs, c, b, lower=1)[0]


def _solve_triangular(a: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """sla.solve_triangular(a, b, lower=lower): trtrs takes a C-ordered
    factor as its transpose, as scipy's does."""
    if a.flags.f_contiguous:
        return _lapack(_trtrs, a, b, lower=lower, trans=0)[0]
    return _lapack(_trtrs, a.T, b, lower=not lower, trans=1)[0]


def _min_eigvalsh(A: np.ndarray) -> float:
    """sla.eigvalsh(A, subset_by_index=[0, 0])[0]."""
    lwork, liwork, _ = _workspace(len(A))
    w = _lapack(_syevr, A, compute_v=0, range="I", lower=1, il=1, iu=1,
                lwork=lwork, liwork=liwork)[0]
    return w[0]


def _eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sla.eigh(A): eigenvalues ascending and their eigenvectors."""
    lwork, liwork, _ = _workspace(len(A))
    w, v, _, _ = _lapack(_syevr, A, compute_v=1, lower=1, lwork=lwork, liwork=liwork)
    return w, v


def _svd(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sla.svd(A) of a square A: U, the singular values and V^T."""
    return tuple(_lapack(_gesdd, A, compute_uv=1, full_matrices=1, lwork=_workspace(len(A))[2]))


def _factor_schur(S: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of an exactly symmetric S, upper part not
    cleaned, as sla.cho_factor(S, lower=True)[0]; S is shifted by an
    escalating multiple of its mean diagonal until the factor exists."""
    # a problem with no rows has an empty S, which needs no scale
    scale = max(float(np.mean(np.diag(S))), 1e-30) if len(S) else 1.0
    jitter = 0.0
    while True:
        shifted = S if jitter == 0.0 else S + jitter * scale * np.eye(len(S))
        try:
            # the transpose is the same matrix, F-ordered, so f2py copies it
            # without transposing
            return _lapack(_potrf, shifted.T, lower=1, clean=0)[0]
        except np.linalg.LinAlgError:
            jitter = 1e-13 if jitter == 0.0 else jitter * 100.0
            if jitter > 1e-3:
                raise


def _max_step_psd(L: np.ndarray, dM: np.ndarray) -> float:
    """Largest alpha with M + alpha*dM PSD, M = L L^T."""
    Y = _solve_triangular(L, dM, lower=True)
    Y = _solve_triangular(L, Y.T, lower=True)
    lam = _min_eigvalsh(0.5 * (Y + Y.T))
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _max_step_vec(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-v[neg] / dv[neg]))


# ---------------------------------------------------------------------------
# the interior-point iteration
# ---------------------------------------------------------------------------

def _warm_iterate(data: _Data, start: ConicSolution, Cm: np.ndarray, cnorm: float):
    """First iterate pulled from ``start``, a solution of the same problem
    with a multiplier for each of its rows, or None when its X or Z block is
    not positive definite.

    With lam = _WARM_WEIGHT, each part is lam times its value at ``start``
    plus 1 - lam times the cold start's: X from V'MV on a face, Z from the
    scaled dual slack Cm - adjoint([y; -q]), the slacks u from h - GX, and
    tau = 1. Negative slacks and multipliers count as 0, and kappa is 1 - lam.
    """
    lam, me, eye = _WARM_WEIGHT, data.me, np.eye(data.n)
    M = start.primal if data.V is None else data.V.T @ start.primal @ data.V
    y = start.dual_eq[data.eq_idx] / (cnorm * data.row_scale[:me])
    q = start.dual_ineq[data.ineq_idx] / (cnorm * data.row_scale[me:])
    Zs = Cm - data.adjoint(np.concatenate([y, -q]))
    X = lam * 0.5 * (M + M.T) + (1.0 - lam) * eye
    Z = lam * 0.5 * (Zs + Zs.T) + (1.0 - lam) * eye
    try:
        np.linalg.cholesky(X)
        np.linalg.cholesky(Z)
    except np.linalg.LinAlgError:
        return None
    u = np.maximum(data.h - data.apply(M)[me:], 0.0)
    return (X, lam * u + (1.0 - lam), lam * y, Z, lam * np.maximum(q, 0.0) + (1.0 - lam),
            1.0, 1.0 - lam)


def _ipm(data: _Data, cfg: SolverConfig, start: ConicSolution | None = None) -> ConicSolution:
    """Predictor-corrector iteration on the homogeneous self-dual embedding.

    The iterate is one tuple v = (X, u, y, Z, q, tau, kappa), and every
    direction is a tuple in the same order; the original optimum is
    recovered at (X/tau, y/tau, q/tau). The embedding keeps the dual bounded
    in embedding coordinates even when the dual supremum of a degenerate
    model is approached only in the limit, which is what makes the
    no-interior relaxations solvable to near machine accuracy.

    Without a ``start`` (see ``_warm_iterate``), or when it gives no
    interior point, the iteration starts cold at X = Z = I, u = q = 1,
    y = 0 and tau = kappa = 1.
    """
    n, me, mi = data.n, data.me, data.mi
    bh = data.rhs

    cnorm = 1.0 + np.linalg.norm(data.C)
    Cm = data.C / cnorm
    norm_C = np.linalg.norm(Cm)

    def mu_of(w):
        X, u, _, Z, q, tau, kappa = w
        return (float(np.vdot(X, Z)) + float(u @ q) + tau * kappa) / (n + mi + 1)

    def toward(d, alpha):
        return tuple(a + alpha * b for a, b in zip(v, d))

    v = None if start is None else _warm_iterate(data, start, Cm, cnorm)
    if v is None:
        v = (np.eye(n), np.ones(mi), np.zeros(me), np.eye(n), np.ones(mi), 1.0, 1.0)
    # a first iterate with a non-finite score ends the solve with the start
    best = (v[0], v[2], v[4], np.nan, np.nan, (np.inf, np.inf, np.inf))
    best_score = np.inf
    status = SolverStatus.MAX_ITERS
    message = ""
    it = 0

    for it in range(1, cfg.max_iters + 1):
        X, u, y, Z, q, tau, kappa = v
        yfull = np.concatenate([y, -q])
        AX = data.apply(X)
        rP = bh * tau - np.concatenate([AX[:me], AX[me:] + u])
        rD = Cm * tau - data.adjoint(yfull) - Z
        rG = kappa + float(np.vdot(Cm, X)) - float(bh @ yfull)

        # de-homogenized metrics against the original data
        Xs = X / tau
        pobj = cnorm * float(np.vdot(Cm, Xs)) + data.c0
        dobj = cnorm * float(data.b @ y - data.h @ q) / tau + data.c0
        AXs = AX / tau
        pinf = max(np.abs(AXs[:me] - data.b).max(initial=0.0),
                   np.maximum(AXs[me:] - data.h, 0.0).max(initial=0.0))
        dinf = np.linalg.norm(rD / tau) / (1.0 + norm_C)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        # selection prefers late, fully polished iterates; the sum keeps a
        # marginally larger pinf from outranking a large gap improvement
        score = pinf + dinf + gap
        optimal = pinf <= cfg.tol and dinf <= cfg.tol and gap <= cfg.tol
        if optimal or score < best_score:
            best_score = score
            best = (Xs, y / tau, q / tau, pobj, dobj, (pinf, dinf, gap))
        if optimal:
            status = SolverStatus.OPTIMAL
            break
        if not np.isfinite(score):
            status = SolverStatus.NUMERICAL_TROUBLE
            message = "non-finite iterate"
            break
        if tau < 1e-10 * max(1.0, kappa):
            status = SolverStatus.NUMERICAL_TROUBLE
            message = "infeasibility certificate (tau collapsed)"
            break

        mu = mu_of(v)

        try:
            Lx = np.linalg.cholesky(X)
            Lz = np.linalg.cholesky(Z)
            _, sv, Vtv = _svd(Lz.T @ Lx)
            sv = np.maximum(sv, 1e-150)
            G = Lx @ Vtv.T / np.sqrt(sv)
            W = G @ G.T
            d_lp = u / q
            S = data.schur(W, d_lp)
            Sf = _factor_schur(S)
        except np.linalg.LinAlgError as exc:
            status = SolverStatus.NUMERICAL_TROUBLE
            message = f"factorization breakdown: {exc}"
            break

        def schur_solve(rhs: np.ndarray) -> np.ndarray:
            x = _cho_solve(Sf, rhs)
            # one refinement pass recovers digits lost to the ill-conditioned
            # scaling near a degenerate face
            x += _cho_solve(Sf, rhs - S @ x)
            return x

        WCW = W @ Cm @ W
        WrDW = W @ rD @ W
        chat = data.apply(WCW)
        gamma = float(np.vdot(Cm, WCW))
        Qhat = schur_solve(bh + chat)
        denom_tau = float((bh - chat) @ Qhat) + gamma + kappa / tau

        def raw_direction(rp_loc, rD_loc, rG_loc, Rxz, r_uq, rc_tau):
            """(dX, du, dyw, dZ, dtau, dkappa), with dyw = (dy, -dq) stacked."""
            # rD_loc None means exact zero (refinement passes): skip products
            body = Rxz if rD_loc is None else Rxz - WrDW
            r0 = rp_loc - data.apply(body)
            r0[me:] -= r_uq
            phat = schur_solve(r0)
            num = rG_loc + float(np.vdot(Cm, body)) + rc_tau / tau - float((bh - chat) @ phat)
            dtau = num / denom_tau
            dyw = phat + Qhat * dtau
            dZ = Cm * dtau - data.adjoint(dyw)
            if rD_loc is not None:
                dZ += rD_loc
            dX = Rxz - W @ dZ @ W
            du = r_uq + d_lp * dyw[me:]
            return dX, du, dyw, dZ, dtau, (rc_tau - kappa * dtau) / tau

        def direction(Rxz, r_uq, rc_tau, linear: bool = True):
            rp_loc, rD_loc, rG_loc = (rP, rD, rG) if linear else (np.zeros(data.m), None, 0.0)
            d = raw_direction(rp_loc, rD_loc, rG_loc, Rxz, r_uq, rc_tau)
            # refine against the full Newton system: the Schur assembly
            # itself loses digits through the W products near a degenerate
            # face, which only a KKT-level residual can see
            for _ in range(2):
                dX, du, dyw, _, dtau, dkap = d
                adx = data.apply(dX)
                adx[me:] += du
                resP = rp_loc - (adx - bh * dtau)
                resG = rG_loc - (float(bh @ dyw) - float(np.vdot(Cm, dX)) - dkap)
                limit = 1e-13 * (1.0 + np.abs(rp_loc).max(initial=0.0))
                if max(np.abs(resP).max(initial=0.0), abs(resG)) < limit:
                    break
                dd = raw_direction(resP, None, resG, np.zeros((n, n)), np.zeros(mi), 0.0)
                d = [a + b for a, b in zip(d, dd)]
            dX, du, dyw, dZ, dtau, dkap = d
            return 0.5 * (dX + dX.T), du, dyw[:me], 0.5 * (dZ + dZ.T), -dyw[me:], dtau, dkap

        def step(d, frac):
            """Longest step, capped at 1, that takes frac of the way to the
            cone boundary along direction d."""
            dX, du, _, dZ, dq, dtau, dkap = d
            terms = (
                _max_step_psd(Lx, dX),
                _max_step_vec(u, du),
                _max_step_psd(Lz, dZ),
                _max_step_vec(q, dq),
                _max_step_vec(np.array([tau, kappa]), np.array([dtau, dkap])),
            )
            return min(1.0, *(frac * a for a in terms))

        # predictor
        aff = direction(-X, -u, -tau * kappa)
        _, du_a, _, _, dq_a, dtau_a, dkap_a = aff
        if not np.all(np.isfinite(aff[0])) or not np.isfinite(dtau_a):
            status = SolverStatus.NUMERICAL_TROUBLE
            message = "non-finite search direction"
            break
        a_aff = step(aff, 1.0)
        mu_aff = mu_of(toward(aff, a_aff))
        sigma = min(0.999, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

        Ginv = _solve_triangular(Lx.T, Vtv.T * np.sqrt(sv), lower=False).T
        denom = 0.5 * (sv[:, None] + sv[None, :])

        def scaled(d):
            """The NT-scaled matrix steps Ginv dX Ginv' and G' dZ G."""
            return Ginv @ d[0] @ Ginv.T, G.T @ d[3] @ G

        def centred(s, corr, uq_corr, tk_corr):
            """Direction toward s*mu on the central path, less the given
            second-order corrections of the matrix, slack and tau-kappa
            products."""
            Hs = (s * mu * np.eye(n) - np.diag(sv**2) - corr) / denom
            r_uq = (s * mu - u * q - uq_corr) / q
            return direction(G @ Hs @ G.T, r_uq, s * mu - tau * kappa - tk_corr)

        # corrector
        Dx_a, Dz_a = scaled(aff)
        corr = 0.5 * (Dx_a @ Dz_a + Dz_a @ Dx_a)
        d = centred(sigma, corr, du_a * dq_a, dtau_a * dkap_a)
        alpha = step(d, _STEP_FRACTION)
        if alpha < 0.25 * min(a_aff, 1.0):
            # second-order correction overshot the cone; retake a plain
            # centered step
            cand = centred(max(sigma, 0.3), 0.0, 0.0, 0.0)
            alpha_fb = step(cand, _STEP_FRACTION)
            if alpha_fb > alpha:
                d, alpha = cand, alpha_fb

        # centrality correctors: when the step is short, pull the trial
        # complementarity spectrum back into a box around its mean so the
        # cone boundary recedes; reuses the factorization
        for _ in range(3):
            if alpha >= 0.6:
                break
            a_try = min(1.0, alpha + 0.3)
            Dx_t, Dz_t = scaled(d)
            Sig = np.diag(sv)
            P = (Sig + a_try * Dx_t) @ (Sig + a_try * Dz_t)
            P = 0.5 * (P + P.T)
            _, u_t, _, _, q_t, tau_t, kappa_t = toward(d, a_try)
            p_lp, p_tk = u_t * q_t, tau_t * kappa_t
            mu_t = (float(np.trace(P)) + float(p_lp.sum()) + p_tk) / (n + mi + 1)
            lo, hi = 0.1 * mu_t, 10.0 * mu_t
            lam_p, Qp = _eigh(P)
            lam_c = np.clip(lam_p, lo, hi)
            if np.allclose(lam_c, lam_p) and np.all((p_lp >= lo) & (p_lp <= hi)) and lo <= p_tk <= hi:
                break
            dP = Qp @ np.diag(lam_c - lam_p) @ Qp.T
            Rxz_add = G @ (dP / denom) @ G.T
            r_uq_add = (np.clip(p_lp, lo, hi) - p_lp) / q
            rc_add = np.clip(p_tk, lo, hi) - p_tk
            add = direction(Rxz_add, r_uq_add, rc_add, linear=False)
            cand = tuple(a + b for a, b in zip(d, add))
            alpha_c = step(cand, _STEP_FRACTION)
            if alpha_c <= 1.01 * alpha:
                break
            d, alpha = cand, alpha_c

        if alpha < 1e-10:
            status = SolverStatus.NUMERICAL_TROUBLE
            message = "step length collapsed"
            break

        X, u, y, Z, q, tau, kappa = toward(d, alpha)
        v = (0.5 * (X + X.T), u, y, 0.5 * (Z + Z.T), q, tau, kappa)

    Xb, yb, qb, pobj, dobj, res = best
    return ConicSolution(
        status=status,
        primal=Xb,
        dual_eq=yb * (cnorm * data.row_scale[:me]),
        dual_ineq=qb * (cnorm * data.row_scale[me:]),
        objective_primal=pobj,
        objective_dual=dobj,
        residuals=res,
        iterations=it,
        message=message,
    )


def solve(
    p: ConicProblem,
    cfg: SolverConfig | None = None,
    ineq_hint: np.ndarray | None = None,
    start: ConicSolution | None = None,
) -> ConicSolution:
    """Solve a conic problem on a sifted working set of its inequalities.

    The first working set is ``ineq_hint`` when one is given (callers that
    solve a sequence of related problems pass the rows they expect to bind)
    and no rows otherwise; an index outside ``0..num_ineq-1`` is a
    ValueError. A pass that ends short of OPTIMAL and activates nothing
    while rows remain outside its working set is solved again with every
    row.

    The first pass starts from ``start``, a solution of ``p`` before rows
    were appended to it (its ``dual_ineq`` may be shorter than ``num_ineq``;
    the missing rows get multiplier 0), or cold without one. Each later pass
    starts from the pass before it when that one ended OPTIMAL, and cold
    otherwise. A ``start`` whose primal is not N x N, whose ``dual_eq``
    does not hold ``num_eq`` values or whose ``dual_ineq`` holds more than
    ``num_ineq`` is a ValueError. ``cfg.max_iters`` bounds the iterations of
    the whole solve, which ``iterations`` counts over every pass. A solve
    that spends them before its working set settles ends MAX_ITERS.

    The returned matrix is the last pass's moved onto the kept equalities
    (see ``_Data.onto_equalities``), and ``objective_primal`` is its
    objective as a float; the multipliers are the pass's.

    Returns the best iterate found together with the objective values and
    the (primal infeasibility, dual infeasibility, relative gap) triple.
    """
    cfg = cfg or SolverConfig()
    if p.block_order > _BLOCK_ORDER_CAP:
        raise UnsupportedProblem(
            f"block order {p.block_order} exceeds cap {_BLOCK_ORDER_CAP}"
        )
    mi = p.num_ineq
    if start is not None:
        N, got = p.block_order, len(start.dual_ineq)
        if np.shape(start.primal) != (N, N) or len(start.dual_eq) != p.num_eq or got > mi:
            raise ValueError(
                f"start has a {np.shape(start.primal)} primal, {len(start.dual_eq)} equality and "
                f"{got} inequality multipliers; the problem needs ({N}, {N}), {p.num_eq} "
                f"and at most {mi}"
            )
        start = replace(start, dual_ineq=np.concatenate([start.dual_ineq, np.zeros(mi - got)]))
    # a row outside the working set joins it when its violation over its
    # norm exceeds half the tolerance that the working rows meet;
    # the most violated rows join first
    norm = _row_norms(p.operator()[p.num_eq :])
    working = np.unique(np.asarray([] if ineq_hint is None else ineq_hint, dtype=int))
    bad = working[(working < 0) | (working >= mi)]
    if len(bad):
        raise ValueError(f"ineq_hint holds rows outside 0..{mi - 1}: {bad.tolist()}")
    batch = max(4 * p.block_order, 400)
    iterations = 0
    while iterations < cfg.max_iters:
        # solve on the working set within what is left of the budget, then
        # scatter its duals to all rows, move its primal onto the kept
        # equalities and lift it off the face
        data = _Data(p, working)
        sol = _ipm(data, replace(cfg, max_iters=cfg.max_iters - iterations), start)
        iterations += sol.iterations
        sol.iterations = iterations
        dual_eq, dual_ineq = np.zeros(p.num_eq), np.zeros(mi)
        dual_eq[data.eq_idx] = sol.dual_eq
        dual_ineq[data.ineq_idx] = sol.dual_ineq
        sol.dual_eq, sol.dual_ineq = dual_eq, dual_ineq
        sol.primal = data.onto_equalities(sol.primal)
        sol.objective_primal = float(np.vdot(data.C, sol.primal) + data.c0)
        sol.primal = data.lift(sol.primal)
        viol = p.ineq_violations(sol.primal)
        cand = np.setdiff1d(np.flatnonzero(viol > 0.5 * cfg.tol * norm), working)
        if len(cand) == 0:
            if sol.status is SolverStatus.OPTIMAL or len(working) == mi:
                return sol
            # a pass that fails without violating a row outside its working
            # set (an unbounded one, say) takes every row and solves again
            working = np.arange(mi)
        else:
            order = np.lexsort((cand, -viol[cand]))
            working = np.sort(np.concatenate([working, cand[order[:batch]]]))
        start = sol if sol.status is SolverStatus.OPTIMAL else None
    sol.status = SolverStatus.MAX_ITERS
    sol.message = "inequality sifting did not settle"
    return sol


# ---------------------------------------------------------------------------
# rigorous lower bound from an approximate dual
# ---------------------------------------------------------------------------

def safe_lower_bound(p: ConicProblem, sol: ConicSolution) -> SafeBound:
    """Certified lower bound on the relaxation optimum from a dual iterate.

    Requires the model to fix the trace of the PSD variable to a known
    constant t (recorded at build time). For any multipliers (y, s >= 0),

        value = b^T y - h^T s + t * min(0, lambda_min(Zslack))

    is a valid lower bound, where Zslack = C - sum_i y_i A_i + sum_j s_j G_j.
    The eigenvalue term pays for dual infeasibility through the fixed trace:
    every feasible M has <C, M> >= b^T y - h^T s + <Zslack, M>, and
    <Zslack, M> >= t * min(0, lambda_min(Zslack)) for M PSD with tr M = t.

    With a face V the eigenvalue is that of V^T Zslack V. This is valid
    because the builder's equalities force every feasible M into the face.
    For the vector-lifted relaxation, take the exposing vectors
    v_i = (-1, e_i, e_i). The corner, border (y = diag Y), y12-diag and
    block-trace equalities give sum_i v_i^T M v_i = n - tr Y11 - tr Y22 = 0,
    and the corner, trace-1 and j-trace-1 ones give v^T M v = 0 for
    v = (-m1, e, 0). Each term is >= 0 since M is PSD, so M v = 0 for all
    of them and M = V R V^T with R = V^T M V PSD. Then <Zslack, M> =
    <V^T Zslack V, R> and tr R = tr M = t, so the same argument holds on R.
    """
    t = p.trace_constant
    if t is None:
        raise UnsupportedProblem(
            "safe_lower_bound needs a trace-pinned model (trace_constant unset)"
        )
    y = np.asarray(sol.dual_eq, dtype=float)
    s = np.maximum(np.asarray(sol.dual_ineq, dtype=float), 0.0)
    if y.shape != (p.num_eq,) or s.shape != (p.num_ineq,):
        raise ValueError(
            f"dual shapes {y.shape} (equalities) and {s.shape} (inequalities) do not "
            f"match the problem's ({p.num_eq},) and ({p.num_ineq},)"
        )
    n = p.block_order
    C = 0.5 * (p.obj_matrix + p.obj_matrix.T)
    Zslack = C - (p.operator().T @ np.concatenate([y, -s])).reshape(n, n)
    lam = min_eigenvalue(Zslack if p.face is None else p.face.T @ Zslack @ p.face)
    b, h = np.asarray(p.eq_rhs, dtype=float), np.asarray(p.ineq_rhs, dtype=float)
    value = float(b @ y - h @ s) + t * min(0.0, lam) + p.obj_offset
    return SafeBound(value=value, dual_eq=y, dual_ineq=s, slack_min_eigenvalue=lam)
