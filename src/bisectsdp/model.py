"""Conic models of the bisection relaxations.

All four relaxations are expressed in one standard form over a single
symmetric matrix variable M:

    minimize    <C, M> + c0
    subject to  <A_i, M>  = b_i
                <G_j, M> <= h_j
                M PSD

The matrix variable differs per relaxation: the order-n relaxations use
X itself (or the shifted M = 2X - J), the vector-lifted one uses the
bordered matrix [[1, y^T], [y, Y]] of order 2n+1. Every builder calibrates
the objective so that a feasible 0/1 assignment evaluates exactly to its
cut weight, which makes the solved optima directly comparable across
relaxations.

Builders append each family of constraint rows as one batch of flat
upper-triangle arrays ``r``, ``c`` and ``v`` with a count of entries per
row, beside the rows' right-hand sides and labels. The batches are joined
into one stacked operator, rebuilt after appends; residuals, the solver's
data and the safe bound apply it, and ``upper_entries`` reads a row
slice's upper-triangle entries back off it for ``ConicProblem.rows`` and
the solver's data.
"""

from __future__ import annotations

import enum
import io
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import BisectionInstance, laplacian

__all__ = [
    "RelaxationKind",
    "ConicProblem",
    "build_basic",
    "build_new",
    "build_wz",
    "wz_face",
    "strictly_feasible_point",
    "integer_point",
    "problem_to_text",
    "problem_from_text",
]


class RelaxationKind(enum.Enum):
    BASIC = "basic"
    NEW = "new"
    NEW_BARE = "new-bare"
    WZ = "wz"


@dataclass
class ConicProblem:
    """One PSD block plus linear equalities and appendable inequalities.

    ``face`` is an optional orthonormal N x k basis whose range holds the
    range of every feasible matrix; the solver then works on M = V R V^T
    with R of order k. The builder that sets it vouches that the equalities
    force this (see ``solver.safe_lower_bound``); it is not serialized.
    """

    block_order: int
    obj_matrix: np.ndarray
    obj_offset: float = 0.0
    kind: RelaxationKind | None = None
    trace_constant: float | None = None
    face: np.ndarray | None = None

    def __post_init__(self):
        if self.face is not None:
            V = np.asarray(self.face, dtype=float)
            k = V.shape[1] if V.ndim == 2 else -1
            if V.shape[0] != self.block_order or not 0 < k <= self.block_order:
                raise ValueError(f"face must be {self.block_order} x k, got shape {V.shape}")
            if np.abs(V.T @ V - np.eye(k)).max() > 1e-12:
                raise ValueError("face columns must be orthonormal")
            self.face = V
        self.eq_rhs: list[float] = []
        self.eq_labels: list[str] = []
        self.ineq_rhs: list[float] = []
        self.ineq_labels: list[str] = []
        # appended (counts, r, c, v) batches per sense, joined on the next read
        empty = (np.empty(0, dtype=np.intp),) * 3 + (np.empty(0),)
        self._eq, self._ineq = [empty], [empty]
        self._label_set: set[str] = set()
        self._operator = None

    # -- construction ------------------------------------------------------

    def add_equalities(self, r, c, v, rhs, labels, counts=None) -> None:
        """Append a batch of equality rows, one per label.

        ``r``, ``c`` and ``v`` are the rows' upper-triangle entries; ``c``
        and ``v`` broadcast to the shape of ``r`` and ``rhs`` to one value
        per row. Row i owns ``counts[i]`` consecutive entries; without
        ``counts`` the entries split evenly over the rows. Zero entries are
        dropped, and an entry named twice in one row is an error.
        """
        self._append(self._eq, self.eq_rhs, self.eq_labels, r, c, v, rhs, labels, counts)

    def add_inequalities(self, r, c, v, rhs, labels, counts=None) -> None:
        """Append a batch of inequality rows; see :meth:`add_equalities`."""
        self._append(self._ineq, self.ineq_rhs, self.ineq_labels, r, c, v, rhs, labels, counts)

    def _append(self, batches, rhs_list, label_list, r, c, v, rhs, labels, counts) -> None:
        labels = list(labels)
        fresh = set(labels)
        if len(fresh) < len(labels) or not fresh.isdisjoint(self._label_set):
            dup = sorted(fresh & self._label_set) or [x for x in labels if labels.count(x) > 1]
            raise ValueError(f"duplicate constraint label {dup[0]!r}")
        k, n = len(labels), self.block_order
        if not k:
            return
        r = np.asarray(r, dtype=np.intp)
        c = np.broadcast_to(np.asarray(c, dtype=np.intp), r.shape).ravel()
        v = np.broadcast_to(np.asarray(v, dtype=float), r.shape).ravel()
        r = r.ravel()
        counts = np.full(k, r.size // k) if counts is None else np.asarray(counts, dtype=np.intp)
        if counts.shape != (k,) or counts.sum() != r.size:
            raise ValueError(f"{r.size} entries do not split into the {k} rows")
        if r.size and (r.min() < 0 or c.max() >= n or np.any(r > c)):
            raise ValueError(f"row entries must satisfy 0 <= row <= col < {n}")
        keep = v != 0.0
        row, r, c, v = np.repeat(np.arange(k), counts)[keep], r[keep], c[keep], v[keep]
        order = np.lexsort((c, r, row))
        row, r, c, v = row[order], r[order], c[order], v[order]
        if np.any((np.diff(row) == 0) & (np.diff(r) == 0) & (np.diff(c) == 0)):
            raise ValueError("a row names the same entry twice")
        batches.append((np.bincount(row, minlength=k), r, c, v))
        rhs_list.extend(np.broadcast_to(np.asarray(rhs, dtype=float), (k,)).tolist())
        label_list.extend(labels)
        self._label_set |= fresh
        self._operator = None

    def has_label(self, label: str) -> bool:
        return label in self._label_set

    # -- introspection -----------------------------------------------------

    @property
    def num_eq(self) -> int:
        return len(self.eq_rhs)

    @property
    def num_ineq(self) -> int:
        return len(self.ineq_rhs)

    def rows(self, sel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Upper-triangle entries of the rows ``sel`` (equalities first).

        Returns (counts, r, c, v): row sel[t] owns the t-th run of
        ``counts[t]`` entries, sorted by (r, c). They are read off the
        operator by :func:`upper_entries`.
        """
        return upper_entries(self.operator()[np.asarray(sel, dtype=np.intp)], self.block_order)

    def operator(self) -> sp.csr_matrix:
        """Stacked operator, equalities first: row i maps vec(M) to <K_i, M>.

        Each K_i is expanded to full symmetric form (off-diagonal entries
        twice). Built on first use and again after an append.
        """
        if self._operator is None:
            # joining keeps a run of small appends linear in the row count
            for batches in (self._eq, self._ineq):
                batches[:] = [tuple(np.concatenate(a) for a in zip(*batches))]
            counts, r, c, v = (np.concatenate(a) for a in zip(self._eq[0], self._ineq[0]))
            n, m = self.block_order, len(counts)
            row = np.repeat(np.arange(m), counts)
            off = r != c
            flat = np.concatenate([r * n + c, (c * n + r)[off]])
            self._operator = sp.csr_matrix(
                (np.concatenate([v, v[off]]), (np.concatenate([row, row[off]]), flat)),
                shape=(m, n * n),
            )
        return self._operator

    def eq_residuals(self, M: np.ndarray) -> np.ndarray:
        """<A_i, M> - b_i for every equality."""
        ax = self.operator() @ np.ravel(M)
        return ax[: self.num_eq] - np.asarray(self.eq_rhs, dtype=float)

    def ineq_violations(self, M: np.ndarray) -> np.ndarray:
        """<G_j, M> - h_j for every inequality (positive means violated)."""
        ax = self.operator() @ np.ravel(M)
        return ax[self.num_eq :] - np.asarray(self.ineq_rhs, dtype=float)

    def objective_value(self, M: np.ndarray) -> float:
        return float(np.tensordot(self.obj_matrix, M)) + self.obj_offset


def upper_entries(A: sp.csr_matrix, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle entries (counts, r, c, v) of the rows of an operator slice.

    ``A`` is a row slice of an order-n operator, whose rows hold sorted flat
    indices r * n + c. Row t owns the t-th run of ``counts[t]`` entries.
    """
    r, c = np.divmod(A.indices.astype(np.intp), n)
    upper = r <= c
    row = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))[upper]
    return np.bincount(row, minlength=A.shape[0]), r[upper], c[upper], A.data[upper]


def _labels(family: str, *idx: np.ndarray) -> list[str]:
    """Row labels 'family(i,j,...)' from index arrays."""
    return [f"{family}({','.join(map(str, t))})" for t in zip(*(a.tolist() for a in idx))]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_basic(inst: BisectionInstance) -> ConicProblem:
    """Order-n relaxation with the shifted variable M = 2X - J PSD.

    X has unit diagonal and <J, X> = m1^2 + m2^2; substituting X = (M + J)/2
    turns the cone condition 2X - J PSD into a plain PSD constraint on M and
    the objective (1/2) tr(L X) into (1/4) tr(L M) because tr(L J) = 0.
    """
    n = inst.n
    m1, m2 = inst.m1, inst.m2
    L = laplacian(inst.graph)
    p = ConicProblem(
        block_order=n,
        obj_matrix=L / 4.0,
        obj_offset=0.0,
        kind=RelaxationKind.BASIC,
        trace_constant=float(n),
    )
    idx = np.arange(n)
    p.add_equalities(idx, idx, 1.0, 1.0, _labels("diag", idx))
    U, V = np.triu_indices(n)
    p.add_equalities(U, V, 1.0, 2.0 * (m1 * m1 + m2 * m2) - n * n, ["j-trace"])
    return p


def build_new(inst: BisectionInstance, with_nonneg: bool = True) -> ConicProblem:
    """Order-n relaxation tied to part 1 only, with x = diag(X) eliminated.

    Equalities: tr(X) = m1, <J, X> = m1^2, and the n row constraints
    X e = m1 diag(X). The trace equality is implied by the others and kept
    (labelled) so tests can toggle it. The objective is tr(L X), which is
    the calibration under which a 0/1 point evaluates to its cut.

    With ``with_nonneg`` the three elementwise families are added as scalar
    inequalities: X >= 0, X_ij <= min(x_i, x_j), and x_i + x_j - X_ij <= 1,
    plus the diagonal consequence x_i <= 1.
    """
    n = inst.n
    m1 = inst.m1
    L = laplacian(inst.graph)
    p = ConicProblem(
        block_order=n,
        obj_matrix=L.copy(),
        obj_offset=0.0,
        kind=RelaxationKind.NEW if with_nonneg else RelaxationKind.NEW_BARE,
        trace_constant=float(m1),
    )
    idx = np.arange(n)
    U, V = np.triu_indices(n)
    p.add_equalities(idx, idx, 1.0, m1, ["trace"])
    p.add_equalities(U, V, 1.0, m1 * m1, ["j-trace"])
    # row i of X e = m1 diag(X): 0.5 on every (i, j), counted twice, and 1 - m1 on (i, i)
    I, J = np.repeat(idx, n), np.tile(idx, n)
    lo, hi = np.minimum(I, J), np.maximum(I, J)
    p.add_equalities(lo, hi, np.where(I == J, 1.0 - m1, 0.5), 0.0, _labels("row-sum", idx))
    if with_nonneg:
        # off-diagonal coefficients are 0.5 so each scalar row reads in
        # entry units: <K, X> doubles the off-diagonal contribution
        p.add_inequalities(U, V, np.where(U == V, -1.0, -0.5), 0.0, _labels("nonneg", U, V))
        add_pair_facets(p, n, "bqp-ub", "bqp-tri0")
        p.add_inequalities(idx, idx, 1.0, 1.0, _labels("bqp-diag", idx))
    return p


def add_pair_facets(p: ConicProblem, n: int, ub_family: str, pair_family: str, offset: int = 0) -> None:
    """Append the pair facets on the indices offset..offset+n-1 as two batches.

    ``ub_family(i,j)``: X_ij <= X_ii for every ordered pair i != j, oriented
    by the bounding diagonal index i. ``pair_family(i,j)``: X_ii + X_jj -
    X_ij <= 1 for i < j. Labels carry the unshifted indices; off-diagonal
    coefficients are 0.5 because <K, X> counts them twice.
    """
    I, J = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    off = I != J
    I, J = I[off], J[off]
    r, c = np.column_stack([np.minimum(I, J), I]), np.column_stack([np.maximum(I, J), I])
    p.add_inequalities(r + offset, c + offset, [0.5, -1.0], 0.0, _labels(ub_family, I, J))
    I, J = np.triu_indices(n, 1)
    r, c = np.column_stack([I, I, J]), np.column_stack([I, J, J])
    p.add_inequalities(r + offset, c + offset, [1.0, -0.5, 1.0], 1.0, _labels(pair_family, I, J))


def build_wz(inst: BisectionInstance) -> ConicProblem:
    """Vector-lifted relaxation on the bordered matrix of order 2n+1.

    The variable is B = [[1, y^T], [y, Y]] with y = diag(Y) imposed through
    the border equalities, so B PSD is the Schur form of Y - y y^T PSD.
    Indices 1..n address the part-1 block, n+1..2n the part-2 block.

    The equalities force B v = 0 for the n+1 vectors of :func:`wz_face`, so
    no feasible B is positive definite. The problem carries that face, and
    the solver works on B = V R V^T with R of order n, where it has an
    interior (the projected relaxation of Wolkowicz and Zhao, 1999).
    """
    n = inst.n
    m1, m2 = inst.m1, inst.m2
    N = 2 * n + 1
    L = laplacian(inst.graph)
    C = np.zeros((N, N))
    C[1 : n + 1, 1 : n + 1] = L / 2.0
    C[n + 1 :, n + 1 :] = L / 2.0
    p = ConicProblem(
        block_order=N,
        obj_matrix=C,
        obj_offset=0.0,
        kind=RelaxationKind.WZ,
        trace_constant=float(n + 1),
        face=wz_face(n, m1, m2),
    )
    idx1 = np.arange(1, n + 1)
    idx2 = idx1 + n
    r, c = np.triu_indices(n)
    p.add_equalities(0, 0, 1.0, 1.0, ["corner"])
    p.add_equalities(idx1, idx1, 1.0, m1, ["trace-1"])
    p.add_equalities(idx2, idx2, 1.0, m2, ["trace-2"])
    p.add_equalities(r + 1, c + 1, 1.0, m1 * m1, ["j-trace-1"])
    p.add_equalities(r + n + 1, c + n + 1, 1.0, m2 * m2, ["j-trace-2"])
    p.add_equalities(idx1, idx2, 0.5, 0.0, _labels("y12-diag", idx1 - 1))
    p.add_equalities(np.repeat(idx1, n), np.tile(idx2, n), 1.0, 2.0 * m1 * m2, ["j-cross"])
    a = np.arange(1, N)
    r, c = np.column_stack([np.zeros_like(a), a]), np.column_stack([a, a])
    p.add_equalities(r, c, [0.5, -1.0], 0.0, _labels("border", a - 1))
    I, J = np.triu_indices(N - 1)
    v = np.where(I == J, -1.0, -0.5)
    p.add_inequalities(I + 1, J + 1, v, 0.0, _labels("nonneg", I, J))
    return p


def wz_face(n: int, m1: int, m2: int) -> np.ndarray:
    """Orthonormal (2n+1) x n basis of the face that holds every feasible
    bordered matrix of the vector-lifted relaxation.

    A lifted point (1, z, e - z) with e'z = m1 is orthogonal to the n+1
    exposing vectors (-m1, e, 0) and (-1, e_i, e_i). Their orthogonal
    complement is spanned by (1, (m1/n) e, (m2/n) e) and (0, q, -q) for q
    in an orthonormal (Helmert) basis of the complement of e.
    """
    if m1 + m2 != n:
        raise ValueError(f"part sizes {m1} + {m2} do not add up to n = {n}")
    # column j-1 of the Helmert basis: (1, ..., 1, -j, 0, ..., 0) / sqrt(j (j + 1))
    i, j = np.arange(n)[:, None], np.arange(1, n)
    Q = (np.where(i < j, 1.0, 0.0) - np.where(i == j, j, 0.0)) / np.sqrt(j * (j + 1.0))
    V = np.zeros((2 * n + 1, n))
    V[:, 0] = np.concatenate(([1.0], np.full(n, m1 / n), np.full(n, m2 / n)))
    V[:, 0] /= np.linalg.norm(V[:, 0])
    V[1 : n + 1, 1:] = Q / np.sqrt(2.0)
    V[n + 1 :, 1:] = -Q / np.sqrt(2.0)
    return V


def strictly_feasible_point(inst: BisectionInstance) -> np.ndarray:
    """Interior point of the order-n relaxation: a convex-combination matrix.

    Xhat = (m1/n) I + [m1(m1-1)/(n(n-1))] (J - I). Satisfies every equality
    of :func:`build_new` exactly; positive definite with eigenvalues m1^2/n
    (once) and m1(n-m1)/(n(n-1)) (n-1 times) for 1 <= m1 < n.
    """
    n = inst.n
    m1 = inst.m1
    a = m1 / n
    b = m1 * (m1 - 1) / (n * (n - 1))
    return (a - b) * np.eye(n) + b * np.ones((n, n))


def integer_point(inst: BisectionInstance, z: np.ndarray, kind: RelaxationKind) -> np.ndarray:
    """Lift the 0/1 part-1 indicator z to a feasible matrix of the given relaxation."""
    z = np.asarray(z, dtype=float)
    if kind in (RelaxationKind.NEW, RelaxationKind.NEW_BARE):
        return np.outer(z, z)
    if kind is RelaxationKind.BASIC:
        v = 2.0 * z - 1.0
        return np.outer(v, v)
    if kind is RelaxationKind.WZ:
        yhat = np.concatenate(([1.0], z, 1.0 - z))
        return np.outer(yhat, yhat)
    raise ValueError(f"unknown relaxation kind {kind}")


# ---------------------------------------------------------------------------
# text serialization (debugging / cross-solver verification)
# ---------------------------------------------------------------------------

def _entries_to_text(r, c, v) -> list[str]:
    """1-based 'row,col,value' triplets of the entries (r, c, v)."""
    return [f"{a + 1},{b + 1},{x:.17g}" for a, b, x in zip(r.tolist(), c.tolist(), v.tolist())]


def _entries_from_text(tok: str) -> list[tuple[int, int, float]]:
    """0-based (r, c, v) entries of the 1-based triplets in ``tok``."""
    return [(int(r) - 1, int(c) - 1, float(v)) for r, c, v in (t.split(",") for t in tok.split())]


def _columns(entries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, c, v) arrays of a list of (r, c, v) entries."""
    t = np.array(entries, dtype=float).reshape(-1, 3)
    return t[:, 0].astype(np.intp), t[:, 1].astype(np.intp), t[:, 2]


def problem_to_text(p: ConicProblem) -> str:
    """Sparse text dump: one constraint per line 'label | triplets | rhs | sense'.

    Triplets are 1-based upper-triangle (row,col,value). The objective and
    block metadata travel in header lines starting with '*'.
    """
    out = io.StringIO()
    out.write(f"* block_order {p.block_order}\n")
    out.write(f"* offset {p.obj_offset:.17g}\n")
    if p.trace_constant is not None:
        out.write(f"* trace_constant {p.trace_constant:.17g}\n")
    if p.kind is not None:
        out.write(f"* kind {p.kind.value}\n")
    r, c = np.triu_indices(p.block_order)
    nz = p.obj_matrix[r, c] != 0.0
    obj = " ".join(_entries_to_text(r[nz], c[nz], p.obj_matrix[r[nz], c[nz]]))
    out.write(f"objective | {obj} | 0 | min\n")
    senses = ["="] * p.num_eq + ["<="] * p.num_ineq
    counts, r, c, v = p.rows(np.arange(len(senses)))
    triplets = _entries_to_text(r, c, v)
    ends = np.cumsum(counts).tolist()
    rows = zip(p.eq_labels + p.ineq_labels, ends, counts.tolist(), p.eq_rhs + p.ineq_rhs, senses)
    for lab, end, k, b, sense in rows:
        out.write(f"{lab} | {' '.join(triplets[end - k : end])} | {b:.17g} | {sense}\n")
    return out.getvalue()


def problem_from_text(text: str) -> ConicProblem:
    """Inverse of :func:`problem_to_text`; each sense's rows are appended as one batch."""
    block_order = None
    offset = 0.0
    trace_constant = None
    kind = None
    obj = None
    rows = {"=": [], "<=": []}  # sense -> (label, rhs, entries) per row
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("*"):
            _, key, val = ln.split(None, 2)
            if key == "block_order":
                block_order = int(val)
            elif key == "offset":
                offset = float(val)
            elif key == "trace_constant":
                trace_constant = float(val)
            elif key == "kind":
                kind = RelaxationKind(val)
            continue
        lab, tok, rhs, sense = (t.strip() for t in ln.split("|"))
        if lab == "objective":
            obj = _entries_from_text(tok)
        elif sense in rows:
            rows[sense].append((lab, float(rhs), _entries_from_text(tok)))
        else:
            raise ValueError(f"unknown sense {sense!r}")
    if block_order is None or obj is None:
        raise ValueError("missing block_order header or objective line")
    r, c, v = _columns(obj)
    if np.any(r > c):
        raise ValueError("objective entries must be upper triangle (r <= c)")
    K = np.zeros((block_order, block_order))
    K[r, c] = v
    K[c, r] = v
    p = ConicProblem(
        block_order=block_order,
        obj_matrix=K,
        obj_offset=offset,
        kind=kind,
        trace_constant=trace_constant,
    )
    for add, batch in ((p.add_equalities, rows["="]), (p.add_inequalities, rows["<="])):
        if batch:
            labels, rhs, entries = zip(*batch)
            add(*_columns([e for row in entries for e in row]), rhs, labels, counts=list(map(len, entries)))
    return p
