"""Constructive maps between the relaxations and their structural checks.

The order-n and vector-lifted relaxations are equivalent through explicit
formulas: a feasible X lifts to the bordered matrix via the slack blocks,
and a feasible bordered matrix projects back by reading off its leading
block. These maps preserve the objective exactly in exact arithmetic, which
makes them both a verification tool and the backbone of the property tests.
The block-sum projection onto the plain order-n relaxation realizes the
domination relation between the bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cuts import TRI_A, TRI_B, _entries, triangles
from .graphs import BisectionInstance
from .model import ConicProblem, RelaxationKind, _labels, add_pair_facets, build_new, build_wz
from .solver import min_eigenvalue

__all__ = [
    "FeasibilityReport",
    "feasibility_report",
    "lift_new_to_wz",
    "project_wz_to_new",
    "project_wz_to_basic",
    "check_linking_identities",
    "check_bordered_psd_equivalence",
    "add_lifted_facets",
]


@dataclass(frozen=True)
class FeasibilityReport:
    family_residuals: dict[str, float]
    min_eigenvalue: float
    tolerance: float
    passed: bool

    def worst(self) -> float:
        return max(self.family_residuals.values(), default=0.0)


def _family(label: str) -> str:
    return label.split("(", 1)[0]


def feasibility_report(p: ConicProblem, M: np.ndarray, tol: float = 1e-6) -> FeasibilityReport:
    """Constraint residuals of M against p, grouped by label family.

    Equalities contribute absolute residuals, inequalities only their
    positive violation. Passing means every family residual is at most tol
    and the matrix is PSD up to -tol.
    """
    res = np.concatenate([np.abs(p.eq_residuals(M)), np.maximum(p.ineq_violations(M), 0.0)])
    fams: dict[str, float] = {}
    for r, lab in zip(res.tolist(), p.eq_labels + p.ineq_labels):
        key = _family(lab)
        fams[key] = max(fams.get(key, 0.0), r)
    lam = min_eigenvalue(M) if M.size else 0.0
    passed = all(v <= tol for v in fams.values()) and lam >= -tol
    return FeasibilityReport(fams, lam, tol, passed)


def _require_feasible(p: ConicProblem, M: np.ndarray, tol: float, relaxation: str) -> None:
    N = p.block_order
    if M.shape != (N, N):
        raise ValueError(f"the {relaxation} relaxation of this instance needs shape {(N, N)}, got {M.shape}")
    rep = feasibility_report(p, M, tol)
    if not rep.passed:
        raise ValueError(
            f"input is not feasible for the {relaxation} relaxation within {tol}: "
            f"worst residual {rep.worst():.3e}, min eig {rep.min_eigenvalue:.3e}"
        )


def _split_bordered(B: np.ndarray) -> tuple[int, np.ndarray]:
    """n and the order-2n block Y of a bordered matrix of order 2n+1."""
    if B.ndim != 2 or B.shape[0] != B.shape[1] or B.shape[0] % 2 == 0:
        raise ValueError(f"expected a square matrix of odd order 2n+1, got shape {B.shape}")
    return (B.shape[0] - 1) // 2, B[1:, 1:]


def _bordered(y: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The bordered matrix [[1, y^T], [y, Y]]."""
    return np.block([[np.ones((1, 1)), y[None, :]], [y[:, None], Y]])


def lift_new_to_wz(X: np.ndarray, inst: BisectionInstance, tol: float = 1e-6) -> np.ndarray:
    """Lift a feasible order-n matrix to the bordered vector-lifted form.

    With x = diag(X), the blocks are Y11 = X, Y12 = x e^T - X and
    Y22 = J + X - x e^T - e x^T, bordered by y = (x, e - x). The output is
    feasible for the vector-lifted relaxation and has the same objective.
    """
    X = np.asarray(X, dtype=float)
    n = inst.n
    _require_feasible(build_new(inst, with_nonneg=True), X, tol, "order-n")
    x = np.diag(X).copy()
    J = np.ones((n, n))
    Y12 = np.outer(x, np.ones(n)) - X
    Y22 = J + X - np.outer(x, np.ones(n)) - np.outer(np.ones(n), x)
    return _bordered(np.concatenate([x, 1.0 - x]), np.block([[X, Y12], [Y12.T, Y22]]))


def project_wz_to_new(B: np.ndarray, inst: BisectionInstance, tol: float = 1e-6) -> np.ndarray:
    """Read off the part-1 block of a feasible vector-lifted matrix.

    The result is feasible for the order-n relaxation up to a modest
    amplification of the input residual, with the same objective value.
    """
    B = np.asarray(B, dtype=float)
    _require_feasible(build_wz(inst), B, tol, "vector-lifted")
    n, Y = _split_bordered(B)
    return Y[:n, :n].copy()


def project_wz_to_basic(B: np.ndarray, inst: BisectionInstance, tol: float = 1e-6) -> np.ndarray:
    """Block-sum projection realizing the domination of the plain bound.

    X = Y11 + Y22 has unit diagonal, the right all-ones trace, and satisfies
    the shifted cone condition; its plain-relaxation objective equals the
    vector-lifted objective of B.
    """
    B = np.asarray(B, dtype=float)
    _require_feasible(build_wz(inst), B, tol, "vector-lifted")
    n, Y = _split_bordered(B)
    return Y[:n, :n] + Y[n:, n:]


def check_linking_identities(B: np.ndarray, m1: int, m2: int, tol: float = 1e-6) -> FeasibilityReport:
    """Residuals of the linking identities every feasible lifted matrix obeys.

    The four families: Y11 + Y12 = y1 e^T, Y12^T + Y22 = y2 e^T,
    y1 + y2 = e, and Y11 e = m1 y1, Y22 e = m2 y2.
    """
    B = np.asarray(B, dtype=float)
    n, Y = _split_bordered(B)
    if m1 + m2 != n:
        raise ValueError(f"part sizes m1={m1} and m2={m2} do not add up to n={n}")
    Y11 = Y[:n, :n]
    Y12 = Y[:n, n:]
    Y22 = Y[n:, n:]
    y1 = np.diag(Y11)
    y2 = np.diag(Y22)
    e = np.ones(n)
    fams = {
        "row-link-1": float(np.abs(Y11 + Y12 - np.outer(y1, e)).max()),
        "row-link-2": float(np.abs(Y12.T + Y22 - np.outer(y2, e)).max()),
        "partition": float(np.abs(y1 + y2 - e).max()),
        "degree-1": float(np.abs(Y11 @ e - m1 * y1).max()),
        "degree-2": float(np.abs(Y22 @ e - m2 * y2).max()),
    }
    passed = max(fams.values()) <= tol
    return FeasibilityReport(fams, 0.0, tol, passed)


def check_bordered_psd_equivalence(X: np.ndarray, tol: float = 1e-8) -> bool:
    """Numerically verify the bordered-PSD equivalence.

    For X with X e parallel to diag(X), the bordered matrix
    [[1, diag(X)^T], [diag(X), X]] is PSD exactly when X is PSD and
    <J, X> >= (tr X)^2. Returns whether the two sides agree at tol.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    x = np.diag(X).copy()
    Xe = X @ np.ones(n)
    xx = float(x @ x)
    c = float(x @ Xe) / xx if xx > 0 else 0.0
    scale = 1.0 + float(np.abs(X).max()) * n
    if np.abs(Xe - c * x).max() > 1e-6 * scale:
        raise ValueError("X e is not parallel to diag(X); the equivalence needs it")
    side_bordered = min_eigenvalue(_bordered(x, X)) >= -tol
    trX = float(np.trace(X))
    side_plain = (min_eigenvalue(X) >= -tol) and (
        float(np.ones(n) @ X @ np.ones(n)) >= trX * trX - tol
    )
    return side_bordered == side_plain


def add_lifted_facets(p: ConicProblem) -> None:
    """Append every pair/triangle facet on the 2n lifted indices of a
    vector-lifted problem, as the batches lift-ub, lift-pair, lift-tri-a and
    lift-tri-b. Intended for redundancy experiments only; the production
    path never generates these."""
    if p.kind is not RelaxationKind.WZ:
        raise ValueError("lifted facets apply to the vector-lifted relaxation only")
    N2 = p.block_order - 1
    # +1 offset for the border row/column
    add_pair_facets(p, N2, "lift-ub", "lift-pair", offset=1)
    for kind, mask in zip((TRI_A, TRI_B), triangles(N2)):
        t = np.argwhere(mask)
        r, c, v = _entries(kind, t)
        rhs = 0.0 if kind == TRI_A else 1.0
        p.add_inequalities(r + 1, c + 1, v, rhs, _labels(f"lift-{kind}", *t.T))
