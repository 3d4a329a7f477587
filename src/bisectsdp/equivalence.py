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

from .graphs import BisectionInstance
from .model import ConicProblem, SymCoeff, build_new, build_wz
from .solver import min_eigenvalue

__all__ = [
    "FeasibilityReport",
    "feasibility_report",
    "lift_new_to_wz",
    "project_wz_to_new",
    "project_wz_to_basic",
    "check_linking_identities",
    "check_bordered_psd_equivalence",
    "full_lifted_facet_rows",
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


def _split_bordered(B: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Strip the border of a (2n+1)-order matrix, or accept a plain 2n one."""
    N = B.shape[0]
    if N % 2 == 1:
        n = (N - 1) // 2
        return n, B[0, 1:], B[1:, 1:]
    return N // 2, np.diag(B).copy(), B


def lift_new_to_wz(X: np.ndarray, inst: BisectionInstance, tol: float = 1e-6) -> np.ndarray:
    """Lift a feasible order-n matrix to the bordered vector-lifted form.

    With x = diag(X), the blocks are Y11 = X, Y12 = x e^T - X and
    Y22 = J + X - x e^T - e x^T, bordered by y = (x, e - x). The output is
    feasible for the vector-lifted relaxation and has the same objective.
    """
    X = np.asarray(X, dtype=float)
    n = inst.n
    rep = feasibility_report(build_new(inst, with_nonneg=True), X, tol)
    if not rep.passed:
        raise ValueError(
            f"input is not feasible for the order-n relaxation within {tol}: "
            f"worst residual {rep.worst():.3e}, min eig {rep.min_eigenvalue:.3e}"
        )
    x = np.diag(X).copy()
    J = np.ones((n, n))
    Y11 = X
    Y12 = np.outer(x, np.ones(n)) - X
    Y22 = J + X - np.outer(x, np.ones(n)) - np.outer(np.ones(n), x)
    y = np.concatenate([x, 1.0 - x])
    B = np.empty((2 * n + 1, 2 * n + 1))
    B[0, 0] = 1.0
    B[0, 1:] = y
    B[1:, 0] = y
    B[1 : n + 1, 1 : n + 1] = Y11
    B[1 : n + 1, n + 1 :] = Y12
    B[n + 1 :, 1 : n + 1] = Y12.T
    B[n + 1 :, n + 1 :] = Y22
    return B


def project_wz_to_new(B: np.ndarray, inst: BisectionInstance, tol: float = 1e-6) -> np.ndarray:
    """Read off the part-1 block of a feasible vector-lifted matrix.

    The result is feasible for the order-n relaxation up to a modest
    amplification of the input residual, with the same objective value.
    """
    B = np.asarray(B, dtype=float)
    rep = feasibility_report(build_wz(inst), B, tol)
    if not rep.passed:
        raise ValueError(
            f"input is not feasible for the vector-lifted relaxation within {tol}: "
            f"worst residual {rep.worst():.3e}, min eig {rep.min_eigenvalue:.3e}"
        )
    n, _, Y = _split_bordered(B)
    return Y[:n, :n].copy()


def project_wz_to_basic(B: np.ndarray, inst: BisectionInstance, tol: float = 1e-6) -> np.ndarray:
    """Block-sum projection realizing the domination of the plain bound.

    X = Y11 + Y22 has unit diagonal, the right all-ones trace, and satisfies
    the shifted cone condition; its plain-relaxation objective equals the
    vector-lifted objective of B.
    """
    B = np.asarray(B, dtype=float)
    rep = feasibility_report(build_wz(inst), B, tol)
    if not rep.passed:
        raise ValueError(
            f"input is not feasible for the vector-lifted relaxation within {tol}: "
            f"worst residual {rep.worst():.3e}, min eig {rep.min_eigenvalue:.3e}"
        )
    n, _, Y = _split_bordered(B)
    return Y[:n, :n] + Y[n:, n:]


def check_linking_identities(B: np.ndarray, m1: int, m2: int, tol: float = 1e-6) -> FeasibilityReport:
    """Residuals of the linking identities every feasible lifted matrix obeys.

    The four families: Y11 + Y12 = y1 e^T, Y12^T + Y22 = y2 e^T,
    y1 + y2 = e, and Y11 e = m1 y1, Y22 e = m2 y2.
    """
    B = np.asarray(B, dtype=float)
    n, _, Y = _split_bordered(B)
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
    B = np.empty((n + 1, n + 1))
    B[0, 0] = 1.0
    B[0, 1:] = x
    B[1:, 0] = x
    B[1:, 1:] = X
    side_bordered = min_eigenvalue(B) >= -tol
    trX = float(np.trace(X))
    side_plain = (min_eigenvalue(X) >= -tol) and (
        float(np.ones(n) @ X @ np.ones(n)) >= trX * trX - tol
    )
    return side_bordered == side_plain


def full_lifted_facet_rows(n: int) -> list[tuple[SymCoeff, float, str]]:
    """Every pair/triangle facet on the 2n lifted indices, as inequality rows
    for the bordered problem. Intended for redundancy experiments only; the
    production path never generates these."""
    rows: list[tuple[SymCoeff, float, str]] = []
    N2 = 2 * n

    def E(a: int, b: int, v: float) -> tuple[tuple[int, int], float]:
        # +1 offset for the border row/column
        return (min(a, b) + 1, max(a, b) + 1), v

    for i in range(N2):
        for j in range(N2):
            if i == j:
                continue
            entries: dict[tuple[int, int], float] = {}
            k_, v = E(i, j, 0.5)
            entries[k_] = entries.get(k_, 0.0) + v
            k_, v = E(i, i, -1.0)
            entries[k_] = entries.get(k_, 0.0) + v
            rows.append((SymCoeff.from_entries(entries), 0.0, f"lift-ub({i},{j})"))
    for i in range(N2):
        for j in range(i + 1, N2):
            entries = {}
            for (a, b), v in (E(i, i, 1.0), E(j, j, 1.0), E(i, j, -0.5)):
                entries[(a, b)] = entries.get((a, b), 0.0) + v
            rows.append((SymCoeff.from_entries(entries), 1.0, f"lift-pair({i},{j})"))
    for i in range(N2):
        for j in range(N2):
            for k in range(N2):
                if i >= j or k == i or k == j:
                    continue
                entries = {}
                for (a, b), v in (
                    E(i, k, 0.5),
                    E(j, k, 0.5),
                    E(k, k, -1.0),
                    E(i, j, -0.5),
                ):
                    entries[(a, b)] = entries.get((a, b), 0.0) + v
                rows.append((SymCoeff.from_entries(entries), 0.0, f"lift-tri-a({i},{j},{k})"))
    for i in range(N2):
        for j in range(i + 1, N2):
            for k in range(j + 1, N2):
                entries = {}
                for (a, b), v in (
                    E(i, i, 1.0),
                    E(j, j, 1.0),
                    E(k, k, 1.0),
                    E(i, j, -0.5),
                    E(i, k, -0.5),
                    E(j, k, -0.5),
                ):
                    entries[(a, b)] = entries.get((a, b), 0.0) + v
                rows.append((SymCoeff.from_entries(entries), 1.0, f"lift-tri-b({i},{j},{k})"))
    return rows
