"""The IPM's dense kernels call LAPACK directly. Each must return exactly
what the scipy.linalg function it replaces returns, raise as that function
does, and leave every solve bit-identical."""

import numpy as np
import pytest
import scipy.linalg as sla

import bisectsdp.solver as solver
from bisectsdp import SolverConfig, SolverStatus, build_new, build_wz

ORDERS = [1, 8, 29, 61]


def _symmetric(n, seed):
    G = np.random.default_rng(seed).standard_normal((n, n))
    return 0.5 * (G + G.T)


def _spd(n, seed):
    G = np.random.default_rng(seed).standard_normal((n, n))
    return G @ G.T + 0.1 * np.eye(n)


@pytest.mark.parametrize("n", ORDERS)
def test_cholesky_factor_and_solve_match_scipy(n):
    S = _spd(n, n)
    c = solver._factor_schur(S)
    assert np.array_equal(c, sla.cho_factor(S, lower=True, check_finite=False)[0])
    rng = np.random.default_rng(n + 1)
    for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        expected = sla.cho_solve((c, True), b, check_finite=False)
        assert np.array_equal(solver._cho_solve(c, b), expected)


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("lower", [True, False])
@pytest.mark.parametrize("order", ["C", "F"])
def test_triangular_solve_matches_scipy(n, lower, order):
    L = np.linalg.cholesky(_spd(n, n))
    a = np.asarray(L if lower else L.T, order=order)
    B = np.random.default_rng(n).standard_normal((n, n))
    # the solver passes both C-ordered right-hand sides and transposes
    for b in (B, B.T, B[:, 0]):
        expected = sla.solve_triangular(a, b, lower=lower, check_finite=False)
        assert np.array_equal(solver._solve_triangular(a, b, lower=lower), expected)


@pytest.mark.parametrize("n", ORDERS)
def test_eigenproblems_match_scipy(n):
    A = _symmetric(n, n)
    expected = sla.eigvalsh(A, subset_by_index=[0, 0], check_finite=False)[0]
    assert np.array_equal(solver._min_eigvalsh(A), expected)
    for got, want in zip(solver._eigh(A), sla.eigh(A, check_finite=False)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", ORDERS)
def test_svd_matches_scipy(n):
    G = np.random.default_rng(n).standard_normal((n, n))
    for got, want in zip(solver._svd(G), sla.svd(G, check_finite=False)):
        assert np.array_equal(got, want)


def test_empty_schur_matrix_factors_and_solves():
    """A problem with no rows has a Schur matrix of order 0."""
    S = np.zeros((0, 0))
    c = solver._factor_schur(S)
    assert c.shape == sla.cho_factor(S, lower=True)[0].shape == (0, 0)
    x = solver._cho_solve(c, np.zeros(0))
    assert x.shape == sla.cho_solve((c, True), np.zeros(0)).shape == (0,)


def test_schur_factor_shifts_a_singular_matrix():
    S = np.ones((3, 3))
    with pytest.raises(np.linalg.LinAlgError):
        sla.cho_factor(S, lower=True)
    L = np.tril(solver._factor_schur(S))
    shift = np.diag(L @ L.T - S)
    assert np.all(shift > 0) and np.all(shift <= 1e-3)
    assert np.allclose(L @ L.T, S + shift[0] * np.eye(3), rtol=0, atol=1e-12)


def test_schur_factor_gives_up_past_its_largest_shift():
    with pytest.raises(np.linalg.LinAlgError):
        solver._factor_schur(-np.eye(3))


@pytest.mark.parametrize(
    "routine, call",
    [
        ("_potrf", solver._factor_schur),
        ("_potrs", lambda A: solver._cho_solve(A, np.ones(4))),
        ("_trtrs", lambda A: solver._solve_triangular(A, np.ones((4, 4)), lower=True)),
        ("_syevr", solver._min_eigvalsh),
        ("_syevr", solver._eigh),
        ("_gesdd", solver._svd),
    ],
    ids=["factor", "cho_solve", "triangular", "min_eigvalsh", "eigh", "svd"],
)
@pytest.mark.parametrize("info, error", [(2, np.linalg.LinAlgError), (-1, ValueError)])
def test_nonzero_info_raises(monkeypatch, routine, call, info, error):
    real = getattr(solver, routine)

    def failing(*args, **kwargs):
        *out, _ = real(*args, **kwargs)
        return (*out, info)

    failing.__name__ = real.__name__
    monkeypatch.setattr(solver, routine, failing)
    with pytest.raises(error, match=real.__name__):
        call(_spd(4, 0))


def test_svd_failure_ends_the_solve_as_a_breakdown(gnp8, monkeypatch):
    def failing_svd(A):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(solver, "_svd", failing_svd)
    p = build_new(gnp8)
    sol = solver._ipm(solver._Data(p, np.arange(p.num_ineq)), SolverConfig())
    assert sol.status is SolverStatus.NUMERICAL_TROUBLE
    assert sol.message.startswith("factorization breakdown") and "SVD" in sol.message


@pytest.mark.parametrize("build", [build_new, build_wz], ids=["new", "wz"])
def test_solve_is_bit_identical_to_the_scipy_calls(gnp8, monkeypatch, build):
    """A whole solve, sifting passes and all, rounds exactly as it does
    through the scipy.linalg calls the kernels replace."""
    p = build(gnp8)
    direct = solver.solve(p, SolverConfig(tol=1e-9))

    def potrf(a, lower, clean):
        # the jitter ladder stays in place above scipy's factor
        try:
            return sla.cho_factor(a, lower=True, check_finite=False)[0], 0
        except np.linalg.LinAlgError:
            return a, 1

    scipy_kernels = {
        "_potrf": potrf,
        "_cho_solve": lambda c, b: sla.cho_solve((c, True), b, check_finite=False),
        "_solve_triangular": lambda a, b, lower: sla.solve_triangular(
            a, b, lower=lower, check_finite=False),
        "_min_eigvalsh": lambda A: sla.eigvalsh(A, subset_by_index=[0, 0], check_finite=False)[0],
        "_eigh": lambda A: sla.eigh(A, check_finite=False),
        "_svd": lambda A: sla.svd(A, check_finite=False),
    }
    for name, fn in scipy_kernels.items():
        monkeypatch.setattr(solver, name, fn)
    through_scipy = solver.solve(p, SolverConfig(tol=1e-9))
    assert direct.iterations == through_scipy.iterations
    assert direct.status is through_scipy.status
    for field in ("primal", "dual_eq", "dual_ineq"):
        assert np.array_equal(getattr(direct, field), getattr(through_scipy, field))
    assert direct.residuals == through_scipy.residuals
