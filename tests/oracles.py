"""Independent reference implementations used only by the tests.

These deliberately avoid the production code paths: the ridge system is
solved through a full eigendecomposition (escalating to mpmath when the
float64 one cannot resolve the spectrum), the logistic optimum comes from
plain gradient descent, and all other references are brute-force
re-derivations. The one exception is ``scipy_refined_spd_solve``, the
refined solve on scipy's Cholesky routines, kept to pin the bits of the
numpy-only solve.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp
from scipy.linalg import cho_factor, cho_solve

from rnacc.errors import NumericalFailure
from rnacc.linalg import _MAX_REFINE_STEPS, _REFINE_RTOL, exact_residual
from rnacc.problems import Problem

# Below this eigenvalue ratio the float64 eigendecomposition can no
# longer place the small eigenvalues accurately enough, so the solve is
# redone at 30 significant digits.
_ESCALATE_RATIO = 1e-5


def mp_eig_solve(matrix: np.ndarray, rhs: np.ndarray, dps: int = 30) -> np.ndarray:
    """Solve via full symmetric eigendecomposition at ``dps`` digits."""
    with mp.workdps(dps):
        k = matrix.shape[0]
        m = mp.matrix(k, k)
        for i in range(k):
            for j in range(k):
                m[i, j] = mp.mpf(float(matrix[i, j]))
        eigvals, eigvecs = mp.eigsy(m)
        b = mp.matrix([mp.mpf(float(v)) for v in rhs])
        coords = eigvecs.T * b
        for i in range(k):
            coords[i] = coords[i] / eigvals[i]
        solution = eigvecs * coords
        return np.array([float(solution[i]) for i in range(k)])


def eig_ridge_solve(residuals: np.ndarray, lam: float) -> np.ndarray:
    """Eigendecomposition-based solve of (R'R + lam I) z = 1.

    Uses float64 ``eigh`` when the spectrum is comfortably resolvable
    and 30-digit arithmetic otherwise.
    """
    gram = residuals.T @ residuals
    k = gram.shape[0]
    shifted = gram + lam * np.eye(k)
    ones = np.ones(k)
    w, v = np.linalg.eigh(shifted)
    if w.min() >= _ESCALATE_RATIO * w.max():
        return v @ ((v.T @ ones) / w)
    return mp_eig_solve(shifted, ones)


def eig_coefficients(residuals: np.ndarray, lam: float) -> np.ndarray:
    """Unit-sum coefficients derived from the eigendecomposition solve."""
    z = eig_ridge_solve(residuals, lam)
    return z / z.sum()


def gd_trajectory(problem, theta0, eta: float, steps: int) -> np.ndarray:
    """Plain descent trajectory recomputed without the optimizer module."""
    theta = np.asarray(theta0, dtype=np.float64).copy()
    out = [theta.copy()]
    for _ in range(steps):
        theta = theta - eta * problem.grad(theta)
        out.append(theta.copy())
    return np.vstack(out)


def converging_window(d: int, count: int, seed: int = 0) -> np.ndarray:
    """``count`` iterates of d entries converging linearly, each entry at its own rate,
    rounded to values that f32 holds exactly, so that f64 and f32 files hold the same."""
    rng = np.random.default_rng(seed)
    limit, error, rates = rng.standard_normal((3, d))
    mat = limit + error * (0.5 + 0.499 * np.abs(np.tanh(rates))) ** np.arange(1, count + 1)[:, None]
    return mat.astype(np.float32).astype(np.float64)


def diagonal_quadratic(dim: int, condition: float, seed: int = 0):
    """``0.5 * sum(h * theta**2)``, curvatures h drawn from [1, condition]: a quadratic
    whose oracles cost O(d), for windows of many blocks of columns."""
    h = np.random.default_rng(seed).uniform(1.0, condition, dim)
    return Problem(
        "diagonal quadratic", dim, lambda t: 0.5 * float(np.dot(h * t, t)), lambda t: h * t,
        optimum=np.zeros(dim), smoothness=float(h.max()),
    )


def logistic_gd_reference(grad, dim, eta, tol=1e-12, max_iters=2_000_000):
    """Plain gradient descent to tiny gradient norm; the reference oracle.

    Deliberately the dullest possible solver so it stays independent of
    anything this package accelerates.
    """
    theta = np.zeros(dim)
    for _ in range(max_iters):
        g = grad(theta)
        if np.linalg.norm(g) <= tol:
            return theta
        theta = theta - eta * g
    raise NumericalFailure(
        f"reference solve did not reach gradient norm {tol:g} "
        f"in {max_iters} iterations"
    )


def scipy_refined_spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ z = b`` for symmetric positive definite ``a``.

    ``rnacc.linalg.refined_spd_solve``'s refinement, with its step cap,
    tolerance and stopping rules, on scipy's Cholesky factor and solves:
    the two differ only in the factorization. Raises
    ``np.linalg.LinAlgError`` if the factorization fails (matrix not
    numerically positive definite). The caller guarantees that ``a`` and
    ``b`` are finite: neither is checked here.
    """
    factor = cho_factor(a, lower=True, check_finite=False)
    z = cho_solve(factor, b, check_finite=False)
    previous = math.inf
    for _ in range(_MAX_REFINE_STEPS):
        step = cho_solve(factor, exact_residual(a, z, b), check_finite=False)
        size = np.linalg.norm(step)
        if not size < previous:
            break
        z = z + step
        if size <= _REFINE_RTOL * np.linalg.norm(z):
            break
        previous = size
    return z
