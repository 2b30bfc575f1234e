"""Desk-scale differentiable objectives with gradient oracles.

Three families: random positive definite quadratics (known optimum by a
direct dense solve), l2-regularized logistic regression on synthetic
Gaussian data (reference optimum by damped Newton with the exact Hessian,
down to gradient norm 1e-12; a Hessian that is numerically singular
relative to the smoothness constant, as on separable data without l2,
raises NumericalFailure instead of returning a false optimum), and a
small tanh network trained by mean squared error (no optimum attached;
smooth enough for clean finite-difference checks). Constructors are
deterministic in their seed, and each builds its oracles from one loss's
forward pass, value and gradient.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import InvalidConfig, NumericalFailure, _require_int

__all__ = [
    "Problem",
    "make_quadratic",
    "make_logistic",
    "make_mlp",
    "split_mlp_params",
    "finite_difference_gradient",
]


class Problem:
    """A differentiable objective with its gradient oracle.

    Attributes:
        name: Human-readable identifier.
        dim: Parameter count d.
        f: Objective, maps a d-vector to a float.
        grad: Gradient oracle, maps a d-vector to a d-vector: an array of
            theta's shape.
        smoothness: Largest curvature L when known (used for step-size
            defaults), else None.
        n_samples: Data set size for finite-sum objectives, else None.
        batch_grad: Optional ``(theta, indices) -> gradient`` oracle for
            mini-batches (mean over the batch plus the full regularizer),
            an array of theta's shape.
        value_and_grad: Optional ``theta -> (f(theta), grad(theta))`` oracle
            that shares the work the two have in common; it must return the
            bits of ``f`` and ``grad`` called apart. Whoever replaces ``f`` or
            ``grad`` must replace it too, or set it to None.
        extras: Problem-specific data (design matrix, targets, ...) for
            tests and demos.

    ``optimum`` may be given as a vector or as a zero-argument callable;
    callables are evaluated lazily on first access and cached, which
    keeps expensive reference solves out of constructors.
    """

    def __init__(
        self,
        name: str,
        dim: int,
        f: Callable[[np.ndarray], float],
        grad: Callable[[np.ndarray], np.ndarray],
        optimum=None,
        smoothness: float | None = None,
        n_samples: int | None = None,
        batch_grad=None,
        extras: dict | None = None,
        value_and_grad=None,
    ):
        self.name = name
        self.dim = int(dim)
        self.f = f
        self.grad = grad
        self.smoothness = smoothness
        self.n_samples = n_samples
        self.batch_grad = batch_grad
        self.value_and_grad = value_and_grad
        self.extras = extras or {}
        if callable(optimum):
            self._optimum = None
            self._optimum_solver = optimum
        else:
            self._optimum = None if optimum is None else np.asarray(optimum, float)
            self._optimum_solver = None

    @property
    def optimum(self) -> np.ndarray | None:
        if self._optimum is None and self._optimum_solver is not None:
            self._optimum = np.asarray(self._optimum_solver(), dtype=np.float64)
            self._optimum_solver = None
        return self._optimum

    def __repr__(self) -> str:
        return f"Problem({self.name!r}, dim={self.dim})"


def _oracles(forward, value, gradient, samples=()) -> dict:
    """A loss's oracles, as :class:`Problem` keyword arguments.

    ``forward(theta, *samples)`` is the pass the loss's value and gradient share,
    ``value(theta, state)`` the objective and ``gradient(theta, state, *samples)`` its
    gradient, given that pass's ``state``. Each of ``f``, ``grad`` and ``value_and_grad``
    makes the pass once, so ``value_and_grad`` has the bits of ``f`` and ``grad``. With
    ``samples``, arrays whose rows are the n data points of a finite sum, the result
    also holds ``n_samples`` and ``batch_grad``, the same gradient on the rows
    ``indices``.
    """

    def grad_on(theta, rows):
        theta = np.asarray(theta, float)
        return gradient(theta, forward(theta, *rows), *rows)

    def f(theta: np.ndarray) -> float:
        theta = np.asarray(theta, float)
        return value(theta, forward(theta, *samples))

    def grad(theta: np.ndarray) -> np.ndarray:
        return grad_on(theta, samples)

    def batch_grad(theta: np.ndarray, indices) -> np.ndarray:
        return grad_on(theta, [rows[indices] for rows in samples])

    def value_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        theta = np.asarray(theta, float)
        state = forward(theta, *samples)
        return value(theta, state), gradient(theta, state, *samples)

    oracles = {"f": f, "grad": grad, "value_and_grad": value_and_grad}
    if samples:
        oracles.update(n_samples=len(samples[0]), batch_grad=batch_grad)
    return oracles


def make_quadratic(dim: int, condition: float, seed: int = 0) -> Problem:
    """Random strongly convex quadratic ``f(x) = x'Ax/2 - b'x``.

    A is symmetric positive definite with eigenvalues log-spaced in
    [1, condition] over a random orthogonal basis; the optimum A^{-1} b
    comes from a direct dense solve and the smoothness constant is the
    largest eigenvalue.
    """
    dim, seed = _require_int("dim", dim), _require_int("seed", seed, minimum=0)
    if not (condition >= 1.0 and math.isfinite(condition)):
        raise InvalidConfig(f"condition must be finite and >= 1, got {condition}")
    rng = np.random.default_rng(seed)
    eigs = np.logspace(0.0, np.log10(condition), dim)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    mat = basis @ (eigs[:, None] * basis.T)
    mat = 0.5 * (mat + mat.T)
    rhs = rng.standard_normal(dim)

    return Problem(
        name=f"quadratic(d={dim}, cond={condition:g}, seed={seed})",
        dim=dim,
        optimum=np.linalg.solve(mat, rhs),
        smoothness=float(eigs.max()),
        extras={"matrix": mat, "rhs": rhs, "eigenvalues": eigs},
        **_oracles(
            lambda theta: mat @ theta,
            lambda theta, mat_theta: 0.5 * float(theta @ mat_theta) - float(rhs @ theta),
            lambda theta, mat_theta: mat_theta - rhs,
        ),
    )


# The Hessian is accumulated over blocks of this many samples, so that no
# n x d temporary is made.
_HESSIAN_BLOCK_ROWS = 128

# A Hessian whose smallest eigenvalue is at most this fraction of the
# smoothness constant has no usable Newton step. On separable data with
# l2 = 0, theta runs off to infinity and the ratio keeps falling (to 2e-13
# or below by the time the gradient norm reaches 1e-12); instances with a
# true optimum (l2 from 1e-6 up, or non-separable data) kept it at 1.3e-5
# or above at their solution.
_SINGULAR_RATIO = 1e-10

_ARMIJO_SLOPE = 1e-4
_MAX_HALVINGS = 60


def _expit(x):
    """The logistic sigmoid ``1 / (1 + exp(-x))``; exactly 0 where exp(-x) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _logistic_reference(problem: Problem, l2: float, tol=1e-12, max_steps=100):
    """Damped Newton from zero to gradient norm ``tol``; the reference optimum.

    The step solves the exact Hessian ``X'WX/n + l2*I``, with
    ``W = s(1 - s)`` and ``s = _expit(labels * (X @ theta))``, and is
    backtracked by an Armijo test on f while the decrement ``g'step`` is
    still resolvable next to f (above 1e-12 * |f|); below that f cannot
    see a decrease, so the full step is taken. A numerically singular
    Hessian, a failed line search or ``max_steps`` steps without
    convergence raise NumericalFailure.
    """
    x, labels = problem.extras["features"], problem.extras["labels"]
    n, dim = x.shape
    theta = np.zeros(dim)
    for _ in range(max_steps):
        g = problem.grad(theta)
        if np.linalg.norm(g) <= tol:
            return theta
        s = _expit(labels * (x @ theta))
        w = s * (1.0 - s)
        hess = np.zeros((dim, dim))
        for lo in range(0, n, _HESSIAN_BLOCK_ROWS):
            block = x[lo : lo + _HESSIAN_BLOCK_ROWS]
            hess += block.T @ (w[lo : lo + _HESSIAN_BLOCK_ROWS, None] * block)
        hess = hess / n + l2 * np.eye(dim)
        # H - tau*I has a Cholesky factor iff H's smallest eigenvalue exceeds tau.
        try:
            np.linalg.cholesky(hess - _SINGULAR_RATIO * problem.smoothness * np.eye(dim))
        except np.linalg.LinAlgError:
            raise NumericalFailure(
                "reference solve: the logistic Hessian is numerically singular "
                "(separable data without l2 has no finite optimum)"
            ) from None
        step = np.linalg.solve(hess, g)
        decrement = float(g @ step)
        f0 = problem.f(theta)
        t = 1.0
        if decrement > 1e-12 * abs(f0):
            for _ in range(_MAX_HALVINGS):
                if problem.f(theta - t * step) <= f0 - _ARMIJO_SLOPE * t * decrement:
                    break
                t *= 0.5
            else:
                raise NumericalFailure("reference solve: Newton line search failed")
        theta = theta - t * step
    raise NumericalFailure(
        f"reference solve did not reach gradient norm {tol:g} in {max_steps} Newton steps"
    )


def make_logistic(n_samples: int, dim: int, l2: float, seed: int = 0) -> Problem:
    """l2-regularized logistic loss on synthetic Gaussian data.

    Labels come from a planted separator with mild margin noise. For
    l2 > 0 the objective is strongly convex; its optimum has no closed
    form, so ``problem.optimum`` lazily runs damped Newton with the exact
    Hessian down to gradient norm 1e-12 and caches the result. With
    l2 = 0 on separable data there is no finite optimum: the Hessian
    becomes numerically singular (smallest eigenvalue at most 1e-10 of
    the smoothness constant) and ``problem.optimum`` raises
    NumericalFailure.
    """
    n_samples, dim = _require_int("n_samples", n_samples), _require_int("dim", dim)
    seed = _require_int("seed", seed, minimum=0)
    if not (l2 >= 0.0 and math.isfinite(l2)):
        raise InvalidConfig(f"l2 must be finite and >= 0, got {l2}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_samples, dim))
    planted = rng.standard_normal(dim)
    labels = np.where(x @ planted + 0.1 * rng.standard_normal(n_samples) >= 0, 1.0, -1.0)
    n = float(n_samples)
    # Largest curvature: logistic term is bounded by ||X||^2 / (4n), from X'X or XX'.
    gram = x.T @ x if dim <= n_samples else x @ x.T
    smoothness = float(l2 + np.linalg.eigvalsh(gram).max() / (4.0 * n))

    def margins(theta, xb, yb):
        return yb * (xb @ theta)

    def value(theta, m):
        return float(np.mean(np.logaddexp(0.0, -m))) + 0.5 * l2 * float(theta @ theta)

    def gradient(theta, m, xb, yb):
        return -(xb.T @ (yb * _expit(-m))) / len(yb) + l2 * theta

    problem = Problem(
        name=f"logistic(n={n_samples}, d={dim}, l2={l2:g}, seed={seed})",
        dim=dim,
        optimum=lambda: _logistic_reference(problem, l2),
        smoothness=smoothness,
        extras={"features": x, "labels": labels, "planted": planted},
        **_oracles(margins, value, gradient, (x, labels)),
    )
    return problem


def split_mlp_params(theta, d_in: int, hidden: int):
    """Unpack a flat parameter vector into (w1, b1, w2, b2).

    Layout: w1 (hidden x d_in, row-major), then b1 (hidden), w2 (hidden),
    b2 (scalar).
    """
    theta = np.asarray(theta, float)
    n1 = hidden * d_in
    w1 = theta[:n1].reshape(hidden, d_in)
    b1 = theta[n1 : n1 + hidden]
    w2 = theta[n1 + hidden : n1 + 2 * hidden]
    b2 = theta[n1 + 2 * hidden]
    return w1, b1, w2, b2


def make_mlp(d_in: int, hidden: int, n_samples: int, seed: int = 0) -> Problem:
    """Mean squared regression loss of a one-hidden-layer tanh network.

    Targets come from a random teacher network plus noise and are
    centered to zero mean. The loss is ``mean((pred - y)^2) / 2``; the
    gradient is hand-accumulated reverse mode. tanh keeps everything
    smooth, so finite-difference checks are clean. No optimum is
    attached: the landscape is nonconvex.
    """
    d_in, hidden = _require_int("d_in", d_in), _require_int("hidden", hidden)
    n_samples, seed = _require_int("n_samples", n_samples), _require_int("seed", seed, minimum=0)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_samples, d_in))
    teacher_w1 = rng.standard_normal((hidden, d_in)) / np.sqrt(d_in)
    teacher_w2 = rng.standard_normal(hidden) / np.sqrt(hidden)
    y = np.tanh(x @ teacher_w1.T) @ teacher_w2 + 0.05 * rng.standard_normal(n_samples)
    y = y - y.mean()
    dim = hidden * d_in + 2 * hidden + 1

    def forward(theta, inputs, targets):
        w1, b1, w2, b2 = split_mlp_params(theta, d_in, hidden)
        act = np.tanh(inputs @ w1.T + b1)
        return act, act @ w2 + b2 - targets

    def value(theta, state):
        return 0.5 * float(np.mean(state[1] ** 2))

    def gradient(theta, state, inputs, targets):
        act, residual = state
        w2 = split_mlp_params(theta, d_in, hidden)[2]
        dpred = residual / len(targets)
        db2 = dpred.sum()
        dw2 = act.T @ dpred
        dact = np.outer(dpred, w2) * (1.0 - act**2)
        dw1 = dact.T @ inputs
        db1 = dact.sum(axis=0)
        return np.concatenate([dw1.ravel(), db1, dw2, [db2]])

    return Problem(
        name=f"mlp(d_in={d_in}, hidden={hidden}, n={n_samples}, seed={seed})",
        dim=dim,
        extras={"inputs": x, "targets": y, "d_in": d_in, "hidden": hidden},
        **_oracles(forward, value, gradient, (x, y)),
    )


def finite_difference_gradient(f, theta, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient estimate, one coordinate at a time.

    Independent of any analytic gradient code by construction; this is
    the oracle the gradient oracles are checked against.
    """
    theta = np.asarray(theta, dtype=np.float64)
    out = np.empty_like(theta)
    for i in range(theta.size):
        probe = theta.copy()
        probe[i] = theta[i] + step
        hi = f(probe)
        probe[i] = theta[i] - step
        lo = f(probe)
        out[i] = (hi - lo) / (2.0 * step)
    return out
