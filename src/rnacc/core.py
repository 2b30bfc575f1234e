"""Regularized nonlinear acceleration of iterate sequences.

Given a window of m successive iterates ``theta_0 .. theta_{m-1}`` of an
optimizer, build the residual matrix ``R`` of consecutive differences,
solve the ridge-regularized Gram system ``(R^T R + lam*I) z = 1``,
normalize the solution to unit sum, and return the affine combination
``theta_hat = sum_k c_k theta_{sigma(k)}``. For gradient descent the
residual columns are scaled negative gradients, so the combination
approximately minimizes the gradient norm of the extrapolated point;
near a minimum, where the objective is close to quadratic, the window
spans a Krylov subspace and the extrapolation can land far closer to the
optimum than the last iterate.

Coefficients may be negative; only their sum is constrained. All
arithmetic is float64 regardless of how iterates were stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (
    DegenerateSum,
    DimensionMismatch,
    InvalidConfig,
    NumericalFailure,
    SingularSystem,
    WindowTooSmall,
    _require_int,
)
from .linalg import refined_spd_solve

__all__ = [
    "WeightTarget",
    "RnaConfig",
    "Coefficients",
    "as_iterate_matrix",
    "build_residuals",
    "solve_regularized",
    "normalize",
    "extrapolate",
    "rna",
    "adaptive_rna",
]

# |sum(z)| below this multiple of ||z||_1 means the affine combination
# is undefined; callers are told to raise lam instead.
DEGENERATE_SUM_RTOL = 1e-12


class WeightTarget(Enum):
    """Which m-1 of the m window iterates the coefficients weight.

    ``LATEST`` assigns coefficient k to the iterate each residual leads
    *to* (``theta_1 .. theta_{m-1}``); ``OLDEST`` to the iterate it
    starts from (``theta_0 .. theta_{m-2}``).
    """

    LATEST = "latest"
    OLDEST = "oldest"


def _as_weight_target(value) -> WeightTarget:
    if isinstance(value, WeightTarget):
        return value
    try:
        return WeightTarget(str(value).lower())
    except ValueError:
        raise InvalidConfig(
            f"unknown weight target {value!r}; expected 'latest' or 'oldest'"
        ) from None


@dataclass(frozen=True)
class RnaConfig:
    """Acceleration settings.

    Attributes:
        window: Maximum number of residuals K per extrapolation; the
            window holds at most K+1 iterates. Default 10.
        lam: Ridge added to the Gram matrix. Default 1e-8.
        lam_grid: Optional strictly increasing grid of positive ridges
            for adaptive selection; ``None`` disables it.
        weight_target: See :class:`WeightTarget`. Default ``LATEST``.
    """

    window: int = 10
    lam: float = 1e-8
    lam_grid: tuple[float, ...] | None = None
    weight_target: WeightTarget = WeightTarget.LATEST

    def __post_init__(self):
        object.__setattr__(self, "window", _require_int("window", self.window))
        if not (self.lam >= 0.0) or not math.isfinite(self.lam):
            raise InvalidConfig(f"lam must be finite and >= 0, got {self.lam}")
        object.__setattr__(self, "lam", float(self.lam))
        if self.lam_grid is not None:
            grid = tuple(float(g) for g in self.lam_grid)
            if not grid:
                raise InvalidConfig("lam_grid must be nonempty when given")
            if any(not (g > 0.0) or not math.isfinite(g) for g in grid):
                raise InvalidConfig("lam_grid entries must be finite and > 0")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise InvalidConfig("lam_grid must be strictly increasing")
            object.__setattr__(self, "lam_grid", grid)
        object.__setattr__(
            self, "weight_target", _as_weight_target(self.weight_target)
        )


@dataclass(frozen=True)
class Coefficients:
    """Solved combination weights.

    Attributes:
        weights: Length-K unit-sum coefficient vector c.
        lam_used: Ridge that actually entered the solve (it may exceed
            the requested one by a one-shot trace-scaled bump), or
            ``None`` when not applicable.
        raw_solution: The pre-normalization solution z of the Gram
            system.
    """

    weights: np.ndarray
    lam_used: float | None
    raw_solution: np.ndarray

    def __len__(self) -> int:
        return len(self.weights)


def as_iterate_matrix(iterates) -> np.ndarray:
    """Validate and stack iterates into an (m, d) float64 matrix.

    Accepts a 2-D array (rows = iterates, oldest first) or a sequence of
    1-D vectors; a float64 array comes back as is, not copied. Raises
    DimensionMismatch for ragged input and NumericalFailure naming the
    first iterate (0-based, oldest first) with NaN or infinite entries:
    the one value check of every path, checkpoint files included.
    """
    if isinstance(iterates, np.ndarray) and iterates.ndim == 2:
        mat = np.asarray(iterates, dtype=np.float64)
    else:
        rows = [np.asarray(v, dtype=np.float64) for v in iterates]
        if not rows:
            raise WindowTooSmall("empty iterate sequence")
        dims = {r.shape for r in rows}
        if len(dims) != 1 or rows[0].ndim != 1:
            raise DimensionMismatch(
                f"iterates must share one dimension, got shapes {sorted(dims)}"
            )
        mat = np.vstack(rows)
    if mat.shape[0] == 0:
        raise WindowTooSmall("empty iterate sequence")
    if mat.shape[1] == 0:
        raise DimensionMismatch("iterates must be nonempty vectors")
    if not np.isfinite(mat).all():
        bad = np.isfinite(mat).all(axis=1).argmin()
        raise NumericalFailure(f"iterate {bad} of {len(mat)} contains NaN or infinite entries")
    return mat


def _validated(iterates) -> np.ndarray:
    """:func:`as_iterate_matrix`, plus the two iterates every stage needs."""
    mat = as_iterate_matrix(iterates)
    if mat.shape[0] < 2:
        raise WindowTooSmall(
            f"need at least 2 iterates to extrapolate, got {mat.shape[0]}"
        )
    return mat


def _gram(window: np.ndarray) -> np.ndarray:
    """Return ``R^T R`` for the window's residuals, formed as ``D @ D.T``."""
    diffs = np.diff(window, axis=0)
    with np.errstate(over="ignore"):  # _solve_gram reports a Gram matrix that overflowed
        return diffs @ diffs.T


def _combine(window: np.ndarray, weights: np.ndarray, target: WeightTarget) -> np.ndarray:
    return weights @ (window[1:] if target is WeightTarget.LATEST else window[:-1])


def build_residuals(iterates) -> np.ndarray:
    """Return the d x (m-1) matrix whose column k is theta_{k+1} - theta_k.

    For an exact gradient descent trajectory with step eta, column k
    equals ``-eta * grad f(theta_k)``, which is what makes the Gram
    solve a proxy for gradient-norm minimization.

    Raises:
        WindowTooSmall: Fewer than two iterates.
        DimensionMismatch: Iterates of inconsistent dimension.
        NumericalFailure: Non-finite entries.
    """
    return np.diff(_validated(iterates), axis=0).T


def _shifted_solve(gram: np.ndarray, lam: float) -> np.ndarray:
    """Solve (gram + lam*I) z = 1; a shifted matrix that overflowed raises NumericalFailure."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf ridge times I's zeros is NaN
        shifted = gram + lam * np.eye(gram.shape[0])
    if not np.isfinite(shifted).all():
        raise NumericalFailure(f"residual Gram matrix is not finite with the ridge {lam:g} added")
    return refined_spd_solve(shifted, np.ones(gram.shape[0]))


def _solve_gram(gram: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
    """Solve (gram + lam*I) z = 1, bumping lam once on factorization failure.

    Returns (z, effective lam). The bump adds ``10 * eps * trace(gram)``,
    enough to absorb the rounding incurred while forming the Gram matrix;
    it is attempted only for lam > 0, since lam == 0 with a singular
    Gram is a caller error by contract. A Gram matrix that overflowed,
    or overflows once the ridge is added, raises NumericalFailure.
    """
    if not np.isfinite(gram).all():
        raise NumericalFailure("residual Gram matrix is not finite: the residuals overflow")
    try:
        return _shifted_solve(gram, lam), lam
    except np.linalg.LinAlgError:
        if lam > 0.0:
            with np.errstate(over="ignore"):  # an infinite bump is reported by _shifted_solve
                bumped = lam + 10.0 * np.finfo(np.float64).eps * float(np.trace(gram))
            try:
                return _shifted_solve(gram, bumped), bumped
            except np.linalg.LinAlgError:
                pass
        raise SingularSystem(
            "residual Gram matrix is numerically singular"
            + (" at lam=0; use lam > 0" if lam == 0.0 else f" even at lam={lam:g}")
        ) from None


def solve_regularized(residuals: np.ndarray, lam: float) -> np.ndarray:
    """Solve ``(R^T R + lam*I) z = 1`` for the raw combination weights.

    Forms the K x K Gram matrix explicitly (O(K^2 d)) and solves by
    Cholesky with exact-residual refinement (O(K^3)). If the requested
    ``lam`` is positive but rounding makes the shifted Gram numerically
    indefinite, the ridge is bumped once by ``10 * eps * trace(R^T R)``
    before giving up.

    Args:
        residuals: d x K residual matrix.
        lam: Ridge parameter, >= 0. ``lam == 0`` requires a numerically
            nonsingular Gram matrix.

    Returns:
        z of length K.

    Raises:
        SingularSystem: Rank-deficient system that the bump cannot fix.
        NumericalFailure: Non-finite entries in ``residuals``, or a Gram
            matrix that overflows.
        InvalidConfig: Negative or non-finite ``lam``.
    """
    r = np.asarray(residuals, dtype=np.float64)
    if r.ndim != 2:
        raise DimensionMismatch(f"residual matrix must be 2-D, got ndim={r.ndim}")
    if not np.isfinite(r).all():
        raise NumericalFailure("residual matrix contains NaN or infinite entries")
    if not (lam >= 0.0) or not math.isfinite(lam):
        raise InvalidConfig(f"lam must be finite and >= 0, got {lam}")
    with np.errstate(over="ignore"):  # reported by _solve_gram
        gram = r.T @ r
    z, _ = _solve_gram(gram, float(lam))
    return z


def normalize(raw_solution, lam_used: float | None = None) -> Coefficients:
    """Scale z to unit sum: ``c = z / sum(z)``.

    The sum is accumulated with ``math.fsum`` and the largest entry of c
    receives a single correction so that the coefficient sum is exact to
    within one ulp of the largest coefficient. Negative weights are
    legal; the combination is affine, not convex.

    Raises:
        DegenerateSum: ``|sum(z)| < 1e-12 * ||z||_1`` (raise lam).
        NumericalFailure: Non-finite entries.
    """
    z = np.asarray(raw_solution, dtype=np.float64).ravel()
    if z.size == 0:
        raise DimensionMismatch("empty raw solution")
    if not np.isfinite(z).all():
        raise NumericalFailure("raw solution contains NaN or infinite entries")
    total = math.fsum(z)
    if abs(total) < DEGENERATE_SUM_RTOL * math.fsum(np.abs(z)):
        raise DegenerateSum(
            f"raw solution sums to {total:.3e}, which is negligible against "
            f"its own magnitude; increase lam"
        )
    c = z / total
    c[np.argmax(np.abs(c))] -= math.fsum(c) - 1.0
    return Coefficients(weights=c, lam_used=lam_used, raw_solution=z)


def extrapolate(iterates, coefficients, target=WeightTarget.LATEST) -> np.ndarray:
    """Combine window iterates: ``theta_hat = sum_k c_k theta_{sigma(k)}``.

    With m iterates and m-1 coefficients, ``LATEST`` weights
    ``theta_1 .. theta_{m-1}`` and ``OLDEST`` weights
    ``theta_0 .. theta_{m-2}``.

    Accepts a :class:`Coefficients` or a bare weight vector. Raises
    DimensionMismatch unless ``len(c) == m - 1``.
    """
    mat = as_iterate_matrix(iterates)
    weights = np.asarray(getattr(coefficients, "weights", coefficients), dtype=np.float64)
    if weights.ndim != 1 or weights.size != mat.shape[0] - 1:
        raise DimensionMismatch(
            f"{weights.size} coefficients cannot weight {mat.shape[0]} iterates "
            f"(need exactly m - 1)"
        )
    return _combine(mat, weights, _as_weight_target(target))


def rna(iterates, config: RnaConfig | None = None) -> tuple[np.ndarray, Coefficients]:
    """Run the full acceleration step on (a suffix of) the iterates.

    Uses at most the last ``config.window + 1`` iterates, silently
    shrinking the window when fewer are available (so the procedure is
    usable from the second epoch onward). Validates once, then does the
    work of :func:`build_residuals`, :func:`solve_regularized`,
    :func:`normalize`, and :func:`extrapolate`; deterministic.

    Returns:
        (theta_hat, coefficients).
    """
    cfg = config if config is not None else RnaConfig()
    window = _validated(iterates)[-(cfg.window + 1):]
    coeffs = normalize(*_solve_gram(_gram(window), cfg.lam))
    return _combine(window, coeffs.weights, cfg.weight_target), coeffs


def _select_ridge(window, config, rank, fallback_score):
    """The ridge-selection policy of :func:`adaptive_rna`, for any ranking.

    One Gram matrix serves every ridge; ``rank(coefficients)`` scores a
    solved ridge and ``fallback_score`` the last iterate, which wins ties
    and is returned as (last iterate, None, None).
    """
    gram = _gram(window)
    best_lam, best_coeffs, best_score = None, None, fallback_score
    for lam in config.lam_grid:
        try:
            coeffs = normalize(*_solve_gram(gram, lam))
        except (DegenerateSum, SingularSystem):
            continue
        s = rank(coeffs)
        if s < best_score:
            best_lam, best_coeffs, best_score = lam, coeffs, s
    if best_coeffs is None:
        return window[-1].copy(), None, None
    theta_hat = _combine(window, best_coeffs.weights, config.weight_target)
    return theta_hat, best_lam, best_coeffs


def adaptive_rna(
    iterates,
    config: RnaConfig,
    score: Callable[[np.ndarray], float],
) -> tuple[np.ndarray, float | None, Coefficients | None]:
    """Grid-search the ridge and keep the best-scoring candidate.

    Solves once per entry of ``config.lam_grid`` over one shared Gram
    matrix, scores each extrapolated point with ``score`` (typically the
    objective or the gradient norm), and compares against the fallback
    candidate: the last iterate itself. The fallback wins ties, so the
    returned score is never worse than ``score(last iterate)``. Grid
    cells that fail with a degenerate or singular solve are skipped; if
    every cell fails, the last iterate is returned with
    ``lam_star = None``.

    Returns:
        (theta_hat, lam_star, coefficients); the latter two are ``None``
        for the fallback candidate.
    """
    if config.lam_grid is None:
        raise InvalidConfig("adaptive_rna requires a config with lam_grid set")
    window = _validated(iterates)[-(config.window + 1):]
    return _select_ridge(
        window,
        config,
        lambda c: float(score(_combine(window, c.weights, config.weight_target))),
        float(score(window[-1].copy())),
    )
