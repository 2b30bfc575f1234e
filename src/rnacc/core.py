"""Regularized nonlinear acceleration of iterate sequences.

Given a window of m = K+1 successive iterates ``theta_0 .. theta_K`` of an
optimizer, build the residual matrix ``R`` of consecutive differences,
solve the ridge-regularized Gram system ``(R^T R + lam*I) z = 1``,
normalize the solution to unit sum, and return the affine combination
``theta_hat = sum_k c_k theta_{sigma(k)}``. For gradient descent the
residual columns are scaled negative gradients, so the combination
approximately minimizes the gradient norm of the extrapolated point;
near a minimum, where the objective is close to quadratic, the window
spans a Krylov subspace and the extrapolation can land far closer to the
optimum than the last iterate.

The window is held once, differenced: rows ``0 .. K-1`` hold
``D_k = theta_{k+1} - theta_k`` (the same bits as ``np.diff``) and row K
keeps ``theta_K``. The Gram matrix is ``D @ D.T`` and the combination is
anchored at the newest iterate, ``theta_hat = theta_K - P @ D``, where
``P`` holds the prefix sums of c (shifted by one for ``LATEST``). Every entry
point (:func:`rna`, :func:`adaptive_rna`, :func:`accelerate_checkpoints` and the
training driver) runs one stage first, ``_window``: keep the last K+1 iterates,
validate them, difference them and form the Gram matrix. Every iterate's shape is
checked, but only the window's values: a NaN in an older iterate is ignored. Public
functions never write into a caller's array: they difference into a buffer of their
own, or into the stack they made of a list; ``rnacc accelerate`` and the training
driver difference the matrix they stacked in place.
Each then solves one stack of systems over that one Gram matrix, ``_solve``: a stack
of one at ``lam``, or one system per ridge of ``lam_grid``, keeping the best-ranked
point.

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
    RnaError,
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
    "accelerate_checkpoints",
]

# |sum(z)| below this multiple of ||z||_1 means the affine combination
# is undefined; callers are told to raise lam instead.
DEGENERATE_SUM_RTOL = 1e-12

# A positive ridge is raised to at least this multiple of the Gram matrix's trace.
_RIDGE_FLOOR = 10.0 * np.finfo(np.float64).eps


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
        lam_used: Ridge that entered the solve (a positive request is
            floored at ``10 * eps`` times the Gram matrix's trace), or
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
    first iterate (0-based, oldest first) with NaN or infinite entries.
    """
    return _stacked(iterates)


def _stacked(iterates, keep: int | None = None, total: int | None = None) -> np.ndarray:
    """The last ``keep`` iterates (every one when None) as :func:`as_iterate_matrix`
    stacks them, checking every iterate's shape but only the kept ones' values: the one
    value check of every path, checkpoint files included. ``total`` is the length of
    the whole sequence when ``iterates`` holds only its last iterates, so that an error
    counts iterates in the whole sequence."""
    if isinstance(iterates, np.ndarray) and iterates.ndim == 2:
        rows = iterates
    else:
        rows = [np.asarray(v) for v in iterates]  # only the kept ones become float64
        if not rows:
            raise WindowTooSmall("empty iterate sequence")
        dims = {r.shape for r in rows}
        if len(dims) != 1 or rows[0].ndim != 1:
            raise DimensionMismatch(
                f"iterates must share one dimension, got shapes {sorted(dims)}"
            )
    first = 0 if keep is None else max(len(rows) - keep, 0)
    mat = np.asarray(rows[first:] if first else rows, dtype=np.float64)
    if mat.shape[0] == 0:
        raise WindowTooSmall("empty iterate sequence")
    if mat.shape[1] == 0:
        raise DimensionMismatch("iterates must be nonempty vectors")
    skipped = (len(rows) if total is None else total) - len(mat)
    # A row with a NaN or an infinity has no finite sum; finite values can overflow
    # one, so only the rows whose sum is not finite are checked entry by entry.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = mat.sum(axis=1)
    for bad in np.flatnonzero(~np.isfinite(sums)):
        if not np.isfinite(mat[bad]).all():
            raise NumericalFailure(
                f"iterate {skipped + bad} of {skipped + len(mat)} "
                "contains NaN or infinite entries"
            )
    return mat


def _validated(iterates, keep: int | None = None, total: int | None = None) -> np.ndarray:
    """:func:`_stacked`, plus the two iterates every stage needs."""
    mat = _stacked(iterates, keep, total)
    if mat.shape[0] < 2:
        raise WindowTooSmall(
            f"need at least 2 iterates to extrapolate, got {mat.shape[0]}"
        )
    return mat


def _differenced(window: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """The window as rows ``theta_{k+1} - theta_k`` for k < K, then ``theta_K``.

    Without ``overwrite`` the rows go to a new C-ordered buffer in one pass. With it
    ``window``, which the caller owns, is overwritten row by row from the oldest.
    """
    if overwrite:
        for k in range(len(window) - 1):
            np.subtract(window[k + 1], window[k], out=window[k])
        return window
    out = np.empty(window.shape)
    np.subtract(window[1:], window[:-1], out=out[:-1])
    out[-1] = window[-1]
    return out


def _gram(diffs: np.ndarray) -> np.ndarray:
    """Return ``R^T R`` for a :func:`_differenced` window, formed as ``D @ D.T``."""
    d = diffs[:-1]
    with np.errstate(over="ignore"):  # _solve reports a Gram matrix that overflowed
        return d @ d.T


def _window(
    iterates, window: int, overwrite: bool = False, total: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The stage every entry point runs first: keep the last ``window + 1`` iterates,
    validate them (every iterate's shape, the kept ones' values) and return their
    :func:`_differenced` rows and :func:`_gram`. ``overwrite`` differences the kept
    rows of ``iterates`` in place, for a caller that owns it and no longer needs it; a
    stack that rnacc made (of a list, or converted to float64) is differenced in place
    too. ``total`` is as in :func:`_stacked`."""
    mat = _validated(iterates, window + 1, total)
    made = not isinstance(iterates, np.ndarray) or not np.may_share_memory(mat, iterates)
    diffs = _differenced(mat, overwrite or made)
    return diffs, _gram(diffs)


def _combine(diffs: np.ndarray, weights: np.ndarray, target: WeightTarget) -> np.ndarray:
    """``sum_k c_k theta_{sigma(k)}`` from a :func:`_differenced` window, as a new array.

    Anchored at the newest iterate: ``theta_K - P @ D``, with ``P`` the prefix sums
    of c (shifted by one for ``LATEST``). Weights that do not sum to one exactly
    put ``1 - sum(c)`` on ``theta_K`` inside the same product.
    """
    prefix = np.empty(len(diffs))
    np.cumsum(weights, out=prefix[1:] if target is WeightTarget.LATEST else prefix[:-1])
    if target is WeightTarget.LATEST:
        prefix[0] = 0.0
    prefix[-1] = 1.0 - math.fsum(weights)
    theta = prefix @ diffs
    return np.subtract(diffs[-1], theta, out=theta)


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
    return _differenced(_validated(iterates))[:-1].T


def _shifted(gram: np.ndarray, lams) -> tuple[list[float], np.ndarray]:
    """The ridges of ``lams`` as they enter the solve, and ``gram + lam*I`` for each,
    stacked. A positive lam is floored at ``10 * eps * trace(gram)``, the rounding
    incurred while forming the Gram matrix, which keeps cond(gram + lam*I) below about
    4.5e14; lam == 0 is used as given, since a singular Gram matrix is then a caller
    error by contract.
    """
    # The floor overflows with the trace, and an inf ridge times I's zeros is NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        floor = float(_RIDGE_FLOOR * gram.trace())
        used = [max(lam, floor) if lam > 0.0 else lam for lam in lams]
        return used, gram + np.multiply.outer(used, np.eye(gram.shape[0]))


def _solve(gram: np.ndarray, lams) -> list:
    """Solve (gram + lam*I) z = 1 at every ridge of ``lams`` as one stack of systems.

    Returns, per ridge, (z, the ridge that entered the solve) or the RnaError that the
    ridge raises when solved alone. Ridges are floored as in :func:`_shifted`. A Gram
    matrix that overflowed, or overflows once the ridge is added, gives NumericalFailure;
    a system that does not factor gives SingularSystem. A stack that holds either is
    solved again one ridge at a time, so that each ridge gets its own result or error.
    """
    used, shifted = _shifted(gram, lams)
    if np.isfinite(shifted).all():  # then so is gram
        try:
            z = refined_spd_solve(shifted, np.ones(shifted.shape[:2]))
        except np.linalg.LinAlgError:
            if len(used) == 1:
                at = " at lam=0; use lam > 0" if used[0] == 0.0 else f" at lam={used[0]:g}"
                return [SingularSystem("residual Gram matrix is numerically singular" + at)]
        else:
            return [(z[i], lam) for i, lam in enumerate(used)]  # z[i] is cheaper than iterating z
    elif len(used) == 1:
        if not np.isfinite(gram).all():
            return [NumericalFailure("residual Gram matrix is not finite: the residuals overflow")]
        msg = f"residual Gram matrix is not finite with the ridge {used[0]:g} added"
        return [NumericalFailure(msg)]
    return [_solve(gram, (lam,))[0] for lam in lams]


def solve_regularized(residuals: np.ndarray, lam: float) -> np.ndarray:
    """Solve ``(R^T R + lam*I) z = 1`` for the raw combination weights.

    Forms the K x K Gram matrix explicitly (O(K^2 d)) and solves by
    Cholesky with exact-residual refinement (O(K^3)). A positive ``lam``
    below ``10 * eps * trace(R^T R)``, the Gram matrix's own rounding, is
    raised to that floor.

    Args:
        residuals: d x K residual matrix.
        lam: Ridge parameter, >= 0. ``lam == 0`` is not floored and
            requires a numerically nonsingular Gram matrix.

    Returns:
        z of length K.

    Raises:
        DimensionMismatch: ``residuals`` not 2-D, or with no columns.
        SingularSystem: A system that does not factor, even at the floor.
        NumericalFailure: Non-finite entries in ``residuals``, or a Gram
            matrix that overflows.
        InvalidConfig: Negative or non-finite ``lam``.
    """
    r = np.asarray(residuals, dtype=np.float64)
    if r.ndim != 2:
        raise DimensionMismatch(f"residual matrix must be 2-D, got ndim={r.ndim}")
    if r.shape[1] == 0:
        raise DimensionMismatch("residual matrix has no columns")
    if not np.isfinite(r).all():
        raise NumericalFailure("residual matrix contains NaN or infinite entries")
    if not (lam >= 0.0) or not math.isfinite(lam):
        raise InvalidConfig(f"lam must be finite and >= 0, got {lam}")
    with np.errstate(over="ignore"):  # reported by _solve
        gram = r.T @ r
    solved = _solve(gram, (float(lam),))[0]
    if isinstance(solved, RnaError):
        raise solved
    return solved[0]


def normalize(raw_solution, lam_used: float | None = None) -> Coefficients:
    """Scale z to unit sum: ``c = z / sum(z)``.

    The sum is accumulated with ``math.fsum`` and the largest entry of c
    receives a single correction so that the coefficient sum is exact to
    within one ulp of the largest coefficient. Negative weights are
    legal; the combination is affine, not convex.

    Raises:
        DegenerateSum: ``|sum(z)|`` not above ``1e-12 * ||z||_1`` (raise lam).
        NumericalFailure: Non-finite entries, or a sum that overflows.
    """
    z = np.asarray(raw_solution, dtype=np.float64).ravel()
    if z.size == 0:
        raise DimensionMismatch("empty raw solution")
    if not np.isfinite(z).all():
        raise NumericalFailure("raw solution contains NaN or infinite entries")
    try:  # finite entries can still have sums that overflow
        total, size = math.fsum(z.tolist()), math.fsum(np.abs(z).tolist())
    except OverflowError:
        raise NumericalFailure("raw solution's sums overflow") from None
    # Not "<": a zero z, or one so small that the bound underflows to 0, sums to 0 too.
    if not abs(total) > DEGENERATE_SUM_RTOL * size:
        raise DegenerateSum(
            f"raw solution sums to {total:.3e}, which is negligible against "
            f"its own magnitude; increase lam"
        )
    c = z / total
    c[np.abs(c).argmax()] -= math.fsum(c.tolist()) - 1.0
    return Coefficients(weights=c, lam_used=lam_used, raw_solution=z)


def extrapolate(iterates, coefficients, target=WeightTarget.LATEST) -> np.ndarray:
    """Combine window iterates: ``theta_hat = sum_k c_k theta_{sigma(k)}``.

    With m iterates and m-1 coefficients, ``LATEST`` weights
    ``theta_1 .. theta_{m-1}`` and ``OLDEST`` weights
    ``theta_0 .. theta_{m-2}``.

    Accepts a :class:`Coefficients` or a bare weight vector. Raises
    DimensionMismatch unless ``len(c) == m - 1`` and NumericalFailure for
    non-finite weights.
    """
    mat = as_iterate_matrix(iterates)
    weights = np.asarray(getattr(coefficients, "weights", coefficients), dtype=np.float64)
    if weights.ndim != 1 or weights.size != mat.shape[0] - 1:
        raise DimensionMismatch(
            f"{weights.size} coefficients cannot weight {mat.shape[0]} iterates "
            f"(need exactly m - 1)"
        )
    if not np.isfinite(weights).all():
        raise NumericalFailure("coefficients contain NaN or infinite entries")
    return _combine(_differenced(mat), weights, _as_weight_target(target))


def rna(iterates, config: RnaConfig | None = None) -> tuple[np.ndarray, Coefficients]:
    """Run the full acceleration step on (a suffix of) the iterates.

    Uses at most the last ``config.window + 1`` iterates, silently
    shrinking the window when fewer are available (so the procedure is
    usable from the second epoch onward). Validates once, then does the
    work of :func:`build_residuals`, :func:`solve_regularized`,
    :func:`normalize`, and :func:`extrapolate`; deterministic. A grid
    needs a score, so a config with ``lam_grid`` raises InvalidConfig.

    Returns:
        (theta_hat, coefficients).
    """
    cfg = config if config is not None else RnaConfig()
    theta_hat, _, coeffs, _ = _extrapolate(*_window(iterates, cfg.window), cfg)
    return theta_hat, coeffs


def _extrapolate(diffs, gram, config, rank=None, fallback_score=None):
    """Extrapolate a :func:`_differenced` window from its :func:`_gram`, plain or grid.

    Returns (theta_hat, lam_star, coefficients, score). Without a grid: one solve at
    ``config.lam`` whose errors raise, ``lam_star`` its ``lam_used`` and no score. With
    one: the policy of :func:`adaptive_rna`, ``rank(coefficients)`` scoring each ridge
    and ``fallback_score`` the last iterate; a grid without ``rank`` raises InvalidConfig.
    """
    if config.lam_grid is None:
        solved = _solve(gram, (config.lam,))[0]
        if isinstance(solved, RnaError):
            raise solved
        coeffs = normalize(*solved)
        return _combine(diffs, coeffs.weights, config.weight_target), coeffs.lam_used, coeffs, None
    if rank is None:
        raise InvalidConfig("a lam_grid is ranked by a score; use adaptive_rna, or drop the grid")
    best_lam, best_coeffs, best_score = None, None, fallback_score
    for lam, solved in zip(config.lam_grid, _solve(gram, config.lam_grid)):
        try:
            if isinstance(solved, RnaError):
                raise solved
            coeffs = normalize(*solved)
        except (DegenerateSum, SingularSystem):
            continue
        s = rank(coeffs)
        if s < best_score:
            best_lam, best_coeffs, best_score = lam, coeffs, s
    if best_coeffs is None:
        return diffs[-1].copy(), None, None, best_score
    theta_hat = _combine(diffs, best_coeffs.weights, config.weight_target)
    return theta_hat, best_lam, best_coeffs, best_score


def adaptive_rna(
    iterates,
    config: RnaConfig,
    score: Callable[[np.ndarray], float],
) -> tuple[np.ndarray, float | None, Coefficients | None]:
    """Grid-search the ridge and keep the best-scoring candidate.

    Solves once per entry of ``config.lam_grid`` over one shared Gram
    matrix, all entries as one stack of systems, each with the bits it
    gets alone, scores each extrapolated point with ``score`` (typically the
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
    diffs, gram = _window(iterates, config.window)
    return _extrapolate(
        diffs, gram, config,
        lambda c: float(score(_combine(diffs, c.weights, config.weight_target))),
        float(score(diffs[-1].copy())),
    )[:3]


def _accelerate_settings(cfg: RnaConfig, has_scores: bool) -> RnaConfig:
    """``cfg``, once scores are checked to come with its grid, before any iterate is read."""
    if cfg.lam_grid is None and has_scores:
        raise InvalidConfig("scores rank a lambda grid; without a grid they go unused")
    if cfg.lam_grid is not None and not has_scores:
        raise InvalidConfig("ranking a lambda grid requires per-checkpoint scores")
    return cfg


def _accelerate(
    iterates, cfg: RnaConfig, scores, overwrite: bool = False, total: int | None = None
):
    """:func:`accelerate_checkpoints` on checked settings and finite float64 scores.

    With ``overwrite`` the window of ``iterates``, a float64 matrix the caller
    owns and no longer needs, is differenced in place instead of into a copy.
    ``total`` counts the checkpoints when ``iterates`` holds only the last of them,
    at least the window's: the scores are counted against it.
    """
    diffs, gram = _window(iterates, cfg.window, overwrite, total)
    count = len(iterates) if total is None else total
    if scores is not None and scores.size != count:
        raise InvalidConfig(
            f"{scores.size} scores for {count} checkpoints; counts must match"
        )
    return _extrapolate(
        diffs, gram, cfg,
        lambda c: float(c.weights @ scores[-len(c):]),  # c weights the last len(c) iterates
        None if scores is None else float(scores[-1]),
    )[:3]


def accelerate_checkpoints(
    iterates, window: int, lam: float, lam_grid=None, scores=None
) -> tuple[np.ndarray, float | None, Coefficients | None]:
    """Extrapolate a stored sequence, optionally ranking a ridge grid.

    Without a grid this is one plain extrapolation over the last
    ``window + 1`` iterates. With a grid, per-checkpoint objective
    values must be supplied; each candidate is ranked by the unit-sum
    linearization ``sum_k c_k * score[sigma(k)]`` (the only estimate of
    the candidate's objective available without evaluating the model),
    the last checkpoint is the fallback candidate at its own recorded
    score, and ties go to the fallback, as in :func:`adaptive_rna`.
    Returns (theta_hat, lam_star, coefficients) with None markers for
    the fallback. Bad settings, scores without a grid and missing, miscounted
    or non-finite scores raise InvalidConfig; bad iterates raise as in
    :func:`rna`, ahead of a miscount. ``iterates`` is never written to.
    """
    cfg = _accelerate_settings(RnaConfig(window, lam, lam_grid), scores is not None)
    if scores is not None:
        scores = np.asarray(scores, dtype=np.float64).ravel()
        if not np.isfinite(scores).all():
            raise InvalidConfig("scores contain NaN or infinite values")
        if not hasattr(iterates, "__len__"):  # counted after the window stage reads it
            iterates = list(iterates)
    return _accelerate(iterates, cfg, scores)
