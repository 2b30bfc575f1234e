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
``P`` holds the prefix sums of c (shifted by one for ``LATEST``). Both are formed over
blocks of ``_BLOCK`` = 2**15 columns, in column order: the Gram matrix sums the blocks'
products, and each block of theta_hat comes from its own block. A window of at most
``_BLOCK`` columns is one block, one product. Every entry point (:func:`rna`,
:func:`adaptive_rna`, :func:`accelerate_checkpoints`, the training driver and
``rnacc accelerate``) forms the same blocks, so all give the same bits. In memory,
``_window`` keeps the last K+1 iterates, validates them (every iterate's shape, only
the window's values) and differences them; the driver runs it once per epoch, and a
shorter window is a suffix of its rows. One ``_solve`` call then solves the window's
ridges over its ``_gram`` as one stack: ``lam``, the ridges of ``lam_grid``, or, in the
training driver, every ridge of the configs that share the window. Last,
``_extrapolate`` normalizes, ranks and combines each config's own entries, each
candidate once. ``rnacc accelerate`` runs the same stages over a window read a block at
a time (``_accelerate``): one pass for the values and the Gram matrix, and, past one
block, a second that combines each block as it is read again, so that it holds a few
blocks, whatever d. Public functions never write into a caller's array: they difference
into a buffer of their own, or into the stack they made of a list.

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
    _read,
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

# Columns per block of the Gram product and the combination (see _columns).
_BLOCK = 2**15


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
        if not _read("lam", self.lam, lambda v: v >= 0.0 and math.isfinite(v), "be a float"):
            raise InvalidConfig(f"lam must be finite and >= 0, got {self.lam}")
        object.__setattr__(self, "lam", float(self.lam) + 0.0)  # -0.0 is stored as 0.0
        if self.lam_grid is not None:
            grid = _read("lam_grid", self.lam_grid, lambda g: tuple(map(float, g)), "hold numbers")
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
    1-D vectors; a float64 array comes back as is, not copied. Raises DimensionMismatch
    for ragged input or an array that is not 2-D and NumericalFailure naming the first
    iterate (0-based, oldest first) with NaN or infinite entries.
    """
    return _stacked(iterates)


def _stacked(iterates, keep: int | None = None) -> np.ndarray:
    """The last ``keep`` iterates (every one when None) as :func:`as_iterate_matrix`
    stacks them, checking every iterate's shape but only the kept ones' values: the one
    value check of every in-memory path. An error counts iterates in the whole sequence."""
    if isinstance(iterates, (np.ndarray, np.generic)):  # a numpy scalar too: it has no rows
        if iterates.ndim != 2:
            raise DimensionMismatch(f"an iterate array must be 2-D, got shape {iterates.shape}")
        rows = iterates
    else:
        rows = [np.asarray(v) for v in iterates]  # only the kept ones become float64
        dims = {r.shape for r in rows}
        if len(dims) > 1 or any(len(shape) != 1 for shape in dims):  # none: WindowTooSmall below
            raise DimensionMismatch(
                f"iterates must share one dimension, got shapes {sorted(dims)}"
            )
    first = 0 if keep is None else max(len(rows) - keep, 0)
    mat = np.asarray(rows[first:] if first else rows, dtype=np.float64)
    if mat.shape[0] == 0:
        raise WindowTooSmall("empty iterate sequence")
    if mat.shape[1] == 0:
        raise DimensionMismatch("iterates must be nonempty vectors")
    bad = _first_bad(mat)
    if bad < len(mat):
        raise _nonfinite(first + bad, len(rows))
    return mat


def _first_bad(mat: np.ndarray) -> int:
    """The first row of ``mat`` with a NaN or an infinite entry, ``len(mat)`` if none."""
    # A row with a NaN or an infinity has no finite sum; finite values can overflow
    # one, so only the rows whose sum is not finite are checked entry by entry.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = mat.sum(axis=1)
    for bad in np.flatnonzero(~np.isfinite(sums)):
        if not np.isfinite(mat[bad]).all():
            return int(bad)
    return len(mat)


def _nonfinite(index: int, count: int) -> NumericalFailure:
    return NumericalFailure(f"iterate {index} of {count} contains NaN or infinite entries")


def _need_two(count: int) -> None:
    if count < 2:
        raise WindowTooSmall(f"need at least 2 iterates to extrapolate, got {count}")


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


def _columns(d: int) -> list[slice]:
    """The column blocks, in order, over which every Gram matrix and combination of
    d-vectors is formed: ``_BLOCK`` columns each, the last one shorter (one empty block
    when d == 0)."""
    return [slice(lo, min(lo + _BLOCK, d)) for lo in range(0, max(d, 1), _BLOCK)]


def _gram(rows: np.ndarray, gram: np.ndarray | None = None) -> np.ndarray:
    """Return ``R^T R`` for the residual rows ``D = R^T``: the products ``D_b @ D_b.T``
    of the :func:`_columns` blocks ``D_b``, summed in column order onto ``gram`` (the
    Gram matrix of the columns before, when a window is read a block at a time). The one
    Gram product, of a :func:`_differenced` window's first K rows or of ``R.T``."""
    # _solve reports a Gram matrix that overflowed, or whose blocks' infinities cancel.
    with np.errstate(over="ignore", invalid="ignore"):
        for cols in _columns(rows.shape[1]):
            block = rows[:, cols]
            part = block @ block.T
            gram = part if gram is None else np.add(gram, part, out=gram)
    return gram


def _window(iterates, window: int | None) -> np.ndarray:
    """The stage every in-memory entry point runs first: keep the last ``window + 1``
    iterates (every one when ``window`` is None), validate them (every iterate's shape,
    the kept ones' values, at least two of them) and return their :func:`_differenced`
    rows. A stack that rnacc made (of a list, or converted to float64) is differenced in
    place."""
    mat = _stacked(iterates, None if window is None else window + 1)
    _need_two(mat.shape[0])
    made = not isinstance(iterates, np.ndarray) or not np.may_share_memory(mat, iterates)
    return _differenced(mat, made)


def _combine(
    diffs: np.ndarray, weights: np.ndarray, target: WeightTarget, out: np.ndarray | None = None
) -> np.ndarray:
    """``sum_k c_k theta_{sigma(k)}`` from a :func:`_differenced` window, into ``out`` or
    a new array.

    Anchored at the newest iterate: ``theta_K - P @ D``, with ``P`` the prefix sums
    of c (shifted by one for ``LATEST``), one product per :func:`_columns` block. Weights
    that do not sum to one exactly put ``1 - sum(c)`` on ``theta_K`` inside the same
    product.
    """
    prefix = np.empty(len(diffs))
    np.cumsum(weights, out=prefix[1:] if target is WeightTarget.LATEST else prefix[:-1])
    if target is WeightTarget.LATEST:
        prefix[0] = 0.0
    prefix[-1] = 1.0 - math.fsum(weights)
    theta = np.empty(diffs.shape[1]) if out is None else out
    for cols in _columns(diffs.shape[1]):
        block, part = diffs[:, cols], theta[cols]
        np.matmul(prefix, block, out=part)
        np.subtract(block[-1], part, out=part)
    return theta


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
    return _window(iterates, None)[:-1].T


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
    solved = _solve(_gram(r.T), (float(lam),))[0]
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
    diffs = _window(iterates, cfg.window)
    if cfg.lam_grid is not None:
        raise InvalidConfig("a lam_grid is ranked by a score; use adaptive_rna, or drop the grid")
    theta_hat, _, coeffs, _ = _extrapolate(diffs, cfg, _solve(_gram(diffs[:-1]), (cfg.lam,)))
    return theta_hat, coeffs


def _ridges(config: RnaConfig) -> tuple[float, ...]:
    """The ridges that ``config`` solves: its grid, or its one ``lam``."""
    return config.lam_grid or (config.lam,)


def _choose(diffs, config, entries, rank=None, fallback_score=None, score=None):
    """The coefficients that :func:`_extrapolate` combines, from ``entries``: the
    :func:`_solve` entries of ``config``'s :func:`_ridges`, in order, over its Gram matrix.

    Returns (lam_star, coefficients, score, point). Without a grid: the one entry, whose
    error raises, ``lam_star`` its ``lam_used``, and no score or point. With a grid: the
    policy of :func:`adaptive_rna`, ``fallback_score`` the last iterate's score and
    ``None`` coefficients its marker. Each candidate is ranked by ``rank(coefficients)``
    or, given ``score``, by ``score`` at its point combined from ``diffs``; the winner's
    point is kept, so that no candidate is combined twice.
    """
    if config.lam_grid is None:
        (entry,) = entries
        if isinstance(entry, RnaError):
            raise entry
        coeffs = normalize(*entry)
        return coeffs.lam_used, coeffs, None, None
    best = None, None, fallback_score, None
    for lam, entry in zip(config.lam_grid, entries):
        try:
            if isinstance(entry, RnaError):
                raise entry
            coeffs = normalize(*entry)
        except (DegenerateSum, SingularSystem):
            continue
        point = None if score is None else _combine(diffs, coeffs.weights, config.weight_target)
        s = rank(coeffs) if score is None else float(score(point))
        if s < best[2]:
            best = lam, coeffs, s, point
    return best


def _extrapolate(diffs, config, entries, rank=None, fallback_score=None, score=None):
    """Extrapolate a :func:`_differenced` window, plain or grid, as :func:`_choose`
    chooses from ``entries``. Returns (theta_hat, lam_star, coefficients, score); the
    fallback's theta_hat is a copy of the last iterate."""
    lam, coeffs, best, theta_hat = _choose(diffs, config, entries, rank, fallback_score, score)
    if coeffs is None:
        theta_hat = diffs[-1].copy()
    elif theta_hat is None:
        theta_hat = _combine(diffs, coeffs.weights, config.weight_target)
    return theta_hat, lam, coeffs, best


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
    ``lam_star = None``. Each point is formed once: the winner is returned
    as it was scored.

    Returns:
        (theta_hat, lam_star, coefficients); the latter two are ``None``
        for the fallback candidate.
    """
    if config.lam_grid is None:
        raise InvalidConfig("adaptive_rna requires a config with lam_grid set")
    diffs = _window(iterates, config.window)
    entries = _solve(_gram(diffs[:-1]), config.lam_grid)
    return _extrapolate(diffs, config, entries, None, float(score(diffs[-1].copy())), score)[:3]


def _accelerate_settings(cfg: RnaConfig, has_scores: bool) -> RnaConfig:
    """``cfg``, once scores are checked to come with its grid, before any iterate is read."""
    if cfg.lam_grid is None and has_scores:
        raise InvalidConfig("scores rank a lambda grid; without a grid they go unused")
    if cfg.lam_grid is not None and not has_scores:
        raise InvalidConfig("ranking a lambda grid requires per-checkpoint scores")
    return cfg


def _ranking(scores, count: int):
    """The ``rank`` and ``fallback_score`` of :func:`_choose` for checkpoints ranked by
    their finite float64 ``scores`` (None without a grid), once the scores are counted
    against the ``count`` checkpoints: after the iterates' own checks."""
    if scores is None:
        return None, None
    if scores.size != count:
        raise InvalidConfig(f"{scores.size} scores for {count} checkpoints; counts must match")
    # c weights the last len(c) iterates.
    return lambda c: float(c.weights @ scores[-len(c):]), float(scores[-1])


def _accelerate(read, dim: int, total: int, cfg: RnaConfig, scores):
    """:func:`accelerate_checkpoints` on checked settings and finite float64 scores, over
    the window of ``total`` stored iterates of ``dim`` entries, read a block of columns
    at a time: ``read(cols, out)`` fills ``out``, one float64 row per window iterate,
    with the :func:`_columns` block ``cols`` of each.

    Pass 1 reads each block, checks its values, differences it in place and adds it to
    the Gram matrix. Then the errors of :func:`accelerate_checkpoints` raise, in its
    order, and its ridge is chosen. Returns the coefficients (None for the fallback) and
    pass 2: a generator of theta_hat's blocks in column order, each block read and
    differenced again (a window of one block is still held), combined and checked to be
    finite. Memory is a few blocks of the window, whatever ``dim``.
    """
    rows, columns = min(total, cfg.window + 1), _columns(dim)
    buf = np.empty((rows, min(dim, _BLOCK)))
    gram, bad = None, rows
    for cols in columns:
        block = buf[:, : cols.stop - cols.start]
        read(cols, block)
        bad = _first_bad(block[:bad])  # only a lower iterate than one found can change it
        if bad == rows:
            gram = _gram(_differenced(block, True)[:-1], gram)
    if bad < rows:
        raise _nonfinite(total - rows + bad, total)
    _need_two(rows)
    _, coeffs, _, _ = _choose(None, cfg, _solve(gram, _ridges(cfg)), *_ranking(scores, total))

    def theta_hat():
        out = np.empty(buf.shape[1])
        for cols in columns:
            block = buf[:, : cols.stop - cols.start]
            # Values are not checked again: a file changed since pass 1 can overflow here,
            # and the check below reports it.
            with np.errstate(over="ignore", invalid="ignore"):
                if len(columns) > 1:  # else the one block is still held, differenced
                    read(cols, block)
                    _differenced(block, True)
                theta = block[-1] if coeffs is None else _combine(
                    block, coeffs.weights, cfg.weight_target, out[: block.shape[1]]
                )
            if not np.isfinite(theta).all():
                raise _nonfinite(0, 1)
            yield theta

    return coeffs, theta_hat()


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
    count = None
    if scores is not None:
        scores = np.asarray(scores, dtype=np.float64).ravel()
        if not np.isfinite(scores).all():
            raise InvalidConfig("scores contain NaN or infinite values")
        if not hasattr(iterates, "__len__"):  # counted after the window stage reads it
            iterates = list(iterates)
        count = len(iterates)
    diffs = _window(iterates, cfg.window)
    entries = _solve(_gram(diffs[:-1]), _ridges(cfg))
    return _extrapolate(diffs, cfg, entries, *_ranking(scores, count))[:3]
