"""Baseline optimizers whose iterate streams feed the acceleration.

Plain gradient descent and heavy-ball SGD with weight decay and a
step-drop learning rate schedule. The driver :func:`run_with_rna` trains
one epoch at a time and extrapolates it at once from a ring of the last
K+1 iterates; the extrapolated point is never fed back, so the base
trajectory is bit-identical with acceleration on or off. One pass serves
any number of configs, as ``rnacc sweep`` needs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .core import RnaConfig, _combine, _extrapolate, _gram, _ridges, _solve, _window
from .errors import DegenerateSum, DimensionMismatch, InvalidConfig, NumericalFailure
from .errors import RnaError, _read, _require_int
from .problems import Problem

__all__ = [
    "OptimizerConfig",
    "EpochRecord",
    "AccelRecord",
    "learning_rate",
    "gd_step",
    "sgd_momentum_epoch",
    "run_with_rna",
]

# Abort an epoch once the parameter norm passes this; the run has diverged.
DIVERGENCE_NORM = 1e12


@dataclass(frozen=True)
class OptimizerConfig:
    """Heavy-ball SGD settings.

    ``schedule`` lists (epoch, multiplier) pairs with strictly
    increasing epochs; every drop at or below the current epoch applies,
    so ``[(150, 0.1), (250, 0.1)]`` with base 0.1 gives 0.1 before epoch
    150, 0.01 from 150, and 0.001 from 250. ``batch_size=None`` means
    one full-batch step per epoch.
    """

    eta: float
    momentum: float = 0.9
    weight_decay: float = 1e-5
    schedule: tuple[tuple[int, float], ...] = ()
    batch_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not _read("eta", self.eta, lambda v: v > 0.0 and math.isfinite(v), "be a float"):
            raise InvalidConfig(f"eta must be positive and finite, got {self.eta}")
        if not _read("momentum", self.momentum, lambda v: 0.0 <= v < 1.0, "be a float"):
            raise InvalidConfig(f"momentum must lie in [0, 1), got {self.momentum}")
        decay = self.weight_decay
        if not _read("weight_decay", decay, lambda v: v >= 0.0 and math.isfinite(v), "be a float"):
            raise InvalidConfig(f"weight_decay must be finite and >= 0, got {decay}")
        pairs = _read(
            "schedule", self.schedule, lambda s: [(e, float(m)) for e, m in s], "hold number pairs"
        )
        sched = tuple((_require_int("schedule epoch", e, minimum=0), m) for e, m in pairs)
        if not all(m > 0.0 and math.isfinite(m) for _, m in sched):
            raise InvalidConfig("schedule multipliers must be finite and positive")
        if any(b[0] <= a[0] for a, b in zip(sched, sched[1:])):
            raise InvalidConfig("schedule epochs must be strictly increasing")
        object.__setattr__(self, "schedule", sched)
        if self.batch_size is not None:
            object.__setattr__(self, "batch_size", _require_int("batch_size", self.batch_size))
        object.__setattr__(self, "seed", _require_int("seed", self.seed, minimum=0))


def learning_rate(cfg: OptimizerConfig, epoch: int) -> float:
    """Step size at ``epoch``: base eta times all drops at or below it."""
    eta = cfg.eta
    for drop_epoch, mult in cfg.schedule:
        if epoch >= drop_epoch:
            eta *= mult
    return eta


def _shaped(g, theta: np.ndarray) -> np.ndarray:
    """An oracle's gradient ``g`` at ``theta``, as float64; DimensionMismatch unless it
    has ``theta``'s shape."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != theta.shape:
        raise DimensionMismatch(f"gradient has shape {g.shape}, theta has shape {theta.shape}")
    return g


def _gradient(g, theta: np.ndarray) -> np.ndarray:
    """:func:`_shaped`, and NumericalFailure unless the gradient is finite: the check of
    every gradient a step takes."""
    g = _shaped(g, theta)
    if not np.isfinite(g).all():
        raise NumericalFailure("gradient contains NaN or infinite entries")
    return g


def gd_step(theta: np.ndarray, problem: Problem, eta: float) -> np.ndarray:
    """One plain gradient descent step; exactly one gradient evaluation. A gradient not
    shaped like ``theta`` raises DimensionMismatch; a non-finite one, or NaN in the step,
    NumericalFailure."""
    if not eta > 0.0:
        raise InvalidConfig(f"eta must be positive, got {eta}")
    theta = theta - eta * _gradient(problem.grad(theta), np.asarray(theta))
    if np.isnan(theta).any():  # NaN that theta held or the oracle wrote into it
        raise NumericalFailure("parameters contain NaN after the step")
    return theta


def sgd_momentum_epoch(
    theta: np.ndarray,
    velocity: np.ndarray,
    problem: Problem,
    cfg: OptimizerConfig,
    epoch: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One full pass over the data in shuffled mini-batches.

    Per batch: ``v = momentum*v + (g_batch + weight_decay*theta)`` then
    ``theta = theta - eta(epoch)*v``. Weight decay joins the gradient
    *before* the momentum buffer (classical heavy ball, not the
    decoupled variant). Shuffling is a deterministic function of
    (seed, epoch). With ``batch_size=None`` the pass is a single
    full-gradient step, which for zero momentum and zero decay is
    exactly :func:`gd_step`.
    """
    theta = np.asarray(theta, dtype=np.float64)
    velocity = np.asarray(velocity, dtype=np.float64)
    eta = learning_rate(cfg, epoch)
    _require_batches(problem, cfg)
    if cfg.batch_size is None:
        batches = [None]
    else:
        order = np.random.default_rng([cfg.seed, epoch]).permutation(problem.n_samples)
        batches = [
            order[i : i + cfg.batch_size]
            for i in range(0, problem.n_samples, cfg.batch_size)
        ]
    for batch in batches:
        g = problem.grad(theta) if batch is None else problem.batch_grad(theta, batch)
        velocity = cfg.momentum * velocity + (_gradient(g, theta) + cfg.weight_decay * theta)
        theta = theta - eta * velocity
        norm = np.linalg.norm(theta)
        if not norm <= DIVERGENCE_NORM:  # NaN too, as from an oracle that writes into theta
            detail = f"norm > {DIVERGENCE_NORM:g}" if norm > DIVERGENCE_NORM else "norm is NaN"
            raise NumericalFailure(f"parameters diverged at epoch {epoch} ({detail})")
    return theta, velocity


def _require_batches(problem: Problem, cfg: OptimizerConfig) -> None:
    """Raise InvalidConfig unless ``problem`` can serve ``cfg``'s mini-batches."""
    if cfg.batch_size is None:
        return
    if problem.batch_grad is None or problem.n_samples is None:
        raise InvalidConfig(f"{problem.name} offers no mini-batch gradients")
    if cfg.batch_size > problem.n_samples:
        raise InvalidConfig(f"batch_size {cfg.batch_size} exceeds n_samples {problem.n_samples}")


@dataclass(frozen=True)
class EpochRecord:
    """Per-epoch snapshot of the base optimizer."""

    epoch: int
    theta: np.ndarray = field(repr=False)
    objective: float
    grad_norm: float
    eta: float


@dataclass(frozen=True)
class AccelRecord:
    """Per-epoch extrapolation result, recorded next to the vanilla trace.

    ``lam_used`` is the ridge that entered the solve,
    :attr:`Coefficients.lam_used`, with or without a grid. It is None when
    the entry is a plain copy of the iterate (window not yet filled, solve
    failed, or adaptive fallback), with the iterate's own objective and grad_norm.
    """

    epoch: int
    theta: np.ndarray = field(repr=False)
    objective: float
    grad_norm: float
    lam_used: float | None


def run_with_rna(
    problem: Problem,
    opt_cfg: OptimizerConfig,
    rna_cfg: RnaConfig | None,
    epochs: int,
    theta0=None,
    flush_on_drop: bool = False,
) -> tuple[list[EpochRecord], list[AccelRecord]]:
    """Train for ``epochs`` passes, extrapolating each epoch offline as it ends.

    Each epoch extrapolates its last ``rna_cfg.window + 1`` iterates,
    grid-adaptive when ``rna_cfg.lam_grid`` is set and scored by the
    objective. A degenerate solve falls back to the last iterate for that
    epoch; a singular system, which signals a misconfigured ridge rather
    than unlucky data, raises at its epoch, so ahead of any later training
    error. Pass ``rna_cfg=None`` to disable acceleration; the vanilla trace
    is bit-identical either way.

    ``flush_on_drop`` restarts the window at every schedule drop, since
    a drop changes the dynamics the window is extrapolating.

    Returns:
        (vanilla records, acceleration records); the latter is empty
        when acceleration is disabled.
    """
    cfgs = [] if rna_cfg is None else [rna_cfg]
    vanilla: list[EpochRecord] = []
    accelerated: list[AccelRecord] = []
    for record, entries in _stream(problem, opt_cfg, cfgs, epochs, flush_on_drop, theta0):
        vanilla.append(record)
        for entry in entries:
            if isinstance(entry, RnaError):
                raise entry
            accelerated.append(entry)
    return vanilla, accelerated


def _stream(problem, opt_cfg, rna_cfgs, epochs, flush_on_drop=False, theta0=None):
    """Check the training settings, then return a generator that trains epoch by epoch,
    extrapolating each epoch for every config in ``rna_cfgs``.

    Bad ``epochs`` or ``theta0``, or a batch size that ``problem`` cannot serve, raise
    here, before any epoch, and so does a ring too long for a C ssize_t. The generator
    yields, per epoch, its :class:`EpochRecord`
    and one entry per config: its :class:`AccelRecord`, the :class:`RnaError` of its
    point (a failed solve) that ends that config, or None once it has ended. A training
    error (a bad gradient, a NaN or diverged theta) is raised after the epochs before it
    have been yielded. The ring then holds finite d-vectors, so forming a window fails
    only for an oracle that wrote into a kept iterate, and that is raised too. Config i
    extrapolates the last ``rna_cfgs[i].window + 1`` iterates of a ring that holds the
    newest ``min(max(window), epochs) + 1`` and is cleared at each drop if
    ``flush_on_drop``. Per epoch the longest window a live config reads is stacked,
    checked and differenced once, and a shorter one is a suffix of it. Each window
    length forms its Gram matrix once and solves its configs' ridges, plain and grid
    alike, in one ``_solve`` call. Each distinct (length, lam, lam_grid, weight_target)
    is extrapolated from its own entries and evaluated once by :func:`_evaluated` (one
    ``problem.value_and_grad`` call when the problem has one), and its configs share it;
    the iterate itself stands in with its record's objective and gradient norm, bit for bit.
    """
    epochs = _require_int("epochs", epochs)
    theta = np.zeros(problem.dim) if theta0 is None else np.array(theta0, float).ravel()
    if theta.size != problem.dim:
        raise InvalidConfig(f"theta0 has size {theta.size}, problem.dim is {problem.dim}")
    if not np.isfinite(theta).all():
        raise NumericalFailure("theta0 contains NaN or infinite entries")
    _require_batches(problem, opt_cfg)
    window = min(max((c.window for c in rna_cfgs), default=0), epochs)
    need = "be below the largest C ssize_t"
    ring = _read("window (K, at most the epochs)", window, lambda w: deque(maxlen=w + 1), need)
    return _epochs(problem, opt_cfg, rna_cfgs, epochs, flush_on_drop, theta, ring)


def _epochs(problem, opt_cfg, rna_cfgs, epochs, flush_on_drop, theta, ring):
    """:func:`_stream`'s generator, from the checked ``theta0`` as ``theta`` and the
    empty ``ring``."""
    velocity = np.zeros_like(theta)
    drops = {e for e, _ in opt_cfg.schedule} if flush_on_drop else set()
    live = range(len(rna_cfgs))
    for epoch in range(1, epochs + 1):
        theta, velocity = sgd_momentum_epoch(theta, velocity, problem, opt_cfg, epoch)
        objective, grad_norm = _evaluated(problem, theta)
        record = EpochRecord(
            epoch=epoch,
            theta=theta.copy(),
            objective=objective,
            grad_norm=grad_norm,
            eta=learning_rate(opt_cfg, epoch),
        )
        if epoch in drops:
            ring.clear()
        ring.append(record.theta)
        entries = [None] * len(rna_cfgs)
        by_window = sorted(live, key=lambda i: rna_cfgs[i].window)  # the longest live one last
        if len(ring) > 1 and by_window:
            window = _window(ring, rna_cfgs[by_window[-1]].window)
        for length, group in groupby(by_window, lambda i: min(len(ring), rna_cfgs[i].window + 1)):
            cfgs = [(i, rna_cfgs[i]) for i in group]
            points = {}
            if length > 1:  # a shorter window is a suffix of the longest one
                diffs = window[-length:]
                lams = list(dict.fromkeys(lam for _, c in cfgs for lam in _ridges(c)))
                solved = dict(zip(lams, _solve(_gram(diffs[:-1]), lams)))  # every ridge, one stack
            for i, cfg in cfgs:
                key = (cfg.lam, cfg.lam_grid, cfg.weight_target) if length > 1 else None
                if key not in points:
                    own = (diffs, [solved[lam] for lam in _ridges(cfg)]) if length > 1 else ()
                    try:
                        points[key] = _extrapolated(problem, record, cfg, *own)
                    except RnaError as exc:
                        points[key] = exc
                entries[i] = points[key]
        live = [i for i in live if not isinstance(entries[i], RnaError)]
        yield record, entries


def _evaluated(problem, theta, objective=None) -> tuple[float, float]:
    """The objective and gradient norm recorded at ``theta``: one ``value_and_grad`` call
    when the problem has one, else ``f`` and ``grad``, and only ``grad`` when the
    ``objective`` is known. A gradient not shaped like ``theta`` raises DimensionMismatch;
    non-finite values are recorded as they are."""
    if objective is None and problem.value_and_grad is not None:
        objective, g = problem.value_and_grad(theta)
    else:
        objective = problem.f(theta) if objective is None else objective
        g = problem.grad(theta)
    return float(objective), float(np.linalg.norm(_shaped(g, theta)))


def _extrapolated(problem, record, cfg, diffs=None, entries=None) -> AccelRecord:
    """``record``'s epoch extrapolated from ``diffs`` and ``entries``, as for
    :func:`_extrapolate`, and evaluated once. Where the point is the iterate itself (no
    ``diffs``, a DegenerateSum, or a grid's fallback), a copy of its theta stands in,
    with the record's own objective and gradient norm, bit for bit, and no oracle call."""
    theta_hat = coeffs = None
    if diffs is not None:
        try:  # a grid is ranked by f: its score is the objective, the fallback's the record's
            theta_hat, _, coeffs, objective = _extrapolate(
                diffs, cfg, entries,
                lambda c: float(problem.f(_combine(diffs, c.weights, cfg.weight_target))),
                record.objective,
            )
        except DegenerateSum:
            pass
    if coeffs is None:  # the fallback's theta_hat is already a copy of the iterate
        theta = record.theta.copy() if theta_hat is None else theta_hat
        return AccelRecord(record.epoch, theta, record.objective, record.grad_norm, None)
    objective, grad_norm = _evaluated(problem, theta_hat, objective)
    return AccelRecord(record.epoch, theta_hat, objective, grad_norm, coeffs.lam_used)
