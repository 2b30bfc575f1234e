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

import numpy as np

from .core import RnaConfig, _combine, _extrapolate, _window
from .errors import DegenerateSum, InvalidConfig, NumericalFailure, RnaError, _require_int
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
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise InvalidConfig(f"eta must be positive and finite, got {self.eta}")
        if not (0.0 <= self.momentum < 1.0):
            raise InvalidConfig(f"momentum must lie in [0, 1), got {self.momentum}")
        if not (self.weight_decay >= 0.0 and math.isfinite(self.weight_decay)):
            raise InvalidConfig(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        sched = tuple(
            (_require_int("schedule epoch", e, minimum=0), float(m)) for e, m in self.schedule
        )
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


def gd_step(theta: np.ndarray, problem: Problem, eta: float) -> np.ndarray:
    """One plain gradient descent step; exactly one gradient evaluation."""
    if not eta > 0.0:
        raise InvalidConfig(f"eta must be positive, got {eta}")
    g = problem.grad(theta)
    if not np.isfinite(g).all():
        raise NumericalFailure("gradient contains NaN or infinite entries")
    return theta - eta * g


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
        if not np.isfinite(g).all():
            raise NumericalFailure("gradient contains NaN or infinite entries")
        velocity = cfg.momentum * velocity + (g + cfg.weight_decay * theta)
        theta = theta - eta * velocity
        if np.linalg.norm(theta) > DIVERGENCE_NORM:
            raise NumericalFailure(
                f"parameters diverged at epoch {epoch} (norm > {DIVERGENCE_NORM:g})"
            )
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
    failed, or adaptive fallback).
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
    here, before any epoch. The generator yields, per epoch, its :class:`EpochRecord`
    and one entry per config: its :class:`AccelRecord`, the :class:`RnaError` that ends
    that config, or None once it has ended. A training error is raised after the epochs
    before it have been yielded. Config i extrapolates the last
    ``rna_cfgs[i].window + 1`` iterates of a ring that holds the newest
    ``min(max(window), epochs) + 1`` and is cleared at each drop if ``flush_on_drop``.
    Within an epoch one loop visits the live configs by window, holding one window at a
    time: each distinct window length is stacked, checked, differenced and its Gram
    matrix formed once, and each distinct (length, lam, lam_grid, weight_target) is
    solved and evaluated once; configs that share one share its entry.
    """
    epochs = _require_int("epochs", epochs)
    theta = np.zeros(problem.dim) if theta0 is None else np.array(theta0, float).ravel()
    if theta.size != problem.dim:
        raise InvalidConfig(f"theta0 has size {theta.size}, problem.dim is {problem.dim}")
    if not np.isfinite(theta).all():
        raise NumericalFailure("theta0 contains NaN or infinite entries")
    _require_batches(problem, opt_cfg)
    return _epochs(problem, opt_cfg, rna_cfgs, epochs, flush_on_drop, theta)


def _epochs(problem, opt_cfg, rna_cfgs, epochs, flush_on_drop, theta):
    """:func:`_stream`'s generator, from the checked ``theta0`` as ``theta``."""
    velocity = np.zeros_like(theta)
    drops = {e for e, _ in opt_cfg.schedule} if flush_on_drop else set()
    ring = deque(maxlen=min(max((c.window for c in rna_cfgs), default=0), epochs) + 1)
    live = range(len(rna_cfgs))
    for epoch in range(1, epochs + 1):
        theta, velocity = sgd_momentum_epoch(theta, velocity, problem, opt_cfg, epoch)
        record = EpochRecord(
            epoch=epoch,
            theta=theta.copy(),
            objective=float(problem.f(theta)),
            grad_norm=float(np.linalg.norm(problem.grad(theta))),
            eta=learning_rate(opt_cfg, epoch),
        )
        if epoch in drops:
            ring.clear()
        ring.append(record.theta)
        entries, points, held = [None] * len(rna_cfgs), {}, 0
        for i in sorted(live, key=lambda i: rna_cfgs[i].window):  # one window held at a time
            cfg = rna_cfgs[i]
            length = min(len(ring), cfg.window + 1)
            if length != held:
                held, window = length, (None, None)
                if length > 1:
                    try:  # the window stacked from the ring's list is differenced in place
                        window = _window(list(ring)[-length:], length - 1)
                    except RnaError as exc:
                        window = exc
            key = (length,) if length == 1 else (length, cfg.lam, cfg.lam_grid, cfg.weight_target)
            if key not in points:
                try:
                    if isinstance(window, RnaError):
                        raise window
                    points[key] = _extrapolated(problem, record, *window, cfg)
                except RnaError as exc:
                    points[key] = exc
            entries[i] = points[key]
        live = [i for i in live if not isinstance(entries[i], RnaError)]
        yield record, entries


def _extrapolated(problem, record, diffs, gram, cfg) -> AccelRecord:
    """``record``'s epoch extrapolated from ``diffs`` and its ``gram`` (None: a copy of it)."""
    theta_hat, coeffs, objective = record.theta, None, None
    if diffs is not None:
        try:  # a grid is ranked by f: its score is the objective, the fallback's the record's
            theta_hat, _, coeffs, objective = _extrapolate(
                diffs,
                gram,
                cfg,
                lambda c: float(problem.f(_combine(diffs, c.weights, cfg.weight_target))),
                record.objective,
            )
        except DegenerateSum:
            theta_hat, coeffs = record.theta, None
    return AccelRecord(
        epoch=record.epoch,
        theta=np.array(theta_hat, dtype=np.float64),
        objective=float(problem.f(theta_hat)) if objective is None else objective,
        grad_norm=float(np.linalg.norm(problem.grad(theta_hat))),
        lam_used=None if coeffs is None else coeffs.lam_used,
    )
