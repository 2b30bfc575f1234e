"""Experiment descriptions, their on-disk form, and sweep machinery.

A spec is a flat ``key = value`` text file (dotted keys for the nested
configs) that round-trips losslessly: floats are rendered with ``repr``,
empty values mean None. Each key is declared once, with its type, in
``_KEYS``; a file is a set of overrides on the defaults that the
:class:`ExperimentSpec` constructor fills in for its ``problem`` (from
``_PROBLEMS``), and the CLI turns its flags into the same keys, so a value
from a file and one from a flag take one path and are validated once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .checkpoint import _write_table, write_checkpoints, write_metrics
from .checkpoint import _render as _render_g17
from .core import Coefficients, RnaConfig, WeightTarget, _select_ridge, _validated, rna
from .errors import InvalidConfig, RnaError, _require_int
from .optimizers import OptimizerConfig, _replay, _train, run_with_rna
from .problems import Problem, make_logistic, make_mlp, make_quadratic

__all__ = [
    "ExperimentSpec",
    "default_spec",
    "build_problem",
    "run_experiment",
    "accelerate_checkpoints",
    "sweep",
    "SweepCell",
]

# name -> (builder, default parameters named as the builder's arguments, default eta)
_PROBLEMS = {
    "quadratic": (make_quadratic, {"dim": 20, "condition": 100.0, "seed": 0}, 0.01),
    "logistic": (make_logistic, {"n_samples": 500, "dim": 50, "l2": 0.001, "seed": 0}, 2.0),
    "mlp": (make_mlp, {"d_in": 10, "hidden": 8, "n_samples": 200, "seed": 0}, 0.2),
}


def _number(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    raise InvalidConfig(f"expected a number, got {text!r}")


def _numbers(text: str) -> tuple:
    """Comma-separated numbers, as in spec files and the CLI's list flags."""
    return tuple(_number(part.strip()) for part in text.split(",") if part.strip())


def _schedule(text: str) -> tuple:
    out = []
    for part in text.split(",") if text else ():
        epoch, _, mult = part.partition(":")
        if not mult:
            raise InvalidConfig(f"schedule entries look like 'epoch:mult', got {part!r}")
        out.append((_number(epoch.strip()), _number(mult.strip())))
    return tuple(out)


def _flag(text: str) -> bool:
    if text.lower() not in ("", "true", "false"):
        raise InvalidConfig(f"expected true or false, got {text!r}")
    return text.lower() == "true"


def _optional(parse):
    return lambda text: None if text == "" else parse(text)


# Every spec key except ``problem`` and ``problem.*``, in file order:
# key -> (ExperimentSpec field holding the config, or None; field; parser).
_KEYS = {
    "optimizer.eta": ("optimizer", "eta", _number),
    "optimizer.momentum": ("optimizer", "momentum", _number),
    "optimizer.weight_decay": ("optimizer", "weight_decay", _number),
    "optimizer.schedule": ("optimizer", "schedule", _schedule),
    "optimizer.batch_size": ("optimizer", "batch_size", _optional(_number)),
    "optimizer.seed": ("optimizer", "seed", _number),
    "rna.window": ("rna", "window", _number),
    "rna.lambda": ("rna", "lam", _number),
    "rna.lambda_grid": ("rna", "lam_grid", _optional(_numbers)),
    "rna.weight_target": ("rna", "weight_target", str),
    "epochs": (None, "epochs", _number),
    "flush_on_drop": (None, "flush_on_drop", _flag),
    "metrics_out": (None, "metrics_out", _optional(str)),
    "checkpoints_out": (None, "checkpoints_out", _optional(str)),
}


@dataclass
class ExperimentSpec:
    problem: str = "quadratic"
    problem_params: dict = field(default_factory=dict)
    optimizer: OptimizerConfig | None = None
    rna: RnaConfig = field(default_factory=RnaConfig)
    epochs: int = 60
    flush_on_drop: bool = False
    metrics_out: str | None = "metrics.csv"
    checkpoints_out: str | None = None

    def __post_init__(self):
        # Given parameters override the problem's defaults, as in a spec file;
        # without an optimizer, plain gradient steps at the problem's default eta.
        _, params, eta = _problem(self.problem)
        self.problem_params = {**params, **self.problem_params}
        if self.optimizer is None:
            self.optimizer = OptimizerConfig(eta=eta, momentum=0.0, weight_decay=0.0)

    def to_text(self) -> str:
        lines = [f"problem = {self.problem}"]
        for key in sorted(self.problem_params):
            lines.append(f"problem.{key} = {_render(self.problem_params[key])}")
        for key, (section, name, _) in _KEYS.items():
            owner = self if section is None else getattr(self, section)
            lines.append(f"{key} = {_render(getattr(owner, name))}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentSpec":
        """Parse a spec; its keys override the defaults of its problem."""
        pairs = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise InvalidConfig(f"line {lineno}: expected 'key = value', got {line!r}")
            key, _, value = stripped.partition("=")
            pairs[key.strip()] = value.strip()
        problem = pairs.pop("problem", "quadratic")
        values = {}
        for key, value in pairs.items():
            if key not in _KEYS and not key.startswith("problem."):
                raise InvalidConfig(f"unknown spec key {key!r}")
            parse = _KEYS[key][2] if key in _KEYS else _number
            try:
                values[key] = parse(value)
            except InvalidConfig as exc:
                raise InvalidConfig(f"{key}: {exc}") from None
        return _override(cls(problem=problem), values)

    def to_file(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    @classmethod
    def from_file(cls, path) -> "ExperimentSpec":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_text(fh.read())


def _override(spec: ExperimentSpec, values: dict) -> ExperimentSpec:
    """``spec`` with each spec key in ``values`` set; a rejected value names its key."""
    for key, value in values.items():
        try:
            if key.startswith("problem."):
                params = {**spec.problem_params, key[len("problem."):]: value}
                spec = replace(spec, problem_params=params)
                continue
            section, name, _ = _KEYS[key]
            if section is not None:
                value = replace(getattr(spec, section), **{name: value})
                name = section
            spec = replace(spec, **{name: value})
        except InvalidConfig as exc:
            raise InvalidConfig(f"{key}: {exc}") from None
    return spec


def _render(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, WeightTarget):
        return value.value
    if isinstance(value, tuple):  # a ridge grid, or a schedule of (epoch, multiplier) pairs
        return ",".join(
            ":".join(map(_render, v)) if isinstance(v, tuple) else _render(v) for v in value
        )
    return str(value)


def _problem(name: str):
    if name not in _PROBLEMS:
        raise InvalidConfig(f"unknown problem {name!r}; choose from {sorted(_PROBLEMS)}")
    return _PROBLEMS[name]


def default_spec(problem: str = "quadratic", seed: int | None = None) -> ExperimentSpec:
    """Ready-to-run spec for one of the built-in problems."""
    return ExperimentSpec(problem, {} if seed is None else {"seed": int(seed)})


def build_problem(spec: ExperimentSpec) -> Problem:
    builder, defaults, _ = _problem(spec.problem)
    unknown = set(spec.problem_params) - set(defaults)
    if unknown:
        raise InvalidConfig(f"{spec.problem} does not take parameters {sorted(unknown)}")
    try:
        return builder(**spec.problem_params)
    except InvalidConfig as exc:  # a builder's message starts with the parameter's name
        raise InvalidConfig(f"problem.{exc}") from None


def run_experiment(spec: ExperimentSpec, problem: Problem | None = None):
    """Execute a spec: train, extrapolate per epoch, write the outputs.

    Returns (vanilla records, acceleration records, problem). Two outputs
    on one path raise InvalidConfig before training: the checkpoint would
    overwrite the metrics.
    """
    metrics, ckpt = spec.metrics_out, spec.checkpoints_out
    if metrics and ckpt and os.path.realpath(metrics) == os.path.realpath(ckpt):
        raise InvalidConfig(f"metrics_out and checkpoints_out are both {metrics}")
    if problem is None:
        problem = build_problem(spec)
    vanilla, accelerated = run_with_rna(
        problem,
        spec.optimizer,
        spec.rna,
        spec.epochs,
        flush_on_drop=spec.flush_on_drop,
    )
    if spec.metrics_out:
        write_metrics(spec.metrics_out, vanilla, accelerated)
    if spec.checkpoints_out:
        write_checkpoints(spec.checkpoints_out, [accelerated[-1].theta], "f64")
    return vanilla, accelerated, problem


def accelerate_checkpoints(
    iterates,
    window: int,
    lam: float,
    lam_grid=None,
    scores=None,
) -> tuple[np.ndarray, float | None, Coefficients | None]:
    """Extrapolate a stored sequence, optionally ranking a ridge grid.

    Without a grid this is one plain extrapolation over the last
    ``window + 1`` iterates. With a grid, per-checkpoint objective
    values must be supplied; each candidate is ranked by the unit-sum
    linearization ``sum_k c_k * score[sigma(k)]`` (the only estimate of
    the candidate's objective available without evaluating the model),
    the last checkpoint is the fallback candidate at its own recorded
    score, and ties go to the fallback, as in :func:`rnacc.adaptive_rna`.
    Returns (theta_hat, lam_star, coefficients) with None markers for
    the fallback. Bad settings and missing, miscounted or non-finite
    scores raise InvalidConfig; bad iterates raise as in :func:`rnacc.rna`.
    """
    cfg = RnaConfig(window=window, lam=lam, lam_grid=lam_grid)
    if cfg.lam_grid is None:
        theta_hat, coeffs = rna(iterates, cfg)
        return theta_hat, coeffs.lam_used, coeffs
    if scores is None:
        raise InvalidConfig("ranking a lambda grid requires per-checkpoint scores")
    mat = _validated(iterates)
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if scores.size != mat.shape[0]:
        raise InvalidConfig(
            f"{scores.size} scores for {mat.shape[0]} checkpoints; counts must match"
        )
    if not np.isfinite(scores).all():
        raise InvalidConfig("scores contain NaN or infinite values")
    tail_scores = scores[-(cfg.window + 1):]
    return _select_ridge(
        mat[-(cfg.window + 1):],
        cfg,
        lambda c: float(c.weights @ tail_scores[1:]),
        float(tail_scores[-1]),
    )


@dataclass(frozen=True)
class SweepCell:
    """Outcome of one (window, lambda) grid cell."""

    window: int
    lam: float
    status: str
    metrics_path: str | None
    final_objective: float | None = None
    final_objective_rna: float | None = None
    final_suboptimality: float | None = None
    final_suboptimality_rna: float | None = None
    error: str = ""


def _run_cell(spec, problem, vanilla, error, cfg, metrics_path, f_star) -> SweepCell:
    try:
        accelerated = _replay(problem, vanilla, cfg, spec.optimizer, spec.flush_on_drop)
    except RnaError as exc:
        error = exc
    if error is not None:
        return SweepCell(cfg.window, cfg.lam, "failed", None, error=str(error))
    write_metrics(metrics_path, vanilla, accelerated)
    final_v, final_a = vanilla[-1].objective, accelerated[-1].objective
    return SweepCell(
        window=cfg.window,
        lam=cfg.lam,
        status="ok",
        metrics_path=metrics_path,
        final_objective=final_v,
        final_objective_rna=final_a,
        final_suboptimality=None if f_star is None else final_v - f_star,
        final_suboptimality_rna=None if f_star is None else final_a - f_star,
    )


_SUMMARY_NAME = "summary.csv"


def _sweep_cells(spec: ExperimentSpec, windows, lams) -> list[tuple[RnaConfig, str]]:
    """Each (window, lambda) cell's config and metrics file name, in sweep order.

    With ``_SUMMARY_NAME`` these are every file a sweep writes into its directory.
    No cells, a bad cell or two cells sharing a file name raise InvalidConfig.
    """
    lams = list(lams)
    cells = [
        RnaConfig(window=w, lam=l, weight_target=spec.rna.weight_target)
        for w in windows
        for l in lams
    ]
    if not cells:
        raise InvalidConfig("sweep needs at least one window and one lambda")
    names = [f"metrics_k{cfg.window}_lam{cfg.lam:g}.csv" for cfg in cells]
    clashes = [name for i, name in enumerate(names) if name in names[:i]]
    if clashes:
        raise InvalidConfig(f"two sweep cells would both write {clashes[0]}")
    return list(zip(cells, names))


def sweep(spec: ExperimentSpec, windows, lams, out_dir) -> list[SweepCell]:
    """Train once, then replay that trace for every (window, lambda) cell.

    Each cell writes the ``metrics_k{K}_lam{lambda:g}.csv`` that :func:`run_experiment`
    would; a failing cell is recorded in ``summary.csv`` and spares the others. Bad
    epochs, problem parameters or cells, or two cells sharing a file name, raise
    InvalidConfig, and a failed reference optimum NumericalFailure, before ``out_dir``
    is made.
    """
    _require_int("epochs", spec.epochs)
    cells = _sweep_cells(spec, windows, lams)
    problem = build_problem(spec)
    f_star = None if problem.optimum is None else float(problem.f(problem.optimum))
    os.makedirs(out_dir, exist_ok=True)
    vanilla, error = _train(problem, spec.optimizer, spec.epochs)
    results = [
        _run_cell(spec, problem, vanilla, error, cfg, os.path.join(out_dir, name), f_star)
        for cfg, name in cells
    ]
    _write_summary(os.path.join(out_dir, _SUMMARY_NAME), results)
    return results


# The four float columns are the SweepCell fields of the same names.
_SUMMARY_COLUMNS = (
    "k", "lambda", "status",
    "final_objective", "final_objective_rna", "final_suboptimality", "final_suboptimality_rna",
    "error",
)


def _write_summary(path, cells: list[SweepCell]) -> None:
    _write_table(
        path,
        _SUMMARY_COLUMNS,
        (
            [str(c.window), _render(c.lam), c.status]
            + [_render_g17(getattr(c, name)) for name in _SUMMARY_COLUMNS[3:7]]
            + [c.error.replace(",", ";")]
            for c in cells
        ),
    )
