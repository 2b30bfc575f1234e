"""Experiment descriptions, their on-disk form, and sweep machinery.

A spec is a flat ``key = value`` text file (dotted keys for the nested
configs) that round-trips losslessly: floats are rendered with ``repr``,
empty values mean None. Command line flags override file values at the
CLI layer; this module only defines the format and the runners.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import MetricsRow, write_checkpoints, write_metrics
from .core import Coefficients, RnaConfig, _select_ridge, _validated, rna
from .errors import InvalidConfig, RnaError
from .optimizers import OptimizerConfig, _replay, _train, run_with_rna
from .problems import Problem, make_logistic, make_mlp, make_quadratic

__all__ = [
    "ExperimentSpec",
    "default_spec",
    "build_problem",
    "rows_from_traces",
    "run_experiment",
    "accelerate_checkpoints",
    "sweep",
    "SweepCell",
]

_PROBLEM_BUILDERS = {
    "quadratic": (make_quadratic, ("dim", "condition", "seed")),
    "logistic": (make_logistic, ("n_samples", "dim", "l2", "seed")),
    "mlp": (make_mlp, ("d_in", "hidden", "n_samples", "seed")),
}

_DEFAULT_PROBLEM_PARAMS = {
    "quadratic": {"dim": 20, "condition": 100.0, "seed": 0},
    "logistic": {"n_samples": 500, "dim": 50, "l2": 0.001, "seed": 0},
    "mlp": {"d_in": 10, "hidden": 8, "n_samples": 200, "seed": 0},
}

_DEFAULT_ETA = {"quadratic": 0.01, "logistic": 2.0, "mlp": 0.2}


@dataclass
class ExperimentSpec:
    problem: str = "quadratic"
    problem_params: dict = field(
        default_factory=lambda: dict(_DEFAULT_PROBLEM_PARAMS["quadratic"])
    )
    optimizer: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(eta=0.01, momentum=0.0, weight_decay=0.0)
    )
    rna: RnaConfig = field(default_factory=RnaConfig)
    epochs: int = 60
    flush_on_drop: bool = False
    metrics_out: str | None = "metrics.csv"
    checkpoints_out: str | None = None

    def to_text(self) -> str:
        o, r = self.optimizer, self.rna
        lines = [f"problem = {self.problem}"]
        for key in sorted(self.problem_params):
            lines.append(f"problem.{key} = {_render(self.problem_params[key])}")
        lines += [
            f"optimizer.eta = {_render(o.eta)}",
            f"optimizer.momentum = {_render(o.momentum)}",
            f"optimizer.weight_decay = {_render(o.weight_decay)}",
            f"optimizer.schedule = {_render_schedule(o.schedule)}",
            f"optimizer.batch_size = {_render(o.batch_size)}",
            f"optimizer.seed = {_render(o.seed)}",
            f"rna.window = {_render(r.window)}",
            f"rna.lambda = {_render(r.lam)}",
            f"rna.lambda_grid = {_render_list(r.lam_grid)}",
            f"rna.weight_target = {r.weight_target.value}",
            f"epochs = {_render(self.epochs)}",
            f"flush_on_drop = {_render(self.flush_on_drop)}",
            f"metrics_out = {_render(self.metrics_out)}",
            f"checkpoints_out = {_render(self.checkpoints_out)}",
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentSpec":
        pairs = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise InvalidConfig(f"line {lineno}: expected 'key = value', got {line!r}")
            key, _, value = stripped.partition("=")
            pairs[key.strip()] = value.strip()
        known = {
            "problem", "optimizer.eta", "optimizer.momentum",
            "optimizer.weight_decay", "optimizer.schedule",
            "optimizer.batch_size", "optimizer.seed", "rna.window",
            "rna.lambda", "rna.lambda_grid", "rna.weight_target", "epochs",
            "flush_on_drop", "metrics_out", "checkpoints_out",
        }
        for key in pairs:
            if key not in known and not key.startswith("problem."):
                raise InvalidConfig(f"unknown spec key {key!r}")
        base = cls()
        get = lambda key, fallback: pairs.get(key, fallback)
        problem = get("problem", base.problem)
        params = {
            key[len("problem."):]: _parse_scalar(value)
            for key, value in pairs.items()
            if key.startswith("problem.")
        }
        if not params:
            params = dict(_DEFAULT_PROBLEM_PARAMS.get(problem, {}))
        optimizer = OptimizerConfig(
            eta=_parse_scalar(get("optimizer.eta", _render(base.optimizer.eta))),
            momentum=_parse_scalar(get("optimizer.momentum", _render(base.optimizer.momentum))),
            weight_decay=_parse_scalar(
                get("optimizer.weight_decay", _render(base.optimizer.weight_decay))
            ),
            schedule=_parse_schedule(get("optimizer.schedule", "")),
            batch_size=_parse_scalar(get("optimizer.batch_size", "")),
            seed=_parse_scalar(get("optimizer.seed", _render(base.optimizer.seed))),
        )
        grid = _parse_list(get("rna.lambda_grid", ""))
        rna_cfg = RnaConfig(
            window=_parse_scalar(get("rna.window", _render(base.rna.window))),
            lam=_parse_scalar(get("rna.lambda", _render(base.rna.lam))),
            lam_grid=tuple(grid) if grid else None,
            weight_target=get("rna.weight_target", base.rna.weight_target.value),
        )
        return cls(
            problem=problem,
            problem_params=params,
            optimizer=optimizer,
            rna=rna_cfg,
            epochs=_parse_scalar(get("epochs", _render(base.epochs))),
            flush_on_drop=_parse_scalar(get("flush_on_drop", "false")),
            metrics_out=_parse_scalar(get("metrics_out", _render(base.metrics_out))),
            checkpoints_out=_parse_scalar(get("checkpoints_out", "")),
        )

    def to_file(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    @classmethod
    def from_file(cls, path) -> "ExperimentSpec":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_text(fh.read())


def _render(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_list(values) -> str:
    return "" if not values else ",".join(_render(v) for v in values)


def _render_schedule(schedule) -> str:
    return ",".join(f"{epoch}:{_render(mult)}" for epoch, mult in schedule)


def _parse_scalar(text: str):
    text = text.strip()
    if text == "":
        return None
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_list(text: str) -> list:
    text = text.strip()
    return [] if not text else [_parse_scalar(part) for part in text.split(",")]


def _parse_schedule(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    out = []
    for part in text.split(","):
        epoch, _, mult = part.partition(":")
        if not mult:
            raise InvalidConfig(f"schedule entries look like 'epoch:mult', got {part!r}")
        out.append((int(epoch), float(mult)))
    return tuple(out)


def default_spec(problem: str = "quadratic", seed: int | None = None) -> ExperimentSpec:
    """Ready-to-run spec for one of the built-in problems."""
    if problem not in _PROBLEM_BUILDERS:
        raise InvalidConfig(
            f"unknown problem {problem!r}; choose from {sorted(_PROBLEM_BUILDERS)}"
        )
    params = dict(_DEFAULT_PROBLEM_PARAMS[problem])
    if seed is not None:
        params["seed"] = int(seed)
    return ExperimentSpec(
        problem=problem,
        problem_params=params,
        optimizer=OptimizerConfig(
            eta=_DEFAULT_ETA[problem], momentum=0.0, weight_decay=0.0
        ),
    )


def build_problem(spec: ExperimentSpec) -> Problem:
    if spec.problem not in _PROBLEM_BUILDERS:
        raise InvalidConfig(
            f"unknown problem {spec.problem!r}; choose from {sorted(_PROBLEM_BUILDERS)}"
        )
    builder, names = _PROBLEM_BUILDERS[spec.problem]
    unknown = set(spec.problem_params) - set(names)
    if unknown:
        raise InvalidConfig(f"{spec.problem} does not take parameters {sorted(unknown)}")
    return builder(**spec.problem_params)


def rows_from_traces(vanilla, accelerated) -> list[MetricsRow]:
    assert len(vanilla) == len(accelerated)
    return [
        MetricsRow(
            epoch=v.epoch,
            objective=v.objective,
            grad_norm=v.grad_norm,
            objective_rna=a.objective,
            grad_norm_rna=a.grad_norm,
            lambda_used=a.lam_used,
        )
        for v, a in zip(vanilla, accelerated)
    ]


def run_experiment(spec: ExperimentSpec, problem: Problem | None = None):
    """Execute a spec: train, extrapolate per epoch, write the outputs.

    Returns (vanilla records, acceleration records, problem).
    """
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
        write_metrics(spec.metrics_out, rows_from_traces(vanilla, accelerated))
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
    write_metrics(metrics_path, rows_from_traces(vanilla, accelerated))
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


def sweep(spec: ExperimentSpec, windows, lams, out_dir) -> list[SweepCell]:
    """Train once, then replay that trace for every (window, lambda) cell.

    Each cell writes the ``metrics_k{K}_lam{lambda:g}.csv`` that :func:`run_experiment`
    would; a failing cell is recorded in ``summary.csv`` and spares the others. Bad
    cells, or two sharing a file name, raise InvalidConfig before ``out_dir`` is made.
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
    os.makedirs(out_dir, exist_ok=True)
    problem = build_problem(spec)
    f_star = None if problem.optimum is None else float(problem.f(problem.optimum))
    vanilla, error = _train(problem, spec.optimizer, spec.epochs)
    results = [
        _run_cell(spec, problem, vanilla, error, cfg, os.path.join(out_dir, name), f_star)
        for cfg, name in zip(cells, names)
    ]
    _write_summary(os.path.join(out_dir, "summary.csv"), results)
    return results


def _write_summary(path, cells: list[SweepCell]) -> None:
    header = (
        "k,lambda,status,final_objective,final_objective_rna,"
        "final_suboptimality,final_suboptimality_rna,error"
    )
    lines = [header]
    for c in cells:
        fields = [
            str(c.window),
            _render(c.lam),
            c.status,
            "" if c.final_objective is None else format(c.final_objective, ".17g"),
            "" if c.final_objective_rna is None else format(c.final_objective_rna, ".17g"),
            "" if c.final_suboptimality is None else format(c.final_suboptimality, ".17g"),
            ""
            if c.final_suboptimality_rna is None
            else format(c.final_suboptimality_rna, ".17g"),
            c.error.replace(",", ";"),
        ]
        lines.append(",".join(fields))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
