"""Experiment specs, runs and sweeps.

A spec is a flat ``key = value`` text file (dotted keys for the nested
configs) that round-trips losslessly: floats are rendered with ``repr``,
empty values mean None. Each key is declared once, with its type, in
``_KEYS``; a file is a set of overrides on the defaults that the
:class:`ExperimentSpec` constructor fills in for its ``problem`` (from
``_PROBLEMS``), and the CLI hands its flags' text to the same keys, so a value
from a file and one from a flag take one path, ``_override``, and read alike.
Extrapolation is the core's; :func:`accelerate_checkpoints` lives in
:mod:`rnacc.core` and is re-exported here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from .checkpoint import (
    METRIC_COLUMNS,
    _metric_row,
    _preflight,
    _replacing,
    _require_regular,
    _write_table,
    write_checkpoints,
    write_metrics,
)
from .checkpoint import _render as _render_g17
from .core import RnaConfig, WeightTarget, accelerate_checkpoints
from .errors import InvalidConfig, RnaError
from .optimizers import OptimizerConfig, _stream, run_with_rna
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


def _list(parse):
    """Comma-separated entries, each read by ``parse``; empty entries are skipped."""
    return lambda text: tuple(parse(part.strip()) for part in text.split(",") if part.strip())


def _drop(text: str) -> tuple:
    epoch, _, mult = text.partition(":")
    if not mult:
        raise InvalidConfig(f"schedule entries look like 'epoch:mult', got {text!r}")
    return _number(epoch.strip()), _number(mult.strip())


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
    "optimizer.schedule": ("optimizer", "schedule", _list(_drop)),
    "optimizer.batch_size": ("optimizer", "batch_size", _optional(_number)),
    "optimizer.seed": ("optimizer", "seed", _number),
    "rna.window": ("rna", "window", _number),
    "rna.lambda": ("rna", "lam", _number),
    "rna.lambda_grid": ("rna", "lam_grid", _optional(_list(_number))),
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
        """Parse a spec; its ``problem``, then its other keys in file order, override the defaults.

        A key given on two lines raises InvalidConfig naming both.
        """
        pairs, linenos = {}, {}
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise InvalidConfig(f"line {lineno}: expected 'key = value', got {line!r}")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key in linenos:
                raise InvalidConfig(
                    f"spec key {key!r} is given twice, on lines {linenos[key]} and {lineno}"
                )
            pairs[key], linenos[key] = value, lineno
        first = {"problem": pairs.pop("problem")} if "problem" in pairs else {}
        return _override(cls(), {**first, **pairs})

    def to_file(self, path) -> None:
        with _replacing(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    @classmethod
    def from_file(cls, path) -> "ExperimentSpec":
        """Read a spec file, which is UTF-8 text; an undecodable byte raises InvalidConfig."""
        _require_regular("the spec file", path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            msg = f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            raise InvalidConfig(msg) from None
        return cls.from_text(text)


def _override(spec: ExperimentSpec, values: dict) -> ExperimentSpec:
    """``spec`` with each spec key in ``values`` set, in order. Text is stripped, then
    parsed with the key's ``_KEYS`` parser (``_number`` for ``problem.*``); other values
    are taken as given. Another ``problem`` brings its own parameters and step;
    ``optimizer.seed`` stays. An unknown key raises InvalidConfig, and a rejected value
    names its key."""
    for key, value in values.items():
        if isinstance(value, str):
            value = value.strip()
        if key in _KEYS:
            section, name, parse = _KEYS[key]
        elif key.startswith("problem."):
            section, name, parse = "problem_params", key[len("problem."):], _number
        elif key != "problem":
            raise InvalidConfig(f"unknown spec key {key!r}")
        try:
            if key == "problem":
                if value != spec.problem:
                    optimizer = replace(ExperimentSpec(value).optimizer, seed=spec.optimizer.seed)
                    spec = replace(spec, problem=value, problem_params={}, optimizer=optimizer)
                continue
            value = parse(value) if isinstance(value, str) else value
            if section == "problem_params":
                value = {**spec.problem_params, name: value}
            elif section is not None:
                value = replace(getattr(spec, section), **{name: value})
            spec = replace(spec, **{section or name: value})
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


def run_experiment(spec: ExperimentSpec, problem: Problem | None = None, inputs=()):
    """Execute a spec: train, extrapolate per epoch, write the outputs.

    Returns (vanilla records, acceleration records, problem). ``inputs`` holds
    ``(label, path)`` pairs of files the run must not overwrite, such as its spec
    file. An output on one of them, or two outputs on one path, raise InvalidConfig,
    and an output that could not be written OSError, before training.
    """
    outputs = [("metrics_out", spec.metrics_out), ("checkpoints_out", spec.checkpoints_out)]
    _preflight([(label, path) for label, path in outputs if path], inputs)
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


def _cell(cfg, path, rows, final_v, final_a, error, f_star) -> SweepCell:
    """A cell's outcome; without an error its metrics ``rows`` are written to ``path``."""
    if error is not None:
        return SweepCell(cfg.window, cfg.lam, "failed", None, error=str(error))
    _write_table(path, METRIC_COLUMNS, rows)
    return SweepCell(
        window=cfg.window,
        lam=cfg.lam,
        status="ok",
        metrics_path=path,
        final_objective=final_v,
        final_objective_rna=final_a,
        final_suboptimality=None if f_star is None else final_v - f_star,
        final_suboptimality_rna=None if f_star is None else final_a - f_star,
    )


_SUMMARY_NAME = "summary.csv"


def _sweep_cells(spec: ExperimentSpec, windows, lams, out_dir) -> list[tuple[RnaConfig, str]]:
    """Each (window, lambda) cell's config and metrics file path, in sweep order.

    A cell's config is ``spec``'s with the cell's window and lambda, numbers or their
    text, set as ``run --k --lambda`` sets them. No cells or a bad cell raise InvalidConfig.
    """
    lams = list(lams)
    cells = [
        _override(spec, {"rna.window": w, "rna.lambda": l}).rna for w in windows for l in lams
    ]
    if not cells:
        raise InvalidConfig("sweep needs at least one window and one lambda")
    return [(c, os.path.join(out_dir, f"metrics_k{c.window}_lam{c.lam:g}.csv")) for c in cells]


def sweep(spec: ExperimentSpec, windows, lams, out_dir, inputs=()) -> list[SweepCell]:
    """Train once, extrapolating each epoch for all (window, lambda) cells as it ends.

    Cells share what they have in common: per epoch, the longest live window is
    differenced once and a shorter one is a suffix of it, each window forms its Gram
    matrix once and solves its cells' lambdas in one ``_solve`` call, each distinct
    (window, lambda) point is evaluated once (f and its gradient in one ``value_and_grad``
    call where the problem has one), and only the last ``max(windows) + 1`` iterates are
    held, never the whole vanilla trace. Each cell writes the
    ``metrics_k{K}_lam{lambda:g}.csv`` that :func:`run_experiment` would, byte for byte;
    a cell keeps its metrics rows and final objectives, never the extrapolated points. A
    failing cell is recorded in ``summary.csv`` and spares the others.
    ``inputs`` holds ``(label, path)`` pairs of files the sweep must not overwrite,
    such as its spec file. A spec that sets ``rna.lambda_grid`` or ``checkpoints_out``,
    which a sweep does not use, bad cells, two cells sharing a file name, an output on
    one of ``inputs``, bad problem parameters or training settings raise InvalidConfig,
    and a failed reference optimum NumericalFailure, before ``out_dir`` is made. An
    ``out_dir`` that is empty, lies in a file, is a file or has a name too long, or an
    output in it that is a directory, raise OSError before the problem is built.
    """
    if spec.rna.lam_grid is not None:
        raise InvalidConfig("rna.lambda_grid: each sweep cell solves at one lambda of the list")
    if spec.checkpoints_out:
        raise InvalidConfig("checkpoints_out: a sweep writes no checkpoint file")
    cells = _sweep_cells(spec, windows, lams, out_dir)
    summary = os.path.join(out_dir, _SUMMARY_NAME)
    outputs = [(f"cell k={cfg.window} lambda={cfg.lam!r}", path) for cfg, path in cells]
    outputs.append(("the summary", summary))
    _preflight(outputs, inputs, make=("--out", out_dir))  # made once the problem is built
    problem = build_problem(spec)
    cfgs = [c for c, _ in cells]
    stream = _stream(problem, spec.optimizer, cfgs, spec.epochs, spec.flush_on_drop)
    f_star = None if problem.optimum is None else float(problem.f(problem.optimum))
    os.makedirs(out_dir, exist_ok=True)
    # Per cell: its metrics rows, final accelerated objective and error. A training
    # error ends every cell still running.
    rows = [[] for _ in cells]
    finals = [None] * len(cells)
    errors = [None] * len(cells)
    final_v = None
    try:
        for v, entries in stream:
            final_v = v.objective
            for i, a in enumerate(entries):
                if isinstance(a, RnaError):
                    errors[i] = a
                elif a is not None:
                    rows[i].append(_metric_row(v, a))
                    finals[i] = a.objective
    except RnaError as exc:
        errors = [exc if e is None else e for e in errors]
    results = [
        _cell(cfg, path, r, final_v, final_a, e, f_star)
        for (cfg, path), r, final_a, e in zip(cells, rows, finals, errors)
    ]
    _write_summary(summary, results)
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
