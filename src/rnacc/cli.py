"""Command line entry points: run, accelerate, sweep.

Exit codes are stable: 0 success, 2 usage or configuration error,
3 numerical failure, 4 file format or I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import read_checkpoints, write_checkpoints
from .core import RnaConfig
from .errors import (
    FormatError,
    InvalidConfig,
    RnaError,
    WindowTooSmall,
)
from .experiment import (
    _PROBLEMS,
    _SUMMARY_NAME,
    ExperimentSpec,
    _numbers,
    _override,
    _sweep_cells,
    accelerate_checkpoints,
    run_experiment,
    sweep,
)

USAGE_EXIT = 2
NUMERICAL_EXIT = 3
FORMAT_EXIT = 4


def _window_flags(**defaults) -> argparse.ArgumentParser:
    """The extrapolation flags of run and accelerate, as a parent parser.

    Parents share their actions with every child, and ``set_defaults`` writes into
    the actions, so each command gets its own copy: accelerate's defaults must not
    become run's, where an unset flag leaves the spec's value.
    """
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--k", type=int, help=f"window size (default {RnaConfig.window})")
    flags.add_argument(
        "--lambda", dest="lam", type=float, help=f"ridge parameter (default {RnaConfig.lam:g})"
    )
    flags.add_argument(
        "--lambda-grid",
        dest="lam_grid",
        help="comma-separated ascending ridge grid; enables adaptive selection "
        "(accelerate also needs --scores)",
    )
    flags.set_defaults(**defaults)
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnacc",
        description="Extrapolate optimizer iterates offline from a sliding "
        "window of checkpoints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by the training commands, run and sweep.
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--spec", help="experiment spec file (key = value lines)")
    training.add_argument(
        "--problem",
        choices=tuple(_PROBLEMS),
        help="built-in problem; overrides the spec file's selector",
    )
    training.add_argument("--epochs", type=int, help="number of training epochs")
    training.add_argument("--seed", type=int, help="problem and shuffling seed")

    run_p = sub.add_parser(
        "run",
        parents=[training, _window_flags()],
        help="train a built-in problem and record vanilla vs accelerated curves",
    )
    run_p.add_argument("--out", help=f"metrics file path (default {ExperimentSpec.metrics_out})")
    run_p.add_argument(
        "--flush-on-drop",
        action="store_const",
        const=True,
        help="empty the window at every learning rate drop",
    )
    run_p.set_defaults(func=cmd_run)

    acc_p = sub.add_parser(
        "accelerate",
        parents=[_window_flags(k=RnaConfig.window, lam=RnaConfig.lam)],
        help="extrapolate an exported checkpoint sequence offline",
    )
    acc_p.add_argument("checkpoints", help="checkpoint file, or directory of files")
    acc_p.add_argument(
        "--scores",
        help="text file with one objective value per checkpoint, used to rank "
        "grid candidates by their unit-sum linearization",
    )
    acc_p.add_argument("--out", required=True, help="output checkpoint file")
    acc_p.set_defaults(func=cmd_accelerate)

    sweep_p = sub.add_parser(
        "sweep",
        parents=[training],
        help="grid of (window, lambda) cells, one metrics file each",
    )
    sweep_p.add_argument("--k-list", required=True, help="comma-separated window sizes")
    sweep_p.add_argument(
        "--lambda-list", dest="lam_list", required=True, help="comma-separated ridges"
    )
    sweep_p.add_argument(
        "--out", dest="out_dir", default="sweep_out", help="output directory (default %(default)s)"
    )
    sweep_p.set_defaults(func=cmd_sweep)
    return parser


def _spec_from_args(args) -> ExperimentSpec:
    spec = ExperimentSpec.from_file(args.spec) if args.spec else ExperimentSpec()
    if args.problem and args.problem != spec.problem:
        # Another problem brings its own parameters and step; the file keeps the rest.
        fresh = ExperimentSpec(problem=args.problem)
        optimizer = replace(fresh.optimizer, seed=spec.optimizer.seed)
        spec = replace(spec, problem=args.problem, problem_params={}, optimizer=optimizer)
    lam_grid = getattr(args, "lam_grid", None)
    flags = {
        "problem.seed": args.seed,
        "optimizer.seed": args.seed,
        "epochs": args.epochs,
        "rna.window": getattr(args, "k", None),
        "rna.lambda": getattr(args, "lam", None),
        "rna.lambda_grid": _numbers(lam_grid) if lam_grid else None,
        "metrics_out": getattr(args, "out", None) or None,
        "flush_on_drop": getattr(args, "flush_on_drop", None),
    }
    return _override(spec, {key: value for key, value in flags.items() if value is not None})


def _refuse_spec_outputs(spec_file, outputs) -> None:
    """An output on the spec file would overwrite the command's own description:
    raise InvalidConfig for the first (label, path) in ``outputs`` that resolves to it."""
    if not spec_file:
        return
    source = Path(spec_file).resolve()
    for label, out in outputs:
        if out and Path(out).resolve() == source:
            raise InvalidConfig(f"{label} {out} is the spec file {spec_file}")


def cmd_run(args) -> int:
    spec = _spec_from_args(args)
    keys = ("metrics_out", "checkpoints_out")
    _refuse_spec_outputs(args.spec, [(key, getattr(spec, key)) for key in keys])
    vanilla, accelerated, _ = run_experiment(spec)
    last_v, last_a = vanilla[-1], accelerated[-1]
    print(f"wrote {spec.metrics_out} ({len(vanilla)} epochs)")
    print(f"final objective        : {last_v.objective:.10e}")
    print(f"final objective (accel): {last_a.objective:.10e}")
    return 0


def _read_scores(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="ascii") as fh:
            values = np.array([float(line) for line in fh if line.strip()])
        if np.isfinite(values).all():
            return values
    except ValueError:  # a non-numeric line or a non-ASCII byte
        pass
    raise InvalidConfig(f"{path}: expected one finite number per nonblank line")


def cmd_accelerate(args) -> int:
    # An output on the input file, or in its directory, would clobber or join the input.
    source, out = Path(args.checkpoints).resolve(), Path(args.out).resolve()
    if out == source or source in out.parents:
        raise InvalidConfig(f"--out {args.out} is, or lies inside, the input {args.checkpoints}")
    mat = read_checkpoints(args.checkpoints)
    grid = _numbers(args.lam_grid) if args.lam_grid else None
    scores = _read_scores(args.scores) if args.scores else None
    theta_hat, lam_star, coeffs = accelerate_checkpoints(
        mat, window=args.k, lam=args.lam, lam_grid=grid, scores=scores
    )
    if args.k + 1 > mat.shape[0]:
        print(
            f"warning: window {args.k} wants {args.k + 1} checkpoints, only "
            f"{mat.shape[0]} available; using all of them",
            file=sys.stderr,
        )
    write_checkpoints(args.out, [theta_hat], "f64")
    if coeffs is None:
        print("candidates ranked worse than the last checkpoint; returned it unchanged")
        print("lambda: none")
    else:
        print(f"lambda: {lam_star!r}")
        print("coefficients:", " ".join(format(w, ".17g") for w in coeffs.weights))
    print(f"wrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    windows, lams = _numbers(args.k_list), _numbers(args.lam_list)
    names = [name for _, name in _sweep_cells(spec, windows, lams)] + [_SUMMARY_NAME]
    _refuse_spec_outputs(
        args.spec, [("sweep output", os.path.join(args.out_dir, name)) for name in names]
    )
    cells = sweep(spec, windows, lams, args.out_dir)
    ok = [c for c in cells if c.status == "ok"]
    print(f"{len(ok)}/{len(cells)} cells succeeded; summary in {args.out_dir}/{_SUMMARY_NAME}")
    for cell in cells:
        tag = f"k={cell.window} lambda={cell.lam:g}"
        if cell.status == "ok":
            print(f"  {tag}: final accel objective {cell.final_objective_rna:.10e}")
        else:
            print(f"  {tag}: FAILED ({cell.error})")
    if not ok:
        print("every sweep cell failed", file=sys.stderr)
        return NUMERICAL_EXIT
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfig, WindowTooSmall) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FORMAT_EXIT
    except RnaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
