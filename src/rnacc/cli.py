"""Command line entry points: run, accelerate, sweep.

Exit codes are stable: 0 success, 2 usage or configuration error (a
MemoryError included: the sizes asked for do not fit), 3 numerical
failure, 4 file format or I/O error.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .checkpoint import _preflight, _read_tail, _require_regular, _write_blocks
from .core import RnaConfig, _accelerate, _accelerate_settings
from .errors import FormatError, InvalidConfig, RnaError, WindowTooSmall
from .experiment import (
    _PROBLEMS,
    _SUMMARY_NAME,
    ExperimentSpec,
    _list,
    _override,
    run_experiment,
    sweep,
)

USAGE_EXIT = 2
NUMERICAL_EXIT = 3
FORMAT_EXIT = 4


def _window_flags(**defaults) -> argparse.ArgumentParser:
    """The extrapolation flags of run and accelerate, as a parent parser.

    A flag's text is read by ``_override`` as its spec key's value. Parents share their
    actions with every child, and ``set_defaults`` writes into the actions, so each
    command gets its own copy: accelerate's defaults must not become run's, where an
    unset flag leaves the spec's value.
    """
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--k", help=f"window size (default {RnaConfig.window})")
    flags.add_argument("--lambda", dest="lam", help=f"ridge parameter (default {RnaConfig.lam:g})")
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
        help=f"built-in problem: {', '.join(_PROBLEMS)}; overrides the spec file's selector",
    )
    training.add_argument("--epochs", help="number of training epochs")
    training.add_argument("--seed", help="problem and shuffling seed")

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
    flags = {
        "problem": args.problem,
        "problem.seed": args.seed,
        "optimizer.seed": args.seed,
        "epochs": args.epochs,
        "rna.window": getattr(args, "k", None),
        "rna.lambda": getattr(args, "lam", None),
        "rna.lambda_grid": getattr(args, "lam_grid", None),
        "metrics_out": getattr(args, "out", None),
        "flush_on_drop": getattr(args, "flush_on_drop", None),
    }
    return _override(spec, {key: value for key, value in flags.items() if value is not None})


def cmd_run(args) -> int:
    spec = _spec_from_args(args)
    vanilla, accelerated, _ = run_experiment(spec, inputs=[("the spec file", args.spec)])
    last_v, last_a = vanilla[-1], accelerated[-1]
    if spec.metrics_out:
        print(f"wrote {spec.metrics_out} ({len(vanilla)} epochs)")
    if spec.checkpoints_out:
        print(f"wrote {spec.checkpoints_out}")
    print(f"final objective        : {last_v.objective:.10e}")
    print(f"final objective (accel): {last_a.objective:.10e}")
    return 0


def _read_scores(path) -> np.ndarray:
    """The scores file's values; the one check that they are finite on this path."""
    _require_regular("--scores", path)
    try:
        with open(path, "r", encoding="ascii") as fh:
            values = np.array([float(line) for line in fh if line.strip()])
        if np.isfinite(values).all():
            return values
    except ValueError:  # a non-numeric line or a non-ASCII byte
        pass
    raise InvalidConfig(f"{path}: expected one finite number per nonblank line")


def cmd_accelerate(args) -> int:
    # An output inside the input directory would be read back as its newest iterate.
    inputs = [("the input", args.checkpoints), ("--scores", args.scores)]
    _preflight([("--out", args.out)], inputs)
    settings = {"rna.window": args.k, "rna.lambda": args.lam, "rna.lambda_grid": args.lam_grid}
    cfg = _accelerate_settings(_override(ExperimentSpec(), settings).rna, bool(args.scores))
    scores = _read_scores(args.scores) if args.scores else None
    # Every header is checked, then only the window's payload is read, a block of
    # columns at a time: once for the Gram matrix and, past one block, again for theta_hat,
    # whose blocks go to the output file as they are formed.
    with _read_tail(args.checkpoints, cfg.window + 1) as (read, dim, count):
        coeffs, theta_hat = _accelerate(read, dim, count, cfg, scores)
        if cfg.window + 1 > count:
            print(
                f"warning: window {cfg.window} wants {cfg.window + 1} checkpoints, only "
                f"{count} available; using all of them",
                file=sys.stderr,
            )
        _write_blocks(args.out, 1, dim, theta_hat)
    if coeffs is None:
        print("candidates ranked worse than the last checkpoint; returned it unchanged")
        print("lambda: none")
    else:
        print(f"lambda: {coeffs.lam_used!r}")  # the ridge that entered the solve
        print("coefficients:", " ".join(format(w, ".17g") for w in coeffs.weights))
    print(f"wrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    # Each entry is read as the text of run's --k or --lambda.
    windows, lams = _list(str)(args.k_list), _list(str)(args.lam_list)
    cells = sweep(spec, windows, lams, args.out_dir, inputs=[("the spec file", args.spec)])
    ok = [c for c in cells if c.status == "ok"]
    print(f"{len(ok)}/{len(cells)} cells succeeded; summary in {args.out_dir}/{_SUMMARY_NAME}")
    for cell in cells:
        tag = f"k={cell.window} lambda={cell.lam:g}"
        if cell.status == "ok":
            print(f"  {tag}: final accel objective {cell.final_objective_rna:.10e}")
        else:
            print(f"  {tag}: FAILED ({cell.error})")
    if not ok:
        print("error: every sweep cell failed", file=sys.stderr)
        return NUMERICAL_EXIT
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads every argv with, built once per process: parsing
    leaves a parser as it was, and each call gets a namespace of its own."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (RnaError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        if isinstance(exc, (InvalidConfig, WindowTooSmall, MemoryError)):
            return USAGE_EXIT
        return FORMAT_EXIT if isinstance(exc, (FormatError, OSError)) else NUMERICAL_EXIT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
