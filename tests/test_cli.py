"""Command line behavior: flags, exit codes, file outputs."""

import itertools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rnacc
from rnacc import (
    ExperimentSpec,
    RnaConfig,
    build_problem,
    default_spec,
    make_quadratic,
    read_checkpoints,
    rna,
    write_checkpoints,
)
from rnacc.checkpoint import _HEADER
from rnacc.cli import _spec_from_args, build_parser, main

from oracles import gd_trajectory


def _export_trajectory(path, dim=4, steps=12, seed=3):
    problem = make_quadratic(dim, 20.0, seed=seed)
    traj = gd_trajectory(problem, np.ones(dim), 1.0 / problem.smoothness, steps)
    write_checkpoints(path, traj, "f64")
    return problem, traj


# ------------------------------------------------------------------- flags


def test_accelerate_defaults_window_ten_ridge_1e8():
    args = build_parser().parse_args(["accelerate", "x.rnac", "--out", "y.rnac"])
    assert args.k == 10
    assert args.lam == 1e-8


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


# --------------------------------------------------------------------- run


def test_run_twice_byte_identical_metrics(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["run", "--epochs", "12", "--seed", "5"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_run_zero_epochs_usage_error(tmp_path, capsys):
    rc = main(["run", "--epochs", "0", "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_run_numerical_failure_exit_3(tmp_path, capsys):
    from rnacc import OptimizerConfig

    spec = default_spec("quadratic", seed=0)
    spec.optimizer = OptimizerConfig(eta=50.0, momentum=0.0, weight_decay=0.0)
    spec.epochs = 60  # diverges long before this
    spec.metrics_out = str(tmp_path / "m.csv")
    spec_path = tmp_path / "exp.spec"
    spec.to_file(spec_path)
    rc = main(["run", "--spec", str(spec_path)])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err


def test_run_spec_file_with_flag_overrides(tmp_path, capsys):
    spec = default_spec("quadratic", seed=1)
    spec.epochs = 30
    spec.metrics_out = str(tmp_path / "from_spec.csv")
    spec_path = tmp_path / "exp.spec"
    spec.to_file(spec_path)

    override_out = tmp_path / "override.csv"
    rc = main(
        [
            "run",
            "--spec",
            str(spec_path),
            "--epochs",
            "8",
            "--k",
            "4",
            "--lambda",
            "1e-6",
            "--out",
            str(override_out),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    assert override_out.is_file()
    assert len(override_out.read_text().splitlines()) == 9  # header + 8 epochs


@pytest.mark.parametrize(
    "lines, flags, key",
    [
        ("", ["--out", "exp.spec"], "metrics_out"),
        ("checkpoints_out = exp.spec\n", [], "checkpoints_out"),
        ("metrics_out = same\ncheckpoints_out = same\n", [], "checkpoints_out"),
    ],
    ids=["out-on-spec", "checkpoints-on-spec", "metrics-on-checkpoints"],
)
def test_run_output_on_spec_or_other_output_exit_2(tmp_path, capsys, monkeypatch, lines, flags,
                                                  key):
    # Relative outputs against an absolute --spec: both resolve to one path.
    monkeypatch.chdir(tmp_path)
    spec_path = tmp_path / "exp.spec"
    spec_path.write_text(default_spec("quadratic").to_text() + "epochs = 5\n" + lines)
    before = spec_path.read_bytes()
    assert main(["run", "--spec", str(spec_path)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and key in line
    assert spec_path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["exp.spec"]


@pytest.mark.parametrize(
    "problem, key, value",
    [
        ("quadratic", "optimizer.eta", "abc"),
        ("quadratic", "optimizer.eta", "true"),
        ("quadratic", "optimizer.momentum", "abc"),
        ("quadratic", "rna.lambda", "abc"),
        ("quadratic", "rna.lambda_grid", "1e-8,abc"),
        ("quadratic", "flush_on_drop", "maybe"),
        ("logistic", "problem.l2", "x"),
        ("quadratic", "optimizer.schedule", "2:nan"),
        ("quadratic", "optimizer.schedule", "2:inf"),
        ("quadratic", "optimizer.weight_decay", "inf"),
        ("logistic", "problem.l2", "inf"),
        ("quadratic", "problem.condition", "inf"),
    ],
)
def test_bad_spec_value_exit_2(tmp_path, capsys, problem, key, value):
    spec_path = tmp_path / "exp.spec"
    spec_path.write_text(default_spec(problem).to_text() + f"{key} = {value}\n")
    metrics = tmp_path / "m.csv"
    assert main(["run", "--spec", str(spec_path), "--out", str(metrics)]) == 2
    assert key in capsys.readouterr().err
    assert not metrics.exists()


def test_spec_overrides_problem_defaults(tmp_path):
    spec = ExperimentSpec.from_text("problem.dim = 5\n")
    assert spec.problem_params == {"dim": 5, "condition": 100.0, "seed": 0}
    theta = np.linspace(-1.0, 1.0, 5)
    assert build_problem(spec).f(theta) == make_quadratic(5, 100.0, seed=0).f(theta)
    assert ExperimentSpec.from_text("problem = logistic\n") == default_spec("logistic")
    # A metrics_out that looks like a number is still a file name, not fd 1.
    (tmp_path / "exp.spec").write_text("epochs = 3\nmetrics_out = 1\n")
    src = Path(rnacc.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "rnacc.cli", "run", "--spec", "exp.spec"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 and lines[0] == "wrote 1 (3 epochs)"
    assert lines[1].startswith("final objective")
    assert len((tmp_path / "1").read_text().splitlines()) == 4  # header + 3 epochs


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "file_problem, flag_problem", list(itertools.permutations(("quadratic", "logistic", "mlp"), 2))
)
def test_problem_flag_over_spec_of_another_problem(tmp_path, command, file_problem, flag_problem):
    # The flag resets the problem parameters and the optimizer to the new problem's
    # defaults; the file's optimizer seed, rna settings, epochs and outputs stay.
    spec = default_spec(file_problem, seed=4)
    spec.optimizer = replace(spec.optimizer, eta=0.125, momentum=0.5, seed=9)
    spec.rna = RnaConfig(window=3, lam=1e-6, lam_grid=(1e-9, 1e-3), weight_target="oldest")
    spec.epochs, spec.flush_on_drop, spec.checkpoints_out = 7, True, "last.rnac"
    spec.to_file(tmp_path / "exp.spec")
    argv = [command, "--spec", str(tmp_path / "exp.spec"), "--problem", flag_problem]
    if command == "sweep":
        argv += ["--k-list", "2", "--lambda-list", "1e-8"]
    got = _spec_from_args(build_parser().parse_args(argv))
    fresh = ExperimentSpec(problem=flag_problem)
    assert got == replace(spec, problem=flag_problem, problem_params=fresh.problem_params,
                          optimizer=replace(fresh.optimizer, seed=9))


def test_run_adaptive_grid_flag(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    rc = main(
        ["run", "--epochs", "10", "--lambda-grid", "1e-10,1e-8,1e-4", "--out", str(out)]
    )
    capsys.readouterr()
    assert rc == 0
    assert out.is_file()


# -------------------------------------------------------------- accelerate


def test_accelerate_matches_in_memory_bitwise(tmp_path, capsys):
    path = tmp_path / "seq.rnac"
    _, traj = _export_trajectory(path)
    out = tmp_path / "accel.rnac"
    rc = main(["accelerate", str(path), "--k", "10", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "coefficients:" in printed and "lambda:" in printed
    expected, _ = rna(traj, RnaConfig(window=10, lam=1e-8))
    np.testing.assert_array_equal(read_checkpoints(out)[0], expected)


def test_accelerate_directory_input(tmp_path, capsys):
    problem, traj = _export_trajectory(tmp_path / "unused.rnac")
    seq_dir = tmp_path / "parts"
    seq_dir.mkdir()
    write_checkpoints(seq_dir / "00.rnac", traj[:5], "f64")
    write_checkpoints(seq_dir / "01.rnac", traj[5:], "f64")
    out = tmp_path / "accel.rnac"
    rc = main(["accelerate", str(seq_dir), "--k", "6", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    expected, _ = rna(traj, RnaConfig(window=6, lam=1e-8))
    np.testing.assert_array_equal(read_checkpoints(out)[0], expected)


@pytest.mark.parametrize("escape", ["parent", "absolute"])
def test_accelerate_manifest_outside_directory_exit_4(tmp_path, capsys, escape):
    _, traj = _export_trajectory(tmp_path / "x.rnac")
    seq_dir = tmp_path / "parts"
    seq_dir.mkdir()
    write_checkpoints(seq_dir / "a.rnac", traj[:5], "f64")
    name = "../x.rnac" if escape == "parent" else str(tmp_path / "x.rnac")
    (seq_dir / "manifest.txt").write_text(f"a.rnac\n{name}\n")
    out = tmp_path / "accel.rnac"
    assert main(["accelerate", str(seq_dir), "--out", str(out)]) == 4
    assert "outside the directory" in capsys.readouterr().err
    assert not out.exists()


def test_accelerate_window_larger_than_sequence_warns_and_uses_all(tmp_path, capsys):
    path = tmp_path / "seq.rnac"
    _, traj = _export_trajectory(path, steps=5)  # 6 checkpoints
    out = tmp_path / "accel.rnac"
    rc = main(["accelerate", str(path), "--k", "50", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "using all" in captured.err
    expected, _ = rna(traj, RnaConfig(window=50, lam=1e-8))
    np.testing.assert_array_equal(read_checkpoints(out)[0], expected)


def test_accelerate_single_iterate_exit_2(tmp_path, capsys):
    path = tmp_path / "one.rnac"
    write_checkpoints(path, np.ones((1, 3)), "f64")
    rc = main(["accelerate", str(path), "--out", str(tmp_path / "o.rnac")])
    assert rc == 2
    assert "at least 2" in capsys.readouterr().err


def test_accelerate_single_iterate_prints_one_error_line(tmp_path, capsys):
    path = tmp_path / "one.rnac"
    write_checkpoints(path, np.ones((1, 3)), "f64")
    assert main(["accelerate", str(path), "--k", "4", "--out", str(tmp_path / "o.rnac")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "warning" not in line
    assert not (tmp_path / "o.rnac").exists()


@pytest.mark.parametrize("layout", ["f64-file", "f32-dir"])
@pytest.mark.parametrize("bad", [0, 3, 6])
def test_accelerate_nan_error_matches_in_memory_path(tmp_path, capsys, layout, bad):
    # C11 for failures: a NaN in the first, a middle or the last iterate gives
    # the same exit and message from a file as from the in-memory matrix.
    _, traj = _export_trajectory(tmp_path / "seq.rnac", steps=6)
    mat = np.array(traj)
    mat[bad, 1] = np.nan
    with pytest.raises(rnacc.NumericalFailure) as in_memory:
        rnacc.accelerate_checkpoints(mat, window=4, lam=1e-8)
    # The writer refuses NaN, so clean files are written and the NaN is patched in.
    if layout == "f64-file":
        source = patched = tmp_path / "seq.rnac"
        offset, scalar = (bad * 4 + 1) * 8, np.float64(np.nan)
    else:
        source = tmp_path / "parts"
        source.mkdir()
        for i, theta in enumerate(traj):
            write_checkpoints(source / f"{i}.rnac", [theta], "f32")
        patched, offset, scalar = source / f"{bad}.rnac", 4, np.float32(np.nan)
    raw = bytearray(patched.read_bytes())
    start = _HEADER.size + offset
    raw[start:start + scalar.nbytes] = scalar.tobytes()
    patched.write_bytes(bytes(raw))
    from_disk = read_checkpoints(source)
    assert np.isnan(from_disk[bad, 1]) and np.isfinite(np.delete(from_disk, bad, axis=0)).all()
    out = tmp_path / "o.rnac"
    assert main(["accelerate", str(source), "--k", "4", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {in_memory.value}\n"
    assert f"iterate {bad} of 7 " in captured.err
    assert not out.exists()


def test_accelerate_bad_file_exit_4(tmp_path, capsys):
    path = tmp_path / "junk.rnac"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    rc = main(["accelerate", str(path), "--out", str(tmp_path / "o.rnac")])
    assert rc == 4
    capsys.readouterr()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_accelerate_overflowing_gram_exit_3(tmp_path, capsys):
    path = tmp_path / "far.rnac"
    write_checkpoints(path, np.array([[0.0], [1e200], [0.0]]), "f64")
    rc = main(["accelerate", str(path), "--out", str(tmp_path / "o.rnac")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.endswith("error: residual Gram matrix is not finite: the residuals overflow\n")
    assert not (tmp_path / "o.rnac").exists()


def test_accelerate_overflowing_ridge_bump_exit_3(tmp_path, capsys):
    path = tmp_path / "far.rnac"
    write_checkpoints(path, np.array([[0.0], [1e154], [2e154]]), "f64")
    rc = main(["accelerate", str(path), "--k", "2", "--out", str(tmp_path / "o.rnac")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == "error: residual Gram matrix is not finite with the ridge inf added\n"
    assert not (tmp_path / "o.rnac").exists()


@pytest.mark.parametrize("target", ["input_file", "inside_input_dir", "below_input_dir"])
def test_accelerate_out_colliding_with_input_exit_2(tmp_path, capsys, target):
    _, traj = _export_trajectory(tmp_path / "seq.rnac")
    seq_dir = tmp_path / "parts"
    seq_dir.mkdir()
    write_checkpoints(seq_dir / "00.rnac", traj, "f64")
    source, out = {
        "input_file": (tmp_path / "seq.rnac", tmp_path / "." / "seq.rnac"),
        "inside_input_dir": (seq_dir, seq_dir / "accel.rnac"),
        "below_input_dir": (seq_dir, seq_dir / "sub" / "accel.rnac"),
    }[target]
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    rc = main(["accelerate", str(source), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: --out ") and err.count("\n") == 1
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_accelerate_missing_file_exit_4(tmp_path, capsys):
    rc = main(["accelerate", str(tmp_path / "nope.rnac"), "--out", str(tmp_path / "o")])
    assert rc == 4
    capsys.readouterr()


def test_accelerate_grid_requires_scores(tmp_path, capsys):
    path = tmp_path / "seq.rnac"
    _export_trajectory(path)
    rc = main(
        [
            "accelerate",
            str(path),
            "--lambda-grid",
            "1e-10,1e-8",
            "--out",
            str(tmp_path / "o.rnac"),
        ]
    )
    assert rc == 2
    assert "scores" in capsys.readouterr().err


def test_accelerate_grid_with_scores(tmp_path, capsys):
    path = tmp_path / "seq.rnac"
    problem, traj = _export_trajectory(path)
    scores_path = tmp_path / "scores.txt"
    scores_path.write_text("\n".join(repr(problem.f(t)) for t in traj) + "\n")
    out = tmp_path / "accel.rnac"
    rc = main(
        [
            "accelerate",
            str(path),
            "--k",
            "10",
            "--lambda-grid",
            "1e-12,1e-8,1e-4",
            "--scores",
            str(scores_path),
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    result = read_checkpoints(out)[0]
    assert problem.f(result) <= problem.f(traj[-1])


@pytest.mark.parametrize("bad_line", ["not-a-number", "nan"])
def test_accelerate_bad_scores_file_exit_2(tmp_path, capsys, bad_line):
    path = tmp_path / "seq.rnac"
    _, traj = _export_trajectory(path)
    scores_path = tmp_path / "scores.txt"
    lines = ["1.0"] * len(traj)
    lines[4] = bad_line
    scores_path.write_text("\n".join(lines) + "\n")
    rc = main(
        [
            "accelerate",
            str(path),
            "--lambda-grid",
            "1e-10,1e-8",
            "--scores",
            str(scores_path),
            "--out",
            str(tmp_path / "o.rnac"),
        ]
    )
    assert rc == 2
    assert str(scores_path) in capsys.readouterr().err
    assert not (tmp_path / "o.rnac").exists()


# ------------------------------------------------------------------- sweep


def test_sweep_cli_happy_path(tmp_path, capsys):
    out_dir = tmp_path / "cells"
    rc = main(
        [
            "sweep",
            "--epochs",
            "8",
            "--seed",
            "2",
            "--k-list",
            "4,8",
            "--lambda-list",
            "1e-10,1e-8",
            "--out",
            str(out_dir),
        ]
    )
    printed = capsys.readouterr().out
    assert rc == 0
    assert "4/4 cells succeeded" in printed
    assert (out_dir / "summary.csv").is_file()


@pytest.mark.parametrize(
    "spec_name", ["summary.csv", "metrics_k5_lam1e-08.csv"], ids=["summary", "cell"]
)
def test_sweep_output_on_spec_exit_2(tmp_path, capsys, monkeypatch, spec_name):
    # A relative --out against an absolute --spec: both resolve to one path.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sw").mkdir()
    spec_path = tmp_path / "sw" / spec_name
    spec_path.write_text(default_spec("quadratic").to_text() + "epochs = 5\n")
    before = spec_path.read_bytes()
    argv = ["sweep", "--spec", str(spec_path), "--k-list", "5", "--lambda-list", "1e-8"]
    assert main(argv + ["--out", "sw"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and spec_name in line and "spec file" in line
    assert spec_path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sw"]
    assert [p.name for p in (tmp_path / "sw").iterdir()] == [spec_name]


def test_sweep_spec_inside_out_dir_runs(tmp_path, capsys):
    out_dir = tmp_path / "sw"
    out_dir.mkdir()
    spec_path = out_dir / "spec.txt"
    spec_path.write_text(default_spec("quadratic").to_text() + "epochs = 5\n")
    before = spec_path.read_bytes()
    argv = ["sweep", "--spec", str(spec_path), "--k-list", "5", "--lambda-list", "1e-8"]
    assert main(argv + ["--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert spec_path.read_bytes() == before
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "metrics_k5_lam1e-08.csv", "spec.txt", "summary.csv"
    ]


def test_sweep_cli_all_cells_failing_exit_3(tmp_path, capsys):
    spec = default_spec("quadratic", seed=0)
    spec.problem_params = {"dim": 3, "condition": 10.0, "seed": 0}
    spec.epochs = 8
    spec_path = tmp_path / "exp.spec"
    spec.to_file(spec_path)
    rc = main(
        [
            "sweep",
            "--spec",
            str(spec_path),
            "--k-list",
            "8",
            "--lambda-list",
            "0",
            "--out",
            str(tmp_path / "cells"),
        ]
    )
    capsys.readouterr()
    assert rc == 3


def test_sweep_cli_separable_logistic_exit_3(tmp_path, capsys):
    # Separable data without l2 has no finite optimum to score the cells
    # against: the reference solve fails before any output is made.
    spec_path = tmp_path / "exp.spec"
    spec_path.write_text(
        "problem = logistic\nproblem.n_samples = 20\nproblem.dim = 4\n"
        "problem.l2 = 0\nproblem.seed = 2\n"
    )
    out_dir = tmp_path / "cells"
    rc = main(
        ["sweep", "--spec", str(spec_path), "--k-list", "4", "--lambda-list", "1e-8",
         "--out", str(out_dir)]
    )
    assert rc == 3
    assert "singular" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_cli_fractional_window_exit_2(tmp_path, capsys):
    # A fractional window, two ridges whose metrics files would share the
    # name metrics_k4_lam1e-08.csv, and zero epochs are all rejected before
    # any output.
    for epochs, k_list, lam_list, word in (
        ("4", "2.5", "1e-8", "window"),
        ("4", "4", "1e-8,1.0000001e-8", "metrics_k4_lam1e-08.csv"),
        ("0", "4", "1e-8", "epochs"),
    ):
        out_dir = tmp_path / "cells"
        rc = main(
            ["sweep", "--epochs", epochs, "--k-list", k_list, "--lambda-list", lam_list,
             "--out", str(out_dir)]
        )
        assert rc == 2
        assert word in capsys.readouterr().err
        assert not out_dir.exists()


@pytest.mark.parametrize(
    "key, value",
    [("--k-list", "nan"), ("--k-list", "inf")]
    + [(key, "nan") for key in
       ("epochs", "optimizer.batch_size", "optimizer.seed", "rna.window", "problem.dim")]
    + [("optimizer.schedule", "nan:0.1")]
    + [("problem.seed", value) for value in ("1.5", "nan", "-1")],
)
def test_non_integer_setting_exit_2(tmp_path, capsys, key, value):
    if key == "--k-list":
        argv = ["sweep", "--epochs", "4", "--k-list", value, "--lambda-list", "1e-8",
                "--out", str(tmp_path / "cells")]
    else:
        spec_path = tmp_path / "exp.spec"
        spec_path.write_text(default_spec("quadratic").to_text() + f"{key} = {value}\n")
        argv = ["run", "--spec", str(spec_path), "--out", str(tmp_path / "m.csv")]
    assert main(argv) == 2
    assert "must be a" in capsys.readouterr().err
    assert not (tmp_path / "cells").exists() and not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize(
    "problem, extra, key, whole, integer",
    [
        ("logistic", "", "optimizer.batch_size", "100.0", "100"),
        ("logistic", "optimizer.batch_size = 100\n", "optimizer.seed", "2.0", "2"),
        ("quadratic", "", "problem.dim", "5.0", "5"),
        ("mlp", "", "problem.hidden", "4.0", "4"),
        ("logistic", "", "problem.n_samples", "100.0", "100"),
    ],
    ids=["optimizer.batch_size", "optimizer.seed", "problem.dim", "problem.hidden",
         "problem.n_samples"],
)
def test_whole_float_setting_runs_like_the_integer(tmp_path, capsys, problem, extra, key,
                                                   whole, integer):
    outputs = []
    for value in (whole, integer):
        spec_path = tmp_path / f"{value}.spec"
        spec_path.write_text(
            default_spec(problem).to_text() + f"epochs = 4\n{extra}{key} = {value}\n"
        )
        out = tmp_path / f"{value}.csv"
        assert main(["run", "--spec", str(spec_path), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]


# ------------------------------------------------------------- import path

# Blocks scipy (any import of it raises ImportError), then runs the commands
# that need no logistic problem and prints every scipy module they loaded.
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import numpy as np
import rnacc
from rnacc.cli import main

p = rnacc.make_quadratic(4, 10.0, seed=1)
traj = [np.ones(4)]
for _ in range(5):
    traj.append(rnacc.gd_step(traj[-1], p, 1.0 / p.smoothness))
rnacc.write_checkpoints("traj.rnac", traj, "f64")
for i, theta in enumerate(traj):
    rnacc.write_checkpoints(f"traj/{i}.rnac", [theta], "f32")
with open("scores.txt", "w") as fh:
    fh.writelines(f"{p.f(theta)!r}\\n" for theta in traj)
for argv in (
    ["accelerate", "traj.rnac", "--k", "4", "--out", "from_file.rnac"],
    ["accelerate", "traj", "--k", "4", "--lambda-grid", "1e-10,1e-8,1e-6",
     "--scores", "scores.txt", "--out", "from_dir.rnac"],
    ["run", "--problem", "quadratic", "--epochs", "3", "--out", "q.csv"],
    ["run", "--problem", "mlp", "--epochs", "3", "--out", "m.csv"],
    ["sweep", "--problem", "quadratic", "--epochs", "3", "--k-list", "2",
     "--lambda-list", "1e-8", "--out", "sweep_q"],
    ["sweep", "--problem", "mlp", "--epochs", "3", "--k-list", "2",
     "--lambda-list", "1e-8", "--out", "sweep_m"],
):
    assert main(argv) == 0, argv
print([m for m, mod in sys.modules.items() if mod is not None and m.split(".")[0] == "scipy"])
"""


def test_accelerate_and_run_load_no_scipy(tmp_path):
    (tmp_path / "traj").mkdir()
    src = Path(rnacc.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    for name in ("from_file.rnac", "from_dir.rnac", "q.csv", "m.csv", "sweep_q/summary.csv",
                 "sweep_m/summary.csv"):
        assert (tmp_path / name).is_file()
