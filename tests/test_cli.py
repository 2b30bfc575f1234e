"""Command line behavior: flags, exit codes, file outputs."""

import contextlib
import io
import itertools
import os
import signal
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import rnacc
from rnacc import (
    ExperimentSpec,
    InvalidConfig,
    RnaConfig,
    build_problem,
    default_spec,
    make_quadratic,
    read_checkpoints,
    rna,
    write_checkpoints,
)
from rnacc.checkpoint import _HEADER, MAGIC, VERSION, _read_tail
from rnacc.cli import _spec_from_args, build_parser, main

from oracles import gd_trajectory


def _spec_text(problem, extra):
    """``default_spec(problem)`` as a spec file whose lines for the keys ``extra`` sets are
    replaced by ``extra``: a spec names each key once."""
    keys = {line.partition("=")[0].strip() for line in extra.splitlines()}
    lines = default_spec(problem).to_text().splitlines(keepends=True)
    return "".join(line for line in lines if line.partition("=")[0].strip() not in keys) + extra


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


def test_one_parser_per_process_gives_a_fresh_parsers_outputs(tmp_path, monkeypatch):
    # main parses every argv with one parser. A call must leave nothing in it that
    # changes the next: accelerate's defaults, a usage error, then a run whose spec
    # sets the window that accelerate's --k defaults.
    _export_trajectory(tmp_path / "seq.rnac")
    (tmp_path / "exp.spec").write_text(_spec_text("quadratic", "epochs = 3\nrna.window = 3\n"))
    monkeypatch.chdir(tmp_path)

    def calls(tag):
        results = []
        for argv in (
            ["accelerate", "seq.rnac", "--out", f"{tag}.rnac"],
            ["accelerate"],
            ["run", "--spec", "exp.spec", "--out", f"{tag}.csv"],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            results.append((code, out.getvalue().replace(tag, "TAG"), err.getvalue()))
        return results, Path(f"{tag}.rnac").read_bytes(), Path(f"{tag}.csv").read_bytes()

    assert rnacc.cli._parser() is rnacc.cli._parser()
    cached = calls("cached")
    with mock.patch("rnacc.cli._parser", build_parser):
        fresh = calls("fresh")
    assert [code for code, *_ in cached[0]] == [0, 2, 0]
    assert cached == fresh
    assert build_parser() is not build_parser()


# Each setting flag of run, and the spec keys that a line sets for it.
_FLAG_KEYS = {
    "--epochs": ("epochs",),
    "--seed": ("problem.seed", "optimizer.seed"),
    "--k": ("rna.window",),
    "--lambda": ("rna.lambda",),
    "--lambda-grid": ("rna.lambda_grid",),
    "--out": ("metrics_out",),
}


def _text_or_error(make):
    """The text of the spec ``make`` returns, or the message of the InvalidConfig it raises."""
    try:
        return make().to_text()
    except InvalidConfig as exc:
        return f"InvalidConfig: {exc}"


@pytest.mark.parametrize("text", ["4", "4.0", "1e1", "2.5", "-1", "nan", "abc", ""])
@pytest.mark.parametrize("flag", list(_FLAG_KEYS))
def test_flag_reads_like_its_spec_line(flag, text):
    # A flag's text means what the same text means on its key's spec line, empty
    # text included; a rejected value gives the spec file's message.
    args = build_parser().parse_args(["run", flag, text])
    lines = "".join(f"{key} = {text}\n" for key in _FLAG_KEYS[flag])
    expected = _text_or_error(lambda: ExperimentSpec.from_text(lines))
    assert _text_or_error(lambda: _spec_from_args(args)) == expected


@pytest.mark.parametrize(
    "flag, key, text",
    [
        ("--problem", "problem", " logistic"),
        ("--problem", "problem", "mlp\t"),
        ("--out", "metrics_out", " m.csv "),
        ("--out", "metrics_out", "  "),
        ("--epochs", "epochs", " 3 "),
    ],
)
def test_padded_flag_reads_like_its_spec_line(flag, key, text):
    # A spec value is read without the spaces around it, and so is a flag's text.
    args = build_parser().parse_args(["run", flag, text])
    expected = ExperimentSpec.from_text(f"{key} = {text}\n").to_text()
    assert _spec_from_args(args).to_text() == expected


def test_accelerate_flag_reads_like_its_spec_value(tmp_path, capsys):
    # A whole float window runs as the integer, warning included; text that is not
    # a number exits 2 naming the spec key.
    path = tmp_path / "seq.rnac"
    _export_trajectory(path)
    runs = []
    for k in ("4", "4.0", "20", "20.0"):
        out = tmp_path / "o.rnac"
        assert main(["accelerate", str(path), "--k", k, "--out", str(out)]) == 0
        runs.append((out.read_bytes(), capsys.readouterr()))
    assert runs[0] == runs[1] and runs[2] == runs[3]
    assert runs[0][0] != runs[2][0] and "window 20 wants 21" in runs[2][1].err
    assert main(["accelerate", str(path), "--k", "abc", "--out", str(tmp_path / "x.rnac")]) == 2
    assert capsys.readouterr().err == "error: rna.window: expected a number, got 'abc'\n"
    assert not (tmp_path / "x.rnac").exists()


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
    spec_path.write_text(_spec_text("quadratic", "epochs = 5\n" + lines))
    before = spec_path.read_bytes()
    assert main(["run", "--spec", str(spec_path)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and key in line
    assert spec_path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["exp.spec"]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_undecodable_spec_file_exit_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    spec_path = tmp_path / "exp.spec"
    spec_path.write_bytes(b"# \xff\nepochs = 3\n")
    argv = {"run": [], "sweep": ["--k-list", "2", "--lambda-list", "1e-8"]}[command]
    assert main([command, "--spec", str(spec_path)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and str(spec_path) in line
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
    spec_path.write_text(_spec_text(problem, f"{key} = {value}\n"))
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


def test_problem_flag_keeps_only_the_optimizer_seed(tmp_path):
    # Logistic's own parameters and step replace the file's; its optimizer seed stays.
    (tmp_path / "exp.spec").write_text(
        "optimizer.seed = 3\noptimizer.momentum = 0.9\nproblem.dim = 5\n"
    )
    argv = ["run", "--spec", str(tmp_path / "exp.spec"), "--problem", "logistic"]
    assert _spec_from_args(build_parser().parse_args(argv)).to_text() == (
        "problem = logistic\n"
        "problem.dim = 50\nproblem.l2 = 0.001\nproblem.n_samples = 500\nproblem.seed = 0\n"
        "optimizer.eta = 2.0\noptimizer.momentum = 0.0\noptimizer.weight_decay = 0.0\n"
        "optimizer.schedule = \noptimizer.batch_size = \noptimizer.seed = 3\n"
        "rna.window = 10\nrna.lambda = 1e-08\nrna.lambda_grid = \nrna.weight_target = latest\n"
        "epochs = 60\nflush_on_drop = false\nmetrics_out = metrics.csv\ncheckpoints_out = \n"
    )


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_unknown_problem_flag_reads_like_its_spec_line(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.spec").write_text("problem = svm\n")
    extra = {"run": [], "sweep": ["--k-list", "2", "--lambda-list", "1e-8"]}[command]
    assert main([command, "--problem", "svm"] + extra) == 2
    flag = capsys.readouterr()
    assert main([command, "--spec", "exp.spec"] + extra) == 2
    assert capsys.readouterr() == flag
    assert flag.out == ""
    assert flag.err == (
        "error: problem: unknown problem 'svm'; choose from ['logistic', 'mlp', 'quadratic']\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["exp.spec"]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_problem_flag_help_lists_the_problems(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "built-in problem: quadratic, logistic, mlp;" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize(
    "lines, reported, files",
    [
        ("metrics_out =\n", [], ["exp.spec"]),
        (
            "checkpoints_out = theta.rnac\n",
            ["wrote metrics.csv (3 epochs)", "wrote theta.rnac"],
            ["exp.spec", "metrics.csv", "theta.rnac"],
        ),
    ],
    ids=["no-metrics", "checkpoints"],
)
def test_run_reports_each_file_it_wrote(tmp_path, capsys, monkeypatch, lines, reported, files):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.spec").write_text(_spec_text("quadratic", "epochs = 3\n" + lines))
    assert main(["run", "--spec", "exp.spec"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("wrote ")] == reported
    assert sorted(p.name for p in tmp_path.iterdir()) == files


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_spec_key_given_twice_exit_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.spec").write_text("epochs = 3\n# five, not three\nepochs = 5\n")
    argv = {"run": [], "sweep": ["--k-list", "2", "--lambda-list", "1e-8"]}[command]
    assert main([command, "--spec", "exp.spec"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "'epochs'" in line and "lines 1 and 3" in line
    assert [p.name for p in tmp_path.iterdir()] == ["exp.spec"]


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


@pytest.mark.parametrize("again", ["b.rnac", "./b.rnac", "../parts/b.rnac"])
def test_accelerate_manifest_naming_a_file_twice_exit_4(tmp_path, capsys, again):
    _, traj = _export_trajectory(tmp_path / "x.rnac")
    seq_dir = tmp_path / "parts"
    seq_dir.mkdir()
    for name, rows in (("a.rnac", traj[:4]), ("b.rnac", traj[4:8]), ("c.rnac", traj[8:])):
        write_checkpoints(seq_dir / name, rows, "f64")
    (seq_dir / "manifest.txt").write_text(f"a.rnac\nb.rnac\n{again}\nc.rnac\n")
    out = tmp_path / "accel.rnac"
    assert main(["accelerate", str(seq_dir), "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "more than once" in line and repr(again) in line
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
    # C11 for failures: a NaN in a middle or the last iterate of the K = 4 window gives
    # the same exit and message from a file as from the in-memory matrix. The first of
    # the 7 iterates lies outside the window: both paths ignore its NaN, with equal bits.
    _, traj = _export_trajectory(tmp_path / "seq.rnac", steps=6)
    mat = np.array(traj)
    mat[bad, 1] = np.nan
    if bad > 0:
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
    code = main(["accelerate", str(source), "--k", "4", "--out", str(out)])
    captured = capsys.readouterr()
    if bad == 0:
        expected, _, _ = rnacc.accelerate_checkpoints(from_disk, window=4, lam=1e-8)
        assert code == 0
        assert read_checkpoints(out)[0].tobytes() == expected.tobytes()
        return
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: {in_memory.value}\n"
    assert f"iterate {bad} of 7 " in captured.err
    assert not out.exists()


def test_accelerate_nan_iterate_wins_over_miscounted_scores_exit_3(tmp_path, capsys):
    # The iterates are checked before the scores are counted against them.
    path = tmp_path / "seq.rnac"
    _export_trajectory(path, steps=6)
    raw = bytearray(path.read_bytes())
    start = _HEADER.size + (3 * 4 + 1) * 8
    raw[start:start + 8] = np.float64(np.nan).tobytes()
    path.write_bytes(bytes(raw))
    (tmp_path / "scores.txt").write_text("1.0\n" * 3)
    out = tmp_path / "o.rnac"
    argv = ["accelerate", str(path), "--k", "4", "--lambda-grid", "1e-8,1e-6",
            "--scores", str(tmp_path / "scores.txt"), "--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: iterate 3 of 7 contains NaN or infinite entries\n"
    assert not out.exists()


def test_accelerate_undecodable_manifest_exit_4(tmp_path, capsys):
    # A 0xff byte in a comment line: the manifest is read as UTF-8 whatever the locale.
    _, traj = _export_trajectory(tmp_path / "seq.rnac")
    seq_dir = tmp_path / "parts"
    seq_dir.mkdir()
    write_checkpoints(seq_dir / "00.rnac", traj, "f64")
    manifest = seq_dir / "manifest.txt"
    manifest.write_bytes(b"# \xff\n00.rnac\n")
    rc = main(["accelerate", str(seq_dir), "--out", str(tmp_path / "o.rnac")])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and str(manifest) in line
    assert not (tmp_path / "o.rnac").exists()


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


def test_accelerate_overflowing_ridge_floor_exit_3(tmp_path, capsys):
    path = tmp_path / "far.rnac"
    write_checkpoints(path, np.array([[0.0], [1e154], [2e154]]), "f64")
    rc = main(["accelerate", str(path), "--k", "2", "--out", str(tmp_path / "o.rnac")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == "error: residual Gram matrix is not finite with the ridge inf added\n"
    assert not (tmp_path / "o.rnac").exists()


def _far_window(path, scale):
    """11 gradient-descent iterates from zero of ``make_quadratic(100, 100.0, seed=2)`` at
    step 0.1, times ``scale``, as one f64 file; returns the objective of each unscaled one."""
    problem = make_quadratic(100, 100.0, seed=2)
    window = gd_trajectory(problem, np.zeros(100), 0.1, 10)
    write_checkpoints(path, window * scale, "f64")
    return [problem.f(theta) for theta in window]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_accelerate_window_near_the_smallest_floats_exits_0_or_3(tmp_path, capsys):
    # Its Gram matrix is subnormal, and at lam = 0 the solve's z can overflow.
    _far_window(tmp_path / "tiny.rnac", 1e-155)
    out = tmp_path / "o.rnac"
    rc = main(
        ["accelerate", str(tmp_path / "tiny.rnac"), "--k", "10", "--lambda", "0", "--out", str(out)]
    )
    err = capsys.readouterr().err
    assert (rc, err, out.exists()) == (0, "", True) or (
        rc == 3 and err.startswith("error: ") and err.count("\n") == 1 and not out.exists()
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_accelerate_grid_near_the_largest_floats_is_solved_without_a_warning(tmp_path, capsys):
    # Shifted Gram entries near 1e300, past what Veltkamp's split takes unscaled.
    scores = _far_window(tmp_path / "huge.rnac", 1e145)
    (tmp_path / "scores.txt").write_text("".join(f"{s!r}\n" for s in scores))
    rc = main(
        [
            "accelerate",
            str(tmp_path / "huge.rnac"),
            "--k",
            "10",
            "--lambda-grid",
            "1e-8,1e290,1e300",
            "--scores",
            str(tmp_path / "scores.txt"),
            "--out",
            str(tmp_path / "o.rnac"),
        ]
    )
    assert (rc, capsys.readouterr().err) == (0, "")


@pytest.mark.parametrize(
    "target", ["input_file", "inside_input_dir", "below_input_dir", "on_scores"]
)
def test_accelerate_out_colliding_with_input_exit_2(tmp_path, capsys, target):
    _, traj = _export_trajectory(tmp_path / "seq.rnac")
    seq_dir = tmp_path / "parts"
    seq_dir.mkdir()
    write_checkpoints(seq_dir / "00.rnac", traj, "f64")
    scores = tmp_path / "scores.txt"
    scores.write_text("1.0\n" * len(traj))
    source, out = {
        "input_file": (tmp_path / "seq.rnac", tmp_path / "." / "seq.rnac"),
        "inside_input_dir": (seq_dir, seq_dir / "accel.rnac"),
        "below_input_dir": (seq_dir, seq_dir / "sub" / "accel.rnac"),
        "on_scores": (tmp_path / "seq.rnac", scores),
    }[target]
    ranked = ["--lambda-grid", "1e-8,1e-6", "--scores", str(scores)]
    ranked = ranked if target == "on_scores" else []
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    rc = main(["accelerate", str(source), "--out", str(out)] + ranked)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: --out ") and err.count("\n") == 1
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize(
    "argv, extra, output",
    [
        (["run", "--epochs", "200", "--out", "nope/m.csv"], None, "nope/m.csv"),
        (["run", "--spec", "exp.spec"], "checkpoints_out = nope/ck.rnac\n", "nope/ck.rnac"),
        (["accelerate", "seq.rnac", "--out", "nope/o.rnac"], None, "nope/o.rnac"),
    ],
    ids=["run-out", "spec-checkpoints-out", "accelerate-out"],
)
def test_output_in_a_missing_directory_exit_4_before_any_work(
    tmp_path, capsys, monkeypatch, argv, extra, output
):
    def never(*args, **kwargs):
        raise AssertionError("work began before every output's directory was checked")

    monkeypatch.setattr("rnacc.experiment.run_with_rna", never)
    monkeypatch.setattr("rnacc.cli._read_tail", never)
    monkeypatch.chdir(tmp_path)
    _export_trajectory(tmp_path / "seq.rnac")
    if extra:
        (tmp_path / "exp.spec").write_text(
            _spec_text("quadratic", f"epochs = 3\nmetrics_out = m.csv\n{extra}")
        )
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f" {output}: " in captured.err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--epochs", "200", "--out", "isdir"], "metrics_out isdir: is a directory"),
        (["accelerate", "seq.rnac", "--out", "isdir"], "--out isdir: is a directory"),
        (
            ["sweep", "--epochs", "3", "--k-list", "2,4", "--lambda-list", "1e-8", "--out", "sw"],
            "the summary sw/summary.csv: is a directory",
        ),
        (
            ["sweep", "--epochs", "3", "--k-list", "2", "--lambda-list", "1e-8",
             "--out", "seq.rnac"],
            "cell k=2 lambda=1e-08 seq.rnac/metrics_k2_lam1e-08.csv: seq.rnac is not a directory",
        ),
        (["run", "--epochs", "200", "--out", "nd/"], "metrics_out 'nd/': the path names no file"),
        (
            ["run", "--epochs", "200", "--out", "isdir/."],
            "metrics_out 'isdir/.': the path names no file",
        ),
        (["accelerate", "seq.rnac", "--out", ""], "--out '': the path names no file"),
        (
            ["run", "--epochs", "200", "--out", "N" * 256],
            f"metrics_out {'N' * 256}: file name too long (256 bytes, at most {{limit}})",
        ),
    ],
    ids=[
        "run-out", "accelerate-out", "sweep-summary", "sweep-out-file",
        "trailing-separator", "dot", "empty", "long-name",
    ],
)
def test_output_that_cannot_be_a_file_exit_4_before_any_work(
    tmp_path, capsys, monkeypatch, argv, message
):
    def never(*args, **kwargs):
        raise AssertionError("work began before every output was checked")

    for name in ("run_with_rna", "_stream", "build_problem"):
        monkeypatch.setattr(f"rnacc.experiment.{name}", never)
    monkeypatch.setattr("rnacc.cli._read_tail", never)
    monkeypatch.chdir(tmp_path)
    _export_trajectory(tmp_path / "seq.rnac")
    (tmp_path / "isdir").mkdir()
    (tmp_path / "sw" / "summary.csv").mkdir(parents=True)
    before = {p: p.is_dir() or p.read_bytes() for p in tmp_path.rglob("*")}
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    limit = os.pathconf(tmp_path, "PC_NAME_MAX")
    assert captured.err == f"error: {message.format(limit=limit)}\n"
    assert {p: p.is_dir() or p.read_bytes() for p in tmp_path.rglob("*")} == before


def test_output_with_a_long_name_is_written(tmp_path, capsys):
    # 250 bytes of a 255-byte limit: the writer's temporary name is short and fixed.
    _export_trajectory(tmp_path / "seq.rnac")
    for argv in (["run", "--epochs", "3"], ["accelerate", str(tmp_path / "seq.rnac")]):
        out = tmp_path / ("L" * 250)
        assert main(argv + ["--out", str(out)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [out.name, "seq.rnac"]
        out.unlink()
    capsys.readouterr()


def test_output_on_a_link_to_a_directory_replaces_the_link(tmp_path, capsys):
    (tmp_path / "d").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "d")
    assert main(["run", "--epochs", "3", "--out", str(tmp_path / "link")]) == 0
    capsys.readouterr()
    assert (tmp_path / "link").is_file() and not (tmp_path / "link").is_symlink()
    assert list((tmp_path / "d").iterdir()) == []


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


def test_accelerate_scores_without_grid_exit_2(tmp_path, capsys):
    # Scores only rank a grid: without one they would go unused, miscounted or not.
    path = tmp_path / "seq.rnac"
    _export_trajectory(path)
    scores_path = tmp_path / "scores.txt"
    scores_path.write_text("1.0\n2.0\n")
    rc = main(["accelerate", str(path), "--scores", str(scores_path), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "grid" in line
    assert not (tmp_path / "o").exists()


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


def test_accelerate_prints_the_floored_ridge_with_or_without_a_grid(tmp_path, capsys):
    # A ridge far below the Gram matrix's rounding is floored, and the grid's winning
    # entry is reported as the ridge that entered its solve, as a single --lambda is.
    path = tmp_path / "seq.rnac"
    problem, traj = _export_trajectory(path)
    scores_path = tmp_path / "scores.txt"
    scores_path.write_text("".join(f"{problem.f(t)!r}\n" for t in traj))
    printed, outputs = [], []
    for flags in (["--lambda", "1e-30"], ["--lambda-grid", "1e-30", "--scores", str(scores_path)]):
        out = tmp_path / f"{len(outputs)}.rnac"
        assert main(["accelerate", str(path), "--k", "4", "--out", str(out)] + flags) == 0
        lines = capsys.readouterr().out.splitlines()
        printed.append([line for line in lines if line.startswith("lambda:")])
        outputs.append(out.read_bytes())
    _, coeffs = rna(traj, RnaConfig(window=4, lam=1e-30))
    assert coeffs.lam_used > 1e-30
    assert printed == [[f"lambda: {coeffs.lam_used!r}"]] * 2
    assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--lambda-grid", "1e-6,1e-8", "--scores", "{scores}"], "strictly increasing"),
        (["--scores", "{scores}"], "without a grid"),
        (["--lambda-grid", "1e-8,1e-6", "--scores", "{bad_scores}"], "bad_scores.txt"),
    ],
    ids=["descending-grid", "scores-without-grid", "bad-scores-file"],
)
def test_accelerate_checks_settings_before_reading_payloads(
    tmp_path, capsys, monkeypatch, flags, message
):
    def never(*args):
        raise AssertionError("a payload was read before the settings were checked")

    monkeypatch.setattr("rnacc.cli._read_tail", never)
    path = tmp_path / "seq.rnac"
    _, traj = _export_trajectory(path)
    (tmp_path / "scores.txt").write_text("1.0\n" * len(traj))
    (tmp_path / "bad_scores.txt").write_text("1.0\nnan\n")
    named = {"scores": tmp_path / "scores.txt", "bad_scores": tmp_path / "bad_scores.txt"}
    argv = ["accelerate", str(path), "--out", str(tmp_path / "o.rnac")]
    assert main(argv + [flag.format(**named) for flag in flags]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o.rnac").exists()


def test_accelerate_holds_one_float64_matrix(tmp_path, capsys):
    # 12 one-iterate f32 files: the matrix read_checkpoints returns is 12 rows of
    # d float64s, and the differences, the combination and the write add at most
    # two rows more. A copy of the window for its differences would add ten.
    import tracemalloc

    d, count = 50_000, 12
    rng = np.random.default_rng(8)
    x_star, error, rates = rng.standard_normal(d), rng.standard_normal(d), rng.uniform(0.9, 0.999, d)
    source = tmp_path / "ckpts"
    source.mkdir()
    for t in range(1, count + 1):
        write_checkpoints(source / f"{t:02d}.rnac", [x_star + error * rates**t], "f32")
    scores = tmp_path / "scores.txt"
    scores.write_text("".join(f"{1.0 / t!r}\n" for t in range(1, count + 1)))
    argv = [
        "accelerate", str(source), "--lambda-grid", "1e-10,1e-8,1e-6",
        "--scores", str(scores), "--out", str(tmp_path / "o.rnac"),
    ]
    assert main(argv) == 0  # the first call pays for imports and caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= (count + 2) * d * 8, f"peak {peak / (d * 8):.1f} rows of d float64s"


class _CountedReads:
    """A file whose ``read`` and ``readinto`` add the bytes they return to ``counts``."""

    def __init__(self, fh, counts):
        self._fh, self._counts = fh, counts

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def read(self, *args):
        data = self._fh.read(*args)
        self._counts.append(len(data))
        return data

    def readinto(self, buf):
        got = self._fh.readinto(buf)
        self._counts.append(got)
        return got


def test_memory_and_reads_are_bounded_by_the_window_not_the_count(tmp_path, capsys, monkeypatch):
    # At K = 10 only the last 11 iterates are held, however many are stored: rnacc
    # accelerate on 40 one-iterate f32 files and on one 200-iterate f64 file, and rna on
    # a list of 200 vectors, each peak within K + 3 rows of d float64s. The reader reads
    # every header and the window's payload, no more.
    import tracemalloc

    k, d = 10, 30_000
    seq = np.random.default_rng(12).standard_normal((200, d))
    parts = tmp_path / "parts"
    parts.mkdir()
    for i in range(40):
        write_checkpoints(parts / f"{i:02d}.rnac", seq[i:i + 1], "f32")
    write_checkpoints(tmp_path / "seq.rnac", seq, "f64")
    counts, real_open = [], open
    monkeypatch.setattr(
        rnacc.checkpoint, "open",
        lambda *args, **kwargs: _CountedReads(real_open(*args, **kwargs), counts),
        raising=False,
    )

    def peak_of(call):
        call()  # the first call pays for imports and caches
        counts.clear()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / (d * 8)
        finally:
            tracemalloc.stop()

    cases = [
        (parts, 40 * _HEADER.size + (k + 1) * d * 4),
        (tmp_path / "seq.rnac", _HEADER.size + (k + 1) * d * 8),
    ]
    for source, most in cases:
        argv = ["accelerate", str(source), "--k", str(k), "--out", str(tmp_path / "o.rnac")]
        rows = peak_of(lambda: main(argv))
        assert rows <= k + 3, f"{source.name}: peak {rows:.1f} rows of d float64s"
        assert sum(counts) <= most, f"{source.name}: read {sum(counts)} bytes"
    vectors = list(seq)
    rows = peak_of(lambda: rna(vectors, RnaConfig(window=k)))
    assert rows <= k + 3, f"rna: peak {rows:.1f} rows of d float64s"
    capsys.readouterr()


def _write_stored(path, rows, precision) -> None:
    """``rows`` laid out as ``write_checkpoints`` lays them out, NaN included."""
    dtype = np.dtype("<f8" if precision == "f64" else "<f4")
    header = _HEADER.pack(MAGIC, VERSION, dtype.itemsize, rows.shape[1], rows.shape[0])
    path.write_bytes(header + rows.astype(dtype).tobytes())


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("layout", ["file", "split", "manifest"])
@pytest.mark.parametrize("bad", [0, 3, 4, 8])
def test_only_the_window_is_checked_for_nan_on_both_paths(
    tmp_path, capsys, precision, layout, bad
):
    # 9 iterates at K = 4: the window is iterates 4 to 8. Split into files at 3 and 6,
    # iterate 0 lies in a file wholly before the window and iterate 3 in the part of a
    # file that the tail read skips. A NaN there is ignored by the file path and the
    # in-memory path alike, with equal bits; one inside the window exits 3 with the
    # in-memory message, which counts iterates in the whole sequence.
    _, traj = _export_trajectory(tmp_path / "clean.rnac", dim=5, steps=8)
    mat = np.array(traj)
    if precision == "f32":  # both paths see the values the files hold
        mat = mat.astype(np.float32).astype(np.float64)
    mat[bad, 2] = np.nan
    if layout == "file":
        source = tmp_path / "seq.rnac"
        _write_stored(source, mat, precision)
    else:  # a manifest pins an order that is not the names' order
        source = tmp_path / "parts"
        source.mkdir()
        names = ["b.rnac", "c.rnac", "a.rnac"] if layout == "manifest" else ["a", "b", "c"]
        for name, rows in zip(names, np.split(mat, [3, 6])):
            _write_stored(source / name, rows, precision)
        if layout == "manifest":
            (source / "manifest.txt").write_text("\n".join(names) + "\n")
    out = tmp_path / "o.rnac"
    code = main(["accelerate", str(source), "--k", "4", "--out", str(out)])
    captured = capsys.readouterr()
    if bad < 4:
        theta, _, _ = rnacc.accelerate_checkpoints(mat, window=4, lam=1e-8)
        write_checkpoints(tmp_path / "expected.rnac", [theta], "f64")
        assert code == 0, captured.err
        assert out.read_bytes() == (tmp_path / "expected.rnac").read_bytes()
    else:
        with pytest.raises(rnacc.NumericalFailure) as in_memory:
            rnacc.accelerate_checkpoints(mat, window=4, lam=1e-8)
        assert code == 3
        assert captured == ("", f"error: {in_memory.value}\n")
        assert f"iterate {bad} of 9 " in captured.err
        assert not out.exists()


@pytest.mark.skipif(
    not hasattr(os, "mkfifo") or not hasattr(signal, "SIGALRM"), reason="needs FIFOs and alarms"
)
@pytest.mark.parametrize(
    "argv, message",
    [
        (["accelerate", "fifo", "--out", "o.rnac"],
         "the checkpoints fifo: neither a regular file nor a directory"),
        (["accelerate", "seq.rnac", "--lambda-grid", "1e-8,1e-6", "--scores", "fifo",
          "--out", "o.rnac"], "--scores fifo: not a regular file"),
        (["run", "--spec", "fifo"], "the spec file fifo: not a regular file"),
        (["sweep", "--spec", "fifo", "--k-list", "2", "--lambda-list", "1e-8"],
         "the spec file fifo: not a regular file"),
    ],
    ids=["checkpoints", "scores", "run-spec", "sweep-spec"],
)
def test_fifo_input_exit_4_without_opening_it(tmp_path, capsys, monkeypatch, argv, message):
    # Opening a FIFO for reading waits for a writer that never comes; the alarm fails
    # the test instead of hanging it if the FIFO is opened.
    def opened(signum, frame):
        raise AssertionError("the FIFO was opened")

    monkeypatch.chdir(tmp_path)
    _export_trajectory(tmp_path / "seq.rnac")
    os.mkfifo("fifo")
    before = sorted(tmp_path.iterdir())
    previous = signal.signal(signal.SIGALRM, opened)
    signal.alarm(10)
    try:
        code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 4
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.skipif(
    not hasattr(os, "mkfifo") or not hasattr(signal, "SIGALRM"), reason="needs FIFOs and alarms"
)
@pytest.mark.parametrize("kind", ["directory", "fifo", "dangling-link"])
def test_manifest_that_is_not_a_regular_file_exit_4(tmp_path, capsys, monkeypatch, kind):
    # A manifest pins the order, so one that is no file is refused, not passed over for
    # the name order; a FIFO is not opened, which would wait for a writer (the alarm
    # fails the test instead).
    def opened(signum, frame):
        raise AssertionError("the manifest was opened")

    monkeypatch.chdir(tmp_path)
    _, traj = _export_trajectory(tmp_path / "seq.rnac")
    os.mkdir("d")
    write_checkpoints("d/a.rnac", traj[:6])
    write_checkpoints("d/b.rnac", traj[6:])
    manifest = Path("d", "manifest.txt")
    if kind == "directory":
        manifest.mkdir()
    elif kind == "fifo":
        os.mkfifo(manifest)
    else:
        manifest.symlink_to("gone.txt")
    before = sorted(tmp_path.rglob("*"))
    previous = signal.signal(signal.SIGALRM, opened)
    signal.alarm(10)
    try:
        code = main(["accelerate", "d", "--k", "1", "--out", "o.rnac"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 4
    assert capsys.readouterr() == ("", "error: the manifest d/manifest.txt: not a regular file\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_nul_byte_in_a_manifest_name_exit_4_before_any_read(tmp_path, capsys, monkeypatch):
    # No file name holds a NUL byte; resolving one raised ValueError, a traceback.
    def never(*args, **kwargs):
        raise AssertionError("a checkpoint was read before the manifest was checked")

    monkeypatch.setattr("rnacc.checkpoint._read_header", never)
    monkeypatch.chdir(tmp_path)
    _, traj = _export_trajectory(tmp_path / "seq.rnac")
    os.mkdir("d")
    write_checkpoints("d/a.rnac", traj)
    Path("d", "manifest.txt").write_text("a.rnac\nb\x00c\n")
    before = {p: p.is_dir() or p.read_bytes() for p in tmp_path.rglob("*")}
    assert main(["accelerate", "d", "--k", "1", "--out", "o.rnac"]) == 4
    message = "error: d/manifest.txt: names hold a NUL byte ['b\\x00c']\n"
    assert capsys.readouterr() == ("", message)
    assert {p: p.is_dir() or p.read_bytes() for p in tmp_path.rglob("*")} == before


@pytest.mark.parametrize("key", ["metrics_out", "checkpoints_out"])
def test_nul_byte_in_a_spec_output_exit_4_before_any_work(tmp_path, capsys, monkeypatch, key):
    # A spec line can carry a NUL byte, which argv cannot; resolving the path raised
    # ValueError, a traceback.
    def never(*args, **kwargs):
        raise AssertionError("work began before every output was checked")

    for name in ("run_with_rna", "build_problem"):
        monkeypatch.setattr(f"rnacc.experiment.{name}", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.spec").write_text(_spec_text("quadratic", f"epochs = 3\n{key} = m\x00.out\n"))
    before = sorted(tmp_path.iterdir())
    assert main(["run", "--spec", "exp.spec"]) == 4
    message = f"error: {key} 'm\\x00.out': a path cannot hold a NUL byte\n"
    assert capsys.readouterr() == ("", message)
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_output_onto_a_fifo_replaces_it(tmp_path, capsys):
    # An output is written beside its target and renamed over it, so a FIFO there is
    # replaced, never opened; one in the output's directory part exits 4.
    _export_trajectory(tmp_path / "seq.rnac")
    os.mkfifo(tmp_path / "fifo")
    argv = ["accelerate", str(tmp_path / "seq.rnac"), "--out"]
    assert main(argv + [str(tmp_path / "fifo" / "o.rnac")]) == 4
    assert main(argv + [str(tmp_path / "fifo")]) == 0
    assert read_checkpoints(tmp_path / "fifo").shape == (1, 4)
    capsys.readouterr()


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


def test_sweep_whose_longest_window_has_no_live_cell(tmp_path, capsys, monkeypatch):
    # 12-d mini-batch logistic training for 20 epochs: at epoch 16 the window of 16
    # iterates has 15 residuals in 12 dimensions, k=16 lambda=0 fails as singular and
    # only k=4 stays live. Its file is still run --k 4 --lambda 0's, and each later epoch
    # stacks and differences only the 5 iterates that cell reads, not the whole ring.
    monkeypatch.chdir(tmp_path)
    Path("exp.spec").write_text(
        "problem = logistic\nproblem.n_samples = 120\nproblem.dim = 12\nproblem.seed = 5\n"
        "optimizer.eta = 1.0\noptimizer.momentum = 0.9\noptimizer.schedule = 5:0.1,9:0.1\n"
        "optimizer.batch_size = 16\noptimizer.seed = 3\nepochs = 20\n"
    )
    windows, window = [], rnacc.optimizers._window
    monkeypatch.setattr(
        rnacc.optimizers, "_window", lambda *args: windows.append(window(*args)) or windows[-1]
    )
    argv = ["sweep", "--spec", "exp.spec", "--k-list", "4,16", "--lambda-list", "0", "--out", "sw"]
    assert main(argv) == 0
    assert [len(w) for w in windows] == list(range(2, 17)) + [5] * 4  # epochs 2 to 20
    summary = [row.split(",") for row in Path("sw/summary.csv").read_text().splitlines()]
    assert [row[:3] for row in summary[1:]] == [["4", "0.0", "ok"], ["16", "0.0", "failed"]]
    assert summary[2][-1] == "residual Gram matrix is numerically singular at lam=0; use lam > 0"
    assert main(["run", "--spec", "exp.spec", "--k", "4", "--lambda", "0", "--out", "run.csv"]) == 0
    assert Path("sw/metrics_k4_lam0.csv").read_bytes() == Path("run.csv").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize(
    "spec_name", ["summary.csv", "metrics_k5_lam1e-08.csv"], ids=["summary", "cell"]
)
def test_sweep_output_on_spec_exit_2(tmp_path, capsys, monkeypatch, spec_name):
    # A relative --out against an absolute --spec: both resolve to one path.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sw").mkdir()
    spec_path = tmp_path / "sw" / spec_name
    spec_path.write_text(_spec_text("quadratic", "epochs = 5\n"))
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
    spec_path.write_text(_spec_text("quadratic", "epochs = 5\n"))
    before = spec_path.read_bytes()
    argv = ["sweep", "--spec", str(spec_path), "--k-list", "5", "--lambda-list", "1e-8"]
    assert main(argv + ["--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert spec_path.read_bytes() == before
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "metrics_k5_lam1e-08.csv", "spec.txt", "summary.csv"
    ]


@pytest.mark.parametrize(
    "key, value", [("rna.lambda_grid", "1e-8,1e-6"), ("checkpoints_out", "ck.rnac")]
)
def test_sweep_spec_key_it_does_not_use_exit_2(tmp_path, capsys, monkeypatch, key, value):
    # A sweep solves each cell at one lambda of --lambda-list and writes no checkpoint.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.spec").write_text(_spec_text("quadratic", f"epochs = 3\n{key} = {value}\n"))
    argv = ["sweep", "--spec", "exp.spec", "--k-list", "2", "--lambda-list", "1e-8", "--out", "sw"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {key}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["exp.spec"]


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


def test_a_negative_zero_ridge_is_the_zero_ridge(tmp_path, capsys):
    # RnaConfig stores -0.0 as 0.0, so no output shows -0 and sweep's ridges 0 and -0
    # are one ridge, whose two cells would share one metrics file.
    assert str(RnaConfig(lam=-0.0).lam) == "0.0"
    metrics = tmp_path / "m.csv"
    argv = ["run", "--epochs", "4", "--k", "2", "--lambda", "-0.0", "--out", str(metrics)]
    assert main(argv) == 0
    used = [line.split(",")[5] for line in metrics.read_text().splitlines()[1:]]
    assert used[0] == "" and set(used[1:]) == {"0"}
    path = tmp_path / "seq.rnac"
    _export_trajectory(path)
    out = tmp_path / "out.rnac"
    argv = ["accelerate", str(path), "--k", "2", "--lambda", "-0.0", "--out", str(out)]
    assert main(argv) == 0
    assert "lambda: 0.0" in capsys.readouterr().out.splitlines()
    out_dir = tmp_path / "cells"
    argv = ["sweep", "--epochs", "4", "--k-list", "2", "--lambda-list", "0,-0.0"]
    argv += ["--out", str(out_dir)]
    assert main(argv) == 2
    assert "metrics_k2_lam0.csv" in capsys.readouterr().err
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
        spec_path.write_text(_spec_text("quadratic", f"{key} = {value}\n"))
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
        spec_path.write_text(_spec_text(problem, f"epochs = 4\n{extra}{key} = {value}\n"))
        out = tmp_path / f"{value}.csv"
        assert main(["run", "--spec", str(spec_path), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "list_flag, run_flag, text",
    [("--k-list", "--k", text) for text in ("abc", "2.5", "nan", "inf", "0", "-1")]
    + [("--lambda-list", "--lambda", text) for text in ("abc", "-1", "nan", "inf")],
)
def test_sweep_list_entry_reads_like_its_run_flag(
    tmp_path, capsys, monkeypatch, list_flag, run_flag, text
):
    # Each entry of a list is the text of run's flag; a rejected one gives run's message.
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--epochs", "3", run_flag, text, "--out", "m.csv"]) == 2
    expected = capsys.readouterr()
    lists = {"--k-list": "2", "--lambda-list": "1e-8", list_flag: f"4, {text}"}
    argv = ["sweep", "--epochs", "3", *itertools.chain(*lists.items()), "--out", "sw"]
    assert main(argv) == 2
    assert capsys.readouterr() == expected
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "lines, message",
    [
        (
            "problem = logistic\nproblem.n_samples = 50\noptimizer.batch_size = 100\n",
            "batch_size 100 exceeds n_samples 50",
        ),
        (
            "problem = quadratic\noptimizer.batch_size = 10\n",
            "quadratic(d=20, cond=100, seed=0) offers no mini-batch gradients",
        ),
    ],
    ids=["logistic", "quadratic"],
)
def test_sweep_batch_size_the_problem_cannot_serve_exit_2_before_any_work(
    tmp_path, capsys, monkeypatch, lines, message
):
    def never(self):
        raise AssertionError("the reference optimum was computed")

    monkeypatch.setattr(rnacc.Problem, "optimum", property(never))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.spec").write_text(lines + "epochs = 3\n")
    assert main(["run", "--spec", "exp.spec", "--out", "m.csv"]) == 2
    expected = capsys.readouterr()
    assert expected == ("", f"error: {message}\n")
    argv = ["sweep", "--spec", "exp.spec", "--k-list", "2", "--lambda-list", "1e-8"]
    assert main(argv + ["--out", "sw"]) == 2
    assert capsys.readouterr() == expected
    assert [p.name for p in tmp_path.iterdir()] == ["exp.spec"]


@pytest.mark.parametrize(
    "out, message",
    [
        ("afile/sub", "--out afile/sub: afile is not a directory"),
        ("afile/a/b", "--out afile/a/b: afile is not a directory"),
        ("", "--out: an empty path names no directory"),
        ("N" * 256, f"--out {'N' * 256}: file name too long (256 bytes, at most {{limit}})"),
    ],
    ids=["in-a-file", "below-a-file", "empty", "long-name"],
)
def test_sweep_out_that_cannot_be_made_exit_4_before_any_work(
    tmp_path, capsys, monkeypatch, out, message
):
    def never(*args, **kwargs):
        raise AssertionError("the problem was built before --out was checked")

    monkeypatch.setattr("rnacc.experiment.build_problem", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("not a directory\n")
    argv = ["sweep", "--epochs", "3", "--k-list", "2", "--lambda-list", "1e-8", "--out", out]
    assert main(argv) == 4
    limit = os.pathconf(tmp_path, "PC_NAME_MAX")
    assert capsys.readouterr() == ("", f"error: {message.format(limit=limit)}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


def test_sweep_makes_a_nested_missing_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "a" / "b" / "sw"
    argv = ["sweep", "--epochs", "3", "--k-list", "2", "--lambda-list", "1e-8"]
    assert main(argv + ["--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out_dir.iterdir()) == ["metrics_k2_lam1e-08.csv", "summary.csv"]


# ---------------------------------------------------- the command-line contract

_TREE_NAMES = ("a", "b", "c")
_KINDS = ["file", "dir", "link-file", "link-dir", "dangling"]
_KINDS += ["fifo"] if hasattr(os, "mkfifo") else []
_LONG = "L" * 250  # a name the OS accepts, 250 of its 255 bytes
_TOO_LONG = "N" * 256
# Settings read from flag text; each is drawn for --k, --lambda or --seed.
_HOSTILE = ("nan", "inf", "1e30", str(2**63), "-0", " 4 ", "", "2")


def _make_tree(root, kinds):
    """The input trajectory ``traj.rnac``, a directory ``sub`` holding a file, and for
    each of ``_TREE_NAMES`` its drawn kind of entry."""
    write_checkpoints(root / "traj.rnac", np.arange(18.0).reshape(6, 3) ** 0.5)
    (root / "sub").mkdir()
    (root / "sub" / "in").write_bytes(b"kept\n")
    for name, kind in zip(_TREE_NAMES, kinds):
        entry = root / name
        if kind == "file":
            entry.write_bytes(b"kept\n")
        elif kind == "dir":
            entry.mkdir()
            (entry / "in").write_bytes(b"kept\n")
        elif kind == "fifo":
            os.mkfifo(entry)
        else:
            links = {"link-file": "traj.rnac", "link-dir": "sub", "dangling": "gone"}
            entry.symlink_to(links[kind])


def _snapshot(root) -> dict:
    """Every entry under ``root``, links not followed: a link's target, a file's bytes."""
    entries = {}
    for entry in os.scandir(root):
        if entry.is_symlink():
            entries[entry.path] = ("link", os.readlink(entry.path))
        elif entry.is_dir():
            entries[entry.path] = ("dir",)
            entries.update(_snapshot(entry.path))
        elif entry.is_file():
            entries[entry.path] = ("file", Path(entry.path).read_bytes())
        else:  # a FIFO, not opened: that would wait for a writer
            entries[entry.path] = ("fifo",)
    return entries


def _argv(command, out, setting):
    """``command``'s arguments with ``setting``'s text for its flag: sweep's lists take
    that of --k and --lambda, and accelerate takes no --seed."""
    flag, text = setting
    args = {
        "run": ["--epochs=3"],
        "accelerate": ["traj.rnac"],
        "sweep": ["--epochs=3", "--k-list=2", "--lambda-list=1e-8"],
    }[command]
    if command == "sweep" and flag != "seed":
        flag += "-list"  # given again, it overrides the list above
    if not (command == "accelerate" and flag == "seed"):
        args.append(f"--{flag}={text}")
    return [command, *args, "--out", out]


@settings(max_examples=150)
@given(
    command=st.sampled_from(["run", "accelerate", "sweep"]),
    kinds=st.tuples(*[st.sampled_from(_KINDS)] * 3),
    out=st.sampled_from(["", ".", _LONG, _TOO_LONG])
    | st.builds(
        str.__add__,
        st.sampled_from([*_TREE_NAMES, "sub", "traj.rnac", "new"]),
        st.sampled_from(["", "/", "/x.out", "/nd/x.out", "/.", "/" + _LONG, "/" + _TOO_LONG]),
    ),
    setting=st.tuples(st.sampled_from(["k", "lambda", "seed"]), st.sampled_from(_HOSTILE)),
)
@example(command="run", kinds=("file", "dir", "dangling"), out="new/", setting=("k", "2"))
@example(command="run", kinds=("file", "dir", "dangling"), out=_LONG, setting=("k", "2"))
@example(command="run", kinds=("file", "dir", "dangling"), out="m.csv", setting=("k", "1e30"))
@example(command="sweep", kinds=("file", "dir", "dangling"), out="sw", setting=("k", "1e30"))
@example(command="accelerate", kinds=("file", "dir", "dangling"), out="", setting=("k", "4"))
@example(command="sweep", kinds=("file", "dir", "dangling"), out=_TOO_LONG, setting=("k", "2"))
def test_every_command_fails_before_any_work_or_writes_only_its_outputs(
    command, kinds, out, setting
):
    # Over drawn trees of files, directories, links (dangling ones too) and FIFOs, output
    # paths built from them (trailing separators, long names, missing directories, .
    # and '') and hostile setting text: each command exits 0, 2, 3 or 4, never with a
    # traceback, and any failure is one error line. Exit 2 or 4 comes before any epoch,
    # checkpoint payload read or, for 4, problem build, with the tree unchanged; on
    # success only the declared outputs changed.
    built = []

    def building(spec):
        problem = build_problem(spec)
        built.append(problem)
        return problem

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch("rnacc.optimizers.sgd_momentum_epoch",
                       wraps=rnacc.optimizers.sgd_momentum_epoch) as epochs, \
            mock.patch("rnacc.cli._read_tail", wraps=_read_tail) as reads, \
            mock.patch("rnacc.experiment.build_problem", building):
        root = Path(tmp).resolve()
        _make_tree(root, kinds)
        # A file output replaces its last part, links included; sweep's is a directory.
        head, name = os.path.split(os.path.join(root, out))
        target = os.path.join(os.path.realpath(head), name)
        if command == "sweep":
            target = os.path.realpath(target)
        before = _snapshot(root)
        stdout, stderr = io.StringIO(), io.StringIO()
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(_argv(command, out, setting))
        finally:
            os.chdir(cwd)
        after = _snapshot(root)
    err = stderr.getvalue()
    event(f"{command} exits {code}")
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if code in (2, 4):
        assert after == before
        assert (epochs.call_count, reads.call_count) == (0, 0)
        assert code == 2 or not built
    else:
        changed = {p for p in before.keys() | after.keys() if before.get(p) != after.get(p)}
        if command == "sweep":  # the directory, what it holds and the parents it made
            inside = {p for p in changed if p == target or p.startswith(target + os.sep)}
            assert changed - inside <= {p for p in changed if target.startswith(p + os.sep)}
        else:
            assert changed <= {target}


def test_huge_window_uses_every_iterate_held(tmp_path, capsys):
    # A window beyond the epochs extrapolates every iterate, as a window of the epochs does.
    for k in ("5", "1e30", str(2**63)):
        assert main(["run", "--epochs", "5", "--k", k, "--out", str(tmp_path / f"{k}.csv")]) == 0
    assert (tmp_path / "1e30.csv").read_bytes() == (tmp_path / "5.csv").read_bytes()
    assert (tmp_path / f"{2**63}.csv").read_bytes() == (tmp_path / "5.csv").read_bytes()
    argv = ["sweep", "--epochs", "5", "--k-list", "1e30", "--lambda-list", "1e-8"]
    assert main(argv + ["--out", str(tmp_path / "sw")]) == 0
    capsys.readouterr()


@pytest.mark.skipif(sys.platform != "linux", reason="address-space limits as Linux sets them")
def test_problem_too_large_for_memory_exit_2(tmp_path):
    # The child alone runs under a 2 GiB address-space limit; a 20000 x 20000 matrix
    # does not fit in it.
    import resource

    (tmp_path / "big.spec").write_text("problem.dim = 20000\n")
    limit = 2 << 30
    src = Path(rnacc.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "rnacc.cli", "run", "--spec", "big.spec", "--out", "m.csv"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Unable to allocate" in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["big.spec"]


# ------------------------------------------------------------- import path

# Blocks scipy (any import of it raises ImportError), then runs every command on
# every built-in problem, solves a logistic reference optimum, and prints every
# scipy module that was loaded.
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
    ["run", "--problem", "logistic", "--epochs", "3", "--out", "l.csv"],
    ["sweep", "--problem", "logistic", "--epochs", "3", "--k-list", "2",
     "--lambda-list", "1e-8", "--out", "sweep_l"],
):
    assert main(argv) == 0, argv
assert np.isfinite(rnacc.make_logistic(50, 3, 1e-3, seed=1).optimum).all()
print([m for m, mod in sys.modules.items() if mod is not None and m.split(".")[0] == "scipy"])
"""


def test_rnacc_never_imports_scipy(tmp_path):
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
    for name in ("from_file.rnac", "from_dir.rnac", "q.csv", "m.csv", "l.csv",
                 "sweep_q/summary.csv", "sweep_m/summary.csv", "sweep_l/summary.csv"):
        assert (tmp_path / name).is_file()
