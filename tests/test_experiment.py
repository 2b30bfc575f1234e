"""Spec files, the experiment runner, offline acceleration, sweeps."""

import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rnacc import (
    DegenerateSum,
    ExperimentSpec,
    InvalidConfig,
    NumericalFailure,
    OptimizerConfig,
    RnaConfig,
    RnaError,
    accelerate_checkpoints,
    build_problem,
    default_spec,
    make_quadratic,
    rna,
    run_experiment,
    sweep,
    WindowTooSmall,
)
from rnacc import core, optimizers
from rnacc.checkpoint import _render
from rnacc.experiment import _override

from oracles import gd_trajectory


def _full_spec():
    return ExperimentSpec(
        problem="logistic",
        problem_params={"n_samples": 50, "dim": 6, "l2": 0.001, "seed": 3},
        optimizer=OptimizerConfig(
            eta=1.5,
            momentum=0.9,
            weight_decay=1e-5,
            schedule=((150, 0.1), (250, 0.1)),
            batch_size=16,
            seed=11,
        ),
        rna=RnaConfig(window=7, lam=1e-9, lam_grid=(1e-10, 1e-6), weight_target="oldest"),
        epochs=40,
        flush_on_drop=True,
        metrics_out="curves.csv",
        checkpoints_out="final.rnac",
    )


def test_spec_text_round_trip_lossless():
    spec = _full_spec()
    assert ExperimentSpec.from_text(spec.to_text()) == spec


def test_spec_file_round_trip_lossless(tmp_path):
    spec = _full_spec()
    path = tmp_path / "exp.spec"
    spec.to_file(path)
    assert ExperimentSpec.from_file(path) == spec
    # Writing the parsed spec again reproduces the file byte for byte.
    again = tmp_path / "exp2.spec"
    ExperimentSpec.from_file(path).to_file(again)
    assert path.read_bytes() == again.read_bytes()


def test_spec_to_file_failure_keeps_previous_file(tmp_path):
    # Spec files are UTF-8; a lone surrogate fails to encode midway through the write.
    path = tmp_path / "exp.spec"
    default_spec("quadratic").to_file(path)
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        replace(default_spec("quadratic"), metrics_out="m\udce9trics.csv").to_file(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["exp.spec"]


def test_spec_file_round_trips_a_non_ascii_output_path(tmp_path):
    spec = replace(default_spec("quadratic"), metrics_out="métrics.csv")
    path = tmp_path / "exp.spec"
    spec.to_file(path)
    assert "métrics.csv".encode("utf-8") in path.read_bytes()
    assert ExperimentSpec.from_file(path) == spec


def test_spec_defaults_round_trip():
    spec = ExperimentSpec()
    assert ExperimentSpec.from_text(spec.to_text()) == spec
    assert spec.rna.window == 10 and spec.rna.lam == 1e-8


def test_spec_parser_rejects_unknown_keys_and_bad_schedule():
    with pytest.raises(InvalidConfig, match="unknown spec key"):
        ExperimentSpec.from_text("nonsense = 1\n")
    with pytest.raises(InvalidConfig, match="schedule"):
        ExperimentSpec.from_text("optimizer.schedule = 150\n")
    with pytest.raises(InvalidConfig, match="key = value"):
        ExperimentSpec.from_text("just some words\n")


@pytest.mark.parametrize(
    "key, text, listed",
    [
        ("optimizer.schedule", "5:0.1,", "5:0.1"),
        ("optimizer.schedule", "5:0.1,,9:0.1", "5:0.1,9:0.1"),
        ("rna.lambda_grid", "1e-8,", "1e-08"),
        ("rna.lambda_grid", "1e-8,,1e-6", "1e-08,1e-06"),
    ],
)
def test_list_settings_skip_empty_entries(key, text, listed):
    # Both list keys read one syntax: an empty entry, trailing or between commas, is
    # skipped, and the spec renders as if it had never been written.
    spec = ExperimentSpec.from_text(f"{key} = {text}\n")
    assert spec == ExperimentSpec.from_text(f"{key} = {listed}\n")
    assert f"{key} = {listed}\n" in spec.to_text()


@pytest.mark.parametrize(
    "text, key, lines",
    [
        ("epochs = 3\nepochs = 5\n", "epochs", (1, 2)),
        ("problem = logistic\n\n# again\n  problem=mlp\n", "problem", (1, 4)),
        ("problem.dim = 5\nepochs = 3\nproblem.dim = 5\n", "problem.dim", (1, 3)),
    ],
)
def test_spec_parser_rejects_a_key_given_twice(text, key, lines):
    with pytest.raises(InvalidConfig) as exc:
        ExperimentSpec.from_text(text)
    assert repr(key) in str(exc.value) and "lines %d and %d" % lines in str(exc.value)


def test_spec_comments_and_blank_lines_ignored():
    spec = ExperimentSpec.from_text("# comment\n\nproblem = quadratic\n")
    assert spec.problem == "quadratic"


def test_default_spec_and_build_problem():
    for name in ("quadratic", "logistic", "mlp"):
        problem = build_problem(default_spec(name, seed=1))
        assert problem.dim >= 1
    with pytest.raises(InvalidConfig):
        default_spec("svm")
    with pytest.raises(InvalidConfig):
        build_problem(ExperimentSpec(problem="svm"))
    with pytest.raises(InvalidConfig):
        build_problem(
            ExperimentSpec(problem="quadratic", problem_params={"bogus": 1})
        )


def test_spec_constructor_merges_problem_defaults():
    spec = ExperimentSpec(problem_params={"dim": 5})
    assert spec.problem_params == {"dim": 5, "condition": 100.0, "seed": 0}
    assert build_problem(spec).dim == 5
    assert build_problem(ExperimentSpec(problem="logistic")).dim == 50
    with pytest.raises(InvalidConfig, match="unknown problem"):
        ExperimentSpec(problem="svm")


@pytest.mark.parametrize("problem", ["quadratic", "logistic", "mlp"])
def test_spec_constructor_takes_the_problem_default_step(problem):
    spec = ExperimentSpec(problem=problem)
    assert spec == default_spec(problem) == ExperimentSpec.from_text(f"problem = {problem}\n")
    assert (spec.optimizer.momentum, spec.optimizer.weight_decay) == (0.0, 0.0)
    given = OptimizerConfig(eta=0.5)
    assert ExperimentSpec(problem=problem, optimizer=given).optimizer is given


def test_run_experiment_writes_outputs(tmp_path):
    spec = default_spec("quadratic", seed=0)
    spec.epochs = 15
    spec.metrics_out = str(tmp_path / "m.csv")
    spec.checkpoints_out = str(tmp_path / "final.rnac")
    vanilla, accel, problem = run_experiment(spec)
    assert len(vanilla) == len(accel) == 15
    lines = (tmp_path / "m.csv").read_text().splitlines()
    assert len(lines) == 16
    from rnacc import read_checkpoints

    final = read_checkpoints(tmp_path / "final.rnac")
    np.testing.assert_array_equal(final[0], accel[-1].theta)
    epochs = [line.split(",")[0] for line in lines[1:]]
    assert epochs == [str(e) for e in range(1, 16)]


def test_run_experiment_rejects_one_path_for_both_outputs(tmp_path, monkeypatch):
    def train(*args, **kwargs):
        raise AssertionError("trained despite colliding outputs")

    monkeypatch.setattr("rnacc.experiment.run_with_rna", train)
    monkeypatch.chdir(tmp_path)
    spec = default_spec("quadratic")
    spec.metrics_out, spec.checkpoints_out = "same", str(tmp_path / "same")
    with pytest.raises(InvalidConfig, match="checkpoints_out"):
        run_experiment(spec)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["metrics_on_spec", "checkpoint_inside_input_dir"])
def test_run_experiment_refuses_an_output_on_an_input(tmp_path, monkeypatch, target):
    def train(*args, **kwargs):
        raise AssertionError("trained despite an output on an input")

    monkeypatch.setattr("rnacc.experiment.run_with_rna", train)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data").mkdir()
    (tmp_path / "exp.spec").write_text("epochs = 5\n")
    inputs = [("the spec file", str(tmp_path / "exp.spec")), ("the data", "data")]
    key, path, word = {
        "metrics_on_spec": ("metrics_out", "exp.spec", "is the spec file"),
        "checkpoint_inside_input_dir": ("checkpoints_out", "data/o.rnac", "lies inside the data"),
    }[target]
    spec = replace(default_spec("quadratic"), **{"metrics_out": "m.csv", key: path})
    with pytest.raises(InvalidConfig, match=f"^{key} {path} {word}"):
        run_experiment(spec, inputs=inputs)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "exp.spec"]
    assert (tmp_path / "exp.spec").read_text() == "epochs = 5\n"


def test_run_experiment_epoch_validation():
    spec = default_spec("quadratic")
    spec.epochs = 0
    with pytest.raises(InvalidConfig):
        run_experiment(spec)


# ---------------------------------------------------- offline acceleration


def test_accelerate_checkpoints_plain_matches_rna():
    problem = make_quadratic(5, 20.0, seed=2)
    traj = gd_trajectory(problem, np.ones(5), 1.0 / problem.smoothness, 12)
    theta_a, lam_a, coeffs_a = accelerate_checkpoints(traj, window=8, lam=1e-8)
    theta_b, coeffs_b = rna(traj, RnaConfig(window=8, lam=1e-8))
    np.testing.assert_array_equal(theta_a, theta_b)
    np.testing.assert_array_equal(coeffs_a.weights, coeffs_b.weights)
    assert lam_a == coeffs_b.lam_used


def test_accelerate_checkpoints_grid_selection_matches_exhaustive():
    problem = make_quadratic(4, 15.0, seed=5)
    traj = gd_trajectory(problem, np.ones(4), 1.0 / problem.smoothness, 10)
    scores = np.array([problem.f(t) for t in traj])
    grid = (1e-12, 1e-8, 1e-3)
    theta, lam_star, coeffs = accelerate_checkpoints(
        traj, window=10, lam=1e-8, lam_grid=grid, scores=scores
    )
    # Exhaustive surrogate ranking, re-derived here.
    best_lam, best_val = None, scores[-1]
    for lam in grid:
        _, c = rna(traj, RnaConfig(window=10, lam=lam))
        val = float(c.weights @ scores[1:])
        if val < best_val:
            best_lam, best_val = lam, val
    assert lam_star == best_lam
    if best_lam is None:
        np.testing.assert_array_equal(theta, traj[-1])
    else:
        expected, _ = rna(traj, RnaConfig(window=10, lam=best_lam))
        np.testing.assert_array_equal(theta, expected)


def test_accelerate_checkpoints_grid_needs_scores():
    traj = np.random.default_rng(0).standard_normal((6, 3))
    with pytest.raises(InvalidConfig, match="scores"):
        accelerate_checkpoints(traj, window=5, lam=1e-8, lam_grid=(1e-8,))
    with pytest.raises(InvalidConfig, match="counts must match"):
        accelerate_checkpoints(
            traj, window=5, lam=1e-8, lam_grid=(1e-8,), scores=np.ones(3)
        )
    for bad in (np.nan, np.inf):
        scores = np.ones(6)
        scores[2] = bad
        with pytest.raises(InvalidConfig, match="scores"):
            accelerate_checkpoints(traj, window=5, lam=1e-8, lam_grid=(1e-8,), scores=scores)


def test_accelerate_checkpoints_scores_need_a_grid():
    # Scores only rank a grid: without one they would go unused, miscounted or not.
    traj = np.random.default_rng(0).standard_normal((6, 3))
    for scores in (np.ones(6), np.ones(2)):
        with pytest.raises(InvalidConfig, match="grid"):
            accelerate_checkpoints(traj, window=5, lam=1e-8, scores=scores)


def test_accelerate_checkpoints_grid_validates_like_plain_path():
    # Bad iterates raise as on the plain path instead of turning into a
    # silent fallback to the last checkpoint; bad grids are rejected.
    traj = np.random.default_rng(0).standard_normal((6, 3))
    grid = (1e-8, 1e-4)
    nan_traj = traj.copy()
    nan_traj[3, 1] = np.nan
    with pytest.raises(NumericalFailure):
        accelerate_checkpoints(nan_traj, window=5, lam=1e-8, lam_grid=grid, scores=np.ones(6))
    with pytest.raises(WindowTooSmall):
        accelerate_checkpoints(traj[:1], window=5, lam=1e-8, lam_grid=grid, scores=[1.0])
    for bad_grid in ((-1.0, 1e-8), (1e-8, float("nan"))):
        with pytest.raises(InvalidConfig, match="lam_grid"):
            accelerate_checkpoints(
                traj, window=5, lam=1e-8, lam_grid=bad_grid, scores=np.ones(6)
            )


def test_accelerate_checkpoints_nan_iterate_wins_over_miscounted_scores():
    traj = np.random.default_rng(0).standard_normal((6, 3))
    traj[3, 1] = np.nan
    with pytest.raises(NumericalFailure, match="iterate 3 of 6"):
        accelerate_checkpoints(traj, window=5, lam=1e-8, lam_grid=(1e-8,), scores=np.ones(3))


def test_accelerate_checkpoints_miscounted_scores_leave_the_matrix_unchanged():
    traj = np.random.default_rng(0).standard_normal((6, 3))
    before = traj.tobytes()
    with pytest.raises(InvalidConfig, match="3 scores for 6 checkpoints"):
        accelerate_checkpoints(traj, window=3, lam=1e-8, lam_grid=(1e-8,), scores=np.ones(3))
    assert traj.tobytes() == before


def test_accelerate_checkpoints_counts_the_scores_of_an_iterator():
    problem = make_quadratic(4, 15.0, seed=5)
    traj = gd_trajectory(problem, np.ones(4), 1.0 / problem.smoothness, 10)
    scores = [problem.f(t) for t in traj]
    grid = (1e-12, 1e-8, 1e-3)
    got = accelerate_checkpoints(iter(traj), 6, 1e-8, grid, scores)
    want = accelerate_checkpoints(list(traj), 6, 1e-8, grid, scores)
    assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
    with pytest.raises(InvalidConfig, match="counts must match"):
        accelerate_checkpoints(iter(traj), 6, 1e-8, grid, scores[1:])


def test_accelerate_checkpoints_lives_in_core_and_imports_from_experiment():
    import rnacc.core
    import rnacc.experiment

    assert rnacc.experiment.accelerate_checkpoints is rnacc.accelerate_checkpoints
    assert rnacc.core.accelerate_checkpoints is rnacc.accelerate_checkpoints
    assert "accelerate_checkpoints" in rnacc.experiment.__all__


# ------------------------------------------------------------------- sweep


def test_sweep_grid_files_and_summary(tmp_path):
    spec = default_spec("quadratic", seed=0)
    spec.epochs = 12
    cells = sweep(spec, [5, 10], [1e-10, 1e-8], tmp_path)
    assert len(cells) == 4
    assert all(c.status == "ok" for c in cells)
    for c in cells:
        assert (tmp_path / f"metrics_k{c.window}_lam{c.lam:g}.csv").is_file()
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(summary) == 5
    assert summary[0].startswith("k,lambda,status")


def test_sweep_isolates_failing_cell(tmp_path):
    # lam=0 with a window wider than the dimension: that cell fails with
    # a singular system, the others are untouched. At eta=5 training
    # also diverges at epoch 8; the lam=0 cell still reports the
    # singular solve it hit first, the other cell the divergence.
    singular = "residual Gram matrix is numerically singular at lam=0; use lam > 0"
    diverged = "parameters diverged at epoch 8 (norm > 1e+12)"
    for eta, error_1e8 in ((0.05, ""), (5.0, diverged)):
        spec = default_spec("quadratic", seed=0)
        spec.problem_params = {"dim": 3, "condition": 10.0, "seed": 0}
        spec.optimizer = OptimizerConfig(eta=eta, momentum=0.0, weight_decay=0.0)
        spec.epochs = 10
        out_dir = tmp_path / f"eta{eta}"
        cells = sweep(spec, [8], [0.0, 1e-8], out_dir)
        by_lam = {c.lam: c for c in cells}
        assert by_lam[0.0].status == "failed"
        assert by_lam[0.0].error == singular
        assert by_lam[1e-8].status == ("failed" if error_1e8 else "ok")
        assert by_lam[1e-8].error == error_1e8
        summary = (out_dir / "summary.csv").read_text()
        assert "failed" in summary


def test_sweep_best_cell_at_least_as_good_as_default(tmp_path):
    spec = default_spec("quadratic", seed=0)
    spec.epochs = 25
    spec.metrics_out = str(tmp_path / "default.csv")
    vanilla, accel, problem = run_experiment(spec)
    f_star = problem.f(problem.optimum)
    default_sub = accel[-1].objective - f_star

    cells = sweep(spec, [5, 10], [1e-10, 1e-8, 1e-4], tmp_path / "grid")
    best = min(c.final_suboptimality_rna for c in cells if c.status == "ok")
    assert best <= default_sub + 1e-15


def test_sweep_trains_once_and_matches_standalone_runs(tmp_path, monkeypatch):
    # One training for the whole grid, and every cell's metrics file is
    # byte-identical to running that cell on its own, across a flushed
    # schedule drop, for both weight targets. K=20 is above the 14 epochs; at
    # lambda=0 a window of more residuals than the 6 dimensions is singular,
    # and that cell reports the message the run raises.
    spec = ExperimentSpec(
        problem="logistic",
        problem_params={"n_samples": 60, "dim": 6, "l2": 0.001, "seed": 3},
        optimizer=OptimizerConfig(
            eta=1.0, momentum=0.9, weight_decay=1e-5, schedule=((6, 0.1),),
            batch_size=16, seed=11,
        ),
        epochs=14,
        flush_on_drop=True,
    )
    for target in ("latest", "oldest"):
        spec = replace(spec, rna=RnaConfig(weight_target=target))
        epochs_trained = []
        train_epoch = optimizers.sgd_momentum_epoch
        monkeypatch.setattr(
            optimizers,
            "sgd_momentum_epoch",
            lambda *args: epochs_trained.append(args[-1]) or train_epoch(*args),
        )
        cells = sweep(spec, [3, 8, 20], [0.0, 1e-10, 1e-4], tmp_path / target)
        assert epochs_trained == list(range(1, spec.epochs + 1))
        monkeypatch.undo()
        failed = []
        for c in cells:
            alone = tmp_path / f"{target}_k{c.window}_lam{c.lam:g}.csv"
            cell_rna = RnaConfig(window=c.window, lam=c.lam, weight_target=target)
            try:
                run_experiment(replace(spec, rna=cell_rna, metrics_out=str(alone)))
            except RnaError as exc:
                assert (c.status, c.metrics_path, c.error) == ("failed", None, str(exc))
                failed.append((c.window, c.lam))
                continue
            assert c.status == "ok"
            assert Path(c.metrics_path).read_bytes() == alone.read_bytes()
        assert failed == [(8, 0.0), (20, 0.0)]


@st.composite
def _sweep_cases(draw):
    """A small problem, its training settings, and the windows and ridges to sweep."""
    kind = draw(st.sampled_from(["quadratic", "logistic", "mlp"]))
    params = {
        "quadratic": {"dim": 5, "condition": 10.0},
        "logistic": {"n_samples": 24, "dim": 4, "l2": 0.001},
        "mlp": {"d_in": 3, "hidden": 2, "n_samples": 20},
    }[kind]
    spec = ExperimentSpec(problem=kind, problem_params={**params, "seed": draw(st.integers(0, 3))})
    epochs = draw(st.integers(1, 15))
    n_samples = params.get("n_samples")
    n_drops = draw(st.integers(0, min(2, epochs - 1)))
    drops = sorted(draw(st.sets(st.integers(2, max(2, epochs)), min_size=n_drops, max_size=n_drops)))
    optimizer = replace(
        spec.optimizer,
        eta=spec.optimizer.eta * draw(st.sampled_from([1.0, 3000.0])),  # 3000 diverges
        momentum=draw(st.sampled_from([0.0, 0.5, 0.9])),
        schedule=tuple((e, 0.1) for e in drops),
        batch_size=None if n_samples is None else draw(st.none() | st.integers(1, n_samples)),
        seed=draw(st.integers(0, 3)),
    )
    spec = replace(
        spec,
        optimizer=optimizer,
        rna=RnaConfig(weight_target=draw(st.sampled_from(["latest", "oldest"]))),
        epochs=epochs,
        flush_on_drop=draw(st.booleans()),
    )
    windows = draw(st.lists(st.integers(1, 16), min_size=1, max_size=4, unique=True))
    lams = draw(st.lists(st.sampled_from([0.0, 1e-12, 1e-8, 1e-4]), min_size=1, max_size=3, unique=True))
    return spec, windows, lams


@settings(max_examples=100)
@given(_sweep_cases())
def test_every_sweep_cell_equals_its_own_run(case):
    # Over drawn problems, batches, momenta, schedules (flushed or not), weight
    # targets, windows (some above the epoch count) and ridges (0 fails on some
    # windows): each cell's metrics file, error and summary.csv finals equal its own
    # run_experiment, and each extrapolated point of the run equals the public rna on
    # the window vanilla[max(start, t - K):t + 1], start moving to each flushed drop,
    # or the iterate where there is no window or the sum is degenerate.
    spec, windows, lams = case
    drops = {e for e, _ in spec.optimizer.schedule} if spec.flush_on_drop else set()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cells = sweep(spec, windows, lams, tmp / "cells")
        summary = (tmp / "cells" / "summary.csv").read_text().splitlines()[1:]
        for cell, line in zip(cells, summary, strict=True):
            cfg = replace(spec.rna, window=cell.window, lam=cell.lam)
            alone = tmp / "alone.csv"
            try:
                vanilla, accel, problem = run_experiment(
                    replace(spec, rna=cfg, metrics_out=str(alone))
                )
            except RnaError as exc:
                assert (cell.status, cell.metrics_path, cell.error) == ("failed", None, str(exc))
                assert line.split(",")[2:] == ["failed", "", "", "", "", str(exc).replace(",", ";")]
                continue
            assert cell.status == "ok"
            assert Path(cell.metrics_path).read_bytes() == alone.read_bytes()
            finals = [vanilla[-1].objective, accel[-1].objective]
            if problem.optimum is not None:
                f_star = float(problem.f(problem.optimum))
                finals += [finals[0] - f_star, finals[1] - f_star]
            else:
                finals += [None, None]
            assert line.split(",")[2:] == ["ok", *map(_render, finals), ""]
            start = 0
            for t, (v, a) in enumerate(zip(vanilla, accel, strict=True)):
                if v.epoch in drops:
                    start = t
                lo = max(start, t - cell.window)
                want = v.theta
                if t > lo:
                    try:
                        want, _ = rna([r.theta for r in vanilla[lo : t + 1]], cfg)
                    except DegenerateSum:
                        pass
                assert a.theta.tobytes() == want.tobytes(), (cell.window, cell.lam, v.epoch)


def test_sweep_differences_each_window_and_solves_each_point_once(tmp_path, monkeypatch):
    # Per epoch t, windows K in (5, 10, 20) start at max(0, t - K): one window for
    # t <= 5, two for t <= 10, three after, 57 over 25 epochs rather than 72. Each epoch
    # from the second goes through the window stage once, 24 times, and each shorter
    # window is a suffix of its differences; each window forms its Gram matrix once and
    # is solved once per ridge, 228 times rather than 288. Epoch 1 is one shared copy.
    counts = {"_window": 0, "_gram": 0, "_extrapolate": 0, "_extrapolated": 0}
    for name in counts:
        wrapped = getattr(optimizers, name)

        def counted(*args, _name=name, _wrapped=wrapped, **kwargs):
            counts[_name] += 1
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(optimizers, name, counted)
    spec = replace(default_spec("quadratic", seed=0), epochs=25)
    cells = sweep(spec, [5, 10, 20], [1e-10, 1e-8, 1e-6, 1e-4], tmp_path)
    assert all(c.status == "ok" for c in cells)
    assert counts == {"_window": 24, "_gram": 57, "_extrapolate": 228, "_extrapolated": 229}


def test_sweep_solves_each_windows_plain_ridges_as_one_stack(tmp_path, monkeypatch):
    # On the spec above each of the 57 windows solves its 4 ridges in one call to
    # _solve, 228 systems in all, where one call per point made 228 stacks of one.
    stacks = []
    solve = core._solve

    def counted(gram, lams):
        stacks.append(len(lams))
        return solve(gram, lams)

    monkeypatch.setattr(core, "_solve", counted)
    monkeypatch.setattr(optimizers, "_solve", counted)
    spec = replace(default_spec("quadratic", seed=0), epochs=25)
    cells = sweep(spec, [5, 10, 20], [1e-10, 1e-8, 1e-6, 1e-4], tmp_path)
    assert all(c.status == "ok" for c in cells)
    assert (len(stacks), sum(stacks)) == (57, 228)


def _sweep_peak_bytes(spec, out_dir) -> int:
    tracemalloc.start()
    try:
        sweep(spec, [2, 4, 8], [1e-10, 1e-8, 1e-6, 1e-4], out_dir)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_epochs(tmp_path):
    # The sweep holds the last max(K) + 1 iterates, one window and one epoch's
    # points, never the vanilla trace: once every window is full, 30 more epochs
    # add almost nothing to the peak, where a held trace adds one row of d each.
    spec = default_spec("mlp")
    spec.problem_params = {"d_in": 100, "hidden": 100, "n_samples": 100, "seed": 0}
    row = 8 * build_problem(spec).dim  # 10,201 float64s
    peaks = [
        _sweep_peak_bytes(replace(spec, epochs=epochs), tmp_path / str(epochs))
        for epochs in (10, 40)
    ]
    assert (peaks[1] - peaks[0]) / row / 30 <= 0.25


def test_sweep_validation(tmp_path):
    spec = default_spec("quadratic")
    out_dir = tmp_path / "cells"
    with pytest.raises(InvalidConfig):
        sweep(spec, [], [1e-8], out_dir)
    for bad in (2.5, float("nan"), float("inf")):  # 2.5 is not truncated to k=2
        with pytest.raises(InvalidConfig, match="window must be a positive integer"):
            sweep(spec, [4, bad], [1e-8], out_dir)
    # Cells whose metrics files would share a name overwrite each other.
    for windows, lams in (([4, 4], [1e-8]), ([4], [1e-8, 1.0000001e-8])):
        with pytest.raises(InvalidConfig, match="metrics_k4_lam1e-08.csv"):
            sweep(spec, windows, lams, out_dir)
    with pytest.raises(InvalidConfig, match="epochs must be a positive integer"):
        sweep(replace(spec, epochs=0), [4], [1e-8], out_dir)
    with pytest.raises(InvalidConfig, match="does not take parameters"):
        sweep(replace(spec, problem_params={"bogus": 1}), [4], [1e-8], out_dir)
    assert not out_dir.exists()


def test_sweep_cells_are_the_configs_run_reads(tmp_path, monkeypatch):
    # Every rna.* key of the spec reaches each cell, whose window and lambda, numbers
    # or their text, are set as run's --k and --lambda set them.
    class Captured(Exception):
        pass

    def capture(problem, opt_cfg, rna_cfgs, *args):
        raise Captured(rna_cfgs)

    monkeypatch.setattr("rnacc.experiment._stream", capture)
    spec = replace(default_spec("quadratic"), epochs=3, rna=RnaConfig(weight_target="oldest"))
    windows, lams = [2, "4", " 8.0 "], [0, "1e-8", 1e-4]
    with pytest.raises(Captured) as caught:
        sweep(spec, windows, lams, tmp_path / "sw")
    [cfgs] = caught.value.args
    assert cfgs == [
        _override(spec, {"rna.window": w, "rna.lambda": l}).rna for w in windows for l in lams
    ]
    assert cfgs[-1] == RnaConfig(window=8, lam=1e-4, weight_target="oldest")


@pytest.mark.parametrize(
    "key, change",
    [
        ("rna.lambda_grid", {"rna": RnaConfig(lam_grid=(1e-8, 1e-6))}),
        ("checkpoints_out", {"checkpoints_out": "ck.rnac"}),
    ],
)
def test_sweep_rejects_spec_keys_it_does_not_use(tmp_path, monkeypatch, key, change):
    def train(*args, **kwargs):
        raise AssertionError("trained despite a spec key the sweep does not use")

    monkeypatch.setattr("rnacc.experiment._stream", train)
    monkeypatch.chdir(tmp_path)
    spec = replace(default_spec("quadratic"), epochs=3, **change)
    with pytest.raises(InvalidConfig, match=f"^{key}: "):
        sweep(spec, [2], [1e-8], "cells")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["spec_named_summary", "out_dir_inside_input_dir"])
def test_sweep_refuses_an_output_on_an_input(tmp_path, monkeypatch, target):
    def train(*args, **kwargs):
        raise AssertionError("trained despite an output on an input")

    monkeypatch.setattr("rnacc.experiment._stream", train)
    (tmp_path / "data").mkdir()
    spec_path = tmp_path / "data" / "summary.csv"
    spec_path.write_text("epochs = 5\n")
    out_dir, inputs, word = {
        "spec_named_summary": (
            tmp_path / "data", [("the spec file", spec_path)], "summary.csv is the spec file"
        ),
        "out_dir_inside_input_dir": (
            tmp_path / "data" / "cells", [("the data", tmp_path / "data")], "lies inside the data"
        ),
    }[target]
    with pytest.raises(InvalidConfig, match=word):
        sweep(default_spec("quadratic"), [4], [1e-8], out_dir, inputs=inputs)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "summary.csv"]
    assert spec_path.read_text() == "epochs = 5\n"
