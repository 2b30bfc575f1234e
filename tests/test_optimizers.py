"""Descent steps, the epoch loop, and the offline acceleration driver."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from rnacc import (
    DegenerateSum,
    DimensionMismatch,
    InvalidConfig,
    NumericalFailure,
    OptimizerConfig,
    Problem,
    RnaConfig,
    SingularSystem,
    build_residuals,
    gd_step,
    learning_rate,
    make_logistic,
    make_mlp,
    make_quadratic,
    run_with_rna,
    sgd_momentum_epoch,
    write_metrics,
)
from rnacc import core, optimizers
from rnacc.optimizers import _stream

from oracles import diagonal_quadratic


def _scalar_bowl():
    return Problem(
        "half-square", 1, lambda t: 0.5 * float(t[0]) ** 2, lambda t: np.asarray(t, float)
    )


# ------------------------------------------------------------------- steps


def test_gd_step_scalar_contraction():
    theta = gd_step(np.array([1.0]), _scalar_bowl(), eta=0.1)
    np.testing.assert_allclose(theta, [0.9], rtol=0, atol=1e-16)


def test_gd_step_fixed_point_at_optimum():
    p = make_quadratic(7, 20.0, seed=0)
    theta = gd_step(p.optimum, p, eta=1.0 / p.smoothness)
    np.testing.assert_allclose(theta, p.optimum, rtol=0, atol=1e-13)


def test_gd_step_residual_identity_dyadic_exact():
    # Powers of two end to end: theta_next - theta == -eta * grad bitwise.
    mat = np.diag([0.5, 2.0])
    p = Problem("dyadic", 2, lambda t: 0.5 * float(t @ (mat @ t)), lambda t: mat @ t)
    eta = 0.25
    theta = np.array([1.5, -0.75])
    iterates = [theta]
    grads = []
    for _ in range(5):
        grads.append(p.grad(iterates[-1]))
        iterates.append(gd_step(iterates[-1], p, eta))
    residuals = build_residuals(iterates)
    for k, g in enumerate(grads):
        np.testing.assert_array_equal(residuals[:, k], -eta * g)


def test_gd_step_residual_identity_generic():
    p = make_quadratic(6, 12.0, seed=3)
    eta = 1.0 / p.smoothness
    theta = np.random.default_rng(1).standard_normal(6)
    grads, iterates = [], [theta]
    for _ in range(10):
        grads.append(p.grad(iterates[-1]))
        iterates.append(gd_step(iterates[-1], p, eta))
    residuals = build_residuals(iterates)
    for k, g in enumerate(grads):
        np.testing.assert_allclose(residuals[:, k], -eta * g, rtol=0, atol=1e-12)


def test_gd_step_rejects_bad_eta_and_nan_gradient():
    with pytest.raises(InvalidConfig):
        gd_step(np.zeros(1), _scalar_bowl(), eta=0.0)
    broken = Problem("nan", 1, lambda t: 0.0, lambda t: np.array([np.nan]))
    with pytest.raises(NumericalFailure):
        gd_step(np.zeros(1), broken, eta=0.1)


def test_gd_descent_under_stable_step():
    p = make_quadratic(10, 40.0, seed=4)
    theta = np.random.default_rng(2).standard_normal(10)
    eta = 1.9 / p.smoothness  # below the 2/L stability edge
    values = [p.f(theta)]
    for _ in range(50):
        theta = gd_step(theta, p, eta)
        values.append(p.f(theta))
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------- schedule


def test_schedule_tenfold_drops():
    cfg = OptimizerConfig(eta=0.1, schedule=((150, 0.1), (250, 0.1)))
    assert learning_rate(cfg, 1) == 0.1
    assert learning_rate(cfg, 149) == 0.1
    assert learning_rate(cfg, 150) == pytest.approx(0.01, rel=1e-14)
    assert learning_rate(cfg, 249) == pytest.approx(0.01, rel=1e-14)
    assert learning_rate(cfg, 250) == pytest.approx(0.001, rel=1e-14)
    assert learning_rate(cfg, 400) == pytest.approx(0.001, rel=1e-14)


def test_schedule_monotone_piecewise_constant():
    cfg = OptimizerConfig(eta=0.1, schedule=((150, 0.1), (250, 0.1)))
    rates = [learning_rate(cfg, e) for e in range(1, 301)]
    assert all(b <= a for a, b in zip(rates, rates[1:]))
    jumps = {e + 2 for e, (a, b) in enumerate(zip(rates, rates[1:])) if b != a}
    assert jumps == {150, 250}


def test_optimizer_config_validation():
    with pytest.raises(InvalidConfig):
        OptimizerConfig(eta=0.0)
    with pytest.raises(InvalidConfig):
        OptimizerConfig(eta=0.1, momentum=1.0)
    with pytest.raises(InvalidConfig):
        OptimizerConfig(eta=0.1, schedule=((10, 0.1), (10, 0.1)))
    with pytest.raises(InvalidConfig):
        OptimizerConfig(eta=0.1, schedule=((10, -0.1),))
    with pytest.raises(InvalidConfig):
        OptimizerConfig(eta=0.1, batch_size=0)
    with pytest.raises(InvalidConfig):
        OptimizerConfig(eta=0.1, seed=-1)


# ------------------------------------------------------------------ epochs


def test_momentum_free_full_batch_epoch_equals_gd_step():
    p = make_quadratic(5, 10.0, seed=6)
    cfg = OptimizerConfig(eta=0.05, momentum=0.0, weight_decay=0.0)
    theta = np.random.default_rng(3).standard_normal(5)
    stepped = gd_step(theta, p, 0.05)
    swept, velocity = sgd_momentum_epoch(theta, np.zeros(5), p, cfg, epoch=1)
    np.testing.assert_array_equal(swept, stepped)
    np.testing.assert_array_equal(velocity, p.grad(theta))


def test_epoch_shuffling_deterministic_in_seed():
    p = make_logistic(50, 6, l2=1e-3, seed=1)
    cfg = OptimizerConfig(eta=0.5, momentum=0.9, weight_decay=1e-5, batch_size=16, seed=4)
    theta = np.zeros(6)
    a1, v1 = sgd_momentum_epoch(theta, np.zeros(6), p, cfg, epoch=3)
    a2, v2 = sgd_momentum_epoch(theta, np.zeros(6), p, cfg, epoch=3)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(v1, v2)
    b1, _ = sgd_momentum_epoch(theta, np.zeros(6), p, cfg, epoch=4)
    assert not np.array_equal(a1, b1)


def test_epoch_batch_validation():
    p = make_logistic(20, 4, l2=1e-3, seed=2)
    cfg = OptimizerConfig(eta=0.1, batch_size=21)
    with pytest.raises(InvalidConfig, match="exceeds"):
        sgd_momentum_epoch(np.zeros(4), np.zeros(4), p, cfg, 1)
    quad = make_quadratic(4, 5.0, seed=0)
    with pytest.raises(InvalidConfig, match="mini-batch"):
        sgd_momentum_epoch(np.zeros(4), np.zeros(4), quad, OptimizerConfig(eta=0.1, batch_size=2), 1)


def test_divergence_detection():
    p = make_quadratic(3, 10.0, seed=1)
    cfg = OptimizerConfig(eta=5.0, momentum=0.0, weight_decay=0.0)  # way past 2/L
    theta = np.ones(3)
    velocity = np.zeros(3)
    with pytest.raises(NumericalFailure, match="diverged"):
        for epoch in range(1, 200):
            theta, velocity = sgd_momentum_epoch(theta, velocity, p, cfg, epoch)


# ------------------------------------------------------------------ driver


def test_run_with_rna_beats_vanilla_on_quadratic():
    p = make_quadratic(20, 100.0, seed=7)
    cfg = OptimizerConfig(eta=1.0 / p.smoothness, momentum=0.0, weight_decay=0.0)
    vanilla, accel = run_with_rna(p, cfg, RnaConfig(window=10, lam=1e-8), epochs=60)
    f_star = p.f(p.optimum)
    assert accel[-1].objective - f_star < vanilla[-1].objective - f_star
    assert len(vanilla) == len(accel) == 60


def test_run_with_rna_single_epoch_copies_vanilla():
    p = make_quadratic(4, 10.0, seed=2)
    cfg = OptimizerConfig(eta=0.05, momentum=0.0, weight_decay=0.0)
    vanilla, accel = run_with_rna(p, cfg, RnaConfig(window=10, lam=1e-8), epochs=1)
    np.testing.assert_array_equal(vanilla[0].theta, accel[0].theta)
    assert accel[0].objective == vanilla[0].objective
    assert accel[0].lam_used is None


def test_run_with_rna_flat_at_fixed_point():
    p = make_quadratic(5, 10.0, seed=3)
    cfg = OptimizerConfig(eta=0.01, momentum=0.0, weight_decay=0.0)
    vanilla, accel = run_with_rna(
        p, cfg, RnaConfig(window=5, lam=1e-8), epochs=8, theta0=p.optimum
    )
    f_star = p.f(p.optimum)
    for v, a in zip(vanilla, accel):
        assert v.objective == pytest.approx(f_star, abs=1e-12)
        assert a.objective == pytest.approx(f_star, abs=1e-12)


def test_run_with_rna_offline_purity():
    p = make_logistic(60, 8, l2=1e-3, seed=5)
    cfg = OptimizerConfig(eta=1.0, momentum=0.9, weight_decay=1e-5, batch_size=16, seed=0)
    with_accel, _ = run_with_rna(p, cfg, RnaConfig(window=5, lam=1e-8), epochs=12)
    without, empty = run_with_rna(p, cfg, None, epochs=12)
    assert empty == []
    for a, b in zip(with_accel, without):
        np.testing.assert_array_equal(a.theta, b.theta)
        assert a.objective == b.objective and a.grad_norm == b.grad_norm


def test_run_with_rna_adaptive_never_worse_than_iterate():
    p = make_mlp(6, 5, 60, seed=1)
    cfg = OptimizerConfig(eta=0.2, momentum=0.9, weight_decay=1e-5, batch_size=20, seed=2)
    rna_cfg = RnaConfig(window=5, lam_grid=(1e-10, 1e-6, 1e-2))
    vanilla, accel = run_with_rna(p, cfg, rna_cfg, epochs=25)
    for v, a in zip(vanilla, accel):
        assert a.objective <= v.objective


def test_run_with_rna_grid_evaluates_f_once_per_ridge():
    # With a grid each extrapolated epoch evaluates f at its 6 ranked points and
    # nowhere else: the fallback's score is the epoch's recorded objective, and the
    # winner's objective is its ranking score. Training takes one f per epoch, and
    # epoch 1, with no window yet, none more: its stand-in is the recorded iterate.
    # Objectives are counted through f and value_and_grad alike.
    p = make_logistic(100, 10, 1e-3, seed=2)
    f, value_and_grad, calls = p.f, p.value_and_grad, []
    p.f = lambda theta: calls.append(1) or f(theta)
    p.value_and_grad = lambda theta: calls.append(1) or value_and_grad(theta)
    cfg = OptimizerConfig(eta=2.0, momentum=0.0, weight_decay=0.0)
    rna_cfg = RnaConfig(window=5, lam_grid=(1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2))
    run_with_rna(p, cfg, rna_cfg, epochs=20)
    assert len(calls) == 20 + 6 * 19


def test_run_with_rna_records_the_ridge_that_entered_the_solve():
    # A grid entry below the floor 10 * eps * trace(G) is solved at the floor,
    # and the record says so, as it does without a grid.
    p = make_quadratic(8, 10.0, seed=6)
    cfg = OptimizerConfig(eta=1.0 / p.smoothness, momentum=0.0, weight_decay=0.0)
    vanilla, accel = run_with_rna(p, cfg, RnaConfig(window=5, lam_grid=(1e-30,)), epochs=20)
    extrapolated = 0
    for t, a in enumerate(accel):
        if a.lam_used is None:
            continue
        window = np.vstack([v.theta for v in vanilla[max(0, t - 5) : t + 1]])
        gram = core._gram(core._differenced(window)[:-1])
        assert a.lam_used == 10.0 * np.finfo(np.float64).eps * float(np.trace(gram))
        extrapolated += 1
    assert extrapolated >= 10


@pytest.mark.parametrize("target", ["latest", "oldest"])
def test_run_with_rna_grid_epochs_equal_adaptive_rna(target):
    # Each epoch of a grid run is adaptive_rna on its window, ranked by f: the same
    # point bit for bit, its objective, and the ridge that entered the winner's solve.
    # 1e-30 is below the floor, and on this trajectory the last iterate wins some epochs.
    p = make_mlp(6, 5, 60, seed=1)
    cfg = OptimizerConfig(eta=0.2, momentum=0.9, weight_decay=1e-5, batch_size=20, seed=2)
    rna_cfg = RnaConfig(window=4, lam_grid=(1e-30, 1e-8, 1e-2), weight_target=target)
    vanilla, accel = run_with_rna(p, cfg, rna_cfg, epochs=20)
    assert accel[0].theta.tobytes() == vanilla[0].theta.tobytes()
    assert accel[0].lam_used is None
    ridges = []
    for t in range(1, len(vanilla)):
        window = [v.theta for v in vanilla[max(0, t - 4) : t + 1]]
        theta_hat, _, coeffs = core.adaptive_rna(window, rna_cfg, p.f)
        a = accel[t]
        assert a.theta.tobytes() == theta_hat.tobytes(), t
        assert a.objective == p.f(theta_hat)
        assert a.lam_used == (None if coeffs is None else coeffs.lam_used)
        ridges.append(a.lam_used)
    assert None in ridges  # the last iterate won an epoch
    assert {1e-8, 1e-2} <= set(ridges)
    assert any(r is not None and r not in rna_cfg.lam_grid for r in ridges)  # a floored 1e-30
    # At d = B + 1, B the columns of the core's blocks, each product is formed over two
    # blocks: an epoch is still adaptive_rna on its window, and a winner is rna's point
    # at its ridge.
    wide = diagonal_quadratic(core._BLOCK + 1, 100.0, seed=5)
    gd = OptimizerConfig(eta=1.0 / wide.smoothness, momentum=0.0, weight_decay=0.0)
    wide_cfg = RnaConfig(window=4, lam_grid=(1e-8, 1e-4, 1e-2), weight_target=target)
    vanilla, accel = run_with_rna(wide, gd, wide_cfg, 6, np.ones(wide.dim))
    won = 0
    for t in range(1, len(vanilla)):
        window = [v.theta for v in vanilla[max(0, t - 4) : t + 1]]
        theta_hat, lam_star, coeffs = core.adaptive_rna(window, wide_cfg, wide.f)
        assert accel[t].theta.tobytes() == theta_hat.tobytes(), t
        if coeffs is not None:
            plain, _ = core.rna(window, RnaConfig(window=4, lam=lam_star, weight_target=target))
            assert plain.tobytes() == theta_hat.tobytes(), t
            won += 1
    assert won


def test_run_with_rna_singular_config_raises():
    # Window wider than the dimension makes the Gram singular at lam=0;
    # that is a configuration error and must surface, not fall back.
    p = make_quadratic(3, 10.0, seed=4)
    cfg = OptimizerConfig(eta=0.05, momentum=0.0, weight_decay=0.0)
    with pytest.raises(SingularSystem):
        run_with_rna(p, cfg, RnaConfig(window=8, lam=0.0), epochs=12)


def test_run_with_rna_degenerate_sum_keeps_the_iterate(tmp_path, monkeypatch):
    import rnacc.optimizers as optimizers

    def degenerate_at_epoch_4(diffs, *args):
        if len(diffs) == 4:  # epoch 4 extrapolates from epochs 1..4
            raise DegenerateSum("forced")
        return core._extrapolate(diffs, *args)

    monkeypatch.setattr(optimizers, "_extrapolate", degenerate_at_epoch_4)
    p = make_quadratic(5, 10.0, seed=3)
    cfg = OptimizerConfig(eta=0.05, momentum=0.0, weight_decay=0.0)
    vanilla, accel = run_with_rna(p, cfg, RnaConfig(window=10, lam=1e-8), epochs=6)
    v, a = vanilla[3], accel[3]
    np.testing.assert_array_equal(a.theta, v.theta)
    assert a.epoch == 4 and a.objective == v.objective and a.lam_used is None
    assert accel[2].lam_used == accel[4].lam_used == 1e-8  # its neighbours extrapolate
    write_metrics(tmp_path / "m.csv", vanilla, accel)
    row = (tmp_path / "m.csv").read_text().splitlines()[4].split(",")
    assert row[0] == "4" and row[3] == row[1] and row[5] == ""


@pytest.mark.parametrize("case", ["epoch 1", "after a flush", "DegenerateSum", "grid fallback"])
def test_a_kept_iterate_stands_in_without_an_oracle_call(case, monkeypatch):
    # Where the accelerated point is the iterate itself, its record is a copy of the
    # iterate's theta with the objective and gradient norm of the epoch's one
    # evaluation: no oracle sees the iterate again. The grid keeps the iterate on
    # epochs 1 to 6 and 9 of this run; the drop at epoch 5 flushes only if asked to.
    p = make_mlp(6, 5, 60, seed=1)
    cfg = OptimizerConfig(
        eta=0.2, momentum=0.9, weight_decay=1e-5, batch_size=20, seed=2, schedule=((5, 0.1),)
    )
    rna_cfg = RnaConfig(window=4, lam_grid=(1e-30, 1e-8, 1e-2))
    if case != "grid fallback":
        rna_cfg = RnaConfig(window=4, lam=1e-8)
    epoch = {"epoch 1": 1, "after a flush": 5, "DegenerateSum": 4, "grid fallback": 4}[case]
    if case == "DegenerateSum":
        def degenerate(diffs, *args):
            if len(diffs) == 4:  # epoch 4 extrapolates from epochs 1..4
                raise DegenerateSum("forced")
            return core._extrapolate(diffs, *args)

        monkeypatch.setattr(optimizers, "_extrapolate", degenerate)
    calls = []
    for name in ("f", "grad", "value_and_grad"):
        oracle = getattr(p, name)
        setattr(p, name, lambda t, n=name, o=oracle: calls.append((n, t.tobytes())) or o(t))
    stream = _stream(p, cfg, [rna_cfg], 8, flush_on_drop=case == "after a flush")
    for record, (entry,) in stream:
        if record.epoch == epoch:
            break
        calls.clear()
    assert entry.theta.tobytes() == record.theta.tobytes()
    assert (entry.epoch, entry.objective, entry.grad_norm, entry.lam_used) == (
        epoch, record.objective, record.grad_norm, None
    )
    assert not np.shares_memory(entry.theta, record.theta)
    assert [n for n, t in calls if t == record.theta.tobytes()] == ["value_and_grad"]


def test_run_with_rna_flush_on_drop_restarts_window():
    p = make_quadratic(6, 30.0, seed=5)
    cfg = OptimizerConfig(
        eta=1.0 / p.smoothness, momentum=0.0, weight_decay=0.0, schedule=((5, 0.1),)
    )
    _, accel = run_with_rna(
        p, cfg, RnaConfig(window=4, lam=1e-8), epochs=8, flush_on_drop=True
    )
    by_epoch = {a.epoch: a for a in accel}
    assert by_epoch[4].lam_used is not None  # window filled before the drop
    assert by_epoch[5].lam_used is None  # flushed at the drop
    assert by_epoch[6].lam_used is not None  # refilling again


def test_run_with_rna_rejects_a_nonfinite_theta0():
    # Named before the first epoch: with a zero gradient only the step's norm test would
    # catch it otherwise.
    flat = Problem("flat", 3, lambda t: float(np.sum(t)), lambda t: np.zeros(3))
    cfg = OptimizerConfig(eta=0.1, momentum=0.0, weight_decay=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericalFailure, match="theta0"):
            run_with_rna(flat, cfg, None, epochs=3, theta0=[bad, 0.0, 0.0])


def _writes_nan(theta):
    theta[0] = np.nan
    return np.ones(5)


@pytest.mark.parametrize(
    "shape", [(3,), (5, 1), (), "writes NaN into theta"],
    ids=["shape-3", "shape-5x1", "shape-scalar", "writes-nan"],
)
def test_a_bad_gradient_oracle_raises_at_the_step(shape):
    # On a d = 5 problem, a gradient not shaped like theta raises DimensionMismatch
    # (shape () would broadcast), and an oracle that writes NaN into theta
    # NumericalFailure, at the step that calls it: the driver raises it from the
    # generator at epoch 1 and never stores it as a config's window error.
    if shape == "writes NaN into theta":
        oracle, error, text = _writes_nan, NumericalFailure, "NaN"
    else:
        oracle, error = (lambda t: np.ones(shape)), DimensionMismatch
        text = f"gradient has shape {shape}, theta has shape (5,)"
    p = Problem(
        "bad-oracle", 5, lambda t: 0.5 * float(np.sum(t * t)), oracle,
        n_samples=4, batch_grad=lambda t, idx: oracle(t),
    )
    full = OptimizerConfig(eta=0.1)
    configs = [RnaConfig(window=1), RnaConfig(window=2, lam=0.0)]
    steps = {
        "gd_step": lambda: gd_step(np.ones(5), p, 0.1),
        "full batch": lambda: sgd_momentum_epoch(np.ones(5), np.zeros(5), p, full, 1),
        "batch_grad": lambda: sgd_momentum_epoch(
            np.ones(5), np.zeros(5), p, replace(full, batch_size=2), 1
        ),
        "run, no acceleration": lambda: run_with_rna(p, full, None, epochs=3),
        "run, accelerated": lambda: run_with_rna(p, full, configs[1], epochs=3),
        "stream, two configs": lambda: next(_stream(p, full, configs, 3)),
    }
    for name, step in steps.items():
        with pytest.raises(error, match=re.escape(text)):
            step()
            pytest.fail(f"{name} raised nothing")


def test_a_metric_gradient_not_shaped_like_theta_raises():
    # Mini-batch training never calls the full gradient, so only the recorded grad_norm
    # sees it: shape (3,) on a d = 5 problem raises there, where it was recorded as the
    # norm sqrt(3). The vanilla record calls grad; with value_and_grad a grid's
    # extrapolated point still calls it, since its objective is known, and a kept
    # iterate calls nothing. Grid (1e-8,) keeps the iterate on every epoch of this run
    # (checked to 60 epochs); grid (1.0,) picks its ridge at epoch 3.
    text = "gradient has shape (3,), theta has shape (5,)"
    cfg = OptimizerConfig(eta=0.1, batch_size=2)
    p = Problem(
        "bad-metric", 5, lambda t: 0.5 * float(t @ t), lambda t: np.ones(3),
        n_samples=4, batch_grad=lambda t, idx: t,
    )
    for rna_cfg in (None, RnaConfig(window=2)):
        with pytest.raises(DimensionMismatch, match=re.escape(text)):
            run_with_rna(p, cfg, rna_cfg, epochs=3, theta0=np.ones(5))
    p.value_and_grad = lambda t: (p.f(t), t.copy())
    grad, calls = p.grad, []
    p.grad = lambda t: calls.append(1) or grad(t)
    run_with_rna(p, cfg, RnaConfig(window=2), epochs=3, theta0=np.ones(5))
    kept = RnaConfig(window=2, lam_grid=(1e-8,))
    _, accel = run_with_rna(p, cfg, kept, epochs=3, theta0=np.ones(5))
    assert [a.lam_used for a in accel] == [None] * 3 and calls == []
    with pytest.raises(DimensionMismatch, match=re.escape(text)):
        run_with_rna(p, cfg, RnaConfig(window=2, lam_grid=(1.0,)), epochs=3, theta0=np.ones(5))


def test_a_metric_that_is_not_finite_is_recorded():
    # Only a step's gradient must be finite: an objective or full gradient that
    # overflows at the recorded points is recorded as it is.
    p = Problem(
        "inf-metric", 3, lambda t: math.inf, lambda t: np.array([np.inf, 0.0, np.nan]),
        n_samples=4, batch_grad=lambda t, idx: t,
    )
    cfg = OptimizerConfig(eta=0.1, batch_size=2)
    vanilla, accel = run_with_rna(p, cfg, RnaConfig(window=2), epochs=4, theta0=np.ones(3))
    for r in vanilla + accel:
        assert r.objective == math.inf and math.isnan(r.grad_norm)


def _record_bytes(records) -> list:
    return [
        (r.theta.tobytes(), repr(r.objective), repr(r.grad_norm), getattr(r, "lam_used", None))
        for r in records
    ]


@pytest.mark.parametrize("which", ["quadratic", "logistic", "mlp"])
def test_records_do_not_depend_on_value_and_grad(which):
    # The same problem with and without value_and_grad trains, extrapolates and
    # records the same bits, plain, with a grid and in a stream of several configs,
    # and with a drop that flushes the window, so the stand-in after it is compared too.
    make = {
        "quadratic": lambda: (make_quadratic(10, 40.0, seed=3), OptimizerConfig(eta=0.02)),
        "logistic": lambda: (
            make_logistic(80, 10, 1e-3, seed=3), OptimizerConfig(eta=1.0, batch_size=20)
        ),
        "mlp": lambda: (make_mlp(4, 3, 30, seed=3), OptimizerConfig(eta=0.2, batch_size=10)),
    }[which]
    configs = [
        RnaConfig(window=3, lam=1e-8),
        RnaConfig(window=5, lam=0.0, weight_target="oldest"),
        RnaConfig(window=4, lam_grid=(1e-10, 1e-6, 1e-2)),
    ]
    for flush in (False, True):
        runs = []
        for fused in (True, False):
            p, cfg = make()
            if not fused:
                p.value_and_grad = None
            if flush:
                cfg = replace(cfg, schedule=((6, 0.1),))
            records = []
            for record, entries in _stream(p, cfg, configs, 12, flush_on_drop=flush):
                records.append(record)
                records += [e for e in entries if e is not None and not isinstance(e, Exception)]
            runs.append(_record_bytes(records))
        assert len(runs[0]) >= 12 + 2 * 11  # the plain and the grid configs record every epoch
        assert runs[0] == runs[1]
    flushed = [r for r in records if r.epoch == 6][1:]  # the stand-ins after the drop
    assert len(flushed) >= 2 and {r.lam_used for r in flushed} == {None}


def test_run_with_rna_epoch_validation():
    p = make_quadratic(2, 5.0, seed=0)
    cfg = OptimizerConfig(eta=0.1)
    with pytest.raises(InvalidConfig):
        run_with_rna(p, cfg, None, epochs=0)
    with pytest.raises(InvalidConfig):
        run_with_rna(p, cfg, None, epochs=3, theta0=np.zeros(5))


def test_a_windows_plain_and_grid_ridges_are_one_stack(monkeypatch):
    # Configs that share a window solve every ridge they need, plain lams and grid ridges
    # alike, in one _solve call per epoch, a shared ridge once; each config records the
    # bits of its own run.
    p = make_logistic(80, 10, 1e-3, seed=4)
    cfg = OptimizerConfig(eta=1.0, batch_size=20, seed=1)
    configs = [
        RnaConfig(window=4, lam=1e-8),
        RnaConfig(window=4, lam_grid=(1e-10, 1e-8, 1e-6)),
        RnaConfig(window=4, lam=0.0, weight_target="oldest"),
    ]
    alone = [run_with_rna(p, cfg, rna_cfg, epochs=10)[1] for rna_cfg in configs]
    stacks, solve = [], core._solve

    def counted(gram, lams):
        stacks.append(sorted(lams))
        return solve(gram, lams)

    monkeypatch.setattr(optimizers, "_solve", counted)
    streamed = [entries for _, entries in _stream(p, cfg, configs, 10)]
    assert stacks == [[0.0, 1e-10, 1e-8, 1e-6]] * 9
    for i, records in enumerate(alone):
        assert _record_bytes([entries[i] for entries in streamed]) == _record_bytes(records)
