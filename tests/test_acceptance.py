"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines. C02 checks exact recovery of a quadratic's minimizer on a
well-conditioned instance (kappa=4), where the unit-sum weights that
cancel every mode stay representable under the trace-scaled ridge; it
also proves, with the eigendecomposition oracle, that its target is
attainable there. Its companion keeps the kappa=100 instance, where
those weights would need magnitude ~1e20 or more, so the ridge caps the
recovery at a rel err of 0.139; there it checks that ``rna`` lands
exactly where the oracle's exact arithmetic does.
"""

import io
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rnacc import (
    FormatError,
    InvalidConfig,
    OptimizerConfig,
    RnaConfig,
    RnaError,
    WindowTooSmall,
    accelerate_checkpoints,
    make_logistic,
    make_mlp,
    make_quadratic,
    normalize,
    read_checkpoints,
    rna,
    run_with_rna,
    solve_regularized,
    write_checkpoints,
)
from rnacc.checkpoint import _DTYPES, _HEADER, _WIDTHS, MAGIC, VERSION
from rnacc.cli import build_parser, main
from rnacc.optimizers import learning_rate

from conftest import unit_sum_gap
from oracles import eig_coefficients, eig_ridge_solve, gd_trajectory


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"\n[{cid}] {'PASS' if ok else 'FAIL'} {detail}")


# --------------------------------------------------------------------- C01


def test_c01_solver_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(20250810)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(5, 201))
        k = int(rng.integers(2, 16))
        lam = 10.0 ** rng.uniform(-10.0, 0.0)
        residuals = rng.standard_normal((d, k))
        z = solve_regularized(residuals, lam)
        z_ref = eig_ridge_solve(residuals, lam)
        worst = max(worst, np.linalg.norm(z - z_ref) / np.linalg.norm(z_ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed <= 30.0
    _report(
        "C01",
        ok,
        f"solver-oracle-equivalence: worst rel err {worst:.3e} (tol 1e-8), "
        f"{elapsed:.1f}s (limit 30s) over 1000 instances",
    )
    assert worst <= 1e-8
    assert elapsed <= 30.0


# --------------------------------------------------------------------- C02


def _c02_window(kappa: float):
    """GD run of the C02 family: d=20, 25 steps at eta=1/L, K=21.

    Returns (problem, trajectory, residuals of the last K+1 iterates,
    trace-scaled ridge 1e-14 * trace(R'R)).
    """
    problem = make_quadratic(20, kappa, seed=7)
    theta0 = np.random.default_rng(20250810).standard_normal(20)
    traj = gd_trajectory(problem, theta0, 1.0 / problem.smoothness, 25)
    residuals = np.diff(traj[-22:], axis=0).T  # K = 21
    lam = 1e-14 * float(np.trace(residuals.T @ residuals))
    return problem, traj, residuals, lam


def _rel_err(theta, problem, traj) -> float:
    theta_star = problem.optimum
    return float(
        np.linalg.norm(theta - theta_star) / np.linalg.norm(traj[0] - theta_star)
    )


def test_c02_quadratic_exact_recovery():
    t0 = time.perf_counter()
    problem, traj, residuals, lam = _c02_window(4.0)
    theta_hat, _ = rna(traj, RnaConfig(window=21, lam=lam))
    elapsed = time.perf_counter() - t0
    rel = _rel_err(theta_hat, problem, traj)
    # The target is attainable: the oracle's weights (a 30-digit
    # eigendecomposition solve) on the same window and ridge reach it. With kappa=4 the weights that cancel all
    # 20 modes stay below 5 in magnitude, so the vanishing ridge does not
    # suppress them (at kappa=100 they would be ~1e20; see the companion).
    oracle = eig_coefficients(residuals, lam) @ traj[-21:]
    rel_oracle = _rel_err(oracle, problem, traj)
    # Extrapolation is what reaches it: the last iterate is far off.
    rel_last = _rel_err(traj[-1], problem, traj)
    tol = 1e-6
    ok = rel <= tol and rel_oracle <= tol and rel_last >= 100 * tol and elapsed <= 1.0
    _report(
        "C02",
        ok,
        f"quadratic-exact-recovery: rel err {rel:.3e} (tol 1e-6), oracle "
        f"{rel_oracle:.3e}, last iterate {rel_last:.3e} (>= 100x tol), "
        f"{elapsed:.2f}s (limit 1s)",
    )
    assert elapsed <= 1.0
    assert rel_oracle <= tol, f"oracle reaches only {rel_oracle:.3e}; target not attainable"
    assert rel_last >= 100 * tol, f"last iterate already at {rel_last:.3e}"
    assert rel <= tol, (
        f"rna reaches {rel:.3e} where the eigendecomposition oracle reaches "
        f"{rel_oracle:.3e} (tol 1e-6)"
    )


def test_c02_ill_conditioned_instance_matches_exact_arithmetic():
    # kappa=100: the weights that cancel every mode would be ~1e20 or
    # more, so at this ridge even exact arithmetic stops at rel err 0.139
    # (a 60-digit replay of the whole run agrees).
    # What the method does promise here is the ridge solution itself.
    problem, traj, residuals, lam = _c02_window(100.0)
    theta_hat, coeffs = rna(traj, RnaConfig(window=21, lam=lam))
    c_ref = eig_coefficients(residuals, lam)
    coeff_dev = float(np.linalg.norm(coeffs.weights - c_ref) / np.linalg.norm(c_ref))
    rel = _rel_err(theta_hat, problem, traj)
    rel_oracle = _rel_err(c_ref @ traj[-21:], problem, traj)
    rel_gap = abs(rel - rel_oracle) / rel_oracle
    ok = coeff_dev <= 1e-8 and rel_gap <= 1e-6
    _report(
        "C02",
        ok,
        f"ill-conditioned (kappa=100) instance: coefficient dev {coeff_dev:.2e} "
        f"(tol 1e-8), rel err {rel:.6e} vs oracle {rel_oracle:.6e} "
        f"(gap {rel_gap:.2e}, tol 1e-6)",
    )
    assert coeff_dev <= 1e-8
    assert rel_gap <= 1e-6


# --------------------------------------------------------------------- C03


def test_c03_logistic_acceleration():
    t0 = time.perf_counter()
    problem = make_logistic(500, 50, l2=1e-3, seed=3)
    f_star = problem.f(problem.optimum)
    cfg = OptimizerConfig(
        eta=1.0 / problem.smoothness, momentum=0.0, weight_decay=0.0, seed=0
    )
    vanilla, accel = run_with_rna(problem, cfg, RnaConfig(window=10, lam=1e-8), 300)
    ratio = (accel[-1].objective - f_star) / (vanilla[-1].objective - f_star)
    late = [(v, a) for v, a in zip(vanilla, accel) if v.epoch > 10]
    win_rate = np.mean([a.objective <= v.objective for v, a in late])
    elapsed = time.perf_counter() - t0
    ok = ratio <= 0.5 and win_rate >= 0.9 and elapsed <= 60.0
    _report(
        "C03",
        ok,
        f"logistic-acceleration: final suboptimality ratio {ratio:.4f} "
        f"(tol 0.5), win rate after epoch 10 {win_rate:.3f} (tol 0.9), "
        f"{elapsed:.1f}s (limit 60s)",
    )
    assert ratio <= 0.5
    assert ratio <= 0.2  # tightened bound, frozen after the reference run
    assert win_rate >= 0.9
    assert elapsed <= 60.0


# --------------------------------------------------------------------- C04


def _representative_rna_calls():
    """(sequence, config) pairs mirroring how the suite calls rna."""
    rng = np.random.default_rng(404)
    cases = []
    for m, d in ((2, 3), (5, 8), (11, 40), (16, 6)):
        seq = rng.standard_normal((m, d))
        for lam in (1e-10, 1e-8, 1e-2):
            cases.append((seq, RnaConfig(window=m - 1, lam=lam)))
    quad = make_quadratic(12, 80.0, seed=2)
    traj = gd_trajectory(
        quad, rng.standard_normal(12), 1.0 / quad.smoothness, 30
    )
    cases.append((traj, RnaConfig(window=10, lam=1e-8)))
    logit = make_logistic(80, 12, l2=1e-3, seed=1)
    traj = gd_trajectory(logit, np.zeros(12), 1.0 / logit.smoothness, 40)
    cases.append((traj, RnaConfig(window=10, lam=1e-8)))
    cases.append((np.tile(rng.standard_normal(5), (4, 1)), RnaConfig(window=3, lam=1e-6)))
    return cases


def test_c04_coefficient_invariant_suite():
    worst_sum = 0.0
    for seq, cfg in _representative_rna_calls():
        _, coeffs = rna(seq, cfg)
        worst_sum = max(worst_sum, unit_sum_gap(coeffs))

    # Large-ridge limit: plain averaging, verified against the oracle.
    rng = np.random.default_rng(640)
    worst_avg = worst_oracle = 0.0
    for m, d in ((9, 30), (12, 7)):
        seq = rng.standard_normal((m, d))
        residuals = np.diff(seq, axis=0).T
        lam = 1e12 * float(np.trace(residuals.T @ residuals))
        _, coeffs = rna(seq, RnaConfig(window=m - 1, lam=lam))
        k = len(coeffs.weights)
        worst_avg = max(worst_avg, np.abs(coeffs.weights - 1.0 / k).max())
        worst_oracle = max(
            worst_oracle,
            np.abs(coeffs.weights - eig_coefficients(residuals, lam)).max(),
        )

    # Scale equivariance: c(s R, s^2 lam) == c(R, lam).
    worst_scale = 0.0
    for trial in range(10):
        d, k = 40 + 5 * trial, 3 + trial
        residuals = np.random.default_rng(trial).standard_normal((d, k))
        lam = 1e-8 * float(np.trace(residuals.T @ residuals))
        base = normalize(solve_regularized(residuals, lam)).weights
        for s in (1e-3, 1.0, 1e3):
            c = normalize(solve_regularized(s * residuals, s * s * lam)).weights
            worst_scale = max(worst_scale, np.abs(c - base).max())

    ok = worst_sum <= 1e-12 and worst_avg <= 1e-6 and worst_scale <= 1e-10
    _report(
        "C04",
        ok,
        f"coefficient-invariants: unit-sum gap {worst_sum:.2e} (tol 1e-12), "
        f"large-ridge averaging dev {worst_avg:.2e} (tol 1e-6, oracle dev "
        f"{worst_oracle:.2e}), scale-equivariance dev {worst_scale:.2e} (tol 1e-10)",
    )
    assert worst_sum <= 1e-12
    assert worst_avg <= 1e-6
    assert worst_oracle <= 1e-10
    assert worst_scale <= 1e-10


# --------------------------------------------------------------------- C05


def test_c05_gradient_linearization_exact_on_quadratics():
    problem = make_quadratic(20, 100.0, seed=11)
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 13))
        thetas = rng.standard_normal((k, 20))
        c = rng.standard_normal(k)
        c = c - c.mean() + 1.0 / k  # exact-ish unit sum, moderate norm
        lhs = problem.grad(c @ thetas)
        rhs = c @ np.array([problem.grad(t) for t in thetas])
        worst = max(worst, np.abs(lhs - rhs).max())
    ok = worst <= 1e-10
    _report(
        "C05",
        ok,
        f"gradient-linearization-exactness: worst abs dev {worst:.2e} (tol 1e-10) "
        f"over 100 unit-sum combinations",
    )
    assert worst <= 1e-10


# --------------------------------------------------------------------- C06


def test_c06_gradient_oracles_pass_finite_difference_checks():
    from rnacc import finite_difference_gradient

    problems = [
        make_quadratic(20, 100.0, seed=7),
        make_logistic(500, 50, l2=1e-3, seed=3),
        make_mlp(10, 8, 200, seed=0),
    ]
    rng = np.random.default_rng(606)
    worst = 0.0
    for problem in problems:
        for _ in range(20):
            theta = rng.standard_normal(problem.dim)
            g = problem.grad(theta)
            fd = finite_difference_gradient(problem.f, theta, step=1e-6)
            worst = max(worst, np.linalg.norm(g - fd) / np.linalg.norm(g))
    ok = worst <= 1e-5
    _report(
        "C06",
        ok,
        f"gradient-oracle-validity: worst FD rel err {worst:.2e} (tol 1e-5) "
        f"across {len(problems)} problems x 20 points",
    )
    assert worst <= 1e-5


# --------------------------------------------------------------------- C07


def test_c07_offline_purity():
    configurations = [
        (
            make_quadratic(15, 60.0, seed=1),
            OptimizerConfig(eta=1.0 / 60.0, momentum=0.0, weight_decay=0.0),
            RnaConfig(window=10, lam=1e-8),
            25,
            False,
        ),
        (
            make_logistic(120, 10, l2=1e-3, seed=2),
            OptimizerConfig(
                eta=1.0, momentum=0.9, weight_decay=1e-5, batch_size=32,
                seed=3, schedule=((10, 0.1),),
            ),
            RnaConfig(window=5, lam=1e-8),
            20,
            True,
        ),
        (
            make_mlp(6, 5, 80, seed=4),
            OptimizerConfig(eta=0.2, momentum=0.9, weight_decay=1e-5, batch_size=16, seed=5),
            RnaConfig(window=8, lam_grid=(1e-10, 1e-6)),
            15,
            False,
        ),
    ]
    for problem, opt_cfg, rna_cfg, epochs, flush in configurations:
        with_accel, _ = run_with_rna(
            problem, opt_cfg, rna_cfg, epochs, flush_on_drop=flush
        )
        without, _ = run_with_rna(problem, opt_cfg, None, epochs, flush_on_drop=flush)
        for a, b in zip(with_accel, without):
            assert np.array_equal(a.theta, b.theta)
            assert a.objective == b.objective
            assert a.grad_norm == b.grad_norm
            assert a.eta == b.eta
    _report(
        "C07",
        True,
        f"offline-purity: vanilla traces bit-identical with acceleration on/off "
        f"across {len(configurations)} configurations",
    )


# --------------------------------------------------------------------- C08


def test_c08_nonconvex_adaptive_guard():
    t0 = time.perf_counter()
    violations = 0
    epochs_checked = 0
    for seed in range(5):
        problem = make_mlp(10, 8, 200, seed=seed)
        opt_cfg = OptimizerConfig(
            eta=0.2, momentum=0.9, weight_decay=1e-5, batch_size=32, seed=seed
        )
        rna_cfg = RnaConfig(window=10, lam_grid=(1e-12, 1e-8, 1e-4))
        vanilla, accel = run_with_rna(problem, opt_cfg, rna_cfg, epochs=100)
        for v, a in zip(vanilla, accel):
            epochs_checked += 1
            if a.objective > v.objective:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed <= 120.0
    _report(
        "C08",
        ok,
        f"nonconvex-adaptive-guard: {violations} violations over "
        f"{epochs_checked} epochs (5 seeds x 100), {elapsed:.1f}s (limit 120s)",
    )
    assert violations == 0
    assert elapsed <= 120.0


# --------------------------------------------------------------------- C09


def _best_rna_seconds(dims, reps: int = 9) -> list[float]:
    """Fastest of ``reps`` timed ``rna`` calls per dimension.

    The dimensions take turns within each repeat, so a burst of host load
    hits both sides alike, and the minimum discards the calls it slowed.
    """
    cfg = RnaConfig(window=10, lam=1e-8)
    seqs = [np.random.default_rng(909).standard_normal((11, dim)) for dim in dims]
    best = [float("inf")] * len(seqs)
    for seq in seqs:
        rna(seq, cfg)  # warm up
    for _ in range(reps):
        for i, seq in enumerate(seqs):
            t0 = time.perf_counter()
            rna(seq, cfg)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def test_c09_cost_scales_linearly_in_dimension():
    t_small, t_big = _best_rna_seconds((100_000, 200_000))
    factor = t_big / t_small
    ok = factor <= 3.0
    _report(
        "C09",
        ok,
        f"complexity-scaling: K=10, d 1e5 -> 2e5 wall time factor {factor:.2f} "
        f"(tol 3.0; {t_small * 1e3:.1f}ms -> {t_big * 1e3:.1f}ms)",
    )
    assert factor <= 3.0


# --------------------------------------------------------------------- C10


def test_c10_default_parameters_and_schedule():
    args = build_parser().parse_args(["accelerate", "x", "--out", "y"])
    cfg = RnaConfig()
    sched = OptimizerConfig(eta=0.1, schedule=((150, 0.1), (250, 0.1)))
    drops_ok = (
        learning_rate(sched, 149) == 0.1
        and learning_rate(sched, 150) == pytest.approx(0.01, rel=1e-14)
        and learning_rate(sched, 249) == pytest.approx(0.01, rel=1e-14)
        and learning_rate(sched, 250) == pytest.approx(0.001, rel=1e-14)
    )
    ok = args.k == 10 and args.lam == 1e-8 and cfg.window == 10 and cfg.lam == 1e-8 and drops_ok
    _report(
        "C10",
        ok,
        f"default-parameters: CLI k={args.k}, lambda={args.lam:g}; library "
        f"window={cfg.window}, lam={cfg.lam:g}; tenfold drops at 150/250 encoded",
    )
    assert args.k == 10 and args.lam == 1e-8
    assert cfg.window == 10 and cfg.lam == 1e-8
    assert drops_ok


# --------------------------------------------------------------------- C11


def test_c11_file_layer_fidelity(tmp_path, capsys):
    mat = np.diag([1.0, 10.0])
    theta = np.array([1.0, 1.0])
    iterates = [theta.copy()]
    for _ in range(20):
        theta = theta - 0.05 * (mat @ theta)
        iterates.append(theta.copy())
    in_memory, _ = rna(iterates, RnaConfig(window=20, lam=1e-14))

    seq_path = tmp_path / "seq.rnac"
    out_path = tmp_path / "accel.rnac"
    write_checkpoints(seq_path, iterates, "f64")
    rc = main(
        ["accelerate", str(seq_path), "--k", "20", "--lambda", "1e-14",
         "--out", str(out_path)]
    )
    capsys.readouterr()
    from_cli = read_checkpoints(out_path)[0]

    bitwise = np.array_equal(from_cli, in_memory)
    near_optimum = float(np.linalg.norm(from_cli)) <= 1e-8  # optimum is 0
    ok = rc == 0 and bitwise and near_optimum
    _report(
        "C11",
        ok,
        f"file-layer-fidelity: CLI output bit-identical to in-memory "
        f"extrapolation ({bitwise}), distance to optimum "
        f"{np.linalg.norm(from_cli):.2e} (tol 1e-8)",
    )
    assert rc == 0
    assert bitwise
    assert near_optimum


_GRID = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)


@st.composite
def _stored_sequences(draw):
    """An iterate matrix, how it is stored, and the accelerate settings to run on it."""
    m, d = draw(st.integers(2, 14)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["trajectory", "noise", "duplicated", "constant"]))
    if kind == "trajectory":
        limit, error, rates = rng.standard_normal((3, d))
        mat = limit + error * (0.5 + 0.499 * np.abs(np.tanh(rates))) ** np.arange(1, m + 1)[:, None]
    else:
        mat = rng.standard_normal((m, d))
        if kind == "duplicated":
            mat = mat[np.sort(rng.integers(0, m, m))]
        elif kind == "constant":
            mat[:] = mat[0]
    mat *= 10.0 ** draw(st.integers(-8, 8))
    precision = draw(st.sampled_from(["f64", "f32"]))
    if precision == "f32":  # both sides see the values the file holds
        mat = mat.astype(np.float32).astype(np.float64)
    if draw(st.sampled_from([False, False, False, True])):  # at most one non-finite row
        mat[draw(st.integers(0, m - 1)), rng.integers(0, d)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    layout = draw(st.sampled_from(["file", "split", "manifest"]))
    cuts = draw(st.sets(st.integers(1, m - 1))) if layout != "file" and m > 2 else set()
    relation = draw(st.sampled_from([-1, 0, 1]))  # K below, at or above m - 1
    window = max(1, m - 1 + relation * draw(st.integers(1, 3)))
    lam = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-2]))
    grid = draw(st.none() | st.sets(st.sampled_from(_GRID), min_size=1).map(sorted).map(tuple))
    scores = None
    if grid is not None:
        scores = rng.standard_normal(m + draw(st.sampled_from([0, 0, 0, 1])))  # now and then miscounted
    return mat, precision, layout, sorted(cuts), rng.permutation(len(cuts) + 1), window, lam, grid, scores


def _write_raw(path, rows, precision) -> None:
    """A checkpoint file as ``write_checkpoints`` lays it out, NaN and infinities included."""
    dtype = _DTYPES[_WIDTHS[precision]]
    header = _HEADER.pack(MAGIC, VERSION, dtype.itemsize, rows.shape[1], rows.shape[0])
    Path(path).write_bytes(header + rows.astype(dtype).tobytes())


def _exit_code(exc: RnaError) -> int:
    if isinstance(exc, (InvalidConfig, WindowTooSmall)):
        return 2
    return 4 if isinstance(exc, FormatError) else 3


def _nan_at(row: int) -> np.ndarray:
    """6 iterates of 2 values that f32 holds exactly, with a NaN in iterate ``row``."""
    mat = 1.0 + 2.0 ** -np.arange(1.0, 7.0)[:, None] * np.array([1.0, 3.0])
    mat[row, 1] = np.nan
    return mat


@settings(max_examples=200)
@given(_stored_sequences())
# A NaN outside the K = 3 window: in a file the tail read never opens, and in the part
# of a file that it skips.
@example((_nan_at(0), "f32", "split", [1, 3], np.arange(3), 3, 1e-8, None, None))
@example((_nan_at(1), "f64", "manifest", [1, 3], np.array([2, 0, 1]), 3, 1e-8, _GRID[:3],
          np.arange(6.0, 0.0, -1.0)))
def test_c11_every_layout_gives_the_in_memory_bits(case):
    # C11 over drawn inputs: one file, a directory of parts or a directory whose
    # manifest pins a shuffled order, f64 or f32, any window and ridge, with or
    # without a scored grid. rnacc accelerate exits as the in-memory call does:
    # on success its file holds write_checkpoints of the in-memory theta_hat,
    # on failure its one error line carries the in-memory message.
    mat, precision, layout, cuts, order, window, lam, grid, scores = case
    try:
        theta, _, _ = accelerate_checkpoints(mat, window, lam, grid, scores)
        want_code, message = 0, None
    except RnaError as exc:
        want_code, message = _exit_code(exc), str(exc)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if layout == "file":
            source = tmp / "seq.rnac"
            _write_raw(source, mat, precision)
        else:
            source = tmp / "parts"
            source.mkdir()
            names = [f"{i:02d}.rnac" for i in (order if layout == "manifest" else range(len(order)))]
            for name, rows in zip(names, np.split(mat, cuts)):
                _write_raw(source / name, rows, precision)
            if layout == "manifest":
                (source / "manifest.txt").write_text("\n".join(names) + "\n")
        out = tmp / "accel.rnac"
        argv = ["accelerate", str(source), "--k", str(window), "--lambda", repr(lam), "--out", str(out)]
        if grid is not None:
            (tmp / "scores.txt").write_text("".join(f"{s!r}\n" for s in scores.tolist()))
            argv += ["--lambda-grid", ",".join(map(repr, grid)), "--scores", str(tmp / "scores.txt")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        assert code == want_code, stderr.getvalue()
        if message is not None:
            assert stderr.getvalue() == f"error: {message}\n"
            assert stdout.getvalue() == "" and not out.exists()
        else:
            write_checkpoints(tmp / "expected.rnac", [theta], "f64")
            assert out.read_bytes() == (tmp / "expected.rnac").read_bytes()
