"""Extrapolation pipeline: spec'd examples, invariants, property tests."""

import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rnacc import (
    Coefficients,
    DegenerateSum,
    DimensionMismatch,
    ExperimentSpec,
    InvalidConfig,
    NumericalFailure,
    OptimizerConfig,
    RnaConfig,
    RnaError,
    SingularSystem,
    SlidingBuffer,
    WeightTarget,
    WindowTooSmall,
    accelerate_checkpoints,
    adaptive_rna,
    as_iterate_matrix,
    build_residuals,
    extrapolate,
    make_logistic,
    make_quadratic,
    normalize,
    rna,
    run_with_rna,
    solve_regularized,
)

from conftest import unit_sum_gap
from oracles import diagonal_quadratic, eig_coefficients, eig_ridge_solve, gd_trajectory


# ---------------------------------------------------------------- residuals


def test_residuals_direct_subtraction():
    r = build_residuals([(0.0, 0.0), (1.0, 2.0), (3.0, 2.0)])
    assert r.shape == (2, 2)
    np.testing.assert_array_equal(r[:, 0], [1.0, 2.0])
    np.testing.assert_array_equal(r[:, 1], [2.0, 0.0])


def test_residuals_constant_sequence_is_zero_column():
    r = build_residuals([(5.0, 5.0), (5.0, 5.0)])
    np.testing.assert_array_equal(r, np.zeros((2, 1)))


def test_residuals_equal_scaled_gradients_on_quadratic():
    # Descent with step eta: each column must be -eta * grad at the
    # iterate it starts from, checked against the analytic gradient.
    mat = np.diag([1.0, 10.0])
    eta = 0.05
    theta = np.array([1.0, 1.0])
    iterates = [theta.copy()]
    grads = []
    for _ in range(20):
        grads.append(mat @ iterates[-1])
        iterates.append(iterates[-1] - eta * grads[-1])
    r = build_residuals(iterates)
    for k, g in enumerate(grads):
        np.testing.assert_allclose(r[:, k], -eta * g, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "scale, dtype",
    [(1e-300, np.float64), (1.0, np.float64), (1e300, np.float64), (1.0, np.float32),
     (1e30, np.float32)],
)
def test_residuals_are_the_bits_of_np_diff(scale, dtype):
    iterates = (np.random.default_rng(5).standard_normal((7, 33)) * scale).astype(dtype)
    expected = np.diff(iterates.astype(np.float64), axis=0).T
    residuals = build_residuals(iterates)
    assert residuals.shape == expected.shape
    assert residuals.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 3, 6])
def test_iterate_check_names_the_first_nonfinite_iterate(bad, row):
    mat = np.arange(28.0).reshape(7, 4)
    mat[row:, 2] = bad  # every iterate from ``row`` on
    with pytest.raises(NumericalFailure, match=f"^iterate {row} of 7 contains"):
        as_iterate_matrix(mat)


def test_iterate_check_passes_finite_rows_whose_sum_overflows():
    mat = np.array([[1e308, 1e308], [-1e308, -1e308], [1.0, 2.0]])
    assert as_iterate_matrix(mat) is mat
    mat[2, 1] = np.nan
    with pytest.raises(NumericalFailure, match="^iterate 2 of 3 contains"):
        as_iterate_matrix(mat)


def test_iterate_check_allocates_no_matrix():
    # No boolean matrix of the iterates: the check's peak stays below a tenth of a row.
    mat = np.random.default_rng(0).standard_normal((12, 50_000))
    tracemalloc.start()
    try:
        as_iterate_matrix(mat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * mat[0].nbytes


def test_residuals_rejects_short_ragged_and_nonfinite():
    with pytest.raises(WindowTooSmall):
        build_residuals([np.ones(3)])
    with pytest.raises(DimensionMismatch):
        build_residuals([np.ones(3), np.ones(4)])
    with pytest.raises(NumericalFailure):
        build_residuals([np.ones(3), np.array([1.0, np.nan, 0.0])])
    with pytest.raises(WindowTooSmall):
        build_residuals([])
    with pytest.raises(WindowTooSmall):
        build_residuals(np.empty((0, 3)))
    with pytest.raises(DimensionMismatch):
        build_residuals(np.empty((3, 0)))


@pytest.mark.parametrize(
    "iterates", [np.arange(4.0), np.ones((3, 2, 2)), np.float64(1.0)], ids=["1d", "3d", "scalar"]
)
def test_an_iterate_array_that_is_not_2d_is_a_dimension_mismatch(iterates):
    shape = re.escape(f"got shape {np.shape(iterates)}")
    for call in (rna, as_iterate_matrix, build_residuals, lambda a: extrapolate(a, [1.0])):
        with pytest.raises(DimensionMismatch, match=shape):
            call(iterates)


# -------------------------------------------------------------------- solve


def test_solve_scalar_system():
    r = np.array([[2.0]])  # ||r||^2 = 4
    np.testing.assert_allclose(solve_regularized(r, 1.0), [0.2], rtol=0, atol=1e-15)


def test_solve_diagonal_system():
    # Orthogonal columns with squared norms 1 and 3, ridge 1.
    r = np.array([[1.0, 0.0], [0.0, np.sqrt(3.0)], [0.0, 0.0]])
    np.testing.assert_allclose(
        solve_regularized(r, 1.0), [0.5, 0.25], rtol=0, atol=1e-15
    )


def test_solve_matches_eigendecomposition_oracle_sample():
    rng = np.random.default_rng(314)
    for _ in range(60):
        d = int(rng.integers(5, 60))
        k = int(rng.integers(2, 13))
        lam = 10.0 ** rng.uniform(-10, 0)
        r = rng.standard_normal((d, k))
        z = solve_regularized(r, lam)
        z_ref = eig_ridge_solve(r, lam)
        assert np.linalg.norm(z - z_ref) <= 1e-10 * np.linalg.norm(z_ref)


def test_solve_duplicated_iterates_need_positive_ridge():
    # A zero residual column at lam=0 makes the Gram singular.
    r = build_residuals([(1.0, 2.0), (1.0, 2.0), (3.0, 1.0)])
    with pytest.raises(SingularSystem, match="lam > 0"):
        solve_regularized(r, 0.0)
    z = solve_regularized(r, 1e-8)
    assert np.isfinite(z).all()


def test_solve_input_validation():
    with pytest.raises(NumericalFailure):
        solve_regularized(np.array([[np.inf, 1.0]]), 1e-8)
    with pytest.raises(InvalidConfig):
        solve_regularized(np.ones((3, 2)), -1e-3)
    with pytest.raises(DimensionMismatch):
        solve_regularized(np.ones(3), 1e-8)
    with pytest.raises(DimensionMismatch, match="no columns"):
        solve_regularized(np.ones((3, 0)), 1e-8)


def test_solve_tries_the_floored_ridge_once(monkeypatch):
    import rnacc.core as core

    tried = []

    def not_positive_definite(a, b):
        tried.append(a[0, 0, 0])  # a stack of one
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(core, "refined_spd_solve", not_positive_definite)
    floor = 10.0 * np.finfo(np.float64).eps * 2.0  # trace(I) = 2
    with pytest.raises(SingularSystem, match=re.escape(f"at lam={floor:g}")):
        solve_regularized(np.eye(2), 1e-20)
    assert tried == [1.0 + floor]  # one try, at the floor


def test_solver_residual_bound_in_operating_regime():
    # Accepted solves satisfy ||(G + lam I) z - 1|| <= 1e-8 sqrt(K)
    # whenever the ridge keeps the conditioning within float64 reach.
    rng = np.random.default_rng(99)
    for _ in range(40):
        d = int(rng.integers(4, 40))
        k = int(rng.integers(2, 12))
        r = rng.standard_normal((d, k))
        gram = r.T @ r
        lam = 1e-8 * np.trace(gram)
        z = solve_regularized(r, lam)
        res = (gram + lam * np.eye(k)) @ z - np.ones(k)
        assert np.linalg.norm(res) <= 1e-8 * math.sqrt(k)


# ---------------------------------------------------------------- normalize


def test_normalize_examples():
    c = normalize([2.0, 2.0])
    np.testing.assert_array_equal(c.weights, [0.5, 0.5])
    c = normalize([3.0, -1.0], lam_used=1e-8)
    np.testing.assert_array_equal(c.weights, [1.5, -0.5])  # affine, not convex
    assert c.lam_used == 1e-8
    np.testing.assert_array_equal(c.raw_solution, [3.0, -1.0])
    with pytest.raises(DegenerateSum, match="increase lam"):
        normalize([1.0, -1.0])


def test_normalize_sum_is_exact_after_correction():
    rng = np.random.default_rng(5)
    for _ in range(200):
        z = rng.standard_normal(int(rng.integers(1, 25))) * 10.0 ** rng.integers(-6, 7)
        try:
            c = normalize(z)
        except DegenerateSum:
            continue
        assert unit_sum_gap(c) <= 2.0 * np.finfo(float).eps * max(
            1.0, np.abs(c.weights).max()
        )


@pytest.mark.parametrize("z", [np.zeros(3), [1e-320, -1e-320, 0.0]], ids=["zeros", "subnormal"])
def test_normalize_zero_sum_is_degenerate(z):
    # The bound 1e-12 * ||z||_1 is 0 for both, and a zero sum must not pass it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSum):
            normalize(z)


def test_normalize_rejects_nonfinite():
    with pytest.raises(NumericalFailure):
        normalize([np.nan, 1.0])
    # Finite entries whose sum, or whose sum of magnitudes, overflows.
    for z in ([1e308, 1e308], [1.5e308, -1e308, 1e308]):
        with pytest.raises(NumericalFailure, match="overflow"):
            normalize(z)
    with pytest.raises(DimensionMismatch):
        normalize([])


# Finite iterates whose differences square past the float64 range.
_OVERFLOWING = np.array([[0.0], [1e200], [0.0]])
# A finite, singular Gram matrix whose ridge floor, 10 * eps * trace, overflows.
_FLOOR_OVERFLOWS = np.array([[0.0], [1e154], [2e154]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "entry",
    [
        lambda: rna(_OVERFLOWING),
        lambda: adaptive_rna(_OVERFLOWING, RnaConfig(lam_grid=(1e-8, 1e-6)), lambda t: 0.0),
        lambda: accelerate_checkpoints(
            _OVERFLOWING, 10, 1e-8, lam_grid=(1e-8, 1e-6), scores=[3.0, 2.0, 1.0]
        ),
        lambda: solve_regularized(np.array([[1e200]]), 1e-8),
        lambda: rna(_FLOOR_OVERFLOWS),
        lambda: rna(np.array([[0.0], [1e154], [0.0]]), RnaConfig(lam=1.7e308)),
        lambda: adaptive_rna(_FLOOR_OVERFLOWS, RnaConfig(lam_grid=(1e-8,)), lambda t: 0.0),
        lambda: solve_regularized(np.array([[1e154, 1e154]]), 1e-8),
        # Only the second system of the stack overflows.
        lambda: adaptive_rna(
            np.array([[0.0], [1.22e154]]), RnaConfig(1, lam_grid=(1e-8, 1e308)), lambda t: 0.0
        ),
    ],
    ids=[
        "rna",
        "adaptive_rna",
        "accelerate_checkpoints",
        "solve_regularized",
        "rna_floored_ridge",
        "rna_huge_ridge",
        "adaptive_rna_floored_ridge",
        "solve_regularized_floored_ridge",
        "adaptive_rna_one_ridge_overflows",
    ],
)
def test_overflowing_gram_is_a_numerical_failure(entry):
    with pytest.raises(NumericalFailure, match="Gram matrix is not finite"):
        entry()


# -------------------------------------------------------------- extrapolate


def test_extrapolate_single_coefficient_returns_latest():
    seq = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
    np.testing.assert_array_equal(extrapolate(seq, [1.0]), [3.0, 4.0])
    np.testing.assert_array_equal(
        extrapolate(seq, [1.0], WeightTarget.OLDEST), [1.0, 2.0]
    )


def test_extrapolate_midpoint():
    seq = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)]
    np.testing.assert_array_equal(extrapolate(seq, [0.5, 0.5]), [1.0, 1.0])


def test_extrapolate_uniform_weights_match_mean():
    rng = np.random.default_rng(3)
    seq = rng.standard_normal((9, 14))
    uniform = np.full(8, 1.0 / 8.0)
    np.testing.assert_allclose(
        extrapolate(seq, uniform), seq[1:].mean(axis=0), rtol=0, atol=1e-14
    )
    np.testing.assert_allclose(
        extrapolate(seq, uniform, "oldest"), seq[:-1].mean(axis=0), rtol=0, atol=1e-14
    )


def test_extrapolate_length_mismatch():
    with pytest.raises(DimensionMismatch):
        extrapolate([(0.0,), (1.0,)], [0.5, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_extrapolate_rejects_nonfinite_weights(bad):
    with pytest.raises(NumericalFailure, match="coefficients"):
        extrapolate(np.eye(3), [bad, 1.0])


# ---------------------------------------------------------------------- rna


def test_rna_recovers_quadratic_optimum_small_case():
    # Two eigenmodes, window >= dimension, vanishing ridge: the affine
    # combination lands on the minimizer to near machine precision.
    mat = np.diag([1.0, 10.0])
    theta = np.array([1.0, 1.0])
    iterates = [theta.copy()]
    for _ in range(20):
        theta = theta - 0.05 * (mat @ theta)
        iterates.append(theta.copy())
    theta_hat, coeffs = rna(iterates, RnaConfig(window=20, lam=1e-14))
    assert np.linalg.norm(theta_hat) <= 1e-8
    assert unit_sum_gap(coeffs) <= 1e-12


def test_rna_two_iterates_forced_identity():
    seq = [np.array([0.0, 1.0]), np.array([2.0, 5.0])]
    for lam in (0.0, 1e-8, 1e3):
        theta_hat, coeffs = rna(seq, RnaConfig(window=1, lam=lam))
        np.testing.assert_array_equal(coeffs.weights, [1.0])
        np.testing.assert_array_equal(theta_hat, seq[1])


def test_rna_large_ridge_degrades_to_plain_averaging():
    rng = np.random.default_rng(21)
    seq = rng.standard_normal((12, 30))
    r = np.diff(seq, axis=0).T
    lam = 1e12 * np.trace(r.T @ r)
    theta_hat, coeffs = rna(seq, RnaConfig(window=11, lam=lam))
    k = len(coeffs.weights)
    assert np.abs(coeffs.weights - 1.0 / k).max() <= 1e-6
    np.testing.assert_allclose(
        coeffs.weights, eig_coefficients(r, lam), rtol=0, atol=1e-10
    )
    np.testing.assert_allclose(theta_hat, seq[1:].mean(axis=0), rtol=0, atol=1e-6)


def test_rna_window_shrinks_to_available_iterates():
    rng = np.random.default_rng(8)
    seq = rng.standard_normal((4, 6))
    theta_big, c_big = rna(seq, RnaConfig(window=50, lam=1e-8))
    theta_all, c_all = rna(seq, RnaConfig(window=3, lam=1e-8))
    np.testing.assert_array_equal(theta_big, theta_all)
    assert len(c_big.weights) == 3


def test_rna_uses_only_last_window_iterates():
    rng = np.random.default_rng(9)
    seq = rng.standard_normal((30, 5))
    theta_tail, c_tail = rna(seq[-7:], RnaConfig(window=6, lam=1e-8))
    theta_full, c_full = rna(seq, RnaConfig(window=6, lam=1e-8))
    np.testing.assert_array_equal(theta_tail, theta_full)
    np.testing.assert_array_equal(c_tail.weights, c_full.weights)


def test_rna_deterministic_bitwise():
    rng = np.random.default_rng(123)
    seq = rng.standard_normal((14, 40))
    cfg = RnaConfig(window=10, lam=1e-8)
    a_theta, a_c = rna(seq, cfg)
    b_theta, b_c = rna(seq, cfg)
    np.testing.assert_array_equal(a_theta, b_theta)
    np.testing.assert_array_equal(a_c.weights, b_c.weights)
    assert a_c.lam_used == b_c.lam_used


def test_rna_residual_norm_optimal_at_zero_ridge():
    # With lam=0 the coefficients minimize ||R c|| over unit-sum c, so no
    # canonical basis vector (i.e. no single residual column) beats them.
    rng = np.random.default_rng(77)
    for _ in range(20):
        seq = rng.standard_normal((7, 40))
        r = np.diff(seq, axis=0).T
        _, coeffs = rna(seq, RnaConfig(window=6, lam=0.0))
        combo = np.linalg.norm(r @ coeffs.weights)
        slack = 1e-9 * np.linalg.norm(r)
        for j in range(r.shape[1]):
            assert combo <= np.linalg.norm(r[:, j]) + slack
        assert combo <= np.linalg.norm(r, axis=0).min() + slack


def test_rna_scale_equivariance_power_of_two_is_bitwise():
    # Powers of two rescale residuals without rounding, so the
    # coefficients must come out bit-identical. At 1e-20 * trace the
    # ridge is floored at 10 * eps * trace, which scales with s^2 too.
    rng = np.random.default_rng(55)
    seq = rng.standard_normal((9, 25))
    r = np.diff(seq, axis=0).T
    for lam in (1e-8 * np.trace(r.T @ r), 1e-20 * np.trace(r.T @ r)):
        base = normalize(solve_regularized(r, lam)).weights
        for s in (2.0**-12, 2.0**9):
            scaled = normalize(solve_regularized(s * r, s * s * lam)).weights
            np.testing.assert_array_equal(base, scaled)


def test_rna_quadratic_exactness_invariant_feasible_spectra():
    # Exact descent iterates, window >= dimension, trace-scaled vanishing
    # ridge: recovery within 1e-6 of the start gap. Holds as long as the
    # required combination weights stay representable (moderate d here;
    # prod(eta * eig_i) in the denominator grows brutally with d).
    cases = ((2, 10.0, 14, 0), (5, 10.0, 12, 11), (6, 10.0, 16, 3), (4, 30.0, 14, 3))
    for d, cond, steps, seed in cases:
        problem = make_quadratic(d, cond, seed=seed)
        theta0 = np.random.default_rng(seed + 1).standard_normal(d)
        traj = gd_trajectory(problem, theta0, 1.0 / problem.smoothness, steps)
        residuals = np.diff(traj, axis=0).T
        lam = 1e-14 * float(np.trace(residuals.T @ residuals))
        theta_hat, _ = rna(traj, RnaConfig(window=steps, lam=lam))
        gap = np.linalg.norm(theta_hat - problem.optimum)
        assert gap <= 1e-6 * np.linalg.norm(theta0 - problem.optimum)


def test_rna_gradient_drops_against_last_iterate():
    problem = make_quadratic(12, 50.0, seed=4)
    theta0 = np.random.default_rng(10).standard_normal(12)
    traj = gd_trajectory(problem, theta0, 1.0 / problem.smoothness, 30)
    theta_hat, _ = rna(traj, RnaConfig(window=10, lam=1e-10))
    assert np.linalg.norm(problem.grad(theta_hat)) < np.linalg.norm(
        problem.grad(traj[-1])
    )


@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([1e-10, 1e-8, 1e-4, 1.0]),
)
def test_rna_unit_sum_property(m, d, seed, lam):
    seq = np.random.default_rng(seed).standard_normal((m, d))
    try:
        theta_hat, coeffs = rna(seq, RnaConfig(window=m - 1, lam=lam))
    except DegenerateSum:
        return
    assert unit_sum_gap(coeffs) <= 1e-12 * max(1.0, np.abs(coeffs.weights).max())
    assert np.isfinite(theta_hat).all()
    assert len(coeffs.weights) == m - 1


def _random_windows(count, seed):
    """(kind, window) pairs: iterates of a linearly converging method, or noise,
    2-12 iterates of 1-30 entries at a scale from 1e-8 to 1e8."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        m, d = int(rng.integers(2, 13)), int(rng.integers(1, 31))
        scale = 10.0 ** rng.uniform(-8.0, 8.0)
        if i % 2:
            limit, error, rates = rng.standard_normal((3, d))
            rates = 0.5 + 0.499 * np.abs(np.tanh(rates))
            yield "trajectory", scale * (limit + error * rates ** np.arange(1, m + 1)[:, None])
        else:
            yield "noise", scale * rng.standard_normal((m, d))


@pytest.mark.parametrize("target", list(WeightTarget), ids=lambda t: t.value)
def test_extrapolate_and_rna_share_one_combination(target):
    for _, window in _random_windows(60, seed=16):
        cfg = RnaConfig(window=len(window) - 1, weight_target=target)
        theta_hat, coeffs = rna(window, cfg)
        np.testing.assert_array_equal(extrapolate(window, coeffs, target), theta_hat)


@pytest.mark.parametrize("target", list(WeightTarget), ids=lambda t: t.value)
def test_anchored_combination_error_against_exact_arithmetic(target):
    # theta_hat = theta_K - P @ D rounds the differences D, the prefix sums P of c
    # and one product, so each coordinate lies within
    #   (K + 1) * eps * (|theta_K| + sum_j Q_j (|theta_j| + |theta_{j+1}|))
    # of the exact sum_k c_k theta_sigma(k), with Q_j the sum of the |c_k| that
    # P_j adds up. On iterates of a converging method under LATEST, rnacc's
    # default, it also stays within K * eps * sum_k |c_k| |theta_sigma(k)|, the
    # bound of a plain c @ X. On noise, or under OLDEST, whose weights leave out
    # the anchor theta_K, it need not.
    from fractions import Fraction

    eps = np.finfo(np.float64).eps
    latest = target is WeightTarget.LATEST
    for kind, window in _random_windows(120, seed=16):
        k = len(window) - 1
        scale2 = float(np.abs(window).max()) ** 2
        theta_hat, coeffs = rna(window, RnaConfig(window=k, lam=1e-10 * scale2, weight_target=target))
        c = coeffs.weights
        weighted = window[1:] if latest else window[:-1]
        q = np.cumsum(np.abs(c))
        q = np.concatenate(([0.0], q[:-1])) if latest else q
        steps = np.abs(window[1:]) + np.abs(window[:-1])
        anchored = (k + 1) * eps * (np.abs(window[-1]) + q @ steps)
        plain = k * eps * (np.abs(c) @ np.abs(weighted))
        for i in range(window.shape[1]):
            exact = sum(Fraction(w) * Fraction(x) for w, x in zip(c.tolist(), weighted[:, i].tolist()))
            error = abs(Fraction(theta_hat[i]) - exact)
            assert error <= anchored[i]
            if latest and kind == "trajectory":
                assert error <= plain[i]


# ------------------------------------------------------------ adaptive rna


def _quadratic_trajectory():
    problem = make_quadratic(2, 10.0, seed=1)
    theta0 = np.array([1.0, 1.0])
    return problem, gd_trajectory(problem, theta0, 1.0 / problem.smoothness, 20)


@pytest.mark.parametrize("target", list(WeightTarget), ids=lambda t: t.value)
def test_adaptive_selects_best_scoring_candidate(target):
    problem, traj = _quadratic_trajectory()
    grid = (1e-14, 1e-8, 1e-2)
    cfg = RnaConfig(window=20, lam=1e-8, lam_grid=grid, weight_target=target)
    theta_hat, lam_star, coeffs = adaptive_rna(traj, cfg, problem.f)

    # Exhaustive re-evaluation of all four candidates, one full rna per
    # ridge, is the oracle. The fallback comes first so that it wins ties.
    candidates = {None: (traj[-1], None)}
    for lam in grid:
        candidates[lam] = rna(traj, RnaConfig(window=20, lam=lam, weight_target=target))
    scores = {lam: problem.f(th) for lam, (th, _) in candidates.items()}
    assert lam_star == min(scores, key=scores.get)
    assert problem.f(theta_hat) == min(scores.values()) <= scores[None]
    expected_theta, expected_coeffs = candidates[lam_star]
    np.testing.assert_array_equal(theta_hat, expected_theta)
    assert coeffs is not None and unit_sum_gap(coeffs) <= 1e-12
    np.testing.assert_array_equal(coeffs.weights, expected_coeffs.weights)
    assert coeffs.lam_used == expected_coeffs.lam_used


def test_adaptive_falls_back_when_last_iterate_scores_best():
    _, traj = _quadratic_trajectory()
    last = traj[-1]
    # Score = distance to the last iterate: nothing can beat it.
    score = lambda theta: float(np.linalg.norm(theta - last))
    cfg = RnaConfig(window=20, lam_grid=(1e-8,))
    theta_hat, lam_star, coeffs = adaptive_rna(traj, cfg, score)
    np.testing.assert_array_equal(theta_hat, last)
    assert lam_star is None and coeffs is None


def test_adaptive_constant_sequence_returns_last_iterate():
    seq = np.tile([3.0, -1.0, 2.0], (6, 1))
    cfg = RnaConfig(window=5, lam_grid=(1e-10, 1e-2))
    theta_hat, _, _ = adaptive_rna(seq, cfg, lambda t: float(np.sum(t * t)))
    np.testing.assert_allclose(theta_hat, seq[-1], rtol=0, atol=1e-12)


def test_adaptive_requires_grid():
    _, traj = _quadratic_trajectory()
    with pytest.raises(InvalidConfig):
        adaptive_rna(traj, RnaConfig(window=5), lambda t: 0.0)


def test_rna_rejects_a_grid():
    # rna has no score to rank a grid by, and does not fall back to config.lam.
    _, traj = _quadratic_trajectory()
    with pytest.raises(InvalidConfig, match="adaptive_rna"):
        rna(traj, RnaConfig(window=5, lam_grid=(1e-8,)))


def test_each_grid_candidate_is_combined_once(monkeypatch):
    # adaptive_rna and the training driver form each candidate's point once, to score
    # it, and return the winner as it was scored: a 6-ridge grid combines 6 times a
    # window, not 7.
    import rnacc.core as core

    calls, combine = [], core._combine
    monkeypatch.setattr(core, "_combine", lambda *args: calls.append(1) or combine(*args))
    grid = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)
    problem, traj = _quadratic_trajectory()
    theta_hat, lam_star, coeffs = adaptive_rna(traj, RnaConfig(window=5, lam_grid=grid), problem.f)
    assert coeffs is not None and len(calls) == 6
    calls.clear()
    p = make_logistic(100, 10, 1e-3, seed=2)
    cfg = OptimizerConfig(eta=2.0, momentum=0.0, weight_decay=0.0)
    _, accel = run_with_rna(p, cfg, RnaConfig(window=5, lam_grid=grid), epochs=20)
    assert any(a.lam_used is not None for a in accel)
    assert len(calls) == 6 * 19  # every epoch from the second, every ridge


def test_adaptive_every_grid_cell_failing_returns_last_iterate(monkeypatch):
    import rnacc.core as core

    def always_degenerate(*args, **kwargs):
        raise DegenerateSum("forced")

    # Normalizing a ridge's solution is the step every grid cell goes through.
    monkeypatch.setattr(core, "normalize", always_degenerate)
    seq = np.arange(12.0).reshape(4, 3)
    theta_hat, lam_star, coeffs = core.adaptive_rna(
        seq, RnaConfig(window=3, lam_grid=(1e-8, 1e-4)), lambda t: float(t.sum())
    )
    np.testing.assert_array_equal(theta_hat, seq[-1])
    assert lam_star is None and coeffs is None


def _ridge_by_ridge(diffs, gram, config, rank, fallback_score):
    """The grid policy of ``core._extrapolate``, one solve per ridge: the reference."""
    import rnacc.core as core

    best_lam, best_coeffs, best_score = None, None, fallback_score
    for lam in config.lam_grid:
        try:
            solved = core._solve(gram, (lam,))[0]
            if isinstance(solved, RnaError):
                raise solved
            coeffs = core.normalize(*solved)
        except (DegenerateSum, SingularSystem):
            continue
        score = rank(coeffs)
        if score < best_score:
            best_lam, best_coeffs, best_score = lam, coeffs, score
    theta = diffs[-1] if best_coeffs is None else core._combine(
        diffs, best_coeffs.weights, config.weight_target
    )
    return theta, best_lam, best_coeffs, best_score


@pytest.mark.parametrize("failing", [None, "singular", "degenerate", "nonfinite"])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_grid_solved_as_one_stack_equals_ridge_by_ridge(monkeypatch, failing, at):
    # A ridge whose system does not factor, or is not finite, fails the whole stack,
    # which is then solved ridge by ridge; one whose solution sums to ~0 is skipped
    # after the stack. Either way (theta_hat, lam_star, coefficients, score) are those
    # of one solve per ridge, and a ridge that is not finite raises its own error.
    import rnacc.core as core

    grid = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4)
    problem, traj = _quadratic_trajectory()
    cfg = RnaConfig(window=8, lam_grid=grid)
    diffs = core._window(np.array(traj), cfg.window)
    gram = core._gram(diffs[:-1])
    used, shifted = core._shifted(gram, grid)
    bad = shifted[at]
    solve, norm, shift = core.refined_spd_solve, core.normalize, core._shifted

    def not_at_bad(a, b):
        if any(np.array_equal(m, bad) for m in a.reshape(-1, *bad.shape)):
            raise np.linalg.LinAlgError("forced")
        return solve(a, b)

    def degenerate_at_bad(z, lam_used=None):
        if lam_used == used[at]:
            raise DegenerateSum("forced")
        return norm(z, lam_used)

    def nonfinite_at_bad(g, lams):
        ridges, systems = shift(g, lams)
        systems[np.equal(ridges, used[at]), 0, 0] = np.inf
        return ridges, systems

    if failing == "singular":
        monkeypatch.setattr(core, "refined_spd_solve", not_at_bad)
    elif failing == "degenerate":
        monkeypatch.setattr(core, "normalize", degenerate_at_bad)
    elif failing == "nonfinite":
        monkeypatch.setattr(core, "_shifted", nonfinite_at_bad)
    scores = np.array([problem.f(t) for t in traj[-9:]])

    def rank(c):
        return float(c.weights @ scores[-len(c):])

    if failing == "nonfinite":
        message = f"residual Gram matrix is not finite with the ridge {used[at]:g} added"
        with pytest.raises(NumericalFailure, match=re.escape(message)):
            core._extrapolate(diffs, cfg, core._solve(gram, grid), rank, float(scores[-1]))
        with pytest.raises(NumericalFailure, match=re.escape(message)):
            _ridge_by_ridge(diffs, gram, cfg, rank, float(scores[-1]))
        return
    got = core._extrapolate(diffs, cfg, core._solve(gram, grid), rank, float(scores[-1]))
    want = _ridge_by_ridge(diffs, gram, cfg, rank, float(scores[-1]))
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:2] + got[3:] == want[1:2] + want[3:]
    assert got[2].weights.tobytes() == want[2].weights.tobytes()
    assert got[2].lam_used == want[2].lam_used
    if failing:
        assert got[1] != grid[at]


def test_results_never_alias_the_input():
    # A float64 matrix is validated in place, not copied, so every result
    # must be a new array and the caller's iterates must stay as they were.
    problem = make_quadratic(4, 10.0, seed=1)
    seq = np.array(gd_trajectory(problem, np.ones(4), 1.0 / problem.smoothness, 5))
    before = seq.copy()
    grid = RnaConfig(window=4, lam_grid=(1e-8, 1e-4))
    scores = [problem.f(t) for t in seq]
    results = [
        rna(seq, RnaConfig(window=4)),
        rna(seq[-2:], RnaConfig(window=4)),
        adaptive_rna(seq, grid, problem.f),
        adaptive_rna(seq, grid, lambda t: 0.0),  # the fallback wins the tie
        accelerate_checkpoints(seq, 4, 1e-8),
        accelerate_checkpoints(seq, 4, 1e-8, grid.lam_grid, scores),
        accelerate_checkpoints(seq, 4, 1e-8, grid.lam_grid, np.zeros(6)),  # fallback
        (build_residuals(seq), extrapolate(seq, np.full(5, 0.2))),
    ]
    assert [r[1] is None for r in results[2:4] + results[5:7]] == [False, True, False, True]
    arrays = []
    for result in results:
        for item in result:
            if isinstance(item, Coefficients):
                arrays += [item.weights, item.raw_solution]
            elif isinstance(item, np.ndarray):
                arrays.append(item)
    assert len(arrays) == 19
    assert not any(np.shares_memory(a, seq) for a in arrays)
    np.testing.assert_array_equal(seq, before)


# ------------------------------------------------------------------ config


def test_config_validation():
    with pytest.raises(InvalidConfig):
        RnaConfig(window=0)
    with pytest.raises(InvalidConfig):
        RnaConfig(lam=-1e-8)
    with pytest.raises(InvalidConfig):
        RnaConfig(lam_grid=(1e-8, 1e-10))  # not ascending
    with pytest.raises(InvalidConfig):
        RnaConfig(lam_grid=(0.0, 1e-8))  # grid entries strictly positive
    with pytest.raises(InvalidConfig):
        RnaConfig(lam_grid=())
    with pytest.raises(InvalidConfig):
        RnaConfig(weight_target="newest")
    cfg = RnaConfig(weight_target="oldest")
    assert cfg.weight_target is WeightTarget.OLDEST
    assert RnaConfig().window == 10 and RnaConfig().lam == 1e-8


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: RnaConfig(lam="1e-8"), "lam"),
        (lambda: RnaConfig(lam=None), "lam"),
        (lambda: RnaConfig(lam=10**400), "lam"),
        (lambda: RnaConfig(lam_grid=("abc",)), "lam_grid"),
        (lambda: RnaConfig(lam_grid=1e-8), "lam_grid"),
        (lambda: OptimizerConfig(eta="0.1"), "eta"),
        (lambda: OptimizerConfig(eta=0.1, momentum="0.5"), "momentum"),
        (lambda: OptimizerConfig(eta=0.1, weight_decay=None), "weight_decay"),
        (lambda: OptimizerConfig(eta=0.1, schedule=((1, "x"),)), "schedule"),
        (lambda: OptimizerConfig(eta=0.1, schedule=((1,),)), "schedule"),
        (lambda: OptimizerConfig(eta=0.1, schedule=5), "schedule"),
        (lambda: SlidingBuffer(2**63), "capacity"),
    ],
    ids=[
        "lam-str", "lam-none", "lam-huge", "grid-str", "grid-scalar", "eta-str",
        "momentum-str", "decay-none", "schedule-str", "schedule-single", "schedule-scalar",
        "capacity-huge",
    ],
)
def test_a_value_of_the_wrong_kind_is_an_invalid_config_naming_its_field(make, field):
    with pytest.raises(InvalidConfig, match=f"^{field} must "):
        make()


def test_config_values_keep_their_kind_and_rendering():
    # What the constructors accepted before they checked kinds, they still store as given.
    assert RnaConfig(lam_grid=("1e-8", 1)).lam_grid == (1e-8, 1.0)
    opt = OptimizerConfig(eta=1, schedule=iter([(3, "0.5")]))
    assert type(opt.eta) is int and opt.schedule == ((3, 0.5),)
    spec = ExperimentSpec(optimizer=opt)
    assert "optimizer.eta = 1\n" in spec.to_text()
    assert "optimizer.schedule = 3:0.5\n" in spec.to_text()


def test_coefficients_container():
    c = Coefficients(np.array([0.5, 0.5]), 1e-8, np.array([2.0, 2.0]))
    assert len(c) == 2


@pytest.mark.parametrize("lam", [0.0, 1e-30, 1e-8])
def test_step_api_gives_rnas_bits_on_gd_windows(lam):
    # build_residuals, solve_regularized, normalize and extrapolate, called one after
    # another, give rna's z and theta_hat bit for bit at K = 2..20, or its error: at
    # lam = 0 the Gram matrix of a window past K = 7 or so is singular.
    problem = make_quadratic(30, 100.0, seed=5)
    traj = gd_trajectory(problem, np.ones(30), 1.0 / problem.smoothness, 40)
    solved = 0
    for end, k in itertools.product((21, 41), range(2, 21)):
        w = traj[end - k - 1 : end]
        try:
            theta_hat, coeffs = rna(w, RnaConfig(window=k, lam=lam))
        except RnaError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                normalize(solve_regularized(build_residuals(w), lam))
            continue
        z = solve_regularized(build_residuals(w), lam)
        assert z.tobytes() == coeffs.raw_solution.tobytes(), (end, k)
        assert extrapolate(w, normalize(z)).tobytes() == theta_hat.tobytes(), (end, k)
        solved += 1
    assert solved >= 10 and (lam == 0.0 or solved == 38)
    # At d = B + 1, B the columns of the core's blocks, every product is formed over two
    # blocks, and the two paths still agree bit for bit.
    import rnacc.core as core

    wide = diagonal_quadratic(core._BLOCK + 1, 100.0, seed=5)
    w = gd_trajectory(wide, np.ones(wide.dim), 1.0 / wide.smoothness, 5)
    theta_hat, coeffs = rna(w, RnaConfig(window=5, lam=lam))
    z = solve_regularized(build_residuals(w), lam)
    assert z.tobytes() == coeffs.raw_solution.tobytes()
    assert extrapolate(w, normalize(z)).tobytes() == theta_hat.tobytes()


def test_accelerate_checkpoints_reads_an_iterator():
    # Without scores nothing counts the iterates, so an iterator is read once, as by rna.
    problem, traj = _quadratic_trajectory()
    its = list(traj)
    theta_hat, lam_star, coeffs = accelerate_checkpoints(iter(its), 3, 1e-8)
    want, want_coeffs = rna(its, RnaConfig(3, 1e-8))
    assert theta_hat.tobytes() == want.tobytes()
    assert coeffs.weights.tobytes() == want_coeffs.weights.tobytes()
    assert lam_star == want_coeffs.lam_used


def test_every_path_solves_its_window_in_one_call(tmp_path, monkeypatch):
    # One _solve call per window, over all of its config's ridges, on every path:
    # rna, adaptive_rna, accelerate_checkpoints, rnacc accelerate, and each epoch of a
    # rnacc run --lambda-grid once its window holds two iterates.
    import rnacc.core as core
    import rnacc.optimizers as optimizers
    from rnacc import write_checkpoints
    from rnacc.cli import main

    stacks, solve = [], core._solve

    def counted(gram, lams):
        stacks.append(len(lams))
        return solve(gram, lams)

    monkeypatch.setattr(core, "_solve", counted)
    monkeypatch.setattr(optimizers, "_solve", counted)
    problem, traj = _quadratic_trajectory()
    grid = (1e-10, 1e-8, 1e-6)
    scores = [problem.f(t) for t in traj]
    write_checkpoints(tmp_path / "traj.rnac", traj)
    (tmp_path / "scores.txt").write_text("".join(f"{s!r}\n" for s in scores))
    accelerate = ["accelerate", str(tmp_path / "traj.rnac"), "--k", "5"]
    grid_flags = ["--lambda-grid", "1e-10,1e-8,1e-6", "--scores", str(tmp_path / "scores.txt")]
    run = ["run", "--problem", "logistic", "--epochs", "6", "--k", "4"]
    calls = {
        "rna": (lambda: rna(traj, RnaConfig(window=5)), [1]),
        "adaptive_rna": (
            lambda: adaptive_rna(traj, RnaConfig(window=5, lam_grid=grid), problem.f), [3]
        ),
        "accelerate_checkpoints": (lambda: accelerate_checkpoints(traj, 5, 1e-8), [1]),
        "accelerate_checkpoints, grid": (
            lambda: accelerate_checkpoints(traj, 5, 1e-8, grid, scores), [3]
        ),
        "rnacc accelerate": (
            lambda: main([*accelerate, "--out", str(tmp_path / "o.rnac")]), [1]
        ),
        "rnacc accelerate, grid": (
            lambda: main([*accelerate, *grid_flags, "--out", str(tmp_path / "g.rnac")]), [3]
        ),
        "rnacc run --lambda-grid": (
            lambda: main([*run, "--lambda-grid", "1e-10,1e-6", "--out", str(tmp_path / "m.csv")]),
            [2] * 5,
        ),
    }
    for name, (call, want) in calls.items():
        stacks.clear()
        call()
        assert stacks == want, name
    assert all((tmp_path / name).stat().st_size for name in ("o.rnac", "g.rnac", "m.csv"))
