"""Objective constructors and their gradient oracles."""

import tracemalloc
import warnings

import numpy as np
import pytest

from rnacc import (
    InvalidConfig,
    NumericalFailure,
    Problem,
    finite_difference_gradient,
    make_logistic,
    make_mlp,
    make_quadratic,
    split_mlp_params,
)

from oracles import logistic_gd_reference

# (n_samples, dim, l2, seed) of the logistic instances the suite trains on,
# the default spec's among them.
_SUITE_LOGISTIC = [
    (500, 50, 1e-3, 3), (80, 12, 1e-3, 1), (120, 10, 1e-3, 2), (50, 6, 1e-3, 1),
    (20, 4, 1e-3, 2), (60, 8, 1e-3, 5), (80, 10, 1e-3, 3), (60, 8, 1e-3, 3),
    (120, 12, 1e-3, 3), (40, 6, 1e-2, 8), (30, 4, 1e-2, 6), (50, 6, 1e-3, 3),
    (60, 6, 1e-3, 3), (500, 50, 1e-3, 0), (500, 50, 1e-3, 1),
]


def _count_grad_calls(problem):
    calls = []
    grad = problem.grad
    problem.grad = lambda theta: calls.append(1) or grad(theta)
    return calls


def _fd_relative_error(problem, rng, points=20, step=1e-6):
    worst = 0.0
    for _ in range(points):
        theta = rng.standard_normal(problem.dim)
        g = problem.grad(theta)
        fd = finite_difference_gradient(problem.f, theta, step)
        worst = max(worst, np.linalg.norm(g - fd) / np.linalg.norm(g))
    return worst


# ---------------------------------------------------------------- quadratic


def test_quadratic_one_dimensional():
    p = make_quadratic(1, 1.0, seed=2)
    b = p.extras["rhs"][0]
    assert p.f(np.zeros(1)) == 0.0
    np.testing.assert_allclose(p.optimum, [b], rtol=0, atol=1e-15)
    theta = np.array([0.7])
    assert p.f(theta) == pytest.approx(0.5 * 0.7**2 - b * 0.7, rel=1e-15)


def test_quadratic_optimum_beats_random_points():
    p = make_quadratic(6, 30.0, seed=5)
    f_star = p.f(p.optimum)
    rng = np.random.default_rng(0)
    for _ in range(100):
        assert f_star <= p.f(rng.standard_normal(6))


def test_quadratic_gradient_vanishes_at_direct_solve():
    p = make_quadratic(20, 100.0, seed=7)
    solved = np.linalg.solve(p.extras["matrix"], p.extras["rhs"])
    np.testing.assert_array_equal(p.optimum, solved)
    assert np.linalg.norm(p.grad(p.optimum)) <= 1e-10


def test_quadratic_spectrum_and_smoothness():
    p = make_quadratic(8, 50.0, seed=1)
    eigs = np.linalg.eigvalsh(p.extras["matrix"])
    np.testing.assert_allclose(eigs.min(), 1.0, rtol=1e-9)
    np.testing.assert_allclose(eigs.max(), 50.0, rtol=1e-9)
    assert p.smoothness == pytest.approx(50.0, rel=1e-12)


def test_quadratic_seeded_determinism():
    a = make_quadratic(5, 10.0, seed=9)
    b = make_quadratic(5, 10.0, seed=9)
    np.testing.assert_array_equal(a.extras["matrix"], b.extras["matrix"])
    np.testing.assert_array_equal(a.extras["rhs"], b.extras["rhs"])
    c = make_quadratic(5, 10.0, seed=10)
    assert not np.array_equal(a.extras["rhs"], c.extras["rhs"])


def test_quadratic_validation():
    with pytest.raises(InvalidConfig):
        make_quadratic(0, 10.0)
    with pytest.raises(InvalidConfig):
        make_quadratic(5, 0.5)


# ----------------------------------------------------------------- logistic


def test_sigmoid_matches_scipy_expit():
    # The package's sigmoid is numpy's; scipy's expit is the reference, within 4 ulp.
    from scipy.special import expit

    from rnacc.problems import _expit

    rng = np.random.default_rng(0)
    for scale in (1e-6, 1e-2, 1.0, 10.0, 100.0):
        x = scale * rng.standard_normal(100_000)
        np.testing.assert_allclose(_expit(x), expit(x), rtol=1e-15, atol=0.0)
    x = np.linspace(-708.0, 708.0, 100_001)
    np.testing.assert_allclose(_expit(x), expit(x), rtol=1e-15, atol=0.0)


def test_sigmoid_underflows_to_zero_without_warning():
    from rnacc.problems import _expit

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _expit(np.array([-1000.0]))[0] == 0.0
        assert _expit(-1000.0) == 0.0
        assert _expit(np.array([1000.0]))[0] == 1.0


def test_logistic_convex_along_random_rays():
    p = make_logistic(80, 10, l2=1e-3, seed=3)
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = rng.standard_normal(10)
        b = rng.standard_normal(10)
        mid = p.f(0.5 * (a + b))
        assert mid <= 0.5 * (p.f(a) + p.f(b)) + 1e-12


def test_logistic_gradient_matches_finite_differences():
    p = make_logistic(60, 8, l2=1e-3, seed=3)
    assert _fd_relative_error(p, np.random.default_rng(2), points=50) <= 1e-5


def test_logistic_reference_optimum_reproducible():
    a = make_logistic(120, 12, l2=1e-3, seed=3)
    b = make_logistic(120, 12, l2=1e-3, seed=3)
    assert np.linalg.norm(a.grad(a.optimum)) <= 1e-12
    assert abs(a.f(a.optimum) - b.f(b.optimum)) <= 1e-10
    np.testing.assert_array_equal(a.optimum, b.optimum)


def test_logistic_newton_matches_gd_oracle():
    # Plain gradient descent stops at gradient norm 1e-12, so it is within
    # ||g|| / l2 <= 1e-9 of the optimum.
    for params in _SUITE_LOGISTIC:
        p = make_logistic(*params)
        gd = logistic_gd_reference(p.grad, p.dim, eta=1.0 / p.smoothness)
        assert np.linalg.norm(p.optimum - gd) <= 1e-9, params
        f_gd = p.f(gd)
        assert abs(p.f(p.optimum) - f_gd) <= 4 * np.spacing(f_gd), params


@pytest.mark.parametrize("params", [(20, 4, 0.0, 2), (10, 20, 0.0, 0)])
def test_logistic_reference_separable_raises(params):
    # Separable without l2: the loss falls toward zero as theta runs off to
    # infinity, so there is no optimum, only a singular Hessian.
    p = make_logistic(*params)
    calls = _count_grad_calls(p)
    with pytest.raises(NumericalFailure, match="singular"):
        p.optimum
    # The lower bound checks that the count sees the solver's calls.
    assert 1 <= len(calls) <= 100


def test_logistic_newton_step_count():
    p = make_logistic(1000, 100, 1e-3, seed=101)
    calls = _count_grad_calls(p)
    p.optimum
    assert 1 <= len(calls) <= 20


def test_logistic_batch_gradient_full_batch_equals_gradient():
    p = make_logistic(40, 6, l2=1e-2, seed=8)
    theta = np.random.default_rng(3).standard_normal(6)
    np.testing.assert_allclose(
        p.batch_grad(theta, np.arange(40)), p.grad(theta), rtol=0, atol=1e-15
    )


def test_logistic_seeded_determinism():
    a = make_logistic(30, 4, l2=1e-2, seed=6)
    b = make_logistic(30, 4, l2=1e-2, seed=6)
    np.testing.assert_array_equal(a.extras["features"], b.extras["features"])
    np.testing.assert_array_equal(a.extras["labels"], b.extras["labels"])


def test_logistic_smoothness_needs_no_d_by_d_matrix():
    # With d > n the smoothness comes from the n x n Gram X X', which shares the
    # largest eigenvalue of the d x d X'X: the build's peak stays near the bytes of
    # the features, where X'X alone is 100 times them at d = 20,000.
    tracemalloc.start()
    try:
        problem = make_logistic(200, 20_000, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * problem.extras["features"].nbytes
    problem = make_logistic(200, 2_000, 1e-3)
    x = problem.extras["features"]
    want = 1e-3 + np.linalg.eigvalsh(x.T @ x).max() / (4.0 * 200)
    assert abs(problem.smoothness - want) <= 1e-14 * want


def test_logistic_validation():
    with pytest.raises(InvalidConfig):
        make_logistic(0, 5, 1e-3)
    with pytest.raises(InvalidConfig):
        make_logistic(10, 0, 1e-3)
    with pytest.raises(InvalidConfig):
        make_logistic(10, 5, -1.0)


# ---------------------------------------------------------------------- mlp


def test_mlp_gradient_matches_finite_differences():
    p = make_mlp(6, 5, 40, seed=4)
    assert _fd_relative_error(p, np.random.default_rng(5), points=20) <= 1e-5


def test_mlp_output_bias_gradient_at_zero_weights():
    # All-zero parameters predict zero, so the output-bias gradient is
    # the mean residual: mean(pred - y) = -mean(y).
    p = make_mlp(4, 3, 25, seed=6)
    g = p.grad(np.zeros(p.dim))
    targets = p.extras["targets"]
    assert abs(g[-1] - (-targets.mean())) <= 1e-15
    assert abs(targets.mean()) <= 1e-14  # targets are centered


def test_mlp_hidden_unit_permutation_invariance():
    p = make_mlp(5, 4, 30, seed=7)
    rng = np.random.default_rng(8)
    theta = rng.standard_normal(p.dim)
    w1, b1, w2, b2 = split_mlp_params(theta, 5, 4)
    perm = rng.permutation(4)
    permuted = np.concatenate([w1[perm].ravel(), b1[perm], w2[perm], [b2]])
    assert abs(p.f(theta) - p.f(permuted)) <= 1e-12


def test_mlp_dim_and_batch():
    p = make_mlp(10, 8, 200, seed=0)
    assert p.dim == 8 * 10 + 8 + 8 + 1
    theta = np.random.default_rng(9).standard_normal(p.dim)
    np.testing.assert_allclose(
        p.batch_grad(theta, np.arange(200)), p.grad(theta), rtol=0, atol=1e-15
    )


def test_mlp_seeded_determinism():
    a = make_mlp(4, 3, 20, seed=5)
    b = make_mlp(4, 3, 20, seed=5)
    np.testing.assert_array_equal(a.extras["inputs"], b.extras["inputs"])
    np.testing.assert_array_equal(a.extras["targets"], b.extras["targets"])


def test_mlp_validation():
    with pytest.raises(InvalidConfig):
        make_mlp(0, 3, 10)
    with pytest.raises(InvalidConfig):
        make_mlp(3, 0, 10)
    with pytest.raises(InvalidConfig):
        make_mlp(3, 3, 0)


# ---------------------------------------------------------------- utilities


def test_finite_difference_gradient_on_closed_form():
    f = lambda t: float(np.sin(t[0]) + t[1] ** 3)
    theta = np.array([0.3, 1.2])
    fd = finite_difference_gradient(f, theta, step=1e-6)
    np.testing.assert_allclose(fd, [np.cos(0.3), 3 * 1.2**2], rtol=1e-9)


def test_problem_lazy_optimum_is_cached():
    calls = []

    def solver():
        calls.append(1)
        return np.zeros(2)

    p = Problem("toy", 2, lambda t: 0.0, lambda t: np.zeros(2), optimum=solver)
    assert p.optimum is not None
    assert p.optimum is not None
    assert len(calls) == 1


# ------------------------------------------------------------ value_and_grad


def _built_ins():
    return [
        make_quadratic(12, 30.0, seed=1),
        make_logistic(90, 8, 1e-3, seed=4),
        make_mlp(5, 4, 40, seed=2),
    ]


@pytest.mark.parametrize("index", range(3), ids=["quadratic", "logistic", "mlp"])
def test_value_and_grad_has_the_bits_of_f_and_grad(index):
    # At zero, at drawn points and, for logistic, where the margins overflow exp:
    # the shared A @ theta, margins or forward pass change no bit.
    p = _built_ins()[index]
    rng = np.random.default_rng(index)
    points = [np.zeros(p.dim)] + [rng.standard_normal(p.dim) * s for s in (0.1, 1.0, 10.0)]
    if p.name.startswith("logistic"):
        x, labels = p.extras["features"], p.extras["labels"]
        huge = 1e3 * rng.standard_normal(p.dim)
        assert np.abs(labels * (x @ huge)).max() > 710  # exp(710) overflows
        points.append(huge)
    for theta in points:
        value, g = p.value_and_grad(theta)
        assert repr(value) == repr(p.f(theta))
        assert g.dtype == np.float64 and g.tobytes() == p.grad(theta).tobytes()
