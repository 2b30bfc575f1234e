"""The refined solver against brute-force references."""

import itertools
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

from rnacc import RnaConfig, RnaError, core, default_spec, linalg, make_quadratic, rna
from rnacc.experiment import build_problem
from rnacc.linalg import exact_residual, refined_spd_solve
from rnacc.optimizers import run_with_rna

from oracles import gd_trajectory, mp_eig_solve, scipy_refined_spd_solve


def _random_spd(rng, k, ridge):
    r = rng.standard_normal((k + 3, k))
    return r.T @ r + ridge * np.eye(k)


def test_exact_residual_matches_high_precision():
    rng = np.random.default_rng(42)
    for _ in range(50):
        k = int(rng.integers(1, 20))
        a = rng.standard_normal((k, k)) * 10.0 ** rng.integers(-8, 9)
        z = rng.standard_normal(k) * 10.0 ** rng.integers(-8, 9)
        b = rng.standard_normal(k)
        r = exact_residual(a, z, b)
        assert r.dtype == np.float64 and r.shape == (k,)
        with mp.workdps(60):
            for i in range(k):
                true = mp.mpf(float(b[i])) - mp.fsum(
                    mp.mpf(float(a[i, j])) * mp.mpf(float(z[j])) for j in range(k)
                )
                assert r[i] == float(true)  # correctly rounded, so bit-equal


def test_refined_solve_well_conditioned():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = int(rng.integers(2, 16))
        a = _random_spd(rng, k, 1e-3)
        b = rng.standard_normal(k)
        z = refined_spd_solve(a, b)
        assert np.linalg.norm(a @ z - b) <= 1e-12 * np.linalg.norm(b)


def test_refined_solve_brutal_conditioning():
    # Rank-deficient Gram plus a ridge ten orders below the norm: a plain
    # Cholesky solve loses ~6 digits here, refinement must not.
    rng = np.random.default_rng(7)
    for _ in range(10):
        k, d = 15, 9
        r = rng.standard_normal((d, k))
        a = r.T @ r + 1e-10 * np.eye(k)
        b = np.ones(k)
        z = refined_spd_solve(a, b)
        z_ref = mp_eig_solve(a, b, dps=40)
        rel = np.linalg.norm(z - z_ref) / np.linalg.norm(z_ref)
        assert rel <= 1e-13


def test_refined_solve_rejects_indefinite():
    a = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        refined_spd_solve(a, np.ones(2))


# ------------------------------------------------ bits against the scipy solve


def _trajectory(spec) -> list:
    vanilla, _ = run_with_rna(build_problem(spec), spec.optimizer, None, spec.epochs)
    return [record.theta for record in vanilla]


def _grams(thetas, k):
    """The Gram matrix of every window that ``run_with_rna`` extrapolates."""
    return [
        core._gram(core._differenced(np.vstack(thetas[max(0, t - k) : t + 1])))
        for t in range(1, len(thetas))
    ]


def _bits(solve, a):
    try:
        return solve(a, np.ones(a.shape[0])).tobytes()
    except np.linalg.LinAlgError:
        return None


def _assert_same_bits(grams, lams):
    for gram in grams:
        for lam in lams:
            a = gram + lam * np.eye(gram.shape[0])
            assert _bits(refined_spd_solve, a) == _bits(scipy_refined_spd_solve, a)


@pytest.mark.parametrize("problem", ["quadratic", "logistic", "mlp"])
def test_refined_solve_matches_scipy_bits_on_default_runs(problem):
    for seed in range(3):
        grams = _grams(_trajectory(default_spec(problem, seed=seed)), 10)
        _assert_same_bits(grams, (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2))


def test_refined_solve_matches_scipy_bits_on_minibatch_logistic():
    spec = default_spec("logistic", seed=3)
    spec = replace(
        spec,
        problem_params={"n_samples": 1000, "dim": 100, "l2": 1e-3, "seed": 3},
        optimizer=replace(spec.optimizer, batch_size=100, seed=3),
        epochs=25,
    )
    thetas = _trajectory(spec)
    for k in (5, 10, 20):
        _assert_same_bits(_grams(thetas, k), (1e-10, 1e-8, 1e-6, 1e-4))


def _solve_grams(solve, systems):
    """``core._solve`` on each (gram, lam) alone, with ``solve``, a 2-D solve, as the
    refined solve of each system of its stack."""

    def each(a, b):
        return np.array([solve(x, y) for x, y in zip(a, b)])

    with mock.patch.object(core, "refined_spd_solve", each):
        return [core._solve(gram, (lam,))[0] for gram, lam in systems]


# Repeated checkpoints in a window of 11: each one twice, two alternating, and a
# run that stalls after its sixth iterate.
_DUPLICATED_ROWS = (
    [i // 2 for i in range(10, 22)],
    [9, 10] * 5 + [9],
    [0, 1, 2, 3, 4, 5] + [10] * 5,
)


def _duplicated_row_grams():
    grams = []
    for problem in ("quadratic", "logistic", "mlp"):
        thetas = _trajectory(default_spec(problem))
        for t in range(10, len(thetas)):
            window = np.vstack(thetas[t - 10 : t + 1])
            grams += [core._gram(core._differenced(window[rows])) for rows in _DUPLICATED_ROWS]
    return grams


def test_refined_solve_near_scipy_on_duplicated_rows():
    # Repeated rows make the Gram matrix singular. At the usual ridges both
    # solves factor and agree to rounding. At 1e-18 * trace, below the Gram's
    # own rounding, both solve once at the floor 10 * eps * trace, where
    # cond(A) is at most about 4.5e14 and refinement converges.
    usual, tiny = [], []
    for gram in _duplicated_row_grams():
        usual += [(gram, lam) for lam in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)]
        tiny.append((gram, 1e-18 * float(np.trace(gram))))
    for systems in (usual, tiny):
        news = _solve_grams(refined_spd_solve, systems)
        olds = _solve_grams(scipy_refined_spd_solve, systems)
        for (_, lam), (z_new, lam_new), (z_old, lam_old) in zip(systems, news, olds):
            assert lam_new == lam_old and (lam_new == lam) == (systems is usual)
            assert np.linalg.norm(z_new - z_old) <= 1e-15 * np.linalg.norm(z_old)


def _mp_lu_solve(a: np.ndarray, b: np.ndarray, dps: int = 40) -> np.ndarray:
    """``a @ z = b`` solved at ``dps`` digits for the float64 entries of ``a`` and ``b``."""
    with mp.workdps(dps):
        z = mp.lu_solve(mp.matrix(a.tolist()), mp.matrix(b.tolist()))
        return np.array([float(z[i]) for i in range(len(b))])


def test_tiny_ridge_is_floored_and_solved_to_working_precision():
    # Below 10 * eps * trace the ridge is raised to it, and the refined z of
    # the floored system matches a 40-digit solve of the same float64 matrix
    # (largest relative error measured: 2.2e-16 over these 450 systems).
    eps = np.finfo(np.float64).eps
    for gram in _duplicated_row_grams():
        trace = float(np.trace(gram))
        z, lam_used = core._solve(gram, (1e-18 * trace,))[0]
        assert lam_used == 10.0 * eps * trace
        a = gram + lam_used * np.eye(gram.shape[0])
        z_ref = _mp_lu_solve(a, np.ones(gram.shape[0]))
        assert np.linalg.norm(z - z_ref) <= 1e-15 * np.linalg.norm(z_ref)


def _hostile_gram(seed=309, d=20, k=10):
    """A Gram matrix with cond about 2e17 that still factors, formed with exactly
    rounded sums so that its bits do not depend on the BLAS."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, k)) * np.logspace(0, -9, k)
    b = rng.standard_normal((k, k))
    r = np.array([[math.fsum(a[i] * b[:, j]) for j in range(k)] for i in range(d)])
    return np.array([[math.fsum(r[:, i] * r[:, j]) for j in range(k)] for i in range(k)])


def test_refinement_that_stops_shrinking_is_not_applied():
    # At lam = 0 nothing bounds cond(A). On this system 16 refinement steps
    # that ignore whether the correction still shrinks end more than 1e20 off;
    # the shipped solve stops when it does not (relative error measured: 56).
    a = _hostile_gram()
    b = np.ones(a.shape[0])
    assert np.linalg.cond(a) > 1e17
    z_ref = _mp_lu_solve(a, b)
    linv = np.linalg.inv(np.linalg.cholesky(a))
    unguarded = linv.T @ (linv @ b)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(linalg._MAX_REFINE_STEPS):
            unguarded = unguarded + linv.T @ (linv @ exact_residual(a, unguarded, b))
    assert not np.linalg.norm(unguarded - z_ref) <= 1e20 * np.linalg.norm(z_ref)
    z = refined_spd_solve(a, b)
    assert np.isfinite(z).all()
    assert np.linalg.norm(z - z_ref) <= 1e3 * np.linalg.norm(z_ref)


# ------------------------------------------------------------ stacked solves


def _assert_stacked_bits(stack):
    """Each system of ``stack``, six (K x K) systems ``A z = 1``, solved alone has the
    bits it gets at every place of the stack."""
    alone = [refined_spd_solve(a, np.ones(len(a))).tobytes() for a in stack]
    for shift in range(len(stack)):
        solved = refined_spd_solve(np.roll(stack, shift, axis=0), np.ones(stack.shape[:2]))
        assert [z.tobytes() for z in np.roll(solved, -shift, axis=0)] == alone


_GRID = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)


def test_stacked_solve_keeps_the_bits_on_duplicated_rows():
    for gram in _duplicated_row_grams():
        _assert_stacked_bits(core._shifted(gram, _GRID)[1])


def test_stacked_solve_keeps_the_bits_on_converging_windows():
    # 50 windows of linearly converging iterates at d = 100, K from 3 to 20; then the
    # same stacks with each system times its own power of two, so that each system of
    # a stack is solved in a unit of its own.
    rng = np.random.default_rng(11)
    for i in range(50):
        k = 3 + i % 18
        rates, theta = rng.uniform(0.5, 0.99, 100), rng.standard_normal(100)
        window = np.array([theta * rates**t for t in range(k + 1)])
        stack = core._shifted(core._window(window, k)[1], _GRID)[1]
        _assert_stacked_bits(stack)
        _assert_stacked_bits(np.ldexp(stack, np.array([0, 300, -300, 900, -900, 1])[:, None, None]))


def test_stacked_solve_keeps_the_bits_on_a_wide_f32_window():
    # Shaped like the benchmark's accel-dir-grid input: 12 iterates at d = 2e5, stored
    # as f32, of a method converging at a rate per coordinate; K = 10 and its grid.
    rng = np.random.default_rng([1, 2])
    x_star, error = rng.standard_normal(200_000), rng.standard_normal(200_000)
    rates = rng.uniform(0.9, 0.999, 200_000)
    window = np.array([x_star + error * rates**t for t in range(1, 13)], dtype=np.float32)
    gram = core._window(window.astype(np.float64), 10)[1]
    _assert_stacked_bits(core._shifted(gram, (1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5))[1])


def test_stacked_solve_raises_when_any_system_does_not_factor():
    stack = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    with pytest.raises(np.linalg.LinAlgError):
        refined_spd_solve(stack, np.ones((2, 2)))


# ------------------------------------------------------------- power-of-two scales


def _solved(r, lam):
    """``solve_regularized(r, lam)`` and the bits of its normalized weights, or None and
    the error's type."""
    try:
        z = core.solve_regularized(r, lam)
        return z, core.normalize(z).weights.tobytes()
    except RnaError as error:
        return None, type(error)


@settings(max_examples=500)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0.0, 1e-14, 1e-10, 1e-4]),
    st.integers(min_value=-500, max_value=500),
)
def test_a_power_of_two_scale_keeps_the_bits(k, seed, rel, exponent):
    # For s = 2**exponent, c(s R, s^2 lam) has the bits of c(R, lam), and z is s**-2 times
    # z(R, lam), wherever s^2 R^T R is exactly s^2 times R^T R, with normal entries, and
    # s**-2 z is exact too and small enough that its sums stay finite. Columns of sizes
    # down to 1e-6, and 1 to 2k + 1 rows, so that some systems are singular at lam = 0.
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((int(rng.integers(1, 2 * k + 2)), k))
    r *= np.logspace(0.0, -rng.uniform(0.0, 6.0), k)
    lam = rel * float(np.trace(r.T @ r))
    scaled_r, scaled_lam = np.ldexp(r, exponent), math.ldexp(lam, 2 * exponent)
    gram = scaled_r.T @ scaled_r
    assume(np.isfinite(gram).all() and np.array_equal(gram, np.ldexp(r.T @ r, 2 * exponent)))
    assume(((gram == 0.0) | (np.abs(gram) >= 2.0**-1022)).all())
    assume(math.ldexp(scaled_lam, -2 * exponent) == lam)
    z, weights = _solved(r, lam)
    with np.errstate(over="ignore"):
        expected = None if z is None else np.ldexp(z, -2 * exponent)
    assume(z is None or np.array_equal(np.ldexp(expected, 2 * exponent), z))
    assume(z is None or np.abs(expected).max() < 2.0**1000)
    scaled_z, scaled_weights = _solved(scaled_r, scaled_lam)
    assert scaled_weights == weights
    assert z is None or scaled_z.tobytes() == expected.tobytes()


def _gd_windows():
    """11 gradient-descent iterates from zero of ``make_quadratic(100, kappa, seed)``, for
    kappa 4 and 100, seeds 0-2 and steps 0.1 and 0.01; at kappa 100 a step of 0.1
    diverges."""
    return [
        gd_trajectory(make_quadratic(100, kappa, seed=seed), np.zeros(100), eta, 10)
        for kappa, seed, eta in itertools.product((4.0, 100.0), range(3), (0.1, 0.01))
    ]


def test_rna_at_any_scale_returns_or_raises_an_rna_error_without_a_warning():
    # Windows times 10**k, for every even k from -160 to 160, at the ridges 0, 1e-8 and
    # 1e-10 * 10**2k. At |k| <= 145 the relative ridge succeeds on every window.
    windows = _gd_windows()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-160, 161, 2):
            scale = 10.0**k
            relative = 1e-10 * scale * scale
            for window, lam in itertools.product(windows, (0.0, 1e-8, relative)):
                if not math.isfinite(lam):
                    continue
                try:
                    rna(window * scale, RnaConfig(window=10, lam=lam))
                except RnaError:
                    assert not (abs(k) <= 145 and lam == relative)


def test_solve_at_extreme_scales_against_the_exact_solve():
    # The windows above times 1e100 and 1e-100, at the ridges 1e-8 (floored at
    # 10 * eps * trace at 1e100) and 1e-10 * scale**2: each z is within 1e-15 of a
    # 40-digit solve of the same float64 system, as at scale 1 (at most 1.0e-18
    # measured; refined unscaled, z was off by up to 2.0e-4 at 1e100).
    worst = 0.0
    for scale, window in itertools.product((1e100, 1e-100), _gd_windows()):
        gram = core._window(window * scale, 10)[1]
        for lam in (1e-8, 1e-10 * scale * scale):
            a = core._shifted(gram, (lam,))[1][0]
            z, z_ref = refined_spd_solve(a, np.ones(10)), mp_eig_solve(a, np.ones(10), dps=40)
            worst = max(worst, np.abs(z - z_ref).max() / np.abs(z_ref).max())
    assert worst <= 1e-15
