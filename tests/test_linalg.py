"""The refined solver against brute-force references."""

import numpy as np
import pytest
from mpmath import mp

from rnacc.linalg import exact_residual, refined_spd_solve

from oracles import mp_eig_solve


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
