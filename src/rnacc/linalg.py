"""Small dense symmetric positive definite solves, done carefully.

The coefficient systems in this package are tiny (K x K with K around
10-20) but can be brutally ill conditioned: the Gram matrix of nearly
collinear residual columns plus a ridge as small as 1e-10 easily reaches
condition numbers of 1e10 or worse. A plain Cholesky solve then loses
six or more digits. Since the systems are so small we can afford to fix
this properly: factorize once, then run iterative refinement in which
the residual ``b - A z`` is computed *exactly rounded* via error-free
product transformations and ``math.fsum``. The refined solution is
accurate to working precision whenever ``cond(A) * eps < 1``, at a cost
that is invisible next to forming the Gram matrix.

Refinement takes at most ``_MAX_REFINE_STEPS`` (16) corrections. It stops
once a correction is below ``_REFINE_RTOL`` relative to the solution, and
it stops without applying a correction that is no smaller than the one
before it: past ``cond(A) * eps ~ 1`` the corrections stop shrinking, and
applying them can make the solution far worse.

``np.linalg.cholesky`` factors, and the factor's K x K inverse, formed
once, turns every solve into two matrix-vector products. The
refinement, not the way each solve is applied, sets the accuracy.

All inputs and outputs are float64; the extended precision lives only
inside the residual accumulation.
"""

from __future__ import annotations

import math

import numpy as np

# Veltkamp splitting constant for float64: 2**27 + 1.
_SPLIT = 134217729.0

# Stop refining once the update is this small relative to the solution.
_REFINE_RTOL = 1e-15

# Enough to converge for every cond(A) up to the 4.5e14 that core's ridge floor allows.
_MAX_REFINE_STEPS = 16


def _two_prod(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Error-free transformation: a*b == p + e exactly, elementwise.

    Dekker's product with Veltkamp splitting; no FMA required.
    """
    p = a * b
    ca = _SPLIT * a
    a_hi = ca - (ca - a)
    a_lo = a - a_hi
    cb = _SPLIT * b
    b_hi = cb - (cb - b)
    b_lo = b - b_hi
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def exact_residual(a: np.ndarray, z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return ``b - a @ z`` with each entry correctly rounded.

    Every product a[i, j] * z[j] is split into an exact head/tail pair,
    and the row sums (including ``b[i]``) go through ``math.fsum``, which
    sums exactly. The only rounding is the final one per entry, so the
    result is the float64 nearest to the true residual. The terms go to
    ``fsum`` as Python floats (``tolist``), which it adds without
    unpacking numpy scalars.
    """
    p, e = _two_prod(a, z[np.newaxis, :])
    rows = zip(b.tolist(), (-p).tolist(), (-e).tolist())
    return np.array([math.fsum([bi, *pi, *ei]) for bi, pi, ei in rows], dtype=np.float64)


def refined_spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ z = b`` for symmetric positive definite ``a``.

    Cholesky factorization ``a = L L'``, then iterative refinement with
    exactly rounded residuals. ``L`` is inverted once, and each solve,
    the first one and every correction, is ``Linv' @ (Linv @ r)``. A
    correction no smaller than the previous one ends the refinement
    unapplied.
    Raises ``np.linalg.LinAlgError`` if the factorization fails (matrix
    not numerically positive definite). The caller guarantees that
    ``a`` and ``b`` are finite: neither is checked here.
    """
    linv = np.linalg.inv(np.linalg.cholesky(a))
    z = linv.T @ (linv @ b)
    previous = math.inf
    for _ in range(_MAX_REFINE_STEPS):
        step = linv.T @ (linv @ exact_residual(a, z, b))
        size = np.linalg.norm(step)
        if not size < previous:
            break
        z = z + step
        if size <= _REFINE_RTOL * np.linalg.norm(z):
            break
        previous = size
    return z
