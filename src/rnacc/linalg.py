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

Solves run on stacks: n systems of one size, (n, K, K) with (n, K)
right-hand sides, share each factorization, inversion, product and
residual call, so a ridge grid pays numpy's per-call overhead once
rather than once per ridge. One system is a stack of one. Each system
keeps its own stopping rule and gets the bits it would get alone: LAPACK
factors and inverts each matrix of a stack on its own, and a stacked
product is one BLAS matrix-vector or dot call per system.

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


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``x == hi + lo`` exactly, each half with at most 26 bits."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _residual(a, a_split, z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`exact_residual` on columns, z and b of shape (..., K, 1), with ``a``'s
    :func:`_split`, which a solve makes once.

    Each product a[..., i, j] * z[..., j] is Dekker's error-free ``p + e``, formed
    elementwise, so no FMA is required. A row's terms are ``b``, then ``-p`` and ``-e``.
    """
    z = z.swapaxes(-1, -2)
    (a_hi, a_lo), (z_hi, z_lo) = a_split, _split(z)
    p = a * z
    e = ((a_hi * z_hi - p) + a_hi * z_lo + a_lo * z_hi) + a_lo * z_lo
    terms = np.concatenate((b, -p, -e), axis=-1)
    sums = list(map(math.fsum, terms.reshape(-1, terms.shape[-1]).tolist()))
    return np.array(sums, dtype=np.float64).reshape(b.shape)


def exact_residual(a: np.ndarray, z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return ``b - a @ z`` with each entry correctly rounded, for one system or a stack.

    Every product a[i, j] * z[j] is split into an exact head/tail pair,
    and the row sums (including ``b[i]``) go through ``math.fsum``, which
    sums exactly. The only rounding is the final one per entry, so the
    result is the float64 nearest to the true residual. Each row's terms go
    to ``fsum`` as Python floats, all of them in one ``tolist``, which it
    adds without unpacking numpy scalars.
    """
    return _residual(a, _split(a), z[..., np.newaxis], b[..., np.newaxis])[..., 0]


def _norms(x: np.ndarray) -> list[float]:
    """The 2-norm of each system's column, as ``np.linalg.norm`` forms it: the square
    root of a BLAS dot product."""
    return [math.sqrt(s) for s in (x.swapaxes(-1, -2) @ x).ravel().tolist()]


def refined_spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ z = b`` for symmetric positive definite ``a``.

    ``a`` and ``b`` are one system, (K, K) and (K,), or a stack of them,
    (n, K, K) and (n, K); each system of a stack is solved as it would be
    alone, bit for bit. Cholesky factorization ``a = L L'``, then iterative
    refinement with exactly rounded residuals. ``L`` is inverted once, and
    each solve, the first one and every correction, is
    ``Linv' @ (Linv @ r)``. A correction no smaller than the previous one
    ends that system's refinement unapplied; the others go on.
    Raises ``np.linalg.LinAlgError`` if any factorization fails (a matrix
    not numerically positive definite). The caller guarantees that
    ``a`` and ``b`` are finite: neither is checked here.
    """
    linv = np.linalg.inv(np.linalg.cholesky(a))
    linv_t, b = linv.swapaxes(-1, -2), b[..., np.newaxis]  # b, z and each step are columns
    z = linv_t @ (linv @ b)
    a_split, previous = _split(a), [math.inf] * (b.size // b.shape[-2])
    for _ in range(_MAX_REFINE_STEPS):
        step = linv_t @ (linv @ _residual(a, a_split, z, b))
        sizes = _norms(step)
        shrank = [size < before for size, before in zip(sizes, previous)]
        if all(shrank):
            z += step
        else:  # a stopped system's previous size is NaN, which no size is below
            np.add(z, step, out=z, where=np.reshape(shrank, (*z.shape[:-2], 1, 1)))
        previous = [
            size if ok and not size <= _REFINE_RTOL * norm else math.nan
            for ok, size, norm in zip(shrank, sizes, _norms(z))
        ]
        if all(map(math.isnan, previous)):
            break
    return z[..., 0]
