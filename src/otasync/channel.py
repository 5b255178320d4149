"""Per-run operator norm of the inter-array channel, the only property of G
that the Monte Carlo engine needs.

For G with i.i.d. CN(0, 1) entries, the singular values of G have exactly the
law of those of a real upper-bidiagonal B / sqrt(2) with diagonal
chi_{2N}, chi_{2N-2}, ..., chi_2 and superdiagonal chi_{2N-2}, ..., chi_2
(Dumitriu & Edelman, "Matrix models for beta ensembles", J. Math. Phys. 43,
2002). The engine draws B and finds the top eigenvalue of the tridiagonal
B^T B over all runs at once, in O(N) memory and O(N) work per pass over the
LDL^T pivots: a few Sturm-count halvings, Laguerre steps from the bracket's
upper end (for the real-rooted characteristic polynomial they move down to
lambda_max monotonically, cubically at a simple root), and a Sturm check that
certifies the result; a column the check does not certify, such as one with
a double top eigenvalue, finishes by bisection.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .config import SystemParams

# The starting bracket [max diag, Gershgorin bound] of B^T B is at most 3x its
# top eigenvalue wide, so 53 halvings leave the midpoint within
# 3 * 2**-54 < 2**-52 of it, relative: float64 resolution. HALVINGS of them
# come first; a column the check below does not certify takes the rest.
BISECTION_STEPS = 53
HALVINGS = 12
# From a bracket 3 * 2**-12 wide, 3 steps pass the check on every chi draw
# tried (2**18 runs each at N = 2, 8, 64 and 128, 2**16 at N = 512) unless
# the top two eigenvalues nearly coincide. After 8 halvings 2 of 16,384
# N = 128 draws still needed the bisection finish.
LAGUERRE_STEPS = 3
# The result x stands where Sturm counts put lambda_max within
# x (1 -+ CERTIFY), 16 units in the last place; on those draws x lands
# within 4.
CERTIFY = 2.0 ** -48
# Laguerre raises each pivot's magnitude to at least this, in the column's
# scaled units, so that reciprocals and derivative terms stay finite. Above
# lambda_max every pivot is at least x - lambda_max in magnitude, and that
# is at least 2**-55 while x has not reached lambda_max (at least 1/6 once
# scaled), so the floor acts only on a converged x or one clipped below it.
PIVOT_FLOOR = 2.0 ** -80


def _sturm_above(diag, off_sq, x, pivots):
    """True per column where x lies above every eigenvalue: every pivot of
    the LDL^T factorization of the tridiagonal - x I is negative (Sturm count
    N). Pivots of magnitude at most the smallest normal float count as
    negative and are replaced by its negative, as in LAPACK's dstebz; the
    columns are scaled so that no off_sq exceeds 1. pivots is scratch shaped
    like diag."""
    np.subtract(diag, x, out=pivots)
    neg_pivmin = np.full_like(x, -np.finfo(float).tiny)
    guarded = np.empty_like(x)
    for prev, row, b_sq in zip(pivots, pivots[1:], off_sq):
        np.minimum(prev, neg_pivmin, out=guarded)
        np.divide(b_sq, guarded, out=guarded)
        row -= guarded
    return pivots.max(axis=0) <= -neg_pivmin


def _bisect(diag, off_sq, lo, hi, steps, pivots):
    """Halve each column's bracket [lo, hi] around lambda_max steps times."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        above = _sturm_above(diag, off_sq, mid, pivots)
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return lo, hi


def _laguerre(diag, off_sq, lo, hi, x_minus_a):
    """LAGUERRE_STEPS Laguerre steps from hi, kept at or above lo.

    With q_i = -d_i the negated LDL^T pivots of the tridiagonal - x I
    (positive above lambda_max), f = det(x I - T) = prod q_i, so
    G = f'/f = sum u_i and H = -G' = sum (2 z_i - u_i^2), where
    u_i = q_i'/q_i = r_i + k_i u_{i-1} and z_i = u_i^2 + k_i z_{i-1}, with
    r_i = 1/q_i and k_i = b_{i-1}^2 r_{i-1} r_i. Each |q_i| is raised to at
    least PIVOT_FLOOR, so every term stays finite below lambda_max too, where
    the step means nothing and lo clips it. x_minus_a is scratch shaped like
    diag."""
    N, n = diag.shape
    floor, one, zero = np.full(n, PIVOT_FLOOR), np.ones(n), np.zeros(n)
    terms, sums = np.empty((3, n)), np.empty((3, n))
    u, z, u_sq = terms
    b_sq_r, q, r, k = np.empty((4, n))
    x = hi
    for _ in range(LAGUERRE_STEPS):
        np.subtract(x, diag, out=x_minus_a)
        r[...] = terms[...] = sums[...] = 0.0
        for row, b_sq in zip(x_minus_a, chain([zero], off_sq)):
            np.multiply(b_sq, r, out=b_sq_r)
            np.subtract(row, b_sq_r, out=q)
            np.abs(q, out=q)
            np.maximum(q, floor, out=q)
            np.divide(one, q, out=r)
            np.multiply(b_sq_r, r, out=k)
            np.multiply(u, k, out=u)
            u += r
            np.multiply(z, k, out=z)
            np.multiply(u, u, out=u_sq)
            z += u_sq
            sums += terms
        g, h = sums[0], 2.0 * sums[1] - sums[2]
        root = np.sqrt((N - 1) * np.maximum(N * h - g * g, 0.0))
        x = np.maximum(x - N / np.maximum(g + root, N), lo)
    return x


def gram_top_eigenvalue(diag_sq: np.ndarray, super_sq: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of B^T B for upper-bidiagonal B, from the squared
    entries: diag_sq (N, n) holds B_ii^2, super_sq (N - 1, n) holds
    B_i,i+1^2, one column per matrix. Returns shape (n,).

    B^T B is tridiagonal with diagonal B_ii^2 + B_i-1,i^2 and squared
    off-diagonal B_ii^2 B_i,i+1^2. Each column is scaled by the power of two
    just above its Gershgorin bound, which is exact, so every entry and
    eigenvalue is below 1 and the pivot floors need no per-matrix factor.
    Every step acts on each column alone, so a column's result does not
    depend on its batch-mates.
    """
    diag = diag_sq.astype(float)
    diag[1:] += super_sq
    off_sq = diag_sq[:-1] * super_sq
    work = np.empty_like(diag)                 # Gershgorin bounds, then pivots
    work[0] = 0.0
    np.sqrt(off_sq, out=work[1:])
    for row, below in zip(work, work[1:]):     # |b_i-1| + |b_i|, in place
        row += below
    work += diag
    gershgorin = work.max(axis=0)
    scale = np.frexp(gershgorin)[1]
    np.ldexp(diag, -scale, out=diag)
    np.ldexp(off_sq, -2 * scale, out=off_sq)

    lo, hi = _bisect(diag, off_sq, diag.max(axis=0), np.ldexp(gershgorin, -scale), HALVINGS,
                     work)
    x = _laguerre(diag, off_sq, lo, hi, work)
    low, high = x * (1 - CERTIFY), x * (1 + CERTIFY)
    reached = ~_sturm_above(diag, off_sq, low, work)
    passed = _sturm_above(diag, off_sq, high, work)
    loose = np.flatnonzero(~(reached & passed))
    if loose.size:
        lo = np.where(reached, np.maximum(lo, low), lo)[loose]
        hi = np.where(passed, np.minimum(hi, high), hi)[loose]
        diag = diag[:, loose]
        lo, hi = _bisect(diag, off_sq[:, loose], lo, hi, BISECTION_STEPS - HALVINGS,
                         np.empty_like(diag))
        x[loose] = 0.5 * (lo + hi)
    return np.ldexp(x, scale)


def bidiagonal_chi_squares(rng: np.random.Generator, N: int, n: int):
    """(diag_sq (N, n), super_sq (N - 1, n)) of n draws of B from one chisquare
    call: B_ii^2 ~ chi^2_{2(N-i+1)} and B_i,i+1^2 ~ chi^2_{2(N-i)}, i = 1..N."""
    dof = 2 * np.concatenate((np.arange(N, 0, -1), np.arange(N - 1, 0, -1)))
    chi_sq = rng.chisquare(dof[:, None], (2 * N - 1, n))
    return chi_sq[:N], chi_sq[N:]


def batched_op_norms(rng: np.random.Generator, params: SystemParams, n: int) -> np.ndarray:
    """Largest singular value of n independent draws of G with i.i.d.
    CN(0, beta_g) entries, shape (n,), drawn from the bidiagonal model.

    The test suite checks it against a dense SVD of the same bidiagonal and
    against the Sturm bisection it replaced (tests/oracles.py) and, in law,
    against SVDs of dense G draws.
    """
    lam = gram_top_eigenvalue(*bidiagonal_chi_squares(rng, params.n_antennas, n))
    return np.sqrt(0.5 * params.beta_g * lam)
