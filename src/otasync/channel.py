"""Per-run operator norm of the inter-array channel, the only property of G
that the Monte Carlo engine needs.

For G with i.i.d. CN(0, 1) entries, the singular values of G have exactly the
law of those of a real upper-bidiagonal B / sqrt(2) with diagonal
chi_{2N}, chi_{2N-2}, ..., chi_2 and superdiagonal chi_{2N-2}, ..., chi_2
(Dumitriu & Edelman, "Matrix models for beta ensembles", J. Math. Phys. 43,
2002). The engine draws B and finds the top eigenvalue of the tridiagonal
B^T B by Sturm-count bisection, in O(N) memory and O(N) work per step.
"""

from __future__ import annotations

import numpy as np

from .config import SystemParams

# The starting bracket [max diag, Gershgorin bound] of B^T B is at most 3x its
# top eigenvalue wide, so 53 halvings leave the midpoint within
# 3 * 2**-54 < 2**-52 of it, relative: float64 resolution.
BISECTION_STEPS = 53


def gram_top_eigenvalue(diag_sq: np.ndarray, super_sq: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of B^T B for upper-bidiagonal B, from the squared
    entries: diag_sq (N, n) holds B_ii^2, super_sq (N - 1, n) holds
    B_i,i+1^2, one column per matrix. Returns shape (n,).

    B^T B is tridiagonal with diagonal B_ii^2 + B_i-1,i^2 and squared
    off-diagonal B_ii^2 B_i,i+1^2. x lies above every eigenvalue exactly when
    every pivot of the LDL^T factorization of B^T B - x I is negative (Sturm
    count N); pivots of magnitude at most the matrix's own `pivmin` count as
    negative and are replaced by -pivmin, as in LAPACK's dstebz.
    """
    diag = diag_sq.astype(float)
    diag[1:] += super_sq
    off_sq = diag_sq[:-1] * super_sq
    pivmin = np.finfo(float).tiny * np.maximum(1.0, off_sq.max(axis=0, initial=0.0))

    lo = diag.max(axis=0)                      # lambda_max >= every diagonal entry
    pivots = diag.copy()                       # Gershgorin bounds first, then the pivots
    off = np.sqrt(off_sq)
    pivots[:-1] += off
    pivots[1:] += off
    hi = pivots.max(axis=0)

    guarded, neg_pivmin = np.empty_like(lo), -pivmin
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        np.subtract(diag, mid, out=pivots)
        for i in range(1, diag.shape[0]):
            np.minimum(pivots[i - 1], neg_pivmin, out=guarded)
            np.divide(off_sq[i - 1], guarded, out=guarded)
            pivots[i] -= guarded
        above = pivots.max(axis=0) <= pivmin
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


def batched_op_norms(rng: np.random.Generator, params: SystemParams, n: int) -> np.ndarray:
    """Largest singular value of n independent draws of G with i.i.d.
    CN(0, beta_g) entries, shape (n,), drawn from the bidiagonal model.

    The test suite checks it against a dense SVD of the same bidiagonal and,
    in law, against SVDs of dense G draws.
    """
    N = params.n_antennas
    dof = 2 * np.concatenate((np.arange(N, 0, -1), np.arange(N - 1, 0, -1)))
    chi_sq = rng.chisquare(dof[:, None], (2 * N - 1, n))
    return np.sqrt(0.5 * params.beta_g * gram_top_eigenvalue(chi_sq[:N], chi_sq[N:]))
