"""Complex Gaussian draws and the per-run operator norm of the inter-array
channel, the only property of G that the Monte Carlo engine needs.
"""

from __future__ import annotations

import numpy as np

from .config import SystemParams


def complex_normal(rng: np.random.Generator, shape, variance=1.0) -> np.ndarray:
    """Circularly-symmetric complex Gaussian with per-entry variance."""
    scale = np.sqrt(np.asarray(variance) / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def batched_op_norms(rng: np.random.Generator, params: SystemParams, n: int) -> np.ndarray:
    """Largest singular value of n independent G draws (i.i.d. CN(0, beta_g)
    entries), shape (n,).

    LAPACK-backed; the test suite cross-checks it against a power-iteration
    leading singular pair.
    """
    g = complex_normal(rng, (n, params.n_antennas, params.n_antennas), params.beta_g)
    return np.linalg.svd(g, compute_uv=False)[:, 0]
