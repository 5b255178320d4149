"""Per-array Wiener (random-walk) oscillator phase processes.

Each array's local oscillator phase advances by i.i.d. N(0, sigma_nu^2)
per sample. Phases are stored unwrapped; wrapping happens only where the
downstream math demands it.
"""

from __future__ import annotations

import numpy as np


def wiener_values_at(rng: np.random.Generator, start_values: np.ndarray,
                     gaps: np.ndarray, sigma_nu_sq: float) -> np.ndarray:
    """Exact sparse sampling of Wiener paths at an increasing index grid.

    start_values has shape (..., n_paths); gaps[j] is the number of samples
    between grid point j and its predecessor (the first gap is measured from
    the instant where start_values holds). Returns shape (..., n_paths, m).
    The restriction of a Wiener path to a grid has exactly this law, so the
    result is interchangeable with a dense cumulative walk read at the grid.
    """
    gaps = np.asarray(gaps)
    if np.any(gaps < 0):
        raise ValueError("grid must be nondecreasing")
    std = np.sqrt(gaps * sigma_nu_sq)
    inc = rng.standard_normal(start_values.shape + (gaps.size,)) * std
    return start_values[..., None] + np.cumsum(inc, axis=-1)

