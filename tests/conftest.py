import os

# One BLAS thread, before numpy loads BLAS: the oracles' many small products
# slow down by orders of magnitude when BLAS threads contend for the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracemalloc  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from itertools import product  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from otasync.config import default_params  # noqa: E402

# sigma_nu^2 at the default parameters (test_config pins derive_sigma_nu to it)
SIGMA_REF = 3.9478417604357436e-05


@pytest.fixture
def params():
    """Default scenario parameters."""
    return default_params()


@pytest.fixture
def tiny_params():
    """Smallest consistent geometry: K=1, tau_c=4 (i1=2, i2=4)."""
    return default_params(n_ues=1, tau_u=1, tau_g=0, tau_d=2, tau_c=4,
                          beta_ue=0.01, eta=1.0)


def traced_peak(call, *args, **kwargs):
    """(call(*args, **kwargs), the call's peak traced allocation in bytes)."""
    tracemalloc.start()
    try:
        return call(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def small_instance(**overrides):
    """Reduced-dimension parameters for brute-force oracles."""
    base = dict(n_antennas=8, n_ues=2, tau_u=46, tau_d=46, tau_c=100,
                beta_ue=0.01, eta=0.5)
    base.update(overrides)
    return default_params(**base)


# Slot geometries that both schedules accept (the broken slot needs
# tau_u > tau_g and tau_d > tau_g + 1): the reference scenario, then the 64
# corners of K in 1..12, tau_g in 0..5, tau_u - tau_g in 1..40,
# tau_d - tau_g in 2..40 and F in 1..4, then 100 seeded draws over them.
_DRAWN = np.random.default_rng(12).integers((1, 0, 1, 2, 1), (13, 6, 41, 41, 5), (100, 5))
GEOMETRIES = (default_params(), *(
    default_params(n_ues=k, tau_g=g, tau_u=g + du, tau_d=g + dd, tau_c=k + du + dd + 4 * g,
                   frame_len=f)
    for k, g, du, dd, f in [*product((1, 12), (0, 5), (1, 40), (2, 40), (1, 2, 3, 4)),
                            *_DRAWN.tolist()]))


@contextmanager
def at_geometry(p, *labels):
    """Re-raise any error in the block as an AssertionError that names the
    geometry p (and the labels); the original error is chained to it."""
    try:
        yield
    except Exception as exc:
        where = f"K={p.n_ues} tau_g={p.tau_g} tau_u={p.tau_u} tau_d={p.tau_d} F={p.frame_len}"
        raise AssertionError(" ".join(("at", where, *labels))) from exc
