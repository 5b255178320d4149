import os

# One BLAS thread, before numpy loads BLAS: the oracles' many small products
# slow down by orders of magnitude when BLAS threads contend for the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracemalloc  # noqa: E402

import pytest  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from otasync.config import default_params  # noqa: E402


@pytest.fixture
def params():
    """Default scenario parameters."""
    return default_params()


@pytest.fixture
def tiny_params():
    """Smallest consistent geometry: K=1, tau_c=4 (i1=2, i2=4)."""
    return default_params(n_ues=1, tau_p=1, tau_u=1, tau_g=0, tau_d=2, tau_c=4,
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
    base = dict(n_antennas=8, n_ues=2, tau_p=2, tau_u=46, tau_d=46, tau_c=100,
                beta_ue=0.01, eta=0.5)
    base.update(overrides)
    return default_params(**base)


@st.composite
def geometries(draw):
    """Slot geometries that both schedules accept (the broken slot needs
    tau_u > tau_g and tau_d > tau_g + 1), with F = 1..4 slots per frame."""
    k, g = draw(st.integers(1, 12)), draw(st.integers(0, 5))
    u, d = draw(st.integers(g + 1, g + 40)), draw(st.integers(g + 2, g + 40))
    return default_params(n_ues=k, tau_p=k, tau_u=u, tau_g=g, tau_d=d,
                          tau_c=k + u + d + 2 * g, frame_len=draw(st.integers(1, 4)),
                          eta=1.0 / k)
