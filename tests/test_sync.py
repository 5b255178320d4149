import numpy as np
import pytest

from otasync.config import default_params
from otasync.tracking import derive_noise_model
from tests.conftest import SIGMA_REF
from tests.oracles import channel_with_norm, generate_trajectory, inter_ap_channel, \
    measure_direction


class _NoiselessRng:
    """Stand-in generator whose Gaussian draws are all zero."""

    def standard_normal(self, shape=None):
        return np.zeros(shape) if shape is not None else 0.0


def test_noiseless_angle_exact():
    chan = channel_with_norm(np.random.default_rng(0), 8, 0.05)
    nu = (np.full(200, 0.4), np.full(200, -0.9))
    # 2->1: alpha = nu1 - nu2 = 1.3
    a21 = measure_direction(2, 10, chan, nu, 200.0, _NoiselessRng())
    assert a21 == pytest.approx(1.3, abs=1e-10)
    # 1->2: alpha = nu2 - nu1 = -1.3
    a12 = measure_direction(1, 10, chan, nu, 200.0, _NoiselessRng())
    assert a12 == pytest.approx(-1.3, abs=1e-10)


def test_measurement_deterministic_given_seed():
    chan = channel_with_norm(np.random.default_rng(0), 8, 0.05)
    nu = (np.full(200, 0.1), np.full(200, 0.2))
    a = measure_direction(2, 5, chan, nu, 200.0, np.random.default_rng(42))
    b = measure_direction(2, 5, chan, nu, 200.0, np.random.default_rng(42))
    assert a == b


def test_invalid_tx_ap():
    chan = channel_with_norm(np.random.default_rng(0), 4, 1.0)
    with pytest.raises(ValueError):
        measure_direction(3, 1, chan, (np.zeros(200), np.zeros(200)), 1.0, 0)


def test_stacked_measurement_matches_per_channel_calls():
    # one call over a stack of channels and per-run trajectories gives each
    # run what its own channel and trajectories give alone, in both directions
    rng = np.random.default_rng(11)
    chans = [channel_with_norm(np.random.default_rng(r), 8, 0.05 * (r + 1)) for r in range(5)]
    stack = inter_ap_channel(np.stack([c.g_matrix for c in chans]))
    nu = rng.uniform(-np.pi, np.pi, (2, 5, 30))
    for tx in (1, 2):
        got = measure_direction(tx, 17, stack, nu, 200.0, _NoiselessRng())
        want = [measure_direction(tx, 17, c, nu[:, r], 200.0, _NoiselessRng())
                for r, c in enumerate(chans)]
        assert got.shape == (5,)
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_both_directions_same_mse_scaling():
    norm_sq = 0.05
    rho = 100.0 / norm_sq
    chan = channel_with_norm(np.random.default_rng(3), 8, norm_sq)
    nu = np.zeros((2, 10_000, 1))  # one row per trial
    rng = np.random.default_rng(8)
    for tx in (1, 2):
        errs = measure_direction(tx, 1, chan, nu, rho, rng)
        assert np.mean(errs**2) == pytest.approx(0.5 / 100.0, rel=0.3)


def test_combine_noiseless_wiener_paths():
    p = default_params()
    nu1 = generate_trajectory(1, 100, SIGMA_REF, initial_phase=0.0)
    nu2 = generate_trajectory(2, 100, SIGMA_REF, initial_phase=0.0)
    chan = channel_with_norm(np.random.default_rng(0), 8, 0.05)
    a21 = measure_direction(2, 52, chan, (nu1, nu2), p.rho_ap, _NoiselessRng())
    a12 = measure_direction(1, 97, chan, (nu1, nu2), p.rho_ap, _NoiselessRng())
    want = (nu2[51] + nu2[96]) - (nu1[51] + nu1[96])
    assert a12 - a21 == pytest.approx(want, abs=1e-12)


def test_high_snr_consistency():
    # rho ||G||^2 = 1e6: combined-estimate MSE below 1e-5 rad^2
    norm_sq = 0.05
    rho = 1e6 / norm_sq
    chan = channel_with_norm(np.random.default_rng(5), 8, norm_sq)
    rng = np.random.default_rng(9)
    nu1, nu2 = generate_trajectory(rng, 100, SIGMA_REF, initial_phase=np.zeros((2, 2000)))
    a21 = measure_direction(2, 52, chan, (nu1, nu2), rho, rng)
    a12 = measure_direction(1, 97, chan, (nu1, nu2), rho, rng)
    errs = a12 - a21 - ((nu2[:, 51] + nu2[:, 96]) - (nu1[:, 51] + nu1[:, 96]))
    assert np.mean(np.square(errs)) < 1e-5


def test_measurement_variance_values():
    # combined measurement error variance 1/(rho_ap ||G||^2): the two
    # per-direction angle MSEs of 0.5/(rho_ap ||G||^2) summed
    def measurement_variance(rho_ap, op_norm):
        p = default_params(rho_ap=rho_ap)
        return derive_noise_model(p, op_norm).meas_var

    assert measurement_variance(200.0, np.sqrt(0.05)) == pytest.approx(0.1, rel=1e-12)
    assert measurement_variance(1e12, 1.0) == pytest.approx(1e-12)
    assert measurement_variance(400.0, np.sqrt(0.05)) == \
        pytest.approx(measurement_variance(200.0, np.sqrt(0.05)) / 2)
    with pytest.raises(ValueError):
        measurement_variance(200.0, 0.0)
