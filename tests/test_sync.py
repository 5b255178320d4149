import numpy as np
import pytest

from otasync.config import default_params
from otasync.tracking import derive_noise_model
from tests.oracles import PhaseTrajectory, combine_bidirectional, complex_normal, \
    generate_trajectory, inter_ap_channel, measure_direction


def _chan_with_norm(n, target_norm_sq, seed=0):
    rng = np.random.default_rng(seed)
    g = complex_normal(rng, (n, n), 1.0)
    return inter_ap_channel(g * np.sqrt(target_norm_sq) / np.linalg.norm(g, 2))


def _flat_traj(value, length=200):
    return PhaseTrajectory(ap_id=1, start_index=1, values=np.full(length, value))


class _NoiselessRng:
    """Stand-in generator whose Gaussian draws are all zero."""

    def standard_normal(self, shape=None):
        return np.zeros(shape) if shape is not None else 0.0


def test_noiseless_angle_exact():
    chan = _chan_with_norm(8, 0.05)
    nu = (_flat_traj(0.4), _flat_traj(-0.9))
    # 2->1: alpha = nu1 - nu2 = 1.3
    a21 = measure_direction(2, 10, chan, nu, 200.0, _NoiselessRng())
    assert a21 == pytest.approx(1.3, abs=1e-10)
    # 1->2: alpha = nu2 - nu1 = -1.3
    a12 = measure_direction(1, 10, chan, nu, 200.0, _NoiselessRng())
    assert a12 == pytest.approx(-1.3, abs=1e-10)


def test_measurement_deterministic_given_seed():
    chan = _chan_with_norm(8, 0.05)
    nu = (_flat_traj(0.1), _flat_traj(0.2))
    a = measure_direction(2, 5, chan, nu, 200.0, np.random.default_rng(42))
    b = measure_direction(2, 5, chan, nu, 200.0, np.random.default_rng(42))
    assert a == b


def test_invalid_tx_ap():
    chan = _chan_with_norm(4, 1.0)
    with pytest.raises(ValueError):
        measure_direction(3, 1, chan, (_flat_traj(0), _flat_traj(0)), 1.0, 0)


@pytest.mark.parametrize("target", [20.0, 100.0, 1000.0])
def test_angle_mse_approximation(target):
    # per-direction MSE ~ 0.5 / (rho ||G||^2) within +-30%
    norm_sq = 0.05
    rho = target / norm_sq
    chan = _chan_with_norm(8, norm_sq)
    nu = (_flat_traj(0.0), _flat_traj(0.3))
    rng = np.random.default_rng(7)
    errs = np.array([measure_direction(2, 1, chan, nu, rho, rng) + 0.3
                     for _ in range(10_000)])
    mse = np.mean(errs**2)
    assert 0.7 * 0.5 / target <= mse <= 1.3 * 0.5 / target


def test_both_directions_same_mse_scaling():
    norm_sq = 0.05
    rho = 100.0 / norm_sq
    chan = _chan_with_norm(8, norm_sq, seed=3)
    nu = (_flat_traj(0.0), _flat_traj(0.0))
    rng = np.random.default_rng(8)
    for tx in (1, 2):
        errs = np.array([measure_direction(tx, 1, chan, nu, rho, rng)
                         for _ in range(10_000)])
        assert np.mean(errs**2) == pytest.approx(0.5 / 100.0, rel=0.3)


def test_combine_constant_offset():
    # nu_1 = 0, nu_2 = c: alpha_21 = -c, alpha_12 = +c, combination = 2c
    assert combine_bidirectional(-0.7, 0.7) == pytest.approx(1.4)


def test_combine_identical_oscillators():
    assert combine_bidirectional(0.25, 0.25) == 0.0


def test_combine_noiseless_wiener_paths():
    p = default_params()
    sig2 = 3.9478417604357436e-05
    nu1 = generate_trajectory(1, 100, sig2, initial_phase=0.0)
    nu2 = generate_trajectory(2, 100, sig2, initial_phase=0.0)
    chan = _chan_with_norm(8, 0.05)
    a21 = measure_direction(2, 52, chan, (nu1, nu2), p.rho_ap, _NoiselessRng())
    a12 = measure_direction(1, 97, chan, (nu1, nu2), p.rho_ap, _NoiselessRng())
    got = combine_bidirectional(a21, a12)
    want = (nu2.value_at(52) + nu2.value_at(97)) - (nu1.value_at(52) + nu1.value_at(97))
    assert got == pytest.approx(want, abs=1e-12)


def test_high_snr_consistency():
    # rho ||G||^2 = 1e6: combined-estimate MSE below 1e-5 rad^2
    norm_sq = 0.05
    rho = 1e6 / norm_sq
    chan = _chan_with_norm(8, norm_sq, seed=5)
    sig2 = 3.9478417604357436e-05
    rng = np.random.default_rng(9)
    errs = []
    for trial in range(2000):
        nu1 = generate_trajectory(rng, 100, sig2)
        nu2 = generate_trajectory(rng, 100, sig2)
        a21 = measure_direction(2, 52, chan, (nu1, nu2), rho, rng)
        a12 = measure_direction(1, 97, chan, (nu1, nu2), rho, rng)
        truth = (nu2.value_at(52) + nu2.value_at(97)) - (nu1.value_at(52) + nu1.value_at(97))
        errs.append(combine_bidirectional(a21, a12) - truth)
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
