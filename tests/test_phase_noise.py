import numpy as np
import pytest

from otasync.phase_noise import wiener_values_at
from tests.conftest import SIGMA_REF
from tests.oracles import generate_trajectory


def test_zero_variance_is_constant():
    traj = generate_trajectory(0, 5, 0.0, initial_phase=0.3)
    assert np.array_equal(traj, np.full(5, 0.3))


def test_deterministic_given_seed():
    a = generate_trajectory(123, 1000, SIGMA_REF, initial_phase=1.0)
    b = generate_trajectory(123, 1000, SIGMA_REF, initial_phase=1.0)
    assert np.array_equal(a, b)


def test_initial_value_and_length():
    traj = generate_trajectory(5, 17, SIGMA_REF, initial_phase=-2.5)
    assert traj.shape == (17,)
    assert traj[0] == -2.5


def test_invalid_length():
    with pytest.raises(ValueError):
        generate_trajectory(0, 0, SIGMA_REF)


def test_increment_variance_band():
    # generous band around the chi-square 3-sigma interval at 1e6 steps
    traj = generate_trajectory(7, 10**6, SIGMA_REF)
    var = np.var(np.diff(traj), ddof=1)
    assert 3.86e-5 <= var <= 4.04e-5


def test_variance_linear_in_lag():
    # Var(nu_{i+m} - nu_i) = m sigma^2: slope of a through-origin fit within 5%
    v = generate_trajectory(11, 2 * 10**5, SIGMA_REF)
    lags = np.array([1, 4, 16, 64])
    variances = np.array([np.var(v[m:] - v[:-m], ddof=1) for m in lags])
    slope = np.sum(lags * variances) / np.sum(lags * lags)
    assert slope == pytest.approx(SIGMA_REF, rel=0.05)
    # and the intercept-free model explains the data (origin crossing)
    resid = variances - slope * lags
    assert np.all(np.abs(resid) < 0.25 * variances)


def test_independent_streams_uncorrelated():
    n = 10**6
    a = generate_trajectory(np.random.SeedSequence(99, spawn_key=(0,)), n, SIGMA_REF)
    b = generate_trajectory(np.random.SeedSequence(99, spawn_key=(1,)), n, SIGMA_REF)
    da, db = np.diff(a), np.diff(b)
    corr = np.corrcoef(da, db)[0, 1]
    assert abs(corr) < 0.01


def test_sparse_sampling_matches_dense_law():
    # wiener_values_at on a grid has the same first/second moments as a dense
    # walk read at the grid: check increment variances across many paths
    rng = np.random.default_rng(17)
    gaps = np.array([4, 47, 4, 41])
    start = np.zeros(20000)
    vals = wiener_values_at(rng, start, gaps, SIGMA_REF)
    incs = np.diff(np.concatenate([start[:, None], vals], axis=1), axis=1)
    emp = incs.var(axis=0, ddof=1)
    expect = gaps * SIGMA_REF
    assert np.allclose(emp, expect, rtol=0.08)
    # zero gap means the value is carried over exactly
    vals2 = wiener_values_at(rng, start, np.array([0]), SIGMA_REF)
    assert np.array_equal(vals2[:, 0], start)


def test_sparse_sampling_rejects_negative_gap():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        wiener_values_at(rng, np.zeros(3), np.array([-1]), SIGMA_REF)
