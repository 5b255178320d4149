import math

import numpy as np
import pytest

from otasync.config import default_params
from otasync.tracking import KalmanState, NoiseModel, derive_noise_model, kalman_gain, \
    kalman_init, kalman_update, noise_coefficients, representative_ue, track, wrap
from tests.conftest import SIGMA_REF


def test_wrap_boundary_table():
    assert wrap(0.0) == 0.0
    assert wrap(math.pi) == -math.pi           # (2pi mod 2pi) = 0, minus pi
    assert wrap(2.5 * math.pi) == pytest.approx(0.5 * math.pi, abs=1e-15)
    assert wrap(-math.pi) == -math.pi
    assert wrap(7.0) == pytest.approx(7.0 - 2 * math.pi, abs=1e-15)


def test_wrap_rejects_nonfinite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            wrap(bad)


def test_wrap_congruence_and_range():
    # seeded angles in +-1e6, then the edges with both signs: zero, the
    # smallest subnormal, pi and the float above it, 2 pi, odd multiples of pi
    # near 1e6 (318309 pi = 999997.3) and 1e6
    edges = np.array([0.0, 5e-324, np.pi, np.nextafter(np.pi, 4), 2 * np.pi, 318307 * np.pi,
                      318309 * np.pi, 1e6])
    angle = np.concatenate((np.random.default_rng(8).uniform(-1e6, 1e6, 10_000), edges, -edges))
    w = wrap(angle)
    k = (angle - w) / (2 * math.pi)
    bad = ~((-math.pi <= w) & (w < math.pi) & (np.abs(k - np.round(k)) < 1e-6))
    assert not bad.any(), angle[bad]


def test_representative_ue():
    assert representative_ue(10) == 5
    assert representative_ue(1) == 1  # clamped: floor(1/2)=0 is not a UE index


def test_noise_coefficients_reference_geometry():
    # C5 owns F = 1's (432, 94)
    c_zeta, _ = noise_coefficients(default_params(frame_len=3))
    assert c_zeta == 8 * 300 - 4 * 92


def test_derive_noise_model_values():
    p = default_params()
    model = derive_noise_model(p, op_norm=math.sqrt(0.05))
    assert model.sigma_zeta_sq == pytest.approx(432 * SIGMA_REF, rel=1e-12)
    assert model.sigma_xi_sq == pytest.approx(94 * SIGMA_REF, rel=1e-12)
    assert model.meas_var == pytest.approx(0.1, rel=1e-12)


def test_derive_noise_model_zero_quality():
    p = default_params(c_nu=0.0)
    model = derive_noise_model(p, op_norm=1.0)
    assert model.sigma_zeta_sq == 0.0 and model.sigma_xi_sq == 0.0


def test_noise_model_ordering_enforced():
    with pytest.raises(ValueError):
        NoiseModel(sigma_zeta_sq=1.0, sigma_xi_sq=2.0, meas_var=0.1)


def test_kalman_init():
    model = NoiseModel(sigma_zeta_sq=0.017055, sigma_xi_sq=0.003711, meas_var=0.1)
    state = kalman_init(0.4, model)
    assert state.alpha_hat == 0.4
    assert state.p_var == pytest.approx(0.103711, rel=1e-12)
    # independent of sigma_zeta_sq
    other = NoiseModel(sigma_zeta_sq=9.0, sigma_xi_sq=0.003711, meas_var=0.1)
    assert kalman_init(0.4, other).p_var == state.p_var


def test_kalman_init_zero_noise():
    model = NoiseModel(sigma_zeta_sq=0.0, sigma_xi_sq=0.0, meas_var=0.0)
    assert kalman_init(1.0, model).p_var == 0.0


def test_kalman_per_run_arrays_match_scalar_steps():
    # array state and per-run meas_var: each run follows the scalar recursion
    p = default_params()
    rng = np.random.default_rng(3)
    op_norm = rng.uniform(0.05, 0.5, 6)
    obs = rng.uniform(-np.pi, np.pi, (4, 6))
    model = derive_noise_model(p, op_norm)
    state = kalman_init(obs[0], model)
    for row in obs[1:]:
        state = kalman_update(state, row, model)
    kalman = list(track(obs, model, "kalman"))
    for r in range(6):
        one = derive_noise_model(p, float(op_norm[r]))
        ref = kalman_init(float(obs[0, r]), one)
        for row in obs[1:]:
            ref = kalman_update(ref, float(row[r]), one)
        assert state.alpha_hat[r] == ref.alpha_hat
        assert state.p_var[r] == ref.p_var
        # track runs the same recursion on one run as on many
        assert [(s.alpha_hat, s.p_var, s.kappa) for s in track(obs[:, r], one, "kalman")] \
            == [(s.alpha_hat[r], s.p_var[r], np.broadcast_to(s.kappa, 6)[r]) for s in kalman]
    # track's kalman ends at the loop's state, and each frame's gain is
    # kalman_gain of the previous frame's variance (1 at the start)
    assert np.array_equal(kalman[-1].alpha_hat, state.alpha_hat)
    assert np.array_equal(kalman[-1].p_var, state.p_var)
    assert kalman[0].kappa == 1.0
    for prev, cur in zip(kalman, kalman[1:]):
        assert np.array_equal(cur.kappa, kalman_gain(prev.p_var, model))
    # direct passes every measurement through, with gain 1 and kalman_init's variance
    direct = list(track(obs, model, "direct"))
    assert len(direct) == len(obs)
    for row, s in zip(obs, direct):
        assert np.array_equal(s.alpha_hat, row) and s.kappa == 1.0
        assert np.array_equal(s.p_var, kalman_init(row, model).p_var)
    with pytest.raises(ValueError):
        derive_noise_model(p, np.array([0.1, 0.0]))
    with pytest.raises(ValueError):
        NoiseModel(sigma_zeta_sq=1.0, sigma_xi_sq=0.5, meas_var=np.array([0.1, -0.1]))


def test_kalman_uninformative_observation():
    model = NoiseModel(sigma_zeta_sq=0.017, sigma_xi_sq=0.003, meas_var=1e18)
    state = KalmanState(alpha_hat=0.5, p_var=0.01)
    new = kalman_update(state, 3.0, model)
    assert kalman_gain(state.p_var, model) < 1e-15
    assert new.alpha_hat == pytest.approx(0.5, abs=1e-12)


def test_kalman_symmetric_uncorrelated_case():
    v = 0.37
    model = NoiseModel(sigma_zeta_sq=0.0, sigma_xi_sq=0.0, meas_var=v)
    assert kalman_gain(v, model) == pytest.approx(0.5, rel=1e-12)


def test_gain_monotonicity():
    model = NoiseModel(sigma_zeta_sq=0.02, sigma_xi_sq=0.004, meas_var=0.1)
    ps = np.linspace(0.001, 1.0, 50)
    gains = np.array([kalman_gain(p, model) for p in ps])
    assert np.all(np.diff(gains) > 0)  # increasing in P
    ms = np.linspace(0.001, 1.0, 50)
    gains_m = np.array([kalman_gain(0.05, NoiseModel(0.02, 0.004, m)) for m in ms])
    assert np.all(np.diff(gains_m) < 0)  # decreasing in meas_var


def test_gain_limits():
    # meas_var -> 0 with sigma_xi fixed: kappa -> (P+xi)/(P+3xi) < 1
    p, xi = 0.05, 0.004
    model = NoiseModel(sigma_zeta_sq=0.02, sigma_xi_sq=xi, meas_var=1e-15)
    assert kalman_gain(p, model) == pytest.approx((p + xi) / (p + 3 * xi), rel=1e-9)
    assert kalman_gain(p, model) < 1
    # meas_var -> 0 and sigma_xi -> 0: kappa -> 1
    model2 = NoiseModel(sigma_zeta_sq=0.02, sigma_xi_sq=1e-18, meas_var=1e-18)
    assert kalman_gain(p, model2) == pytest.approx(1.0, abs=1e-12)


def test_variance_converges_to_fixed_point():
    model = NoiseModel(sigma_zeta_sq=432 * SIGMA_REF, sigma_xi_sq=94 * SIGMA_REF,
                       meas_var=0.1235)
    state = kalman_init(0.0, model)
    prev = state.p_var
    converged = False
    for _ in range(1000):
        state = kalman_update(state, 0.0, model)
        if abs(state.p_var - prev) < 1e-12:
            converged = True
            break
        prev = state.p_var
    assert converged
    # Riccati fixed point: P = P - kappa (P + xi) + zeta within 1e-10
    kappa = kalman_gain(state.p_var, model)
    resid = kappa * (state.p_var + model.sigma_xi_sq) - model.sigma_zeta_sq
    assert abs(resid) < 1e-10
    assert state.p_var >= 0


def test_tracking_beats_direct_in_measured_world():
    # empirical squared error of the filter output vs the raw measurement over
    # >= 1e4 frames in the reference regime (meas_var >= sigma_zeta_sq)
    from otasync.compensation import run_phase_trace
    p = default_params()  # SNR_AP = -15 dB: meas_var ~ 0.13 >> sigma_zeta ~ 0.017
    rows_k = run_phase_trace(p, 10_500, master_seed=77, scheme="kalman")
    rows_d = run_phase_trace(p, 10_500, master_seed=77, scheme="direct")
    err_k = np.mean([wrap(r["alpha_hat"] - r["alpha_true"]) ** 2 for r in rows_k[500:]])
    err_d = np.mean([wrap(r["alpha_hat"] - r["alpha_true"]) ** 2 for r in rows_d[500:]])
    print(f"tracking MSE: kalman {err_k:.4f} vs direct {err_d:.4f}")
    assert err_k <= err_d
