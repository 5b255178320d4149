"""Inter-array phase tracking: direct pass-through or a scalar Kalman filter
whose process and observation noises are correlated (the observation drift is
contained in the process drift), absorbed into the closed-form gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, SystemParams, derive_sigma_nu
from .timeline import sync_instants

TRACKERS = ("kalman", "direct")   # the schemes that track the sync measurements


def wrap(angle):
    """Map to [-pi, pi): ((angle + pi) mod 2pi) - pi. Accepts scalars/arrays."""
    if not np.all(np.isfinite(angle)):
        raise ValueError("wrap() requires finite input")
    wrapped = np.mod(np.asarray(angle, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    # the mod rounds angle + pi up to 2 pi for an angle just below -pi
    wrapped = np.where(wrapped >= np.pi, -np.pi, wrapped)
    return float(wrapped) if np.isscalar(angle) or np.ndim(angle) == 0 else wrapped


def representative_ue(n_ues: int) -> int:
    """UE index whose pilot instant stands in for all UEs' estimation times
    (floor(K/2), clamped to a valid 1-based index for tiny K)."""
    return max(1, n_ues // 2)


def noise_coefficients(params: SystemParams):
    """Integer multiples of sigma_nu^2 for the process/observation drifts:
    (8 F tau_c - 4 (i2 - floor(K/2)), 2 (i1 - floor(K/2))).
    """
    i1, i2 = sync_instants(params)
    k_rep = representative_ue(params.n_ues)
    c_zeta = 8 * params.frame_len * params.tau_c - 4 * (i2 - k_rep)
    c_xi = 2 * (i1 - k_rep)
    return c_zeta, c_xi


# the ceiling on every variance the engine forms, and the smallest
# lambda_max(B^T B) (otasync.channel) it covers; README, "Variance ceiling"
VARIANCE_MAX = 2.0 ** 1000
LAMBDA_MIN = 2.0 ** -60


def lambda_cap(n_antennas: int) -> float:
    """4 N^2 + 3000 ln 2, which lambda_max(B^T B) exceeds with probability
    below 2^-1000 per draw: lambda_max <= tr(B^T B) ~ chi^2_k, k = 2 N^2, and
    P(chi^2_k >= 2k + 3t) <= P(chi^2_k >= k + 2 sqrt(k t) + 2t) <= e^-t
    (Laurent and Massart, Ann. Statist. 28, 2000) at t = 1000 ln 2."""
    return 4.0 * n_antennas * n_antennas + 3000 * math.log(2)


def check_variances(params: SystemParams):
    """ConfigError unless sigma_zeta^2, above every other drift variance the
    engine forms, and the measurement variance 1/(rho_ap ||G||^2) at
    ||G||^2 = beta_g LAMBDA_MIN / 2 are at most VARIANCE_MAX, and so are
    ||G||^2 and rho_ap ||G||^2 at lambda = lambda_cap(N)."""
    c_zeta, _ = noise_coefficients(params)
    sigma_zeta_sq = c_zeta * derive_sigma_nu(params)
    if not sigma_zeta_sq <= VARIANCE_MAX:
        raise ConfigError(f"sigma_zeta^2 = {c_zeta} sigma_nu^2 = {sigma_zeta_sq:.3g} exceeds "
                          "the variance ceiling 2^1000")
    if not params.rho_ap * params.beta_g >= 2 / (LAMBDA_MIN * VARIANCE_MAX):
        raise ConfigError(f"rho_ap * beta_g = {params.rho_ap * params.beta_g:.3g} is below "
                          "2^-939, where 1/(rho_ap ||G||^2) can exceed the variance ceiling 2^1000")
    if not max(0.5, params.rho_ap) * params.beta_g * lambda_cap(params.n_antennas) <= VARIANCE_MAX:
        raise ConfigError(f"beta_g = {params.beta_g:.3g} and rho_ap = {params.rho_ap:.3g} at "
                          f"N = {params.n_antennas}: ||G||^2 or rho_ap ||G||^2 can exceed the "
                          "variance ceiling 2^1000")


@dataclass(frozen=True)
class NoiseModel:
    """Variances driving the tracker: inter-measurement drift (sigma_zeta_sq),
    estimation-instant offset drift (sigma_xi_sq), and the over-the-air
    measurement error 1/(rho_ap ||G||^2) (meas_var: a scalar, or one value
    per run when the tracker state holds many runs)."""

    sigma_zeta_sq: float
    sigma_xi_sq: float
    meas_var: float | np.ndarray

    def __post_init__(self):
        if min(self.sigma_zeta_sq, self.sigma_xi_sq) < 0 or np.any(self.meas_var < 0):
            raise ValueError("noise variances must be nonnegative")
        if self.sigma_xi_sq > self.sigma_zeta_sq + 1e-15:
            raise ValueError("sigma_xi_sq must not exceed sigma_zeta_sq")


def derive_noise_model(params: SystemParams, op_norm) -> NoiseModel:
    """Noise model for a scalar op_norm or an array of per-run op norms."""
    c_zeta, c_xi = noise_coefficients(params)
    sig2 = derive_sigma_nu(params)
    if np.any(op_norm <= 0):
        raise ValueError(f"op_norm must be positive, got {np.min(op_norm)}")
    return NoiseModel(sigma_zeta_sq=c_zeta * sig2, sigma_xi_sq=c_xi * sig2,
                      meas_var=1.0 / (params.rho_ap * op_norm**2))


@dataclass(frozen=True)
class KalmanState:
    """Tracker output, its model variance and the gain that formed it (1 at a
    fresh start): scalars for one run, or arrays with one entry per run."""

    alpha_hat: float | np.ndarray
    p_var: float | np.ndarray
    kappa: float | np.ndarray = 1.0


def kalman_init(first_obs, model: NoiseModel) -> KalmanState:
    """No prior: start at the first raw measurement with its own error
    variance (the initial offset is uniform on the circle, so any fixed prior
    would bias the wrap)."""
    return KalmanState(alpha_hat=first_obs, p_var=model.sigma_xi_sq + model.meas_var)


def kalman_gain(p_var, model: NoiseModel):
    """kappa = (P + sigma_xi^2) / (P + 3 sigma_xi^2 + meas_var)."""
    return (p_var + model.sigma_xi_sq) / (p_var + 3.0 * model.sigma_xi_sq + model.meas_var)


def kalman_update(state: KalmanState, obs, model: NoiseModel) -> KalmanState:
    """One measurement step, formulas applied verbatim and in order:
    gain, wrapped-innovation state update, variance update."""
    kappa = kalman_gain(state.p_var, model)
    alpha_hat = state.alpha_hat + kappa * wrap(obs - state.alpha_hat)
    p_var = state.p_var - kappa * (state.p_var + model.sigma_xi_sq) + model.sigma_zeta_sq
    return KalmanState(alpha_hat=alpha_hat, p_var=p_var, kappa=kappa)


def track(obs, model: NoiseModel, scheme: str):
    """Run scheme's tracker over obs, one measurement per frame along the
    first axis, and yield each frame's KalmanState. kalman starts from the
    first measurement and updates on each later one; direct starts afresh in
    every frame, so its output is that frame's measurement, with gain 1 and
    kalman_init's variance, which is the same in every frame of one call."""
    state = None
    for row in obs:
        if state is None:
            state = kalman_init(row, model)
        elif scheme == "direct":
            state = KalmanState(alpha_hat=row, p_var=state.p_var)
        else:
            state = kalman_update(state, row, model)
        yield state
