"""Operation-level reference code that only the test oracles use.

Dense oscillator trajectories, the full N x N inter-array channel with its
leading singular pair and operator norm from LAPACK's SVD,
N-dimensional sync signals, scalar compensation state, LMMSE estimation and
a brute-force Monte Carlo re-derivation of the rate terms. The engine in
`otasync` works on sparse, exact one-dimensional reductions of this chain;
the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from otasync.config import ConfigError, SystemParams
from otasync.experiment import CSV_COLUMNS, ResultRow
from otasync.tracking import representative_ue


# ---------------------------------------------------------------------------
# oscillator phase trajectories

@dataclass(frozen=True)
class PhaseTrajectory:
    """Unwrapped oscillator phase at consecutive global sample indices."""

    ap_id: int
    start_index: int
    values: np.ndarray

    def value_at(self, i: int) -> float:
        """Phase at global sample index i (1-based, incrementing across slots)."""
        off = i - self.start_index
        if off < 0 or off >= self.values.size:
            raise IndexError(f"sample {i} outside trajectory [{self.start_index}, "
                             f"{self.start_index + self.values.size - 1}]")
        return float(self.values[off])

    def __len__(self):
        return self.values.size


def generate_trajectory(seed, length: int, sigma_nu_sq: float,
                        initial_phase: float = 0.0, ap_id: int = 1,
                        start_index: int = 1) -> PhaseTrajectory:
    """Random-walk phase path: values[0] = initial_phase, then cumulative
    N(0, sigma_nu_sq) steps. Deterministic for a given seed.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if sigma_nu_sq < 0:
        raise ValueError("sigma_nu_sq must be nonnegative")
    rng = np.random.default_rng(seed)
    steps = rng.standard_normal(length - 1) * np.sqrt(sigma_nu_sq)
    values = np.empty(length)
    values[0] = initial_phase
    if length > 1:
        values[1:] = initial_phase + np.cumsum(steps)
    return PhaseTrajectory(ap_id=ap_id, start_index=start_index, values=values)


# ---------------------------------------------------------------------------
# channels: LMMSE coefficient and the inter-array channel

def complex_normal(rng: np.random.Generator, shape, variance=1.0) -> np.ndarray:
    """Circularly-symmetric complex Gaussian with per-entry variance."""
    scale = np.sqrt(np.asarray(variance) / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance: the largest gap between the
    empirical CDFs of a and b. At the 0.1% level it rejects above
    1.949 * sqrt((n + m) / (n m)) (asymptotic)."""
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate((a, b))
    return np.max(np.abs(np.searchsorted(a, x, "right") / a.size
                         - np.searchsorted(b, x, "right") / b.size))


def dense_op_norms(rng: np.random.Generator, params: SystemParams, n: int) -> np.ndarray:
    """Largest singular value of n dense N x N draws of G with i.i.d.
    CN(0, beta_g) entries, by LAPACK SVD: the reference law for
    otasync.channel.batched_op_norms. Holds all n matrices at once."""
    g = complex_normal(rng, (n, params.n_antennas, params.n_antennas), params.beta_g)
    return np.linalg.svd(g, compute_uv=False)[:, 0]


def lmmse_coefficient(params: SystemParams, k: int, ap: int):
    """(c, gamma) for UE k (1-based) and AP ap (1 or 2):
    c = sqrt(rho_ue K) beta / (rho_ue K beta + 1), gamma = sqrt(rho_ue K) beta c.
    """
    beta = params.beta_ue[k - 1, ap - 1]
    amp = np.sqrt(params.rho_ue * params.n_ues)
    c = amp * beta / (params.rho_ue * params.n_ues * beta + 1.0)
    return float(c), float(amp * beta * c)


@dataclass(frozen=True)
class InterApChannel:
    """Static N x N channel between the arrays with its leading singular pair.

    g_matrix @ u2 = op_norm * u1 (u2's largest-magnitude entry rotated to be
    real nonnegative, which pins the pair deterministically).
    """

    g_matrix: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    op_norm: float


def inter_ap_channel(g: np.ndarray) -> InterApChannel:
    """G with its leading singular pair by LAPACK SVD: u2 = conj(Vh[0]), its
    largest-magnitude entry rotated to be real nonnegative, u1 = G u2 / s0 and
    op_norm = s0."""
    g = np.asarray(g, dtype=complex)
    if g.ndim != 2 or not np.any(g):
        raise ValueError("g must be a nonzero matrix")
    _, s, vh = np.linalg.svd(g)
    u2 = np.conj(vh[0])
    peak = u2[np.argmax(np.abs(u2))]
    u2 = u2 * (np.conj(peak) / np.abs(peak))
    return InterApChannel(g_matrix=g, u1=g @ u2 / s[0], u2=u2, op_norm=float(s[0]))


def sample_inter_ap_channel(seed, params: SystemParams) -> InterApChannel:
    """Draw G with i.i.d. CN(0, beta_g) entries and attach its singular data."""
    rng = np.random.default_rng(seed)
    return inter_ap_channel(complex_normal(rng, (params.n_antennas, params.n_antennas),
                                           params.beta_g))


# ---------------------------------------------------------------------------
# over-the-air bidirectional phase measurement
#
# The transmitting array beamforms along the leading singular direction of the
# inter-array channel; the receiver applies the matched filter, so both
# directions reduce to angle(sqrt(rho) ||G||^2 e^{j alpha} + ||G|| CN(0,1)).
# In the 1->2 direction the conjugate of the leading left singular vector is
# transmitted (retrodirective convention), which is what makes the received
# gain equal ||G|| there as well.

def measure_direction(tx_ap: int, time: int, chan: InterApChannel, nu_pair,
                      rho_ap: float, rng) -> float:
    """Angle estimate of alpha = nu_rx[time] - nu_tx[time] from one sync signal.

    Synthesizes the received N-vector (unit-norm beamformer through G or G^T
    plus CN(0, I) noise) and returns the angle of the matched inner product.
    """
    if tx_ap not in (1, 2):
        raise ValueError("tx_ap must be 1 or 2")
    if not hasattr(rng, "standard_normal"):
        rng = np.random.default_rng(rng)
    traj1, traj2 = nu_pair
    if tx_ap == 2:
        alpha = traj1.value_at(time) - traj2.value_at(time)
        propagated = chan.g_matrix @ chan.u2
    else:
        alpha = traj2.value_at(time) - traj1.value_at(time)
        propagated = chan.g_matrix.T @ np.conj(chan.u1)
    z = complex_normal(rng, propagated.shape)
    y = np.sqrt(rho_ap) * np.exp(1j * alpha) * propagated + z
    return float(np.angle(np.vdot(propagated, y)))


def combine_bidirectional(alpha_21: float, alpha_12: float) -> float:
    """Difference of the two directional estimates; no modular reduction here,
    circular handling is deferred to the tracker's innovation wrap."""
    return alpha_12 - alpha_21


# ---------------------------------------------------------------------------
# compensation at the arrays and the UEs, and the residual phase factor

@dataclass
class CompensationState:
    """Piecewise-constant compensation phases: theta for the arrays (theta_1
    is identically zero; theta_2 resets whenever a new tracker output arrives)
    and psi for the UEs (reset at each demodulation pilot)."""

    theta2: float = 0.0
    psi: float = 0.0
    last_theta_reset: int = 0
    last_psi_reset: int = 0

    def theta(self, ap: int) -> float:
        return 0.0 if ap == 1 else self.theta2

    def reset_theta2(self, tracker_output: float, time: int):
        self.theta2 = float(tracker_output)
        self.last_theta_reset = time


def estimation_time(i: int, k: int, tau_c: int) -> int:
    """Global index of the k-th sample of the slot containing sample i,
    i - 1 - ((i - 1 - k) mod tau_c); this is when UE k's uplink pilot was
    received and its effective channel estimated.
    """
    return i - 1 - ((i - 1 - k) % tau_c)


def ue_psi_update(pilot_time: int, nu1: PhaseTrajectory, tau_c: int,
                  n_ues: int, noise: float = 0.0) -> float:
    """UE-side compensation phase from the demodulation pilot: the true
    nu_1[pilot] + nu_1[[pilot]_{floor(K/2)}] (noiseless estimate), plus an
    optional Gaussian estimation error for sensitivity studies."""
    k_rep = representative_ue(n_ues)
    ref = estimation_time(pilot_time, k_rep, tau_c)
    return nu1.value_at(pilot_time) + nu1.value_at(ref) + noise


def residual_delta(k: int, ap: int, i: int, nu_pair, comp: CompensationState,
                   tau_c: int) -> complex:
    """Unit-modulus residual phase factor
    exp(j(-nu_ap[i] - nu_ap[[i]_k] + theta_ap + psi))."""
    traj = nu_pair[ap - 1]
    phase = (-traj.value_at(i) - traj.value_at(estimation_time(i, k, tau_c))
             + comp.theta(ap) + comp.psi)
    return complex(np.exp(1j * phase))


# ---------------------------------------------------------------------------
# brute-force rate oracle

def synthetic_delta(rng: np.random.Generator, target: complex, n: int) -> np.ndarray:
    """Unit-modulus draws with E[Delta] = target: uniform phase for |target|=0,
    else Gaussian phase jitter with variance -2 ln|target| around angle(target)."""
    mod = abs(target)
    if mod > 1:
        raise ValueError("|E[Delta]| cannot exceed 1")
    if mod == 0:
        phase = rng.uniform(-np.pi, np.pi, n)
    else:
        phase = np.angle(target) + rng.standard_normal(n) * np.sqrt(-2.0 * np.log(mod))
    return np.exp(1j * phase)


@dataclass(frozen=True)
class OracleResult:
    """Empirical powers from direct simulation, with standard errors.

    bu_power here is the full variance of the beamformed sum (it includes the
    fading-variance part), so compare ds/bu+ui totals against the closed form.
    """

    ds_complex: complex
    ds_stderr: float
    bu_power: float
    bu_stderr: float
    ui_power: float
    ui_stderr: float
    n_samples: int


def monte_carlo_rate_oracle(params: SystemParams, k: int, a, target_delta,
                            n_samples: int, seed) -> OracleResult:
    """Estimate the desired-signal mean, beamforming-uncertainty power and
    inter-user interference power by simulating pilots, LMMSE estimation and
    synthetic residual phase factors for every sample.
    """
    rng = np.random.default_rng(seed)
    N, K, rho = params.n_antennas, params.n_ues, params.rho_ap
    amp = np.sqrt(params.rho_ue * K)

    delta = np.zeros((2, n_samples), dtype=complex)
    for ap in range(2):
        if a[ap]:
            delta[ap] = synthetic_delta(rng, complex(target_delta[ap]), n_samples)

    # fresh channels, pilot phases and pilot noise for every UE/AP/sample
    signal = np.zeros(n_samples, dtype=complex)
    ds_cf = 0.0 + 0.0j
    ui_terms = []
    q_k = {}
    qhat = {}
    for ap in range(2):
        if not a[ap]:
            continue
        for kk in range(1, K + 1):
            beta = params.beta_ue[kk - 1, ap]
            c, gamma = lmmse_coefficient(params, kk, ap + 1)
            h = complex_normal(rng, (n_samples, N), beta)
            nu = rng.uniform(-np.pi, np.pi, n_samples)
            z = complex_normal(rng, (n_samples, N))
            q = np.exp(1j * nu)[:, None] * h
            qhat[(kk, ap)] = c * (amp * q + z)
            q_k[(kk, ap)] = q
    for ap in range(2):
        if not a[ap]:
            continue
        eta_k = params.eta[k - 1, ap]
        _, gamma_k = lmmse_coefficient(params, k, ap + 1)
        coupling = np.einsum("ij,ij->i", q_k[(k, ap)], np.conj(qhat[(k, ap)]))
        signal += np.sqrt(rho * eta_k / (N * gamma_k)) * delta[ap] * coupling
        ds_cf += np.sqrt(rho * eta_k * N * gamma_k) * complex(target_delta[ap])
    for kk in range(1, K + 1):
        if kk == k:
            continue
        term = np.zeros(n_samples, dtype=complex)
        for ap in range(2):
            if not a[ap]:
                continue
            eta_o = params.eta[kk - 1, ap]
            _, gamma_o = lmmse_coefficient(params, kk, ap + 1)
            coupling = np.einsum("ij,ij->i", q_k[(k, ap)], np.conj(qhat[(kk, ap)]))
            term += np.sqrt(rho * eta_o / (N * gamma_o)) * delta[ap] * coupling
        ui_terms.append(np.abs(term) ** 2)

    ds_emp = signal.mean()
    ds_err = float(np.sqrt((signal.real.var() + signal.imag.var()) / n_samples))
    bu_samples = np.abs(signal - ds_cf) ** 2
    ui_samples = np.sum(ui_terms, axis=0) if ui_terms else np.zeros(n_samples)
    return OracleResult(
        ds_complex=complex(ds_emp), ds_stderr=ds_err,
        bu_power=float(bu_samples.mean()),
        bu_stderr=float(bu_samples.std(ddof=1) / np.sqrt(n_samples)),
        ui_power=float(ui_samples.mean()),
        ui_stderr=float(ui_samples.std(ddof=1) / np.sqrt(n_samples)) if ui_terms else 0.0,
        n_samples=n_samples,
    )


def closed_form_powers(params: SystemParams, k: int, a, target_delta):
    """Closed-form (ds_power, bu_power, ui_power) in the oracle's grouping:
    bu includes rho sum_l a eta_k beta_k, ui covers k' != k only."""
    N, rho = params.n_antennas, params.rho_ap
    gamma = params.gamma()
    ds_amp = 0.0 + 0.0j
    bu = 0.0
    ui = 0.0
    for ap in range(2):
        if not a[ap]:
            continue
        eta_k = params.eta[k - 1, ap]
        d = complex(target_delta[ap])
        ds_amp += np.sqrt(eta_k * gamma[k - 1, ap]) * d
        bu += rho * eta_k * (params.beta_ue[k - 1, ap]
                             + N * gamma[k - 1, ap] * (1.0 - abs(d) ** 2))
        ui += rho * params.beta_ue[k - 1, ap] * float(
            params.eta[:, ap].sum() - eta_k)
    return float(N * rho * abs(ds_amp) ** 2), float(bu), float(ui)


# ---------------------------------------------------------------------------
# results CSV reader

def parse_result_csv(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ConfigError("unrecognized results header")
    rows = []
    for ln in lines[1:]:
        f = ln.split(",")
        rows.append(ResultRow(scheme=f[0], frame_len=int(f[1]), snr_ap_db=float(f[2]),
                              c_nu=float(f[3]), se_mean=float(f[4]), se_stderr=float(f[5]),
                              n_realizations=int(f[6]), wall_time_s=float(f[7])))
    return rows
