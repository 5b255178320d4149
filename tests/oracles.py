"""Operation-level reference code that only the test oracles use.

Dense oscillator trajectories, the full N x N inter-array channel with its
leading singular pair and operator norm from LAPACK's SVD, N-dimensional
sync signals, the compensation phases and the residual phase factor (each
acting on every run at once along leading axes), LMMSE estimation and a
brute-force Monte Carlo re-derivation of the rate terms. The engine in
`otasync` works on sparse, exact one-dimensional reductions of this chain;
the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from otasync.config import ConfigError, SystemParams, default_params
from otasync.experiment import CSV_COLUMNS, ResultRow
from otasync.tracking import representative_ue


# ---------------------------------------------------------------------------
# oscillator phase trajectories

def generate_trajectory(seed, length: int, sigma_nu_sq: float,
                        initial_phase=0.0) -> np.ndarray:
    """Random-walk phase paths, shape np.shape(initial_phase) + (length,):
    entry i - 1 of the last axis is the phase at global sample i (1-based,
    incrementing across slots), initial_phase at sample 1, then cumulative
    N(0, sigma_nu_sq) steps. Deterministic for a given seed.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if sigma_nu_sq < 0:
        raise ValueError("sigma_nu_sq must be nonnegative")
    rng = np.random.default_rng(seed)
    start = np.asarray(initial_phase, dtype=float)
    walk = np.zeros(start.shape + (length,))
    walk[..., 1:] = rng.standard_normal(start.shape + (length - 1,))
    walk *= np.sqrt(sigma_nu_sq)
    np.cumsum(walk, axis=-1, out=walk)
    walk += start[..., None]
    return walk


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


# The starting bracket [max diag, Gershgorin bound] of B^T B is at most 3x its
# top eigenvalue wide, so 53 halvings leave the midpoint within
# 3 * 2**-54 < 2**-52 of it, relative: float64 resolution.
BISECTION_STEPS = 53


def sturm_top_eigenvalue(diag_sq: np.ndarray, super_sq: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of B^T B for upper-bidiagonal B by plain Sturm-count
    bisection: the reference for otasync.channel.gram_top_eigenvalue, with
    the same arguments. diag_sq (N, n) holds B_ii^2, super_sq (N - 1, n) holds
    B_i,i+1^2, one column per matrix. Returns shape (n,).

    B^T B is tridiagonal with diagonal B_ii^2 + B_i-1,i^2 and squared
    off-diagonal B_ii^2 B_i,i+1^2. x lies above every eigenvalue exactly when
    every pivot of the LDL^T factorization of B^T B - x I is negative (Sturm
    count N); pivots of magnitude at most the matrix's own `pivmin` count as
    negative and are replaced by -pivmin, as in LAPACK's dstebz.
    """
    diag = diag_sq.astype(float)
    diag[1:] += super_sq
    off_sq = diag_sq[:-1] * super_sq
    pivmin = np.finfo(float).tiny * np.maximum(1.0, off_sq.max(axis=0, initial=0.0))

    lo = diag.max(axis=0)                      # lambda_max >= every diagonal entry
    pivots = diag.copy()                       # Gershgorin bounds first, then the pivots
    off = np.sqrt(off_sq)
    pivots[:-1] += off
    pivots[1:] += off
    hi = pivots.max(axis=0)

    guarded, neg_pivmin = np.empty_like(lo), -pivmin
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        np.subtract(diag, mid, out=pivots)
        for i in range(1, diag.shape[0]):
            np.minimum(pivots[i - 1], neg_pivmin, out=guarded)
            np.divide(off_sq[i - 1], guarded, out=guarded)
            pivots[i] -= guarded
        above = pivots.max(axis=0) <= pivmin
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


def lmmse_coefficient(params: SystemParams, k: int, ap: int):
    """(c, gamma) for UE k (1-based) and AP ap (1 or 2):
    c = sqrt(rho_ue K) beta / (rho_ue K beta + 1), gamma = sqrt(rho_ue K) beta c.
    """
    beta = params.beta_ue[k - 1, ap - 1]
    amp = np.sqrt(params.rho_ue * params.n_ues)
    c = amp * beta / (params.rho_ue * params.n_ues * beta + 1.0)
    return float(c), float(amp * beta * c)


def draw_estimates(rng: np.random.Generator, params: SystemParams, k: int, ap: int, n: int):
    """(q, q_hat), each (n, N): n draws of UE k's effective channel to AP ap
    (both 1-based), q = e^{j nu} h with h ~ CN(0, beta I) and a uniform pilot
    phase nu, and its LMMSE estimate c (sqrt(rho_ue K) q + z), z ~ CN(0, I).
    Draws h, then nu, then z."""
    N = params.n_antennas
    c, _ = lmmse_coefficient(params, k, ap)
    h = complex_normal(rng, (n, N), params.beta_ue[k - 1, ap - 1])
    nu = rng.uniform(-np.pi, np.pi, n)
    z = complex_normal(rng, (n, N))
    q = np.exp(1j * nu)[:, None] * h
    return q, c * (np.sqrt(params.rho_ue * params.n_ues) * q + z)


@dataclass(frozen=True)
class InterApChannel:
    """Static N x N channel between the arrays with its leading singular pair,
    or a stack of them along leading axes.

    g_matrix @ u2 = op_norm * u1 (u2's largest-magnitude entry rotated to be
    real nonnegative, which pins the pair deterministically).
    """

    g_matrix: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    op_norm: float | np.ndarray


# matrices per LAPACK SVD call: U and Vh of one block are all that the SVD
# holds besides G, at any run count
SVD_BLOCK = 128


def inter_ap_channel(g: np.ndarray) -> InterApChannel:
    """G, or a stack of G along leading axes, with its leading singular pair
    by LAPACK SVD, SVD_BLOCK matrices per call: u2 = conj(Vh[0]), its
    largest-magnitude entry rotated to be real nonnegative, u1 = G u2 / s0
    and op_norm = s0."""
    g = np.asarray(g, dtype=complex)
    if g.ndim < 2 or not np.all(np.any(g, axis=(-2, -1))):
        raise ValueError("g must be a nonzero matrix or a stack of them")
    flat = g.reshape(-1, *g.shape[-2:])
    s0, u2 = np.empty(len(flat)), np.empty((len(flat), g.shape[-1]), dtype=complex)
    for b in range(0, len(flat), SVD_BLOCK):
        _, s, vh = np.linalg.svd(flat[b:b + SVD_BLOCK])
        s0[b:b + SVD_BLOCK], u2[b:b + SVD_BLOCK] = s[:, 0], np.conj(vh[:, 0])
    s0, u2 = s0.reshape(g.shape[:-2])[()], u2.reshape(*g.shape[:-2], -1)
    peak = np.take_along_axis(u2, np.argmax(np.abs(u2), axis=-1)[..., None], axis=-1)
    u2 *= np.conj(peak) / np.abs(peak)
    return InterApChannel(g_matrix=g, u1=(g @ u2[..., None])[..., 0] / s0[..., None],
                          u2=u2, op_norm=s0)


def channel_with_norm(rng: np.random.Generator, n: int, norm_sq: float) -> InterApChannel:
    """An n x n channel with CN(0, 1) entries, scaled so that ||G||^2 = norm_sq."""
    g = complex_normal(rng, (n, n))
    return inter_ap_channel(g * np.sqrt(norm_sq) / np.linalg.norm(g, 2))


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
                      rho_ap: float, rng):
    """Angle estimate of alpha = nu_rx[time] - nu_tx[time] from one sync signal,
    for each run along the leading axes of the channel stack and the
    trajectories.

    Synthesizes the received N-vector (unit-norm beamformer through G or G^T
    plus CN(0, I) noise) and returns the angle of the matched inner product.
    """
    if tx_ap not in (1, 2):
        raise ValueError("tx_ap must be 1 or 2")
    nu1, nu2 = (traj[..., time - 1] for traj in nu_pair)
    if tx_ap == 2:
        alpha = nu1 - nu2
        propagated = (chan.g_matrix @ chan.u2[..., None])[..., 0]
    else:
        alpha = nu2 - nu1
        propagated = (np.conj(chan.u1)[..., None, :] @ chan.g_matrix)[..., 0, :]
    sent = np.sqrt(rho_ap) * np.exp(1j * alpha)[..., None] * propagated
    y = sent + complex_normal(rng, sent.shape)
    return np.angle(np.sum(np.conj(propagated) * y, axis=-1))


# ---------------------------------------------------------------------------
# compensation at the arrays (theta_2, set by each tracker output; theta_1 is
# identically zero) and at the UEs (psi, set at each demodulation pilot), and
# the residual phase factor

def estimation_time(i: int, k: int, tau_c: int) -> int:
    """Global index of the k-th sample of the slot containing sample i,
    i - 1 - ((i - 1 - k) mod tau_c); this is when UE k's uplink pilot was
    received and its effective channel estimated.
    """
    return i - 1 - ((i - 1 - k) % tau_c)


def ue_psi_update(pilot_time: int, nu1: np.ndarray, tau_c: int, n_ues: int, noise=0.0):
    """UE-side compensation phase from the demodulation pilot: the true
    nu_1[pilot] + nu_1[[pilot]_{floor(K/2)}] (noiseless estimate), plus an
    optional Gaussian estimation error for sensitivity studies."""
    ref = estimation_time(pilot_time, representative_ue(n_ues), tau_c)
    return nu1[..., pilot_time - 1] + nu1[..., ref - 1] + noise


def residual_delta(k: int, ap: int, i: int, nu_pair, theta2, psi, tau_c: int):
    """Unit-modulus residual phase factor
    exp(j(-nu_ap[i] - nu_ap[[i]_k] + theta_ap + psi)), theta_1 = 0."""
    traj = nu_pair[ap - 1]
    theta = theta2 if ap == 2 else 0.0
    return np.exp(1j * (-traj[..., i - 1] - traj[..., estimation_time(i, k, tau_c) - 1]
                        + theta + psi))


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

    aps = [ap for ap in range(2) if a[ap]]
    delta = np.zeros((2, n_samples), dtype=complex)
    for ap in aps:
        delta[ap] = synthetic_delta(rng, complex(target_delta[ap]), n_samples)

    # fresh channels, pilot phases and pilot noise for every UE/AP/sample
    est = {(kk, ap): draw_estimates(rng, params, kk, ap + 1, n_samples)
           for ap in aps for kk in range(1, K + 1)}

    def received(kk):
        """UE k's received sum of UE kk's beamformed signal over the active APs."""
        term = np.zeros(n_samples, dtype=complex)
        for ap in aps:
            _, gamma = lmmse_coefficient(params, kk, ap + 1)
            coupling = np.einsum("ij,ij->i", est[(k, ap)][0], np.conj(est[(kk, ap)][1]))
            term += np.sqrt(rho * params.eta[kk - 1, ap] / (N * gamma)) * delta[ap] * coupling
        return term

    signal = received(k)
    ds_cf = sum(np.sqrt(rho * params.eta[k - 1, ap] * N * lmmse_coefficient(params, k, ap + 1)[1])
                * complex(target_delta[ap]) for ap in aps)
    ui_terms = [np.abs(received(kk)) ** 2 for kk in range(1, K + 1) if kk != k]

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


def random_rate_instance(rng: np.random.Generator):
    """(params, k, target) for a brute-force check of the closed form: N in
    {2, 4, 8}, K in {2, 3, 4} UEs in a 100-sample slot, uniform beta and
    column-normalized eta, E[Delta] moduli in {0, 0.5, 1} with uniform
    phases, and a uniform UE k."""
    N = int(rng.choice([2, 4, 8]))
    K = int(rng.choice([2, 3, 4]))
    beta = rng.uniform(0.005, 0.05, (K, 2))
    eta = rng.uniform(0.1, 0.9, (K, 2))
    eta /= eta.sum(axis=0, keepdims=True)
    tau_u = (100 - K - 6) // 2
    params = default_params(n_antennas=N, n_ues=K, tau_u=tau_u,
                            tau_d=100 - K - 6 - tau_u, beta_ue=beta, eta=eta)
    mods = rng.choice([0.0, 0.5, 1.0], 2)
    target = tuple(m * np.exp(1j * ph) for m, ph in zip(mods, rng.uniform(-np.pi, np.pi, 2)))
    return params, int(rng.integers(1, K + 1)), target


def closed_form_misses(params: SystemParams, k: int, target_delta, n_samples: int,
                       seed) -> list:
    """Names of the terms on which monte_carlo_rate_oracle, with both APs
    active, misses the closed form for UE k by more than three standard
    errors: 'ds' (the complex mean amplitude), 'bu' and 'ui'; and 'ds power'
    if that amplitude's squared modulus is not closed_form_powers' ds power
    to a relative 1e-9."""
    a = (1, 1)
    res = monte_carlo_rate_oracle(params, k, a, target_delta, n_samples, seed)
    ds_power, bu, ui = closed_form_powers(params, k, a, target_delta)
    gamma = params.gamma()
    ds = sum(np.sqrt(params.rho_ap * params.eta[k - 1, ap] * params.n_antennas * gamma[k - 1, ap])
             * target_delta[ap] for ap in range(2))
    misses = {"ds power": abs(abs(ds) ** 2 - ds_power) > max(1e-9 * ds_power, 1e-12),
              "ds": abs(res.ds_complex - ds) > 3 * res.ds_stderr + 1e-12,
              "bu": abs(res.bu_power - bu) > 3 * res.bu_stderr,
              "ui": abs(res.ui_power - ui) > 3 * res.ui_stderr}
    return [name for name, miss in misses.items() if miss]


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


def csv_without_wall_time(text: str):
    """The lines of a results CSV without the last column, wall_time_s, which
    no run reproduces."""
    return [",".join(ln.split(",")[:-1]) for ln in text.strip().splitlines()]
