import tracemalloc

import numpy as np
import pytest

from otasync.channel import batched_op_norms, gram_top_eigenvalue
from otasync.config import default_params
from tests.conftest import small_instance
from tests.oracles import complex_normal, dense_op_norms, inter_ap_channel, ks_distance, \
    lmmse_coefficient, sample_inter_ap_channel


def test_ue_channels_empirical_variance():
    # 3-sigma chi-square band around beta = 0.01 over 1e4 x N entries
    p = default_params()
    rng = np.random.default_rng(5)
    samples = complex_normal(rng, (10**4, 64), 0.01)
    var = np.mean(np.abs(samples) ** 2)
    assert 0.0094 <= var <= 0.0106


def test_lmmse_coefficient_reference():
    # rho_ue K beta = 10 with beta = 0.01: c = sqrt(1000)*0.01/11, gamma = 0.1/11
    p = default_params()
    c, gamma = lmmse_coefficient(p, 1, 1)
    assert c == pytest.approx(0.02874797872880345, rel=1e-12)
    assert gamma == pytest.approx(0.1 / 11, rel=1e-12)
    assert gamma == pytest.approx(0.01 * 10 / 11, rel=1e-12)  # beta*snr/(snr+1)


def test_lmmse_zero_beta():
    p = small_instance(beta_ue=1e-12)
    c, gamma = lmmse_coefficient(p, 1, 1)
    assert abs(c) < 1e-9
    assert gamma < 1e-12


def test_lmmse_noiseless_limit():
    p = small_instance(rho_ue=1e8)
    _, gamma = lmmse_coefficient(p, 1, 1)
    assert gamma == pytest.approx(0.01, rel=1e-4)


def test_lmmse_statistics_match_model():
    # q_hat ~ CN(0, gamma I): empirical variance within 5%
    p = small_instance()
    rng = np.random.default_rng(11)
    n, N = 100_000, p.n_antennas
    beta = p.beta_ue[0, 0]
    amp = np.sqrt(p.rho_ue * p.n_ues)
    h = complex_normal(rng, (n, N), beta)
    nu = rng.uniform(-np.pi, np.pi, n)
    z = complex_normal(rng, (n, N))
    y = amp * np.exp(1j * nu)[:, None] * h + z
    c, gamma = lmmse_coefficient(p, 1, 1)
    q_hat = c * y
    assert np.mean(np.abs(q_hat) ** 2) == pytest.approx(gamma, rel=0.05)


def test_leading_singular_pair_diagonal():
    chan = inter_ap_channel(np.diag([3.0, 1.0, 0.5]).astype(complex))
    assert chan.op_norm == pytest.approx(3.0, abs=1e-10)
    assert abs(chan.u2[0]) == pytest.approx(1.0, abs=1e-8)
    assert chan.u2[0].real > 0  # phase convention


def test_leading_singular_pair_scaled_identity():
    g = (2.0 - 1.0j) / np.sqrt(5) * np.eye(4) * 3.0
    chan = inter_ap_channel(g)
    assert chan.op_norm == pytest.approx(3.0, abs=1e-8)
    assert np.linalg.norm(g @ chan.u2) == pytest.approx(3.0, abs=1e-8)


def test_leading_singular_pair_invariants():
    rng = np.random.default_rng(2)
    g = complex_normal(rng, (16, 16), 1.0)
    chan = inter_ap_channel(g)
    u1, u2, s = chan.u1, chan.u2, chan.op_norm
    assert np.linalg.norm(u1) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(u2) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(g @ u2) == pytest.approx(s, abs=1e-8)
    assert abs(np.vdot(u1, g @ u2)) == pytest.approx(s, abs=1e-8)
    peak = u2[np.argmax(np.abs(u2))]  # phase convention
    assert peak.real > 0 and peak.imag == pytest.approx(0.0, abs=1e-15)


def test_leading_singular_pair_zero_matrix():
    with pytest.raises(ValueError):
        inter_ap_channel(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        inter_ap_channel(np.ones(3))


def test_op_norm_concentration_near_mp_edge():
    # op_norm^2 / (N beta_g) concentrates near the Marchenko-Pastur edge 4;
    # band frozen from an independent eigensolver run (numpy.linalg.svd)
    p = default_params(beta_g=1e-3)
    ratios = []
    for i in range(100):
        chan = sample_inter_ap_channel(1000 + i, p)
        ratios.append(chan.op_norm**2 / (p.n_antennas * p.beta_g))
    ratios = np.array(ratios)
    assert np.all(ratios > 3.0) and np.all(ratios < 5.0)


def _bidiagonal_draws(seed, N, n):
    # the chi-square draws batched_op_norms makes: B_ii^2 ~ chi^2_{2(N-i+1)},
    # B_i,i+1^2 ~ chi^2_{2(N-i)}, i = 1..N, one column per run
    dof = 2 * np.concatenate((np.arange(N, 0, -1), np.arange(N - 1, 0, -1)))
    chi_sq = np.random.default_rng(seed).chisquare(dof[:, None], (2 * N - 1, n))
    return chi_sq[:N], chi_sq[N:]


def _dense_bidiagonal(diag_sq, super_sq):
    return np.diag(np.sqrt(diag_sq)) + np.diag(np.sqrt(super_sq), 1)


@pytest.mark.parametrize("N", [1, 2, 8, 64])
def test_batched_op_norms_match_svd_of_same_bidiagonal(N):
    p = default_params(n_antennas=N, beta_g=1e-3)
    norms = batched_op_norms(np.random.default_rng(N), p, 32)
    diag_sq, super_sq = _bidiagonal_draws(N, N, 32)
    for r in range(32):
        s = np.linalg.svd(_dense_bidiagonal(diag_sq[:, r], super_sq[:, r]), compute_uv=False)[0]
        assert norms[r] == pytest.approx(np.sqrt(p.beta_g / 2) * s, rel=1e-12)


DEGENERATE_BIDIAGONALS = [
    ([0.0, 0.0, 0.0], [0.0, 0.0]),          # B = 0
    ([1.0, 0.0], [1.0]),                    # rank-one B^T B
    ([0.0, 2.0, 0.0], [0.0, 0.0]),          # diagonal B^T B with zero entries
    ([0.0, 0.0, 0.0], [1.0, 3.0]),          # zero diagonal
    ([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
    ([1e-160, 1.0, 1e150], [1e-160, 1e-150]),
]


@pytest.mark.parametrize("b_diag, b_super", DEGENERATE_BIDIAGONALS)
def test_gram_top_eigenvalue_degenerate_bidiagonals(b_diag, b_super):
    # exact zero and tiny pivots take the pivmin guard: no 0/0, x/0 or overflow
    diag_sq, super_sq = np.square(b_diag)[:, None], np.square(b_super)[:, None]
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        lam = gram_top_eigenvalue(diag_sq, super_sq)[0]
    s = np.linalg.svd(_dense_bidiagonal(diag_sq[:, 0], super_sq[:, 0]), compute_uv=False)[0]
    assert np.isfinite(lam)
    assert np.sqrt(lam) == pytest.approx(s, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("b_diag, b_super", DEGENERATE_BIDIAGONALS)
def test_gram_top_eigenvalue_batch_matches_column_calls(b_diag, b_super):
    # pivmin is set per matrix, so a column's eigenvalue does not depend on its
    # batch-mates: here a degenerate case, chi draws and one draw scaled by 1e150
    diag_sq, super_sq = _bidiagonal_draws(len(b_diag), len(b_diag), 4)
    diag_sq[:, 1] *= 1e150
    super_sq[:, 1] *= 1e150
    diag_sq = np.column_stack((np.square(b_diag), diag_sq))
    super_sq = np.column_stack((np.square(b_super), super_sq))
    batch = gram_top_eigenvalue(diag_sq, super_sq)
    alone = [gram_top_eigenvalue(diag_sq[:, [r]], super_sq[:, [r]])[0] for r in range(5)]
    assert np.array_equal(batch, alone)


@pytest.mark.parametrize("N, n_dense", [(8, 20_000), (64, 4000)])
def test_batched_op_norms_law_matches_dense_svd(N, n_dense):
    # two-sample KS at the 0.1% level (asymptotic c = 1.949), and E[1/||G||^2],
    # which sets the tracker's meas_var, within 3 standard errors of the difference
    p = default_params(n_antennas=N, beta_g=1e-3)
    rng = np.random.default_rng(40 + N)
    dense = np.concatenate([dense_op_norms(rng, p, 500) for _ in range(n_dense // 500)])
    bidiag = batched_op_norms(np.random.default_rng(50 + N), p, 20_000)
    n, m = dense.size, bidiag.size
    assert ks_distance(dense, bidiag) < 1.949 * np.sqrt((n + m) / (n * m))
    inv_d, inv_b = dense**-2.0, bidiag**-2.0
    se = np.sqrt(inv_d.var() / n + inv_b.var() / m)
    assert abs(inv_d.mean() - inv_b.mean()) < 3 * se


@pytest.mark.parametrize("N", [64, 512])
def test_batched_op_norms_near_mp_edge(N):
    # ||G||^2 / (N beta_g) lies near the Marchenko-Pastur edge 4, shifted by the
    # Tracy-Widom (beta = 2) mean -1.7711 on the scale 2^(4/3) N^(-2/3)
    p = default_params(n_antennas=N, beta_g=1e-3)
    ratios = batched_op_norms(np.random.default_rng(N), p, 1000)**2 / (N * p.beta_g)
    assert np.all(ratios > 3.0) and np.all(ratios < 5.0)
    edge = 4.0 + 2 ** (4 / 3) * N ** (-2 / 3) * -1.7711
    assert ratios.mean() == pytest.approx(edge, abs=0.03)


def test_batched_op_norms_memory_linear_in_n():
    # O(N) per run: 64 bytes per (antenna, run) bounds the traced peak, 32 MiB
    # here; a dense G for the same call would hold 4 GiB
    N, n = 512, 1024
    p = default_params(n_antennas=N)
    tracemalloc.start()
    try:
        norms = batched_op_norms(np.random.default_rng(0), p, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert norms.shape == (n,) and np.all(np.isfinite(norms))
    assert peak < 64 * N * n


def test_inter_ap_channel_consistency():
    p = default_params(beta_g=1e-3)
    chan = sample_inter_ap_channel(4, p)
    assert np.allclose(chan.g_matrix @ chan.u2, chan.op_norm * chan.u1, atol=1e-8)


# Direct checks of the four estimate/error coupling identities used by the
# closed-form rate derivation, at N=8, K=2 (the acceptance suite re-runs 3-4).

def _draw_estimates(p, n, seed):
    rng = np.random.default_rng(seed)
    N = p.n_antennas
    beta = p.beta_ue[0, 0]
    amp = np.sqrt(p.rho_ue * p.n_ues)
    h = complex_normal(rng, (n, N), beta)
    nu = rng.uniform(-np.pi, np.pi, n)
    z = complex_normal(rng, (n, N))
    q = np.exp(1j * nu)[:, None] * h
    c, gamma = lmmse_coefficient(p, 1, 1)
    q_hat = c * (amp * q + z)
    return q, q_hat, gamma, beta


def test_estimate_covariance_identity():
    p = small_instance()
    q, q_hat, gamma, _ = _draw_estimates(p, 20_000, 21)
    cov = q_hat.conj().T @ q_hat / q_hat.shape[0]
    diag = np.real(np.diag(cov))
    assert np.all(np.abs(diag / gamma - 1) < 0.05)
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 0.02 * gamma


def test_error_uncorrelated_with_estimate():
    p = small_instance()
    q, q_hat, gamma, _ = _draw_estimates(p, 100_000, 22)
    err = q - q_hat
    coupling = np.einsum("ij,ij->i", err, np.conj(q_hat))
    mean = coupling.mean()
    se = np.sqrt((coupling.real.var() + coupling.imag.var()) / coupling.size)
    assert abs(mean) < 3 * se


def test_error_estimate_power_identity():
    p = small_instance()
    q, q_hat, gamma, beta = _draw_estimates(p, 100_000, 23)
    err = q - q_hat
    coupling = np.abs(np.einsum("ij,ij->i", err, np.conj(q_hat))) ** 2
    expect = p.n_antennas * gamma * (beta - gamma)
    assert coupling.mean() == pytest.approx(expect, rel=0.05)


def test_estimate_fourth_moment_identity():
    p = small_instance()
    _, q_hat, gamma, _ = _draw_estimates(p, 100_000, 24)
    fourth = (np.sum(np.abs(q_hat) ** 2, axis=1) ** 2).mean()
    N = p.n_antennas
    assert fourth == pytest.approx(N * (N + 1) * gamma**2, rel=0.05)
