import numpy as np
import pytest

from otasync.channel import batched_op_norms, bidiagonal_chi_squares, gram_top_eigenvalue
from otasync.config import default_params
from tests.conftest import small_instance, traced_peak
from tests.oracles import complex_normal, dense_op_norms, draw_estimates, inter_ap_channel, \
    ks_distance, lmmse_coefficient, sturm_top_eigenvalue


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
    _, q_hat = draw_estimates(np.random.default_rng(11), p, 1, 1, 100_000)
    _, gamma = lmmse_coefficient(p, 1, 1)
    assert np.mean(np.abs(q_hat) ** 2) == pytest.approx(gamma, rel=0.05)


def test_inter_ap_channel_diagonal():
    chan = inter_ap_channel(np.diag([3.0, 1.0, 0.5]).astype(complex))
    assert chan.op_norm == pytest.approx(3.0, abs=1e-10)
    assert abs(chan.u2[0]) == pytest.approx(1.0, abs=1e-8)
    assert chan.u2[0].real > 0  # phase convention


def test_inter_ap_channel_scaled_identity():
    g = (2.0 - 1.0j) / np.sqrt(5) * np.eye(4) * 3.0
    chan = inter_ap_channel(g)
    assert chan.op_norm == pytest.approx(3.0, abs=1e-8)
    assert np.linalg.norm(g @ chan.u2) == pytest.approx(3.0, abs=1e-8)


def test_inter_ap_channel_invariants():
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


def test_inter_ap_channel_of_a_stack_matches_per_matrix_calls():
    rng = np.random.default_rng(3)
    g = complex_normal(rng, (6, 16, 16), 1.0)
    stack = inter_ap_channel(g)
    assert stack.u1.shape == stack.u2.shape == (6, 16) and stack.op_norm.shape == (6,)
    for r in range(len(g)):
        own = inter_ap_channel(g[r])
        assert stack.op_norm[r] == pytest.approx(own.op_norm, rel=1e-12)
        # the same phase convention pins the same vectors
        assert np.allclose(stack.u1[r], own.u1, rtol=1e-12, atol=1e-12)
        assert np.allclose(stack.u2[r], own.u2, rtol=1e-12, atol=1e-12)


def test_inter_ap_channel_zero_matrix():
    with pytest.raises(ValueError):
        inter_ap_channel(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        inter_ap_channel(np.ones(3))
    with pytest.raises(ValueError):  # one zero matrix in a stack
        inter_ap_channel(np.stack((np.eye(3), np.zeros((3, 3)))))


def test_op_norm_concentration_near_mp_edge():
    # op_norm^2 / (N beta_g) concentrates near the Marchenko-Pastur edge 4;
    # band frozen from an independent eigensolver run (numpy.linalg.svd)
    p = default_params(beta_g=1e-3)
    N = p.n_antennas
    g = np.stack([complex_normal(np.random.default_rng(1000 + i), (N, N), p.beta_g)
                  for i in range(100)])
    ratios = inter_ap_channel(g).op_norm**2 / (N * p.beta_g)
    assert np.all(ratios > 3.0) and np.all(ratios < 5.0)


def _dense_bidiagonal(diag_sq, super_sq):
    return np.diag(np.sqrt(diag_sq)) + np.diag(np.sqrt(super_sq), 1)


@pytest.mark.parametrize("N", [1, 2, 8, 64, 128])
def test_batched_op_norms_match_svd_of_same_bidiagonal(N):
    p = default_params(n_antennas=N, beta_g=1e-3)
    norms = batched_op_norms(np.random.default_rng(N), p, 32)
    diag_sq, super_sq = bidiagonal_chi_squares(np.random.default_rng(N), N, 32)
    for r in range(32):
        s = np.linalg.svd(_dense_bidiagonal(diag_sq[:, r], super_sq[:, r]), compute_uv=False)[0]
        assert norms[r] == pytest.approx(np.sqrt(p.beta_g / 2) * s, rel=1e-12)


def _split_bidiagonal(scale):
    # two 8 x 8 blocks joined by a zero superdiagonal entry, the second scaled
    # by `scale`: B^T B's top eigenvalue is double at scale 1 and splits by
    # about 2 (scale - 1) relative, where Laguerre's step converges only
    # linearly until it comes closer than the split
    b_diag = [4.1, 3.6, 3.3, 2.9, 2.4, 2.1, 1.6, 0.9]
    b_super = [3.8, 3.4, 3.1, 2.6, 2.2, 1.8, 1.2]
    return (b_diag + [scale * b for b in b_diag],
            b_super + [0.0] + [scale * b for b in b_super])


DEGENERATE_BIDIAGONALS = [
    ([0.0, 0.0, 0.0], [0.0, 0.0]),          # B = 0
    ([1.0, 0.0], [1.0]),                    # rank-one B^T B
    ([0.0, 2.0, 0.0], [0.0, 0.0]),          # diagonal B^T B with zero entries
    ([0.0, 0.0, 0.0], [1.0, 3.0]),          # zero diagonal
    ([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
    ([1e-160, 1.0, 1e150], [1e-160, 1e-150]),
    _split_bidiagonal(1.0),                 # double top eigenvalue
    _split_bidiagonal(1.0 + 1e-12),         # near-double ones
    _split_bidiagonal(1.0 + 1e-9),
    _split_bidiagonal(1.0 + 1e-6),
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
    diag_sq, super_sq = bidiagonal_chi_squares(np.random.default_rng(len(b_diag)), len(b_diag), 4)
    diag_sq[:, 1] *= 1e150
    super_sq[:, 1] *= 1e150
    diag_sq = np.column_stack((np.square(b_diag), diag_sq))
    super_sq = np.column_stack((np.square(b_super), super_sq))
    batch = gram_top_eigenvalue(diag_sq, super_sq)
    alone = [gram_top_eigenvalue(diag_sq[:, [r]], super_sq[:, [r]])[0] for r in range(5)]
    assert np.array_equal(batch, alone)


@pytest.mark.parametrize("N", [2, 8, 64, 128])
def test_gram_top_eigenvalue_matches_sturm_bisection(N):
    # every column of 2**14 chi draws agrees with plain bisection, whose own
    # error is below 2**-52 relative
    diag_sq, super_sq = bidiagonal_chi_squares(np.random.default_rng(100 + N), N, 2**14)
    lam = gram_top_eigenvalue(diag_sq, super_sq)
    ref = sturm_top_eigenvalue(diag_sq, super_sq)
    assert np.max(np.abs(lam - ref) / ref) <= 1e-13


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
    norms, peak = traced_peak(batched_op_norms, np.random.default_rng(0), p, n)
    assert norms.shape == (n,) and np.all(np.isfinite(norms))
    assert peak < 64 * N * n


def test_inter_ap_channel_consistency():
    p = default_params(beta_g=1e-3)
    chan = inter_ap_channel(complex_normal(np.random.default_rng(4),
                                           (p.n_antennas, p.n_antennas), p.beta_g))
    assert np.allclose(chan.g_matrix @ chan.u2, chan.op_norm * chan.u1, atol=1e-8)


# Two of the four estimate/error coupling identities used by the closed-form
# rate derivation, at N=8, K=2; C1 (test_acceptance.py) checks the other two,
# E|q~^H q^|^2 and E||q^||^4.

def test_estimate_covariance_identity():
    p = small_instance()
    _, q_hat = draw_estimates(np.random.default_rng(21), p, 1, 1, 20_000)
    _, gamma = lmmse_coefficient(p, 1, 1)
    cov = q_hat.conj().T @ q_hat / q_hat.shape[0]
    diag = np.real(np.diag(cov))
    assert np.all(np.abs(diag / gamma - 1) < 0.05)
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 0.02 * gamma


def test_error_uncorrelated_with_estimate():
    p = small_instance()
    q, q_hat = draw_estimates(np.random.default_rng(22), p, 1, 1, 100_000)
    err = q - q_hat
    coupling = np.einsum("ij,ij->i", err, np.conj(q_hat))
    mean = coupling.mean()
    se = np.sqrt((coupling.real.var() + coupling.imag.var()) / coupling.size)
    assert abs(mean) < 3 * se
