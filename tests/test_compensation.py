import ast
import dataclasses
from itertools import product
from pathlib import Path
from unittest.mock import Mock

import numpy as np
import pytest

from otasync import compensation
from otasync.compensation import CHUNK_SIZE, WARMUP_FRAMES, _ap1_row, _cell_geometry, \
    _measurements, build_plan, draw_op_norms, monte_carlo_delta, run_phase_trace
from otasync.config import ConfigError, default_params, derive_sigma_nu
from otasync.experiment import run_cell
from otasync.rate import per_position_rates, spectral_efficiency
from otasync.tracking import representative_ue, wrap
from tests.conftest import GEOMETRIES, SIGMA_REF, at_geometry, traced_peak
from tests.oracles import complex_normal, generate_trajectory, ks_distance, residual_delta, \
    ue_psi_update
from tests.reference_chain import reference_delta

HETERO_BETA = 10 ** (-np.linspace(14.0, 22.0, 20) / 10)  # 20 unequal (UE, AP) gains

# Two-chunk cells whose E[Delta] tables pin the engine's random stream; the
# stored values were made by running this module as a script (see the end).
PINNED_PATH = Path(__file__).parent / "data" / "rng_stream.npz"
PINNED_CELLS = {
    "kalman_f2": ("kalman", dict(frame_len=2)),
    "direct_f1_hetero": ("direct", dict(frame_len=1, beta_ue=HETERO_BETA)),
    "ap1_only_f3": ("ap1_only", dict(frame_len=3)),
}
# Short single-run traces that pin run_phase_trace's values, made the same way.
PINNED_TRACE_PATH = PINNED_PATH.with_name("phase_trace.npz")
PINNED_TRACES = {"kalman_seed1": ("kalman", 1), "direct_seed2": ("direct", 2)}
TRACE_FIELDS = ("obs", "alpha_hat", "p_var", "kappa", "alpha_true")


def test_psi_zero_phase_noise():
    assert ue_psi_update(56, np.zeros(400), 100, 10) == 0.0


def test_psi_is_true_value_at_pilot():
    nu1 = generate_trajectory(3, 400, SIGMA_REF, initial_phase=0.5)
    psi = ue_psi_update(156, nu1, 100, 10)
    assert psi == pytest.approx(nu1[155] + nu1[104], abs=1e-15)


def test_residual_all_zero_phases():
    nu = (np.zeros(400), np.zeros(400))
    assert residual_delta(5, 1, 70, nu, 0.0, 0.0, 100) == pytest.approx(1 + 0j)


def test_residual_perfect_compensation():
    nu1 = generate_trajectory(9, 400, SIGMA_REF)
    nu2 = generate_trajectory(10, 400, SIGMA_REF)
    i, k = 170, 5
    psi = nu2[i - 1] + nu2[104]  # k=5 pilot of slot 2
    d = residual_delta(k, 2, i, (nu1, nu2), 0.0, psi, 100)
    assert d == pytest.approx(1 + 0j, abs=1e-12)


def test_residual_unit_modulus():
    nu1 = generate_trajectory(1, 400, SIGMA_REF, initial_phase=2.0)
    nu2 = generate_trajectory(2, 400, SIGMA_REF, initial_phase=-1.0)
    for i in (60, 170, 360):
        assert abs(residual_delta(5, 2, i, (nu1, nu2), -1.1, 0.37, 100)) == \
            pytest.approx(1.0, abs=1e-14)


def test_residual_pilot_instant_identity():
    # at the demod-pilot sample with k = floor(K/2), the AP1 residual reduces
    # to exactly 1: theta_1 = 0 whatever theta_2 holds, and psi cancels both
    # trajectory terms
    nu1 = generate_trajectory(12, 400, SIGMA_REF, initial_phase=0.9)
    pilot = 156
    psi = ue_psi_update(pilot, nu1, 100, 10)
    d = residual_delta(5, 1, pilot, (nu1, np.zeros(400)), 0.7, psi, 100)
    assert d == pytest.approx(1 + 0j, abs=1e-12)


def test_uncompensated_mean_matches_gaussian_characteristic_function():
    # no compensation, offset i - [i]_k = 50: phase = -(nu_i + nu_{[i]_k});
    # with the walk started 5 samples before [i]_k,
    # Var = (4*5 + 50) sigma^2 and |E[Delta]| = exp(-Var/2)
    sig2 = SIGMA_REF
    nu1 = generate_trajectory(4, 60, sig2, initial_phase=np.zeros(10_000))
    mean = residual_delta(5, 1, 55, (nu1, nu1), 0.0, 0.0, 100).mean()
    expect = np.exp(-(4 * 5 + 50) * sig2 / 2.0)
    assert abs(mean) == pytest.approx(expect, rel=0.05)


def test_zero_noise_gives_unit_means(params):
    # no oscillator drift and a near-noiseless inter-array link
    p = dataclasses.replace(params, c_nu=0.0, beta_g=1e6 / params.rho_ap)
    (stats,) = monte_carlo_delta(p, ("kalman",), 200, 5)
    mask = np.abs(stats.mean_delta) > 0
    assert mask.any()
    assert np.allclose(np.abs(stats.mean_delta[mask]), 1.0, atol=5e-3)


@pytest.mark.parametrize("scheme", ["kalman", "direct"])
def test_a_synced_chunk_draws_its_paths_in_two_calls(scheme, params, monkeypatch):
    # the warm-up's difference path in one call, the last two frames' paths in
    # another, whatever the frame length
    draw = Mock(wraps=compensation.wiener_values_at)
    monkeypatch.setattr(compensation, "wiener_values_at", draw)
    for F in (1, 2, 10):
        draw.reset_mock()
        monte_carlo_delta(dataclasses.replace(params, frame_len=F), (scheme,), 100, 35)
        assert 1 <= draw.call_count <= 2


@pytest.mark.parametrize("frame_len, noise", [(1, 0.0), (10, 0.0), (1, 0.04), (10, 0.04)])
def test_a_group_gives_each_scheme_the_bits_it_gets_alone(frame_len, noise, params):
    # kalman and direct of one cell draw each chunk once and track it twice:
    # in either order, each scheme's statistics are its one-scheme call's
    p = dataclasses.replace(params, frame_len=frame_len, ue_pilot_noise_var=noise)
    alone = {s: monte_carlo_delta(p, (s,), 1100, 23)[0] for s in ("kalman", "direct")}
    for group in (("kalman", "direct"), ("direct", "kalman")):
        for scheme, stats in zip(group, monte_carlo_delta(p, group, 1100, 23), strict=True):
            assert np.array_equal(stats.mean_delta, alone[scheme].mean_delta)
            assert np.array_equal(stats.cov, alone[scheme].cov)


@pytest.mark.parametrize("schemes", [("kalman", "ap1_only"), ("ap1_only", "direct"), ()])
def test_a_group_runs_on_one_plan(schemes, params):
    # synced schemes together, ap1_only alone
    with pytest.raises(ConfigError, match="share no plan"):
        monte_carlo_delta(params, schemes, 10, 0)


@pytest.mark.parametrize("snr_ap_db", [-15.0, -20.0])
def test_alpha_free_sync_error_has_the_projection_law(snr_ap_db):
    # the engine draws each direction's error as arctan2(b, sqrt(2 rho)||G|| + a),
    # without the phase alpha it measures; the matched-filter projection
    # angle(sqrt(rho)||G||^2 e^{j alpha} + ||G|| CN(0, 1)) - alpha, alpha uniform,
    # must have the same law. Compared as the e_12 - e_21 that obs reads: a
    # two-sample KS test at the 0.1% level, and E[cos e] within 3 standard errors
    p = default_params().with_snr_ap_db(snr_ap_db)
    op_norm = np.sqrt(4 * p.n_antennas * p.beta_g)   # MP edge: ||G||^2 ~ 4 N beta_g
    n = 20_000
    rng = np.random.default_rng(61)
    alpha = rng.uniform(-np.pi, np.pi, (2, n))
    proj = np.angle(np.sqrt(p.rho_ap) * op_norm**2 * np.exp(1j * alpha)
                    + complex_normal(rng, (2, n), op_norm**2)) - alpha
    ref = wrap(proj[1] - proj[0])
    eng = wrap(_measurements(np.random.default_rng(62), np.zeros((n, 1, 2)), np.full(n, op_norm),
                             p.rho_ap)[0])   # D = 0: the measurement is e_12 - e_21
    assert ks_distance(ref, eng) < 1.949 * np.sqrt(2 / n)
    cos_ref, cos_eng = np.cos(ref), np.cos(eng)
    assert abs(cos_ref.mean() - cos_eng.mean()) < 3 * np.sqrt((cos_ref.var() + cos_eng.var()) / n)


def test_monte_carlo_convergence_with_more_runs(params):
    (a,) = monte_carlo_delta(params, ("direct",), 1000, 13)
    (b,) = monte_carlo_delta(params, ("direct",), 2000, 13)
    mask = np.abs(b.mean_delta) > 0
    assert np.max(np.abs(a.mean_delta[mask] - b.mean_delta[mask])) <= 3.0 / np.sqrt(1000)


def test_mean_modulus_decays_with_hold_age(params):
    # positions served with the previous frame's tracker output (slot 1) have
    # strictly older compensation than slots 2..F of the same frame
    p = dataclasses.replace(params, frame_len=3)
    (stats,) = monte_carlo_delta(p, ("kalman",), 4000, 17)
    a2 = np.abs(stats.mean_delta[1])
    slot1 = a2[:100][a2[:100] > 0]
    slot2 = a2[100:200][a2[100:200] > 0]
    assert slot1.mean() < slot2.mean()


def test_kalman_beats_direct_when_measurements_noisy(params):
    # meas_var ~ 10 sigma_zeta^2: the filter's variance reduction must show up
    # as larger |E[Delta]| on AP2 positions
    sig2 = derive_sigma_nu(params)
    sigma_zeta_sq = 432 * sig2
    target_norm_sq = 1.0 / (params.rho_ap * 10 * sigma_zeta_sq)
    beta_g = target_norm_sq / (4 * params.n_antennas)  # MP edge: ||G||^2 ~ 4 N beta_g
    p = dataclasses.replace(params, beta_g=beta_g)
    (k,) = monte_carlo_delta(p, ("kalman",), 4000, 18)
    (d,) = monte_carlo_delta(p, ("direct",), 4000, 18)
    mask = np.abs(k.mean_delta[1]) > 0
    assert np.abs(k.mean_delta[1, mask]).mean() > np.abs(d.mean_delta[1, mask]).mean()


@pytest.mark.parametrize("scheme, frame_len", [
    ("kalman", 2),
    # at F = 1 the pilots of slot F, which set the carried-over psi, straddle
    # the sync instants: the hand-over from the warm-up's difference path to
    # both oscillator paths must keep the law of direct's single-frame output
    ("direct", 1),
], ids=["kalman", "direct"])
def test_engine_matches_reference_chain(scheme, frame_len, params):
    # independent oracle: dense trajectories + full vector measurements +
    # operation-level tracker/compensation, event by event
    p = dataclasses.replace(params, frame_len=frame_len)
    ref = reference_delta(p, scheme, 1200, 900).mean(axis=0)
    (eng,) = monte_carlo_delta(p, (scheme,), 4096, 901)
    mask = np.abs(eng.mean_delta) > 0
    assert np.array_equal(mask, np.abs(ref) > 0)
    diff = np.abs(eng.mean_delta[mask] - ref[mask])
    assert diff.mean() < 0.012
    assert diff.max() < 0.05
    # and the spectral efficiencies agree
    plan = build_plan(p, scheme)
    se_e = spectral_efficiency(plan, per_position_rates(p, plan, eng.mean_delta))[0]
    se_r = spectral_efficiency(plan, per_position_rates(p, plan, ref))[0]
    assert se_e == pytest.approx(se_r, abs=0.03)


@pytest.mark.parametrize("frame_len", [1, 2])
def test_carried_over_psi_matches_reference_chain_position_by_position(frame_len, params):
    # AP 2's payload before its first demod pilot reads psi carried over from
    # the previous frame's slot F: too few positions for the whole-table
    # bounds above to see, so each is checked against the literal chain's
    # per-run values, within 4 standard errors in each component; at 10x the
    # default c_nu a psi from the measured frame's slot F misses by 7-12
    p = dataclasses.replace(params, frame_len=frame_len, c_nu=5e-17)
    geom = _cell_geometry(p, build_plan(p, "kalman"))
    carried = geom.pos[geom.segments[geom.segment, 3] == 0] - 1
    assert carried.size == p.tau_g
    runs = reference_delta(p, "kalman", 600, 0)[:, 1, carried]
    (eng,) = monte_carlo_delta(p, ("kalman",), 8192, 7)
    # the engine's standard error: segment variance x weight^2 / n per position
    at = np.isin(eng.cols, carried)
    S = len(eng.cov) // 2
    for part, offset in ((np.real, 0), (np.imag, S)):
        var = eng.cov.diagonal()[offset + eng.segment[at]] * eng.weight[at] ** 2
        se = np.hypot(part(runs).std(axis=0, ddof=1) / np.sqrt(len(runs)),
                      np.sqrt(var / eng.n_runs))
        z = (part(eng.mean_delta[1, carried]) - part(runs).mean(axis=0)) / se
        assert np.all(np.abs(z) <= 4), z


def test_anchor_follows_every_instant_the_compensation_reads():
    # the conditional mean rests on this: the increment from a position's
    # anchor to the position is independent of everything its Delta reads,
    # which the engine takes from the position's row of AP 2's segment table;
    # AP 1's exact row is checked at a drift where its weights matter (below
    # 0.5 at the widest downlinks)
    for p, scheme in product(GEOMETRIES, ("kalman", "ap1_only")):
        with at_geometry(p, scheme):
            _check_anchor(dataclasses.replace(p, c_nu=5e-15), scheme)


def _check_anchor(p, scheme):
    plan = build_plan(p, scheme)
    geom = _cell_geometry(p, plan)
    L, W = plan.n_samples, WARMUP_FRAMES
    sync = np.array(plan.sync_samples, dtype=int)
    pilots = np.stack((plan.demod_pilot_samples[0],
                       plan.pilot_samples[:, representative_ue(p.n_ues) - 1]))
    # one grid over frames W-1 and W, as offsets from frame W-1's start; the
    # gaps step D from sample 1 through i1 and i2 of frames 0..W-2, then both
    # paths through the grid
    assert np.all(np.diff(geom.instants) > 0)
    assert geom.instants[0] >= 1 and geom.instants[-1] <= 2 * L
    assert np.all(geom.d_gaps >= 0) and np.all(geom.gaps >= 0)
    assert np.array_equal(1 + np.cumsum(np.concatenate((geom.d_gaps, geom.gaps))),
                          np.concatenate(((np.arange(W - 1)[:, None] * L + sync).ravel(),
                                          (W - 1) * L + geom.instants)))
    # sync columns: i1 and i2 of frame W-1, then of frame W
    assert np.array_equal(geom.instants[geom.sync_cols], np.concatenate((sync, L + sync)))
    # psi columns (AP 1's demod pilot, the representative UE's pilot): frame
    # W-1's slot F for the carried-over psi, then frame W's slots
    assert np.array_equal(geom.instants[geom.psi_cols[:, 0]], pilots[:, -1])
    assert np.array_equal(geom.instants[geom.psi_cols[:, 1:]], L + pilots)

    anchor, krep_col, tracker, psi_slot = geom.segments[geom.segment].T
    assert np.array_equal(geom.pos, np.flatnonzero(plan.data_mask()[1]) + 1)
    at = geom.instants[anchor] - L            # frame W's offsets
    assert np.all((0 < at) & (at < geom.pos)) and not np.isin(L + geom.pos, geom.instants).any()
    pilot = geom.instants[krep_col] - L       # the representative UE's, in the position's slot
    assert np.array_equal(pilot, (geom.pos - 1) // p.tau_c * p.tau_c + representative_ue(p.n_ues))
    assert np.all(pilot <= at)
    this = psi_slot > 0                                       # psi set in this frame
    for cols in geom.psi_cols:
        assert np.all(geom.instants[cols[psi_slot[this]]] - L <= at[this])
    fresh = tracker == 1                                      # this frame's tracker output
    assert np.all(geom.instants[geom.sync_cols].max(initial=0) - L <= at[fresh])
    # each row of the table is one maximal run of consecutive positions
    assert np.array_equal(np.unique(geom.segment), np.arange(len(geom.segments)))
    assert np.all(np.diff(geom.segment) >= 0) and np.diff(geom.segments, axis=0).any(axis=1).all()
    # AP 1's exact row rests on its payload following its slot's demod pilot
    # with no grid instant in between: its E[Delta] is the drift since its
    # anchor on the grid
    pos = np.flatnonzero(plan.data_mask()[0]) + 1
    anchor = np.searchsorted(geom.instants, L + pos) - 1
    demod = plan.demod_pilot_samples[0, (pos - 1) // p.tau_c]
    assert np.array_equal(geom.instants[anchor], L + demod)
    expect = np.zeros(plan.n_samples)
    expect[pos - 1] = np.exp(-(L + pos - geom.instants[anchor]) * derive_sigma_nu(p) / 2)
    assert np.array_equal(_ap1_row(p, plan), expect.astype(complex) * [[1], [0]])


@pytest.mark.parametrize("scheme, noise", [("ap1_only", 0.04), ("kalman", 0.0)])
def test_a_cell_without_ap2_payload_draws_nothing(scheme, noise, params, tiny_params,
                                                   monkeypatch):
    # ap1_only, and a synced cell whose AP 2 sends no payload: no geometry,
    # no chunk, no op norm, no path
    spies = {name: Mock(wraps=getattr(compensation, name)) for name in (
        "_cell_geometry", "_simulate_chunk", "wiener_values_at", "draw_op_norms")}
    for name, spy in spies.items():
        monkeypatch.setattr(compensation, name, spy)
    p = dataclasses.replace(params if scheme == "ap1_only" else tiny_params,
                            ue_pilot_noise_var=noise)
    (stats,) = monte_carlo_delta(p, (scheme,), 3 * CHUNK_SIZE, 41)
    assert not any(spy.called for spy in spies.values())
    exact = _ap1_row(p, build_plan(p, scheme))
    assert np.array_equal(stats.mean_delta, exact)
    assert stats.cov.shape == (0, 0) and stats.cols.size == 0


def test_ap1_only_cell_memory_is_independent_of_the_run_count(params):
    # an ap1_only cell draws nothing, so it holds nothing per run either
    (stats,), peak = traced_peak(monte_carlo_delta, params, ("ap1_only",), 10**7, 3)
    assert peak < 2**20 and stats.n_runs == 10**7
    assert all(np.size(v) <= stats.mean_delta.size for v in vars(stats).values())
    [(se, stderr)], peak = traced_peak(run_cell, params, ("ap1_only",), 10**7, 3)
    assert peak < 2**20 and stderr == 0.0


def test_oracles_share_no_code_with_the_engine():
    # the literal chain is an independent oracle only while it imports no
    # engine code beyond the parameters, the result format, the schedule, the
    # representative UE, the tracker's noise model and update rule and the
    # warm-up length
    allowed = {"otasync.experiment." + n for n in ("CSV_COLUMNS", "ResultRow")} \
        | {"otasync.timeline.sync_instants"} \
        | {"otasync.tracking." + n for n in ("representative_ue", "derive_noise_model",
                                            "kalman_init", "kalman_update")} \
        | {"otasync.compensation." + n for n in ("WARMUP_FRAMES", "build_plan")}
    imported = set()
    for name in ("oracles.py", "reference_chain.py"):
        tree = ast.parse((Path(__file__).parent / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported |= {f"{node.module}.{a.name}" for a in node.names}
            elif isinstance(node, ast.Import):
                imported |= {a.name for a in node.names}
    engine = {n for n in imported if n.split(".")[0] == "otasync"}
    assert engine
    assert {n for n in engine - allowed if not n.startswith("otasync.config.")} == set()


@pytest.mark.parametrize("scheme", ["kalman", "ap1_only"])
def test_exact_ap1_row_matches_reference_chain_with_ue_pilot_noise(scheme, params):
    # the literal chain's per-run Delta from one call; AP 1's exact row
    # must sit within 4 of the reference's own standard errors everywhere, in
    # each component (the real part resolves the noise factor exp(-0.02))
    p = dataclasses.replace(params, frame_len=2, n_antennas=8, ue_pilot_noise_var=0.04)
    runs = reference_delta(p, scheme, 400, 500)[:, 0]
    eng = monte_carlo_delta(p, (scheme,), 100, 901)[0].mean_delta[0]
    mask = eng != 0
    assert np.array_equal(mask, runs.mean(axis=0) != 0) and mask.sum() > 80
    for part in (np.real, np.imag):
        x = part(runs[:, mask])
        se = x.std(axis=0, ddof=1) / np.sqrt(len(x))
        assert np.all(np.abs(part(eng[mask]) - x.mean(axis=0)) <= 4 * se)
    assert se.max() < 0.015


@pytest.mark.parametrize("scheme", ["ap1_only", "kalman"])
def test_ue_pilot_noise_flag_degrades_mean(scheme, params):
    noisy = dataclasses.replace(params, ue_pilot_noise_var=0.04)
    (clean_stats,) = monte_carlo_delta(params, (scheme,), 2000, 19)
    (noisy_stats,) = monte_carlo_delta(noisy, (scheme,), 2000, 19)
    mask = np.abs(clean_stats.mean_delta[0]) > 0
    clean_mean = np.abs(clean_stats.mean_delta[0, mask]).mean()
    noisy_mean = np.abs(noisy_stats.mean_delta[0, mask]).mean()
    # Gaussian characteristic function: extra factor exp(-0.04/2)
    assert noisy_mean == pytest.approx(clean_mean * np.exp(-0.02), rel=0.01)


@pytest.mark.parametrize("scheme, n_positions", [("kalman", 0), ("direct", 0), ("ap1_only", 1)])
def test_cell_with_few_payload_positions(scheme, n_positions, tiny_params):
    # tau_c = 4 leaves the synced schedules no payload sample and ap1_only one
    assert build_plan(tiny_params, scheme).data_mask().sum() == n_positions
    (stats,) = monte_carlo_delta(tiny_params, (scheme,), 50, 3)
    assert np.count_nonzero(stats.mean_delta) == n_positions
    [(se, _)] = run_cell(tiny_params, (scheme,), 50, 3)
    assert (se > 0) == (n_positions > 0)


def _pinned_mean(params, name):
    scheme, overrides = PINNED_CELLS[name]
    p = dataclasses.replace(params, **overrides)
    return monte_carlo_delta(p, (scheme,), CHUNK_SIZE + 100, 4242)[0].mean_delta


@pytest.mark.parametrize("name", sorted(PINNED_CELLS))
def test_rng_stream_matches_stored_values(name, params):
    # a change to the order or shape of the engine's draws fails here; the
    # tolerance only absorbs last-bit differences between LAPACK/libm builds
    stored = np.load(PINNED_PATH)[name]
    assert np.allclose(_pinned_mean(params, name), stored, rtol=0.0, atol=1e-12)


def _pinned_trace(params, name):
    scheme, seed = PINNED_TRACES[name]
    return np.array([[row[f] for f in TRACE_FIELDS]
                     for row in run_phase_trace(params, 20, seed, scheme)])


@pytest.mark.parametrize("name", sorted(PINNED_TRACES))
def test_phase_trace_matches_stored_values(name, params):
    stored = np.load(PINNED_TRACE_PATH)[name]
    assert np.allclose(_pinned_trace(params, name), stored, rtol=0.0, atol=1e-12)


def test_invalid_scheme(params):
    with pytest.raises(ValueError):
        monte_carlo_delta(params, ("zero_forcing",), 10, 0)
    with pytest.raises(ValueError):
        monte_carlo_delta(params, ("kalman",), 0, 0)


def test_plan_is_keyword_only(params):
    # so are the op norms: the benchmark's tracer reads a fifth positional
    # argument as a worker count
    plan = build_plan(params, "kalman")
    with pytest.raises(TypeError):
        monte_carlo_delta(params, ("kalman",), 10, 0, plan)
    with pytest.raises(TypeError):
        monte_carlo_delta(params, ("kalman",), 10, 0, draw_op_norms(params, 0, 10))


if __name__ == "__main__":
    # Regenerate the stored stream values (only for a change that is meant to
    # alter the random stream): python -m tests.test_compensation
    PINNED_PATH.parent.mkdir(exist_ok=True)
    np.savez_compressed(PINNED_PATH, **{name: _pinned_mean(default_params(), name)
                                        for name in PINNED_CELLS})
    np.savez_compressed(PINNED_TRACE_PATH, **{name: _pinned_trace(default_params(), name)
                                              for name in PINNED_TRACES})
