import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otasync import compensation
from otasync.channel import batched_op_norms
from otasync.compensation import CHUNK_SIZE, OP_NORM_MEMO_SIZE, WARMUP_FRAMES, _cell_geometry, \
    _sync_errors, build_plan, chunk_op_norms, monte_carlo_delta, run_phase_trace
from otasync.config import ConfigError, default_params, derive_sigma_nu
from otasync.experiment import SweepSpec, run_cell, run_sweep
from otasync.rate import per_position_rates, spectral_efficiency
from otasync.tracking import representative_ue, wrap
from tests.conftest import geometries
from tests.oracles import CompensationState, PhaseTrajectory, complex_normal, \
    generate_trajectory, ks_distance, residual_delta, ue_psi_update
from tests.reference_chain import reference_delta

SIGMA_REF = 3.9478417604357436e-05
HETERO_BETA = 10 ** (-np.linspace(14.0, 22.0, 20) / 10)  # 20 unequal (UE, AP) gains

# Two-chunk cells whose E[Delta] tables pin the engine's random stream; the
# stored values were made by running this module as a script (see the end).
PINNED_PATH = Path(__file__).parent / "data" / "rng_stream.npz"
PINNED_CELLS = {
    "kalman_f2": ("kalman", dict(frame_len=2)),
    "direct_f1_hetero": ("direct", dict(frame_len=1, beta_ue=HETERO_BETA)),
    "ap1_only_f3": ("ap1_only", dict(frame_len=3)),
}


def _flat(value, length=400):
    return PhaseTrajectory(ap_id=1, start_index=1, values=np.full(length, value))


def test_theta_hold_semantics():
    comp = CompensationState()
    assert comp.theta(1) == 0.0
    comp.reset_theta2(0.7, time=97)
    assert comp.theta(2) == 0.7
    assert comp.theta(1) == 0.0  # theta_1 pinned at zero
    assert comp.last_theta_reset == 97
    comp.reset_theta2(-0.2, time=197)
    assert comp.theta(2) == -0.2


def test_psi_zero_phase_noise():
    nu1 = _flat(0.0)
    assert ue_psi_update(56, nu1, 100, 10) == 0.0


def test_psi_is_true_value_at_pilot():
    nu1 = generate_trajectory(3, 400, SIGMA_REF, initial_phase=0.5)
    psi = ue_psi_update(156, nu1, 100, 10)
    assert psi == pytest.approx(nu1.value_at(156) + nu1.value_at(105), abs=1e-15)


def test_residual_all_zero_phases():
    nu = (_flat(0.0), _flat(0.0))
    comp = CompensationState()
    assert residual_delta(5, 1, 70, nu, comp, 100) == pytest.approx(1 + 0j)


def test_residual_perfect_compensation():
    nu1 = generate_trajectory(9, 400, SIGMA_REF)
    nu2 = generate_trajectory(10, 400, SIGMA_REF)
    comp = CompensationState()
    i, k = 170, 5
    comp.psi = nu2.value_at(i) + nu2.value_at(105)  # k=5 pilot of slot 2
    d = residual_delta(k, 2, i, (nu1, nu2), comp, 100)
    assert d == pytest.approx(1 + 0j, abs=1e-12)


def test_residual_unit_modulus():
    nu1 = generate_trajectory(1, 400, SIGMA_REF, initial_phase=2.0)
    nu2 = generate_trajectory(2, 400, SIGMA_REF, initial_phase=-1.0)
    comp = CompensationState()
    comp.psi, comp.theta2 = 0.37, -1.1
    for i in (60, 170, 360):
        assert abs(residual_delta(5, 2, i, (nu1, nu2), comp, 100)) == \
            pytest.approx(1.0, abs=1e-14)


def test_residual_pilot_instant_identity():
    # at the demod-pilot sample with k = floor(K/2), the AP1 residual reduces
    # to exactly 1 (theta_1 = 0 and psi cancels both trajectory terms)
    nu1 = generate_trajectory(12, 400, SIGMA_REF, initial_phase=0.9)
    comp = CompensationState()
    pilot = 156
    comp.psi = ue_psi_update(pilot, nu1, 100, 10)
    d = residual_delta(5, 1, pilot, (nu1, _flat(0.0)), comp, 100)
    assert d == pytest.approx(1 + 0j, abs=1e-12)


def test_uncompensated_mean_matches_gaussian_characteristic_function():
    # no compensation, offset i - [i]_k = 50: phase = -(nu_i + nu_{[i]_k});
    # with the walk started 5 samples before [i]_k,
    # Var = (4*5 + 50) sigma^2 and |E[Delta]| = exp(-Var/2)
    sig2 = SIGMA_REF
    comp = CompensationState()
    n_paths = 10_000
    rng = np.random.default_rng(4)
    acc = 0.0 + 0.0j
    for _ in range(n_paths):
        nu1 = generate_trajectory(rng, 60, sig2)
        acc += residual_delta(5, 1, 55, (nu1, nu1), comp, 100)
    mean = acc / n_paths
    expect = np.exp(-(4 * 5 + 50) * sig2 / 2.0)
    assert abs(mean) == pytest.approx(expect, rel=0.05)


def test_zero_noise_gives_unit_means(params):
    # no oscillator drift and a near-noiseless inter-array link
    p = dataclasses.replace(params, c_nu=0.0, beta_g=1e6 / params.rho_ap)
    stats = monte_carlo_delta(p, "kalman", 200, 5)
    mask = np.abs(stats.mean_delta) > 0
    assert mask.any()
    assert np.allclose(np.abs(stats.mean_delta[mask]), 1.0, atol=5e-3)


def test_delta_stats_modulus_bound(params):
    stats = monte_carlo_delta(params, "direct", 500, 6)
    bound = 1.0 + 3.0 / np.sqrt(stats.n_realizations)
    assert np.all(np.abs(stats.mean_delta) <= bound)


def test_deterministic_given_seed(params):
    a = monte_carlo_delta(params, "kalman", 300, 11)
    b = monte_carlo_delta(params, "kalman", 300, 11)
    assert np.array_equal(a.mean_delta, b.mean_delta)


def test_op_norm_memo_hit_is_a_fresh_draw(params):
    p = dataclasses.replace(params, n_antennas=8)
    first = chunk_op_norms(p, 31, 2, 40)
    hit = chunk_op_norms(p, 31, 2, 40)
    rng = np.random.default_rng(np.random.SeedSequence(31, spawn_key=(2, 0)))
    assert np.array_equal(hit, batched_op_norms(rng, p, 40))
    assert hit is first and not hit.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        hit[0] = 1.0
    # the key is the channel law, the seed, the chunk and the run count
    for other in (chunk_op_norms(dataclasses.replace(p, beta_g=2 * p.beta_g), 31, 2, 40),
                  chunk_op_norms(p, 32, 2, 40), chunk_op_norms(p, 31, 3, 40),
                  chunk_op_norms(p, 31, 2, 41)[:40]):
        assert not np.array_equal(other, hit)


def test_op_norm_memo_never_holds_more_than_its_cap(params):
    p = dataclasses.replace(params, n_antennas=2)
    for chunk in range(OP_NORM_MEMO_SIZE + 20):
        chunk_op_norms(p, 0, chunk, 1)
        assert len(compensation._op_norm_memo) <= OP_NORM_MEMO_SIZE
    # one slot per chunk index below the cap: a hit keeps its entry, and a
    # draw for another key (here another seed) replaces it
    first = chunk_op_norms(p, 0, 20, 1)
    assert chunk_op_norms(p, 0, 20, 1) is first
    other = chunk_op_norms(p, 1, 20, 1)
    key, norms = compensation._op_norm_memo[20]
    assert key == (2, p.beta_g, 1, 1) and norms is other
    assert chunk_op_norms(p, 0, 20, 1) is not first
    assert chunk_op_norms(p, 0, 21, 1) is compensation._op_norm_memo[21][1]
    assert max(compensation._op_norm_memo) < OP_NORM_MEMO_SIZE


def test_op_norm_memo_keeps_its_chunks_when_a_cell_has_more_than_it_holds(params, monkeypatch):
    # two cells of one seed, 4 chunks each, 3 memo slots: the second cell
    # redraws only the chunk past the cap, not every chunk
    draws = []
    draw = compensation.batched_op_norms

    def spy(rng, p, n_runs):
        draws.append(n_runs)
        return draw(rng, p, n_runs)

    monkeypatch.setattr(compensation, "batched_op_norms", spy)
    monkeypatch.setattr(compensation, "OP_NORM_MEMO_SIZE", 3)
    compensation._op_norm_memo.clear()
    spec = SweepSpec(f_values=(1, 2), schemes=("kalman",), snr_ap_db=(-15.0,),
                     n_realizations=3 * CHUNK_SIZE + 10, master_seed=37)
    run_sweep(spec, dataclasses.replace(params, n_antennas=4))
    assert draws == [CHUNK_SIZE] * 3 + [10] * 2


def test_chunks_get_the_memoized_op_norms(params, monkeypatch):
    # each chunk runs on its memoized op norms
    seen = []
    simulate = compensation._simulate_chunk

    def spy(geom, chunk_index, n_runs, master_seed, group_starts, op_norm):
        seen.append(op_norm)
        return simulate(geom, chunk_index, n_runs, master_seed, group_starts, op_norm)

    monkeypatch.setattr(compensation, "_simulate_chunk", spy)
    monte_carlo_delta(params, "kalman", CHUNK_SIZE + 10, 33)
    assert [op.size for op in seen] == [CHUNK_SIZE, 10]
    for j, op_norm in enumerate(seen):
        assert op_norm is chunk_op_norms(params, 33, j, op_norm.size)


@pytest.mark.parametrize("scheme", ["kalman", "direct"])
def test_a_synced_chunk_draws_its_paths_in_two_calls(scheme, params, monkeypatch):
    # the warm-up's difference path in one call, the last two frames' paths in
    # another, whatever the frame length
    calls = []
    draw = compensation.wiener_values_at

    def spy(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(compensation, "wiener_values_at", spy)
    for F in (1, 2, 10):
        calls.clear()
        monte_carlo_delta(dataclasses.replace(params, frame_len=F), scheme, 100, 35)
        assert 1 <= len(calls) <= 2


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
    eng = wrap(_sync_errors(np.random.default_rng(62), np.full(n, op_norm), p.rho_ap, 1)[0])
    assert ks_distance(ref, eng) < 1.949 * np.sqrt(2 / n)
    cos_ref, cos_eng = np.cos(ref), np.cos(eng)
    assert abs(cos_ref.mean() - cos_eng.mean()) < 3 * np.sqrt((cos_ref.var() + cos_eng.var()) / n)


def test_monte_carlo_convergence_with_more_runs(params):
    a = monte_carlo_delta(params, "direct", 1000, 13)
    b = monte_carlo_delta(params, "direct", 2000, 13)
    mask = np.abs(b.mean_delta) > 0
    assert np.max(np.abs(a.mean_delta[mask] - b.mean_delta[mask])) <= 3.0 / np.sqrt(1000)


def test_ap1_only_high_mean(params):
    # pure demod-pilot hold drift: |E[Delta]| >= 0.99 at reference noise levels
    stats = monte_carlo_delta(params, "ap1_only", 1000, 14)
    mask = np.abs(stats.mean_delta[0]) > 0
    assert mask.sum() == 41
    assert np.all(np.abs(stats.mean_delta[0, mask]) >= 0.99)
    assert not np.any(np.abs(stats.mean_delta[1]) > 0)


def test_mean_modulus_decays_with_hold_age(params):
    # positions served with the previous frame's tracker output (slot 1) have
    # strictly older compensation than slots 2..F of the same frame
    p = dataclasses.replace(params, frame_len=3)
    stats = monte_carlo_delta(p, "kalman", 4000, 17)
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
    k = monte_carlo_delta(p, "kalman", 4000, 18)
    d = monte_carlo_delta(p, "direct", 4000, 18)
    mask = np.abs(k.mean_delta[1]) > 0
    assert np.abs(k.mean_delta[1, mask]).mean() > np.abs(d.mean_delta[1, mask]).mean()


@pytest.mark.parametrize("scheme, frame_len", [
    ("kalman", 2),
    ("ap1_only", 2),
    # at F = 1 the pilots of slot F, which set the carried-over psi, straddle
    # the sync instants: the hand-over from the warm-up's difference path to
    # both oscillator paths must keep the law of direct's single-frame output
    ("direct", 1),
], ids=["kalman", "ap1_only", "direct"])
def test_engine_matches_reference_chain(scheme, frame_len, params):
    # independent oracle: dense trajectories + full vector measurements +
    # operation-level tracker/compensation, event by event
    p = dataclasses.replace(params, frame_len=frame_len)
    ref = reference_delta(p, scheme, 1200, 900)
    eng = monte_carlo_delta(p, scheme, 4096, 901)
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
    geom = _cell_geometry(p, "kalman")
    carried = geom.pos[geom.segments[geom.segment, 3] == 0] - 1
    assert carried.size == p.tau_g
    runs = np.array([reference_delta(p, "kalman", 1, seed)[1, carried] for seed in range(600)])
    eng = monte_carlo_delta(p, "kalman", 8192, 7)
    for part in (np.real, np.imag):
        ref, groups = part(runs), part(eng.group_means[:, 1, carried])
        se = np.hypot(ref.std(axis=0, ddof=1) / np.sqrt(len(ref)),
                      groups.std(axis=0, ddof=1) / np.sqrt(len(groups)))
        z = (part(eng.mean_delta[1, carried]) - ref.mean(axis=0)) / se
        assert np.all(np.abs(z) <= 4), z


def test_ap1_only_shared_mean_is_the_anchor_weight(params):
    # without UE-pilot noise, psi cancels AP 1's phase at the demod pilot, the
    # anchor of every payload sample of its slot: each run contributes exactly
    # exp(-(p - d) sigma^2 / 2), so no run-to-run spread is left
    p = dataclasses.replace(params, frame_len=3, c_nu=5e-15)
    plan = build_plan(p, "ap1_only")
    pos = np.flatnonzero(plan.data_mask()[0]) + 1
    demod = plan.demod_pilot_samples[0, (pos - 1) // p.tau_c]
    expect = np.exp(-(pos - demod) * derive_sigma_nu(p) / 2)
    assert expect.min() < 0.5
    stats = monte_carlo_delta(p, "ap1_only", 300, 21)
    assert np.allclose(stats.mean_delta[0, pos - 1], expect, rtol=1e-12, atol=0.0)
    assert run_cell(p, "ap1_only", 300, 21)[1] == 0.0


@settings(max_examples=60, deadline=None)
@given(geometries(), st.sampled_from(["kalman", "ap1_only"]))
def test_anchor_follows_every_instant_the_compensation_reads(p, scheme):
    # the conditional mean rests on this: the increment from a position's
    # anchor to the position is independent of everything its Delta reads,
    # which the engine takes from the position's row of AP 2's segment table
    geom = _cell_geometry(p, scheme)
    plan = build_plan(p, scheme)
    L, W = plan.n_samples, WARMUP_FRAMES
    sync = np.array([sample for sample, _, _ in plan.sync_events], dtype=int)
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
    # with no grid instant in between: its E[Delta] is the drift since that pilot
    pos = np.flatnonzero(plan.data_mask()[0]) + 1
    demod = plan.demod_pilot_samples[0, (pos - 1) // p.tau_c]
    assert np.array_equal(np.searchsorted(geom.instants, L + pos) - 1,
                          np.searchsorted(geom.instants, L + demod))
    expect = np.zeros(plan.n_samples)
    expect[pos - 1] = np.exp(-(pos - demod) * derive_sigma_nu(p) / 2)
    assert np.array_equal(geom.exact, expect.astype(complex) * [[1], [0]])


@pytest.mark.parametrize("scheme, noise", [("ap1_only", 0.04), ("kalman", 0.0)])
def test_a_cell_without_ap2_payload_draws_nothing(scheme, noise, params, tiny_params,
                                                   monkeypatch):
    # ap1_only, and a synced cell whose AP 2 sends no payload: no chunk, no
    # op norm, no path
    def forbidden(*args, **kwargs):
        raise AssertionError("the cell drew")

    for name in ("_simulate_chunk", "wiener_values_at", "chunk_op_norms"):
        monkeypatch.setattr(compensation, name, forbidden)
    p = dataclasses.replace(params if scheme == "ap1_only" else tiny_params,
                            ue_pilot_noise_var=noise)
    stats = monte_carlo_delta(p, scheme, 3 * CHUNK_SIZE, 41)
    exact = _cell_geometry(p, scheme).exact
    assert np.array_equal(stats.mean_delta, exact)
    assert all(np.array_equal(group, exact) for group in stats.group_means)


@pytest.mark.parametrize("scheme", ["kalman", "ap1_only"])
def test_exact_ap1_row_matches_reference_chain_with_ue_pilot_noise(scheme, params):
    # the literal chain's per-run Delta, one run per seed; AP 1's exact row
    # must sit within 4 of the reference's own standard errors everywhere, in
    # each component (the real part resolves the noise factor exp(-0.02))
    p = dataclasses.replace(params, frame_len=2, n_antennas=8, ue_pilot_noise_var=0.04)
    runs = np.array([reference_delta(p, scheme, 1, seed)[0] for seed in range(500, 900)])
    eng = monte_carlo_delta(p, scheme, 100, 901).mean_delta[0]
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
    clean_stats = monte_carlo_delta(params, scheme, 2000, 19)
    noisy_stats = monte_carlo_delta(noisy, scheme, 2000, 19)
    mask = np.abs(clean_stats.mean_delta[0]) > 0
    clean_mean = np.abs(clean_stats.mean_delta[0, mask]).mean()
    noisy_mean = np.abs(noisy_stats.mean_delta[0, mask]).mean()
    # Gaussian characteristic function: extra factor exp(-0.04/2)
    assert noisy_mean == pytest.approx(clean_mean * np.exp(-0.02), rel=0.01)


@pytest.mark.parametrize("scheme, n_positions", [("kalman", 0), ("direct", 0), ("ap1_only", 1)])
def test_cell_with_few_payload_positions(scheme, n_positions, tiny_params):
    # tau_c = 4 leaves the synced schedules no payload sample and ap1_only one
    assert build_plan(tiny_params, scheme).data_mask().sum() == n_positions
    stats = monte_carlo_delta(tiny_params, scheme, 50, 3)
    assert np.count_nonzero(stats.mean_delta) == n_positions
    se, _ = run_cell(tiny_params, scheme, 50, 3)
    assert (se > 0) == (n_positions > 0)


def _pinned_mean(params, name):
    scheme, overrides = PINNED_CELLS[name]
    p = dataclasses.replace(params, **overrides)
    return monte_carlo_delta(p, scheme, CHUNK_SIZE + 100, 4242).mean_delta


@pytest.mark.parametrize("name", sorted(PINNED_CELLS))
def test_rng_stream_matches_stored_values(name, params):
    # a change to the order or shape of the engine's draws fails here; the
    # tolerance only absorbs last-bit differences between LAPACK/libm builds
    stored = np.load(PINNED_PATH)[name]
    assert np.allclose(_pinned_mean(params, name), stored, rtol=0.0, atol=1e-12)


def test_invalid_scheme(params):
    with pytest.raises(ValueError):
        monte_carlo_delta(params, "zero_forcing", 10, 0)
    with pytest.raises(ConfigError, match="unknown scheme"):
        build_plan(params, "zero_forcing")
    with pytest.raises(ValueError):
        monte_carlo_delta(params, "kalman", 0, 0)


def test_plan_is_keyword_only(params):
    plan = build_plan(params, "kalman")
    with pytest.raises(TypeError):
        monte_carlo_delta(params, "kalman", 10, 0, plan)


def test_trace_output_fields(params):
    rows = run_phase_trace(params, 30, 2)
    assert len(rows) == 30
    assert set(rows[0]) == {"n", "obs", "alpha_hat", "p_var", "kappa", "alpha_true"}
    kappas = [r["kappa"] for r in rows[5:]]
    assert all(0 < k < 1 for k in kappas)
    for scheme in ("ap1_only", "bogus"):
        with pytest.raises(ConfigError, match=f"cannot trace scheme '{scheme}'; expected one of"):
            run_phase_trace(params, 5, 2, scheme=scheme)
    with pytest.raises(ConfigError):
        run_phase_trace(params, 0, 2)


def test_trace_rejects_what_the_broken_slot_rejects():
    # the sync instants come from the plan, so a slot too short to relocate
    # tau_g + 1 uplink samples is rejected as it is by the sweep
    p = default_params(n_ues=1, tau_p=1, tau_u=2, tau_g=2, tau_d=5, tau_c=12,
                       beta_ue=0.01, eta=1.0)
    with pytest.raises(ConfigError, match="cannot relocate 3 uplink samples"):
        run_phase_trace(p, 3, 2)


if __name__ == "__main__":
    # Regenerate the stored stream values (only for a change that is meant to
    # alter the random stream): python -m tests.test_compensation
    PINNED_PATH.parent.mkdir(exist_ok=True)
    np.savez_compressed(PINNED_PATH, **{name: _pinned_mean(default_params(), name)
                                        for name in PINNED_CELLS})
