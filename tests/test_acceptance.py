"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The figure-reproduction
criteria share one full sweep at 10^4 realizations per cell (several minutes
on one core).
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from otasync.config import default_params
from otasync.experiment import FIG2, FIG3, emit_csv, run_cell, run_sweep, SweepSpec
from otasync.timeline import Activity, build_frame_schedule, sync_instants
from otasync.tracking import NoiseModel, kalman_gain, kalman_update, KalmanState, \
    noise_coefficients, wrap
from tests.conftest import small_instance
from tests.oracles import channel_with_norm, closed_form_misses, csv_without_wall_time, \
    draw_estimates, lmmse_coefficient, measure_direction, random_rate_instance

ACCEPT_SEED = 20250810
N_REAL = 10_000
# each preset row's (se_mean, se_stderr) at N_REAL runs, in row order; made by
# running this module as a script (see the end)
PINNED_PRESETS_PATH = Path(__file__).parent / "data" / "presets.npz"


def _report(cid, name, ok, detail=""):
    print(f"\nACCEPTANCE {cid} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{cid} {name}: {detail}"


# -- criterion 1 -------------------------------------------------------------

def test_criterion_01_estimate_moment_identities():
    t0 = time.perf_counter()
    p = small_instance()  # N=8, K=2
    N, beta = p.n_antennas, p.beta_ue[0, 0]
    q, q_hat = draw_estimates(np.random.default_rng(ACCEPT_SEED), p, 1, 1, 100_000)
    _, gamma = lmmse_coefficient(p, 1, 1)
    err = q - q_hat

    fourth = (np.sum(np.abs(q_hat) ** 2, axis=1) ** 2).mean()
    fourth_expect = N * (N + 1) * gamma**2
    cross = (np.abs(np.einsum("ij,ij->i", err, np.conj(q_hat))) ** 2).mean()
    cross_expect = N * gamma * (beta - gamma)
    elapsed = time.perf_counter() - t0
    ok = (abs(fourth / fourth_expect - 1) <= 0.05
          and abs(cross / cross_expect - 1) <= 0.05 and elapsed < 30)
    _report("C1", "estimate moment identities", ok,
            f"E||q^||^4 ratio {fourth/fourth_expect:.4f}, "
            f"E|q~q^|^2 ratio {cross/cross_expect:.4f}, {elapsed:.1f}s")


# -- criterion 2 -------------------------------------------------------------

def test_criterion_02_closed_form_vs_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED + 1)
    failures = []
    for trial in range(10):
        p, k, target = random_rate_instance(rng)
        failures += [f"trial {trial}: {term}" for term in
                     closed_form_misses(p, k, target, 60_000, seed=ACCEPT_SEED + 10 + trial)]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300
    _report("C2", "closed form vs brute force", ok,
            f"10 instances, {elapsed:.0f}s" + (f", failures: {failures}" if failures else ""))


# -- criterion 3 -------------------------------------------------------------

def test_criterion_03_kalman_algebra_and_wrap():
    model = NoiseModel(sigma_zeta_sq=0.017055, sigma_xi_sq=0.003711, meas_var=0.005)
    kappa = kalman_gain(0.01, model)
    new = kalman_update(KalmanState(alpha_hat=0.0, p_var=0.01), 1.0, model)
    ok_kalman = (abs(kappa - 0.5246623043661271) < 1e-9
                 and abs(new.p_var - 0.0198613551448360) < 1e-9
                 and abs(new.alpha_hat - kappa * 1.0) < 1e-12)
    table = ((0.0, 0.0), (math.pi, -math.pi), (2.5 * math.pi, 0.5 * math.pi),
             (-math.pi, -math.pi), (-2.5 * math.pi, -0.5 * math.pi))
    ok_wrap = all(abs(wrap(x) - want) < 1e-12 for x, want in table)
    _report("C3", "kalman algebra + wrap table", ok_kalman and ok_wrap,
            f"kappa {kappa:.6f}, P' {new.p_var:.6f}")


# -- criterion 4 -------------------------------------------------------------

def test_criterion_04_measurement_mse_scaling():
    rng = np.random.default_rng(ACCEPT_SEED + 2)
    norm_sq = 0.05
    chan = channel_with_norm(rng, 8, norm_sq)
    nu = (np.zeros((10_000, 1)), np.full((10_000, 1), 0.25))  # one row per trial
    results = []
    ok = True
    for target in (20.0, 100.0, 1000.0):
        errs = measure_direction(2, 1, chan, nu, target / norm_sq, rng) + 0.25
        ratio = np.mean(errs**2) / (0.5 / target)
        results.append(f"rho||G||^2={target:g}: ratio {ratio:.3f}")
        ok = ok and 0.7 <= ratio <= 1.3
    _report("C4", "angle MSE ~ 0.5/(rho ||G||^2)", ok, "; ".join(results))


# -- criterion 5 -------------------------------------------------------------

def test_criterion_05_noise_model_integer_coefficients():
    p = default_params()
    c_zeta, c_xi = noise_coefficients(p)
    ok = (c_zeta, c_xi) == (432, 94)
    _report("C5", "drift-variance bookkeeping", ok, f"coefficients ({c_zeta}, {c_xi})")


# -- criterion 6 -------------------------------------------------------------

def test_criterion_06_schedule_audit():
    p = default_params()
    i1, i2 = sync_instants(p)
    plan = build_frame_schedule(p)
    ul = (Activity.UL_PILOT, Activity.UL_DATA, Activity.SYNC_RX)
    dl = (Activity.DL_DATA, Activity.DL_DEMOD_PILOT, Activity.SYNC_TX)
    ap1_ul, ap1_dl = np.isin(plan.labels[0], ul), np.isin(plan.labels[0], dl)
    ap2_ul, ap2_dl = np.isin(plan.labels[1], ul), np.isin(plan.labels[1], dl)
    overlap_ok = (np.count_nonzero(ap2_dl & ap1_ul) == 1
                  and np.count_nonzero(ap1_dl & ap2_ul) == 1)
    guard_ok = True
    for lab in plan.labels:
        for n in range(plan.n_samples - 1):
            a, b = lab[n], lab[n + 1]
            if (a in [int(x) for x in ul] and b in [int(x) for x in dl]) or \
                    (a in [int(x) for x in dl] and b in [int(x) for x in ul]):
                guard_ok = False
    ok = overlap_ok and guard_ok and i1 == 52 and i2 == 97
    _report("C6", "schedule audit", ok,
            f"i1={i1}, i2={i2}, single overlap each way: {overlap_ok}")


# -- criterion 7 -------------------------------------------------------------

def test_criterion_07_determinism():
    p = default_params()
    spec = SweepSpec(f_values=(1, 2), schemes=("kalman", "ap1_only"),
                     snr_ap_db=(-15.0,), n_realizations=200, master_seed=7)
    a = csv_without_wall_time(emit_csv(run_sweep(spec, p)))
    b = csv_without_wall_time(emit_csv(run_sweep(spec, p)))
    ok = a == b
    _report("C7", "bit-identical CSV for a fixed seed", ok,
            "(wall_time_s column excluded: not reproducible by nature)")


# -- criteria 8-11: figure reproduction --------------------------------------

def _preset_table():
    """{(fig, scheme, snr or None, F): row} of both presets, in row order."""
    p, table = default_params(), {}
    for fig, spec in (("fig2", FIG2), ("fig3", FIG3)):
        spec = dataclasses.replace(spec, n_realizations=N_REAL, master_seed=ACCEPT_SEED)
        for r in run_sweep(spec, p):
            snr = None if math.isnan(r.snr_ap_db) else r.snr_ap_db
            table[(fig, r.scheme, snr, r.frame_len)] = r
    return table


def _preset_values(table, fig):
    return np.array([(r.se_mean, r.se_stderr) for (f, *_), r in table.items() if f == fig])


@pytest.fixture(scope="module")
def fig_results():
    t0 = time.perf_counter()
    table = _preset_table()
    elapsed = time.perf_counter() - t0
    print(f"\n[figure sweeps: {len(table)} cells, {N_REAL} realizations each, {elapsed:.0f}s]")
    return table, elapsed


def test_preset_outputs_match_stored_values(fig_results):
    # every preset row's SE and stderr, so that a change meant to keep the
    # outputs is checked without recomputing them by hand; the tolerance only
    # absorbs last-bit differences between LAPACK/libm builds
    stored = np.load(PINNED_PRESETS_PATH)
    for fig in ("fig2", "fig3"):
        assert np.allclose(_preset_values(fig_results[0], fig), stored[fig],
                           rtol=0.0, atol=1e-12), fig


def test_criterion_08_fig2_qualitative(fig_results):
    table, elapsed = fig_results
    fs = range(1, 11)
    msgs = []
    ok_a = all(table[("fig2", "kalman", snr, F)].se_mean
               >= table[("fig2", "direct", snr, F)].se_mean
               for snr in (-15.0, -20.0) for F in fs)
    msgs.append(f"(a) kalman>=direct everywhere: {ok_a}")
    gap15 = np.mean([table[("fig2", "kalman", -15.0, F)].se_mean
                     - table[("fig2", "direct", -15.0, F)].se_mean for F in fs])
    gap20 = np.mean([table[("fig2", "kalman", -20.0, F)].se_mean
                     - table[("fig2", "direct", -20.0, F)].se_mean for F in fs])
    ok_b = gap20 > gap15
    msgs.append(f"(b) gap -20dB {gap20:.3f} > gap -15dB {gap15:.3f}: {ok_b}")
    ap1 = np.array([table[("fig2", "ap1_only", None, F)].se_mean for F in fs])
    ok_c = ap1.max() - ap1.min() <= 0.01 and np.all(np.abs(ap1 - 0.84) <= 0.10)
    msgs.append(f"(c) ap1-only flat at {ap1.mean():.4f} (target ~0.84+-0.10): {ok_c}")
    ok_d = True
    for snr in (-15.0, -20.0):
        ses = [table[("fig2", "kalman", snr, F)].se_mean for F in fs]
        peak = int(np.argmax(ses)) + 1
        ok_d = ok_d and peak in (1, 2, 3) and ses[2] > ses[5] > ses[9]
        msgs.append(f"(d) SNR {snr:g}: peak F={peak}, decay {ses[2]:.3f}>"
                    f"{ses[5]:.3f}>{ses[9]:.3f}")
    ok = ok_a and ok_b and ok_c and ok_d and elapsed <= 3600
    _report("C8", "fig2 qualitative", ok, "; ".join(msgs))


def test_criterion_09_fig2_quantitative(fig_results):
    table, _ = fig_results
    got = table[("fig2", "kalman", -15.0, 2)].se_mean
    residual = got - 1.2517
    # sensitivity to the UE-pilot noise flag (report only)
    p = dataclasses.replace(default_params().with_snr_ap_db(-15.0), frame_len=2,
                            ue_pilot_noise_var=0.01)
    from otasync.experiment import cell_seed
    [(se_noisy, _)] = run_cell(p, ("kalman",), 2000, cell_seed(ACCEPT_SEED, 0, 0))
    ok = abs(residual) <= 0.10
    _report("C9", "fig2 kalman -15dB F=2", ok,
            f"SE {got:.4f} vs 1.2517 (residual {residual:+.4f}); with UE-pilot "
            f"noise 0.01 rad^2: SE {se_noisy:.4f} (shift {se_noisy - got:+.4f})")


def test_criterion_10_fig3_qualitative(fig_results):
    table, _ = fig_results
    fs = range(1, 11)
    msgs = []
    ok_decay = True
    for scheme in ("kalman", "direct"):
        for snr in (-15.0, -20.0):
            r2 = table[("fig2", scheme, snr, 10)].se_mean / table[("fig2", scheme, snr, 1)].se_mean
            r3 = table[("fig3", scheme, snr, 10)].se_mean / table[("fig3", scheme, snr, 1)].se_mean
            ok_decay = ok_decay and r3 < r2
    msgs.append(f"faster decay in every scheme/SNR: {ok_decay}")
    ok_peak = True
    for snr in (-15.0, -20.0):
        ses = [table[("fig3", "kalman", snr, F)].se_mean for F in fs]
        peak = int(np.argmax(ses)) + 1
        ok_peak = ok_peak and peak == 1
        msgs.append(f"kalman optimum at F=1 (SNR {snr:g}): F*={peak}")
    ok_gap = True
    for snr in (-15.0, -20.0):
        g2 = np.mean([table[("fig2", "kalman", snr, F)].se_mean
                      - table[("fig2", "direct", snr, F)].se_mean for F in fs])
        g3 = np.mean([table[("fig3", "kalman", snr, F)].se_mean
                      - table[("fig3", "direct", snr, F)].se_mean for F in fs])
        ok_gap = ok_gap and g3 < g2
        msgs.append(f"gap shrinks at {snr:g}dB: {g3:.3f} < {g2:.3f}")
    ok = ok_decay and ok_peak and ok_gap
    _report("C10", "fig3 qualitative", ok, "; ".join(msgs))


def test_criterion_11_fig3_quantitative(fig_results):
    table, _ = fig_results
    got = table[("fig3", "kalman", -15.0, 1)].se_mean
    residual = got - 1.1931
    ok = abs(residual) <= 0.10
    _report("C11", "fig3 kalman -15dB F=1", ok,
            f"SE {got:.4f} vs 1.1931 (residual {residual:+.4f})")


if __name__ == "__main__":
    # Regenerate the stored preset values (only for a change that is meant to
    # alter the outputs): python -m tests.test_acceptance
    table = _preset_table()
    np.savez_compressed(PINNED_PRESETS_PATH, **{fig: _preset_values(table, fig)
                                                for fig in ("fig2", "fig3")})
