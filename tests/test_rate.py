import dataclasses
import math

import numpy as np
import pytest

from otasync.compensation import monte_carlo_delta, build_plan
from otasync.config import default_params
from otasync.rate import RateBreakdown, per_position_rates, rate_at_position, se_gradient, \
    spectral_efficiency
from otasync.timeline import SamplePlan, build_conventional_slot, build_frame_schedule
from tests.conftest import small_instance, traced_peak
from tests.oracles import closed_form_powers, monte_carlo_rate_oracle, synthetic_delta


def _at(params, k, a, mean_delta) -> RateBreakdown:
    """Breakdown for UE k (1-based) at one position with indicators a."""
    b = rate_at_position(params, np.reshape(a, (2, 1)), np.reshape(mean_delta, (2, 1)))
    return RateBreakdown(*(float(x[k - 1, 0]) for x in
                           (b.ds_power, b.bu_power, b.ui_power, b.rate_bits)),
                         signal=complex(b.signal[k - 1, 0]))


def test_rate_zero_when_no_ap_transmits(params):
    b = _at(params, 1, (0, 0), (1.0, 1.0))
    assert b.ds_power == 0.0 and b.rate_bits == 0.0


def test_rate_reference_working_point(params):
    # symmetric scenario, perfect compensation on both APs; frozen values
    # computed by hand from the closed form (gamma = 0.1/11)
    b = _at(params, 4, (1, 1), (1.0, 1.0))
    assert b.ds_power == pytest.approx(46.54545454545455, rel=1e-12)
    assert b.bu_power == 0.0
    assert b.ui_power == pytest.approx(4.0, rel=1e-12)
    assert b.rate_bits == pytest.approx(3.365845211417569, rel=1e-12)


def test_rate_zero_mean_delta(params):
    b = _at(params, 1, (1, 1), (0.0, 0.0))
    assert b.ds_power == 0.0
    assert b.rate_bits == 0.0
    assert b.bu_power > 0  # uncertainty is maximal


def test_rate_single_ap(params):
    b = _at(params, 1, (1, 0), (1.0, 0.0))
    assert b.ds_power == pytest.approx(64 * 200 * 0.1 * (0.1 / 11), rel=1e-12)
    assert b.ui_power == pytest.approx(2.0, rel=1e-12)


def test_rate_monotone_in_mean_delta(params):
    rates = []
    for d in np.linspace(0, 1, 11):
        rates.append(_at(params, 1, (1, 1), (d, d)).rate_bits)
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_rate_uses_complex_mean_phase(params):
    aligned = _at(params, 1, (1, 1), (0.9, 0.9))
    opposed = _at(params, 1, (1, 1), (0.9, -0.9))
    assert opposed.ds_power == pytest.approx(0.0, abs=1e-9)
    assert aligned.rate_bits > opposed.rate_bits
    rotated = _at(params, 1, (1, 1), (0.9 * np.exp(1j), 0.9 * np.exp(1j)))
    assert rotated.rate_bits == pytest.approx(aligned.rate_bits, rel=1e-12)


def test_denominator_groupings_agree(params):
    # the closed form's denominator grouping equals the direct decomposition's
    # bu + ui for any mean_delta
    for d1, d2 in ((1.0, 1.0), (0.3, 0.8j), (0.0, 0.5)):
        b = _at(params, 2, (1, 1), (d1, d2))
        ds, bu, ui = closed_form_powers(params, 2, (1, 1), (d1, d2))
        assert b.ds_power == pytest.approx(ds, rel=1e-12)
        assert b.bu_power + b.ui_power == pytest.approx(bu + ui, rel=1e-12)


def _hetero_params():
    rng = np.random.default_rng(31)
    beta = rng.uniform(0.002, 0.05, (10, 2))
    eta = rng.uniform(0.1, 1.0, (10, 2))
    return default_params(beta_ue=beta, eta=eta / eta.sum(axis=0, keepdims=True))


@pytest.mark.parametrize("make_params", [default_params, _hetero_params],
                         ids=["default", "hetero"])
def test_rate_table_matches_scalar_reference(make_params):
    # every (table, k, position) of the vectorized tables against the scalar
    # per-UE loop; positions cover both APs, each AP alone and no AP
    p = make_params()
    rng = np.random.default_rng(32)
    a = np.array([[1, 1, 0, 0, 1, 1, 0, 1],
                  [1, 0, 1, 0, 1, 1, 0, 0]], dtype=bool)
    n = a.shape[1]
    mod = rng.uniform(0.0, 1.0, (3, 2, n))
    mod[0, :, 4] = 1.0
    mean_delta = mod * np.exp(1j * rng.uniform(-np.pi, np.pi, (3, 2, n)))
    for table in mean_delta:
        b = rate_at_position(p, a, table)
        assert b.ds_power.shape == b.ui_power.shape == (p.n_ues, n)
        for k in range(1, p.n_ues + 1):
            for pos in range(n):
                ds, bu, ui = closed_form_powers(p, k, a[:, pos], table[:, pos])
                np.testing.assert_allclose(b.ds_power[k - 1, pos], ds, rtol=1e-12, atol=0)
                np.testing.assert_allclose(b.bu_power[k - 1, pos] + b.ui_power[k - 1, pos],
                                           bu + ui, rtol=1e-12, atol=0)
        assert np.all(b.rate_bits[:, ~a.any(axis=0)] == 0.0)


def test_spectral_efficiency_zero(params):
    plan = build_plan(params, "kalman")
    assert np.all(spectral_efficiency(plan, np.zeros((10, 100))) == 0.0)
    with pytest.raises(ValueError):
        spectral_efficiency(plan, np.zeros((10, 99)))


def test_spectral_efficiency_conventional_position_count(params):
    # constant rate r at the 41 payload positions of a conventional-only slot
    plan = build_plan(params, "ap1_only")
    rates = np.where(plan.data_mask()[0], 2.0, 0.0)
    assert spectral_efficiency(plan, np.tile(rates, (10, 1)))[0] == \
        pytest.approx(0.41 * 2.0, rel=1e-12)


def test_spectral_efficiency_broken_position_count(params):
    # broken slot: each AP contributes 40 payload positions
    plan = build_plan(params, "kalman")
    data = plan.data_mask()
    assert data[0].sum() == 40 and data[1].sum() == 40
    rates = np.where(data.any(axis=0), 1.0, 0.0)
    union = np.count_nonzero(data.any(axis=0))
    assert union == 43  # 37 joint + 3 + 3 solo
    assert spectral_efficiency(plan, np.tile(rates, (10, 1)))[0] == \
        pytest.approx(union / 100, rel=1e-12)


@pytest.mark.parametrize("F", [1, 2, 10])
def test_schedule_term_of_breaking_the_tdd_flow(F, params):
    # the schedule term, SE(broken schedule) - SE(every slot conventional with
    # both arrays sending) at |E[Delta]| = 1: the broken slot trades 4 of the
    # conventional slot's 41 joint positions for 6 single ones, so the term
    # is (6 r_1 - 4 r_2) / (F tau_c), a small gain
    p = dataclasses.replace(params, frame_len=F)
    conv = build_conventional_slot(p)
    plans = build_frame_schedule(p), SamplePlan.from_slots([np.stack((conv, conv))] * F)
    ones = np.ones((2, F * p.tau_c), dtype=complex)
    rates = [per_position_rates(p, plan, ones) for plan in plans]
    se, conv_se = (spectral_efficiency(plan, r).mean() for plan, r in zip(plans, rates))
    masks = [plan.data_mask()[:, :p.tau_c] for plan in plans]
    joint = [int(m.all(axis=0).sum()) for m in masks]
    single = [int((m.any(axis=0) & ~m.all(axis=0)).sum()) for m in masks]
    assert (joint, single) == ([37, 41], [6, 0])
    data = plans[0].data_mask()
    at_joint = rates[0][:, data.all(axis=0)]
    at_single = rates[0][:, data.any(axis=0) & ~data.all(axis=0)]
    assert max(np.ptp(at_joint), np.ptp(at_single)) < 1e-12   # one rate per kind of position
    r1, r2 = at_single[0, 0], at_joint[0, 0]
    assert (r1, r2) == (pytest.approx(2.28652, abs=5e-6), pytest.approx(3.36585, abs=5e-6))
    assert conv_se == pytest.approx(1.38000, abs=5e-6)
    assert se - conv_se == pytest.approx((6 * r1 - 4 * r2) / (F * p.tau_c), rel=1e-9)
    assert (se - conv_se) * F == pytest.approx(0.002558, abs=5e-7)


def test_per_position_rates_layout(params):
    (stats,) = monte_carlo_delta(params, ("kalman",), 300, 3)
    plan = build_plan(params, "kalman")
    rates = per_position_rates(params, plan, stats.mean_delta)
    assert rates.shape == (10, 100)
    data_any = plan.data_mask().any(axis=0)
    assert np.all(rates[:, ~data_any] == 0)
    assert np.all(rates[:, data_any] > 0)
    assert np.allclose(rates[0], rates[5])  # symmetric scenario


@pytest.mark.parametrize("make_params", [default_params, _hetero_params],
                         ids=["default", "hetero"])
@pytest.mark.parametrize("scheme", ["kalman", "ap1_only"])
def test_per_position_rates_match_scalar_oracle(scheme, make_params):
    # every (table, k, position) of real F=2 plans and tables against the
    # scalar closed form; the table is computed at payload columns only and
    # is exactly 0 elsewhere
    p = dataclasses.replace(make_params(), frame_len=2)
    plan = build_plan(p, scheme)
    mask = plan.data_mask()
    for seed in (9, 10):
        table = monte_carlo_delta(p, (scheme,), 40, seed)[0].mean_delta
        rates = per_position_rates(p, plan, table)
        expect = np.zeros_like(rates)
        for k in range(1, p.n_ues + 1):
            for pos in np.flatnonzero(mask.any(axis=0)):
                ds, bu, ui = closed_form_powers(p, k, mask[:, pos], table[:, pos])
                expect[k - 1, pos] = math.log2(1.0 + ds / (bu + ui + 1.0))
        np.testing.assert_allclose(rates, expect, rtol=1e-12, atol=0)
        assert np.all(rates[:, ~mask.any(axis=0)] == 0.0)


def test_rate_tables_reject_a_mis_shaped_input(params):
    plan = build_plan(params, "kalman")
    for shape in ((2, plan.n_samples + 1), (2, plan.n_samples - 1), (3, 2, plan.n_samples)):
        with pytest.raises(ValueError, match="E\\[Delta\\]"):
            per_position_rates(params, plan, np.ones(shape, dtype=complex))
    with pytest.raises(ValueError):
        per_position_rates(params, plan, np.ones(plan.n_samples, dtype=complex))
    for a in (np.ones((2, 5), dtype=bool), np.ones((1, 4), dtype=bool),
              np.ones((3, 4), dtype=bool), np.ones(4, dtype=bool)):
        with pytest.raises(ValueError, match="indicators"):
            rate_at_position(params, a, np.ones((2, 4), dtype=complex))


def test_rate_stage_memory_is_bounded():
    # one table's rate stage at F=10, K=10 peaks within 4x the full-width
    # float64 rate table (313 KiB)
    p = default_params(frame_len=10)
    plan = build_plan(p, "kalman")
    table = monte_carlo_delta(p, ("kalman",), 20, 4)[0].mean_delta
    _, peak = traced_peak(lambda: spectral_efficiency(plan, per_position_rates(p, plan, table)))
    assert peak <= 4 * p.n_ues * plan.n_samples * 8


@pytest.mark.parametrize("frame_len", [1, 2, 10])
@pytest.mark.parametrize("scheme", ["kalman", "direct"])
@pytest.mark.parametrize("make_params", [default_params, _hetero_params],
                         ids=["default", "hetero"])
def test_se_gradient_matches_central_differences(make_params, scheme, frame_len):
    # d SE / d Re E[Delta] + j d SE / d Im E[Delta] of a real table, at
    # columns drawn from both rows, against central differences of the rate
    # stage; exactly 0 off each AP's payload
    p = dataclasses.replace(make_params(), frame_len=frame_len)
    plan = build_plan(p, scheme)
    table = monte_carlo_delta(p, (scheme,), 300, 5)[0].mean_delta
    grad = se_gradient(p, plan, table)
    assert grad.shape == table.shape and np.all(grad[~plan.data_mask()] == 0)

    def se(t):
        return spectral_efficiency(plan, per_position_rates(p, plan, t)).mean()

    h, tol = 1e-6, 1e-6 * np.abs(grad).max()
    rng = np.random.default_rng(frame_len)
    for row in (0, 1):
        for col in (*rng.choice(plan.n_samples, 12, replace=False),
                    *np.flatnonzero(plan.data_mask()[row])[[0, -1]]):
            for unit, part in ((1, np.real), (1j, np.imag)):
                step = np.zeros_like(table)
                step[row, col] = h * unit
                diff = (se(table + step) - se(table - step)) / (2 * h)
                assert abs(diff - part(grad[row, col])) <= tol, (row, col, unit)


def test_synthetic_delta_moments():
    rng = np.random.default_rng(0)
    for target in (0.0, 0.5, 1.0, 0.7j):
        draws = synthetic_delta(rng, target, 200_000)
        assert np.allclose(np.abs(draws), 1.0)
        assert abs(draws.mean() - target) < 0.01


def test_oracle_matches_closed_form_no_phase_noise():
    # N=4, K=2, |E[Delta]|=1: empirical ds within 2% of N rho eta gamma x4
    p = small_instance(n_antennas=4)
    res = monte_carlo_rate_oracle(p, 1, (1, 1), (1.0, 1.0), 100_000, seed=5)
    ds_cf, bu_cf, ui_cf = closed_form_powers(p, 1, (1, 1), (1.0, 1.0))
    assert abs(res.ds_complex) ** 2 == pytest.approx(ds_cf, rel=0.02)
    assert res.bu_power == pytest.approx(bu_cf, rel=0.05)
    assert res.ui_power == pytest.approx(ui_cf, rel=0.05)


def test_oracle_interference_scaling():
    # E|UI|^2 = rho sum_l a eta_{k'} beta for the single interferer
    p = small_instance(n_antennas=8)
    res = monte_carlo_rate_oracle(p, 1, (1, 0), (0.5, 0.0), 50_000, seed=6)
    expect = p.rho_ap * p.eta[1, 0] * p.beta_ue[0, 0]
    assert res.ui_power == pytest.approx(expect, rel=0.05)


def test_oracle_rejects_bad_modulus():
    p = small_instance()
    with pytest.raises(ValueError):
        synthetic_delta(np.random.default_rng(0), 1.5, 10)
