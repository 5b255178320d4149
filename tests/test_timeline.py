import numpy as np
import pytest

from otasync.config import ConfigError, default_params
from otasync.timeline import Activity, build_ap1_only_schedule, build_broken_slot, \
    build_conventional_slot, build_frame_schedule, sync_instants
from tests.conftest import GEOMETRIES, at_geometry
from tests.oracles import estimation_time

UPLINK_SIDE = (Activity.UL_PILOT, Activity.UL_DATA, Activity.SYNC_RX)
DOWNLINK_SIDE = (Activity.DL_DATA, Activity.DL_DEMOD_PILOT, Activity.SYNC_TX)


def spans(labels, activities):
    return np.nonzero(np.isin(labels, activities))[0] + 1


def test_sync_instants_minimal_slot(tiny_params):
    # i1 = 2, i2 = 4; no guard samples, so the sync signals sit next to the
    # demod pilot and AP 2 relocates only its last uplink sample
    assert sync_instants(tiny_params) == (2, 4)
    A = Activity
    assert list(build_conventional_slot(tiny_params)) == \
        [A.UL_PILOT, A.UL_DATA, A.DL_DEMOD_PILOT, A.DL_DATA]
    assert build_broken_slot(tiny_params).tolist() == \
        [[A.UL_PILOT, A.SYNC_RX, A.DL_DEMOD_PILOT, A.SYNC_TX],
         [A.UL_PILOT, A.SYNC_TX, A.DL_DEMOD_PILOT, A.SYNC_RX]]


def test_conventional_slot_over_valid_geometries():
    # the four lengths partition the slot in order; i1 closes the uplink, i2
    # the downlink, and the demod pilot opens the downlink
    A = Activity
    for geometry in GEOMETRIES:
        with at_geometry(geometry):
            p, u, g, d = geometry.tau_p, geometry.tau_u, geometry.tau_g, geometry.tau_d
            expect = [A.UL_PILOT] * p + [A.UL_DATA] * u + [A.GUARD] * g + [A.DL_DEMOD_PILOT] \
                + [A.DL_DATA] * (d - 1) + [A.GUARD] * g
            assert list(build_conventional_slot(geometry)) == expect
            downlink = spans(expect, DOWNLINK_SIDE)
            assert sync_instants(geometry) == (spans(expect, UPLINK_SIDE)[-1], downlink[-1])


def test_sync_geometry_over_valid_geometries():
    # C6 at every geometry: AP 2 sends a sync signal to AP 1 at i1 = tau_p +
    # tau_u and AP 1 one to AP 2 at i2 = i1 + tau_g + tau_d, and the broken
    # slot overlaps one AP's downlink with the other's uplink at exactly one
    # sample each way, at those instants
    for geometry in GEOMETRIES:
        with at_geometry(geometry):
            i1 = geometry.tau_p + geometry.tau_u
            i2 = i1 + geometry.tau_g + geometry.tau_d
            plan = build_frame_schedule(geometry)
            assert plan.sync_samples == (i1, i2)
            broken = plan.labels[:, :geometry.tau_c]
            assert broken[:, [i1 - 1, i2 - 1]].T.tolist() == \
                [[Activity.SYNC_RX, Activity.SYNC_TX], [Activity.SYNC_TX, Activity.SYNC_RX]]
            ap1_ul, ap1_dl = np.isin(broken[0], UPLINK_SIDE), np.isin(broken[0], DOWNLINK_SIDE)
            ap2_ul, ap2_dl = np.isin(broken[1], UPLINK_SIDE), np.isin(broken[1], DOWNLINK_SIDE)
            assert np.array_equal(np.flatnonzero(ap2_dl & ap1_ul) + 1, [i1])
            assert np.array_equal(np.flatnonzero(ap1_dl & ap2_ul) + 1, [i2])


def test_broken_slot_reference(params):
    ap1, ap2 = build_broken_slot(params)
    # AP1: conventional except sync samples
    assert ap1[51] == Activity.SYNC_RX and ap1[96] == Activity.SYNC_TX
    conv = build_conventional_slot(params)
    keep = np.ones(100, bool)
    keep[[51, 96]] = False
    assert np.array_equal(ap1[keep], conv[keep])
    # AP2: uplink 1..48, guard 49..51, downlink 52..93, guard 94..96, uplink 97..100
    assert np.all(ap2[:10] == Activity.UL_PILOT)
    assert np.all(ap2[10:48] == Activity.UL_DATA)
    assert np.all(ap2[48:51] == Activity.GUARD)
    assert ap2[51] == Activity.SYNC_TX
    assert np.all(ap2[52:55] == Activity.DL_DATA)
    assert ap2[55] == Activity.DL_DEMOD_PILOT
    assert np.all(ap2[56:93] == Activity.DL_DATA)
    assert np.all(ap2[93:96] == Activity.GUARD)
    assert ap2[96] == Activity.SYNC_RX
    assert np.all(ap2[97:100] == Activity.UL_DATA)


def test_broken_slot_too_small():
    p = default_params(n_ues=1, tau_u=2, tau_g=2, tau_d=5, tau_c=12,
                       beta_ue=0.01, eta=1.0)
    with pytest.raises(ConfigError, match="relocate"):
        build_broken_slot(p)


def test_estimation_time_examples():
    assert estimation_time(250, 5, 100) == 205
    assert estimation_time(52, 5, 100) == 5
    assert estimation_time(100, 10, 100) == 10
    # at the pilot sample itself the latest estimate is the previous slot's
    assert estimation_time(101, 1, 100) == 1
    assert estimation_time(102, 1, 100) == 101


def test_estimation_time_is_latest_kth_sample_before_i():
    for i in (1, 57, 100, 101, 250, 999):
        for k in (1, 5, 10):
            t = estimation_time(i, k, 100)
            assert (t - 1) % 100 + 1 == k        # k-th sample of some slot
            assert t < i                          # strictly in the past
            assert i - t <= 100                   # and at most one slot back
            if (i - 1) % 100 + 1 > k:             # same slot once the pilot passed
                assert (t - 1) // 100 == (i - 1) // 100


def test_frame_schedule_structure(params):
    import dataclasses
    p = dataclasses.replace(params, frame_len=3)
    plan = build_frame_schedule(p)
    assert plan.n_samples == 300
    assert plan.labels.shape == (2, 300)
    # slot 1 broken, slots 2..F conventional (identical labels across APs)
    assert not np.array_equal(plan.labels[0, :100], plan.labels[1, :100])
    for s in (1, 2):
        sl = slice(100 * s, 100 * (s + 1))
        assert np.array_equal(plan.labels[0, sl], plan.labels[1, sl])
    assert plan.sync_samples == (52, 97)
    assert plan.pilot_samples[1, 4] == 105
    assert np.array_equal(plan.demod_pilot_samples[0], [56, 156, 256])


def test_indicator_matches_transmitting_labels():
    # F = 2: a broken slot and a conventional one
    plan = build_frame_schedule(default_params(frame_len=2))
    expect = np.isin(plan.labels, DOWNLINK_SIDE)
    assert np.array_equal(plan.a, expect)


def test_downlink_sample_budget(params):
    # each AP's downlink window in the broken slot keeps its 42 samples:
    # 40 payload + 1 demod pilot + 1 sync transmission
    plan = build_frame_schedule(params)
    for ap in range(2):
        lab = plan.labels[ap]
        data = np.count_nonzero(lab == Activity.DL_DATA)
        pilot = np.count_nonzero(lab == Activity.DL_DEMOD_PILOT)
        sync = np.count_nonzero(lab == Activity.SYNC_TX)
        assert (data, pilot, sync) == (40, 1, 1)


def test_guard_separation(params):
    import dataclasses
    for F in (1, 3):
        p = dataclasses.replace(params, frame_len=F)
        plan = build_frame_schedule(p)
        for ap in range(2):
            lab = plan.labels[ap]
            for n in range(plan.n_samples - 1):
                here, nxt = lab[n], lab[n + 1]
                if here in UPLINK_SIDE and nxt in DOWNLINK_SIDE or \
                        here in DOWNLINK_SIDE and nxt in UPLINK_SIDE:
                    raise AssertionError(f"AP{ap+1}: direct UL/DL switch at {n+1}")
            # every switch is separated by >= tau_g guard samples
            guards = np.nonzero(lab == Activity.GUARD)[0]
            runs = np.split(guards, np.nonzero(np.diff(guards) > 1)[0] + 1)
            for run in runs:
                if run.size == 0:
                    continue
                before = lab[run[0] - 1] if run[0] > 0 else None
                after = lab[run[-1] + 1] if run[-1] + 1 < lab.size else None
                crossing = before in UPLINK_SIDE and after in DOWNLINK_SIDE or \
                    before in DOWNLINK_SIDE and after in UPLINK_SIDE
                if crossing:
                    assert run.size >= params.tau_g


def test_ap1_only_schedule(params):
    plan = build_ap1_only_schedule(params)
    assert np.all(plan.labels[1] == Activity.IDLE)
    assert not plan.a[1].any()
    assert plan.sync_samples == ()
    assert np.count_nonzero(plan.labels[0] == Activity.DL_DATA) == 41
    assert plan.demod_pilot_samples[1, 0] == -1


def test_demod_pilot_samples_over_valid_geometries():
    # both APs send their demod pilot at the same slot offset in every slot of
    # the synced schedule; with AP 2 switched off it sends none. In both, UE
    # k's uplink pilot is sample k of each slot
    for g in GEOMETRIES:
        with at_geometry(g):
            expect = np.arange(g.frame_len) * g.tau_c + g.tau_p + g.tau_u + g.tau_g + 1
            synced, ap1_only = build_frame_schedule(g), build_ap1_only_schedule(g)
            assert np.array_equal(synced.demod_pilot_samples, [expect, expect])
            assert np.array_equal(ap1_only.demod_pilot_samples,
                                  [expect, np.full_like(expect, -1)])
            pilots = np.arange(g.frame_len)[:, None] * g.tau_c + np.arange(1, g.n_ues + 1)
            for plan in (synced, ap1_only):
                assert np.array_equal(plan.pilot_samples, pilots)


def test_plan_dump_csv(params):
    plan = build_frame_schedule(params)
    text = plan.dump_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "n,ap1_label,ap2_label,a1,a2"
    assert len(lines) == 101
    assert lines[52].startswith("52,SYNC_RX,SYNC_TX,0,1")
