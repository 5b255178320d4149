"""Slow, literal reference implementation of the full simulation chain.

Dense per-sample oscillator trajectories, full N-dimensional sync signals
through the operation-level reference code in tests/oracles.py
(measure_direction, CompensationState, residual_delta) and the scalar
kalman_init/update, processed event by event in sample order. Used as an
independent oracle for the vectorized Monte Carlo engine.
"""

import numpy as np

from otasync.compensation import WARMUP_FRAMES, build_plan
from otasync.config import derive_sigma_nu
from otasync.phase_noise import run_seed
from otasync.timeline import sync_instants
from otasync.tracking import derive_noise_model, kalman_init, kalman_update, \
    representative_ue
from tests.oracles import CompensationState, combine_bidirectional, generate_trajectory, \
    measure_direction, residual_delta, sample_inter_ap_channel, ue_psi_update


def reference_delta(params, scheme, n_runs, master_seed):
    """E[Delta] per (AP, frame position) via the literal chain; same estimand
    as monte_carlo_delta but through an entirely different code path."""
    i1, i2 = sync_instants(params)
    plan = build_plan(params, scheme)
    synced = scheme != "ap1_only"
    sig2 = derive_sigma_nu(params)
    k_rep = representative_ue(params.n_ues)
    L, W = plan.n_samples, WARMUP_FRAMES
    total = (W + 1) * L
    data = plan.data_mask()

    sums = np.zeros((2, L), dtype=complex)
    for r in range(n_runs):
        rng = np.random.default_rng(run_seed(master_seed, r))
        if synced:
            chan = sample_inter_ap_channel(rng, params)
            model = derive_noise_model(params, chan.op_norm)
        init = rng.uniform(-np.pi, np.pi, 2)
        nu1 = generate_trajectory(rng, total, sig2, initial_phase=init[0], ap_id=1)
        nu2 = generate_trajectory(rng, total, sig2, initial_phase=init[1], ap_id=2)
        nu = (nu1, nu2)

        comp = CompensationState()
        state = None
        for f in range(W + 1):
            fstart = f * L
            measured = f == W
            if synced:
                a21 = measure_direction(2, fstart + i1, chan, nu, params.rho_ap, rng)
                a12 = measure_direction(1, fstart + i2, chan, nu, params.rho_ap, rng)
                obs = combine_bidirectional(a21, a12)
                state = kalman_init(obs, model) if state is None else \
                    kalman_update(state, obs, model)
                if scheme == "direct":
                    tracker_out = obs
                else:
                    tracker_out = state.alpha_hat

            events = []
            for s in range(plan.frame_len):
                pilot = plan.demod_pilot_samples[0, s]
                if pilot > 0:
                    events.append((fstart + int(pilot), "pilot"))
            if synced:
                events.append((fstart + i2, "theta"))
            if measured:
                for ap in range(2):
                    for pos in np.nonzero(data[ap])[0] + 1:
                        events.append((fstart + int(pos), "delta", ap))
            events.sort(key=lambda e: e[0])

            for event in events:
                t, kind = event[0], event[1]
                if kind == "pilot":
                    noise = 0.0
                    if params.ue_pilot_noise_var > 0:
                        noise = rng.standard_normal() * np.sqrt(params.ue_pilot_noise_var)
                    comp.psi = ue_psi_update(t, nu1, params.tau_c, params.n_ues, noise)
                    comp.last_psi_reset = t
                elif kind == "theta":
                    comp.reset_theta2(tracker_out, t)
                else:
                    ap = event[2]
                    d = residual_delta(k_rep, ap + 1, t, nu, comp, params.tau_c)
                    sums[ap, (t - 1) % L] += d
    return sums / n_runs
