"""Slow, literal reference implementation of the full simulation chain.

Dense per-sample oscillator trajectories, one dense N x N inter-array channel
per run and full N-dimensional sync signals through the operation-level
reference code in tests/oracles.py (measure_direction, ue_psi_update,
residual_delta) and kalman_init/update, processed event by event in sample
order. Every run goes through the chain at once: each quantity carries a
leading run axis. Used as an independent oracle for the vectorized Monte
Carlo engine.
"""

import numpy as np

from otasync.compensation import WARMUP_FRAMES, build_plan
from otasync.config import derive_sigma_nu
from otasync.timeline import sync_instants
from otasync.tracking import derive_noise_model, kalman_init, kalman_update, \
    representative_ue
from tests.oracles import complex_normal, generate_trajectory, inter_ap_channel, \
    measure_direction, residual_delta, ue_psi_update


def reference_delta(params, scheme, n_runs, master_seed):
    """Delta per (run, AP, frame position), shape (n_runs, 2, F*tau_c), zero
    where the AP sends no payload, via the literal chain; its mean over runs
    estimates what monte_carlo_delta does, through an entirely different code
    path."""
    i1, i2 = sync_instants(params)
    plan = build_plan(params, scheme)
    synced = scheme != "ap1_only"
    sig2 = derive_sigma_nu(params)
    k_rep = representative_ue(params.n_ues)
    L, W, N = plan.n_samples, WARMUP_FRAMES, params.n_antennas
    data = plan.data_mask()
    rng = np.random.default_rng(master_seed)

    if synced:
        chan = inter_ap_channel(complex_normal(rng, (n_runs, N, N), params.beta_g))
        model = derive_noise_model(params, chan.op_norm)
    nu = generate_trajectory(rng, (W + 1) * L, sig2,
                             initial_phase=rng.uniform(-np.pi, np.pi, (2, n_runs)))

    theta2 = psi = np.zeros(n_runs)
    delta = np.zeros((n_runs, 2, L), dtype=complex)
    state = None
    for f in range(W + 1):
        fstart = f * L
        if synced:
            a21 = measure_direction(2, fstart + i1, chan, nu, params.rho_ap, rng)
            a12 = measure_direction(1, fstart + i2, chan, nu, params.rho_ap, rng)
            # no modular reduction here: the tracker's innovation wrap handles the circle
            obs = a12 - a21
            state = kalman_init(obs, model) if state is None else \
                kalman_update(state, obs, model)
            tracker_out = obs if scheme == "direct" else state.alpha_hat

        events = []
        for s in range(plan.frame_len):
            pilot = plan.demod_pilot_samples[0, s]
            if pilot > 0:
                events.append((fstart + int(pilot), "pilot"))
        if synced:
            events.append((fstart + i2, "theta"))
        if f == W:   # the measured frame
            for ap in range(2):
                for pos in np.nonzero(data[ap])[0] + 1:
                    events.append((fstart + int(pos), "delta", ap))
        events.sort(key=lambda e: e[0])

        for event in events:
            t, kind = event[0], event[1]
            if kind == "pilot":
                noise = 0.0
                if params.ue_pilot_noise_var > 0:
                    noise = rng.standard_normal(n_runs) * np.sqrt(params.ue_pilot_noise_var)
                psi = ue_psi_update(t, nu[0], params.tau_c, params.n_ues, noise)
            elif kind == "theta":
                theta2 = tracker_out
            else:
                ap = event[2]
                delta[:, ap, (t - 1) % L] = residual_delta(k_rep, ap + 1, t, nu, theta2,
                                                           psi, params.tau_c)
    return delta
