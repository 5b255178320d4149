"""Monte Carlo estimation of the residual phase factor means E[Delta] per
frame position, with phase compensation at the arrays (theta, reset at each
tracker output) and at the UEs (psi, reset at each demodulation pilot), and a
single-run tracker trace.

The engine simulates the oscillator paths only at the sample instants the
compensation reads (exact sparse Wiener increments; for all but the last
warm-up frame only their difference, at the sync instants), draws the
inter-array channel's operator norm from its bidiagonal model
(otasync.channel) and each sync measurement's error from its exact
one-dimensional matched-filter projection, without the phase it measures;
all are distributional identities with the dense/vector formulation. A
cell's op norms depend only on the channel law, the seed and the run count
(draw_op_norms), so a caller whose cells share a seed draws them once and
passes them to each (experiment.run_sweep does, per (c_nu, SNR)). At a
payload position it takes the conditional mean of Delta given those instants,
integrating out the independent Wiener increment from the position's anchor
(the last instant before it), which keeps E[Delta]. AP 1's half is exact, so
only AP 2's is drawn. Tests check it against a slow full-chain reference.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .channel import batched_op_norms
from .config import ConfigError, SystemParams, derive_sigma_nu
from .phase_noise import wiener_values_at
from .timeline import SamplePlan, build_ap1_only_schedule, build_frame_schedule
from .tracking import TRACKERS, check_variances, derive_noise_model, representative_ue, track
from .tracking import kalman_gain, wrap  # noqa: F401  perfbench/tracer.py rebinds them by name

SCHEMES = TRACKERS + ("ap1_only",)

WARMUP_FRAMES = 20       # tracker transient discarded before Delta accumulation (>= 2)
CHUNK_SIZE = 1024        # runs per vectorized chunk (fixed: part of the RNG stream)


@dataclass(frozen=True)
class DeltaStats:
    """Monte Carlo averages of Delta per (AP, frame position) for the
    representative UE floor(K/2), whose pilot instant stands in for every UE.

    mean_delta: (2, F*tau_c) real (E[sin] = 0 by symmetry: README, "Why
    E[Delta] is real"), zero where the AP sends no payload; AP 1's row is
    exact. AP 2's payload column cols[p] reads segment[p]'s mean of n_runs
    runs times weight[p]; cov is the (S, S) per-run covariance (n - 1 in the
    denominator, NaN for one run) of the S segment values. A cell that draws
    nothing has S = 0 and no columns.
    """

    mean_delta: np.ndarray
    n_runs: int
    cov: np.ndarray
    cols: np.ndarray
    segment: np.ndarray
    weight: np.ndarray


# ---------------------------------------------------------------------------
# static per-cell description of what the engine must simulate

@dataclass(frozen=True)
class _CellGeometry:
    """AP 2's grid: the instants of frames W-1 and W the compensation reads, the gaps
    both Wiener draws step by, the columns the chunk reads, one entry per AP-2 payload
    position in frame order, and segments: runs of positions that share all they read."""

    params: SystemParams
    sigma_nu_sq: float
    instants: np.ndarray     # (n,) increasing offsets from frame W-1's start
    d_gaps: np.ndarray       # gaps of D at i1 and i2 of frames 0..W-2, from sample 1
    gaps: np.ndarray         # (n,) gaps of instants, the first from frame W-2's i2
    sync_cols: np.ndarray    # columns of i1 and i2 of frames W-1 and W (synced schemes)
    # (2, F+1) columns of AP 1's demod pilot and the representative UE's pilot
    # that set psi: frame W-1's slot F (carried over), then frame W's slots
    psi_cols: np.ndarray
    pos: np.ndarray          # (P,) 1-based frame offset
    segment: np.ndarray      # (P,) row of the position's segment
    weight: np.ndarray       # (P,) exp(-(pos - anchor offset) sigma_nu^2 / 2)
    # (S, 4) per segment: anchor (column of the last instant before it), column
    # of the representative UE's pilot in its slot, tracker output (0: previous
    # frame's; 1: this frame's) and the slot whose pilot set psi (0 = carried over)
    segments: np.ndarray


def build_plan(params: SystemParams, scheme: str) -> SamplePlan:
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if scheme == "ap1_only":
        return build_ap1_only_schedule(params)
    return build_frame_schedule(params)


def _ap1_row(params: SystemParams, plan: SamplePlan) -> np.ndarray:
    """(2, F*tau_c) E[Delta], AP 2's row zero. AP 1's row is exact in every scheme:
    e^(-(p-d) sigma_nu^2/2) e^(-ue_pilot_noise_var/2) at payload p, anchored at demod pilot d."""
    pos = np.flatnonzero(plan.data_mask()[0]) + 1
    demod = plan.demod_pilot_samples[0, (pos - 1) // plan.tau_c]
    row = np.zeros((2, plan.n_samples))
    row[0, pos - 1] = np.exp(-(pos - demod) * derive_sigma_nu(params) / 2) \
        * np.exp(-params.ue_pilot_noise_var / 2)
    return row


def _cell_geometry(params: SystemParams, plan: SamplePlan) -> _CellGeometry:
    """AP 2's payload geometry in the cell with plan build_plan(params, scheme)
    of a synced scheme: the same for every tracker."""
    L, W = plan.n_samples, WARMUP_FRAMES
    sync = np.array(plan.sync_samples, dtype=int)
    # AP 1 sends a demod pilot in every slot of both schedules (AP 2's, if any,
    # at the same instant); it sets psi. Of the UE pilots, the chain reads the
    # representative UE's alone. Frame W-1 reads slot F's, which set the
    # carried-over psi, and frame W every slot's
    pilots = np.stack((plan.demod_pilot_samples[0],
                       plan.pilot_samples[:, representative_ue(params.n_ues) - 1]))
    psi_at = np.concatenate((pilots[:, -1:], L + pilots), axis=1)
    sync_at = np.concatenate((sync, L + sync))
    instants = np.flatnonzero(np.bincount(np.concatenate((psi_at.ravel(), sync_at))))
    # as global samples: D at i1 and i2 of frames 0..W-2, then the grid
    path = np.concatenate(((np.arange(W - 1)[:, None] * L + sync).ravel(),
                           (W - 1) * L + instants))
    gaps = np.diff(path, prepend=1)

    pos = np.flatnonzero(plan.data_mask()[1]) + 1     # 1-based offset
    slot = (pos - 1) // plan.tau_c
    anchor = np.searchsorted(instants, L + pos) - 1   # payload is never on the grid
    sigma_nu_sq = derive_sigma_nu(params)
    weight = np.exp(-(L + pos - instants[anchor]) * sigma_nu_sq / 2)

    psi_cols = np.searchsorted(instants, psi_at)
    keys = np.stack((
        anchor, psi_cols[1, slot + 1],
        # AP 2 applies this frame's tracker output after the last sync instant
        pos > sync.max(initial=0), slot + (pos > plan.demod_pilot_samples[1, slot])))
    starts = np.any(np.diff(keys, axis=1, prepend=-1) != 0, axis=0)
    return _CellGeometry(
        params=params, sigma_nu_sq=sigma_nu_sq, instants=instants,
        d_gaps=gaps[:-instants.size], gaps=gaps[-instants.size:],
        sync_cols=np.searchsorted(instants, sync_at), psi_cols=psi_cols, pos=pos,
        segment=np.cumsum(starts) - 1, weight=weight, segments=keys[:, starts].T)


# ---------------------------------------------------------------------------
# vectorized chunk simulation

def draw_op_norms(params: SystemParams, seed: int, n_runs: int) -> np.ndarray:
    """The op norms of runs 0 .. n_runs-1, shape (n_runs,), read-only.

    Chunk j's runs (CHUNK_SIZE each, the last one short) come from
    SeedSequence(seed, spawn_key=(j, 0)), the first child of the chunk's own
    (j,), which no other draw reads: a pure function of (N, beta_g, seed, n_runs).
    """
    norms = np.empty(n_runs)
    for j, start in enumerate(range(0, n_runs, CHUNK_SIZE)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j, 0)))
        norms[start:start + CHUNK_SIZE] = batched_op_norms(
            rng, params, min(CHUNK_SIZE, n_runs - start))
    norms.flags.writeable = False
    return norms


def _measurements(rng, d_sync, op_norm, rho_ap):
    """Each frame's sync measurement D(i1) + D(i2) + e_12 - e_21, shape
    (n_frames,) + op_norm's shape, from D = nu_2 - nu_1 at (i1, i2), d_sync of
    shape op_norm's shape + (n_frames, 2), and the errors of the two directions,
    drawn here: each measures angle(sqrt(rho) ||G||^2 e^{j alpha} + ||G||
    CN(0, 1)), the exact 1-D projection of the matched filter; CN(0, 1) is
    invariant under rotation, so that is alpha + arctan2(b, sqrt(2 rho) ||G||
    + a) modulo 2 pi, with a, b i.i.d. N(0, 1) and independent of alpha."""
    obs = np.moveaxis(d_sync.sum(axis=-1), -1, 0)
    a, b = rng.standard_normal((2, 2, len(obs)) + np.shape(op_norm))
    a += np.sqrt(2 * rho_ap) * op_norm
    err = np.arctan2(b, a, out=a)
    err[1] -= err[0]
    obs += err[1]
    return obs


def _simulate_chunk(geom: _CellGeometry, chunk_index: int, n_runs: int,
                    master_seed: int, op_norm, trackers):
    """One vectorized chunk of runs, drawn once for all the synced schemes in
    trackers: WARMUP_FRAMES frames to bring each tracker to steady state, then
    the measured frame, with the runs' op norms. Returns one real (S, n_runs)
    array per tracker, in order: each run's Re Delta, the cos of its phase, at
    each AP-2 segment's anchor; times a position's weight, that is its Re Delta.

    Every output is invariant to a common shift of both oscillator phases and
    to a 2 pi shift of either, and reads the frame's measurement modulo 2 pi
    only. So frames 0..W-2 (W = WARMUP_FRAMES) need only D = nu_2 - nu_1 at
    the sync instants: a Wiener path with 2 sigma_nu^2 per sample, started
    uniform on the circle. Frames W-1 and W start both paths from (0, D) at
    frame W-2's i2 and read them on the cell's grid: frame W-1 sets the
    carried-over psi and the previous tracker output, frame W everything
    else. Nothing drawn depends on the tracker.
    """
    p, W = geom.params, WARMUP_FRAMES
    rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(chunk_index,)))

    # D at i1 and i2 of frames 0..W-2, then both paths on the cell's grid
    d = wiener_values_at(rng, rng.uniform(-np.pi, np.pi, n_runs), geom.d_gaps,
                         2 * geom.sigma_nu_sq)
    nu = wiener_values_at(rng, np.stack((np.zeros(n_runs), d[:, -1])), geom.gaps,
                          geom.sigma_nu_sq)
    d = np.concatenate((d, (nu[1] - nu[0])[:, geom.sync_cols]), axis=1)
    obs = _measurements(rng, d.reshape(n_runs, W + 1, 2), op_norm, p.rho_ap)
    # psi by slot: row 0 carried over from frame W-1's slot F, rows 1..F set in frame W
    nu1, nu2 = nu[0].T, nu[1].T
    pilot, krep = geom.psi_cols
    psi = nu1[pilot] + nu1[krep]
    if p.ue_pilot_noise_var:
        psi += rng.standard_normal(psi.shape) * np.sqrt(p.ue_pilot_noise_var)

    # each segment's phase is theta + psi - nu, the psi and nu terms gathered
    # once for every tracker
    anchor, krep_col, tracker, psi_slot = geom.segments.T
    psi_at, nu_at = psi[psi_slot], nu2[anchor] + nu2[krep_col]
    model = derive_noise_model(p, op_norm)
    deltas = []
    for scheme in trackers:
        # tracker outputs of frames W-1 and W
        theta = np.stack([s.alpha_hat for s in deque(track(obs, model, scheme), maxlen=2)])
        deltas.append(np.cos(theta[tracker] + psi_at - nu_at))
    return deltas


def _chunk_task(args):   # unused here; perfbench/tracer.py rebinds it by name
    return _simulate_chunk(*args)


def _check_group(schemes):
    """ConfigError unless schemes run on one plan: synced schemes only, or
    ap1_only alone."""
    unknown = [s for s in schemes if s not in SCHEMES]
    if unknown:
        raise ConfigError(f"unknown scheme(s) {unknown}; expected subset of {SCHEMES}")
    if not schemes or ("ap1_only" in schemes and len(schemes) > 1):
        raise ConfigError(f"schemes {schemes} share no plan: run synced schemes "
                          "together and ap1_only alone")


def monte_carlo_delta(params: SystemParams, schemes: tuple, n_realizations: int,
                      master_seed: int, *, plan: SamplePlan | None = None,
                      op_norms: np.ndarray | None = None):
    """Estimate E[Delta] at every frame position over independent runs, for
    each scheme of schemes, which share one plan (_check_group). Returns one
    DeltaStats per scheme, in order.

    AP 1's row (_ap1_row) is exact. If AP 2 sends payload, each run draws its
    op norm and oscillator paths on the cell's geometry, runs WARMUP_FRAMES
    frames to bring each tracker to steady state, then reads AP 2's Delta at
    each segment of one measured frame; ap1_only builds and draws nothing.
    Runs are split into fixed-size chunks seeded from (master_seed, chunk
    index), each reading its slice of op_norms and drawn once for every
    scheme, and summed in index order per scheme, with their cross products
    for the covariance. plan, build_plan(params, schemes[0]), and op_norms,
    draw_op_norms(params, master_seed, n_realizations), are made here unless
    the caller passes them.
    """
    _check_group(schemes)
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    plan = build_plan(params, schemes[0]) if plan is None else plan
    if not plan.data_mask()[1].any():   # only AP 2's half is drawn
        none = np.zeros(0, dtype=int)
        return tuple(DeltaStats(mean_delta=_ap1_row(params, plan), n_runs=n_realizations,
                                cov=np.zeros((0, 0)), cols=none, segment=none,
                                weight=np.zeros(0)) for _ in schemes)
    geom = _cell_geometry(params, plan)
    if op_norms is None:
        op_norms = draw_op_norms(params, master_seed, n_realizations)
    # per scheme: run sums, and cross products about run 0's values, which keep
    # cancellation small
    S = len(geom.segments)
    run_sum = np.zeros((len(schemes), S))
    shift = np.zeros((len(schemes), S, 1))
    cross = np.zeros((len(schemes), S, S))
    for j, start in enumerate(range(0, n_realizations, CHUNK_SIZE)):
        n = min(CHUNK_SIZE, n_realizations - start)
        deltas = _simulate_chunk(geom, j, n, master_seed, op_norms[start:start + n], schemes)
        for k, delta in enumerate(deltas):
            run_sum[k] += delta.sum(axis=1)
            if j == 0:
                shift[k] = delta[:, :1]
            delta -= shift[k]
            cross[k] += delta @ delta.T
    out = []
    for k in range(len(schemes)):
        mean = run_sum[k] / n_realizations
        mean_delta = _ap1_row(params, plan)
        mean_delta[1, geom.pos - 1] = mean[geom.segment] * geom.weight
        d = mean - shift[k, :, 0]
        cov = (cross[k] - n_realizations * np.outer(d, d)) / (n_realizations - 1) \
            if n_realizations > 1 else np.full_like(cross[k], np.nan)
        out.append(DeltaStats(mean_delta=mean_delta, n_runs=n_realizations, cov=cov,
                              cols=geom.pos - 1, segment=geom.segment, weight=geom.weight))
    return tuple(out)


def run_phase_trace(params: SystemParams, n_frames: int, master_seed: int, scheme: str):
    """Single-run per-frame tracker diagnostics.

    Returns a list of dicts with keys (n, obs, alpha_hat, p_var, kappa,
    alpha_true): the raw combined measurement, the tracker output, its model
    variance and gain, and the true inter-array phase difference at i2.
    """
    if scheme not in TRACKERS:
        raise ConfigError(f"cannot trace scheme {scheme!r}; expected one of {TRACKERS}")
    if n_frames < 1:
        raise ConfigError(f"trace needs at least one frame, got {n_frames}")
    most = np.iinfo(np.intp).max // 24   # the bytes of the frames' (n_frames, 3) instants
    if n_frames > most:
        raise ConfigError(f"trace needs at most {most} frames, got {n_frames}")
    if master_seed < 0:
        raise ConfigError(f"master_seed must be a non-negative integer, got {master_seed}")
    plan = build_plan(params, scheme)
    check_variances(params)
    op_norm = float(draw_op_norms(params, master_seed, 1)[0])
    rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(0,)))
    # every value read is D = nu_2 - nu_1, at the representative UE's pilot,
    # i1 and i2, modulo 2 pi (see _simulate_chunk)
    pilot = plan.pilot_samples[0, representative_ue(params.n_ues) - 1]
    at = (np.arange(n_frames)[:, None] * plan.n_samples + [pilot, *plan.sync_samples]).ravel()
    d = wiener_values_at(rng, rng.uniform(-np.pi, np.pi, 1), np.diff(at, prepend=1),
                         2 * derive_sigma_nu(params)).reshape(n_frames, 3)
    obs = _measurements(rng, d[:, 1:], op_norm, params.rho_ap)
    return [dict(n=f + 1, obs=float(obs[f]), alpha_hat=float(s.alpha_hat), p_var=float(s.p_var),
                 kappa=float(s.kappa), alpha_true=float(d[f, 2] + d[f, 0]))
            for f, s in enumerate(track(obs, derive_noise_model(params, op_norm), scheme))]


def dump_trace_csv(rows) -> str:
    lines = ["n,obs,alpha_hat,p_var,kappa,alpha_true"]
    for r in rows:
        lines.append("%d,%r,%r,%r,%r,%r" % (
            r["n"], r["obs"], r["alpha_hat"], r["p_var"], r["kappa"], r["alpha_true"]))
    return "\n".join(lines) + "\n"
