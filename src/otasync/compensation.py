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
chunk's op norms depend only on the channel law, the seed and the chunk, so
cells that share a seed share them, and each is drawn once per process. At a
payload position it takes the conditional mean of Delta given those instants,
integrating out the independent Wiener increment from the position's anchor
(the last instant before it), which keeps E[Delta]. AP 1's half is exact, so
only AP 2's is drawn. Tests check it against a slow full-chain reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import batched_op_norms
from .config import ConfigError, SystemParams, derive_sigma_nu
from .phase_noise import run_seed, wiener_values_at
from .timeline import SamplePlan, build_ap1_only_schedule, build_frame_schedule
from .tracking import derive_noise_model, kalman_gain, kalman_init, kalman_update, \
    representative_ue
from .tracking import wrap  # noqa: F401  unused here; perfbench/tracer.py rebinds it by name

SCHEMES = ("kalman", "direct", "ap1_only")

WARMUP_FRAMES = 20       # tracker transient discarded before Delta accumulation (>= 2)
CHUNK_SIZE = 1024        # runs per vectorized chunk (fixed: part of the RNG stream)
N_GROUPS = 10            # batch-mean groups for standard errors
OP_NORM_MEMO_SIZE = 256  # memoized chunks of at most CHUNK_SIZE floats: 2 MiB at most

# chunk index below OP_NORM_MEMO_SIZE -> (chunk_op_norms' key, its read-only
# draw); a hit equals a fresh draw, so no result depends on what earlier calls
# in the process left here
_op_norm_memo: dict = {}


@dataclass(frozen=True)
class DeltaStats:
    """Monte Carlo averages of Delta per (AP, frame position) for the
    representative UE floor(K/2), whose pilot instant stands in for every UE.

    mean_delta: (2, F*tau_c) complex, zero at positions where the AP sends no
    payload data; group_means: (G, 2, F*tau_c) batch means for standard-error
    estimates, G = min(N_GROUPS, n_realizations), over groups of consecutive
    runs (run r in group r * G // n_realizations) of group_counts runs each.
    AP 1's row is exact; a one-run group's |mean| is the position's weight.
    """

    mean_delta: np.ndarray
    n_realizations: int
    group_means: np.ndarray
    group_counts: np.ndarray


# ---------------------------------------------------------------------------
# static per-cell description of what the engine must simulate

@dataclass(frozen=True)
class _CellGeometry:
    """The cell's one grid (the instants of frames W-1 and W the compensation
    reads), the gaps both Wiener draws step by, the columns the chunk reads,
    AP 1's exact table, one entry per AP-2 payload position (1-based frame
    offset) in frame order, and the segments: runs of positions that share
    everything their Delta reads on the grid."""

    params: SystemParams
    scheme: str
    sigma_nu_sq: float
    instants: np.ndarray     # (n,) increasing offsets from frame W-1's start
    d_gaps: np.ndarray       # gaps of D at i1 and i2 of frames 0..W-2, from sample 1
    gaps: np.ndarray         # (n,) gaps of instants, the first from frame W-2's i2
    sync_cols: np.ndarray    # columns of i1 and i2 of frames W-1 and W (synced schemes)
    # (2, F+1) columns of AP 1's demod pilot and the representative UE's pilot
    # that set psi: frame W-1's slot F (carried over), then frame W's slots
    psi_cols: np.ndarray
    exact: np.ndarray        # (2, F*tau_c) E[Delta]: AP 1's row, zero in AP 2's
    pos: np.ndarray          # (P,) frame offset
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


def _cell_geometry(params: SystemParams, scheme: str,
                   plan: SamplePlan | None = None) -> _CellGeometry:
    """The cell's geometry from its build_plan(params, scheme), built here
    unless the caller passes it."""
    plan = build_plan(params, scheme) if plan is None else plan
    L, W = plan.n_samples, WARMUP_FRAMES
    sync = np.array([sample for sample, _, _ in plan.sync_events], dtype=int)
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

    ap, idx = np.nonzero(plan.data_mask())
    pos, slot = idx + 1, idx // params.tau_c   # 1-based offset, 0-based slot
    anchor = np.searchsorted(instants, L + pos) - 1   # payload is never on the grid
    sigma_nu_sq = derive_sigma_nu(params)
    weight = np.exp(-(L + pos - instants[anchor]) * sigma_nu_sq / 2)
    # AP 1 applies no tracker output, and its anchor is its slot's demod pilot,
    # where psi was set: its Delta given the grid is the UE-pilot noise
    exact = np.zeros((2, L), dtype=complex)
    exact[0, pos[ap == 0] - 1] = weight[ap == 0] * np.exp(-params.ue_pilot_noise_var / 2)
    pos, slot, anchor, weight = (x[ap == 1] for x in (pos, slot, anchor, weight))

    psi_cols = np.searchsorted(instants, psi_at)
    keys = np.stack((
        anchor, psi_cols[1, slot + 1],
        # AP 2 applies this frame's tracker output after the last sync instant
        pos > sync.max(initial=0), slot + (pos > plan.demod_pilot_samples[1, slot])))
    starts = np.any(np.diff(keys, axis=1, prepend=-1) != 0, axis=0)
    return _CellGeometry(
        params=params, scheme=scheme, sigma_nu_sq=sigma_nu_sq, instants=instants,
        d_gaps=gaps[:-instants.size], gaps=gaps[-instants.size:],
        sync_cols=np.searchsorted(instants, sync_at), psi_cols=psi_cols, exact=exact,
        pos=pos, segment=np.cumsum(starts) - 1, weight=weight, segments=keys[:, starts].T)


# ---------------------------------------------------------------------------
# vectorized chunk simulation

def chunk_op_norms(params: SystemParams, seed: int, chunk_index: int,
                   n_runs: int) -> np.ndarray:
    """The op norms of one chunk's runs, shape (n_runs,), read-only.

    They come from the chunk's own child stream, SeedSequence(seed,
    spawn_key=(chunk_index, 0)) (the first child of run_seed(seed,
    chunk_index), which feeds the rest of the chunk), so they are a pure
    function of (N, beta_g, seed, chunk_index, n_runs). Each distinct draw
    of the first OP_NORM_MEMO_SIZE chunks stays in its chunk's slot of the
    memo until a draw for another key replaces it.
    """
    key = (params.n_antennas, params.beta_g, seed, n_runs)
    slot = _op_norm_memo.get(chunk_index)
    if slot is not None and slot[0] == key:
        return slot[1]
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index, 0)))
    norms = batched_op_norms(rng, params, n_runs)
    norms.flags.writeable = False
    if chunk_index < OP_NORM_MEMO_SIZE:
        _op_norm_memo[chunk_index] = key, norms
    return norms


def _sync_errors(rng, op_norm, rho_ap, n_frames):
    """e_12 - e_21 per frame, shape (n_frames,) + op_norm's shape: the errors
    of the two directions of the sync measurement. Each direction measures
    angle(sqrt(rho) ||G||^2 e^{j alpha} + ||G|| CN(0, 1)), the exact 1-D
    projection of the matched filter; CN(0, 1) is invariant under rotation,
    so that is alpha + arctan2(b, sqrt(2 rho) ||G|| + a) modulo 2 pi, with
    a, b i.i.d. N(0, 1) and independent of alpha."""
    a, b = rng.standard_normal((2, 2, n_frames) + np.shape(op_norm))
    a += np.sqrt(2 * rho_ap) * op_norm
    err = np.arctan2(b, a, out=a)
    return err[1] - err[0]


def _simulate_chunk(geom: _CellGeometry, chunk_index: int, n_runs: int,
                    master_seed: int, group_starts, op_norm):
    """One vectorized chunk of runs of a synced scheme: WARMUP_FRAMES frames
    to bring the tracker to steady state, then the measured frame, with the
    runs' chunk_op_norms. Returns (G, S): per group (the runs from each of
    group_starts) and AP-2 segment, the sum of each run's Delta at the
    segment's anchor; times a position's weight, that is its Delta.

    Every output is invariant to a common shift of both oscillator phases and
    to a 2 pi shift of either, and reads the frame's measurement modulo 2 pi
    only. So frames 0..W-2 (W = WARMUP_FRAMES) need only D = nu_2 - nu_1 at
    the sync instants: a Wiener path with 2 sigma_nu^2 per sample, started
    uniform on the circle. Frames W-1 and W start both paths from (0, D) at
    frame W-2's i2 and read them on the cell's grid: frame W-1 sets the
    carried-over psi and the previous tracker output, frame W everything
    else.
    """
    p, W = geom.params, WARMUP_FRAMES
    rng = np.random.default_rng(run_seed(master_seed, chunk_index))

    # D at i1 and i2 of frames 0..W-2, then both paths on the cell's grid;
    # obs[f] = D(i1) + D(i2) + e_12 - e_21
    d = wiener_values_at(rng, rng.uniform(-np.pi, np.pi, n_runs), geom.d_gaps,
                         2 * geom.sigma_nu_sq)
    nu = wiener_values_at(rng, np.stack((np.zeros(n_runs), d[:, -1])), geom.gaps,
                          geom.sigma_nu_sq)
    d = np.concatenate((d, (nu[1] - nu[0])[:, geom.sync_cols]), axis=1)
    obs = d.reshape(n_runs, W + 1, 2).sum(axis=2).T \
        + _sync_errors(rng, op_norm, p.rho_ap, W + 1)

    if geom.scheme == "kalman":
        model = derive_noise_model(p, op_norm)
        state = kalman_init(obs[0], model)
        for f in range(1, W + 1):
            prev, state = state, kalman_update(state, obs[f], model)
        theta = np.stack((prev.alpha_hat, state.alpha_hat))
    else:    # direct: a fresh filter start each frame passes obs through
        theta = obs[W - 1:]
    # psi by slot: row 0 carried over from frame W-1's slot F, rows 1..F set in frame W
    nu1, nu2 = nu[0].T, nu[1].T
    pilot, krep = geom.psi_cols
    psi = nu1[pilot] + nu1[krep]
    if p.ue_pilot_noise_var:
        psi += rng.standard_normal(psi.shape) * np.sqrt(p.ue_pilot_noise_var)

    anchor, krep_col, tracker, psi_slot = geom.segments.T
    ph = theta[tracker] + psi[psi_slot] - (nu2[anchor] + nu2[krep_col])
    return np.add.reduceat(np.exp(1j * ph), group_starts, axis=1).T


def _chunk_task(args):   # unused here; perfbench/tracer.py rebinds it by name
    return _simulate_chunk(*args)


def monte_carlo_delta(params: SystemParams, scheme: str, n_realizations: int,
                      master_seed: int, *, plan: SamplePlan | None = None):
    """Estimate E[Delta] at every frame position over independent runs.

    AP 1's row is exact in the mean and in every group. If AP 2 sends
    payload, each run draws its op norm and oscillator paths, runs
    WARMUP_FRAMES frames to bring the tracker to steady state, then sums
    AP 2's Delta over one measured frame; ap1_only draws nothing. Runs are
    split into fixed-size chunks seeded from (master_seed, chunk index), each
    with its chunk_op_norms, and summed in index order. The batch-mean groups
    are consecutive runs. plan is the cell's build_plan(params, scheme), if
    the caller has built it already.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    geom = _cell_geometry(params, scheme, plan)
    n_groups = min(N_GROUPS, n_realizations)
    group = np.arange(n_realizations) * n_groups // n_realizations

    group_sums = np.zeros((n_groups,) + geom.exact.shape, dtype=complex)
    # the group of each run of each chunk; only AP 2's half is drawn
    chunks = np.split(group, range(CHUNK_SIZE, n_realizations, CHUNK_SIZE)) if geom.pos.size else []
    for j, g in enumerate(chunks):
        part = _simulate_chunk(geom, j, g.size, master_seed,
                               np.flatnonzero(np.diff(g, prepend=-1)),
                               chunk_op_norms(params, master_seed, j, g.size))
        group_sums[g[0]:g[0] + len(part), 1, geom.pos - 1] += \
            part[:, geom.segment] * geom.weight
    group_counts = np.bincount(group, minlength=n_groups)
    return DeltaStats(mean_delta=geom.exact + group_sums.sum(axis=0) / n_realizations,
                      n_realizations=n_realizations,
                      group_means=geom.exact + group_sums / group_counts[:, None, None],
                      group_counts=group_counts)


def run_phase_trace(params: SystemParams, n_frames: int, master_seed: int,
                    scheme: str = "kalman"):
    """Single-run per-frame tracker diagnostics.

    Returns a list of dicts with keys (n, obs, alpha_hat, p_var, kappa,
    alpha_true): the raw combined measurement, the tracker output, its model
    variance and gain, and the true inter-array phase difference at i2.
    """
    traceable = ("kalman", "direct")
    if scheme not in traceable:
        raise ConfigError(f"cannot trace scheme {scheme!r}; expected one of {traceable}")
    if n_frames < 1:
        raise ConfigError(f"trace needs at least one frame, got {n_frames}")
    if master_seed < 0:
        raise ConfigError(f"master_seed must be a non-negative integer, got {master_seed}")
    (i1, _, _), (i2, _, _) = build_plan(params, scheme).sync_events
    op_norm = float(chunk_op_norms(params, master_seed, 0, 1)[0])
    rng = np.random.default_rng(run_seed(master_seed, 0))
    model = derive_noise_model(params, op_norm)
    L = params.frame_len * params.tau_c
    # every value read is D = nu_2 - nu_1, at the representative UE's pilot,
    # i1 and i2, modulo 2 pi (see _simulate_chunk)
    at = (np.arange(n_frames)[:, None] * L + [representative_ue(params.n_ues), i1, i2]).ravel()
    d = wiener_values_at(rng, rng.uniform(-np.pi, np.pi, 1), np.diff(at, prepend=1),
                         2 * derive_sigma_nu(params)).reshape(n_frames, 3)
    obs = d[:, 1] + d[:, 2] + _sync_errors(rng, op_norm, params.rho_ap, n_frames)

    state = None
    rows = []
    for f in range(n_frames):
        fresh = f == 0 or scheme == "direct"
        prev, state = state, kalman_init(obs[f], model) if fresh \
            else kalman_update(state, obs[f], model)
        kappa = 1.0 if fresh else kalman_gain(prev.p_var, model)
        rows.append(dict(n=f + 1, obs=float(obs[f]), alpha_hat=float(state.alpha_hat),
                         p_var=float(state.p_var), kappa=float(kappa),
                         alpha_true=float(d[f, 2] + d[f, 0])))
    return rows


def dump_trace_csv(rows) -> str:
    lines = ["n,obs,alpha_hat,p_var,kappa,alpha_true"]
    for r in rows:
        lines.append("%d,%r,%r,%r,%r,%r" % (
            r["n"], r["obs"], r["alpha_hat"], r["p_var"], r["kappa"], r["alpha_true"]))
    return "\n".join(lines) + "\n"
