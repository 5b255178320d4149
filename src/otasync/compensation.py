"""Monte Carlo estimation of the residual phase factor means E[Delta] per
frame position, with phase compensation at the arrays (theta, reset at each
tracker output) and at the UEs (psi, reset at each demodulation pilot), and a
single-run tracker trace.

The engine simulates the oscillator paths only at the sample instants the
compensation reads (exact sparse Wiener increments), draws the inter-array
channel's operator norm from its bidiagonal model (otasync.channel) and each
sync measurement as its exact one-dimensional matched-filter projection; all
three are distributional identities with the dense/vector formulation. A
chunk's op norms depend only on the channel law, the seed and the chunk, so
cells that share a seed share them, and each is drawn once per process. At a
payload position it takes the conditional mean of Delta given those instants,
integrating out the independent Wiener increment from the position's anchor
(the last instant before it), which keeps E[Delta]. AP 1's half is exact, so
only AP 2's is drawn. Tests check it against a slow full-chain reference.
"""

from __future__ import annotations

import concurrent.futures
from collections import OrderedDict
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

WARMUP_FRAMES = 20       # tracker transient discarded before Delta accumulation
CHUNK_SIZE = 1024        # runs per vectorized chunk (fixed: output is worker-count invariant)
N_GROUPS = 10            # batch-mean groups for standard errors
OP_NORM_MEMO_SIZE = 256  # memoized chunks of at most CHUNK_SIZE floats: 2 MiB at most

# chunk_op_norms' key -> its read-only draw; a hit equals a fresh draw, so no
# result depends on what earlier calls in the process left here
_op_norm_memo: OrderedDict = OrderedDict()


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
class _Grid:
    """Sample instants one frame simulates, as 1-based frame offsets, with the
    grid columns the sync measurement and the UE psi updates read."""

    offsets: np.ndarray      # increasing frame offsets
    sync_cols: tuple         # columns of i1 and i2 (synced schemes)
    psi_slots: np.ndarray    # slots (1-based) whose psi this frame sets
    pilot_cols: np.ndarray   # column of AP 1's demod pilot in each of those slots
    krep_cols: np.ndarray    # column of the representative UE's pilot there


@dataclass(frozen=True)
class _CellGeometry:
    """Warm-up and measured frame grids, AP 1's exact table, one entry per AP-2
    payload position (1-based frame offset) in frame order, and the segments:
    runs of positions that share everything their Delta reads on the grid."""

    params: SystemParams
    scheme: str
    sigma_nu_sq: float
    warmup: _Grid
    measured: _Grid
    exact: np.ndarray        # (2, F*tau_c) E[Delta]: AP 1's row, zero in AP 2's
    pos: np.ndarray          # (P,) frame offset
    segment: np.ndarray      # (P,) row of the position's segment
    weight: np.ndarray       # (P,) exp(-(pos - anchor offset) sigma_nu^2 / 2)
    # (S, 4) per segment: anchor (measured-grid column of the last instant
    # before it), column of the representative UE's pilot in its slot, tracker
    # output (0: previous frame's; 1: this frame's) and the slot whose pilot
    # set psi (0 = carried over)
    segments: np.ndarray


def build_plan(params: SystemParams, scheme: str) -> SamplePlan:
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if scheme == "ap1_only":
        return build_ap1_only_schedule(params)
    return build_frame_schedule(params)


def _cell_geometry(params: SystemParams, scheme: str) -> _CellGeometry:
    plan = build_plan(params, scheme)
    k_rep = representative_ue(params.n_ues)
    sync = np.array([sample for sample, _, _ in plan.sync_events], dtype=int)
    # AP 1 sends a demod pilot in every slot of both schedules (AP 2's, if any,
    # at the same instant); it sets psi
    demod, krep = plan.demod_pilot_samples[0], plan.pilot_samples[:, k_rep - 1]

    ap, idx = np.nonzero(plan.data_mask())
    pos, slot = idx + 1, idx // params.tau_c   # 1-based offset, 0-based slot

    def grid(psi_slots, *extra):
        pilots, reps = demod[psi_slots - 1], krep[psi_slots - 1]
        offsets = np.flatnonzero(np.bincount(np.concatenate((pilots, reps, sync) + extra)))
        return _Grid(offsets, tuple(np.searchsorted(offsets, sync)), psi_slots,
                     np.searchsorted(offsets, pilots), np.searchsorted(offsets, reps))

    warmup = grid(np.array([params.frame_len]))
    measured = grid(np.arange(1, params.frame_len + 1), plan.pilot_samples.ravel())
    anchor = np.searchsorted(measured.offsets, pos) - 1   # payload is never on the grid
    sigma_nu_sq = derive_sigma_nu(params)
    weight = np.exp(-(pos - measured.offsets[anchor]) * sigma_nu_sq / 2)
    # AP 1 applies no tracker output, and its anchor is its slot's demod pilot,
    # where psi was set: its Delta given the grid is the UE-pilot noise
    exact = np.zeros((2, plan.n_samples), dtype=complex)
    exact[0, pos[ap == 0] - 1] = weight[ap == 0] * np.exp(-params.ue_pilot_noise_var / 2)
    pos, slot, anchor, weight = (x[ap == 1] for x in (pos, slot, anchor, weight))

    keys = np.stack((
        anchor, np.searchsorted(measured.offsets, krep[slot]),
        # AP 2 applies this frame's tracker output after the last sync instant
        pos > sync.max(initial=0), slot + (pos > plan.demod_pilot_samples[1, slot])))
    starts = np.any(np.diff(keys, axis=1, prepend=-1) != 0, axis=0)
    return _CellGeometry(
        params=params, scheme=scheme, sigma_nu_sq=sigma_nu_sq, warmup=warmup,
        measured=measured, exact=exact, pos=pos, segment=np.cumsum(starts) - 1,
        weight=weight, segments=keys[:, starts].T)


# ---------------------------------------------------------------------------
# vectorized chunk simulation

def chunk_op_norms(params: SystemParams, seed: int, chunk_index: int,
                   n_runs: int) -> np.ndarray:
    """The op norms of one chunk's runs, shape (n_runs,), read-only.

    They come from the chunk's own child stream, SeedSequence(seed,
    spawn_key=(chunk_index, 0)) (the first child of run_seed(seed,
    chunk_index), which feeds the rest of the chunk), so they are a pure
    function of (N, beta_g, seed, chunk_index, n_runs). Each distinct draw
    is made once per process and kept in a least-recently-used memo of
    OP_NORM_MEMO_SIZE entries.
    """
    key = (params.n_antennas, params.beta_g, seed, chunk_index, n_runs)
    norms = _op_norm_memo.get(key)
    if norms is not None:
        _op_norm_memo.move_to_end(key)
        return norms
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index, 0)))
    norms = batched_op_norms(rng, params, n_runs)
    norms.flags.writeable = False
    _op_norm_memo[key] = norms
    if len(_op_norm_memo) > OP_NORM_MEMO_SIZE:
        _op_norm_memo.popitem(last=False)
    return norms


def _advance(rng, nu, last_global, frame_start, offsets, sigma_nu_sq):
    """Advance both oscillators from `last_global` to every offset of the
    frame grid. nu: (2, R) phases at last_global; returns (2, R, m) values."""
    gaps = np.diff(np.concatenate(([last_global], frame_start + offsets)))
    vals = wiener_values_at(rng, nu, gaps, sigma_nu_sq)
    return vals, vals[:, :, -1].copy(), frame_start + int(offsets[-1])


def _measure_pair(rng, vals, idx, op_norm, rho_ap):
    """Bidirectional measurement from grid values; exact 1-D projection of the
    matched filter: angle(sqrt(rho)||G||^2 e^{j alpha} + ||G|| CN(0,1))."""
    alpha_21 = vals[0, :, idx[0]] - vals[1, :, idx[0]]
    alpha_12 = vals[1, :, idx[1]] - vals[0, :, idx[1]]
    gain = np.sqrt(rho_ap) * op_norm**2
    out = []
    for alpha in (alpha_21, alpha_12):
        z = (rng.standard_normal(alpha.shape) + 1j * rng.standard_normal(alpha.shape)) \
            * (op_norm / np.sqrt(2.0))
        out.append(np.angle(gain * np.exp(1j * alpha) + z))
    return out[1] - out[0]


def _track(state, obs, model, scheme):
    """Tracker step: `direct` passes every measurement through (a fresh
    filter start each frame), `kalman` runs the filter from the first one."""
    return kalman_init(obs, model) if state is None or scheme == "direct" \
        else kalman_update(state, obs, model)


def _simulate_chunk(geom: _CellGeometry, chunk_index: int, n_runs: int,
                    master_seed: int, group_starts, op_norm):
    """One vectorized chunk of runs of a synced scheme: WARMUP_FRAMES frames
    on the sparse warm-up grid, then the measured frame on the pilot and sync
    grid, with the runs' chunk_op_norms. Returns (G, S): per group (the runs
    from each of group_starts) and AP-2 segment, the sum of each run's Delta
    at the segment's anchor; times a position's weight, that is its Delta."""
    p = geom.params
    rng = np.random.default_rng(run_seed(master_seed, chunk_index))
    F, L = p.frame_len, p.frame_len * p.tau_c
    noise_sd = np.sqrt(p.ue_pilot_noise_var)
    model = derive_noise_model(p, op_norm)

    nu = rng.uniform(-np.pi, np.pi, (2, n_runs))
    last_global, state = 1, None
    theta = [np.zeros(n_runs)] * 2      # [previous frame's, this frame's]
    psi = [np.zeros(n_runs)] * (F + 1)  # by slot; psi[0] is carried over
    for f in range(WARMUP_FRAMES + 1):
        grid = geom.measured if f == WARMUP_FRAMES else geom.warmup
        vals, nu, last_global = _advance(rng, nu, last_global, f * L,
                                         grid.offsets, geom.sigma_nu_sq)
        state = _track(state, _measure_pair(rng, vals, grid.sync_cols, op_norm, p.rho_ap),
                       model, geom.scheme)
        theta = [theta[1], state.alpha_hat]
        psi[0] = psi[F]
        n_set = grid.psi_slots.size
        noise = rng.standard_normal((n_set, n_runs)) * noise_sd if noise_sd else np.zeros(n_set)
        for s, pilot_col, krep_col, eps in zip(grid.psi_slots, grid.pilot_cols,
                                               grid.krep_cols, noise):
            psi[s] = vals[0, :, pilot_col] + vals[0, :, krep_col] + eps

    sums = np.empty((len(group_starts), len(geom.segments)), dtype=complex)
    for j, (anchor, krep_col, tracker, psi_slot) in enumerate(geom.segments):
        ph = theta[tracker] + psi[psi_slot] - (vals[1, :, anchor] + vals[1, :, krep_col])
        sums[:, j] = np.add.reduceat(np.exp(1j * ph), group_starts)
    return sums


def _chunk_task(args):
    return _simulate_chunk(*args)


def monte_carlo_delta(params: SystemParams, scheme: str, n_realizations: int,
                      master_seed: int, n_workers: int = 1):
    """Estimate E[Delta] at every frame position over independent runs.

    AP 1's row is exact in the mean and in every group. If AP 2 sends
    payload, each run draws its op norm and oscillator paths, runs
    WARMUP_FRAMES frames to bring the tracker to steady state, then sums
    AP 2's Delta over one measured frame; ap1_only draws nothing. Runs are
    split into fixed-size chunks seeded from (master_seed, chunk index) and
    reduced in index order, so the output is bit-identical for any worker
    count. Each chunk's op norms come from chunk_op_norms in this process
    and travel with the task. The batch-mean groups are consecutive runs.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    geom = _cell_geometry(params, scheme)
    n_groups = min(N_GROUPS, n_realizations)
    group = np.arange(n_realizations) * n_groups // n_realizations

    # the group of each run of each chunk; only AP 2's half is drawn
    chunks = np.split(group, range(CHUNK_SIZE, n_realizations, CHUNK_SIZE)) if geom.pos.size else []
    tasks = [(geom, j, g.size, master_seed, np.flatnonzero(np.diff(g, prepend=-1)),
              chunk_op_norms(params, master_seed, j, g.size)) for j, g in enumerate(chunks)]

    if n_workers > 1 and len(tasks) > 1:
        n_procs = min(n_workers, len(tasks))   # the pool forks them all on the first submit
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_procs) as pool:
            partials = list(pool.map(_chunk_task, tasks))
    else:
        partials = [_simulate_chunk(*task) for task in tasks]

    group_sums = np.zeros((n_groups,) + geom.exact.shape, dtype=complex)
    for j, part in enumerate(partials):
        first = group[j * CHUNK_SIZE]
        group_sums[first:first + len(part), 1, geom.pos - 1] += \
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
    sig2 = derive_sigma_nu(params)
    k_rep = representative_ue(params.n_ues)
    L = params.frame_len * params.tau_c
    offsets = np.array(sorted({k_rep, i1, i2}))
    c1, c2, c_rep = np.searchsorted(offsets, [i1, i2, k_rep])

    nu = rng.uniform(-np.pi, np.pi, (2, 1))
    last_global = 1
    state = None
    rows = []
    for f in range(n_frames):
        vals, nu, last_global = _advance(rng, nu, last_global, f * L, offsets, sig2)
        obs = float(_measure_pair(rng, vals, (c1, c2), np.array([op_norm]), params.rho_ap)[0])
        alpha_true = float((vals[1, 0, c2] + vals[1, 0, c_rep])
                           - (vals[0, 0, c2] + vals[0, 0, c_rep]))
        prev, state = state, _track(state, obs, model, scheme)
        kappa = kalman_gain(prev.p_var, model) if state.n > 1 else 1.0
        rows.append(dict(n=f + 1, obs=obs, alpha_hat=float(state.alpha_hat),
                         p_var=float(state.p_var), kappa=float(kappa), alpha_true=alpha_true))
    return rows


def dump_trace_csv(rows) -> str:
    lines = ["n,obs,alpha_hat,p_var,kappa,alpha_true"]
    for r in rows:
        lines.append("%d,%r,%r,%r,%r,%r" % (
            r["n"], r["obs"], r["alpha_hat"], r["p_var"], r["kappa"], r["alpha_true"]))
    return "\n".join(lines) + "\n"
