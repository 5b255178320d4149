"""Monte Carlo estimation of the residual phase factor means E[Delta] per
frame position, with phase compensation at the arrays (theta, reset at each
tracker output) and at the UEs (psi, reset at each demodulation pilot), and a
single-run tracker trace.

The engine simulates the oscillator paths only at the sample instants that
enter the chain (exact sparse Wiener increments) and draws each sync
measurement as its exact one-dimensional matched-filter projection; both are
distributional identities with the dense/vector formulation, which the test
suite cross-checks against a slow full-chain reference.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass

import numpy as np

from .channel import batched_op_norms
from .config import ConfigError, SystemParams, derive_sigma_nu, derive_slot_layout
from .phase_noise import run_seed, wiener_values_at
from .timeline import SamplePlan, build_ap1_only_schedule, build_frame_schedule
from .tracking import derive_noise_model, kalman_gain, kalman_init, kalman_update, \
    representative_ue
from .tracking import wrap  # noqa: F401  unused here; perfbench/tracer.py rebinds it by name

SCHEMES = ("kalman", "direct", "ap1_only")

WARMUP_FRAMES = 20       # tracker transient discarded before Delta accumulation
CHUNK_SIZE = 1024        # runs per vectorized chunk (fixed: output is worker-count invariant)
N_GROUPS = 10            # batch-mean groups for standard errors


@dataclass(frozen=True)
class DeltaStats:
    """Monte Carlo averages of Delta per (AP, frame position), shared across
    UEs (per-UE breakdown available from monte_carlo_delta(per_ue=True)).

    mean_delta: (2, F*tau_c) complex, zero at positions where the AP sends no
    payload data; group_means: (N_GROUPS, 2, F*tau_c) batch means for
    standard-error estimates.
    """

    scheme: str
    mean_delta: np.ndarray
    n_realizations: int
    group_means: np.ndarray
    group_counts: np.ndarray


# ---------------------------------------------------------------------------
# static per-cell description of what the engine must simulate

@dataclass(frozen=True)
class _Segment:
    ap: int                  # 0-based
    positions: np.ndarray    # frame offsets (1-based) carrying payload data
    anchor_idx: np.ndarray   # indices of those offsets in the measured-frame grid
    krep_idx: int            # grid index of the slot's representative pilot sample
    theta_updated: bool      # use the tracker output of the current frame
    psi_slot: int            # slot index whose pilot sets psi; 0 = carried over


@dataclass(frozen=True)
class _CellGeometry:
    params: SystemParams
    plan: SamplePlan
    scheme: str
    sigma_nu_sq: float
    k_rep: int
    warm_offsets: np.ndarray
    warm_idx: dict
    meas_offsets: np.ndarray
    meas_idx: dict
    segments: tuple
    pilot_slots: np.ndarray  # slots with a demod pilot (1-based), for psi draws
    i1: int
    i2: int


def build_plan(params: SystemParams, scheme: str) -> SamplePlan:
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    layout = derive_slot_layout(params)
    if scheme == "ap1_only":
        return build_ap1_only_schedule(params, layout)
    return build_frame_schedule(params, layout)


def _cell_geometry(params: SystemParams, scheme: str) -> _CellGeometry:
    plan = build_plan(params, scheme)
    layout = derive_slot_layout(params)
    F, c = params.frame_len, params.tau_c
    k_rep = representative_ue(params.n_ues)
    synced = scheme != "ap1_only"

    needed = set()
    for s in range(1, F + 1):
        base = (s - 1) * c
        needed.update(base + k for k in range(1, params.n_ues + 1))
        for ap in range(2):
            p = plan.demod_pilot_samples[ap, s - 1]
            if p > 0:
                needed.add(int(p))
    if synced:
        needed.update((layout.i1, layout.i2))
    data = plan.data_mask()
    for ap in range(2):
        needed.update(int(i) for i in np.nonzero(data[ap])[0] + 1)
    meas_offsets = np.array(sorted(needed))
    meas_idx = {int(o): j for j, o in enumerate(meas_offsets)}

    last_base = (F - 1) * c
    warm = {last_base + k_rep}
    p_last = plan.demod_pilot_samples[0, F - 1]
    if p_last > 0:
        warm.add(int(p_last))
    if synced:
        warm.update((layout.i1, layout.i2))
    warm_offsets = np.array(sorted(warm))
    warm_idx = {int(o): j for j, o in enumerate(warm_offsets)}

    segments = []
    for ap in range(2):
        rows = np.nonzero(data[ap])[0] + 1
        if rows.size == 0:
            continue
        for s in range(1, F + 1):
            base = (s - 1) * c
            in_slot = rows[(rows > base) & (rows <= base + c)]
            if in_slot.size == 0:
                continue
            pilot = plan.demod_pilot_samples[ap, s - 1]
            for pre_pilot in (True, False):
                pos = in_slot[in_slot < pilot] if pre_pilot else in_slot[in_slot > pilot]
                if pilot <= 0:
                    pos = in_slot if pre_pilot else in_slot[:0]
                if pos.size == 0:
                    continue
                psi_slot = (s - 1) if pre_pilot else s
                segments.append(_Segment(
                    ap=ap,
                    positions=pos,
                    anchor_idx=np.array([meas_idx[int(p)] for p in pos]),
                    krep_idx=meas_idx[base + k_rep],
                    theta_updated=bool(synced and pos[0] > layout.i2),
                    psi_slot=psi_slot,
                ))

    pilot_slots = np.nonzero(plan.demod_pilot_samples[0] > 0)[0] + 1
    return _CellGeometry(params=params, plan=plan, scheme=scheme,
                         sigma_nu_sq=derive_sigma_nu(params), k_rep=k_rep,
                         warm_offsets=warm_offsets, warm_idx=warm_idx,
                         meas_offsets=meas_offsets, meas_idx=meas_idx,
                         segments=tuple(segments), pilot_slots=pilot_slots,
                         i1=layout.i1, i2=layout.i2)


# ---------------------------------------------------------------------------
# vectorized chunk simulation

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


def _psi_noise(rng, geom, n_runs):
    var = geom.params.ue_pilot_noise_var
    if var == 0.0:
        return None
    return rng.standard_normal((geom.pilot_slots.size, n_runs)) * np.sqrt(var)


def _simulate_chunk(geom: _CellGeometry, chunk_index: int, n_runs: int,
                    master_seed: int, per_ue: bool):
    """One vectorized chunk of independent runs; returns the complex Delta sum
    per (AP, position) (or per (UE, AP, position) when per_ue)."""
    p = geom.params
    rng = np.random.default_rng(run_seed(master_seed, chunk_index))
    synced = geom.scheme != "ap1_only"
    F, c, L = p.frame_len, p.tau_c, p.frame_len * p.tau_c

    if synced:
        op_norm = batched_op_norms(rng, p, n_runs)
        model = derive_noise_model(p, derive_slot_layout(p), op_norm)
        i12 = (geom.warm_idx[geom.i1], geom.warm_idx[geom.i2])

    nu = rng.uniform(-np.pi, np.pi, (2, n_runs))
    last_global = 1
    theta2 = np.zeros(n_runs)
    psi = np.zeros(n_runs)
    state = None

    last_pilot_idx = geom.warm_idx.get(int(geom.plan.demod_pilot_samples[0, F - 1]))
    last_krep_idx = geom.warm_idx[(F - 1) * c + geom.k_rep]
    for f in range(WARMUP_FRAMES):
        vals, nu, last_global = _advance(rng, nu, last_global, f * L,
                                         geom.warm_offsets, geom.sigma_nu_sq)
        if synced:
            state = _track(state, _measure_pair(rng, vals, i12, op_norm, p.rho_ap),
                           model, geom.scheme)
            theta2 = state.alpha_hat
        if last_pilot_idx is not None:
            noise = _psi_noise(rng, geom, n_runs)
            psi = vals[0, :, last_pilot_idx] + vals[0, :, last_krep_idx]
            if noise is not None:
                psi = psi + noise[-1]

    vals, nu, last_global = _advance(rng, nu, last_global, WARMUP_FRAMES * L,
                                     geom.meas_offsets, geom.sigma_nu_sq)
    noise = _psi_noise(rng, geom, n_runs)
    psi_by_slot = {0: psi}
    for j, s in enumerate(geom.pilot_slots):
        base = (int(s) - 1) * c
        pval = int(geom.plan.demod_pilot_samples[0, int(s) - 1])
        val = vals[0, :, geom.meas_idx[pval]] + vals[0, :, geom.meas_idx[base + geom.k_rep]]
        psi_by_slot[int(s)] = val + noise[j] if noise is not None else val

    theta2_new = theta2
    if synced:
        m12 = (geom.meas_idx[geom.i1], geom.meas_idx[geom.i2])
        state = _track(state, _measure_pair(rng, vals, m12, op_norm, p.rho_ap),
                       model, geom.scheme)
        theta2_new = state.alpha_hat

    if per_ue:
        k_anchor = np.empty((p.n_ues, F), dtype=int)
        for k in range(1, p.n_ues + 1):
            for s in range(F):
                k_anchor[k - 1, s] = geom.meas_idx[s * c + k]
        sums = np.zeros((p.n_ues, 2, L + 1), dtype=complex)
    else:
        sums = np.zeros((2, L + 1), dtype=complex)

    for seg in geom.segments:
        theta = (theta2_new if seg.theta_updated else theta2) if seg.ap == 1 \
            else np.zeros(n_runs)
        psi_seg = psi_by_slot[seg.psi_slot]
        base_phase = theta[:, None] + psi_seg[:, None] - vals[seg.ap, :, seg.anchor_idx].T
        if per_ue:
            slot = (int(seg.positions[0]) - 1) // c
            for k in range(p.n_ues):
                ph = base_phase - vals[seg.ap, :, [k_anchor[k, slot]]].T
                sums[k, seg.ap, seg.positions] += np.exp(1j * ph).sum(axis=0)
        else:
            ph = base_phase - vals[seg.ap, :, [seg.krep_idx]].T
            sums[..., seg.ap, seg.positions] += np.exp(1j * ph).sum(axis=0)
    return sums


def _chunk_task(args):
    params, scheme, chunk_index, n_runs, master_seed, per_ue = args
    geom = _cell_geometry(params, scheme)
    return _simulate_chunk(geom, chunk_index, n_runs, master_seed, per_ue)


def monte_carlo_delta(params: SystemParams, scheme: str, n_realizations: int,
                      master_seed: int, n_workers: int = 1,
                      per_ue: bool = False):
    """Estimate E[Delta] at every frame position over independent runs.

    Each run draws its own inter-array channel and oscillator paths, runs
    WARMUP_FRAMES frames to bring the tracker to steady state, then
    accumulates Delta over one measured frame. Runs are split into fixed-size
    chunks with seeds spawned from (master_seed, chunk index), and chunk
    results are reduced in index order, so the output is bit-identical for
    any worker count.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    geom = _cell_geometry(params, scheme)
    L = params.frame_len * params.tau_c

    bounds = list(range(0, n_realizations, CHUNK_SIZE)) + [n_realizations]
    tasks = [(params, scheme, j, bounds[j + 1] - bounds[j], master_seed, per_ue)
             for j in range(len(bounds) - 1)]

    if n_workers > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_workers) as pool:
            partials = list(pool.map(_chunk_task, tasks))
    else:
        partials = [_simulate_chunk(geom, j, n, master_seed, per_ue)
                    for (_, _, j, n, _, _) in tasks]

    shape = partials[0].shape
    total = np.zeros(shape, dtype=complex)
    group_sums = np.zeros((N_GROUPS,) + shape, dtype=complex)
    group_counts = np.zeros(N_GROUPS, dtype=int)
    for j, part in enumerate(partials):
        total += part
        group_sums[j % N_GROUPS] += part
        group_counts[j % N_GROUPS] += tasks[j][3]

    mean = (total / n_realizations)[..., 1:]
    with np.errstate(invalid="ignore", divide="ignore"):
        gmeans = group_sums[..., 1:] / group_counts[:, None, None] if not per_ue \
            else group_sums[..., 1:] / group_counts[:, None, None, None]
    gmeans = np.nan_to_num(gmeans)
    return DeltaStats(scheme=scheme, mean_delta=mean, n_realizations=n_realizations,
                      group_means=gmeans, group_counts=group_counts)


def run_phase_trace(params: SystemParams, n_frames: int, master_seed: int,
                    scheme: str = "kalman"):
    """Single-run per-frame tracker diagnostics.

    Returns a list of dicts with keys (n, obs, alpha_hat, p_var, kappa,
    alpha_true): the raw combined measurement, the tracker output, its model
    variance and gain, and the true inter-array phase difference at i2.
    """
    if scheme not in ("kalman", "direct"):
        raise ValueError("trace requires a synchronized scheme")
    if n_frames < 1:
        raise ConfigError(f"trace needs at least one frame, got {n_frames}")
    layout = derive_slot_layout(params)
    rng = np.random.default_rng(run_seed(master_seed, 0))
    op_norm = float(batched_op_norms(rng, params, 1)[0])
    model = derive_noise_model(params, layout, op_norm)
    sig2 = derive_sigma_nu(params)
    k_rep = representative_ue(params.n_ues)
    L = params.frame_len * params.tau_c
    offsets = np.array(sorted({k_rep, layout.i1, layout.i2}))
    idx = {int(o): j for j, o in enumerate(offsets)}

    nu = rng.uniform(-np.pi, np.pi, (2, 1))
    last_global = 1
    state = None
    rows = []
    for f in range(n_frames):
        vals, nu, last_global = _advance(rng, nu, last_global, f * L, offsets, sig2)
        obs = float(_measure_pair(rng, vals, (idx[layout.i1], idx[layout.i2]),
                                  np.array([op_norm]), params.rho_ap)[0])
        alpha_true = float((vals[1, 0, idx[layout.i2]] + vals[1, 0, idx[k_rep]])
                           - (vals[0, 0, idx[layout.i2]] + vals[0, 0, idx[k_rep]]))
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
