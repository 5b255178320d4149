"""Sweep orchestration: run the full chain over frame lengths, schemes and
scenario parameters, and emit machine-readable CSV results.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from .compensation import SCHEMES, build_plan, draw_op_norms, monte_carlo_delta
from .config import ConfigError, SystemParams, read_key_values
from .rate import per_position_rates, se_gradient, spectral_efficiency
from .tracking import check_variances


def _integral(v) -> bool:
    return isinstance(v, numbers.Integral)


@dataclass(frozen=True)
class SweepSpec:
    f_values: tuple
    schemes: tuple = SCHEMES
    snr_ap_db: tuple = (-15.0,)
    c_nu_values: tuple = (5e-18,)
    n_realizations: int = 1000
    master_seed: int = 1
    # accepted and checked, read by nothing: the benchmark's sweep files still
    # set it (perfbench/workloads.py, make_references.py)
    n_workers: int = 1

    def __post_init__(self):
        bad = [s for s in self.schemes if s not in SCHEMES]
        if bad:
            raise ConfigError(f"unknown scheme(s) {bad}; expected subset of {SCHEMES}")
        for key in ("f_values", "schemes", "snr_ap_db", "c_nu_values"):
            values = getattr(self, key)
            if not values:
                raise ConfigError(f"{key} must be nonempty")
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"{key} repeats {', '.join(map(str, repeated))}")
        rules = (("f_values", "positive", lambda v: v > 0),
                 ("f_values", "integers", lambda v: float(v).is_integer()),
                 ("snr_ap_db", "finite", math.isfinite),
                 ("c_nu_values", "nonnegative and finite", lambda v: 0 <= v < math.inf),
                 ("master_seed", "a non-negative integer", lambda v: _integral(v) and v >= 0),
                 ("n_realizations", "an integer >= 1", lambda v: _integral(v) and v >= 1),
                 ("n_workers", "an integer >= 1", lambda v: _integral(v) and v >= 1))
        for key, rule, ok in rules:
            values = getattr(self, key)
            bad = [v for v in (values if isinstance(values, tuple) else (values,)) if not ok(v)]
            if bad:
                raise ConfigError(f"{key} must be {rule}, got {', '.join(map(str, bad))}")
        most = np.iinfo(np.intp).max // 8   # it sizes the float64 op-norm draws
        if self.n_realizations > most:
            raise ConfigError(f"n_realizations exceeds the largest array index {most} "
                              "of its 8-byte op norms")


DEFAULT_SWEEP = SweepSpec(f_values=(1, 2, 3), n_realizations=500)


# the paper's frame-length sweeps, all three schemes at inter-array SNRs of
# -15 and -20 dB: the better oscillator (c_nu = 5e-18), then the lower-quality one
FIG2 = SweepSpec(f_values=tuple(range(1, 11)), snr_ap_db=(-15.0, -20.0), n_realizations=10_000)
FIG3 = replace(FIG2, c_nu_values=(1.58e-17,))


_SWEEP_KEYS = {
    "f_values": lambda raw: tuple(int(x) for x in raw.split(",")),
    "schemes": lambda raw: tuple(s.strip() for s in raw.split(",")),
    "snr_ap_db": lambda raw: tuple(float(x) for x in raw.split(",")),
    "c_nu_values": lambda raw: tuple(float(x) for x in raw.split(",")),
    "n_realizations": int,
    "master_seed": int,
    "n_workers": int,
}


def parse_sweep(text: str) -> SweepSpec:
    """Flat key=value sweep document, comma-separated lists."""
    values = read_key_values(text, _SWEEP_KEYS, lambda key, raw: _SWEEP_KEYS[key](raw))
    if "f_values" not in values:
        raise ConfigError("sweep must define f_values")
    return SweepSpec(**values)


@dataclass(frozen=True)
class ResultRow:
    scheme: str
    frame_len: int
    snr_ap_db: float        # NaN for the SNR-independent ap1_only baseline
    c_nu: float
    se_mean: float
    se_stderr: float
    n_realizations: int
    wall_time_s: float


def cell_seed(master_seed: int, i_cnu: int, i_snr: int) -> int:
    """Per-cell RNG seed; deliberately excludes the scheme and the frame
    length, so that the cells of one (c_nu, SNR) share their random draws.
    Each chunk's op norms come from a child stream of the seed that no other
    draw reads (compensation.draw_op_norms), so they are the same draws in
    every such cell: run_sweep makes them once and passes them to each."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(i_cnu, i_snr))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_cell(params: SystemParams, schemes: tuple, n_realizations: int, seed: int, *,
             op_norms: np.ndarray | None = None):
    """The sweep cells of schemes, which share one plan, at one (c_nu, SNR,
    F): Delta statistics -> rate table -> average per-UE SE.

    Returns one (se_mean, se_stderr) per scheme, in order. Runs are i.i.d.,
    so the stderr is the delta method's sqrt(h^T cov h / n), h the SE's
    gradient with respect to [Re; Im] of AP 2's segment means (AP 1's row is
    exact): exactly 0 where nothing is drawn, NaN for one run of a cell that
    draws. op_norms goes to monte_carlo_delta."""
    plan = build_plan(params, schemes[0])
    results = []
    for stats in monte_carlo_delta(params, schemes, n_realizations, seed, plan=plan,
                                   op_norms=op_norms):
        se = float(spectral_efficiency(
            plan, per_position_rates(params, plan, stats.mean_delta)).mean())
        if not stats.cov.size:
            results.append((se, 0.0))
            continue
        # E[Delta] at AP 2's column p is weight[p] times its segment's mean
        g = se_gradient(params, plan, stats.mean_delta)[1, stats.cols] * stats.weight
        h = np.concatenate([np.bincount(stats.segment, part, len(stats.cov) // 2)
                            for part in (g.real, g.imag)])
        # h^T cov h >= 0 but for rounding, as when every run reads the same values
        results.append((se, float(np.sqrt(np.maximum(h @ stats.cov @ h, 0.0) / stats.n_runs))))
    return results


def run_sweep(spec: SweepSpec, params: SystemParams):
    """Evaluate every (c_nu, SNR, scheme, F) cell; deterministic for a fixed
    master_seed, row order fixed by the loop nesting. Every cell's params,
    and each scheme's plan, are built and checked before the first cell runs.

    ap1_only does not depend on the inter-array SNR, so it is evaluated once
    per (c_nu, F) and reported with snr_ap_db = NaN. The synced schemes of one
    (c_nu, SNR, F) run as one group on the same chunks (run_cell), and each
    reports an even share of the group's wall time. Each (c_nu, SNR)'s op
    norms are drawn once, in the wall time of its first synced cell: the
    first synced scheme's at the first F.
    """
    for scheme in spec.schemes:   # the slot checks read neither F, c_nu nor the SNR
        build_plan(params, scheme)
    blocks = []   # per (c_nu, SNR): its seed, SNR, schemes and each F's params
    for i_cnu, c_nu in enumerate(spec.c_nu_values):
        for i_snr, snr_db in enumerate(spec.snr_ap_db):
            schemes = tuple(s for s in spec.schemes if s != "ap1_only" or i_snr == 0)
            if not schemes:
                continue
            cells = []
            for F in spec.f_values:
                try:
                    cell = replace(params, frame_len=int(F), c_nu=float(c_nu)) \
                        .with_snr_ap_db(float(snr_db))
                    check_variances(cell)
                except ConfigError as exc:
                    raise ConfigError(f"cell c_nu = {c_nu:g}, snr_ap_db = {snr_db:g}, "
                                      f"F = {F}: {exc}") from exc
                cells.append(cell)
            blocks.append((cell_seed(spec.master_seed, i_cnu, i_snr), float(snr_db), schemes,
                           cells))
    rows = []
    for seed, snr_db, schemes, cells in blocks:
        # the groups that share a plan: the synced schemes, then ap1_only
        groups = [g for g in (tuple(s for s in schemes if s != "ap1_only"),
                              tuple(s for s in schemes if s == "ap1_only")) if g]
        by_scheme = {s: [] for s in schemes}
        drawn = None   # the current (c_nu, SNR)'s op norms only
        for cell in cells:
            for group in groups:
                t0 = time.perf_counter()
                if group[0] != "ap1_only" and drawn is None:
                    drawn = draw_op_norms(cell, seed, spec.n_realizations)
                t1 = time.perf_counter()
                results = run_cell(cell, group, spec.n_realizations, seed, op_norms=drawn)
                wall = [(time.perf_counter() - t1) / len(group)] * len(group)
                wall[0] += t1 - t0   # the op-norm draw stays in its first synced cell
                for scheme, (se, stderr), w in zip(group, results, wall):
                    by_scheme[scheme].append(ResultRow(
                        scheme=scheme, frame_len=cell.frame_len,
                        snr_ap_db=float("nan") if scheme == "ap1_only" else snr_db,
                        c_nu=cell.c_nu, se_mean=se, se_stderr=stderr,
                        n_realizations=spec.n_realizations, wall_time_s=w))
        rows += [row for scheme in schemes for row in by_scheme[scheme]]
    return rows


CSV_COLUMNS = ("scheme", "frame_len", "snr_ap_db", "c_nu", "se_mean", "se_stderr",
               "n_realizations", "wall_time_s")


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def emit_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(_fmt(getattr(r, c)) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"
