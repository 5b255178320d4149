"""Sweep orchestration: run the full chain over frame lengths, schemes and
scenario parameters, and emit machine-readable CSV results.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from .compensation import SCHEMES, build_plan, monte_carlo_delta
from .config import ConfigError, SystemParams, derive_sigma_nu, read_key_values
from .rate import per_position_rates, spectral_efficiency


def _integral(v) -> bool:
    return isinstance(v, numbers.Integral)


@dataclass(frozen=True)
class SweepSpec:
    f_values: tuple
    schemes: tuple = ("kalman", "direct", "ap1_only")
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


DEFAULT_SWEEP = SweepSpec(f_values=(1, 2, 3), n_realizations=500)


def fig2_sweep(n_realizations: int = 10_000, master_seed: int = 1) -> SweepSpec:
    """Frame-length sweep for the better oscillator (c_nu = 5e-18) at
    inter-array SNRs of -15 and -20 dB, all three schemes."""
    return SweepSpec(f_values=tuple(range(1, 11)), schemes=SCHEMES,
                     snr_ap_db=(-15.0, -20.0), c_nu_values=(5e-18,),
                     n_realizations=n_realizations, master_seed=master_seed)


def fig3_sweep(n_realizations: int = 10_000, master_seed: int = 1) -> SweepSpec:
    """Same sweep with the lower-quality oscillator (c_nu = 1.58e-17)."""
    return replace(fig2_sweep(n_realizations, master_seed), c_nu_values=(1.58e-17,))


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
    draw reads (compensation.chunk_op_norms), so they are the same draws in
    every such cell and are made once."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(i_cnu, i_snr))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_cell(params: SystemParams, scheme: str, n_realizations: int, seed: int):
    """One sweep cell: Delta statistics -> rate table -> average per-UE SE.

    Returns (se_mean, se_stderr); the stderr comes from batch means over
    groups of consecutive runs (NaN below 2 runs per group, whose |E[Delta]|
    is fixed by the position). The overall mean and the group means go
    through the rate table as one stack."""
    plan = build_plan(params, scheme)
    stats = monte_carlo_delta(params, scheme, n_realizations, seed, plan=plan)
    tables = np.concatenate((stats.mean_delta[None], stats.group_means))
    se_all = spectral_efficiency(plan, per_position_rates(params, plan, tables)).mean(axis=-1)
    se, se_groups = float(se_all[0]), se_all[1:]
    if stats.group_counts.min() >= 2:
        # spread about one group's value: exactly 0 when every group agrees
        stderr = float(np.std(se_groups - se_groups[0], ddof=1) / math.sqrt(len(se_groups)))
    else:
        stderr = float("nan")
    return se, stderr


def run_sweep(spec: SweepSpec, params: SystemParams):
    """Evaluate every (c_nu, SNR, scheme, F) cell; deterministic for a fixed
    master_seed, row order fixed by the loop nesting. Every cell's params are
    built and checked before the first cell runs.

    ap1_only does not depend on the inter-array SNR, so it is evaluated once
    per (c_nu, F) and reported with snr_ap_db = NaN.
    """
    cells = []
    for i_cnu, c_nu in enumerate(spec.c_nu_values):
        for i_snr, snr_db in enumerate(spec.snr_ap_db):
            seed = cell_seed(spec.master_seed, i_cnu, i_snr)
            for scheme in spec.schemes:
                if scheme == "ap1_only" and i_snr > 0:
                    continue
                for F in spec.f_values:
                    try:
                        cell = replace(params, frame_len=int(F), c_nu=float(c_nu)) \
                            .with_snr_ap_db(float(snr_db))
                        derive_sigma_nu(cell)
                    except ConfigError as exc:
                        raise ConfigError(f"cell c_nu = {c_nu:g}, snr_ap_db = {snr_db:g}, "
                                          f"F = {F}: {exc}") from exc
                    snr = float("nan") if scheme == "ap1_only" else float(snr_db)
                    cells.append((cell, scheme, seed, snr))
    rows = []
    for cell, scheme, seed, snr in cells:
        t0 = time.perf_counter()
        se, stderr = run_cell(cell, scheme, spec.n_realizations, seed)
        rows.append(ResultRow(
            scheme=scheme, frame_len=cell.frame_len, snr_ap_db=snr, c_nu=cell.c_nu,
            se_mean=se, se_stderr=stderr, n_realizations=spec.n_realizations,
            wall_time_s=time.perf_counter() - t0))
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
