#!/usr/bin/env python3
"""Time the engine layer by layer, and the paper's presets end to end, with
BLAS on one thread; write one JSON report with a section per measurement:

- opnorm: per (N, runs) in OPNORM_CASES, the per-run op-norm draw
  (otasync.channel.batched_op_norms, the bidiagonal model: chi-square draws,
  then the top eigenvalue of B^T B), and that eigenvalue solve alone
  (otasync.channel.gram_top_eigenvalue) on chi squares drawn outside the
  timed call (otasync.channel.bidiagonal_chi_squares). 76 runs is
  fig2-grid's tail chunk (1100 = 1024 + 76).
- chunk: one CHUNK_SIZE-run otasync.compensation._simulate_chunk (each run's
  Delta at each AP-2 segment's anchor) per F and per group of CHUNK_GROUPS:
  each synced scheme alone, then kalman and direct together, which draw the
  chunk once and track it twice, as a sweep runs them; the cell geometry
  and the chunk's op norms are made outside the timed call, as
  monte_carlo_delta makes them, and so are its run sums and cross products.
  ap1_only has no chunk: its table is exact.
- rate: one cell's rate stage on the E[Delta] table of RATE_RUNS runs (made
  outside the timed call): spectral_efficiency(per_position_rates(...)) and,
  where AP 2's segments are drawn, se_gradient for the delta-method stderr,
  for default and heterogeneous beta_ue/eta.
- presets: `otasync --fig2` and `--fig3` at PRESET_RUNS runs per cell, each
  in a fresh process and its own directory, alternating; per run the process
  wall time and the CSV's wall_time_s summed, in all and per scheme, and per
  scheme the sum over cells of se_stderr^2 x wall_time_s: the cell time a
  stderr of 1 would take, which divided by TARGET_STDERR^2 is the time to
  reach TARGET_STDERR (also recorded per cell). kalman and direct of one
  (c_nu, SNR, F) run as one group, whose wall time the CSV splits evenly
  between them, so their per-scheme times are halves of shared work; kalman,
  the first synced scheme, also carries each (c_nu, SNR)'s op-norm draw.

A layer's timing is the median of its section's repeats; one more call
records the tracemalloc peak. The report names the host and the tree it
measured as perfbench/env.py does: the git commit (null outside git) and the
sha256 prefix of src/otasync/*.py.

    python scripts/bench_engine.py --out BENCH.json

Run from anywhere; the script puts the repository's src/ and root on the path.
"""

import argparse
import csv
import json
import os
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.env import git_commit, pinned_env, process_record, source_digest  # noqa: E402

os.environ.update(pinned_env(ROOT))   # before numpy loads BLAS; the presets' processes inherit it

import numpy as np  # noqa: E402

from otasync.channel import batched_op_norms, bidiagonal_chi_squares, \
    gram_top_eigenvalue  # noqa: E402
from otasync.compensation import CHUNK_SIZE, _cell_geometry, _simulate_chunk, build_plan, \
    draw_op_norms, monte_carlo_delta  # noqa: E402
from otasync.config import default_params  # noqa: E402
from otasync.rate import per_position_rates, se_gradient, spectral_efficiency  # noqa: E402

SEED = 1
OPNORM_CASES = ((64, 76), (64, 1024), (128, 1024), (256, 1024), (512, 1024))
OPNORM_REPEATS = 7
CHUNK_GROUPS = (("kalman",), ("direct",), ("kalman", "direct"))
FRAME_LENGTHS, CHUNK_REPEATS = (1, 10), 5
RATE_SCHEMES, RATE_RUNS, RATE_REPEATS = ("kalman", "ap1_only"), 1024, 15
PRESETS, PRESET_RUNS, PRESET_REPEATS = ("--fig2", "--fig3"), 10_000, 3
TARGET_STDERR = 1e-3


def measure(repeats, call, args_of):
    """Time call(*args_of(r)) for r < repeats, then record the peak of one
    more call(*args_of(0)); args_of runs outside both. Returns the timings
    and the last timed call's result."""
    times = []
    for r in range(repeats):
        args = args_of(r)
        t0 = perf_counter()
        result = call(*args)
        times.append(perf_counter() - t0)
    args = args_of(0)
    tracemalloc.start()
    try:
        call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return dict(s=statistics.median(times), s_all=times, peak_mib=peak / 2**20), result


def opnorm():
    for N, runs in OPNORM_CASES:
        params = default_params(n_antennas=N)
        timing, norms = measure(OPNORM_REPEATS, batched_op_norms, lambda r: (
            np.random.default_rng(SEED + r), params, runs))
        solve, lam = measure(OPNORM_REPEATS, gram_top_eigenvalue, lambda r:
                             bidiagonal_chi_squares(np.random.default_rng(SEED + r), N, runs))
        solve["mean_op_norm"] = float(np.sqrt(0.5 * params.beta_g * lam).mean())
        yield dict(N=N, runs=runs, bidiagonal=dict(timing, mean_op_norm=float(norms.mean())),
                   solve=solve)


def chunk():
    # repeat r runs chunk r on its slice of one draw; F changes no op norm
    norms = draw_op_norms(default_params(), SEED, CHUNK_REPEATS * CHUNK_SIZE)
    for schemes in CHUNK_GROUPS:
        for F in FRAME_LENGTHS:
            params = default_params(frame_len=F)
            geom = _cell_geometry(params, build_plan(params, schemes[0]))
            timing, deltas = measure(CHUNK_REPEATS, _simulate_chunk, lambda r: (
                geom, r, CHUNK_SIZE, SEED, norms[r * CHUNK_SIZE:(r + 1) * CHUNK_SIZE], schemes))
            # per scheme, (S, runs) Delta at the anchors -> AP 2's E[Delta] per payload position
            mean_abs_delta = [float(np.abs(delta.mean(axis=1)[geom.segment] * geom.weight).mean())
                              for delta in deltas]
            # the grid holds frames W-1 and W from frame W-1's start: count frame W's
            yield dict(schemes=list(schemes), F=F, runs=CHUNK_SIZE,
                       grid_columns=int((geom.instants > F * geom.params.tau_c).sum()),
                       segments=len(geom.segments), **timing, mean_abs_delta=mean_abs_delta)


def hetero_params(**overrides):
    """The default 10 UEs with unequal beta_ue (-26..-14 dB) and eta."""
    rng = np.random.default_rng(31)
    beta = 10 ** (rng.uniform(-26.0, -14.0, (10, 2)) / 10)
    eta = rng.uniform(0.1, 1.0, (10, 2))
    return default_params(beta_ue=beta, eta=eta / eta.sum(axis=0, keepdims=True), **overrides)


def rate():
    for name, make in (("default", default_params), ("hetero", hetero_params)):
        for scheme in RATE_SCHEMES:
            for F in FRAME_LENGTHS:
                params = make(frame_len=F)
                plan = build_plan(params, scheme)
                (stats,) = monte_carlo_delta(params, (scheme,), RATE_RUNS, SEED)
                table, drawn = stats.mean_delta, stats.cov.size > 0
                timing, (se, grad) = measure(RATE_REPEATS, lambda: (
                    spectral_efficiency(plan, per_position_rates(params, plan, table)),
                    se_gradient(params, plan, table) if drawn else None), lambda r: ())
                yield dict(params=name, scheme=scheme, F=F, segments=len(stats.cov) // 2,
                           payload_columns=int(plan.data_mask().any(axis=0).sum()),
                           **timing, se_mean=float(se.mean()),
                           max_abs_gradient=float(np.abs(grad).max()) if drawn else 0.0)


def presets():
    for repeat in range(PRESET_REPEATS):
        for preset in PRESETS:
            with tempfile.TemporaryDirectory() as tmp:
                t0 = perf_counter()
                subprocess.run([sys.executable, "-m", "otasync.cli", preset, "--realizations",
                                str(PRESET_RUNS), "--out", "cells.csv"],
                               cwd=tmp, check=True)
                wall = perf_counter() - t0
                with open(Path(tmp) / "cells.csv", newline="") as fh:
                    cells = list(csv.DictReader(fh))
            by_scheme, unit_by_scheme, target_s = {}, {}, {}
            for cell in cells:
                scheme, cell_s = cell["scheme"], float(cell["wall_time_s"])
                unit = float(cell["se_stderr"]) ** 2 * cell_s
                by_scheme[scheme] = by_scheme.get(scheme, 0.0) + cell_s
                unit_by_scheme[scheme] = unit_by_scheme.get(scheme, 0.0) + unit
                target_s["/".join((scheme, cell["frame_len"], cell["snr_ap_db"]))] = \
                    unit / TARGET_STDERR ** 2
            yield dict(preset=preset.lstrip("-"), repeat=repeat, runs=PRESET_RUNS,
                       cells=len(cells), wall_s=wall, cell_s=sum(by_scheme.values()),
                       cell_s_by_scheme=by_scheme, stderr_sq_cell_s_by_scheme=unit_by_scheme,
                       target_stderr=TARGET_STDERR, target_s_by_cell=target_s)


SECTIONS = dict(opnorm=opnorm, chunk=chunk, rate=rate, presets=presets)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="PATH", help="JSON report path")
    args = parser.parse_args(argv)

    report = dict(host=process_record(), commit=git_commit(ROOT), src_sha256=source_digest(ROOT))
    for name, section in SECTIONS.items():
        report[name] = []
        for row in section():
            report[name].append(row)
            print(json.dumps(dict(section=name, **row)), flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
