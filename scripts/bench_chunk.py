#!/usr/bin/env python3
"""Time one 1024-run Monte Carlo chunk (otasync.compensation._simulate_chunk,
N_GROUPS batch-mean groups, one sum per AP-2 segment) per synced scheme at F in
{1, 10}, with BLAS on one thread; ap1_only has no chunk, as its table is exact.
Each timing is the median of REPEATS calls on fresh seeds; a separate call
records the tracemalloc peak. The cell geometry and the chunk's op norms are
made outside the timed call, as monte_carlo_delta makes them before it calls
the chunk.

    python scripts/bench_chunk.py --out BENCH.json

Run from anywhere; the script puts the repository's src/ on the path.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"       # before numpy loads BLAS

import argparse
import json
import platform
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

import numpy as np  # noqa: E402

from otasync.compensation import CHUNK_SIZE, N_GROUPS  # noqa: E402
from otasync.compensation import _cell_geometry, _simulate_chunk, chunk_op_norms  # noqa: E402
from otasync.config import default_params  # noqa: E402

SCHEMES = ("kalman", "direct")
FRAME_LENGTHS = (1, 10)
REPEATS = 5
SEED = 1


def _measure(geom):
    group_starts = np.flatnonzero(np.diff(np.arange(CHUNK_SIZE) * N_GROUPS // CHUNK_SIZE,
                                          prepend=-1))

    def task(r):
        op_norm = chunk_op_norms(geom.params, SEED, r, CHUNK_SIZE)
        return geom, r, CHUNK_SIZE, SEED, group_starts, op_norm

    times = []
    for r in range(REPEATS):
        args = task(r)
        t0 = perf_counter()
        sums = _simulate_chunk(*args)
        times.append(perf_counter() - t0)
    args = task(0)
    tracemalloc.start()
    try:
        _simulate_chunk(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # (G, S) segment sums -> AP 2's E[Delta] per payload position
    mean_delta = sums.sum(axis=0)[geom.segment] * geom.weight / CHUNK_SIZE
    return dict(s=statistics.median(times), s_all=times, peak_mib=peak / 2**20,
                mean_abs_delta=float(np.abs(mean_delta).mean()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="PATH", help="JSON report path")
    args = parser.parse_args(argv)

    rows = []
    for scheme in SCHEMES:
        for F in FRAME_LENGTHS:
            geom = _cell_geometry(default_params(frame_len=F), scheme)
            # the grid holds frames W-1 and W from frame W-1's start: count frame W's
            frame_w = geom.instants > F * geom.params.tau_c
            row = dict(scheme=scheme, F=F, runs=CHUNK_SIZE, grid_columns=int(frame_w.sum()),
                       segments=len(geom.segments), **_measure(geom))
            rows.append(row)
            print(json.dumps(row), flush=True)

    report = dict(
        what=f"one {CHUNK_SIZE}-run _simulate_chunk per scheme and F, default parameters",
        timing=f"median of {REPEATS} calls, BLAS on one thread; peak from tracemalloc",
        host=dict(machine=platform.machine(), cpus=os.cpu_count(),
                  python=platform.python_version(), numpy=np.__version__),
        rows=rows)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
