#!/usr/bin/env python3
"""Time the per-run op-norm draw for 1024 runs at N in {64, 128, 256, 512}:
the dense-G SVD oracle (tests/oracles.py) against the bidiagonal model in
otasync.channel.batched_op_norms, with BLAS on one thread. Each timing is the
median of REPEATS calls; a separate call per path records the tracemalloc
peak. The dense path is skipped where its G alone would take 1 GiB or more.

    python scripts/bench_opnorm.py --out BENCH.json

Run from anywhere; the script puts the repository's src/ and root on the path.
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
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from otasync.channel import batched_op_norms  # noqa: E402
from otasync.config import default_params  # noqa: E402
from tests.oracles import dense_op_norms  # noqa: E402

N_RUNS = 1024
SIZES = (64, 128, 256, 512)
REPEATS = 3
SEED = 1
DENSE_LIMIT_BYTES = 2**30


def _measure(draw, params):
    times = []
    for r in range(REPEATS):
        rng = np.random.default_rng(SEED + r)
        t0 = perf_counter()
        norms = draw(rng, params, N_RUNS)
        times.append(perf_counter() - t0)
    tracemalloc.start()
    try:
        draw(np.random.default_rng(SEED), params, N_RUNS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return dict(s=statistics.median(times), s_all=times, peak_mib=peak / 2**20,
                mean_op_norm=float(norms.mean()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="PATH", help="JSON report path")
    args = parser.parse_args(argv)

    rows = []
    for N in SIZES:
        params = default_params(n_antennas=N)
        g_bytes = N_RUNS * N * N * 16
        row = dict(N=N, runs=N_RUNS, dense_g_bytes=g_bytes,
                   bidiagonal=_measure(batched_op_norms, params))
        if g_bytes < DENSE_LIMIT_BYTES:
            row["dense"] = _measure(dense_op_norms, params)
            row["speedup"] = row["dense"]["s"] / row["bidiagonal"]["s"]
        else:
            row["dense"] = None
        rows.append(row)
        print(json.dumps(row), flush=True)

    report = dict(
        what=f"op-norm draw for {N_RUNS} runs: dense-G SVD vs bidiagonal bisection",
        timing=f"median of {REPEATS} calls, BLAS on one thread; peak from tracemalloc",
        host=dict(machine=platform.machine(), cpus=os.cpu_count(),
                  python=platform.python_version(), numpy=np.__version__),
        rows=rows)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
