#!/usr/bin/env python3
"""Time the rate stage of one sweep cell (otasync.rate.per_position_rates,
then spectral_efficiency, on the overall E[Delta] mean stacked with its
N_GROUPS batch-group means, as run_cell stacks them) for default and
heterogeneous beta_ue/eta, kalman and ap1_only, F in {1, 10}, with BLAS on
one thread. Each timing is the median of REPEATS calls; a separate call
records the tracemalloc peak. The tables come from monte_carlo_delta,
outside the timed call.

    python scripts/bench_rate.py --out BENCH.json

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

from otasync.compensation import build_plan, monte_carlo_delta  # noqa: E402
from otasync.config import default_params  # noqa: E402
from otasync.rate import per_position_rates, spectral_efficiency  # noqa: E402

PARAMS = ("default", "hetero")
SCHEMES = ("kalman", "ap1_only")
FRAME_LENGTHS = (1, 10)
REPEATS = 15
N_REALIZATIONS = 1024    # runs behind each cell's tables
SEED = 1


def hetero_params(**overrides):
    """The default 10 UEs with unequal beta_ue (-26..-14 dB) and eta."""
    rng = np.random.default_rng(31)
    beta = 10 ** (rng.uniform(-26.0, -14.0, (10, 2)) / 10)
    eta = rng.uniform(0.1, 1.0, (10, 2))
    return default_params(beta_ue=beta, eta=eta / eta.sum(axis=0, keepdims=True), **overrides)


def _measure(params, scheme):
    plan = build_plan(params, scheme)
    stats = monte_carlo_delta(params, scheme, N_REALIZATIONS, SEED)
    tables = np.concatenate((stats.mean_delta[None], stats.group_means))

    def stage():
        return spectral_efficiency(plan, per_position_rates(params, plan, tables))

    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        se = stage()
        times.append(perf_counter() - t0)
    tracemalloc.start()
    try:
        stage()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return dict(tables=len(tables), payload_columns=int(plan.data_mask().any(axis=0).sum()),
                s=statistics.median(times), s_all=times, peak_mib=peak / 2**20,
                se_mean=float(se[0].mean()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="PATH", help="JSON report path")
    args = parser.parse_args(argv)

    makers = dict(default=default_params, hetero=hetero_params)
    rows = []
    for name in PARAMS:
        for scheme in SCHEMES:
            for F in FRAME_LENGTHS:
                row = dict(params=name, scheme=scheme, F=F,
                           **_measure(makers[name](frame_len=F), scheme))
                rows.append(row)
                print(json.dumps(row), flush=True)

    report = dict(
        what="rate stage of one cell: spectral_efficiency(per_position_rates(...)) on "
             f"the mean and group-mean E[Delta] tables of {N_REALIZATIONS} runs",
        timing=f"median of {REPEATS} calls, BLAS on one thread; peak from tracemalloc",
        host=dict(machine=platform.machine(), cpus=os.cpu_count(),
                  python=platform.python_version(), numpy=np.__version__),
        rows=rows)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
