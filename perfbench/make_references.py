"""Regenerate perfbench/references.json: per-cell reference SE for every
benchmark workload at a higher realization count.

Each workload is swept with REF_SEEDS independent master seeds at
REF_REALIZATIONS runs per cell (ten chunks, so all ten batch-mean groups are
live). A cell's reference is the mean over the seeds; sd_at_n_ref pools the
seeds' batch-means stderrs (9 degrees of freedom each) and is the standard
deviation of one sweep's se_mean at REF_REALIZATIONS runs. run.py scales it
to the benchmark's run count.

Run from the repository root:  python3 perfbench/make_references.py
(about 20 minutes on two cores; it uses both).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from env import BLAS_THREADS, git_commit, process_record, source_digest  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

from otasync.config import load_config  # noqa: E402
from otasync.experiment import parse_sweep, run_sweep  # noqa: E402
from workloads import WORKLOADS, cell_key  # noqa: E402

REF_REALIZATIONS = 10240
REF_SEEDS = (900001, 900002, 900003, 900004)
REF_WORKERS = 2          # output is bit-identical for any worker count


def reference_cells(workload) -> dict:
    params = load_config(workload.config_text())
    by_cell = {}
    for seed in REF_SEEDS:
        t0 = time.perf_counter()
        spec = replace(parse_sweep(workload.sweep_text(seed, REF_REALIZATIONS)),
                       n_workers=REF_WORKERS)
        for row in run_sweep(spec, params):
            key = cell_key(row.scheme, row.frame_len, row.snr_ap_db)
            by_cell.setdefault(key, []).append((row.se_mean, row.se_stderr))
        print(f"{workload.name} seed {seed}: {time.perf_counter() - t0:.1f} s", flush=True)
    out = {}
    for key, pairs in by_cell.items():
        sd = math.sqrt(sum(err ** 2 for _, err in pairs) / len(pairs))
        out[key] = {"se": sum(se for se, _ in pairs) / len(pairs), "sd_at_n_ref": sd}
    return out


def main() -> int:
    doc = {
        "n_ref": REF_REALIZATIONS,
        "master_seeds": list(REF_SEEDS),
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(ROOT),
        "environment": process_record(),
        "workloads": {name: reference_cells(w) for name, w in WORKLOADS.items()},
    }
    path = Path(__file__).resolve().parent / "references.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
