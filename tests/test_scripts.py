"""scripts/bench_engine.py calls engine internals and the CLI; one small run
of every section keeps a change to their contract from breaking it silently."""

import importlib.util
import json
import math
import os
import statistics
from pathlib import Path

import pytest

from otasync.compensation import CHUNK_SIZE
from otasync.config import default_params

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_engine.py"

# sizes small enough for a smoke run of every section
SMALL = dict(OPNORM_CASES=((8, 16),), OPNORM_REPEATS=1, CHUNK_REPEATS=2, RATE_REPEATS=2,
             RATE_RUNS=20, PRESET_RUNS=20, PRESET_REPEATS=1)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    # loading the script pins BLAS and PYTHONPATH in os.environ for the
    # preset processes; the rest of the session gets its own back
    environ = dict(os.environ)
    spec = importlib.util.spec_from_file_location("bench_engine", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(bench)
        for name, value in SMALL.items():
            setattr(bench, name, value)
        out = tmp_path_factory.mktemp("bench") / "bench.json"
        bench.main(["--out", str(out)])
        return json.loads(out.read_text())
    finally:
        os.environ.clear()
        os.environ.update(environ)


def test_bench_engine_report(report):
    assert list(report) == ["host", "commit", "src_sha256", "opnorm", "chunk", "rate", "presets"]
    assert report["commit"] is None or len(report["commit"]) == 40
    assert len(report["src_sha256"]) == 16 and report["host"]["blas_threads"] == \
        dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def test_bench_chunk_measure(report):
    # a layer's timing is the median of its section's repeats
    (opnorm,) = report["opnorm"]
    for timing, repeats in [(opnorm[k], 1) for k in ("bidiagonal", "solve")] \
            + [(r, 2) for r in report["chunk"] + report["rate"]]:
        assert len(timing["s_all"]) == repeats and timing["peak_mib"] > 0
        assert timing["s"] == statistics.median(timing["s_all"])
    # measure returns the last chunk's (S, runs) Delta at the anchors, per scheme
    for r in report["chunk"]:
        assert r["runs"] == CHUNK_SIZE and r["segments"] > 0
        assert len(r["mean_abs_delta"]) == len(r["schemes"])
        assert all(0 < m <= 1 for m in r["mean_abs_delta"])


def test_bench_opnorm_report(report):
    (opnorm,) = report["opnorm"]
    assert opnorm["N"] == 8 and opnorm["runs"] == 16
    # ||G|| of an 8x8 G: a little below sqrt(beta_g) 2 sqrt(8)
    scale = math.sqrt(default_params().beta_g) * 2 * math.sqrt(8)
    assert 0.6 < opnorm["bidiagonal"]["mean_op_norm"] / scale < 1.1
    # the solve alone is timed on the chi squares batched_op_norms draws
    assert opnorm["solve"]["mean_op_norm"] == opnorm["bidiagonal"]["mean_op_norm"]


def test_bench_chunk_report(report):
    # each synced scheme alone, then both on one draw; grid_columns counts
    # the measured frame's instants: AP 1's demod pilot and the
    # representative UE's pilot in each slot, plus i1 and i2
    assert [(r["schemes"], r["F"], r["grid_columns"]) for r in report["chunk"]] == \
        [(schemes, F, columns) for schemes in (["kalman"], ["direct"], ["kalman", "direct"])
         for F, columns in ((1, 4), (10, 22))]


def test_bench_rate_report(report):
    # payload columns: 43 in the broken slot and 41 in each conventional one
    columns = [("kalman", 1, 43), ("kalman", 10, 412), ("ap1_only", 1, 41), ("ap1_only", 10, 410)]
    assert [(r["params"], r["scheme"], r["F"], r["payload_columns"]) for r in report["rate"]] == \
        [(name, *c) for name in ("default", "hetero") for c in columns]
    # one table, and its gradient where AP 2's S = F + 1 segments are drawn
    for r in report["rate"]:
        drawn = r["scheme"] == "kalman"
        assert r["segments"] == (r["F"] + 1 if drawn else 0) and 0 < r["se_mean"] < 10
        assert (0 < r["max_abs_gradient"] < 1) if drawn else (r["max_abs_gradient"] == 0.0)


def test_bench_presets_report(report):
    assert [(r["preset"], r["repeat"], r["runs"]) for r in report["presets"]] == \
        [("fig2", 0, 20), ("fig3", 0, 20)]
    for r in report["presets"]:
        # 50 cells: kalman and direct at 2 SNRs x 10 F, ap1_only at 10 F
        assert r["cells"] == 50 and set(r["cell_s_by_scheme"]) == {"kalman", "direct", "ap1_only"}
        assert r["cell_s"] == pytest.approx(sum(r["cell_s_by_scheme"].values()))
        assert 0 < r["cell_s"] < r["wall_s"]
        # stderr^2 x cell time per scheme, and each cell's time to the target
        # stderr, which sum to it: 0 for ap1_only, whose table is exact
        units, target_s = r["stderr_sq_cell_s_by_scheme"], r["target_s_by_cell"]
        assert set(units) == set(r["cell_s_by_scheme"]) and len(target_s) == 50
        for scheme, unit in units.items():
            cells = [s for key, s in target_s.items() if key.startswith(scheme + "/")]
            assert sum(cells) * r["target_stderr"] ** 2 == pytest.approx(unit)
            assert (unit > 0) if scheme != "ap1_only" else (unit == 0.0)
