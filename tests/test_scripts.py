"""scripts/bench_engine.py calls engine internals and the CLI;
run each of its sections small so that a change to their contract cannot
break them silently."""

import importlib.util
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from otasync.compensation import CHUNK_SIZE, _cell_geometry, _simulate_chunk, draw_op_norms
from otasync.config import default_params

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_engine.py"

# sizes small enough for a smoke run of every section
SMALL = dict(OPNORM_CASES=((8, 16),), OPNORM_REPEATS=1, CHUNK_REPEATS=2, RATE_REPEATS=2,
             RATE_RUNS=20, PRESET_RUNS=20, PRESET_REPEATS=1)


@pytest.fixture
def bench(monkeypatch):
    # loading the script pins BLAS and PYTHONPATH in os.environ for the
    # preset processes; the rest of the session gets its own back
    environ = dict(os.environ)
    spec = importlib.util.spec_from_file_location("bench_engine", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        for name, value in SMALL.items():
            monkeypatch.setattr(module, name, value)
        yield module
    finally:
        os.environ.clear()
        os.environ.update(environ)


def test_bench_chunk_measure(bench):
    # measure times a kalman chunk twice and returns its (S, runs) Delta at the anchors
    geom = _cell_geometry(default_params(n_antennas=8), "kalman")
    norms = draw_op_norms(geom.params, 1, 2 * CHUNK_SIZE)
    timing, delta = bench.measure(2, _simulate_chunk, lambda r: (
        geom, r, CHUNK_SIZE, 1, norms[r * CHUNK_SIZE:(r + 1) * CHUNK_SIZE]))
    assert len(timing["s_all"]) == 2 and timing["peak_mib"] > 0
    assert timing["s"] == pytest.approx(np.median(timing["s_all"]))
    mean_delta = delta.mean(axis=1)[geom.segment] * geom.weight
    assert delta.shape == (len(geom.segments), CHUNK_SIZE)
    assert 0 < np.abs(mean_delta).mean() <= 1


def test_bench_chunk_report(bench):
    rows = list(bench.chunk())
    # grid_columns counts the measured frame's instants: AP 1's demod pilot
    # and the representative UE's pilot in each slot, plus i1 and i2
    assert [(r["scheme"], r["F"], r["grid_columns"]) for r in rows] == \
        [("kalman", 1, 4), ("kalman", 10, 22), ("direct", 1, 4), ("direct", 10, 22)]
    for r in rows:
        assert r["runs"] == CHUNK_SIZE and r["segments"] > 0 and 0 < r["mean_abs_delta"] <= 1
        assert len(r["s_all"]) == 2 and r["peak_mib"] > 0


def test_bench_opnorm_report(bench):
    (row,) = bench.opnorm()
    assert row["N"] == 8 and row["runs"] == 16
    # ||G|| of an 8x8 G: a little below sqrt(beta_g) 2 sqrt(8)
    scale = math.sqrt(default_params().beta_g) * 2 * math.sqrt(8)
    for timing in (row["bidiagonal"], row["solve"]):
        assert len(timing["s_all"]) == 1 and timing["peak_mib"] > 0
    assert 0.6 < row["bidiagonal"]["mean_op_norm"] / scale < 1.1
    # the solve alone is timed on the chi squares batched_op_norms draws
    assert row["solve"]["mean_op_norm"] == row["bidiagonal"]["mean_op_norm"]


def test_bench_rate_report(bench, monkeypatch):
    monkeypatch.setattr(bench, "FRAME_LENGTHS", (1,))
    rows = list(bench.rate())
    assert [(r["params"], r["scheme"]) for r in rows] == \
        [("default", "kalman"), ("default", "ap1_only"),
         ("hetero", "kalman"), ("hetero", "ap1_only")]
    for r in rows:
        assert r["tables"] == 11 and r["payload_columns"] in (41, 43)
        assert len(r["s_all"]) == 2 and r["peak_mib"] > 0 and 0 < r["se_mean"] < 10


def test_bench_presets_report(bench):
    rows = list(bench.presets())
    assert [(r["preset"], r["repeat"], r["runs"]) for r in rows] == \
        [("fig2", 0, 20), ("fig3", 0, 20)]
    for r in rows:
        # 50 cells: kalman and direct at 2 SNRs x 10 F, ap1_only at 10 F
        assert r["cells"] == 50 and set(r["cell_s_by_scheme"]) == {"kalman", "direct", "ap1_only"}
        assert r["cell_s"] == pytest.approx(sum(r["cell_s_by_scheme"].values()))
        assert 0 < r["cell_s"] < r["wall_s"]


def test_bench_engine_report(bench, monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "PRESETS", ("--fig2",))
    out = tmp_path / "bench.json"
    bench.main(["--out", str(out)])
    report = json.loads(out.read_text())
    assert list(report) == ["host", "commit", "src_sha256", "opnorm", "chunk", "rate", "presets"]
    assert report["commit"] is None or len(report["commit"]) == 40
    assert len(report["src_sha256"]) == 16 and report["host"]["blas_threads"] == \
        dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    assert [len(report[name]) for name in ("opnorm", "chunk", "rate", "presets")] == [1, 4, 8, 1]
