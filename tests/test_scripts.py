"""scripts/bench_chunk.py, bench_opnorm.py and bench_rate.py call engine internals
and test oracles; run them small so that a change to their contract cannot
break them silently."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from otasync.compensation import _cell_geometry
from otasync.config import default_params

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_chunk(monkeypatch):
    module = _load("bench_chunk")
    monkeypatch.setattr(module, "REPEATS", 2)
    monkeypatch.setattr(module, "FRAME_LENGTHS", (1,))
    return module


def test_bench_chunk_measure(bench_chunk):
    # a kalman chunk: AP 2's E[Delta] per payload position
    geom = _cell_geometry(default_params(n_antennas=8), "kalman")
    row = bench_chunk._measure(geom)
    assert len(row["s_all"]) == 2 and row["peak_mib"] > 0
    assert 0 < row["mean_abs_delta"] <= 1


def test_bench_chunk_report(bench_chunk, monkeypatch, tmp_path):
    monkeypatch.setattr(bench_chunk, "FRAME_LENGTHS", (1, 10))
    out = tmp_path / "bench.json"
    bench_chunk.main(["--out", str(out)])
    rows = json.loads(out.read_text())["rows"]
    # grid_columns counts the measured frame's instants: AP 1's demod pilot
    # and the representative UE's pilot in each slot, plus i1 and i2
    assert [(r["scheme"], r["F"], r["grid_columns"]) for r in rows] == \
        [("kalman", 1, 4), ("kalman", 10, 22), ("direct", 1, 4), ("direct", 10, 22)]
    assert all(0 < r["mean_abs_delta"] <= 1 and r["segments"] > 0 for r in rows)


def test_bench_opnorm_report(monkeypatch, tmp_path):
    module = _load("bench_opnorm")
    monkeypatch.setattr(module, "SIZES", (8,))
    monkeypatch.setattr(module, "N_RUNS", 16)
    monkeypatch.setattr(module, "REPEATS", 1)
    out = tmp_path / "bench.json"
    module.main(["--out", str(out)])
    (row,) = json.loads(out.read_text())["rows"]
    assert row["N"] == 8 and row["runs"] == 16 and row["speedup"] > 0
    # both paths draw ||G|| of an 8x8 G: a little below sqrt(beta_g) 2 sqrt(8)
    scale = math.sqrt(default_params().beta_g) * 2 * math.sqrt(8)
    for path in ("bidiagonal", "dense"):
        assert len(row[path]["s_all"]) == 1 and row[path]["peak_mib"] > 0
        assert 0.6 < row[path]["mean_op_norm"] / scale < 1.1


def test_bench_rate_report(monkeypatch, tmp_path):
    module = _load("bench_rate")
    monkeypatch.setattr(module, "REPEATS", 2)
    monkeypatch.setattr(module, "FRAME_LENGTHS", (1,))
    monkeypatch.setattr(module, "N_REALIZATIONS", 20)
    out = tmp_path / "bench.json"
    module.main(["--out", str(out)])
    rows = json.loads(out.read_text())["rows"]
    assert [(r["params"], r["scheme"]) for r in rows] == \
        [("default", "kalman"), ("default", "ap1_only"),
         ("hetero", "kalman"), ("hetero", "ap1_only")]
    for r in rows:
        assert r["tables"] == 11 and r["payload_columns"] in (41, 43)
        assert len(r["s_all"]) == 2 and r["peak_mib"] > 0 and 0 < r["se_mean"] < 10
