"""scripts/bench_chunk.py calls engine internals; run it small so that a
change to their contract cannot break it silently."""

import importlib.util
import json
from pathlib import Path

import pytest

from otasync.compensation import SCHEMES, _cell_geometry

BENCH_CHUNK = Path(__file__).resolve().parent.parent / "scripts" / "bench_chunk.py"


@pytest.fixture
def bench_chunk(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_chunk", BENCH_CHUNK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPEATS", 2)
    monkeypatch.setattr(module, "FRAME_LENGTHS", (1,))
    return module


def test_bench_chunk_measure(bench_chunk, tiny_params):
    # ap1_only without UE-pilot noise: the chunk's E[Delta] is the weight
    geom = _cell_geometry(tiny_params, "ap1_only")
    row = bench_chunk._measure(geom)
    assert len(row["s_all"]) == 2 and row["peak_mib"] > 0
    assert row["mean_abs_delta"] == pytest.approx(geom.weight.mean(), rel=1e-12)


def test_bench_chunk_report(bench_chunk, tmp_path):
    out = tmp_path / "bench.json"
    bench_chunk.main(["--out", str(out)])
    rows = json.loads(out.read_text())["rows"]
    assert [r["scheme"] for r in rows] == list(SCHEMES)
    assert all(0 < r["mean_abs_delta"] <= 1 and r["segments"] > 0 for r in rows)
