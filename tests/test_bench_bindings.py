"""perfbench/tracer.py times otasync from outside by rebinding module-global
names; every name it rebinds must still be bound, or a traced run fails."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return set(tracer.SPANS) | set(tracer.COUNTS) | {("otasync.compensation", "_chunk_task")}


@pytest.mark.parametrize("module, attr", sorted(_traced_names()))
def test_traced_name_is_bound(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_a_traced_sweep_runs_through_the_benchmark_entry_point(tmp_path):
    # the tracer also reads monte_carlo_delta's arguments: run a 2-chunk
    # kalman sweep, whose file still sets n_workers, as the benchmark does
    cfg, sweep, result = tmp_path / "sys.cfg", tmp_path / "sweep.cfg", tmp_path / "result.json"
    cfg.write_text("n_antennas = 8\n")
    sweep.write_text("f_values = 1\nschemes = kalman\nn_realizations = 1100\n"
                     "master_seed = 3\nn_workers = 2\n")
    (tmp_path / "spool").mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "sweep_proc.py"), str(result),
         str(tmp_path / "spool"), "--", "--config", str(cfg), "--sweep", str(sweep),
         "--out", str(tmp_path / "out.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(result.read_text())
    assert doc["rc"] == 0
    assert doc["layers"]["compensation.chunks"] == 2
    assert 0 < doc["layers"]["compensation.worker_busy_frac"] <= 1
