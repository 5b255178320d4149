"""perfbench/tracer.py times otasync from outside by rebinding module-global
names; every name it rebinds must still be bound, or a traced run fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return set(tracer.SPANS) | set(tracer.COUNTS) | {("otasync.compensation", "_chunk_task")}


@pytest.mark.parametrize("module, attr", sorted(_traced_names()))
def test_traced_name_is_bound(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
