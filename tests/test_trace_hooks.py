"""The entry points ``perfbench/run.py --trace 1`` wraps stay reachable.

The benchmark times the engine from outside by replacing module and
class attributes. A refactor that renames one of them, or binds
``run_task`` locally so the round loop no longer looks it up on the
module, would make the traced layers read 0 without any error.
"""
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.graphs.generators import edges_pdf, planted_community_graph
from repro.graphs.global_graph import GlobalGraph
from repro.gthinker import engine

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _install_spans():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod.install_spans


class _Wraps:
    """Recorder stand-in: lists what ``install_spans`` would wrap."""

    def __init__(self):
        self.targets = []

    def wrap(self, owner, attr, name, count=None):
        self.targets.append((owner, attr))


@pytest.mark.parametrize("on_spark", [False, True], ids=["serial", "spark"])
def test_wrapped_attributes_exist(request, on_spark):
    spark = request.getfixturevalue("spark") if on_spark else None
    rec = _Wraps()
    _install_spans()(rec, SimpleNamespace(engine=engine, spark=spark))
    assert rec.targets
    for owner, attr in rec.targets:
        assert callable(getattr(owner, attr, None)), f"{owner!r}.{attr} is gone"
    assert ((engine, "run_task") in rec.targets) == (not on_spark)


def test_run_serial_calls_through_wrappable_names(monkeypatch):
    calls = {"run_task": 0, "spawn_task": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(engine, "run_task", counting("run_task", engine.run_task))
    monkeypatch.setattr(GlobalGraph, "spawn_task",
                        counting("spawn_task", GlobalGraph.spawn_task))
    gg = GlobalGraph.from_edges(
        edges_pdf(planted_community_graph(250, [(12, 0.95), (10, 0.95)], seed=6))
    )
    job = engine.run_serial(gg, 0.85, 8, strategy="split", tau_split=1)
    assert job.n_subtasks > 0
    assert calls["run_task"] == len(job.tasks) == job.n_root_tasks + job.n_subtasks
    assert calls["spawn_task"] >= job.n_root_tasks > 0
