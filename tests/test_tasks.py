"""Task-level execution semantics (repro.gthinker.engine.run_task)."""
import pytest

from repro.core.gamma import make_gamma
from repro.core.quickplus import QUICK_PLUS
from repro.graphs.global_graph import GlobalGraph
from repro.gthinker.engine import run_task

BASE = 100  # global ids 100.. differ from the task's local indices 0..


def _graph(edges) -> GlobalGraph:
    return GlobalGraph.from_edges([(BASE + u, BASE + v) for u, v in edges])


def _run(graph, s, ext, **kw):
    args = dict(gamma=make_gamma(0.9), tau_size=3, strategy="base",
                tau_split=50, tau_time=1.0, cfg=QUICK_PLUS)
    return run_task(graph, s, ext, **{**args, **kw})


def _results(rec):
    return set(map(frozenset, rec["results"]))


@pytest.fixture()
def clique6():
    """K6 on ids 100..105 as task ⟨[100], [101..105]⟩."""
    n = 6
    g = _graph([(a, b) for a in range(n) for b in range(a + 1, n)])
    return g, [BASE], list(range(BASE + 1, BASE + n))


class TestRunTask:
    def test_base_finds_clique_in_global_ids(self, clique6):
        g, s, ext = clique6
        rec = _run(g, s, ext, strategy="base")
        assert frozenset(range(100, 106)) in _results(rec)
        assert rec["sub_s"] == [] and rec["sub_ext"] == []
        assert rec["root"] == 100
        assert rec["mine_s"] > 0 and rec["mat_s"] > 0

    def test_split_generates_subtasks_when_ext_large(self):
        # hub 0 + two triangles {1,2,3}, {4,5,6}: S∪ext is NOT a quasi-
        # clique, so the Alg 8 lookahead cannot short-circuit the split.
        edges = [(0, i) for i in range(1, 7)] + [
            (1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)
        ]
        g = _graph(edges)
        rec = _run(g, [100], list(range(101, 107)), strategy="split", tau_split=2)
        assert rec["sub_s"], "|ext|=6 > tau_split=2 must decompose"
        assert rec["n_subtasks"] == len(rec["sub_s"]) == len(rec["sub_ext"])
        for s, e in zip(rec["sub_s"], rec["sub_ext"]):
            assert s[0] == 100  # the spawn vertex stays first
            assert set(s) <= set(range(100, 107))
            assert set(e) <= set(range(100, 107))
            assert not (set(s) & set(e))
            assert e == sorted(e)

    def test_split_mines_serially_when_ext_small(self, clique6):
        g, s, ext = clique6
        rec = _run(g, s, ext, strategy="split", tau_split=50)
        assert rec["sub_s"] == []
        assert frozenset(range(100, 106)) in _results(rec)

    def test_time_zero_budget_decomposes(self, clique6):
        g, s, ext = clique6
        rec = _run(g, s, ext, strategy="time", tau_time=0.0)
        # lookahead emits the full clique immediately even under timeout
        assert frozenset(range(100, 106)) in _results(rec)

    def test_large_budget_no_subtasks(self, clique6):
        g, s, ext = clique6
        rec = _run(g, s, ext, strategy="time", tau_time=10.0)
        assert rec["sub_s"] == []

    def test_unknown_strategy_raises(self, clique6):
        g, s, ext = clique6
        with pytest.raises(ValueError, match="bogus"):
            _run(g, s, ext, strategy="bogus")

    def test_stats_populated(self, clique6):
        g, s, ext = clique6
        rec = _run(g, s, ext, strategy="base")
        assert rec["n_recursive_calls"] >= 1
        assert rec["n_emitted"] == len(rec["results"])
