"""Serial engine driver invariants (repro/gthinker/engine.py)."""
import pytest

from repro.core.kernel import kernel_expansion
from repro.core.gamma import make_gamma
from repro.core.quickplus import QUICK_ORIGINAL
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import edges_pdf, planted_community_graph
from repro.graphs.global_graph import GlobalGraph
from repro.gthinker.engine import run_serial, spawn_all


@pytest.fixture(scope="module")
def comm_gg():
    return GlobalGraph.from_edges(
        edges_pdf(planted_community_graph(250, [(12, 0.95), (10, 0.95)], seed=6))
    )


class TestSpawnAll:
    def test_degenerate_cover_skips_vmax_neighbors(self, comm_gg):
        pruned, roots_plus = spawn_all(comm_gg, 0.85, 8)
        _, roots_all = spawn_all(comm_gg, 0.85, 8, QUICK_ORIGINAL)
        assert len(roots_plus) <= len(roots_all)

    def test_roots_meet_size_threshold(self, comm_gg):
        """Every root task has ≥ τ_size vertices and is a k-core."""
        pruned, roots = spawn_all(comm_gg, 0.85, 8)
        k = make_gamma(0.85).ceil_mul(8 - 1)
        assert roots
        for v, ext in roots:
            assert len(ext) + 1 >= 8
            task = {v, *ext}
            for u in task:
                assert len(pruned.adj[u] & task) >= k

    def test_spawn_masks_disjoint(self, comm_gg):
        """S = [root] and ext are disjoint, and ext lists each vertex once."""
        _, roots = spawn_all(comm_gg, 0.85, 8)
        for v, ext in roots:
            assert v not in ext
            assert len(set(ext)) == len(ext)


class TestStrategiesAgree:
    @pytest.mark.parametrize("strategy,kw", [
        ("split", dict(tau_split=4)),
        ("split", dict(tau_split=1)),
        ("time", dict(tau_time=0.0)),
        ("time", dict(tau_time=0.001)),
    ])
    def test_same_maximal_as_base(self, comm_gg, strategy, kw):
        base = run_serial(comm_gg, 0.85, 8, strategy="base")
        other = run_serial(comm_gg, 0.85, 8, strategy=strategy, **kw)
        assert other.maximal == base.maximal

    def test_subtask_counters(self, comm_gg):
        """One record per executed task, root or subtask; the engine's
        and the miner's subtask counts agree. (On this graph both
        configurations give 4 roots, 8 subtasks and 3 rounds.)"""
        for kw in (dict(strategy="split", tau_split=1),
                   dict(strategy="time", tau_time=0.0)):
            job = run_serial(comm_gg, 0.85, 8, **kw)
            assert len(job.tasks) == job.n_root_tasks + job.n_subtasks
            assert job.stats.n_subtasks == job.n_subtasks > 0
            assert job.n_rounds > 1
            assert job.mine_time > 0
            assert job.job_time >= job.mine_time + job.materialize_time

    def test_task_features_collected(self, comm_gg):
        """A_base's per-task records: one per root task, summing to the
        job's counters."""
        job = run_serial(comm_gg, 0.85, 8, strategy="base")
        _, roots = spawn_all(comm_gg, 0.85, 8)
        tf = job.tasks
        assert sorted(tf["root"]) == sorted(v for v, _ in roots)
        assert (tf["mine_s"] >= 0).all() and (tf["mat_s"] >= 0).all()
        assert tf["mine_s"].sum() == pytest.approx(job.mine_time)
        assert tf["n_emitted"].sum() == job.stats.n_emitted == job.n_results
        assert tf["n_recursive_calls"].sum() == job.stats.n_recursive_calls

    def test_unknown_strategy_rejected(self):
        """Checked before spawn: a graph with no root tasks still raises."""
        path = GlobalGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="bogus"):
            run_serial(path, 0.9, 5, strategy="bogus")


class TestDatasetSmoke:
    @pytest.mark.parametrize("name", ["CX_GSE1730", "CX_GSE10158", "kmer"])
    def test_default_params_find_results(self, name):
        gg, spec = load_dataset(name)
        job = run_serial(gg, spec.gamma, spec.tau_size, strategy="base")
        assert job.n_results > 0
        assert job.n_maximal > 0
        assert job.n_maximal <= job.n_results

    def test_road_split_decomposes_more(self):
        gg, spec = load_dataset("USA Road")
        base = run_serial(gg, spec.gamma, spec.tau_size, strategy="base")
        split = run_serial(gg, spec.gamma, spec.tau_size, strategy="split",
                           tau_split=spec.tau_split)
        assert split.maximal == base.maximal


class TestGammaRange:
    """(P1)'s two-hop restriction needs γ ≥ 0.5: on a 6-cycle at γ = 0.3
    the whole cycle is the one maximal quasi-clique, which a two-hop
    search cannot reach, so the job must refuse to run."""

    @pytest.mark.parametrize("gamma", [0, 0.3, 0.49])
    def test_gamma_below_half_rejected(self, gamma):
        cycle = GlobalGraph.from_edges([(i, (i + 1) % 6) for i in range(6)])
        with pytest.raises(ValueError, match="gamma"):
            run_serial(cycle, gamma, 3)
        with pytest.raises(ValueError, match="gamma"):
            kernel_expansion(cycle, gamma_prime=1.0, k_prime=1, gamma=gamma,
                             k=1, tau_size=3)
