"""GlobalGraph: preprocessing, ordering, spawn tasks (graphs/global_graph.py)."""
import random

import pandas as pd
import pytest

from repro.core.bitset import bits, mask_of
from repro.core.gamma import make_gamma
from repro.core.graph import LocalGraph
from repro.graphs.generators import edges_pdf, er_graph, planted_community_graph
from repro.graphs.global_graph import GlobalGraph


@pytest.fixture()
def gg():
    return GlobalGraph.from_edges(
        edges_pdf(planted_community_graph(120, [(10, 0.95)], seed=2))
    )


class TestBuild:
    def test_from_edge_list_and_pdf_agree(self):
        pairs = [(0, 1), (1, 2), (2, 0), (2, 3)]
        g1 = GlobalGraph.from_edges(pairs)
        g2 = GlobalGraph.from_edges(pd.DataFrame(pairs, columns=["src", "dst"]))
        assert g1.adj == g2.adj

    def test_roundtrip_edge_pdf(self, gg):
        back = GlobalGraph.from_edges(gg.to_edge_pdf())
        assert back.adj == gg.adj

    def test_self_loops_dropped(self):
        g = GlobalGraph.from_edges([(1, 1), (0, 1)])
        assert g.adj[1] == {0}

    @pytest.mark.parametrize("edges", [
        [(-1, 0), (0, 1), (1, 2)],
        pd.DataFrame({"src": [0, 1], "dst": [1, -2]}),
    ])
    def test_negative_ids_rejected(self, edges):
        with pytest.raises(ValueError, match="negative"):
            GlobalGraph.from_edges(edges)


class TestKCore:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_kcore_degree_invariant(self, gg, k):
        core = gg.kcore_vertices(k)
        for v in core:
            assert len(gg.adj[v] & core) >= k

    def test_kcore_maximality(self, gg):
        # adding any removed vertex violates the invariant transitively:
        # check the standard fixpoint property instead — re-peeling the
        # core changes nothing.
        core = gg.kcore_vertices(3)
        sub = GlobalGraph(gg.n, [gg.adj[v] & core if v in core else set()
                                 for v in range(gg.n)])
        assert sub.kcore_vertices(3) == core

    def test_matches_local_graph_kcore(self, gg):
        lg = LocalGraph.from_edges(
            gg.n, [(u, v) for u in range(gg.n) for v in gg.adj[u] if u < v]
        )
        rng = random.Random(0)
        hubs = sorted(range(gg.n), key=lambda v: -len(gg.adj[v]))[:3]
        withins = [gg.two_hop(v) for v in hubs]
        withins += [{v for v in range(gg.n) if rng.random() < 0.5} for _ in range(3)]
        for k in (2, 3, 4):
            assert set(bits(lg.kcore_mask(k))) == gg.kcore_vertices(k)
            for within in withins:
                expect = set(bits(lg.kcore_mask(k, within=mask_of(within))))
                assert gg.kcore_vertices(k, within=within) == expect


class TestPrune:
    def test_pruned_vertices_subset_of_kcore(self, gg):
        gam = make_gamma(0.9)
        keep = gg.pruned_vertices(gam, 8)
        core = gg.kcore_vertices(gam.ceil_mul(7))
        assert keep <= core
        for v in keep:
            assert len(gg.two_hop(v, core)) >= 8

    def test_pruned_subgraph_isolates_dropped(self, gg):
        pruned = gg.pruned_subgraph(0.9, 8)
        keep = gg.pruned_vertices(0.9, 8)
        for v in range(gg.n):
            if v not in keep:
                assert pruned.adj[v] == set()
            else:
                assert pruned.adj[v] == gg.adj[v] & keep


class TestMiningOrder:
    def test_degenerate_order_puts_vmax_first(self, gg):
        alive = {v for v in range(gg.n) if gg.adj[v]}
        rank, skip = gg.mining_order(alive, degenerate_cover=True)
        vmax = max(alive, key=lambda v: (len(gg.adj[v] & alive), -v))
        assert rank[vmax] == 0
        assert skip == gg.adj[vmax] & alive
        # neighbours of vmax occupy the largest ranks
        tail = sorted(rank[v] for v in skip)
        assert tail == list(range(len(alive) - len(skip), len(alive)))

    def test_plain_order_is_permutation(self, gg):
        alive = {v for v in range(gg.n) if gg.adj[v]}
        rank, skip = gg.mining_order(alive, degenerate_cover=False)
        assert skip == set()
        assert sorted(rank.values()) == list(range(len(alive)))

    def test_empty_alive(self, gg):
        assert gg.mining_order(set(), True) == ({}, set())


def _spawn_ext_reference(gg, v, rank, alive, gam, tau):
    """The root task as a compact LocalGraph: the k-core mask of the
    rank-ordered scope, minus the root, back in global ids."""
    k = gam.ceil_mul(tau - 1)
    if v not in alive or len(gg.adj[v] & alive) < k:
        return None
    scope = {u for u in gg.two_hop(v, alive) if u == v or rank[u] > rank[v]}
    if len(scope) < tau:
        return None
    g, ids = gg.induce_local(sorted(scope, key=rank.__getitem__))
    core = g.kcore_mask(k)  # the root is local vertex 0
    if not core & 1 or core == 1 or core.bit_count() < tau:
        return None
    return [ids[i] for i in bits(core & ~1)]


class TestSpawnTask:
    def test_spawn_scope_is_two_hop_higher_rank(self, gg):
        gam = make_gamma(0.8)
        tau = 6
        k = gam.ceil_mul(tau - 1)
        pruned = gg.pruned_subgraph(gam, tau)
        alive = {v for v in range(pruned.n) if pruned.adj[v]}
        rank, _ = pruned.mining_order(alive, True)
        spawned = 0
        for v in sorted(alive)[:30]:
            ext = pruned.spawn_task(v, rank, alive, gam, tau)
            if ext is None:
                continue
            spawned += 1
            two_hop = pruned.two_hop(v, alive)
            assert v not in ext and len(ext) + 1 >= tau
            assert [rank[u] for u in ext] == sorted(rank[u] for u in ext)
            for u in ext:
                assert rank[u] > rank[v]
                assert u in two_hop
            task = {v, *ext}  # k-core invariant inside the task subgraph
            for u in task:
                assert len(pruned.adj[u] & task) >= k
        assert spawned > 0

    @pytest.mark.parametrize("edges", [
        planted_community_graph(150, [(12, 0.9), (9, 0.95)], seed=3),
        planted_community_graph(100, [(10, 0.85)], seed=8),
        er_graph(40, 0.35, seed=5),
        er_graph(60, 0.2, seed=9),
    ], ids=["planted3", "planted8", "er5", "er9"])
    @pytest.mark.parametrize("gamma,tau", [(0.5, 3), (0.6, 5), (0.8, 6), (0.9, 8)])
    def test_ext_matches_local_kcore_construction(self, edges, gamma, tau):
        gg = GlobalGraph.from_edges(edges_pdf(edges))
        gam = make_gamma(gamma)
        pruned = gg.pruned_subgraph(gam, tau)
        alive = {v for v in range(pruned.n) if pruned.adj[v]}
        for cover in (True, False):
            rank, _ = pruned.mining_order(alive, cover)
            spawned = 0
            for v in alive:
                ext = pruned.spawn_task(v, rank, alive, gam, tau)
                assert ext == _spawn_ext_reference(pruned, v, rank, alive, gam, tau)
                spawned += ext is not None
            assert spawned > 0

    def test_induce_local_roundtrip(self, gg):
        verts = [5, *sorted(gg.adj[5])[:3][::-1]]  # local ids keep this order
        g, ids = gg.induce_local(verts)
        assert ids == verts
        for i, u in enumerate(ids):
            for j, w in enumerate(ids):
                assert g.has_edge(i, j) == (w in gg.adj[u])
