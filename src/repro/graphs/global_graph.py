"""Whole-input-graph representation and task-subgraph construction.

:class:`GlobalGraph` is the driver/broadcast-side view of the input
graph: set-based adjacency over global vertex ids. It implements the
preprocessing the paper applies before mining — (P2) k-core shrink,
the two-hop-size prune of Section 8, and the (P7) degenerate
cover-vertex vertex ordering — plus the per-vertex spawn of root tasks
(the k-core of the 2-hop ego network restricted to higher-ordered
vertices, Algorithms 4–7 collapsed into one set-based step since the
whole pruned graph is available via broadcast), and the induction of a
task's compact subgraph when the task runs.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..core.gamma import Gamma, make_gamma
from ..core.graph import LocalGraph

__all__ = ["GlobalGraph"]


class GlobalGraph:
    """Undirected simple graph over global ids 0..n-1, set adjacency."""

    def __init__(self, n: int, adj: list[set[int]]):
        self.n = n
        self.adj = adj

    # ---------------------------------------------------------- build
    @classmethod
    def from_edges(cls, edges) -> "GlobalGraph":
        """``edges``: iterable of (u, v) pairs or a pandas DataFrame with
        columns src/dst. Vertex ids must be 0..n-1 (n inferred)."""
        if isinstance(edges, pd.DataFrame):
            pairs = zip(edges["src"].astype(int), edges["dst"].astype(int))
        else:
            pairs = edges
        adj: dict[int, set[int]] = {}
        hi = -1
        for u, v in pairs:
            if u < 0 or v < 0:
                raise ValueError(f"negative vertex id in edge ({u}, {v})")
            if u == v:
                continue
            hi = max(hi, u, v)
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        n = hi + 1
        return cls(n, [adj.get(v, set()) for v in range(n)])

    def to_edge_pdf(self) -> pd.DataFrame:
        """Canonical src < dst edge table (for Spark/DuckDB checks)."""
        src, dst = [], []
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    src.append(u)
                    dst.append(v)
        return pd.DataFrame({"src": np.array(src, dtype=np.int64),
                             "dst": np.array(dst, dtype=np.int64)})

    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    # ------------------------------------------------- preprocessing
    def kcore_vertices(self, k: int, within: set[int] | None = None) -> set[int]:
        """Peeling k-core of the whole graph (P2 preprocessing), or of the
        subgraph induced by ``within``."""
        if within is None:
            deg = {v: len(self.adj[v]) for v in range(self.n) if self.adj[v]}
        else:
            deg = {v: len(self.adj[v] & within) for v in within}
        stack = [v for v, d in deg.items() if d < k]
        alive = set(deg)
        while stack:
            v = stack.pop()
            if v not in alive or deg[v] >= k:
                continue
            alive.discard(v)
            for w in self.adj[v]:
                if w in alive:
                    deg[w] -= 1
                    if deg[w] < k:
                        stack.append(w)
        return alive

    def two_hop(self, v: int, within: set[int] | None = None) -> set[int]:
        """N_2^+(v): v plus everything within 2 hops (restricted)."""
        if within is not None and v not in within:
            return set()
        n1 = self.adj[v] if within is None else self.adj[v] & within
        out = set(n1)
        out.add(v)
        for u in n1:
            out |= self.adj[u] if within is None else self.adj[u] & within
        return out

    def pruned_vertices(self, gamma: Gamma | float, tau_size: int) -> set[int]:
        """Section 8 preprocessing: k-core with k = ceil(γ(τ_size-1)),
        then drop vertices whose two-hop neighbourhood is < τ_size."""
        gam = make_gamma(gamma)
        k = gam.ceil_mul(tau_size - 1)
        core = self.kcore_vertices(k)
        return {v for v in core if len(self.two_hop(v, core)) >= tau_size}

    def pruned_subgraph(self, gamma: Gamma | float, tau_size: int) -> "GlobalGraph":
        """The pruned graph of Table 3(b), re-using global ids (vertices
        outside the pruned set become isolated)."""
        keep = self.pruned_vertices(gamma, tau_size)
        adj = [
            (self.adj[v] & keep) if v in keep else set() for v in range(self.n)
        ]
        return GlobalGraph(self.n, adj)

    # ----------------------------------------------- vertex ordering
    def mining_order(self, alive: set[int], degenerate_cover: bool) -> tuple[dict[int, int], set[int]]:
        """Rank for the set-enumeration order (Section 7's ID recoding).

        With the degenerate (P7) rule: v_max (max degree in the pruned
        graph) gets rank 0, N(v_max) get the largest ranks (and are
        *not spawned from* — any quasi-clique inside N(v_max) extends
        with v_max, hence is non-maximal), everything else is ranked by
        ascending degree. Returns (rank, skip_spawn_set).
        """
        if not alive:
            return {}, set()
        if not degenerate_cover:
            rank = {v: i for i, v in enumerate(sorted(alive, key=lambda v: (len(self.adj[v] & alive), v)))}
            return rank, set()
        vmax = max(alive, key=lambda v: (len(self.adj[v] & alive), -v))
        nbrs = self.adj[vmax] & alive
        middle = sorted(
            alive - nbrs - {vmax}, key=lambda v: (len(self.adj[v] & alive), v)
        )
        tail = sorted(nbrs, key=lambda v: (len(self.adj[v] & alive), v))
        rank = {vmax: 0}
        for i, v in enumerate(middle, start=1):
            rank[v] = i
        for i, v in enumerate(tail, start=1 + len(middle)):
            rank[v] = i
        return rank, set(nbrs)

    # --------------------------------------------------- task spawn
    def spawn_task(
        self,
        v: int,
        rank: dict[int, int],
        alive: set[int],
        gamma: Gamma | float,
        tau_size: int,
    ) -> list[int] | None:
        """Root task ⟨S = {v}, ext⟩ for spawn vertex v (Algorithms 4–7):
        the 2-hop ego network over higher-ranked alive vertices, shrunk
        to its k-core. Returns ext in rank order, or None if the task is
        pruned."""
        gam = make_gamma(gamma)
        k = gam.ceil_mul(tau_size - 1)
        if v not in alive or len(self.adj[v] & alive) < k:
            return None
        rv = rank[v]
        scope = {u for u in self.two_hop(v, alive) if u == v or rank[u] > rv}
        if len(scope) < tau_size:
            return None
        core = self.kcore_vertices(k, within=scope)
        if v not in core or len(core) < max(tau_size, 2):
            return None  # v dropped out, too small, or ext empty
        core.remove(v)
        return sorted(core, key=rank.__getitem__)

    def induce_local(self, vertices) -> tuple[LocalGraph, list[int]]:
        """Compact LocalGraph induced by global-id ``vertices`` (a task's
        subgraph, pulled when the task runs, Alg 8 line 19), plus the
        compact → global id table: local vertex i is the i-th vertex
        iterated."""
        ids = list(vertices)
        within = set(ids)
        pos = {u: i for i, u in enumerate(ids)}
        g = LocalGraph(len(ids))
        for i, u in enumerate(ids):
            m = 0
            for w in self.adj[u] & within:
                m |= 1 << pos[w]
            g.adj[i] = m
        return g, ids
