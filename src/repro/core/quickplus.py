"""Quick+ — the paper's recursive maximal quasi-clique miner (Section 6).

One :class:`Miner` instance mines one *task subgraph* (a compact-id
:class:`LocalGraph`). It implements:

* ``iterative_bounding`` — Algorithm 2: the fixed-point loop over the
  (P3)–(P6) rules, including the critical-vertex movement and the
  boundary cases Quick+ fixes.
* ``mine`` — Algorithm 3: cover-vertex ordering (P7), lookahead,
  diameter shrink (P1), recursion. Two hooks turn surviving branches
  into subtasks (``Miner.subtasks``) instead of recursing: ``split``
  for one level of eager decomposition (Algorithm 8 lines 3–23) and
  ``deadline`` for the timeout decomposition once ``clock()`` passes it
  (Algorithm 10, Figure 9).

The original Quick algorithm (for Table 15) is emulated by
``MineConfig(quick_plus=False)``, which disables exactly the Quick+
additions the paper lists: multi-critical-vertex batching, the G(S)
checks on the boundary/empty-ext paths, the boundary handling in
U_S/L_S, the degenerate top-level cover rule and the lookahead-friendly
ext order.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .bitset import bits
from .bounds import (
    best_cover_vertex, critical_vertices, degrees, lower_bound, upper_bound,
)
from .gamma import Gamma, make_gamma
from .graph import LocalGraph

__all__ = ["MineConfig", "MineStats", "Miner", "QUICK_PLUS", "QUICK_ORIGINAL"]


@dataclass(frozen=True)
class MineConfig:
    """``quick_plus`` = Quick+; off, the original Quick (Section 6.2
    summary and Table 15 discussion): one critical vertex moved per
    bounding round, no G(S) check before a critical move, on an empty
    ext or when U_S has no valid t, no degenerate (P7) top-level rule,
    and ext in id order instead of ascending d_S."""

    quick_plus: bool = True


QUICK_PLUS = MineConfig()
QUICK_ORIGINAL = MineConfig(quick_plus=False)


@dataclass
class MineStats:
    """Counters + per-phase timers (Table 16) for one mining run.

    What each timer covers:

    * ``t_bounds`` — Algorithm 2's degree snapshots (a fresh
      :func:`~repro.core.bounds.degrees` when S changes, the in-place
      :meth:`~repro.core.bounds.Degrees.drop_ext` after a Type I
      removal) and U_S / L_S computed from them.
    * ``t_critical`` — finding the critical vertices (P6) in the
      snapshot and collecting the ext neighbours they force into S.
    * ``t_cover`` — choosing the (P7) cover vertex and its C_S(u).
    * ``t_lookahead`` — the G(S ∪ ext) quasi-clique test of Algorithm 3.

    The Type I/II rule loops, ext ordering, the (P1) two-hop shrink,
    the G(S) checks and the recursion itself are untimed: they are the
    rest of the task's mining time.
    """

    n_emitted: int = 0
    n_recursive_calls: int = 0
    n_subtasks: int = 0
    n_lookahead_hits: int = 0
    n_type1_pruned: int = 0
    n_type2_pruned: int = 0
    n_critical_moves: int = 0
    n_cover_pruned: int = 0  # ext vertices parked in C_S(u) tails
    t_lookahead: float = 0.0
    t_cover: float = 0.0
    t_critical: float = 0.0
    t_bounds: float = 0.0

    def merge(self, other: "MineStats") -> None:
        for f in (
            "n_emitted", "n_recursive_calls", "n_subtasks", "n_lookahead_hits",
            "n_type1_pruned", "n_type2_pruned", "n_critical_moves",
            "n_cover_pruned", "t_lookahead", "t_cover", "t_critical", "t_bounds",
        ):
            setattr(self, f, getattr(self, f) + getattr(other, f))


@dataclass
class Miner:
    """Mines one task subgraph. ``results`` collects vertex-index
    frozensets (compact ids — callers map back to global ids);
    ``subtasks`` collects (S_mask, ext_mask) pairs produced by the
    split/timeout decompositions."""

    g: LocalGraph
    gamma: Gamma
    tau_size: int
    cfg: MineConfig = QUICK_PLUS
    clock: object = time.perf_counter
    results: set = field(default_factory=set)
    subtasks: list = field(default_factory=list)
    stats: MineStats = field(default_factory=MineStats)

    def __post_init__(self):
        self.gamma = make_gamma(self.gamma)
        self._two_hop_cache: dict[int, int] = {}

    # ------------------------------------------------------------ util
    def _two_hop(self, v: int) -> int:
        m = self._two_hop_cache.get(v)
        if m is None:
            m = self.g.two_hop_mask(v)
            self._two_hop_cache[v] = m
        return m

    def _is_qc(self, mask: int) -> bool:
        """Degree test of Definition 1. Connectivity is implied for
        γ ≥ 0.5 (diameter ≤ 2); for γ < 0.5 we check it explicitly."""
        s = mask.bit_count()
        if s == 0:
            return False
        need = self.gamma.ceil_mul(s - 1)
        adj = self.g.adj
        rest = mask
        while rest:  # exits at the first short vertex, without listing them all
            low = rest & -rest
            if (adj[low.bit_length() - 1] & mask).bit_count() < need:
                return False
            rest ^= low
        if 2 * self.gamma.num < self.gamma.den and not self.g.connected(mask):
            return False
        return True

    def _emit_if_valid(self, mask: int) -> bool:
        if mask.bit_count() >= self.tau_size and self._is_qc(mask):
            key = frozenset(bits(mask))
            if key not in self.results:
                self.results.add(key)
                self.stats.n_emitted += 1
            return True
        return False

    def _ext_order(self, S: int, ext: int) -> list[int]:
        """Section 6.2 closing remark: ascending d_S, tie-broken by
        d_ext — so high-degree vertices stay in ext longer, maximizing
        lookahead hits."""
        vs = list(bits(ext))
        if self.cfg.quick_plus:
            vs.sort(
                key=lambda u: (
                    (self.g.adj[u] & S).bit_count(),
                    (self.g.adj[u] & ext).bit_count(),
                    u,
                )
            )
        return vs

    # ------------------------------------------------- Algorithm 2
    def iterative_bounding(self, S: int, ext: int) -> tuple[bool, int, int]:
        """Returns (pruned, S', ext'): ``pruned`` is true iff extending
        S is pruned (Algorithm 2's return value); S may have grown by
        critical-vertex moves and ext may have shrunk. Guarantees
        ext' != 0 when ``pruned`` is false. Emits G(S) on the boundary
        paths exactly as Quick+ specifies."""
        gam, g, stats = self.gamma, self.g, self.stats
        deg = None
        while True:
            # --- bounds (P4, P5); Type II may fire here (boundary fix)
            t0 = self.clock()
            if deg is None:
                deg = degrees(g, S, ext)
            u_s = upper_bound(deg, gam)
            l_s = lower_bound(deg, gam)
            stats.t_bounds += self.clock() - t0
            if l_s is None:
                stats.n_type2_pruned += 1
                return True, S, ext  # S and extensions pruned, no emit
            if u_s is None:
                stats.n_type2_pruned += 1
                if self.cfg.quick_plus:
                    self._emit_if_valid(S)  # extensions pruned, S examined
                return True, S, ext
            if u_s < l_s:
                stats.n_type2_pruned += 1
                return True, S, ext  # L_S ≥ 1 here, so S itself invalid

            # --- critical vertices (P6), batched in Quick+
            s = len(deg.s_list)
            need_l = gam.ceil_mul(s + l_s - 1)  # Def 4, Thm 7 and Thm 8
            t0 = self.clock()
            moved = 0
            for v in critical_vertices(deg, need_l):
                m = g.adj[v] & ext
                moved |= m
                if m and not self.cfg.quick_plus:
                    break  # Quick moves one critical vertex per round
            stats.t_critical += self.clock() - t0
            if moved:
                if self.cfg.quick_plus:
                    # Quick+ fix: G(S) may be maximal if the forced
                    # expansion leads nowhere — examine it first.
                    self._emit_if_valid(S)
                S |= moved
                ext &= ~moved
                stats.n_critical_moves += 1
                if ext == 0:
                    break  # fall through to the empty-ext epilogue
                deg = None  # S changed: re-snapshot and restart the round
                continue

            # --- Type II rules (Theorems 4, 6, 8)
            need_u = gam.ceil_mul(s + u_s - 1)  # Thm 5 and Thm 6
            ext_only_pruned = False
            for d_ss, d_es in zip(deg.d_ss, deg.d_es):
                if (
                    d_ss + d_es < gam.ceil_mul(s - 1 + d_es)  # Thm 4(ii)
                    or d_ss + u_s < need_u  # Thm 6
                    or d_ss + d_es < need_l  # Thm 8
                ):
                    stats.n_type2_pruned += 1
                    return True, S, ext
                if d_es == 0 and d_ss < gam.ceil_mul(s):  # Thm 4(i)
                    ext_only_pruned = True
            if ext_only_pruned:
                self._emit_if_valid(S)  # Alg 2 lines 13–16
                return True, S, ext

            # --- Type I rules (Theorems 3, 5, 7); EE-degrees only here
            removed = 0
            for u, d_se in zip(deg.ext_list, deg.d_se):
                d_ee = (g.adj[u] & ext).bit_count()
                if (
                    d_se + d_ee < gam.ceil_mul(s + d_ee)  # Thm 3
                    or d_se + u_s - 1 < need_u  # Thm 5
                    or d_se + d_ee < need_l  # Thm 7
                ):
                    removed |= 1 << u
            if not removed:
                return False, S, ext  # case C2: stable, extendable
            ext &= ~removed
            stats.n_type1_pruned += removed.bit_count()
            if ext == 0:
                break
            t0 = self.clock()
            deg.drop_ext(g, removed)  # S unchanged: update, not re-snapshot
            stats.t_bounds += self.clock() - t0

        # case C1: ext exhausted — examine G(S) itself (Alg 2 lines 22–25)
        self._emit_if_valid(S)
        return True, S, ext

    # ------------------------------------------- Algorithms 3, 8, 10
    def mine(self, S: int, ext: int, *, deadline: float | None = None,
             split: bool = False) -> bool:
        """Depth-first set-enumeration mining of ⟨S, ext⟩; returns True
        iff some valid quasi-clique strictly extending S was emitted.
        With ``split`` (A_split's big-task path), every child of this
        call becomes a subtask; with a ``deadline`` (A_time), every
        branch that survives bounding after ``clock() > deadline``
        does."""
        gam, g, stats = self.gamma, self.g, self.stats
        stats.n_recursive_calls += 1
        found = False

        # (P7) cover-vertex pruning: park C_S(u) at the tail, never iterated
        t0 = self.clock()
        _, c_mask = best_cover_vertex(g, S, ext, gam)
        stats.t_cover += self.clock() - t0
        stats.n_cover_pruned += c_mask.bit_count()

        for v in self._ext_order(S, ext & ~c_mask):
            if not (ext >> v) & 1:
                continue  # pruned from ext by an earlier sibling's shrink
            if S.bit_count() + ext.bit_count() < self.tau_size:
                return found  # Alg 3 lines 6–7
            t0 = self.clock()
            whole = self._is_qc(S | ext)
            stats.t_lookahead += self.clock() - t0
            if whole:  # lookahead, Alg 3 lines 8–10
                stats.n_lookahead_hits += 1
                self._emit_if_valid(S | ext)
                return True

            s_new = S | (1 << v)
            ext &= ~(1 << v)  # side effect persists for later iterations
            ext_new = ext & self._two_hop(v)  # (P1) diameter shrink

            if ext_new == 0:
                if self.cfg.quick_plus:  # Quick+ fix (missed by Quick)
                    if self._emit_if_valid(s_new):
                        found = True
                continue

            pruned, s2, ext2 = self.iterative_bounding(s_new, ext_new)
            if pruned:
                continue  # any G(S') output happened inside bounding
            if s2.bit_count() + ext2.bit_count() < self.tau_size:
                continue

            if split or (deadline is not None and self.clock() > deadline):
                # Alg 8 lines 12–21 / Alg 10 lines 18–24: wrap as subtask;
                # the parent cannot see the child's results, so examine
                # G(S') now (postprocessing removes it if non-maximal).
                self.subtasks.append((s2, ext2))
                stats.n_subtasks += 1
                self._emit_if_valid(s2)
                continue

            sub_found = self.mine(s2, ext2, deadline=deadline)
            found = found or sub_found
            if not sub_found:  # Alg 3 lines 23–25
                if self._emit_if_valid(s2):
                    found = True
        return found
