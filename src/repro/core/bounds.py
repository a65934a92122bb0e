"""Pruning-rule mathematics for Quick+ — Section 6.1 of the paper.

Every (P3)–(P6) rule reads the same four degree arrays of one pair
``⟨S, ext(S)⟩``, so one bounding round takes a :class:`Degrees`
snapshot with :func:`degrees` and the bounds are pure functions of it.
Everything here is exact integer arithmetic (see :mod:`repro.core.gamma`);
the iterative driver that applies these rules lives in
:mod:`repro.core.quickplus`.

Naming follows the paper:

* SS-degree ``d_S(v)`` for ``v ∈ S``; SE-degree ``d_S(u)`` for
  ``u ∈ ext(S)``; ES-degree ``d_ext(v)``; EE-degree ``d_ext(u)``.
* ``U_S`` — Eq (3)/(4) upper bound on how many ext vertices can join S.
* ``L_S`` — Eq (7)/(8) lower bound on how many must join S.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add

from .bitset import bits
from .gamma import Gamma
from .graph import LocalGraph

__all__ = [
    "Degrees",
    "degrees",
    "upper_bound",
    "lower_bound",
    "critical_vertices",
    "cover_set",
    "best_cover_vertex",
]


@dataclass(slots=True)
class Degrees:
    """The degree arrays of one ``⟨S, ext⟩``: ``d_ss[i]``/``d_es[i]`` are
    the SS/ES-degrees of ``s_list[i]``, ``d_se[j]`` the SE-degree of
    ``ext_list[j]``. ``se_prefix[t]`` is the sum of the t largest
    SE-degrees (the order Lemma 2 requires), shared by U_S and L_S."""

    s_list: list[int]
    ext_list: list[int]
    d_ss: list[int]
    d_es: list[int]
    d_se: list[int]
    sum_ss: int
    se_prefix: list[int]

    def drop_ext(self, g: LocalGraph, removed: int) -> None:
        """Update in place after the ext vertices in mask ``removed``
        leave ext(S) (a Type I pruning): S, hence d_ss and the SE-degrees
        of the survivors, are unchanged."""
        keep = [j for j, u in enumerate(self.ext_list) if not (removed >> u) & 1]
        self.ext_list = [self.ext_list[j] for j in keep]
        self.d_se = [self.d_se[j] for j in keep]
        adj = g.adj
        self.d_es = [d - (adj[v] & removed).bit_count()
                     for v, d in zip(self.s_list, self.d_es)]
        self.se_prefix = _prefix(self.d_se)


def _prefix(d_se: list[int]) -> list[int]:
    return list(accumulate(sorted(d_se, reverse=True), initial=0))


def degrees(g: LocalGraph, S: int, ext: int) -> Degrees:
    """Snapshot the SS, ES and SE degrees of the masks ``S`` and ``ext``."""
    adj = g.adj
    s_list = bits(S)
    ext_list = bits(ext)
    d_ss = [(adj[v] & S).bit_count() for v in s_list]
    d_se = [(adj[u] & S).bit_count() for u in ext_list]
    return Degrees(
        s_list, ext_list, d_ss, [(adj[v] & ext).bit_count() for v in s_list],
        d_se, sum(d_ss), _prefix(d_se),
    )


def upper_bound(deg: Degrees, gam: Gamma) -> int | None:
    """U_S of Eq (4), or ``None`` when no valid t exists (a Type II
    pruning of S's *extensions*; G(S) itself stays a candidate).

    Requires S non-empty and γ > 0 (the paper's regime is γ ≥ 0.5).
    """
    s = len(deg.s_list)
    d_min = min(map(add, deg.d_ss, deg.d_es))
    u_cap = min(gam.floor_div(d_min) + 1 - s, len(deg.ext_list))  # Eq (3)
    prefix = deg.se_prefix
    for t in range(u_cap, 0, -1):  # Eq (4): the max t satisfying Lemma 2
        if deg.sum_ss + prefix[t] >= s * gam.ceil_mul(s + t - 1):
            return t
    return None


def lower_bound(deg: Degrees, gam: Gamma) -> int | None:
    """L_S of Eq (8), or ``None`` when no valid t exists (a Type II
    pruning of S *and* its extensions)."""
    s = len(deg.s_list)
    n_ext = len(deg.ext_list)
    d_s_min = min(deg.d_ss)
    for l_min in range(0, n_ext + 1):  # Eq (7)
        if d_s_min + l_min >= gam.ceil_mul(s + l_min - 1):
            break
    else:
        return None
    prefix = deg.se_prefix
    for t in range(l_min, n_ext + 1):  # Eq (8): the min t satisfying Lemma 2
        if deg.sum_ss + prefix[t] >= s * gam.ceil_mul(s + t - 1):
            return t
    return None


def critical_vertices(deg: Degrees, need: int) -> list[int]:
    """Definition 4: v ∈ S with d_S(v) + d_ext(v) == ``need``, where
    need = ceil(γ(|S|+L_S-1)). Any valid extension must then absorb all
    of N_ext(v) (Theorem 9)."""
    return [v for v, a, b in zip(deg.s_list, deg.d_ss, deg.d_es) if a + b == need]


def cover_set(g: LocalGraph, S: int, ext: int, gam: Gamma, u: int) -> int | None:
    """C_S(u) of Eq (9) for a candidate cover vertex u ∈ ext, or ``None``
    when (P7)'s applicability conditions fail:
    d_S(u) ≥ ceil(γ|S|) and every non-neighbor v ∈ S of u has
    d_S(v) ≥ ceil(γ|S|)."""
    s = S.bit_count()
    thr = gam.ceil_mul(s)
    if (g.adj[u] & S).bit_count() < thr:
        return None
    c = g.adj[u] & ext
    for v in bits(S & ~g.adj[u]):
        if (g.adj[v] & S).bit_count() < thr:
            return None
        c &= g.adj[v]
    return c


def best_cover_vertex(
    g: LocalGraph, S: int, ext: int, gam: Gamma
) -> tuple[int | None, int]:
    """(P7): the u ∈ ext maximizing |C_S(u)|, with the short-circuit the
    paper describes — skip u once |N_ext(u)| cannot beat the current
    best. Degenerate case S = ∅: C = N(u) ∩ ext, u of max degree.
    Returns (u, C_mask); (None, 0) when no cover vertex applies."""
    best_u, best_c, best_sz = None, 0, 0
    for u in bits(ext):
        if (g.adj[u] & ext).bit_count() <= best_sz:
            continue
        c = cover_set(g, S, ext, gam, u) if S else (g.adj[u] & ext)
        if c is not None and c.bit_count() > best_sz:
            best_u, best_c, best_sz = u, c, c.bit_count()
    return best_u, best_c
