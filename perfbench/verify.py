"""Output verifier that shares no code with the miner.

It imports nothing from ``repro``: the quasi-clique test runs in exact
``Fraction`` arithmetic on the benchmark's own adjacency, and the
containment test is its own. A job passes when every reported maximal
set

* has at least tau_size vertices,
* is a gamma-quasi-clique: connected, and each member is adjacent to at
  least gamma * (|S| - 1) other members,
* is contained in no other reported set,

and the whole family, mapped back to registry ids, hashes to the
reference digest recorded for that stand-in.
"""
from __future__ import annotations

import hashlib
from collections import defaultdict
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

# sha256 of the maximal family on the registry graph (seed 0), recorded
# once from run_serial with A_base. Patent has 1,777 maximal sets.
REFERENCE_DIGESTS = {
    "CX_GSE1730": "a8f47fe5e5d0eaab73dae081ea0741518faff1cbbbcf9527e37fc60c96b74390",
    "CX_GSE10158": "cd02f1fbc6d312b7bb5312338ae0e5b0520b01f104df8296e37220f65d02d08f",
    "Enron": "90bd11f8a3a0310ab370f5f36475869112ceebfd50ef328d025b256aac47ff6d",
    "Hyves": "cf69a60f26d0ff9416994c9ba1ac04a279edbb536c537a850150f58ce9831a45",
    "Patent": "a167d11c71d99337d0cebe001bad6367c7bbafb8f20a1dae97bd22572406477d",
    "kmer": "e8d5b9de3f77b3729493b387c13b67a8c2aa05dc526f96478ba9de81ad7f4243",
    "USA Road": "1394916d9b304a1d222e38ea30301494ea3938789582b9b59291ee13e0bca2a5",
}


def adjacency(edges: Iterable[tuple[int, int]]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = defaultdict(set)
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def digest(sets: Iterable[Iterable[int]], relabel: Sequence[int] | None = None) -> str:
    """Order-independent sha256 of a family of vertex sets, after mapping
    each id through ``relabel`` when given."""
    rows = sorted(
        sorted(int(relabel[v]) if relabel is not None else int(v) for v in s)
        for s in sets
    )
    text = "\n".join(",".join(map(str, r)) for r in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def _connected(s: frozenset[int], adj: Mapping[int, set[int]]) -> bool:
    start = next(iter(s))
    seen = {start}
    todo = [start]
    while todo:
        for w in adj.get(todo.pop(), ()):
            if w in s and w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(s)


def problems(
    sets: Iterable[frozenset[int]],
    adj: Mapping[int, set[int]],
    gamma: float,
    tau_size: int,
) -> list[str]:
    """Everything wrong with a reported maximal family (empty if none)."""
    g = Fraction(repr(gamma))  # 0.9 -> 9/10 exactly, as the paper means it
    family = [frozenset(s) for s in sets]
    out = []
    for s in family:
        name = sorted(s)[:6]
        if len(s) < tau_size:
            out.append(f"set {name}... has {len(s)} < tau_size={tau_size} vertices")
            continue
        need = g * (len(s) - 1)
        weak = [v for v in s if len(adj.get(v, set()) & s) < need]
        if weak:
            out.append(f"set {name}... is not a {g}-quasi-clique at vertex {weak[0]}")
        elif not _connected(s, adj):
            out.append(f"set {name}... is not connected")
    holders: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(family):
        for v in s:
            holders[v].append(i)
    for s in family:
        if s and any(s < family[j] for j in holders[next(iter(s))]):
            out.append(f"set {sorted(s)[:6]}... is contained in another reported set")
    return out


def verify_job(
    name: str,
    maximal: Iterable[frozenset[int]],
    adj: Mapping[int, set[int]],
    to_registry: Sequence[int],
    gamma: float,
    tau_size: int,
) -> list[str]:
    """``problems`` plus the reference-digest check for stand-in ``name``."""
    maximal = list(maximal)
    out = problems(maximal, adj, gamma, tau_size)
    got = digest(maximal, to_registry)
    if got != REFERENCE_DIGESTS[name]:
        out.append(f"{name}: digest {got[:12]} != reference {REFERENCE_DIGESTS[name][:12]}")
    return out
