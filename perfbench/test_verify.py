"""The benchmark's verifier accepts correct output and rejects bad output.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import verify  # noqa: E402
import workloads  # noqa: E402

# Two 5-cliques {0..4} and {4..8} sharing vertex 4, plus a path 9-10-11.
EDGES = {(u, v) for u in range(5) for v in range(u + 1, 5)}
EDGES |= {(u, v) for u in range(4, 9) for v in range(u + 1, 9)}
EDGES |= {(9, 10), (10, 11)}
ADJ = verify.adjacency(EDGES)
GOOD = [frozenset(range(5)), frozenset(range(4, 9))]


def test_accepts_valid_family():
    assert verify.problems(GOOD, ADJ, 0.9, 5) == []


def test_rejects_non_quasi_clique():
    # {0,1,2,3,5}: vertex 5 has no neighbour among 0..3
    bad = verify.problems([frozenset({0, 1, 2, 3, 5})], ADJ, 0.9, 5)
    assert len(bad) == 1 and "quasi-clique" in bad[0]


def test_degree_threshold_is_exact():
    # 9 of 10 possible neighbours meets gamma = 0.9 exactly; 8 does not.
    edges = {(u, v) for u in range(11) for v in range(u + 1, 11)} - {(0, 1)}
    adj = verify.adjacency(edges)
    assert verify.problems([frozenset(range(11))], adj, 0.9, 5) == []
    adj2 = verify.adjacency(edges - {(0, 2)})
    assert verify.problems([frozenset(range(11))], adj2, 0.9, 5)


def test_rejects_disconnected_set():
    # two disjoint edges meet gamma = 0.3 degree-wise, but are not connected
    bad = verify.problems([frozenset({0, 1, 9, 10})], ADJ, 0.3, 4)
    assert len(bad) == 1 and "connected" in bad[0]


def test_rejects_contained_set():
    bad = verify.problems(GOOD + [frozenset(range(4))], ADJ, 0.9, 4)
    assert len(bad) == 1 and "contained" in bad[0]


def test_rejects_undersized_set():
    bad = verify.problems(GOOD, ADJ, 0.9, 6)
    assert len(bad) == 2 and all("tau_size" in b for b in bad)


def test_digest_is_order_free_and_follows_relabeling():
    perm = np.array([3, 0, 1, 2])
    inverse = np.argsort(perm)
    sets = [frozenset({0, 1}), frozenset({2, 3})]
    moved = [frozenset(int(perm[v]) for v in s) for s in sets]
    assert verify.digest(reversed(sets)) == verify.digest(sets)
    assert verify.digest(moved, inverse) == verify.digest(sets)
    assert verify.digest(moved) != verify.digest(sets)


def test_reference_digest_rejects_a_dropped_set():
    inst = workloads.build("CX_GSE1730", 5)
    adj = verify.adjacency(inst.edges)
    assert verify.verify_job("CX_GSE1730", [], adj, inst.to_registry, 0.9, 12)


@pytest.mark.parametrize("seed", [0, 7])
def test_serial_output_passes_on_small_stand_in(seed):
    from repro.gthinker.engine import run_serial

    inst = workloads.build("CX_GSE10158", seed)
    sp = inst.spec
    job = run_serial(inst.graph, sp.gamma, sp.tau_size)
    adj = verify.adjacency(inst.edges)
    assert verify.verify_job(sp.name, job.maximal, adj, inst.to_registry,
                             sp.gamma, sp.tau_size) == []
