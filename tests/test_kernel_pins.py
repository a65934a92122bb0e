"""Pinned Quick+ search: the next kernel rewrite may not change it silently.

For serial A_base on two stand-ins, under both Quick+ and the Quick
emulation, the sha256 of the sorted ``results`` (every emitted set, not
just the maximal ones) and every ``MineStats`` counter are pinned to
the values of the mask-level bounds that preceded the degree-snapshot
kernel. A speed-up of ``iterative_bounding`` or its helpers must leave
all of them unchanged; a change that means to alter the search updates
these pins and says why.
"""
import hashlib
from dataclasses import asdict

import pytest

from repro.core import quickplus
from repro.graphs.datasets import load_dataset
from repro.gthinker.engine import run_serial

PINS = {
    ("Enron", "QUICK_PLUS"): (
        "bb838690c272e433f230e2180f0ebe301a2f6c7186839f0f23eb4d57d20ce683",
        dict(n_emitted=233, n_recursive_calls=531, n_subtasks=0,
             n_lookahead_hits=87, n_type1_pruned=4814, n_type2_pruned=865,
             n_critical_moves=42, n_cover_pruned=3013),
    ),
    ("Enron", "QUICK_ORIGINAL"): (
        "6abc18e201e952b024ad97a0358ed92cd58d3d72eee844489a2f2bf286bd1b6a",
        dict(n_emitted=233, n_recursive_calls=770, n_subtasks=0,
             n_lookahead_hits=151, n_type1_pruned=6360, n_type2_pruned=771,
             n_critical_moves=46, n_cover_pruned=3966),
    ),
    ("Amazon", "QUICK_PLUS"): (
        "4e5619df0c38442ea9e2c103d8fc215ef1a8935fb052560c7c8260050a71aa39",
        dict(n_emitted=5728, n_recursive_calls=12772, n_subtasks=0,
             n_lookahead_hits=2866, n_type1_pruned=9074, n_type2_pruned=57223,
             n_critical_moves=20544, n_cover_pruned=11048),
    ),
    ("Amazon", "QUICK_ORIGINAL"): (
        "3b3e10c0a70aa007ac105c3e58372c132980a89432287e872e275f12b10300bd",
        dict(n_emitted=3244, n_recursive_calls=12990, n_subtasks=0,
             n_lookahead_hits=2974, n_type1_pruned=29642, n_type2_pruned=50875,
             n_critical_moves=19602, n_cover_pruned=14656),
    ),
}


@pytest.fixture(scope="module")
def graphs():
    return {name: load_dataset(name) for name in ("Enron", "Amazon")}


@pytest.mark.parametrize("name,cfg", list(PINS), ids=[f"{n}-{c}" for n, c in PINS])
def test_search_pinned(graphs, name, cfg):
    sha, counters = PINS[name, cfg]
    gg, spec = graphs[name]
    job = run_serial(gg, spec.gamma, spec.tau_size, strategy="base",
                     cfg=getattr(quickplus, cfg))
    results = repr(sorted(sorted(r) for r in job.results))
    assert hashlib.sha256(results.encode()).hexdigest() == sha
    got = {k: v for k, v in asdict(job.stats).items() if k.startswith("n_")}
    assert got == counters
