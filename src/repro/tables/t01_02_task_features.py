"""Tables 1 & 2 — features of the top-10 most expensive tasks.

Runs A_base (per-spawn-vertex tasks, no decomposition), joins each
root task's subgraph features (induced from :func:`spawn_all`'s roots)
with its time from the job's per-task records, fits the regression
model of :mod:`repro.analysis.regression` on *all* tasks, and reports
the 10 longest-running tasks with their predicted times — showing, as
the paper does, that the predictions are way off for stragglers.
"""
from __future__ import annotations

import pandas as pd

from ..analysis.regression import fit_predict_task_times
from ..graphs.global_graph import GlobalGraph
from ..gthinker.engine import run_serial, run_spark, spawn_all
from .common import cached_dataset, print_table

COLUMNS = ["num_vertices", "num_edges", "max_degree", "avg_degree",
           "core_number", "task_time_ms", "predicted_ms"]


def _features(pruned: GlobalGraph, root: int, ext: list[int]) -> dict:
    """Subgraph features of root task ⟨[root], ext⟩."""
    g, _ = pruned.induce_local([root, *ext])
    degs = [g.degree(v) for v in range(g.n) if g.adj[v]]
    n_v = len(degs)
    n_e = sum(degs) // 2
    core = 0
    while g.kcore_mask(core + 1) != 0:
        core += 1
    return {
        "root": root,
        "num_vertices": n_v,
        "num_edges": n_e,
        "max_degree": max(degs, default=0),
        "avg_degree": (2 * n_e / n_v) if n_v else 0.0,
        "core_number": core,
    }


def task_features(spark, dataset: str, gamma: float) -> pd.DataFrame:
    """One row per root task: its features and its A_base time."""
    gg, spec = cached_dataset(dataset)
    if spark is None:
        job = run_serial(gg, gamma, spec.tau_size, strategy="base")
    else:
        job = run_spark(spark, gg, gamma, spec.tau_size, strategy="base")
    pruned, roots = spawn_all(gg, gamma, spec.tau_size)
    times = pd.DataFrame({
        "root": job.tasks["root"],
        "task_time_ms": (job.tasks["mine_s"] + job.tasks["mat_s"]) * 1000.0,
    })
    feats = pd.DataFrame(_features(pruned, v, ext) for v, ext in roots)
    return feats.merge(times, on="root")


def run(spark=None, dataset: str = "YouTube", top_n: int = 10,
        gamma: float | None = None) -> pd.DataFrame:
    _, spec = cached_dataset(dataset)
    gam = spec.gamma if gamma is None else gamma
    fitted = fit_predict_task_times(task_features(spark, dataset, gam))
    top = fitted.nlargest(top_n, "task_time_ms").sort_values("task_time_ms")
    out = top[COLUMNS].reset_index(drop=True)
    table_no = 1 if dataset == "YouTube" else 2
    print_table(
        f"Table {table_no}: top-{top_n} most expensive tasks on {dataset} "
        f"(gamma={gam}, tau_size={spec.tau_size})",
        out,
    )
    return out
