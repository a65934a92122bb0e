"""Tables 12–14 — mining time vs subgraph-materialization time.

Sweeps τ_time for A_time and reports the job time, the cumulative task
mining time, the cumulative subgraph materialization time (building the
(sub)task subgraphs + translating masks to global ids), and their
ratio — the paper's evidence that timeout decomposition's overhead is
small relative to mining.

Materialization counts every task's induction of its subgraph from
the pruned graph, root tasks included. Spawning the root tasks (the
k-core of each 2-hop ego net, ``spawn_all``, on the driver) is part of
job time but not of TotalMaterialize_s.
"""
from __future__ import annotations

import pandas as pd

from ..gthinker.engine import run_spark
from .common import cached_dataset, print_table

# τ_time sweep scaled to the stand-ins (paper: 50…0.01 s)
DEFAULT_SWEEP = [0.5, 0.1, 0.02, 0.005]
TABLE_NO = {"Patent": 12, "YouTube": 13, "Hyves": 14}


def run(spark, dataset: str = "Patent", sweep=None) -> pd.DataFrame:
    gg, spec = cached_dataset(dataset)
    rows = []
    for tt in sweep or DEFAULT_SWEEP:
        job = run_spark(spark, gg, spec.gamma, spec.tau_size,
                        strategy="time", tau_split=spec.tau_split,
                        tau_time=tt)
        ratio = (job.mine_time / job.materialize_time
                 if job.materialize_time > 0 else float("inf"))
        rows.append({
            "Ttime_s": tt,
            "Job_s": round(job.job_time, 2),
            "TotalMine_s": round(job.mine_time, 2),
            "TotalMaterialize_s": round(job.materialize_time, 3),
            "Mine/Mat_ratio": round(ratio, 1),
            "Subtasks": job.n_subtasks,
        })
    no = TABLE_NO.get(dataset, 12)
    return print_table(
        f"Table {no}: mining vs subgraph materialization on {dataset}",
        pd.DataFrame(rows),
    )
