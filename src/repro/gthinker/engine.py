"""The redesigned G-thinker execution engine, reproduced on PySpark.

A task is ⟨S, ext(S)⟩ as two lists of global vertex ids, from spawn to
record. Root tasks are ⟨[v], ext⟩ with ext in mining-rank order, as
:func:`spawn_all` returns them; subtasks list ext by ascending id; S
starts with the task tree's spawn vertex. :func:`run_task` runs every
task, root or subtask: it induces the task subgraph from the pruned
graph, local vertex i being ``(S + ext)[i]``, mines it under one of the
paper's three strategies and returns one per-task record in global
ids. Both drivers share one round loop — spawn the root tasks; per
round, sort the pending tasks by |ext| descending, run them, merge the
records and queue their subtasks; finally drop the non-maximal
results — and differ only in how a round executes:

* :func:`run_serial` — in this process; the single-threaded reference
  (the paper's "serial mining time").
* :func:`run_spark` — as one ``mapInPandas`` stage over a DataFrame of
  tasks (typed Arrow columns ``s``/``ext`` in, one record per task
  out). The paper's scheduling redesign maps to:

  - **big-task prioritization** (global queue Q_global): the |ext|
    descending sort, so every partition starts with its biggest tasks;
  - **task stealing / load balancing**: :func:`deal_round` deals the
    sorted tasks round-robin over ``parallelism`` partitions,
    spreading big tasks evenly across cores — the dataflow analogue of
    stealing from overloaded machines.

  The pruned input graph is shipped once per executor as a broadcast
  (the analogue of G-thinker's distributed vertex store + remote
  vertex cache: every vertex pulled at most once).

Table 4's old engine (pre-redesign, no prioritization) is
:func:`repro.gthinker.apps.run_app_spark` with ``prioritize_big=False``.
"""
from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import pandas as pd

from ..core.bitset import bits
from ..core.gamma import make_gamma, mining_gamma
from ..core.postprocess import timed_maximal_only
from ..core.quickplus import QUICK_PLUS, MineConfig, Miner, MineStats
from ..graphs.global_graph import GlobalGraph

__all__ = ["JobResult", "deal_round", "run_serial", "run_spark", "run_task",
           "spawn_all"]

STRATEGIES = ("base", "split", "time")

_LISTS = ["results", "sub_s", "sub_ext"]  # shipped back, merged, then dropped
_SCALARS = ["root", "mine_s", "mat_s", *(f.name for f in fields(MineStats))]
_TASK_SCHEMA = "s array<bigint>, ext array<bigint>"
_RECORD_SCHEMA = ", ".join(
    [*(f"{c} array<array<bigint>>" for c in _LISTS),
     "root bigint", "mine_s double", "mat_s double"]
    + [f"{f.name} {'bigint' if type(f.default) is int else 'double'}"
       for f in fields(MineStats)]
)


@dataclass
class JobResult:
    """Everything the evaluation tables need from one job."""

    results: set[frozenset[int]] = field(default_factory=set)
    maximal: set[frozenset[int]] = field(default_factory=set)
    job_time: float = 0.0
    mine_time: float = 0.0  # sum of per-task mining time
    materialize_time: float = 0.0  # sum of task-subgraph build time
    postprocess_time: float = 0.0
    n_root_tasks: int = 0
    n_subtasks: int = 0
    n_rounds: int = 0
    stats: MineStats = field(default_factory=MineStats)
    # One row per executed task: root, mine_s, mat_s, MineStats fields.
    tasks: pd.DataFrame = field(default_factory=lambda: pd.DataFrame(columns=_SCALARS))

    @property
    def n_results(self) -> int:
        return len(self.results)

    @property
    def n_maximal(self) -> int:
        return len(self.maximal)


def spawn_all(
    gg: GlobalGraph, gamma, tau_size: int, cfg: MineConfig = QUICK_PLUS
):
    """Preprocess ((P2) k-core + two-hop-size prune), compute the
    mining order (degenerate (P7) recoding under Quick+) and spawn all
    root tasks. Returns (pruned GlobalGraph, [(root, ext)]), ext in
    rank order."""
    gam = make_gamma(gamma)
    pruned = gg.pruned_subgraph(gam, tau_size)
    alive = {v for v in range(pruned.n) if pruned.adj[v]}
    rank, skip = pruned.mining_order(alive, cfg.quick_plus)
    roots = []
    for v in sorted(alive, key=lambda u: rank[u]):
        if v in skip:
            continue  # (P7) degenerate rule: subsets of N(v_max) cannot be maximal
        ext = pruned.spawn_task(v, rank, alive, gam, tau_size)
        if ext is not None:
            roots.append((v, ext))
    return pruned, roots


def _records(rows) -> pd.DataFrame:
    return pd.DataFrame(rows, columns=[*_LISTS, *_SCALARS])


def _check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def run_task(graph: GlobalGraph, s: list[int], ext: list[int], *, gamma, tau_size: int,
             strategy: str, tau_split: int, tau_time: float, cfg: MineConfig) -> dict:
    """Run task ⟨S, ext⟩ — iteration 3 of UDF compute() (Algorithms
    8–10) — on the pruned ``graph`` and return its per-task record.

    ``strategy``:
      * ``base``  — Algorithm 3 in full (no decomposition).
      * ``split`` — Algorithm 8: decompose one level iff
        |ext(S)| > τ_split, else mine serially.
      * ``time``  — Algorithms 9/10: mine with a τ_time budget; on
        timeout every surviving branch becomes a subtask.

    Inducing the task subgraph (G-thinker's frontier pulls) and
    translating results and subtasks back to global ids (Alg 8 line 19
    / Alg 10 lines 19–21) count as materialization, ``mat_s``.
    """
    _check_strategy(strategy)
    t0 = time.perf_counter()
    g, ids = graph.induce_local(s + ext)
    s_mask = (1 << len(s)) - 1
    miner = Miner(g=g, gamma=gamma, tau_size=tau_size, cfg=cfg)
    t1 = time.perf_counter()
    miner.mine(s_mask, ((1 << len(ids)) - 1) ^ s_mask,
               deadline=t1 + tau_time if strategy == "time" else None,
               split=strategy == "split" and len(ext) > tau_split)
    t2 = time.perf_counter()
    rec = {
        "results": [[ids[i] for i in r] for r in miner.results],
        "sub_s": [[ids[i] for i in bits(sm)] for sm, _ in miner.subtasks],
        "sub_ext": [sorted(ids[i] for i in bits(em)) for _, em in miner.subtasks],
        "root": s[0],
        "mine_s": t2 - t1,
        **asdict(miner.stats),
    }
    rec["mat_s"] = t1 - t0 + time.perf_counter() - t2
    return rec


def _run_job(executor, gg: GlobalGraph, gamma, tau_size: int, *, strategy: str,
             tau_split: int, tau_time: float, cfg: MineConfig) -> JobResult:
    """The round loop both engines share; ``executor(pruned, task_kw)``
    is a context manager yielding a function from a round's tasks to
    their records."""
    _check_strategy(strategy)
    t_start = time.perf_counter()
    gam = mining_gamma(gamma)
    pruned, roots = spawn_all(gg, gam, tau_size, cfg)
    job = JobResult(n_root_tasks=len(roots))
    pending = [([v], ext) for v, ext in roots]
    records = []
    if pending:
        task_kw = dict(gamma=gam, tau_size=tau_size, strategy=strategy,
                       tau_split=tau_split, tau_time=tau_time, cfg=cfg)
        with executor(pruned, task_kw) as run_round:
            while pending:
                job.n_rounds += 1
                pending.sort(key=lambda t: len(t[1]), reverse=True)
                out = run_round(pending)
                pending = []
                for res, sub_s, sub_ext in zip(*(out[c] for c in _LISTS)):
                    job.results.update(map(frozenset, res))
                    pending += zip(sub_s, sub_ext)
                job.n_subtasks += len(pending)
                records.append(out.drop(columns=_LISTS))
    if records:
        job.tasks = pd.concat(records, ignore_index=True)
    job.mine_time = float(job.tasks["mine_s"].sum())
    job.materialize_time = float(job.tasks["mat_s"].sum())
    job.stats = MineStats(**{
        f.name: type(f.default)(job.tasks[f.name].sum()) for f in fields(MineStats)
    })
    job.maximal, job.postprocess_time = timed_maximal_only(job.results)
    job.job_time = time.perf_counter() - t_start
    return job


@contextmanager
def _in_process(pruned: GlobalGraph, task_kw: dict):
    yield lambda tasks: _records(
        [run_task(pruned, s, e, **task_kw) for s, e in tasks]
    )


def run_serial(
    gg: GlobalGraph,
    gamma,
    tau_size: int,
    *,
    strategy: str = "base",
    tau_split: int = 50,
    tau_time: float = 1.0,
    cfg: MineConfig = QUICK_PLUS,
) -> JobResult:
    """Single-threaded engine: every round runs in this process.
    Ground truth for the distributed runs."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
    return _run_job(_in_process, gg, gamma, tau_size, strategy=strategy,
                    tau_split=tau_split, tau_time=tau_time, cfg=cfg)


# --------------------------------------------------------------- spark
def deal_round(spark, rows: pd.DataFrame, schema: str, n_part: int,
               work, out_schema: str) -> pd.DataFrame:
    """One stage: deal ``rows`` round-robin over min(``n_part``, #rows)
    partitions — from a single input partition, so the shares differ by
    at most one row — map every partition with ``work`` and collect."""
    df = (
        spark.createDataFrame(rows, schema)
        .coalesce(1)
        .repartition(min(n_part, len(rows)))
    )
    return df.mapInPandas(work, schema=out_schema).toPandas()


def _execute_partition(bc, task_kw: dict, batches):
    """mapInPandas worker: one record per task row."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
    graph: GlobalGraph = bc.value
    for pdf in batches:
        yield _records([
            run_task(graph, s.tolist(), e.tolist(), **task_kw)
            for s, e in zip(pdf["s"], pdf["ext"])
        ])


def run_spark(
    spark,
    gg: GlobalGraph,
    gamma,
    tau_size: int,
    *,
    strategy: str = "time",
    tau_split: int = 50,
    tau_time: float = 1.0,
    cfg: MineConfig = QUICK_PLUS,
    parallelism: int | None = None,
) -> JobResult:
    """Distributed engine (see module docstring for the mapping)."""
    n_part = parallelism or spark.sparkContext.defaultParallelism

    @contextmanager
    def on_spark(pruned: GlobalGraph, task_kw: dict):
        bc = spark.sparkContext.broadcast(pruned)
        work = partial(_execute_partition, bc, task_kw)

        def run_round(tasks):
            out = deal_round(spark, pd.DataFrame(tasks, columns=["s", "ext"]),
                             _TASK_SCHEMA, n_part, work, _RECORD_SCHEMA)
            for c in _LISTS:  # numpy arrays with Arrow, lists without
                out[c] = [[a if isinstance(a, list) else a.tolist() for a in cell]
                          for cell in out[c]]
            return out

        try:
            yield run_round
        finally:
            bc.unpersist()

    return _run_job(on_spark, gg, gamma, tau_size, strategy=strategy,
                    tau_split=tau_split, tau_time=tau_time, cfg=cfg)
