"""Benchmark of maximal quasi-clique mining through the public engine API.

Run from the repository root:

    python3 perfbench/run.py --workload spark_patent_time --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all   # the three workloads in turn

Workloads (see NOTES.md for why each was chosen):

* ``serial_patent_base`` - ``run_serial``, A_base, Patent stand-in.
* ``spark_patent_time``  - ``run_spark``, A_time, Patent stand-in.
* ``spark_small_time``   - ``run_spark``, A_time, one pass over six small
  stand-ins.

The run sets up several times (Spark session, graphs, one warm-up job),
then repeats passes over the inputs, stopping at the pass boundary
nearest to ``--seconds``. Every job's
maximal sets are verified by ``verify.py``. With ``--trace 0`` the last
stdout line holds the end-to-end metrics; with ``--trace 1`` the passes
are traced from outside the program (``spans.py``) and the last line
holds the per-layer metrics. The spans are written to
``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 150.0  # start no new pass after this, to exit well within 180 s


@dataclass(frozen=True)
class Workload:
    engine: str  # "serial" or "spark"
    graphs: tuple[str, ...]
    strategy: str
    job_cap_s: float  # a job slower than this counts as failed
    setups: int  # set-ups per run; setup_s is their median


WORKLOADS = {
    "serial_patent_base": Workload("serial", ("Patent",), "base", 90.0, 9),
    "spark_patent_time": Workload("spark", ("Patent",), "time", 45.0, 5),
    # Ca-GrQc and Amazon need 2-3 A_time rounds whose count varies run
    # to run; YouTube takes 66 s serial. None of them is in a workload.
    "spark_small_time": Workload(
        "spark",
        ("CX_GSE1730", "CX_GSE10158", "Enron", "Hyves", "kmer", "USA Road"),
        "time",
        15.0,
        5,
    ),
}


def prepare_env() -> None:
    """Import the program from this checkout, in the driver and in the
    Spark Python workers, and keep temporary files inside the checkout."""
    src = ROOT / "src"
    if not (src / "repro" / "gthinker" / "engine.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))
    # Spark's Python workers inherit PYTHONPATH from the JVM, which
    # inherits it from this process; without it every stage fails with
    # ModuleNotFoundError: repro.
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    os.environ["SPARK_LOCAL_DIRS"] = str(OUT / "spark-local")


def start_spark(cores: int):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master(f"local[{cores}]")
        .appName("perfbench")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={OUT / 'tmp'}")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.shuffle.partitions", str(cores))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown_spark(spark) -> None:
    """Stop the session, then the JVM that pyspark launched, and wait
    for it to exit (``SparkSession.stop`` leaves the JVM running)."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()  # the JVM exits when its stdin closes
        gateway.proc.wait(timeout=60)
        SparkContext._gateway = None
        SparkContext._jvm = None


class Bench:
    """One run of one workload: set-ups, passes, verification, metrics."""

    def __init__(self, name: str, seed: int):
        import verify
        import workloads
        from repro.gthinker import engine

        self.wl = WORKLOADS[name]
        self.seed = seed
        self.engine = engine
        self.verify = verify
        self.build = workloads.build
        self.cores = len(os.sched_getaffinity(0))
        self.spark = None
        self.insts = {}  # graph -> workloads.Instance, built by each set-up
        self.attempted = 0
        self.failed = 0

    # ------------------------------------------------------------ jobs
    def job(self, inst, rec=None):
        """Run one job; (wall seconds, JobResult), or None if it raised."""
        sp, wl = inst.spec, self.wl
        kw = dict(strategy=wl.strategy, tau_split=sp.tau_split, tau_time=sp.tau_time)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with rec.span("engine.job") if rec else nullcontext():
                if self.spark is None:
                    job = self.engine.run_serial(inst.graph, sp.gamma, sp.tau_size, **kw)
                else:
                    job = self.engine.run_spark(self.spark, inst.graph, sp.gamma,
                                                sp.tau_size, parallelism=self.cores, **kw)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        return time.perf_counter() - t0, job

    def verified(self, inst, wall: float, job) -> bool:
        """Check one job's output and time; count it as failed if wrong.
        The verifier's adjacency is built here and dropped on return, so
        it is not alive during the next job."""
        sp = inst.spec
        adj = self.verify.adjacency(inst.edges)
        bad = self.verify.verify_job(
            sp.name, job.maximal, adj, inst.to_registry, sp.gamma, sp.tau_size
        )
        if wall > self.wl.job_cap_s:
            bad.append(f"{sp.name}: job took {wall:.1f} s > cap {self.wl.job_cap_s} s")
        if bad:
            print(f"perfbench: {sp.name} FAILED: " + "; ".join(bad[:5]), file=sys.stderr)
            self.failed += 1
        return not bad

    # ----------------------------------------------------------- setup
    def setup(self) -> float:
        """Spark session, graph generation and ``GlobalGraph.from_edges``,
        and one warm-up job; returns its seconds. The first job in a
        fresh session is cold (Patent: 11.1 s against 5.4-7.5 s later).
        The warm-up's output is verified after the clock stops."""
        if self.spark is not None:
            self.spark.stop()
        self.insts.clear()
        t0 = time.perf_counter()
        if self.wl.engine == "spark":
            self.spark = start_spark(self.cores)
        for g in dict.fromkeys((*self.wl.graphs, "CX_GSE1730")):
            self.insts[g] = self.build(g, self.seed)
        warm = self.insts["CX_GSE1730"]
        r = self.job(warm)
        elapsed = time.perf_counter() - t0
        if r is not None:
            self.verified(warm, *r)
        return elapsed

    # ---------------------------------------------------------- passes
    def passes(self, seconds: float, t_start: float, rec=None):
        """Repeat passes over the workload's graphs, all on the inputs
        the last set-up built, stopping at the pass boundary nearest to
        ``seconds`` (at least one pass). Returns [(wall, [job counters],
        first span, end span)] of the passes whose jobs all passed."""
        done = []
        t0 = time.perf_counter()
        n = 0
        while True:
            lo = len(rec.spans) if rec else 0
            wall, jobs = 0.0, []
            for g in self.wl.graphs:
                inst = self.insts[g]
                if rec:
                    rec.job = self.attempted
                r = self.job(inst, rec)
                if r is None or not self.verified(inst, *r):
                    break
                wall += r[0]
                jobs.append(_counters(r[1]))
                del r
            else:
                done.append((wall, jobs, lo, len(rec.spans) if rec else 0))
            n += 1
            now = time.perf_counter()
            if (now - t0) * (1 + 0.5 / n) >= seconds or now - t_start > RUN_LIMIT_S:
                return done

    def close(self) -> None:
        if self.spark is not None:
            shutdown_spark(self.spark)
            self.spark = None


# ------------------------------------------------------------ layers
def _counters(job) -> SimpleNamespace:
    """What the per-layer metrics read from a JobResult, without its
    result sets: holding those beyond the job would grow the heap, and
    with it the driver's RSS and garbage-collection time."""
    return SimpleNamespace(
        n_results=job.n_results, n_maximal=job.n_maximal, **{
            k: getattr(job, k) for k in (
                "mine_time", "materialize_time", "n_root_tasks", "n_subtasks",
                "n_rounds", "stats")
        })


def install_spans(rec, bench) -> None:
    """Wrap the program's public entry points for the traced run."""
    from repro.graphs.global_graph import GlobalGraph

    engine, spark = bench.engine, bench.spark
    rec.wrap(engine, "spawn_all", "engine.spawn_all")
    rec.wrap(engine, "timed_maximal_only", "postprocess")
    rec.wrap(GlobalGraph, "pruned_subgraph", "global_graph.prune")
    rec.wrap(GlobalGraph, "mining_order", "global_graph.order")
    rec.wrap(GlobalGraph, "spawn_task", "global_graph.spawn")
    if spark is None:
        # Only here: run_spark pickles run_task into its workers, and a
        # wrapper there would ship the recorder with it.
        rec.wrap(engine, "run_task", "tasks.run_task")
        return
    # On PySpark 4.1 the session hands out pyspark.sql.classic.dataframe
    # DataFrames; wrapping pyspark.sql.DataFrame would record nothing.
    df_cls = type(spark.range(0))
    rec.wrap(type(spark.sparkContext), "broadcast", "spark.broadcast")
    rec.wrap(type(spark), "createDataFrame", "spark.create_df",
             lambda a, r: {"rows": len(a[1])})
    rec.wrap(df_cls, "mapInPandas", "spark.plan")
    rec.wrap(df_cls, "toPandas", "spark.to_pandas",
             lambda a, r: {"rows": len(r), "bytes": int(r.memory_usage(deep=True).sum())})


PER_LAYER_UNITS = {
    "global_graph.prune_s": "s", "global_graph.order_s": "s",
    "global_graph.spawn_s": "s", "global_graph.spawn_calls": "count",
    "engine.spawn_all_s": "s", "engine.rounds": "count", "engine.root_tasks": "count",
    "engine.subtasks": "count", "engine.round_s": "s", "engine.round_max_s": "s",
    "engine.driver_s": "s", "engine.sched_loss_s": "s", "engine.floor_ratio": "ratio",
    "spark.broadcast_s": "s", "spark.create_df_s": "s", "spark.create_df_rows": "count",
    "spark.plan_s": "s", "spark.rows_out": "count", "spark.bytes_out": "B",
    "tasks.mine_s": "s", "tasks.mat_s": "s", "tasks.count": "count", "tasks.max_s": "s",
    "quickplus.bounds_s": "s", "quickplus.critical_s": "s", "quickplus.cover_s": "s",
    "quickplus.lookahead_s": "s", "quickplus.rest_s": "s",
    "quickplus.calls": "count", "quickplus.emitted": "count",
    "quickplus.type1_pruned": "count", "quickplus.type2_pruned": "count",
    "quickplus.critical_moves": "count", "quickplus.lookahead_hits": "count",
    "quickplus.useful_frac": "frac",
    "postprocess.s": "s", "postprocess.in": "count", "postprocess.out": "count",
    "trace.overhead_frac": "frac",
}


def layer_metrics(spans, self_s, lo, hi, jobs, wall, cores, span_cost) -> dict:
    """Per-layer numbers of one traced pass: spans [lo, hi) plus the
    counters in the pass's JobResults."""
    dur = defaultdict(list)
    attr = defaultdict(int)
    driver_s = 0.0
    for i in range(lo, hi):
        sp = spans[i]
        dur[sp.name].append(sp.dur)
        for k, v in sp.attrs.items():
            attr[sp.name + "." + k] += v
        if sp.name == "engine.job":
            driver_s += self_s[i]

    def tot(name):
        return sum(dur[name])

    def stat(field):
        return sum(getattr(j.stats, field) for j in jobs)

    mine = sum(j.mine_time for j in jobs)
    busy = mine + sum(j.materialize_time for j in jobs)
    round_s = tot("spark.to_pandas")
    timers = {k: stat("t_" + k) for k in ("bounds", "critical", "cover", "lookahead")}
    return {
        "global_graph.prune_s": tot("global_graph.prune"),
        "global_graph.order_s": tot("global_graph.order"),
        "global_graph.spawn_s": tot("global_graph.spawn"),
        "global_graph.spawn_calls": len(dur["global_graph.spawn"]),
        "engine.spawn_all_s": tot("engine.spawn_all"),
        "engine.rounds": sum(j.n_rounds for j in jobs),
        "engine.root_tasks": sum(j.n_root_tasks for j in jobs),
        "engine.subtasks": sum(j.n_subtasks for j in jobs),
        "engine.round_s": round_s,
        "engine.round_max_s": max(dur["spark.to_pandas"], default=0.0),
        "engine.driver_s": driver_s,
        # Serial runs have no rounds, hence no scheduling loss.
        "engine.sched_loss_s": round_s - busy / cores if round_s else 0.0,
        "engine.floor_ratio": wall / (busy / cores) if busy else 0.0,
        "spark.broadcast_s": tot("spark.broadcast"),
        "spark.create_df_s": tot("spark.create_df"),
        "spark.create_df_rows": attr["spark.create_df.rows"],
        "spark.plan_s": tot("spark.plan"),
        "spark.rows_out": attr["spark.to_pandas.rows"],
        "spark.bytes_out": attr["spark.to_pandas.bytes"],
        "tasks.mine_s": mine,
        "tasks.mat_s": busy - mine,
        "tasks.count": sum(j.n_root_tasks + j.n_subtasks for j in jobs),
        "tasks.max_s": max(dur["tasks.run_task"], default=0.0),
        **{f"quickplus.{k}_s": v for k, v in timers.items()},
        "quickplus.rest_s": mine - sum(timers.values()),
        "quickplus.calls": stat("n_recursive_calls"),
        "quickplus.emitted": stat("n_emitted"),
        "quickplus.type1_pruned": stat("n_type1_pruned"),
        "quickplus.type2_pruned": stat("n_type2_pruned"),
        "quickplus.critical_moves": stat("n_critical_moves"),
        "quickplus.lookahead_hits": stat("n_lookahead_hits"),
        "quickplus.useful_frac": (
            sum(j.n_maximal for j in jobs) / stat("n_emitted") if stat("n_emitted") else 0.0
        ),
        "postprocess.s": tot("postprocess"),
        "postprocess.in": sum(j.n_results for j in jobs),
        "postprocess.out": sum(j.n_maximal for j in jobs),
        "trace.overhead_frac": span_cost * (hi - lo) / wall,
    }


# -------------------------------------------------------------- main
def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans

    t_start = time.perf_counter()
    bench = Bench(name, seed)
    try:
        setups = [bench.setup() for _ in range(bench.wl.setups)]
        rec = None
        if trace:
            rec = spans.Recorder()
            install_spans(rec, bench)
        try:
            done = bench.passes(seconds, t_start, rec)
        finally:
            if rec:
                rec.restore()
    finally:
        bench.close()

    walls = [d[0] for d in done]
    print(f"workload={name} seed={seed} cores={bench.cores} passes={len(walls)} "
          f"jobs attempted={bench.attempted} failed={bench.failed} "
          f"fail_frac={bench.failed / bench.attempted:.4f}")
    if walls:
        q1, q2, q3 = quartiles(walls)
        print(f"  wall_s median={q2:.4f} q1={q1:.4f} q3={q3:.4f} min={min(walls):.4f} "
              f"max={max(walls):.4f} n={len(walls)}")
        print("  wall_s samples=" + ",".join(f"{w:.3f}" for w in walls))
    print("  setup_s samples=" + ",".join(f"{s:.3f}" for s in setups))
    if not walls:
        raise SystemExit("perfbench: no pass completed")

    if trace:
        cost = spans.span_cost()
        self_s = rec.self_times()
        spark = WORKLOADS[name].engine == "spark"
        rows = [layer_metrics(rec.spans, self_s, lo, hi, jobs, w, bench.cores if spark else 1, cost)
                for w, jobs, lo, hi in done]
        if spark and not any(r["spark.rows_out"] for r in rows):
            raise SystemExit("perfbench: Spark spans recorded nothing")
        metrics = {k: {"value": statistics.median(r[k] for r in rows), "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
        by_name = defaultdict(float)
        for sp, s in zip(rec.spans, self_s):
            by_name[sp.name] += s
        for k, v in sorted(by_name.items(), key=lambda kv: -kv[1]):
            print(f"  self {k:24s} {v:10.4f} s")
        out = OUT / f"trace-{name}-seed{seed}.json"
        out.write_text(json.dumps({"self_s": by_name, "spans": rec.dump()}))
        print(f"  spans written to {out.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "driver_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "ok_frac": {"value": 1 - bench.failed / bench.attempted, "unit": "frac"},
        }
    for k, v in metrics.items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Run every workload, each in its own process so that its RSS and
    Spark JVM are its own; print one result line per workload."""
    import subprocess

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} fail_frac={res['failed'] / res['attempted']:.4f} "
              + " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    prepare_env()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
