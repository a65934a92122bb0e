"""Distributed engine (run_spark) vs serial ground truth and brute force."""
import random

import pytest

from repro.core.brute import brute_force_maximal
from repro.core.graph import LocalGraph
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import edges_pdf, planted_community_graph
from repro.graphs.global_graph import GlobalGraph
from repro.gthinker.engine import run_serial, run_spark


def make_case(seed):
    rng = random.Random(seed)
    n = rng.randint(8, 14)
    p = rng.choice([0.5, 0.7])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    gamma = rng.choice([0.6, 0.8, 0.9])
    g = LocalGraph.from_edges(n, edges)
    gg = GlobalGraph(n, [set(g.neighbors(v)) for v in range(n)])
    return g, gg, gamma, 3


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("strategy,kw", [
    ("base", {}),
    ("split", dict(tau_split=2)),
    ("time", dict(tau_time=0.0)),
])
def test_spark_matches_brute_force(spark, seed, strategy, kw):
    g, gg, gamma, tau = make_case(seed)
    expect = brute_force_maximal(g, gamma, tau)
    job = run_spark(spark, gg, gamma, tau, strategy=strategy, **kw)
    assert job.maximal == expect


@pytest.fixture(scope="module")
def comm_gg():
    return GlobalGraph.from_edges(
        edges_pdf(planted_community_graph(300, [(14, 0.95), (11, 0.95)], seed=8))
    )


class TestSparkEngine:
    def test_matches_serial_on_planted_graph(self, spark, comm_gg):
        serial = run_serial(comm_gg, 0.85, 9, strategy="base")
        for strategy, kw in [
            ("base", {}),
            ("split", dict(tau_split=5)),
            ("time", dict(tau_time=0.001)),
        ]:
            job = run_spark(spark, comm_gg, 0.85, 9, strategy=strategy, **kw)
            assert job.maximal == serial.maximal, strategy
            if strategy != "time":  # A_time's decomposition depends on the clock
                same = run_serial(comm_gg, 0.85, 9, strategy=strategy, **kw)
                assert job.results == same.results, strategy
                assert len(job.tasks) == len(same.tasks), strategy

    def test_parallelism_knob(self, spark, comm_gg):
        lo = run_spark(spark, comm_gg, 0.85, 9, strategy="time",
                       tau_time=0.001, parallelism=1)
        hi = run_spark(spark, comm_gg, 0.85, 9, strategy="time",
                       tau_time=0.001, parallelism=8)
        assert lo.maximal == hi.maximal

    def test_rounds_and_stats_populated(self, spark, comm_gg):
        job = run_spark(spark, comm_gg, 0.85, 9, strategy="split", tau_split=3)
        assert job.n_rounds >= 1
        assert job.mine_time > 0
        assert job.n_root_tasks > 0

    def test_task_features_via_spark(self, spark, comm_gg):
        """A_base's per-task records: one per root task, as serial's."""
        job = run_spark(spark, comm_gg, 0.85, 9, strategy="base")
        serial = run_serial(comm_gg, 0.85, 9, strategy="base")
        assert len(job.tasks) == job.n_root_tasks
        assert sorted(job.tasks["root"]) == sorted(serial.tasks["root"])
        assert job.tasks["n_emitted"].sum() == job.stats.n_emitted

    def test_matches_serial_without_arrow_collect(self, spark, comm_gg):
        """The job entry points build sessions with Spark's default
        (Arrow off for toPandas), which collects list columns as lists."""
        key = "spark.sql.execution.arrow.pyspark.enabled"
        before = spark.conf.get(key)
        spark.conf.set(key, "false")
        try:
            job = run_spark(spark, comm_gg, 0.85, 9, strategy="split", tau_split=5)
        finally:
            spark.conf.set(key, before)
        same = run_serial(comm_gg, 0.85, 9, strategy="split", tau_split=5)
        assert job.results == same.results
        assert job.maximal == same.maximal
        assert len(job.tasks) == len(same.tasks)

    def test_unknown_strategy_rejected(self, spark, comm_gg):
        with pytest.raises(ValueError, match="bogus"):
            run_spark(spark, comm_gg, 0.85, 9, strategy="bogus")


def test_spark_small_dataset_matches_serial(spark):
    gg, spec = load_dataset("CX_GSE10158")
    serial = run_serial(gg, spec.gamma, spec.tau_size, strategy="base")
    job = run_spark(spark, gg, spec.gamma, spec.tau_size, strategy="time",
                    tau_time=spec.tau_time)
    assert job.maximal == serial.maximal
