"""Benchmark: the entropy oracle itself (Sec. 6.3) across engines.

Not a paper table, but the paper's stated bottleneck ("the most
expensive operation of Maimon is the computation of the entropy"):
compares the direct Spark groupBy engine with the driver-side PLI cache
on the same queries."""
import time

import pandas as pd

from repro.datasets import planted_relation
from repro.entropy.local_pli import LocalPLIEngine
from repro.entropy.spark_groupby import SparkGroupByEntropyEngine
from repro.experiments.common import write_markdown

QUERIES = ["AB", "CDE", "ABCDE", "AEF", "BCDF"]


def test_bench_entropy_engines(benchmark, spark):
    pdf = planted_relation(6, 20_000, seed=3, noise=0.02)
    df = spark.createDataFrame(pdf)
    df.persist()
    df.count()

    def timed(make):
        t0 = time.monotonic()
        eng = make()
        vals = [eng.entropy(q) for q in QUERIES]
        return time.monotonic() - t0, vals

    t_local, v_local = benchmark.pedantic(
        lambda: timed(lambda: LocalPLIEngine(pdf)), rounds=1, iterations=1
    )
    gb = SparkGroupByEntropyEngine(df)
    t_gb, v_gb = timed(lambda: gb)
    for a, b in zip(v_local, v_gb):
        assert abs(a - b) < 1e-9
    out = pd.DataFrame(
        [
            {"engine": "local_pli (driver)", "seconds_5_queries": round(t_local, 3)},
            {"engine": "spark_groupby (Eq.5)", "seconds_5_queries": round(t_gb, 3)},
        ]
    )
    write_markdown(out, "entropy_engines", "Entropy oracle engines, 5 queries @20k rows")
    print("\n", out.to_string(index=False))
    gb.close()
    df.unpersist()
