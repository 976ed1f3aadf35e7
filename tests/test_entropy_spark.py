"""The Spark groupBy entropy engine vs the local reference, plus the
DuckDB oracle check of the Eq. (5) aggregation query itself."""
import pandas as pd
import pytest

from repro.entropy.local_pli import LocalPLIEngine
from repro.entropy.spark_groupby import SparkGroupByEntropyEngine
from repro.oracle import assert_equivalent
from tests.helpers import random_relation

QUERIES = ["A", "B", "AB", "CD", "ABC", "ACD", "ABCD"]

#: Relations the random one does not cover: NULL values (one group in
#: both engines), no rows at all, and a single column.
AWKWARD = {
    "nulls": pd.DataFrame(
        {
            "A": ["a", "a", "b", "b", "c", "c"],
            "B": [None, None, None, "x", "y", "z"],
            "C": [None, None, "x", "x", "y", "y"],
        }
    ),
    "empty": pd.DataFrame({"A": [], "B": []}, dtype=object),
    "single": pd.DataFrame({"A": ["a", "a", "b", "c", "c", "c"]}),
}

CASES = [pytest.param(None, q, id=q) for q in QUERIES] + [
    pytest.param(rel, q, id=f"{rel}-{q}")
    for rel, qs in [
        ("nulls", ["B", "C", "BC", "ABC"]), ("empty", ["A", "AB"]), ("single", ["A"]),
    ]
    for q in qs
]


@pytest.fixture(scope="module")
def data(spark):
    pdf = random_relation(300, "ABCD", 3, 42)
    df = spark.createDataFrame(pdf)
    df.persist()
    df.count()
    yield pdf, df
    df.unpersist()


@pytest.fixture(scope="module")
def gb_engine(data):
    _, df = data
    eng = SparkGroupByEntropyEngine(df)
    yield eng
    eng.close()


@pytest.fixture(scope="module")
def awkward_engines(spark):
    engines = {}
    for name, pdf in AWKWARD.items():
        schema = ", ".join(f"{c} string" for c in pdf.columns)
        engines[name] = (pdf, SparkGroupByEntropyEngine(spark.createDataFrame(pdf, schema)))
    yield engines
    for _, eng in engines.values():
        eng.close()


@pytest.mark.parametrize("relation, cols", CASES)
def test_groupby_engine_matches_local(data, gb_engine, awkward_engines, relation, cols):
    pdf, eng = (data[0], gb_engine) if relation is None else awkward_engines[relation]
    local = LocalPLIEngine(pdf)
    assert eng.entropy(cols) == pytest.approx(local.entropy(cols), abs=1e-9)


def test_from_spark_equals_from_pandas(data):
    pdf, df = data
    a = LocalPLIEngine.from_spark(df)
    b = LocalPLIEngine(pdf)
    for cols in ["AB", "ABCD"]:
        assert a.entropy(cols) == pytest.approx(b.entropy(cols), abs=1e-9)


def test_groupby_aggregation_oracle(spark, data):
    """The grouped count*log2(count) frame -- the paper's SQL query --
    checked row-by-row against DuckDB."""
    from pyspark.sql import functions as F

    pdf, df = data
    got = (
        df.groupBy("A", "B")
        .agg(F.count(F.lit(1)).alias("cnt"))
        .select(
            F.col("A").alias("a"),
            F.col("B").alias("b"),
            (F.col("cnt") * F.log2(F.col("cnt"))).alias("clogc"),
        )
    )
    assert_equivalent(
        got,
        """
        SELECT A AS a, B AS b,
               count(*) * log2(count(*)) AS clogc
        FROM r GROUP BY A, B
        """,
        r=pdf,
    )


def test_entropy_stats_track_cache(gb_engine):
    before = gb_engine.entropy_computations
    gb_engine.entropy("AB")
    gb_engine.entropy("BA")
    assert gb_engine.entropy_computations <= before + 1
