"""Every evaluation harness runs end-to-end at micro scale and produces
a well-formed table (the benchmarks run the same code at report scale)."""
import os

import pytest

from repro.core.miner import MinerResult
from repro.experiments.accuracy import run_accuracy


@pytest.fixture(autouse=True)
def _isolated_results(tmp_path, monkeypatch):
    """Micro runs must not clobber the benchmark-scale results/*.md."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
from repro.experiments.col_scalability import run_col_scalability
from repro.experiments.common import fmt_count, results_dir, to_markdown
from repro.experiments.fullmvds import run_fullmvds
from repro.experiments.nursery_usecase import mine_nursery_schemas, run_nursery
from repro.experiments.quality import run_quality
from repro.experiments.row_scalability import run_row_scalability
from repro.experiments.table2 import run_table2


def test_table2_micro():
    df = run_table2(rows_cap=150, timeout_s=2.0, names=["sg_bioentry", "abalone"])
    assert set(df["dataset"]) == {"sg_bioentry", "abalone"}
    assert {"runtime_s", "full_mvds", "paper_runtime_s", "paper_full_mvds"} <= set(
        df.columns
    )
    assert os.path.exists(os.path.join(results_dir(), "table2.md"))
    assert "tmp" in results_dir() or os.environ.get("REPRO_RESULTS_DIR")


def test_table2_timeout_reports_tl():
    df = run_table2(rows_cap=400, timeout_s=0.0, names=["voter_state"])
    assert df.iloc[0]["runtime_s"] == "TL"


def test_fmt_count_stars_partial_runs():
    assert fmt_count(7, MinerResult(0.0).truncated) == 7
    assert fmt_count(7, MinerResult(0.0, truncated=True).truncated) == "7*"


def test_row_scalability_micro():
    df = run_row_scalability(
        names=("image",), fractions=(0.5, 1.0), epsilons=(0.0,),
        base_rows=2000, per_run_timeout_s=5.0,
    )
    assert len(df) == 2
    assert df["rows"].iloc[0] < df["rows"].iloc[1]


def test_col_scalability_micro():
    df = run_col_scalability(
        names=("reflns",), fractions=(0.25, 0.5), epsilons=(0.0,),
        rows_cap=200, per_run_timeout_s=3.0,
    )
    assert len(df) == 2
    assert df["cols"].iloc[0] < df["cols"].iloc[1]


def test_quality_micro():
    df = run_quality(
        names=("abalone",), thresholds=(0.0, 0.3), rows_cap=200,
        mine_deadline_s=3.0, enum_deadline_s=2.0, max_schemas=30,
    )
    assert len(df) == 2
    assert (df["n_schemes"] >= 0).all()
    # paper shape: more schemes / decomposition at larger threshold
    assert df["n_full_mvds"].iloc[1] >= df["n_full_mvds"].iloc[0]


def test_fullmvds_micro():
    df = run_fullmvds(
        names=("echocardiogram",), thresholds=(0.0, 0.1), rows_cap=120,
        minsep_deadline_s=3.0, window_s=2.0,
    )
    assert len(df) == 2
    at0 = df[df["eps"] == 0.0].iloc[0]
    # paper: at eps=0, #full MVDs equals #minimal separators
    assert at0["n_full_mvds"] == at0["n_minseps"]


def test_nursery_mining_micro():
    schemes, _ = mine_nursery_schemas(
        thresholds=[0.3], max_schemas_per_eps=5, mine_deadline_s=10.0
    )
    assert len(schemes) >= 1
    assert {"schema", "J", "n_relations"} <= set(schemes.columns)


def test_nursery_full_micro(spark):
    schemes, pareto = run_nursery(
        spark, thresholds=[0.3], max_schemas_per_eps=5, quality_cap=3
    )
    assert len(schemes) >= 1
    assert {"savings_pct", "spurious_pct"} <= set(schemes.columns)
    assert len(pareto) >= 1
    # pareto is a subset of schemes
    assert set(pareto["schema"]) <= set(schemes["schema"])


def test_accuracy_micro(spark):
    df = run_accuracy(
        spark, names=("bridges",), thresholds=[0.0, 0.2], rows_cap=120,
        quality_cap=6, n_buckets=3,
    )
    assert {"J_bucket", "spurious_median"} <= set(df.columns)


def test_to_markdown_roundtrip():
    import pandas as pd

    md = to_markdown(pd.DataFrame({"a": [1, 2], "b": ["x", "y"]}))
    assert md.splitlines()[0] == "| a | b |"
    assert "| 1 | x |" in md
