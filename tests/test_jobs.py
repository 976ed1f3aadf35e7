"""Smoke tests: the ``python -m repro.experiments`` entrypoint at micro scale."""
import functools
import os
import subprocess
import sys

import pytest

from repro.experiments.__main__ import HARNESSES, main


@pytest.fixture(autouse=True)
def _isolated_results(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))


def test_entrypoint_help_lists_every_harness():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "--help"],
        capture_output=True, text=True, cwd=root,
        env=dict(os.environ, PYTHONPATH="src"), timeout=120,
    )
    assert out.returncode == 0, out.stderr
    for name in (
        "table2", "nursery", "accuracy", "row_scalability",
        "col_scalability", "quality", "fullmvds", "mine",
    ):
        assert name in out.stdout


def test_mine_mvds_job():
    res, schemas = main(["mine", "sg_bioentry", "--epsilon", "0.1", "--rows-cap", "150"])
    assert res.epsilon == 0.1
    assert res.n_full_mvds >= 0
    assert isinstance(schemas, list)


def test_table2_job(monkeypatch):
    from repro import datasets
    from repro.experiments.table2 import run_table2

    monkeypatch.setattr(
        datasets, "TABLE2", [s for s in datasets.TABLE2 if s.name == "abalone"]
    )
    got = main(["table2", "--rows-cap", "100", "--timeout-s", "3"])
    want = run_table2(rows_cap=100, timeout_s=3.0)
    assert len(got) == 1
    # Runtimes differ from run to run; every other cell must match.
    assert got.drop(columns="runtime_s").equals(want.drop(columns="runtime_s"))


def test_quality_job(monkeypatch):
    from repro.experiments.quality import run_quality

    # The harness's defaults take minutes; shrink every one but rows_cap,
    # which must come from the command line.
    micro = functools.partial(
        run_quality, names=("abalone",), thresholds=(0.1,),
        mine_deadline_s=2.0, enum_deadline_s=1.0,
    )
    _, needs_spark, params = HARNESSES["quality"]
    monkeypatch.setitem(HARNESSES, "quality", (micro, needs_spark, params))
    got = main(["quality", "--rows-cap", "100"])
    assert len(got) == 1
    assert got.equals(micro(rows_cap=100))
