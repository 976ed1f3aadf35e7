"""Command-line entrypoint: run one evaluation harness at job scale.

Usage, from the repository root (or with the package installed)::

    PYTHONPATH=src python -m repro.experiments <name> [options]
    PYTHONPATH=src spark-submit src/repro/experiments/__main__.py <name> [options]

Each name calls its ``run_*`` harness; each option is one of that
harness's keyword parameters, and an option left out keeps the
harness's own default unless a job-scale default is listed here. Each
harness prints its table and writes it under ``results/``; ``mine``
only prints its MVDs and schemas. Only
``nursery`` and ``accuracy`` start a SparkSession (their quality
metrics are Spark joins); the rest mine over the local PLI engine.
"""
from __future__ import annotations

import argparse
import sys

from repro import datasets
from repro.core.miner import MinerResult, MVDMiner
from repro.core.schema_miner import MinedSchema, enumerate_schemas
from repro.entropy.local_pli import LocalPLIEngine
from repro.experiments.accuracy import run_accuracy
from repro.experiments.col_scalability import run_col_scalability
from repro.experiments.common import to_markdown
from repro.experiments.fullmvds import run_fullmvds
from repro.experiments.nursery_usecase import run_nursery
from repro.experiments.quality import run_quality
from repro.experiments.row_scalability import run_row_scalability
from repro.experiments.table2 import run_table2


def run_mine(
    name: str, *, epsilon: float = 0.05, rows_cap: int = 2_000
) -> tuple[MinerResult, list[MinedSchema]]:
    """Mine the eps-MVDs of one dataset analog and up to 20 acyclic schemas."""
    pdf = datasets.load(name, rows_cap=rows_cap)
    engine = LocalPLIEngine(pdf)
    res = MVDMiner(engine, epsilon, deadline_s=60.0).mine()
    schemas = list(enumerate_schemas(res.full_mvds, engine.columns, max_schemas=20))
    return res, schemas


#: name -> (harness, needs a SparkSession, {parameter: (type, job default)});
#: a job default of None keeps the harness's own default.
HARNESSES = {
    "table2": (run_table2, False, {"rows_cap": (int, None), "timeout_s": (float, 30.0)}),
    "nursery": (run_nursery, True, {"quality_cap": (int, None)}),
    "accuracy": (run_accuracy, True, {"rows_cap": (int, None)}),
    "row_scalability": (run_row_scalability, False, {
        "base_rows": (int, None), "per_run_timeout_s": (float, None),
    }),
    "col_scalability": (run_col_scalability, False, {
        "rows_cap": (int, None), "per_run_timeout_s": (float, 20.0),
    }),
    "quality": (run_quality, False, {"rows_cap": (int, None)}),
    "fullmvds": (run_fullmvds, False, {"rows_cap": (int, None)}),
    "mine": (run_mine, False, {"epsilon": (float, None), "rows_cap": (int, None)}),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run one evaluation harness and print its table.",
    )
    sub = parser.add_subparsers(dest="harness", required=True)
    for name, (_, _, params) in HARNESSES.items():
        p = sub.add_parser(name)
        if name == "mine":
            p.add_argument("name", help="dataset analog, e.g. abalone")
        for param, (typ, default) in params.items():
            p.add_argument(
                "--" + param.replace("_", "-"),
                dest=param,
                type=typ,
                default=argparse.SUPPRESS if default is None else default,
            )
    return parser


def _spark(app: str):
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def main(argv: list[str] | None = None):
    """Parse ``argv``, run the harness, print and return its result."""
    kwargs = vars(_parser().parse_args(argv))
    name = kwargs.pop("harness")
    fn, needs_spark, _ = HARNESSES[name]
    if needs_spark:
        spark = _spark(name)
        try:
            out = fn(spark, **kwargs)
        finally:
            spark.stop()
    else:
        out = fn(**kwargs)

    if name == "nursery":
        schemes, pareto = out
        print("All schemes:\n" + to_markdown(schemes))
        print("\nPareto front:\n" + to_markdown(pareto))
    elif name == "mine":
        res, schemas = out
        print(f"{kwargs['name']}: {res.n_full_mvds} full MVDs at eps={res.epsilon} "
              f"({res.n_minseps} minseps, {res.elapsed:.1f}s, "
              f"timed_out={res.timed_out}, truncated={res.truncated})")
        for m in res.full_mvds[:50]:
            print("  ", m)
        print(f"{len(schemas)} schemas (first 20):")
        for s in schemas:
            print("  ", " / ".join("".join(sorted(b)) for b in s.bags))
    else:
        print(to_markdown(out))
    return out


if __name__ == "__main__":
    main(sys.argv[1:])
