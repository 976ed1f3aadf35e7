"""Shared plumbing for the evaluation-section reproductions (Sec. 8).

Each experiment module exposes ``run_*`` functions that return a pandas
DataFrame shaped like the paper's table/figure data, and can write it as
a markdown table under ``results/``. Every harness mines with the
driver-side PLI engine over the generated pandas frame; ``python -m
repro.experiments <name>`` runs one harness from the command line.
"""
from __future__ import annotations

import os

import pandas as pd


def results_dir() -> str:
    d = os.environ.get("REPRO_RESULTS_DIR", os.path.join(os.getcwd(), "results"))
    os.makedirs(d, exist_ok=True)
    return d


def to_markdown(df: pd.DataFrame) -> str:
    """Plain markdown table (``tabulate`` is unavailable offline)."""
    cols = [str(c) for c in df.columns]
    lines = ["| " + " | ".join(cols) + " |", "|" + "|".join("---" for _ in cols) + "|"]
    for _, row in df.iterrows():
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return "\n".join(lines)


def write_markdown(df: pd.DataFrame, name: str, title: str) -> str:
    """Write a results table as markdown; returns the path."""
    path = os.path.join(results_dir(), f"{name}.md")
    with open(path, "w") as f:
        f.write(f"# {title}\n\n")
        f.write(to_markdown(df))
        f.write("\n")
    return path


def fmt_runtime(elapsed: float, timed_out: bool) -> str:
    """Paper-style runtime cell: seconds, or 'TL' when the limit hit."""
    return "TL" if timed_out else f"{elapsed:.2f}"


def fmt_count(n: int, incomplete: bool) -> int | str:
    """Count cell: ``n``, starred when it may be incomplete."""
    return f"{n}*" if incomplete else n
