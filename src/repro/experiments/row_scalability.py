"""Sec. 8.3.1 / Fig 13: minimal-separator mining time vs #rows.

The paper runs the three largest datasets (Image, Foursquare, Ditag
Feature) with all columns on 10%-100% row samples for eps in
{0, 0.01, 0.1}, and finds runtime mostly linear in rows. We reproduce
the sweep on the scaled analogs; runtime includes the engine build (the
data scan is the row-dependent part, exactly as in the paper's PLI
construction).
"""
from __future__ import annotations

import time

import pandas as pd

from repro import datasets
from repro.core.miner import MVDMiner
from repro.entropy.local_pli import LocalPLIEngine
from repro.experiments.common import fmt_count, fmt_runtime, write_markdown

DEFAULT_DATASETS = ("image", "four_square", "ditag_feature")
DEFAULT_EPS = (0.0, 0.01, 0.1)


def run_row_scalability(
    *,
    names: tuple[str, ...] = DEFAULT_DATASETS,
    fractions: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 1.0),
    epsilons: tuple[float, ...] = DEFAULT_EPS,
    base_rows: int = 50_000,
    per_run_timeout_s: float = 60.0,
    noise: float = 0.02,
) -> pd.DataFrame:
    """Minimal-separator mining time per (dataset, fraction, eps)."""
    rows = []
    for name in names:
        full = datasets.load(name, rows_cap=base_rows, noise=noise)
        for frac in fractions:
            pdf = datasets.sample_rows(full, frac, seed=1)
            for eps in epsilons:
                t0 = time.monotonic()
                engine = LocalPLIEngine(pdf)
                build_s = time.monotonic() - t0
                miner = MVDMiner(engine, eps, deadline_s=per_run_timeout_s)
                res = miner.mine(minseps_only=True)
                rows.append(
                    {
                        "dataset": name,
                        "rows": len(pdf),
                        "frac": frac,
                        "eps": eps,
                        "runtime_s": fmt_runtime(build_s + res.elapsed, res.timed_out),
                        "n_minseps": fmt_count(res.n_minseps, res.truncated),
                    }
                )
    df = pd.DataFrame(rows)
    write_markdown(df, "row_scalability", "Fig 13 — row scalability (minimal separators)")
    return df
