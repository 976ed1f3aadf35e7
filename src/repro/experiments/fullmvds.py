"""Appendix Sec. 14.1 / Fig 18: from minimal separators to full MVDs.

For each threshold: mine the minimal separators per attribute pair,
then run getFullMVDs (K = inf) over every separator within a bounded
window; report #minimal separators, #full MVDs, and the generation
rate. The paper's observations, which we check: at eps = 0 the counts
coincide; the gap grows with the threshold; rates reach tens of full
MVDs per second.
"""
from __future__ import annotations

import time
from itertools import combinations

import pandas as pd

from repro import datasets
from repro.core.miner import DeadlineReached, MVDMiner
from repro.entropy.local_pli import LocalPLIEngine
from repro.experiments.common import write_markdown

DEFAULT_DATASETS = ("hepatitis", "echocardiogram", "bridges", "school_results")


def run_fullmvds(
    *,
    names: tuple[str, ...] = DEFAULT_DATASETS,
    thresholds: tuple[float, ...] = (0.0, 0.01, 0.05, 0.1, 0.3, 0.5),
    rows_cap: int = 400,
    noise: float = 0.03,
    minsep_deadline_s: float = 20.0,
    window_s: float = 10.0,
) -> pd.DataFrame:
    rows = []
    for name in names:
        pdf = datasets.load(name, rows_cap=rows_cap, noise=noise)
        engine = LocalPLIEngine(pdf)
        cols = sorted(pdf.columns)
        for eps in thresholds:
            miner = MVDMiner(engine, eps, deadline_s=minsep_deadline_s)
            minseps: dict[tuple[str, str], list] = {}
            try:
                for a, b in combinations(cols, 2):
                    sink: list = []
                    minseps[(a, b)] = sink
                    miner.mine_min_seps(a, b, sink=sink)
            except DeadlineReached:
                pass  # partial separators still feed phase 2
            n_seps = len({x for seps in minseps.values() for x in seps})
            # Phase 2 only is timed (the paper's Fig 18 excludes minsep time).
            phase2 = MVDMiner(engine, eps, deadline_s=window_s)
            t0 = time.monotonic()
            found = set()
            try:
                for (a, b), seps in minseps.items():
                    for x in seps:
                        found.update(phase2.get_full_mvds(x, (a, b)))
            except DeadlineReached:
                pass
            dt = time.monotonic() - t0
            rows.append(
                {
                    "dataset": name,
                    "eps": eps,
                    "n_minseps": n_seps,
                    "n_full_mvds": len(found),
                    "window_s": round(dt, 2),
                    "rate_per_s": round(len(found) / dt, 1) if dt > 0 else float("inf"),
                }
            )
    df = pd.DataFrame(rows)
    write_markdown(df, "fullmvds", "Fig 18 — minimal separators to full MVDs")
    return df
