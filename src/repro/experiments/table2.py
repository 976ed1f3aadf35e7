"""Table 2: mining full MVDs at threshold 0.0 on all 20 datasets.

The paper reports, per dataset, the column/row counts, the runtime of
full-MVD mining at eps = 0 with a 5-hour time limit (TL), and the
number of full MVDs found. We reproduce the same sweep on the synthetic
analogs with scaled rows and a scaled deadline; `TL` rows mirror the
paper's time-limited datasets.
"""
from __future__ import annotations

import pandas as pd

from repro import datasets
from repro.core.miner import MVDMiner
from repro.entropy.local_pli import LocalPLIEngine
from repro.experiments.common import fmt_count, fmt_runtime, write_markdown


def run_table2(
    *,
    rows_cap: int = 2_000,
    timeout_s: float = 20.0,
    epsilon: float = 0.0,
    noise: float = 0.02,
    names: list[str] | None = None,
) -> pd.DataFrame:
    """One row per dataset: ours vs the paper's Table 2."""
    rows = []
    for s in datasets.TABLE2:
        if names is not None and s.name not in names:
            continue
        pdf = datasets.load(s.name, rows_cap=rows_cap, noise=noise)
        engine = LocalPLIEngine(pdf)
        miner = MVDMiner(engine, epsilon, deadline_s=timeout_s)
        res = miner.mine()
        rows.append(
            {
                "dataset": s.name,
                "cols": s.n_cols,
                "rows": len(pdf),
                "paper_rows": s.paper_rows,
                "runtime_s": fmt_runtime(res.elapsed, res.timed_out),
                "full_mvds": fmt_count(res.n_full_mvds, res.timed_out or res.truncated),
                "minseps": res.n_minseps,
                "paper_runtime_s": s.paper_runtime_s,
                "paper_full_mvds": s.paper_full_mvds,
            }
        )
    df = pd.DataFrame(rows)
    write_markdown(df, "table2", "Table 2 — full MVD mining at eps=0 (ours vs paper)")
    return df
