"""The miner's bitmask fast paths vs their slow references: the closure
that skips known-independent pairs vs the plain restart-loop closure of
Fig 16, incremental dualization in MineMinSeps vs a loop that dualizes
the whole family anew, and golden counts on echocardiogram and Nursery."""
from itertools import combinations

import pandas as pd
import pytest

from repro import datasets
from repro.core.miner import MVDMiner
from repro.entropy.local_pli import LocalPLIEngine
from tests.helpers import restart_closure, redualizing_min_seps

EPSILONS = [0.0, 0.1, 0.3]


def planted(n_cols: int, n_rows: int, seed: int):
    """A planted relation whose columns are not in sorted order, so the
    engine's bit order (sorted names) differs from its column order."""
    pdf = datasets.planted_relation(n_cols, n_rows, seed=seed)
    return pdf[list(reversed(pdf.columns))]


def names(engine, node):
    return None if node is None else tuple(engine.names(p) for p in node)


def xor_relation():
    """A, B, D a full product, C = A xor B, E = D: A, B, C are pairwise
    independent, but C depends on AB, so merging A and B in a DFS child
    forces a further merge with C."""
    rows = [(a, b, a ^ b, d, d) for a in (0, 1) for b in (0, 1) for d in (0, 1, 2)]
    return pd.DataFrame(rows, columns=["A", "B", "C", "D", "E"])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("eps", EPSILONS)
def test_closure_matches_restart_closure(seed, eps):
    check_closure(planted(7, 80, seed), eps)


@pytest.mark.parametrize("eps", EPSILONS)
def test_closure_matches_restart_closure_xor(eps):
    check_closure(xor_relation(), eps)


def check_closure(pdf, eps):
    """The miner's closure equals the restart-loop closure from every
    root and from every DFS child of a root, with and without a pair."""
    eng = LocalPLIEngine(pdf)
    miner = MVDMiner(eng, eps)
    cols = sorted(pdf.columns)
    for r in range(3):
        for key in combinations(cols, r):
            key = frozenset(key)
            km = eng.mask(key)
            rest = [c for c in cols if c not in key]
            for pair in [None, *combinations(rest, 2)]:
                ab = eng.mask(pair) if pair else 0
                singles = [frozenset([c]) for c in rest]
                want = restart_closure(eng, miner.eps_eff, key, singles, pair)
                got = miner._closure(km, [eng.mask(s) for s in singles], ab)
                assert names(eng, got) == want, (sorted(key), pair)
                if want is None:
                    continue
                # A DFS child: the parent's untouched parts plus one merge.
                for i, j in combinations(range(len(want)), 2):
                    merged = want[i] | want[j]
                    if pair and set(pair) <= merged:
                        continue
                    others = [p for t, p in enumerate(want) if t not in (i, j)]
                    child = sorted(others + [merged], key=lambda p: tuple(sorted(p)))
                    want_child = restart_closure(eng, miner.eps_eff, key, child, pair)
                    om = [eng.mask(p) for p in others]
                    got_child = miner._closure(
                        km, [eng.mask(p) for p in child], ab, set(combinations(om, 2))
                    )
                    assert names(eng, got_child) == want_child, (sorted(key), pair, i, j)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("eps", EPSILONS)
def test_min_seps_same_order_as_full_redualization(seed, eps):
    pdf = planted(8, 100, seed)
    fast = MVDMiner(LocalPLIEngine(pdf), eps)
    slow = MVDMiner(LocalPLIEngine(pdf), eps)
    for a, b in combinations(sorted(pdf.columns), 2):
        assert fast.mine_min_seps(a, b) == redualizing_min_seps(slow, a, b), (a, b)


@pytest.mark.parametrize(
    "name, eps, minseps, full_mvds, nodes",
    [("echocardiogram", 0.0, 2849, 276, 13785), ("nursery", 0.3, 32, 7, 6980)],
)
def test_golden_counts(name, eps, minseps, full_mvds, nodes):
    """Reference sizes of the results and of the search. The DFS node
    count also pins how much the closure prunes in DFS children."""
    pdf = datasets.nursery() if name == "nursery" else datasets.load(name, rows_cap=2000)
    res = MVDMiner(LocalPLIEngine(pdf), eps).mine()
    assert not res.timed_out and not res.truncated
    assert (res.n_minseps, res.n_full_mvds) == (minseps, full_mvds)
    assert res.stats["nodes_explored"] == nodes
