"""LocalPLIEngine vs the direct Eq. (5) reference, plus PLI internals."""
import math
from itertools import combinations

import numpy as np
import pandas as pd
import pytest

from repro.entropy.local_pli import LocalPLIEngine, _combine, _factorize_strip
from tests.helpers import naive_entropy, random_relation

SUBSETS_4 = [
    "".join(c) for r in (1, 2, 3, 4) for c in combinations("ABCD", r)
]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("cols", SUBSETS_4)
def test_matches_naive_entropy(seed, cols):
    pdf = random_relation(120, "ABCD", 3, seed)
    eng = LocalPLIEngine(pdf)
    assert eng.entropy(cols) == pytest.approx(naive_entropy(pdf, list(cols)), abs=1e-9)


@pytest.mark.parametrize("n_vals", [1, 2, 10, 1000])
def test_extreme_cardinalities(n_vals):
    pdf = random_relation(200, "AB", n_vals, 3)
    eng = LocalPLIEngine(pdf)
    for cols in ["A", "B", "AB"]:
        assert eng.entropy(cols) == pytest.approx(
            naive_entropy(pdf, list(cols)), abs=1e-9
        )


def test_constant_column_entropy_zero():
    pdf = pd.DataFrame({"A": [1] * 50, "B": range(50)})
    eng = LocalPLIEngine(pdf)
    assert eng.entropy("A") == pytest.approx(0.0)
    assert eng.entropy("B") == pytest.approx(math.log2(50))
    assert eng.entropy("AB") == pytest.approx(math.log2(50))


def test_all_distinct_rows_full_entropy():
    pdf = pd.DataFrame({"A": range(32), "B": range(32)})
    eng = LocalPLIEngine(pdf)
    assert eng.entropy("AB") == pytest.approx(5.0)


def test_string_and_mixed_dtypes():
    pdf = pd.DataFrame(
        {"A": ["x", "y", "x", "y"], "B": [1.5, 1.5, 2.5, 2.5], "C": [1, 1, 1, 2]}
    )
    eng = LocalPLIEngine(pdf)
    for cols in ["A", "B", "AB", "ABC"]:
        assert eng.entropy(cols) == pytest.approx(naive_entropy(pdf, list(cols)), abs=1e-9)


def test_determinism_across_instances():
    pdf = random_relation(150, "ABCDE", 4, 9)
    e1, e2 = LocalPLIEngine(pdf), LocalPLIEngine(pdf)
    for cols in ["ABC", "DE", "ABCDE"]:
        assert e1.entropy(cols) == e2.entropy(cols)


def test_tiny_cache_still_correct():
    """Eviction must never change results, only recompute."""
    pdf = random_relation(100, "ABCDEF", 3, 11)
    small = LocalPLIEngine(pdf, cache_bytes=1)  # ~8 entries min
    big = LocalPLIEngine(pdf)
    for r in (2, 3, 4):
        for cols in combinations("ABCDEF", r):
            assert small.entropy(cols) == pytest.approx(big.entropy(cols), abs=1e-12)


def test_partition_strips_singletons():
    codes, k, counts = _factorize_strip(np.array([1, 1, 2, 3, 3, 3, 4]))
    assert k == 2
    assert sorted(counts.tolist()) == [2, 3]
    assert (codes == -1).sum() == 2  # values 2 and 4


def test_partition_all_singletons():
    codes, k, counts = _factorize_strip(np.arange(10))
    assert codes is None and k == 0 and counts is None


def test_combine_absorbs_all_singleton():
    p = _factorize_strip(np.array([1, 1, 2, 2]))
    none = _factorize_strip(np.arange(4))
    assert _combine(p, none) == (None, 0, None)
    assert _combine(none, p) == (None, 0, None)


def test_combine_matches_joint_factorization():
    a = np.array([0, 0, 1, 1, 2, 2, 0, 0])
    b = np.array([5, 5, 5, 5, 6, 7, 5, 6])
    pa, pb = _factorize_strip(a), _factorize_strip(b)
    codes, k, counts = _combine(pa, pb)
    # joint groups of size >= 2: (0,5) x4... wait rows (0,5) at 0,1,6; (1,5) at 2,3
    joint = pd.Series(list(zip(a, b)))
    expected = sorted(c for c in joint.value_counts() if c >= 2)
    assert sorted(counts.tolist()) == expected


def test_empty_partition_request_rejected():
    eng = LocalPLIEngine(random_relation(10, "AB", 2, 0))
    with pytest.raises(ValueError):
        eng.partition([])


@pytest.mark.parametrize("seed", range(3))
def test_prefix_composition_order_invariance(seed):
    """H must not depend on the order attribute sets are requested in."""
    pdf = random_relation(90, "ABCD", 3, seed + 40)
    e1, e2 = LocalPLIEngine(pdf), LocalPLIEngine(pdf)
    q1 = ["ABCD", "AB", "ACD", "D"]
    for cols in q1:
        e1.entropy(cols)
    for cols in reversed(q1):
        e2.entropy(cols)
    for cols in q1:
        assert e1.entropy(cols) == pytest.approx(e2.entropy(cols), abs=1e-12)


def _combine_reference(p1, p2):
    """Composition with its own remap/keep step, as _combine had before
    it reused _strip."""
    c1, n1, _ = p1
    c2, n2, _ = p2
    if c1 is None or c2 is None:
        return (None, 0, None)
    valid = (c1 >= 0) & (c2 >= 0)
    if not valid.any():
        return (None, 0, None)
    pair = c1[valid].astype(np.int64) * n2 + c2[valid]
    codes, _ = pd.factorize(pair)
    counts = np.bincount(codes)
    keep = counts >= 2
    k = int(keep.sum())
    if k == 0:
        return (None, 0, None)
    remap = np.full(len(counts), -1, dtype=np.int64)
    remap[keep] = np.arange(k)
    out = np.full(c1.shape, -1, dtype=np.int32)
    out[valid] = remap[codes]
    return out, k, counts[keep].astype(np.int64)


@pytest.mark.parametrize("seed", range(8))
def test_combine_bit_identical_to_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    a = rng.integers(0, int(rng.integers(1, n + 1)), n)
    b = rng.integers(0, int(rng.integers(1, n + 1)), n)
    pa, pb = _factorize_strip(a), _factorize_strip(b)
    got, want = _combine(pa, pb), _combine_reference(pa, pb)
    assert got[1] == want[1]
    for g, w in ((got[0], want[0]), (got[2], want[2])):
        assert (g is None) == (w is None)
        if g is not None:
            assert g.dtype == w.dtype and np.array_equal(g, w)
