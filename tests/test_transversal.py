"""Minimal hypergraph transversals vs exhaustive enumeration."""
from itertools import combinations

import numpy as np
import pytest

from repro.hypergraph.transversal import (
    berge_step,
    is_transversal,
    mask_order,
    minimal_transversals,
)


def brute_minimal_transversals(sets, universe):
    all_tr = [
        frozenset(c)
        for r in range(len(universe) + 1)
        for c in combinations(sorted(universe), r)
        if is_transversal(frozenset(c), sets)
    ]
    return sorted(
        (t for t in all_tr if not any(o < t for o in all_tr)),
        key=lambda t: (len(t), tuple(sorted(t))),
    )


def test_empty_family():
    assert minimal_transversals([]) == [frozenset()]


def test_family_with_empty_set_has_no_transversal():
    assert minimal_transversals([frozenset("A"), frozenset()]) == []


def test_single_set():
    out = minimal_transversals([frozenset("ABC")])
    assert out == [frozenset("A"), frozenset("B"), frozenset("C")]


def test_disjoint_sets_product():
    out = minimal_transversals([frozenset("AB"), frozenset("CD")])
    assert set(out) == {
        frozenset("AC"), frozenset("AD"), frozenset("BC"), frozenset("BD")
    }


def test_nested_sets_collapse():
    # {A} must be hit, {AB} then comes free.
    out = minimal_transversals([frozenset("A"), frozenset("AB")])
    assert out == [frozenset("A")]


def test_classic_triangle():
    sets = [frozenset("AB"), frozenset("BC"), frozenset("AC")]
    out = set(minimal_transversals(sets))
    assert out == {frozenset("AB"), frozenset("BC"), frozenset("AC")}


def test_duplicate_sets_handled():
    out = minimal_transversals([frozenset("AB"), frozenset("AB")])
    assert out == [frozenset("A"), frozenset("B")]


def test_is_transversal():
    sets = [frozenset("AB"), frozenset("CD")]
    assert is_transversal(frozenset("AC"), sets)
    assert not is_transversal(frozenset("A"), sets)
    assert is_transversal(frozenset("ABCD"), sets)
    assert is_transversal(frozenset(), [])


def random_family(seed):
    """1-5 random sets over A..F; odd seeds also get a duplicate, a
    subset and a superset of an earlier set, and every fourth seed the
    empty set, at random positions."""
    rng = np.random.default_rng(seed)
    universe = list("ABCDEF")
    sets = []
    for _ in range(int(rng.integers(1, 6))):
        size = int(rng.integers(1, 4))
        sets.append(frozenset(rng.choice(universe, size, replace=False).tolist()))
    extra = []
    if seed % 2:
        s = sets[int(rng.integers(len(sets)))]
        extra += [s, frozenset(sorted(s)[:1]), s | {universe[int(rng.integers(6))]}]
    if seed % 4 == 3:
        extra.append(frozenset())
    for e in extra:
        sets.insert(int(rng.integers(len(sets) + 1)), e)
    return sets, universe


def fold(sets, universe):
    """Minimal transversals after each prefix of ``sets``, one
    :func:`berge_step` at a time, as sorted named sets."""
    bit = {e: 1 << i for i, e in enumerate(universe)}
    trs, out = [0], []
    for s in sets:
        trs = berge_step(trs, sum(bit[e] for e in s))
        ordered = sorted(trs, key=mask_order(len(universe)))
        out.append([frozenset(e for e in universe if t & bit[e]) for t in ordered])
    return out


@pytest.mark.parametrize("seed", range(24))
def test_matches_brute_force_random(seed):
    sets, universe = random_family(seed)
    got = minimal_transversals(sets)
    want = brute_minimal_transversals(sets, universe)
    assert got == want
    # every output really is a minimal transversal
    for t in got:
        assert is_transversal(t, sets)
        for x in t:
            assert not is_transversal(t - {x}, sets)
    # folding one set at a time agrees on every prefix
    for i, step in enumerate(fold(sets, universe)):
        prefix = sets[: i + 1]
        assert step == minimal_transversals(prefix)
        assert step == brute_minimal_transversals(prefix, universe)


def test_berge_step_keeps_hitting_transversals():
    # {A},{B} are the transversals of {AB}; folding {BC} keeps {B} and
    # extends {A} to {AB} (dominated by {B}) and {AC}.
    assert sorted(berge_step([0b001, 0b010], 0b110)) == [0b010, 0b101]


def test_berge_step_empty_set_leaves_nothing():
    assert berge_step([0b001, 0b010], 0) == []
    assert berge_step([], 0b111) == []


def test_mask_order_is_size_then_sorted_elements():
    masks = [0b100, 0b011, 0b001, 0b110, 0b101, 0b010, 0b111, 0]
    as_tuples = lambda m: tuple(i for i in range(3) if m >> i & 1)  # noqa: E731
    want = sorted(masks, key=lambda m: (bin(m).count("1"), as_tuples(m)))
    assert sorted(masks, key=mask_order(3)) == want
