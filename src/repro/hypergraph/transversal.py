"""Minimal hypergraph transversals (the substrate of MineMinSeps, Fig 5).

``nextMinTransversal`` in the paper enumerates minimal transversals of
the family C of already-discovered minimal separators (Theorem 6.1 /
the hypergraph-dualization problem). The asymptotically best algorithm
is Fredman-Khachiyan; at the family sizes Maimon produces per attribute
pair, Berge's sequential algorithm is exact and fast, so we use it.

The kernel is one Berge step on int bitmasks, :func:`berge_step`, which
folds a single new set into the minimal transversals of a family. In
the "dualize and advance" loop C grows one separator at a time, so the
miner keeps the transversals of C and folds in only the new separators
(incremental dualization, Murakami & Uno 2014) instead of dualizing
all of C again. :func:`minimal_transversals` is the same fold over a
whole family of named sets.
"""
from __future__ import annotations

from typing import Iterable, Sequence


def is_transversal(d: frozenset, sets: Iterable[frozenset]) -> bool:
    """True iff ``d`` intersects every member of ``sets``."""
    return all(d & s for s in sets)


def berge_step(trs: list[int], s: int) -> list[int]:
    """Minimal transversals of a family plus ``s``, from the minimal
    transversals ``trs`` of the family (all sets as bitmasks).

    Transversals that hit ``s`` stay minimal. Every other ``t`` extends
    to the candidates ``t | x`` for each bit ``x`` of ``s``; such a
    candidate is non-minimal only if it contains a kept transversal
    ``h``, and since ``h`` hits ``s`` and ``t`` does not, ``h`` must
    contain ``x`` and have ``h & ~x`` inside ``t``. Two candidates never
    contain one another (their ``s``-bits would differ, or the two
    ``t`` would be nested minimal transversals), so no other check is
    needed. Folding ``s = 0`` leaves no transversal.
    """
    hit = [t for t in trs if t & s]
    miss = [t for t in trs if not t & s]
    out = list(hit)
    rest = s
    while rest:
        x = rest & -rest
        rest ^= x
        blockers = [h ^ x for h in hit if h & x]
        out.extend(t | x for t in miss if all(r & ~t for r in blockers))
    return out


def mask_order(n_bits: int):
    """Sort key on ``n_bits``-wide masks: by size, then by the tuple of
    set bit positions, ascending. With bit i standing for the i-th
    smallest element, this is the order (len, sorted elements).

    For two sets of one size, the smaller tuple is the one holding the
    lowest bit of their symmetric difference, i.e. the larger mask once
    its bits are reversed.
    """
    fmt = f"0{n_bits}b"

    def key(t: int) -> tuple[int, int]:
        return t.bit_count(), -int(format(t, fmt)[::-1], 2)

    return key


def minimal_transversals(sets: Sequence[frozenset]) -> list[frozenset]:
    """All minimal transversals of ``sets`` (Berge's algorithm).

    The empty family has the single transversal ``{}``. A family
    containing the empty set has no transversal (cannot be hit).
    Deterministic output order (by size, then sorted elements).
    """
    elems = sorted(frozenset().union(*sets))
    bit = {e: 1 << i for i, e in enumerate(elems)}
    trs = [0]
    for s in sets:
        trs = berge_step(trs, sum(bit[e] for e in s))
    trs.sort(key=mask_order(len(elems)))
    return [frozenset(e for e in elems if t & bit[e]) for t in trs]
