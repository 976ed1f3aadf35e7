"""Driver-side PLI-cache entropy engine (the miner's hot-loop oracle).

This mirrors the paper's Sec. 6.3 architecture: one scan over the data
produces, per attribute, a *stripped partition* (value groups of size
>= 2; singleton groups are dropped because ``1 * log 1 = 0`` in Eq. 5).
Partitions for attribute sets are composed by intersecting row-group
labels -- the numpy analog of the paper's ``TID`` join on tuple ids in
the in-memory H2 database. Composed partitions are LRU-cached by sorted
attribute prefix, so the miner's many correlated queries (``H(X)``,
``H(XY)``, ``H(XYZ)`` ...) share work.

Representation: a partition of attribute set ``a`` is an int array of
length N mapping each row to its value-group id, with ``-1`` for rows
whose value is a singleton (pruned). ``None`` stands for the all-
singleton partition (every row distinct on ``a``), which absorbs any
further composition -- the compressed fixpoint the paper relies on.
"""
from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional

import numpy as np
import pandas as pd

from repro.entropy.base import EntropyEngine, entropy_from_group_sizes

# (codes or None, n_groups, non-singleton group sizes or None)
_Partition = tuple[Optional[np.ndarray], int, Optional[np.ndarray]]

_ALL_SINGLETON: _Partition = (None, 0, None)


def _strip(codes: np.ndarray, counts: np.ndarray) -> _Partition:
    """Renumber groups, mapping groups of size < 2 to -1 (pruned)."""
    keep = counts >= 2
    k = int(keep.sum())
    if k == 0:
        return _ALL_SINGLETON
    remap = np.full(len(counts), -1, dtype=np.int64)
    remap[keep] = np.arange(k)
    return remap[codes].astype(np.int32), k, counts[keep].astype(np.int64)


def _factorize_strip(values: np.ndarray) -> _Partition:
    codes, _ = pd.factorize(values, use_na_sentinel=False)
    counts = np.bincount(codes)
    return _strip(codes, counts)


def _combine(p1: _Partition, p2: _Partition) -> _Partition:
    """Partition of a union from the partitions of two disjoint sets."""
    c1, n1, _ = p1
    c2, n2, _ = p2
    if c1 is None or c2 is None:
        return _ALL_SINGLETON
    valid = (c1 >= 0) & (c2 >= 0)
    if not valid.any():
        return _ALL_SINGLETON
    pair = c1[valid].astype(np.int64) * n2 + c2[valid]
    codes, _ = pd.factorize(pair)
    sub, k, counts = _strip(codes, np.bincount(codes))
    if sub is None:
        return _ALL_SINGLETON
    out = np.full(c1.shape, -1, dtype=np.int32)
    out[valid] = sub
    return out, k, counts


class LocalPLIEngine(EntropyEngine):
    """Entropy oracle over an in-memory (pandas) snapshot of a relation.

    ``cache_bytes`` bounds the memory spent on composed partitions
    (base single-attribute partitions are always kept).
    """

    def __init__(
        self,
        pdf: pd.DataFrame,
        columns: Iterable[str] | None = None,
        *,
        cache_bytes: int = 1 << 30,
    ):
        cols = tuple(columns) if columns is not None else tuple(pdf.columns)
        super().__init__(cols, len(pdf))
        self._order = {c: i for i, c in enumerate(cols)}
        self._base: dict[str, _Partition] = {
            c: _factorize_strip(pdf[c].to_numpy()) for c in cols
        }
        self._parts: OrderedDict[tuple, _Partition] = OrderedDict()
        row_bytes = 4 * max(1, self.n_rows)
        self._max_entries = max(8, cache_bytes // row_bytes)

    @classmethod
    def from_spark(cls, df, columns: Iterable[str] | None = None, **kw) -> "LocalPLIEngine":
        """Build from a Spark DataFrame via one distributed collect.

        This is the reproduction's analog of the paper's single pass that
        feeds the main-memory H2 store: Spark performs the scan/transfer
        (Arrow-accelerated), the lattice lives on the driver.
        """
        cols = list(columns) if columns is not None else list(df.columns)
        return cls(df.select(*cols).toPandas(), cols, **kw)

    # -- partition lattice ---------------------------------------------
    def _key(self, fs: frozenset) -> tuple:
        return tuple(sorted(fs, key=self._order.__getitem__))

    def partition(self, cols: Iterable[str]) -> _Partition:
        key = self._key(frozenset(cols))
        if not key:
            raise ValueError("empty attribute set has no partition")
        if len(key) == 1:
            return self._base[key[0]]
        hit = self._parts.get(key)
        if hit is not None:
            self._parts.move_to_end(key)
            return hit
        prefix = self.partition(key[:-1])
        part = _combine(prefix, self._base[key[-1]])
        self._parts[key] = part
        while len(self._parts) > self._max_entries:
            self._parts.popitem(last=False)
        return part

    # -- oracle ---------------------------------------------------------
    def _entropy(self, cols: frozenset) -> float:
        _, _, counts = self.partition(cols)
        if counts is None:
            return self.log2_n
        return entropy_from_group_sizes(counts.tolist(), self.n_rows)
