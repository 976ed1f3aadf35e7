"""MVDMiner: discovery of eps-MVDs with minimal separators (Sec. 6).

Implements Figures 3-6 of the paper plus the appendix optimization
(Figs 16/17):

- :meth:`MVDMiner.mine_min_seps` -- MineMinSeps (Fig 5): the Gunopulos
  "dualize and advance" loop. Maintain the family C of known minimal
  A,B-separators; repeatedly take a minimal transversal D of C and test
  whether the complement of D separates A,B; if so, reduce it to a new
  minimal separator (Theorem 6.1 guarantees completeness). The minimal
  transversals of C are kept between passes and each new separator is
  folded in with one Berge step.
- :meth:`MVDMiner.reduce_min_sep` -- ReduceMinSep (Fig 4): greedy
  shrink under a fixed global attribute ordering (the completeness
  proof of Theorem 6.2 requires the ordering to be the same across
  calls).
- :meth:`MVDMiner.get_full_mvds` -- getFullMVDs (Fig 6) as a DFS over
  dependent-merges starting from the all-singleton MVD, with the
  pairwise-consistency closure of Fig 16 as sound-and-complete pruning:
  if I(Ci;Cj|S) > eps then *every* satisfying coarsening merges Ci and
  Cj (I is monotone under grouping and bounded by J), so the merge can
  be applied eagerly.

Deviations from the pseudocode, documented in DESIGN.md: a visited set
over canonical partitions (the merge graph is a DAG), and a post-filter
dropping returned MVDs strictly refined by other returned MVDs (the
paper's traversal can emit non-full satisfying MVDs).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from repro.core.mvd import MVD
from repro.entropy.base import FLOAT_TOL, EntropyEngine
from repro.hypergraph.transversal import berge_step, mask_order


class DeadlineReached(Exception):
    """Raised internally when the cooperative time budget is exhausted."""


class Deadline:
    """Cooperative wall-clock budget (the paper's TL, scaled down)."""

    def __init__(self, seconds: float | None):
        self.seconds = seconds
        self._t0 = time.monotonic()

    def expired(self) -> bool:
        return self.seconds is not None and (time.monotonic() - self._t0) > self.seconds

    def check(self) -> None:
        if self.expired():
            raise DeadlineReached()


@dataclass
class MinerResult:
    """Output of a mining run; partial if ``timed_out`` or ``truncated``."""

    epsilon: float
    minseps: dict[tuple[str, str], list[frozenset]] = field(default_factory=dict)
    full_mvds: list[MVD] = field(default_factory=list)
    timed_out: bool = False
    #: Some getFullMVDs search stopped at ``max_nodes_per_search`` with
    #: partial results, so a separator test may have answered False.
    truncated: bool = False
    elapsed: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def n_minseps(self) -> int:
        return sum(len(v) for v in self.minseps.values())

    @property
    def n_full_mvds(self) -> int:
        return len(self.full_mvds)


#: A DFS node: the dependents of an MVD as bitmasks, in canonical order.
_Node = tuple[int, ...]


def _canon(parts: Iterable[int]) -> _Node:
    """Order disjoint parts by their lowest bit, i.e. by their smallest
    name (the engine numbers bits in sorted column order)."""
    return tuple(sorted(parts, key=lambda p: p & -p))


def _bits(m: int) -> list[int]:
    """The single-bit masks of ``m``, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low)
        m ^= low
    return out


class MVDMiner:
    """Mines ``M_eps`` (Eq. 11) over one relation via an entropy engine.

    Attribute sets are int bitmasks of the engine (:meth:`EntropyEngine.mask`)
    inside the miner; its public methods take and return column names.
    """

    def __init__(
        self,
        engine: EntropyEngine,
        epsilon: float,
        *,
        optimized: bool = True,
        max_nodes_per_search: int = 50_000,
        deadline_s: float | None = None,
    ):
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        self.engine = engine
        self.eps = float(epsilon)
        # All threshold comparisons use eps + FLOAT_TOL (see entropy.base).
        # As eps_eff > 0, the miner tests I > eps_eff on the raw entropy
        # sum; clamping I at 0 first would not change the answer.
        self.eps_eff = self.eps + FLOAT_TOL
        self.optimized = optimized
        self.max_nodes = max_nodes_per_search
        self.deadline = Deadline(deadline_s)
        self._sep_memo: dict[tuple[int, str, str], bool] = {}
        # Fixed global ordering p used by ReduceMinSep (Theorem 6.2).
        self.ordering: tuple[str, ...] = tuple(sorted(engine.columns))
        self._all = engine.mask(engine.columns)
        self.nodes_explored = 0
        self.truncated_searches = 0  # searches cut off by max_nodes

    # ------------------------------------------------------------------
    # getFullMVDs (Fig 6 / Fig 17)
    # ------------------------------------------------------------------
    def _closure(
        self, key: int, parts: list[int], ab: int, known: set | None = None
    ) -> _Node | None:
        """Pairwise-consistency closure (Fig 16): merge every dependent
        pair with I(Ci;Cj|key) > eps; None if a merged part holds both
        bits of ``ab`` (the A,B pair; 0 for none).

        The scan merges the first dependent pair in list order into the
        earlier part and starts over, so a part keeps growing and later
        tests ask the oracle for larger, cheaper-to-compose attribute
        sets. ``known`` holds pairs (earlier, later) of parts already
        found independent, e.g. the untouched parts of a DFS parent; a
        rescan skips them, so it costs set lookups, not entropy sums.
        """
        h = self.engine.h
        eps = self.eps_eff
        hk = h(key)
        parts = list(parts)
        hs = [h(key | p) for p in parts]
        known = set() if known is None else known
        i = 0
        while i < len(parts):
            pi, hi = parts[i], hs[i]
            for j in range(i + 1, len(parts)):
                pj = parts[j]
                if (pi, pj) in known:
                    continue
                hij = h(key | pi | pj)
                # I(pi;pj|key), summed in the order of EntropyEngine.mutual_info
                if hi + hs[j] - hij - hk > eps:
                    merged = pi | pj
                    if ab and merged & ab == ab:
                        return None
                    parts[i], hs[i] = merged, hij
                    del parts[j], hs[j]
                    i = 0
                    break
                known.add((pi, pj))
            else:
                i += 1
        return _canon(parts)

    def _search(self, key: int, ab: int, k: float) -> list[_Node]:
        """The DFS of getFullMVDs on bitmasks: up to ``k`` satisfying
        nodes with key ``key`` whose parts keep the bits of ``ab`` apart."""
        singles = _bits(self._all & ~key)
        if len(singles) < 2:
            return []
        root: _Node | None = tuple(singles)
        if self.optimized:
            root = self._closure(key, singles, ab)
            if root is None or len(root) < 2:
                return []
        j_masks = self.engine.j_masks
        found: list[_Node] = []
        visited: set[_Node] = {root}
        stack: list[_Node] = [root]
        nodes = 0
        while stack and len(found) < k:
            self.deadline.check()
            nodes += 1
            self.nodes_explored += 1
            if nodes > self.max_nodes:
                self.truncated_searches += 1
                break  # search budget; partial results, see MinerResult.truncated
            parts = stack.pop()
            if j_masks(key, parts) <= self.eps_eff:
                found.append(parts)
                continue
            m = len(parts)
            if m < 3:
                continue  # a merge would leave a single dependent
            for i in range(m):
                for j in range(i + 1, m):
                    merged = parts[i] | parts[j]
                    if ab and merged & ab == ab:
                        continue  # never merge A's and B's components
                    others = [p for t, p in enumerate(parts) if t != i and t != j]
                    child = _canon(others + [merged])
                    if self.optimized:
                        # ``parts`` is a closure, so ``others`` are pairwise independent.
                        child = self._closure(key, child, ab, set(combinations(others, 2)))
                        if child is None or len(child) < 2:
                            continue
                    if child not in visited:
                        visited.add(child)
                        stack.append(child)
        return found

    def get_full_mvds(
        self,
        key: frozenset,
        pair: tuple[str, str] | None = None,
        k: float = math.inf,
        *,
        prune_nonfull: bool = True,
    ) -> list[MVD]:
        """Up to ``k`` full eps-MVDs with key ``key`` (separating ``pair``).

        ``prune_nonfull`` drops a returned MVD strictly refined by another
        returned one; :meth:`separates` needs only whether one exists.
        """
        key = frozenset(key)
        if pair is not None and (pair[0] in key or pair[1] in key):
            raise ValueError("pair attributes must not be in the key")
        eng = self.engine
        found = self._search(eng.mask(key), 0 if pair is None else eng.mask(pair), k)
        mvds = [MVD.of(key, [eng.names(p) for p in parts]) for parts in found]
        if prune_nonfull and len(mvds) > 1:
            mvds = [
                m for m in mvds if not any(o.strictly_refines(m) for o in mvds)
            ]
        return sorted(mvds, key=str)

    # ------------------------------------------------------------------
    # separator predicate (Def. 5.5), memoized
    # ------------------------------------------------------------------
    def separates(self, x: Iterable[str], a: str, b: str) -> bool:
        x = frozenset(x)
        eng = self.engine
        xm = eng.mask(x)
        memo_key = (xm, a, b) if a < b else (xm, b, a)
        hit = self._sep_memo.get(memo_key)
        if hit is not None:
            return hit
        # Necessary condition (Prop. 5.1): I(A;B|X) <= J of any separating MVD.
        h = eng.h
        am, bm = eng.bit[a], eng.bit[b]
        if h(xm | am) + h(xm | bm) - h(xm | am | bm) - h(xm) > self.eps_eff:
            ans = False
        else:
            ans = bool(self.get_full_mvds(x, (a, b), k=1, prune_nonfull=False))
        self._sep_memo[memo_key] = ans
        return ans

    # ------------------------------------------------------------------
    # ReduceMinSep (Fig 4)
    # ------------------------------------------------------------------
    def reduce_min_sep(self, x: Iterable[str], a: str, b: str) -> frozenset:
        """Greedily shrink a separator to a minimal one, scanning the
        fixed global ordering."""
        s = set(x)
        for attr in self.ordering:
            if attr not in s:
                continue
            self.deadline.check()
            if self.separates(frozenset(s - {attr}), a, b):
                s.remove(attr)
        return frozenset(s)

    # ------------------------------------------------------------------
    # MineMinSeps (Fig 5)
    # ------------------------------------------------------------------
    def mine_min_seps(
        self, a: str, b: str, sink: list[frozenset] | None = None
    ) -> list[frozenset]:
        """All minimal A,B-separators. ``sink`` (if given) receives each
        separator as soon as it is discovered, so deadline aborts still
        report partial progress."""
        c: list[frozenset] = sink if sink is not None else []
        eng = self.engine
        universe = frozenset(set(eng.columns) - {a, b})
        if not self.separates(universe, a, b):
            return c
        c.append(self.reduce_min_sep(universe, a, b))
        u = eng.mask(universe)
        order = mask_order(len(eng.columns))
        # Minimal transversals of c[:folded], kept between passes: each
        # pass folds in only the separators found since the last one.
        trs: list[int] = [0]
        folded = 0
        processed: set[int] = set()
        while True:
            for sep in c[folded:]:
                trs = berge_step(trs, eng.mask(sep))
            folded = len(c)
            trs.sort(key=order)
            progressed = False
            for d in trs:
                self.deadline.check()
                if d in processed:
                    continue
                processed.add(d)
                comp = eng.names(u & ~d)
                if self.separates(comp, a, b):
                    x = self.reduce_min_sep(comp, a, b)
                    if x not in c:
                        c.append(x)
                        progressed = True
                        break
            if not progressed:
                return c

    # ------------------------------------------------------------------
    # MVDMiner main loop (Fig 3)
    # ------------------------------------------------------------------
    def mine(
        self,
        pairs: Sequence[tuple[str, str]] | None = None,
        *,
        minseps_only: bool = False,
    ) -> MinerResult:
        """Run the full miner; returns partial results on deadline (see
        ``MinerResult.timed_out`` and ``MinerResult.truncated``)."""
        t0 = time.monotonic()
        truncated_before = self.truncated_searches
        res = MinerResult(epsilon=self.eps)
        if pairs is None:
            pairs = list(combinations(sorted(self.engine.columns), 2))
        seen: set[MVD] = set()
        try:
            for a, b in pairs:
                sink: list[frozenset] = []
                res.minseps[(a, b)] = sink
                self.mine_min_seps(a, b, sink=sink)
                if minseps_only:
                    continue
                for x in sink:
                    for m in self.get_full_mvds(x, (a, b)):
                        if m not in seen:
                            seen.add(m)
                            res.full_mvds.append(m)
        except DeadlineReached:
            res.timed_out = True
        res.truncated = self.truncated_searches > truncated_before
        res.elapsed = time.monotonic() - t0
        res.stats = {
            "nodes_explored": self.nodes_explored,
            "truncated_searches": self.truncated_searches,
            **self.engine.cache_info(),
        }
        return res

