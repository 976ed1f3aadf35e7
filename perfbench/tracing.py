"""Wrappers the benchmark installs around the pipeline's public functions.

Nothing in ``src/`` is edited: a :class:`Tracer` replaces module and class
attributes with wrappers that count calls and time spans, and puts the
originals back on :meth:`Tracer.uninstall`. Spans are aggregated in memory
per name (calls, total time, self time = total minus time in child spans)
instead of being stored one by one, because the hot oracle paths make
millions of calls per run.

Names imported into another module (``minimal_transversals`` in
``repro.core.miner``, ``compatible`` and friends in
``repro.core.schema_miner``, ``build_join_tree`` in ``repro.core.quality``)
are wrapped in the namespace that calls them, since that is where the name
is looked up at call time.

:class:`TruncationProbe` is the one wrapper the untraced run also installs:
it counts getFullMVDs searches that stopped at the miner's node budget,
which the program itself does not report.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter


_DONE = object()


def _patch(owner, attr: str, make, undo: list) -> None:
    """Replace ``owner.attr`` with ``make(original)``; skip missing names."""
    orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if orig is None:
        print(f"[perfbench] {getattr(owner, '__name__', owner)}.{attr} not found; "
              "its layer metrics read 0", file=sys.stderr)
        return
    setattr(owner, attr, make(orig))
    undo.append((owner, attr, orig))


def _restore(undo: list) -> None:
    while undo:
        owner, attr, orig = undo.pop()
        setattr(owner, attr, orig)


class TruncationProbe:
    """Counts ``get_full_mvds`` calls that explored more nodes than
    ``max_nodes_per_search``: the search broke off with partial results."""

    def __init__(self):
        self.truncations = 0
        self._undo: list = []

    def install(self) -> "TruncationProbe":
        from repro.core import miner

        def make(fn):
            @functools.wraps(fn)
            def get_full_mvds(m, *a, **kw):
                before = m.nodes_explored
                try:
                    return fn(m, *a, **kw)
                finally:
                    if m.nodes_explored - before > m.max_nodes:
                        self.truncations += 1
            return get_full_mvds

        _patch(miner.MVDMiner, "get_full_mvds", make, self._undo)
        return self

    def uninstall(self) -> None:
        _restore(self._undo)


class Tracer:
    """Aggregated spans and counters for one traced run."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span name, seconds spent in children]
        self._sep_keys: dict = {}  # miner -> separator-test keys seen so far
        self._undo: list = []

    def reset(self) -> None:
        """Start a new iteration's numbers (wrappers stay installed)."""
        for rec in self.spans.values():
            rec[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self._sep_keys.clear()

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    # -- wrappers --------------------------------------------------------
    # The enter/leave steps are inlined: the oracle wrappers run millions
    # of times per iteration and their cost is the tracing overhead.
    def span(self, name: str, after=None):
        """Wrapper factory timing each call; ``after(args, kwargs, result)``
        may record counts from the call."""
        stack = self._stack
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*a, **kw):
                frame = [name, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    out = fn(*a, **kw)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[1]
                    if stack:
                        stack[-1][1] += dt
                if after is not None:
                    after(a, kw, out)
                return out
            return wrapper
        return make

    def gen_span(self, name: str, item_count: str):
        """Wrapper factory for generator functions: times each step as a
        span and counts the items yielded under ``item_count``."""
        step = self.span(name)(next)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*a, **kw):
                it = fn(*a, **kw)
                for item in iter(lambda: step(it, _DONE), _DONE):
                    self.counts[item_count] += 1
                    yield item
            return wrapper
        return make

    def counter(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*a, **kw):
                self.counts[name] += 1
                return fn(*a, **kw)
            return wrapper
        return make

    # -- installation ------------------------------------------------------
    def install(self) -> "Tracer":
        from repro.core import miner, quality, schema_miner
        from repro.entropy import base, local_pli

        u = self._undo
        cnt = self.counts
        # entropy oracle: memo layer (derived measures) and misses
        _patch(base.EntropyEngine, "mutual_info", self.span("entropy.mutual_info"), u)
        _patch(base.EntropyEngine, "j_parts", self.span("entropy.j_parts"), u)
        _patch(base.EntropyEngine, "j_tree", self.span("entropy.j_tree"), u)
        _patch(local_pli.LocalPLIEngine, "_entropy", self.span("entropy.miss"), u)
        _patch(local_pli.LocalPLIEngine, "partition", self.counter("local_pli.partition_calls"), u)
        _patch(local_pli, "_combine", self.counter("local_pli.combines"), u)

        # hypergraph dualization, in the miner's namespace
        def transversal_sizes(a, kw, out):
            cnt["transversal.input_sets"] += len(a[0])
            cnt["transversal.output"] += len(out)

        _patch(miner, "minimal_transversals", self.span("transversal", transversal_sizes), u)

        # MVDMiner
        _patch(miner.MVDMiner, "mine", self.span("miner.mine"), u)
        _patch(miner.MVDMiner, "reduce_min_sep", self.span("miner.reduce"), u)
        _patch(miner.MVDMiner, "mine_min_seps", self._mine_min_seps_span(), u)
        _patch(miner.MVDMiner, "separates", self._separates_span(), u)
        _patch(miner.MVDMiner, "get_full_mvds", self._full_mvds_span(), u)

        # ASMiner, in the schema miner's namespace
        _patch(schema_miner, "enumerate_schemas",
               self.gen_span("schema_miner.enumerate", "schema_miner.emitted"), u)
        _patch(schema_miner, "compatible", self.span("schema_miner.compat"), u)
        _patch(schema_miner, "maximal_independent_sets", self.gen_span("mis", "mis.sets"), u)
        _patch(schema_miner, "build_acyclic_schema", self.span("schema_miner.build"), u)
        _patch(schema_miner, "build_join_tree", self.span("jointree.build"), u)

        # quality (Spark)
        _patch(quality, "build_join_tree", self.span("jointree.build"), u)
        _patch(quality, "spurious_pct", self.span("quality.spurious"), u)
        _patch(quality, "cell_savings_pct", self.span("quality.savings"), u)
        return self

    def uninstall(self) -> None:
        _restore(self._undo)

    def _mine_min_seps_span(self):
        timed = self.span("miner.mine_min_seps")

        def make(fn):
            inner = timed(fn)

            @functools.wraps(fn)
            def mine_min_seps(m, a, b, sink=None):
                sink = [] if sink is None else sink
                try:
                    return inner(m, a, b, sink=sink)
                finally:
                    self.counts["miner.minseps_found"] += len(sink)
            return mine_min_seps
        return make

    def _separates_span(self):
        timed = self.span("miner.separates")

        def make(fn):
            inner = timed(fn)

            @functools.wraps(fn)
            def separates(m, x, a, b):
                x = frozenset(x)
                key = (x, a, b) if a < b else (x, b, a)
                seen = self._sep_keys.setdefault(m, set())
                if key in seen:
                    self.counts["miner.separates_memo_hits"] += 1
                seen.add(key)
                if self.parent() == "miner.mine_min_seps":
                    self.counts["miner.complements_tested"] += 1
                return inner(m, x, a, b)
            return separates
        return make

    def _full_mvds_span(self):
        timed = self.span("miner.fullmvd")

        def make(fn):
            inner = timed(fn)

            @functools.wraps(fn)
            def get_full_mvds(m, *a, **kw):
                before = m.nodes_explored
                try:
                    return inner(m, *a, **kw)
                finally:
                    nodes = m.nodes_explored - before
                    self.counts["miner.dfs_nodes"] += nodes
                    if nodes > m.max_nodes:
                        self.counts["miner.truncated_searches"] += 1
            return get_full_mvds
        return make

    # -- report --------------------------------------------------------------
    def layer_metrics(self, engines) -> dict[str, float]:
        """The per-layer metrics of one iteration. ``engines`` are the
        entropy engines the iteration used (their own call counters)."""
        c, tot, slf, n = self.counts, self.total, self.self_s, self.calls
        calls = sum(e.entropy_calls for e in engines)
        comps = sum(e.entropy_computations for e in engines)
        tested = c["miner.complements_tested"]
        sets = c["mis.sets"]
        return {
            "entropy.calls": calls,
            "entropy.computations": comps,
            "entropy.hit_rate": 1.0 - comps / calls if calls else 0.0,
            "entropy.miss_s": tot("entropy.miss"),
            "entropy.self_s": slf("entropy.mutual_info") + slf("entropy.j_parts")
            + slf("entropy.j_tree"),
            "entropy.mutual_info_calls": n("entropy.mutual_info"),
            "entropy.j_parts_calls": n("entropy.j_parts"),
            "local_pli.partition_calls": c["local_pli.partition_calls"],
            "local_pli.combines": c["local_pli.combines"],
            "local_pli.combines_per_computation": c["local_pli.combines"] / comps if comps else 0.0,
            "transversal.calls": n("transversal"),
            "transversal.self_s": slf("transversal"),
            "transversal.input_sets": c["transversal.input_sets"],
            "transversal.output": c["transversal.output"],
            "miner.separates_calls": n("miner.separates"),
            "miner.separates_memo_hits": c["miner.separates_memo_hits"],
            "miner.separates_self_s": slf("miner.separates"),
            "miner.reduce_calls": n("miner.reduce"),
            "miner.complements_tested": tested,
            "miner.new_sep_ratio": c["miner.minseps_found"] / tested if tested else 0.0,
            "miner.fullmvd_searches": n("miner.fullmvd"),
            "miner.dfs_nodes": c["miner.dfs_nodes"],
            "miner.fullmvd_self_s": slf("miner.fullmvd"),
            "miner.truncated_searches": c["miner.truncated_searches"],
            "schema_miner.compat_calls": n("schema_miner.compat"),
            "schema_miner.compat_s": tot("schema_miner.compat"),
            "mis.sets": sets,
            "mis.self_s": slf("mis"),
            "schema_miner.build_calls": n("schema_miner.build"),
            "schema_miner.build_s": tot("schema_miner.build"),
            "schema_miner.emitted": c["schema_miner.emitted"],
            "schema_miner.emit_ratio": c["schema_miner.emitted"] / sets if sets else 0.0,
            "jointree.build_s": tot("jointree.build"),
            "quality.spurious_s": slf("quality.spurious"),
            "quality.savings_s": slf("quality.savings"),
        }

    def table(self) -> str:
        """Every span by self time, for the human reading stderr."""
        lines = [f"{'span':<28}{'calls':>10}{'total_s':>10}{'self_s':>10}"]
        for k, (calls, total, self_s) in sorted(self.spans.items(), key=lambda kv: -kv[1][2]):
            if calls:
                lines.append(f"{k:<28}{calls:>10}{total:>10.3f}{self_s:>10.3f}")
        return "\n".join(lines)
