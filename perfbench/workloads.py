"""The benchmark's three workloads over the Maimon pipeline.

Each workload builds its inputs in :meth:`Workload.setup` (timed as set-up),
runs the pipeline once per :meth:`Workload.run` (timed as the iteration)
and checks every iteration's outputs in :meth:`Workload.check`, outside
the timed region.

Inputs. ``--seed`` makes an isomorphic copy of each registry dataset: the
rows are shuffled and every column's values are relabelled by a seeded
bijection. Entropies, and therefore every output and the amount of work,
are the same for every seed, so each seed is checked against the reference
outputs recorded in ``reference/``. ``--data-seed`` instead regenerates the
datasets themselves (``planted_relation`` / ``nursery(seed=)``); outputs are
then checked against invariants only (J <= eps + FLOAT_TOL for every
reported MVD and scheme, minimality of every separator).
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import pandas as pd

from repro import datasets
from repro.core import quality, schema_miner
from repro.core.miner import DeadlineReached, MVDMiner
from repro.entropy.base import FLOAT_TOL
from repro.entropy.local_pli import LocalPLIEngine

from hostspeed import HostClock

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ROWS_CAP = 2_000


def isomorphic_copy(pdf: pd.DataFrame, rng: np.random.Generator) -> pd.DataFrame:
    """``pdf`` with shuffled rows and each column relabelled by a bijection."""
    perm = rng.permutation(len(pdf))
    out = {}
    for c in pdf.columns:
        vals, codes = np.unique(pdf[c].to_numpy()[perm], return_inverse=True)
        out[c] = rng.permutation(vals)[codes]
    return pd.DataFrame(out)


@dataclass
class Inputs:
    frames: dict[str, pd.DataFrame]
    engines: dict[str, LocalPLIEngine]
    gen_s: float
    build_s: float


@dataclass
class Iteration:
    """One timed pass: its outputs and its operation counts."""

    output: dict  # JSON-able; compared with the reference
    mvds: dict = field(default_factory=dict)  # dataset -> [(eps, MVD)]
    mine_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    layers: dict = field(default_factory=dict)  # per-layer numbers it measured itself
    wall_s: float = 0.0


class Workload:
    name = ""
    datasets: tuple[str, ...] = ()

    def __init__(self, seed: int, data_seed: int | None, use_reference: bool = True):
        self.seed = seed
        self.data_seed = data_seed
        self.use_reference = use_reference and data_seed is None

    # -- inputs ------------------------------------------------------------
    def frame(self, name: str) -> pd.DataFrame:
        if name == "nursery":
            pdf = datasets.nursery() if self.data_seed is None else datasets.nursery(seed=self.data_seed)
        elif self.data_seed is None:
            pdf = datasets.load(name, rows_cap=ROWS_CAP)
        else:
            s = datasets.spec(name)
            pdf = datasets.planted_relation(s.n_cols, min(s.paper_rows, ROWS_CAP), seed=self.data_seed)
        rng = np.random.default_rng([self.seed, zlib.crc32(name.encode())])
        return isomorphic_copy(pdf, rng)

    def prepare(self, clock: HostClock) -> dict[str, float]:
        """Once-per-run set-up; returns its timings in reference seconds."""
        return {}

    def setup(self, clock: HostClock) -> Inputs:
        span = clock.span()
        frames = {n: self.frame(n) for n in self.datasets}
        gen_s = span.stop()
        span = clock.span()
        engines = {n: LocalPLIEngine(f) for n, f in frames.items()}
        return Inputs(frames, engines, gen_s, span.stop())

    def run(self, inputs: Inputs, probe, clock: HostClock) -> Iteration:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- checks ------------------------------------------------------------
    def reference(self) -> dict | None:
        if not self.use_reference:
            return None
        with open(REFERENCE_DIR / f"{self.name}.json") as f:
            return json.load(f)

    def check(self, iterations: list[Iteration], inputs: Inputs) -> list[str]:
        """Reference equality (or iteration-to-iteration determinism) plus
        J <= eps + FLOAT_TOL for every reported MVD, on a fresh engine.
        Returns one message per failed check."""
        ref = self.reference()
        errors = []
        for i, it in enumerate(iterations):
            expected = ref if ref is not None else iterations[0].output
            for key in expected:
                if not _close(it.output.get(key), expected[key]):
                    errors.append(f"iteration {i}: {key} differs from the "
                                  + ("reference" if ref is not None else "first iteration"))
        for name, mvds in iterations[0].mvds.items():
            engine = LocalPLIEngine(inputs.frames[name])
            for eps, m in mvds:
                j = engine.j_mvd(m)
                if j > eps + FLOAT_TOL:
                    errors.append(f"{name}: {m} has J={j:.3g} > eps={eps}")
        return errors


def _close(a, b) -> bool:
    """Structural equality with floats compared within FLOAT_TOL."""
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and abs(a - b) <= FLOAT_TOL
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def _failed(res_timed_out: bool, probe, truncations_before: int) -> int:
    """An operation fails if it timed out or truncated a getFullMVDs search."""
    return int(res_timed_out or probe.truncations > truncations_before)


def _count_results(it: Iteration, minseps: int, full_mvds: int) -> None:
    it.layers["miner.minseps"] = it.layers.get("miner.minseps", 0) + minseps
    it.layers["miner.full_mvds"] = it.layers.get("miner.full_mvds", 0) + full_mvds


# ---------------------------------------------------------------------------
class NarrowExact(Workload):
    """Full MVDMiner.mine() at eps=0 on the Table-2 analogs that finish."""

    name = "narrow_exact"
    datasets = ("echocardiogram", "image", "classification")

    def run(self, inputs: Inputs, probe, clock: HostClock) -> Iteration:
        it = Iteration(output={})
        for name in self.datasets:
            before = probe.truncations
            span = clock.span()
            res = MVDMiner(inputs.engines[name], 0.0).mine()
            it.mine_s += span.stop()
            it.output[name] = {
                "mvds": sorted(str(m) for m in res.full_mvds),
                "minseps": res.n_minseps,
            }
            it.mvds[name] = [(0.0, m) for m in res.full_mvds]
            _count_results(it, res.n_minseps, res.n_full_mvds)
            it.attempted += 1
            it.failed += _failed(res.timed_out, probe, before)
        return it


# ---------------------------------------------------------------------------
class EnoughSeparators(Exception):
    """Raised by :class:`FirstK` once it holds its quota."""


class FirstK(list):
    """A separator sink that stops MineMinSeps after ``k`` separators."""

    def __init__(self, k: int):
        super().__init__()
        self.k = k

    def append(self, sep) -> None:
        super().append(sep)
        if len(self) >= self.k:
            raise EnoughSeparators


class WideFirstSeps(Workload):
    """The first K minimal separators of one pair on two wide analogs."""

    name = "wide_first_seps"
    pairs = {"fd_reduced_30": ("C00", "C29"), "reflns": ("C00", "C26")}
    datasets = tuple(pairs)
    first_k = 5
    search_deadline_s = 60.0  # a guard only; the pair searches take seconds

    def run(self, inputs: Inputs, probe, clock: HostClock) -> Iteration:
        it = Iteration(output={})
        for name, (a, b) in self.pairs.items():
            miner = MVDMiner(inputs.engines[name], 0.0, deadline_s=self.search_deadline_s)
            sink = FirstK(self.first_k)
            before = probe.truncations
            timed_out = False
            span = clock.span()
            try:
                miner.mine_min_seps(a, b, sink=sink)
            except EnoughSeparators:
                pass
            except DeadlineReached:
                timed_out = True
            it.mine_s += span.stop()
            it.output[name] = [sorted(s) for s in sink]
            _count_results(it, len(sink), 0)
            it.attempted += 1
            it.failed += _failed(timed_out, probe, before)
        return it

    def check(self, iterations, inputs):
        """Each reported separator is a distinct minimal A,B-separator, and
        there are K of them (at most K on regenerated data). A reorder in
        dualization may legitimately change which K come first, so the
        lists are not compared with the reference."""
        ref = self.reference()
        errors = []
        verdicts: dict[tuple, str | None] = {}
        # A fresh miner per dataset, independent of the timed ones.
        judges = {n: MVDMiner(LocalPLIEngine(inputs.frames[n]), 0.0) for n in self.pairs}
        for i, it in enumerate(iterations):
            for name, (a, b) in self.pairs.items():
                seps = [frozenset(s) for s in it.output.get(name, [])]
                want = len(ref[name]) if ref is not None else None
                if (want is not None and len(seps) != want) or len(seps) > self.first_k:
                    errors.append(f"iteration {i}: {name} reported {len(seps)} separators, "
                                  f"expected {want or self.first_k}")
                if len(set(seps)) != len(seps):
                    errors.append(f"iteration {i}: {name} reported a separator twice")
                for s in seps:
                    if (name, s) not in verdicts:
                        verdicts[(name, s)] = _not_minimal(judges[name], s, a, b)
                    if verdicts[(name, s)]:
                        errors.append(f"iteration {i}: {name} {sorted(s)} {verdicts[(name, s)]}")
        return errors


def _not_minimal(judge: MVDMiner, sep: frozenset, a: str, b: str) -> str | None:
    """Why ``sep`` is not a minimal A,B-separator, or None if it is."""
    if not judge.separates(sep, a, b):
        return f"does not separate {a},{b}"
    for x in sorted(sep):
        if judge.separates(sep - {x}, a, b):
            return f"is not minimal: drop {x}"
    return None


# ---------------------------------------------------------------------------
class NurseryPipeline(Workload):
    """MVDMiner over the eps sweep, ASMiner, and Spark E/S on a J-stratified
    subset of the distinct schemes."""

    name = "nursery_pipeline"
    datasets = ("nursery",)
    eps_sweep = (0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
    max_schemas_per_eps = 200
    mine_deadline_s = 60.0  # as in experiments.nursery_usecase
    quality_schemes = 4

    def __init__(self, *a, spark_dir: Path, **kw):
        super().__init__(*a, **kw)
        self.spark_dir = spark_dir
        self.spark = None
        self.df = None
        self.n_rows = 0
        self.iteration = 0

    def prepare(self, clock: HostClock) -> dict[str, float]:
        """Start Spark, load the relation, and run one quality pass over
        :data:`WARMUP_SCHEMES` so JIT and codegen warm-up stay out of the
        timed iterations."""
        span = clock.span()
        self.spark = start_spark(self.spark_dir)
        start_s = span.stop()
        span = clock.span()
        self.df = self.spark.createDataFrame(self.frame("nursery")).persist()
        self.n_rows = self.df.count()
        load_s = span.stop()
        span = clock.span()
        self._quality(list(WARMUP_SCHEMES), Iteration(output={}))
        return {"spark.start_s": start_s, "spark.load_s": load_s,
                "quality.warmup_s": span.stop()}

    def close(self) -> None:
        if self.spark is not None:
            stop_spark(self.spark)
            self.spark = None

    def run(self, inputs: Inputs, probe, clock: HostClock) -> Iteration:
        engine = inputs.engines["nursery"]
        it = Iteration(output={"eps": {}})
        seen: dict[str, list] = {}
        for eps in self.eps_sweep:
            before = probe.truncations
            span = clock.span()
            res = MVDMiner(engine, eps, deadline_s=self.mine_deadline_s).mine()
            it.mine_s += span.stop()
            it.output["eps"][str(eps)] = {
                "mvds": sorted(str(m) for m in res.full_mvds),
                "minseps": res.n_minseps,
            }
            it.mvds.setdefault("nursery", []).extend((eps, m) for m in res.full_mvds)
            _count_results(it, res.n_minseps, res.n_full_mvds)
            it.attempted += 1
            it.failed += _failed(res.timed_out, probe, before)
            for schema in schema_miner.enumerate_schemas(
                res.full_mvds, engine.columns, max_schemas=self.max_schemas_per_eps
            ):
                key = scheme_name(schema.bags)
                if key not in seen:
                    j = engine.j_tree(list(schema.tree.bags), list(schema.tree.edges))
                    seen[key] = [eps, j]
        it.output["schemes"] = seen
        it.output["quality"] = self._quality(self.subset(seen), it)
        return it

    def subset(self, schemes: dict[str, list]) -> list[str]:
        """A fixed number of schemes spread evenly over the J order."""
        order = sorted(schemes, key=lambda k: (round(schemes[k][1], 9), k))
        if not order:
            return []
        idx = np.unique(np.linspace(0, len(order) - 1, self.quality_schemes).astype(int))
        return [order[i] for i in idx]

    def _quality(self, names: list[str], it: Iteration) -> dict[str, list]:
        sc = self.spark.sparkContext
        group = f"perfbench-quality-{self.iteration}"
        self.iteration += 1
        sc.setJobGroup(group, "quality")
        out = {}
        join_rows = 0
        t0 = perf_counter()
        for name in names:
            bags = [frozenset(p) for p in name.split(" / ")]
            it.attempted += 1
            try:
                e = quality.spurious_pct(self.df, bags, self.n_rows)
                s = quality.cell_savings_pct(self.df, bags, self.n_rows)
            except Exception:  # a failed scheme is a failed operation; go on
                traceback.print_exc(file=sys.stderr)
                it.failed += 1
                continue
            out[name] = [e, s]
            join_rows += round(self.n_rows * (1 + e / 100))
        it.layers["quality_s"] = perf_counter() - t0
        it.layers["quality.join_rows"] = join_rows
        it.layers["quality.spark_jobs"] = len(sc.statusTracker().getJobIdsForGroup(group))
        sc.setJobGroup(None, None)
        return out

    def check(self, iterations, inputs):
        errors = super().check(iterations, inputs)
        engine = LocalPLIEngine(inputs.frames["nursery"])
        for name, (_, j) in iterations[0].output["schemes"].items():
            fresh = engine.j_schema([frozenset(p) for p in name.split(" / ")])
            if abs(fresh - j) > FLOAT_TOL:
                errors.append(f"scheme {name}: J={j} but a fresh engine gives {fresh}")
        return errors


#: The schemes the quality subset held when the reference was recorded.
WARMUP_SCHEMES = (
    "ABCDEFGI / ABCDFGHI",
    "ABCDGI / ABCEGI / ACDGHI / F",
    "ADGI / AEGHI / AFGHI / BFGHI / CEI",
    "A / B / C / D / EHI / F / GHI",
)

SPARK_CORES = 4


def start_spark(workdir: Path):
    """A local SparkSession that keeps its files under ``workdir``."""
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cores = min(SPARK_CORES, os.cpu_count() or 1)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["SPARK_LOCAL_IP"] = "127.0.0.1"
    os.environ["PYSPARK_SUBMIT_ARGS"] = f"--master local[{cores}] --driver-memory 1g pyspark-shell"
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(workdir / "spark-local"))
        .config("spark.sql.warehouse.dir", str(workdir / "spark-warehouse"))
        # the same session settings as the test suite's fixture
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for its JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def scheme_name(bags) -> str:
    return " / ".join("".join(sorted(b)) for b in bags)


WORKLOADS = {w.name: w for w in (NarrowExact, WideFirstSeps, NurseryPipeline)}
