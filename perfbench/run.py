#!/usr/bin/env python3
"""Benchmark of the Maimon pipeline (MVDMiner, ASMiner, Spark quality).

Run from the root of a checkout::

    python3 perfbench/run.py --workload narrow_exact --seed 1 --seconds 30 --trace 0

It sets up the workload's inputs, then repeats the timed pipeline for at
most ``--seconds`` (at least once), checks every iteration's outputs
and prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics from wrappers
installed around the program's public functions (see tracing.py and
LAYERS.md). End-to-end times are reference seconds: wall seconds rescaled
by the host speed sampled during each timed region (see hostspeed.py).
Human-readable detail goes to stderr.

``--record`` rewrites ``reference/<workload>.json`` from one iteration on
the registry datasets; run it only on a commit whose outputs are trusted.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"  # Spark and temporary files
SETUP_REPEATS = 5  # set-ups per batch; see set_up() in measure()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["narrow_exact", "wide_first_seps", "nursery_pipeline"])
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the isomorphic copy of each dataset (rows, value labels)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--data-seed", type=int, default=None,
                   help="regenerate the datasets with this seed; checks invariants only")
    p.add_argument("--record", action="store_true",
                   help="rewrite the workload's reference outputs")
    return p.parse_args(argv)


def measure(wl, seconds: float, trace: bool):
    """Set up, run the timed loop, check; returns (iterations, setup, errors).

    Every time it returns is in reference seconds (see hostspeed.py)."""
    from hostspeed import HostClock
    from tracing import Tracer, TruncationProbe

    clock = HostClock().start()
    probe = TruncationProbe().install()
    tracer = Tracer().install() if trace else None
    try:
        once = wl.prepare(clock)
        setups = []

        def set_up():
            # Several set-ups before each iteration and one batch after the
            # loop spread the samples over the run, for a steadier median.
            for _ in range(SETUP_REPEATS):
                inputs = wl.setup(clock)
                setups.append((inputs.gen_s + inputs.build_s, inputs.gen_s, inputs.build_s))
            return inputs

        iterations = []
        start = perf_counter()
        while True:
            t_iter = perf_counter()
            inputs = set_up()
            gc.collect()
            if tracer is not None:
                tracer.reset()
            span = clock.span()
            it = wl.run(inputs, probe, clock)
            it.wall_s = span.stop()
            if tracer is not None:
                it.layers.update(tracer.layer_metrics(inputs.engines.values()))
                print(f"[perfbench] iteration {len(iterations)} spans:\n{tracer.table()}",
                      file=sys.stderr)
            iterations.append(it)
            # Start another iteration only if it should end within the
            # budget, so a run measures for at most ``seconds`` (at least
            # one iteration) and its length stays predictable.
            now = perf_counter()
            if now - start + (now - t_iter) > seconds:
                break
        set_up()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer is not None:
            tracer.uninstall()
        probe.uninstall()
        clock.stop()
    errors = wl.check(iterations, inputs)
    setup = {
        "setup_s": sum(once.values()) + statistics.median(s[0] for s in setups),
        "datasets.gen_s": statistics.median(s[1] for s in setups),
        "local_pli.build_s": statistics.median(s[2] for s in setups),
        "spark.start_s": once.get("spark.start_s", 0.0),
        "peak_rss_mb": peak_rss_mb,
    }
    return iterations, setup, errors


def metrics(spec: dict, iterations, setup: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json lists for this mode, with their units."""
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    values = {
        "setup_s": setup["setup_s"],
        "wall_s": statistics.median(it.wall_s for it in iterations),
        "mine_s": statistics.median(it.mine_s for it in iterations),
        "peak_rss_mb": setup["peak_rss_mb"],
        "completed_frac": 1.0 - failed / attempted,
    }
    if trace:
        layer_names = set().union(*(it.layers for it in iterations))
        values = {k: statistics.median(it.layers.get(k, 0.0) for it in iterations)
                  for k in layer_names}
        values.update({k: setup[k] for k in ("datasets.gen_s", "local_pli.build_s", "spark.start_s")})
    wanted = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no program to measure: {src / 'repro'} or BENCHMARK.json is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Keep every temporary file inside the checkout.
    tmp = WORKDIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    sys.path[:0] = [str(src), str(HERE)]

    from workloads import REFERENCE_DIR, WORKLOADS, NurseryPipeline

    cls = WORKLOADS[args.workload]
    kw = {"spark_dir": WORKDIR} if cls is NurseryPipeline else {}
    wl = cls(args.seed, args.data_seed, use_reference=not args.record, **kw)
    try:
        iterations, setup, errors = measure(wl, 0.0 if args.record else args.seconds,
                                            bool(args.trace))
    finally:
        wl.close()
    for e in errors:
        print(f"[perfbench] check failed: {e}", file=sys.stderr)
    if args.record and not errors:
        REFERENCE_DIR.mkdir(exist_ok=True)
        out = REFERENCE_DIR / f"{wl.name}.json"
        out.write_text(json.dumps(iterations[0].output, indent=1, sort_keys=True) + "\n")
        print(f"[perfbench] wrote {out}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(it.attempted for it in iterations),
        "failed": sum(it.failed for it in iterations),
        "metrics": metrics(spec, iterations, setup, bool(args.trace)),
    }
    print(f"[perfbench] {args.workload} seed={args.seed} iterations={len(iterations)} "
          f"wall_s={[round(it.wall_s, 3) for it in iterations]}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
