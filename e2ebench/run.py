"""End-to-end benchmark of the reproduction pipeline: cold study workloads.

Run from the repository root::

    python3 e2ebench/run.py --workload levels-zk --seed 1 --seconds 25 --trace 0

Every run of a workload is *cold*, as on a user's first regeneration: a fresh
interpreter process, one :class:`ExperimentEngine` with ``workers = min(2,
nproc)`` and an empty cache directory under ``e2ebench/out/``.

``--trace 0`` makes cold runs one after another while one more still fits in
``--seconds`` (at least one) and reports the end-to-end metrics: the median
wall time of a run, the median set-up time (imports + engine construction
before the first job; set-up-only processes top the samples up to three) and
the median peak RSS of a run's process and its workers.

``--trace 1`` makes three cold runs of the same seed: untraced with the
worker pool, then, side by side, serial with layer counters only and serial
with spans around every layer's entry point.  It reports the per-layer
breakdown of the traced run, writes its spans to ``e2ebench/out/`` (plain
JSON and Chrome trace), and checks that all three runs produced the same
results and counts.

Every run checks the guest outputs against ``expected_outputs.json`` and
fuzz verdicts against the IR interpreter, and repeated runs of one seed must
agree exactly.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up samples per ``--trace 0`` run (one per cold run, topped up).
SETUP_SAMPLES = 3
WORKERS = min(2, os.cpu_count() or 1)
#: Every invocation must finish within this many seconds.
BUDGET_S = 170.0

#: Workload output counts, reported per layer as ``result.<name>`` (0 where
#: the workload does not produce the number).
RESULT_COUNTS = {
    "risc0_cycles_geomean": "cycles", "sp1_cycles_geomean": "cycles",
    "code_bytes_rvc_geomean": "bytes", "x86_time_geomean": "s",
    "tuned_cycles_geomean": "cycles",
}

#: Per-layer metrics that are not span self times or layer counters.
RUN_METRICS = {
    "unattributed.s": "s", "traced_wall_s": "s", "serial_wall_s": "s",
    "parallel_wall_s": "s", "tracing.overhead_s": "s",
    "emulator.minstr_per_s": "Minstr/s",
    "experiments.engine.parallel_efficiency": "ratio",
    "experiments.engine.computed": "count",
    "experiments.engine.memory_hits": "count",
    "experiments.engine.retries": "count",
    "experiments.engine.timeouts": "count",
    "experiments.cache.misses": "count",
    "experiments.cache.disk_hits": "count",
}


# -- one cold run (child process) -------------------------------------------------
def setup(workload: str, workers: int):
    """Imports, registries, a fresh cache directory and the engine.

    Returns ``(seconds, engine, cache_dir)``.
    """
    from workloads import MAX_INSTRUCTIONS, WORKLOADS

    start = time.perf_counter()
    importlib.import_module(WORKLOADS[workload].module)
    from repro.benchmarks import all_benchmark_names
    from repro.experiments.engine import ExperimentEngine
    from repro.passes import available_passes

    all_benchmark_names()   # loads the benchmark registry
    available_passes()      # loads the pass registry
    OUT.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=OUT))
    engine = ExperimentEngine(max_instructions=MAX_INSTRUCTIONS,
                              workers=workers, cache_dir=cache_dir,
                              translate=WORKLOADS[workload].translate)
    return time.perf_counter() - start, engine, cache_dir


def peak_rss_mb() -> float:
    """Peak resident set of this process or any of its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cold_run(workload_name: str, seed: int, mode: str) -> dict:
    """One cold run in this process; the report the parent process reads.

    ``mode`` is ``parallel`` (untraced, worker pool), ``counted`` (serial,
    layer counters only), ``traced`` (serial, spans) or ``setup`` (set-up
    only).
    """
    import layers
    from spans import Tracer, write_traces
    from workloads import WORKLOADS, load_expected

    setup_s, engine, cache_dir = setup(
        workload_name, WORKERS if mode in ("parallel", "setup") else 1)
    report = {"setup_s": setup_s}
    if mode == "setup":
        engine.close()
        shutil.rmtree(cache_dir, ignore_errors=True)
        return report

    workload = WORKLOADS[workload_name]
    tracer = None if mode == "parallel" else Tracer(timing=mode == "traced")
    if tracer is not None:
        layers.install(tracer)
    try:
        start = time.perf_counter()
        raw = workload.execute(engine, seed)
        engine.close()
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.unpatch()
    stats = engine.stats.as_dict()
    cache_stats = engine.cache.stats.as_dict()
    outcome = workload.summarize(engine, raw, load_expected())
    shutil.rmtree(cache_dir, ignore_errors=True)
    if stats["disk_hits"]:
        outcome.problems.append(f"{stats['disk_hits']} disk-cache hits in a cold run")
        outcome.failed += 1
    result = json.dumps(outcome.result, sort_keys=True)
    report.update({
        "wall_s": wall, "peak_rss_mb": peak_rss_mb(),
        "attempted": outcome.attempted, "failed": outcome.failed,
        "problems": outcome.problems,
        "result_sha256": hashlib.sha256(result.encode()).hexdigest(),
        "counts": outcome.counts,
        "engine": stats, "cache": cache_stats,
    })
    if tracer is not None:
        report["problems"] += tracer.problems
        report["layer_counts"] = {name: tracer.counts.get(name, 0)
                                  for name in layers.COUNT_METRICS}
    if mode == "traced":
        report["layers"] = layers.layer_metrics(tracer, wall)
        paths = write_traces(tracer.spans, start, OUT,
                             f"{workload_name}-seed{seed}")
        report["trace_files"] = [str(p.relative_to(ROOT)) for p in paths]
    return report


# -- the parent process -------------------------------------------------------------
def spawn(args, modes, deadline: float) -> list:
    """Run :func:`cold_run` once per mode, side by side, each in a fresh
    interpreter; their reports, or an error."""
    children = [subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--child", mode],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
        for mode in modes]
    outputs = []
    try:
        for child in children:
            outputs.append(child.communicate(
                timeout=max(1.0, deadline - time.monotonic()))[0])
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"a {'/'.join(modes)} run exceeded the "
                           f"{BUDGET_S:.0f} s budget") from None
    finally:
        for child in children:
            try:
                os.killpg(child.pid, signal.SIGKILL)  # hung runs, stray workers
            except ProcessLookupError:
                pass
            child.communicate()
    for mode, child in zip(modes, children):
        if child.returncode != 0:
            raise RuntimeError(f"{mode} run exited with code {child.returncode}")
    return [json.loads(out.strip().splitlines()[-1]) for out in outputs]


def disagreements(reports: list, labels: list, key: str) -> list:
    """A message for each report whose ``key`` entry differs from the first's."""
    return [f"{key}: {label} has {report.get(key)}, {labels[0]} has "
            f"{reports[0].get(key)}"
            for report, label in zip(reports[1:], labels[1:])
            if report.get(key) != reports[0].get(key)]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, deadline: float):
    """Cold runs for ``--seconds``: the end-to-end metrics."""
    reports = []
    began = last = time.monotonic()
    # Start another cold run only if one more of the same length still fits.
    while not reports or 2 * time.monotonic() - last - began <= args.seconds:
        last = time.monotonic()
        reports += spawn(args, ["parallel"], deadline)
    setups = [r["setup_s"] for r in reports]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, ["setup"], deadline)[0]["setup_s"])

    labels = [f"run {i + 1}" for i in range(len(reports))]
    repeats = (disagreements(reports, labels, "result_sha256")
               + disagreements(reports, labels, "counts"))
    walls = [r["wall_s"] for r in reports]
    print(f"{args.workload} seed={args.seed}: {len(reports)} cold run(s), "
          f"wall {', '.join(f'{w:.3f}' for w in walls)} s; "
          f"set-up {', '.join(f'{s:.3f}' for s in setups)} s")
    for name, value in sorted(reports[0]["counts"].items()):
        print(f"  {name} = {value:.6g} {RESULT_COUNTS[name]}")
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in reports),
                              "MB"),
    }
    return metrics, reports, repeats


def per_layer_units() -> dict:
    import layers

    units = {name: "s" for name in layers.TIME_METRICS.values()}
    units.update({name: "count" for name in layers.COUNT_METRICS})
    units.update(RUN_METRICS)
    units.update({f"result.{name}": unit for name, unit in RESULT_COUNTS.items()})
    return units


def traced(args, deadline: float):
    """Parallel, counted-serial and traced-serial runs: per-layer metrics.

    The two serial runs go side by side, one per core, which halves the
    time a traced invocation takes; like the parallel run's two workers,
    each then shares the machine with one other busy process.
    """
    labels = ["parallel run", "counted run", "traced run"]
    parallel, counted, traced_run = reports = (
        spawn(args, ["parallel"], deadline)
        + spawn(args, ["counted", "traced"], deadline))
    repeats = (disagreements(reports, labels, "result_sha256")
               + disagreements(reports, labels, "counts")
               + disagreements(reports[1:], labels[1:], "layer_counts"))

    layer = dict(traced_run["layers"])
    stats = parallel["engine"]
    layer.update({
        "traced_wall_s": traced_run["wall_s"],
        "serial_wall_s": counted["wall_s"],
        "parallel_wall_s": parallel["wall_s"],
        "tracing.overhead_s": traced_run["wall_s"] - counted["wall_s"],
        "experiments.engine.parallel_efficiency":
            counted["wall_s"] / (WORKERS * parallel["wall_s"]),
        "experiments.engine.computed": stats["computed"],
        "experiments.engine.memory_hits": stats["memory_hits"],
        "experiments.engine.retries": stats["retries"],
        "experiments.engine.timeouts": stats["timeouts"],
        "experiments.cache.misses": parallel["cache"]["misses"],
        "experiments.cache.disk_hits": stats["disk_hits"],
    })
    for name in RESULT_COUNTS:
        layer[f"result.{name}"] = parallel["counts"].get(name, 0)

    units = per_layer_units()
    print(f"{args.workload} seed={args.seed}: parallel {parallel['wall_s']:.3f} s, "
          f"counted serial {counted['wall_s']:.3f} s, traced serial "
          f"{traced_run['wall_s']:.3f} s; spans in "
          f"{', '.join(traced_run['trace_files'])}")
    for name in sorted(units):
        print(f"  {name} = {layer[name]:.6g} {units[name]}")
    metrics = {name: metric(layer[name], unit) for name, unit in units.items()}
    return metrics, reports, repeats


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("parallel", "counted", "traced", "setup"),
                        help="make one cold run in this process (used internally)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: {SRC / 'repro'} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        print(json.dumps(cold_run(args.workload, args.seed, args.child)))
        return 0

    deadline = time.monotonic() + BUDGET_S
    measure = traced if args.trace else end_to_end
    metrics, reports, repeats = measure(args, deadline)
    problems = [p for r in reports for p in r["problems"]] + repeats
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports) + len(repeats)
    print(f"  failed_share = {failed / max(1, attempted):.4g} "
          f"({failed} of {attempted} jobs)")
    for problem in problems[:20]:
        print(f"  FAILED: {problem}")
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
