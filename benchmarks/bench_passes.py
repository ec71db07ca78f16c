"""Pass-pipeline compile-time report: invalidation-aware analysis caching
vs the ``analysis_cache=False`` escape hatch.

Compiles every seed benchmark under both paper profiles (CPU-tuned ``-O3``
and the zkVM-aware ``-O3-zkvm``) through two pipelines:

* ``cached``  — the default :class:`~repro.passes.pass_manager.PassManager`:
  per-function analyses cached by the
  :class:`~repro.passes.analysis.AnalysisManager` with preserves-driven
  invalidation, CFG-version-validated predecessor/reachability maps, and
  no-op pass skipping;
* ``fresh``   — the ``analysis_cache=False`` escape hatch: identical code, but
  every analysis and CFG query recomputed per use (the differential-testing
  oracle; byte-identical output to ``cached``).

Each (pipeline, benchmark, profile) cell is the best of ``--repeats`` runs,
with the pipelines interleaved per benchmark so machine-load drift hits both
equally.  Wall times are reported, not barred: they vary by host.  The bar is
the cached pipeline's analysis count, which is deterministic — a full-suite
run fails if ``analysis_cache.computed`` exceeds the committed
``BENCH_passes.json``, which is read before the new report is written.
``make bench-passes`` writes ``BENCH_passes.json``.

Run with ``python benchmarks/bench_passes.py [--json PATH]``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: The committed report the bar compares against.
COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_passes.json"

#: Pipeline modes measured per benchmark, as PassManager keyword arguments.
MODES = {
    "cached": {"analysis_cache": True},
    "fresh": {"analysis_cache": False},
}


def _profiles():
    from repro.experiments.profiles import profile_by_name, zkvm_aware_profile

    return [profile_by_name("-O3"), zkvm_aware_profile()]


def committed_computed(path: Path = COMMITTED) -> int | None:
    """The committed ``analysis_cache.computed`` count (None without one)."""
    if not path.is_file():
        return None
    return json.loads(path.read_text())["aggregate"]["analysis_cache"]["computed"]


def regression(report: dict, committed: int | None) -> str | None:
    """A failure message if the cached pipeline computed more analyses."""
    computed = report["aggregate"]["analysis_cache"]["computed"]
    if committed is not None and computed > committed:
        return (f"analysis_cache.computed {computed} exceeds the committed "
                f"{committed}")
    return None


def run_report(benchmarks=None, repeats: int = 3, echo=print) -> dict:
    """Time every benchmark × profile × pipeline mode; returns the report."""
    from repro.analysis.reporting import format_table
    from repro.benchmarks import all_benchmark_names, get_benchmark
    from repro.frontend import compile_source
    from repro.passes import PassManager

    names = benchmarks or all_benchmark_names()
    profiles = _profiles()
    modules = {name: compile_source(get_benchmark(name).source, module_name=name)
               for name in names}

    per_benchmark: dict[str, dict] = {}
    totals = {mode: 0.0 for mode in MODES}
    cache_stats = {"hits": 0, "computed": 0, "invalidated": 0, "drifted": 0,
                   "skipped": 0}
    for name in names:
        cells = {mode: 0.0 for mode in MODES}
        for profile in profiles:
            best = {mode: None for mode in MODES}
            for repeat in range(repeats):
                # Interleave modes so load drift is shared fairly.
                for mode, kwargs in MODES.items():
                    manager = PassManager(profile.passes, profile.config,
                                          **kwargs)
                    clone = modules[name].clone()
                    start = time.perf_counter()
                    manager.run(clone)
                    elapsed = time.perf_counter() - start
                    if best[mode] is None or elapsed < best[mode]:
                        best[mode] = elapsed
                    # Cache activity is deterministic per compile; count one
                    # repeat so the reported totals mean "per full sweep"
                    # regardless of --repeats.
                    if mode == "cached" and repeat == 0:
                        for key in cache_stats:
                            cache_stats[key] += getattr(manager.analysis.stats,
                                                        key)
            for mode in MODES:
                cells[mode] += best[mode]
        per_benchmark[name] = {
            **{f"{mode}_s": cells[mode] for mode in MODES},
            "speedup_vs_fresh": cells["fresh"] / cells["cached"],
        }
        for mode in MODES:
            totals[mode] += cells[mode]

    aggregate = {
        "benchmarks": len(names),
        "profiles": [profile.name for profile in profiles],
        "repeats": repeats,
        "cached_s": totals["cached"],
        "fresh_s": totals["fresh"],
        "speedup_vs_fresh": totals["fresh"] / totals["cached"],
        "analysis_cache": dict(cache_stats),
    }

    top = sorted(per_benchmark.items(), key=lambda item: -item[1]["fresh_s"])[:12]
    rows = [[name, round(data["fresh_s"] * 1000, 2),
             round(data["cached_s"] * 1000, 2),
             round(data["speedup_vs_fresh"], 2)]
            for name, data in top]
    echo(format_table(
        ["benchmark", "fresh ms", "cached ms", "speedup"],
        rows, title=f"Pipeline compile time (top {len(rows)} of {len(names)} "
                    "benchmarks by fresh wall time; both profiles summed)"))
    stats = aggregate["analysis_cache"]
    requests = stats["hits"] + stats["computed"]
    echo(f"analysis cache: {stats['hits']}/{requests} hits, "
         f"{stats['computed']} computed, {stats['invalidated']} invalidated, "
         f"{stats['drifted']} drifted, {stats['skipped']} no-op pass runs "
         f"skipped")
    echo(f"aggregate: fresh {totals['fresh']:.3f}s | cached "
         f"{totals['cached']:.3f}s | speedup "
         f"{aggregate['speedup_vs_fresh']:.2f}x vs fresh")
    return {"aggregate": aggregate, "per_benchmark": per_benchmark}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH",
                        help="write the full report as JSON to PATH")
    parser.add_argument("--benchmarks", nargs="+",
                        help="subset of benchmark names (default: all; a "
                             "subset skips the bar)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per cell; best is kept")
    args = parser.parse_args(argv)
    committed = committed_computed()
    report = run_report(benchmarks=args.benchmarks, repeats=args.repeats)
    failure = None if args.benchmarks else regression(report, committed)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"wrote {args.json}")
    if failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
