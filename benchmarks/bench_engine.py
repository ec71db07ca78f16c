"""Engine throughput report: serial runner vs parallel engine vs warm cache.

Measures the same (benchmark, profile) matrix three ways and prints the wall
time of each, so future PRs (async backends, distributed shards) can track
the speedup:

* ``serial``   — a plain :class:`BenchmarkRunner` looping over the matrix;
* ``parallel`` — a cold :class:`ExperimentEngine` sharding the matrix across
  worker processes into a fresh disk cache;
* ``warm``     — a second engine on the same cache directory (must report
  zero computed measurements).

The exit status is non-zero unless the warm run beats the serial one.  Run
with ``make bench-engine`` or ``python benchmarks/bench_engine.py``.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

MATRIX_BENCHMARKS = ["fibonacci", "loop-sum", "tailcall", "factorial",
                     "polybench-trisolv", "npb-is"]
MATRIX_PROFILES = ["baseline", "-O1", "-O2"]


def _pairs():
    from repro.experiments import profile_by_name

    return [(benchmark, profile_by_name(profile))
            for benchmark in MATRIX_BENCHMARKS for profile in MATRIX_PROFILES]


def run_report(workers: int | None = None, echo=print) -> dict:
    """Time the three execution modes; returns {mode: seconds} plus metadata."""
    from repro.analysis.reporting import format_table
    from repro.experiments import BenchmarkRunner, ExperimentEngine

    pairs = _pairs()
    workers = workers or (os.cpu_count() or 1)

    start = time.perf_counter()
    serial_results = BenchmarkRunner().measure_pairs(pairs)
    serial_s = time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        cold = ExperimentEngine(workers=workers, cache_dir=cache_dir)
        start = time.perf_counter()
        cold_results = cold.measure_pairs(pairs)
        cold_s = time.perf_counter() - start

        warm = ExperimentEngine(workers=workers, cache_dir=cache_dir)
        start = time.perf_counter()
        warm.measure_pairs(pairs)
        warm_s = time.perf_counter() - start

        assert [m.as_dict() for m in serial_results] == \
            [m.as_dict() for m in cold_results], "engine results diverge from serial"
        assert warm.stats.computed == 0, "warm cache must not re-emulate"

    echo(format_table(
        ["mode", "wall s", "speedup vs serial", "jobs"],
        [["serial (BenchmarkRunner)", serial_s, 1.0, len(pairs)],
         [f"parallel cold ({workers} workers)", cold_s,
          serial_s / cold_s if cold_s else float("inf"), len(pairs)],
         ["warm disk cache", warm_s,
          serial_s / warm_s if warm_s else float("inf"), len(pairs)]],
        title=f"Engine throughput: {len(MATRIX_BENCHMARKS)} benchmarks × "
              f"{len(MATRIX_PROFILES)} profiles"))
    return {"serial_s": serial_s, "parallel_s": cold_s, "warm_s": warm_s,
            "workers": workers, "jobs": len(pairs)}


def main() -> int:
    report = run_report()
    if report["warm_s"] >= report["serial_s"]:
        print(f"FAIL: warm disk cache {report['warm_s']:.2f}s is not faster "
              f"than serial {report['serial_s']:.2f}s", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
