"""Emulator throughput report: pre-decoded fast path vs seed interpreter.

Replays the full seed benchmark suite (baseline profile) several ways and
reports Minstr/s per benchmark plus the aggregate:

* ``reference`` — the seed per-instruction interpreter
  (:class:`~repro.emulator.reference.ReferenceMachine`);
* ``fast cold`` — the production :class:`~repro.emulator.machine.Machine` on a
  freshly compiled program (timing includes the one-off decode);
* ``fast warm`` — a second replay of the same program, decoded stream cached;
* ``translated`` (``--translated``) — single-stream replay through the
  superblock-translating :class:`~repro.emulator.translate.TranslatedMachine`,
  with byte-for-byte parity (TraceStats, page events, final memory) asserted
  against the warm ``Machine`` replay of every benchmark.

Every timing repeats its workload until a minimum wall-clock duration
(default 0.2s) and reports the per-replay average, so 114-instruction
benchmarks (``ecdsa-verify``, ``eddsa-verify``) no longer produce
single-timer-tick noise instead of throughput.

The acceptance bars: the decode-once fast path must hold an aggregate
fast/reference speedup of at least 3x; with ``--translated`` the translated
single-stream aggregate must beat the warm aggregate by at least
``--min-translated-speedup`` (default 4x).  ``make bench-emulator`` /
``make bench-emulator-translated`` write ``BENCH_emulator.json`` so the
throughput trajectory is tracked across PRs.

Runs standalone (``python benchmarks/bench_emulator.py [--json PATH]``) and as
a pytest target under the bench harness.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: The fast path must beat the seed interpreter by at least this factor.
REQUIRED_SPEEDUP = 3.0
#: The translated single-stream aggregate must beat the warm fast-path
#: aggregate by at least this factor.
REQUIRED_TRANSLATED_SPEEDUP = 4.0
#: Repeat each timed workload until it has run at least this long, then
#: report the per-replay average — tiny benchmarks otherwise measure timer
#: granularity, not throughput.
MIN_DURATION_S = 0.2


def _compile(name: str):
    from repro.backend import compile_module
    from repro.benchmarks import get_benchmark
    from repro.frontend import compile_source

    return compile_module(compile_source(get_benchmark(name).source,
                                         module_name=name))


def _timed(once, min_seconds: float):
    """Average per-replay seconds of ``once()``, repeated to ``min_seconds``.

    The first replay's return value is kept (for the parity assertions);
    subsequent replays only accumulate wall clock.
    """
    start = time.perf_counter()
    result = once()
    total = time.perf_counter() - start
    repeats = 1
    while total < min_seconds:
        start = time.perf_counter()
        once()
        total += time.perf_counter() - start
        repeats += 1
    return total / repeats, result


def run_report(benchmarks=None, echo=print, translated=False,
               min_seconds: float = MIN_DURATION_S) -> dict:
    """Measure every benchmark on both interpreters; returns the report dict.

    ``translated`` adds the superblock-translation pass (with full
    byte-for-byte parity checks against the warm single-stream machine).
    """
    from repro.analysis.reporting import format_table
    from repro.benchmarks import all_benchmark_names, get_benchmark
    from repro.emulator import Machine, ReferenceMachine, TranslatedMachine

    names = benchmarks or all_benchmark_names()
    rows = []
    per_benchmark = {}
    totals = {"instructions": 0, "reference_s": 0.0, "cold_s": 0.0,
              "warm_s": 0.0, "translated_s": 0.0}
    for name in names:
        benchmark = get_benchmark(name)
        program = _compile(name)
        args = benchmark.args

        reference_s, ref_stats = _timed(
            lambda: ReferenceMachine(program, input_values=benchmark.inputs)
            .run("main", args), min_seconds)

        # Cold: decode happens inside Machine construction on a fresh program
        # (the cache is dropped every replay so each one pays the decode).
        def cold_once():
            if hasattr(program, "_decoded_cache"):
                del program._decoded_cache
            return Machine(program, input_values=benchmark.inputs).run(
                "main", args)

        cold_s, fast_stats = _timed(cold_once, min_seconds)

        # Warm: same program object, decoded stream already cached.  The
        # machine object is kept so the translated pass can compare page
        # events and final memory byte-for-byte.
        def warm_once():
            machine = Machine(program, input_values=benchmark.inputs)
            machine.run("main", args)
            return machine

        warm_s, warm_machine = _timed(warm_once, min_seconds)
        warm_stats = warm_machine.stats

        assert fast_stats == ref_stats, f"fast path diverged on {name}"
        assert warm_stats == ref_stats, f"warm fast path diverged on {name}"

        instructions = ref_stats.instructions
        per_benchmark[name] = {
            "instructions": instructions,
            "reference_minstr_s": instructions / reference_s / 1e6,
            "fast_cold_minstr_s": instructions / cold_s / 1e6,
            "fast_warm_minstr_s": instructions / warm_s / 1e6,
            "speedup_cold": reference_s / cold_s,
            "speedup_warm": reference_s / warm_s,
        }
        totals["instructions"] += instructions
        totals["reference_s"] += reference_s
        totals["cold_s"] += cold_s
        totals["warm_s"] += warm_s

        if translated:
            def translated_once():
                machine = TranslatedMachine(program,
                                            input_values=benchmark.inputs)
                machine.run("main", args)
                return machine

            # Warm the code cache first (mirrors the warm fast-path pass,
            # whose decode cost was likewise paid outside the timing): the
            # one-off superblock compilation happens here, untimed.
            translated_once()
            translated_s, trans_machine = _timed(translated_once, min_seconds)
            assert trans_machine.stats == ref_stats, \
                f"translated engine diverged on {name}"
            assert trans_machine.stats.page_in_events == \
                warm_stats.page_in_events, f"page-in events on {name}"
            assert trans_machine.stats.page_out_events == \
                warm_stats.page_out_events, f"page-out events on {name}"
            assert trans_machine.memory == warm_machine.memory, \
                f"final memory on {name}"
            data = per_benchmark[name]
            data["translated_minstr_s"] = instructions / translated_s / 1e6
            data["translated_speedup"] = warm_s / translated_s
            totals["translated_s"] += translated_s

    top = sorted(per_benchmark.items(),
                 key=lambda item: -item[1]["instructions"])[:12]
    for name, data in top:
        row = [name, data["instructions"],
               round(data["reference_minstr_s"], 2),
               round(data["fast_cold_minstr_s"], 2),
               round(data["fast_warm_minstr_s"], 2),
               round(data["speedup_warm"], 2)]
        if translated:
            row.append(round(data["translated_minstr_s"], 2))
            row.append(round(data["translated_speedup"], 2))
        rows.append(row)

    aggregate = {
        "benchmarks": len(names),
        "instructions": totals["instructions"],
        "reference_minstr_s": totals["instructions"] / totals["reference_s"] / 1e6,
        "fast_cold_minstr_s": totals["instructions"] / totals["cold_s"] / 1e6,
        "fast_warm_minstr_s": totals["instructions"] / totals["warm_s"] / 1e6,
        "speedup_cold": totals["reference_s"] / totals["cold_s"],
        "speedup_warm": totals["reference_s"] / totals["warm_s"],
        "required_speedup": REQUIRED_SPEEDUP,
        "min_duration_s": min_seconds,
    }
    if translated:
        aggregate["translated_minstr_s"] = (totals["instructions"]
                                            / totals["translated_s"] / 1e6)
        aggregate["translated_speedup"] = (totals["warm_s"]
                                           / totals["translated_s"])
        aggregate["required_translated_speedup"] = REQUIRED_TRANSLATED_SPEEDUP

    headers = ["benchmark", "instrs", "ref Mi/s", "cold Mi/s", "warm Mi/s",
               "speedup"]
    if translated:
        headers += ["xlate Mi/s", "xlate speedup"]
    echo(format_table(
        headers, rows,
        title=f"Emulator throughput (top {len(rows)} of {len(names)} "
              "benchmarks by dynamic instructions)"))
    echo(f"aggregate: reference {aggregate['reference_minstr_s']:.2f} Minstr/s"
         f" | fast cold {aggregate['fast_cold_minstr_s']:.2f}"
         f" | fast warm {aggregate['fast_warm_minstr_s']:.2f}"
         f" | speedup {aggregate['speedup_cold']:.2f}x cold /"
         f" {aggregate['speedup_warm']:.2f}x warm"
         f" (required: {REQUIRED_SPEEDUP:.1f}x)")
    if translated:
        echo(f"translated: {aggregate['translated_minstr_s']:.2f} Minstr/s "
             f"single-stream | {aggregate['translated_speedup']:.2f}x warm "
             f"(required: {REQUIRED_TRANSLATED_SPEEDUP:.1f}x)")
    return {"aggregate": aggregate, "per_benchmark": per_benchmark}


def test_emulator_throughput():
    """Bench-harness entry: the decode-once fast path must hold its 3x bar."""
    report = run_report()
    assert report["aggregate"]["speedup_cold"] >= REQUIRED_SPEEDUP
    assert report["aggregate"]["speedup_warm"] >= REQUIRED_SPEEDUP


def test_emulator_translated_throughput():
    """Bench-harness entry: superblock translation must hold its 4x bar."""
    report = run_report(translated=True)
    assert report["aggregate"]["translated_speedup"] >= \
        REQUIRED_TRANSLATED_SPEEDUP


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH",
                        help="write the full report as JSON to PATH")
    parser.add_argument("--benchmarks", nargs="+",
                        help="subset of benchmark names (default: all)")
    parser.add_argument("--translated", action="store_true",
                        help="also measure the superblock-translating engine "
                             "and enforce its aggregate speedup bar")
    parser.add_argument("--min-translated-speedup", type=float,
                        default=REQUIRED_TRANSLATED_SPEEDUP,
                        help="minimum translated-vs-warm aggregate speedup "
                             f"(default: {REQUIRED_TRANSLATED_SPEEDUP})")
    parser.add_argument("--min-seconds", type=float, default=MIN_DURATION_S,
                        help="minimum wall clock per timing before the "
                             f"per-replay average (default: {MIN_DURATION_S})")
    args = parser.parse_args(argv)
    report = run_report(benchmarks=args.benchmarks,
                        translated=args.translated,
                        min_seconds=args.min_seconds)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"wrote {args.json}")
    ok = report["aggregate"]["speedup_cold"] >= REQUIRED_SPEEDUP
    if not ok:
        print(f"FAIL: aggregate cold speedup "
              f"{report['aggregate']['speedup_cold']:.2f}x is below the "
              f"{REQUIRED_SPEEDUP:.1f}x bar", file=sys.stderr)
    if args.translated:
        translated_ok = (report["aggregate"]["translated_speedup"]
                         >= args.min_translated_speedup)
        if not translated_ok:
            print(f"FAIL: translated aggregate speedup "
                  f"{report['aggregate']['translated_speedup']:.2f}x is "
                  f"below the {args.min_translated_speedup:.1f}x bar",
                  file=sys.stderr)
        ok = ok and translated_ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
