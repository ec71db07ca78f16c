"""``python -m repro`` — the command-line face of the reproduction.

Every subcommand drives the same
:class:`~repro.experiments.engine.ExperimentEngine`, so measurements are
sharded across worker processes on first use and answered from the
content-addressed on-disk cache afterwards:

* ``repro compile BENCH``  — show the RV32IM assembly (or ``--ir``) a profile
  produces for a benchmark.
* ``repro run BENCH``      — execute a benchmark on the emulator and print its
  output checksum and dynamic instruction count.
* ``repro measure BENCH..``— full metric table (cycles, zkVM execution/proving
  time, native time) for benchmark × profile combinations.
* ``repro figure N``       — regenerate paper figure N (3,4,5,6,7,8,9,14,15).
* ``repro table N``        — regenerate paper table N (1,2,3,6).
* ``repro autotune BENCH`` — run the genetic autotuner, generations batched.
* ``repro passes BENCH..`` — show a profile's pass pipeline; with ``--time``,
  compile the benchmarks and report per-pass wall time plus analysis-cache
  activity (computed/hits/drifted/skipped).
* ``repro lower BENCH..``  — show the backend's assembly; with ``--stats``,
  per-function static instruction counts (lowered and final), spill
  statistics and peephole hit counts.
* ``repro fuzz``           — differential fuzzing: generated MiniC programs
  replayed through every oracle (IR interpreter, backend, all three
  emulators, cached-vs-fresh pipeline) under both paper profiles, sharded as
  batched engine jobs; ``--minimize`` reduces failures to ``.repro`` files.
* ``repro cache``          — measurement-cache maintenance (measurements and
  fuzz verdicts): ``stats``, ``verify`` (scan + evict corrupt entries),
  ``clear``.
* ``repro list KIND``      — enumerate benchmarks/suites/profiles/figures/tables.

Global flags (before the subcommand) select the worker count, the cache
directory, the emulator's instruction budget and the fault-tolerance knobs
(``--job-timeout``, ``--retries``, ``--stats``).  ``--json`` on the reporting
subcommands emits machine-readable output for scripting.

Long campaigns survive interruption: ``Ctrl-C`` exits with status 130.
Every finished autotune candidate and fuzz verdict is in the measurement
cache, so rerunning the same command (or a larger ``--iterations`` or
``--seeds``) answers them as disk hits and computes only the rest.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
from typing import Optional, Sequence

__all__ = ["build_parser", "main"]


# -- result rendering ---------------------------------------------------------
def _jsonable(obj):
    """Recursively convert regenerator output into JSON-serializable data.

    Tuple dict keys (used by several regenerators, e.g. ``(zkvm, metric)``)
    become ``"a/b"`` strings; dataclasses become dicts; sets become sorted
    lists; non-finite floats become strings.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {_key(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonable(v) for v in obj)
    if isinstance(obj, float) and (obj != obj or obj in (float("inf"), float("-inf"))):
        return str(obj)
    return obj


def _key(key) -> str:
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    return str(key)


def _emit(result, as_json: bool) -> None:
    """Print a regenerator result; sorted keys in human mode for stable diffs."""
    json.dump(_jsonable(result), sys.stdout, indent=2, sort_keys=not as_json)
    sys.stdout.write("\n")


def _report_engine(engine, full: bool = False) -> None:
    """One stderr line showing where this invocation's measurements came from.

    ``full`` (the global ``--stats`` flag) appends the complete engine and
    cache counters — retries, timeouts, quarantined/salvaged jobs — plus any
    structured job-failure records, as JSON on stderr.
    """
    stats = engine.stats
    cache_dir = engine.cache.root if engine.cache is not None else "<disabled>"
    print(f"[engine] computed={stats.computed} reused={stats.reused} "
          f"disk_hits={stats.disk_hits} "
          f"memory_hits={stats.memory_hits} errors={stats.errors} "
          f"retries={stats.retries} timeouts={stats.timeouts} "
          f"quarantined={stats.quarantined} "
          f"workers={engine.workers} cache={cache_dir}", file=sys.stderr)
    if full:
        report = {"engine": stats.as_dict(),
                  "cache": engine.cache.stats.as_dict()
                  if engine.cache is not None else None,
                  "failures": [f.as_dict() for f in engine.failures]}
        print(json.dumps(report, indent=2, sort_keys=True), file=sys.stderr)


class UsageError(Exception):
    """Bad CLI input (unknown benchmark/profile/...): report cleanly, exit 2."""


# -- engine / profile plumbing ------------------------------------------------
def _make_engine(args):
    from .experiments.engine import ExperimentEngine

    return ExperimentEngine(
        max_instructions=args.max_instructions,
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_disk_cache=not args.no_disk_cache,
        job_timeout=args.job_timeout,
        timeout_attempts=args.retries,
    )


def _lookup(find, name: str):
    """``find(name)``, reporting an unknown name as a usage error."""
    try:
        return find(name)
    except KeyError as exc:
        raise UsageError(exc.args[0] if exc.args else str(exc)) from exc


def _resolve_benchmarks(names: Sequence[str]) -> list[str]:
    """Expand and validate benchmark arguments: names, suite names, or ``all``."""
    from .benchmarks import all_benchmark_names, benchmarks_in_suite, suites

    resolved: list[str] = []
    for name in names:
        if name == "all":
            resolved.extend(all_benchmark_names())
        elif name in suites():
            resolved.extend(benchmarks_in_suite(name))
        else:
            _check_benchmark(name)
            resolved.append(name)
    return resolved


def _check_benchmark(name: str) -> str:
    from .benchmarks import get_benchmark

    return _lookup(get_benchmark, name).name


# -- regenerator registry -----------------------------------------------------
def _figure_registry() -> dict:
    from .experiments import figures

    return {
        "3": figures.figure3_pass_impact,
        "4": figures.figure4_effect_categories,
        "5": figures.figure5_optimization_levels,
        "6": figures.figure6_autotuning,
        "7": figures.figure7_zkvm_vs_x86,
        "8": figures.figure8_divergence,
        "9": figures.figure9_cost_components,
        "14": figures.figure14_zkvm_aware,
        "15": figures.figure15_native_vs_zkvm,
    }


def _table_registry() -> dict:
    from .experiments import tables

    return {
        "1": tables.table1_gain_loss_counts,
        "2": tables.table2_correlations,
        "3": tables.table3_manual_unrolling,
        "6": tables.table6_baseline_statistics,
    }


def _call_regenerator(fn, artifact: str, runner, **flags):
    """Invoke a figure/table regenerator with the flags given for it.

    The regenerators have different signatures (figure 9 takes ``--passes``
    as ``profiles``, figure 6 takes ``iterations``/``seed``, table 3 takes
    nothing); a flag the artifact does not take is a usage error, so no
    output is printed as if it applied.
    """
    params = inspect.signature(fn).parameters
    kwargs = {"runner": runner} if "runner" in params else {}
    unknown = []
    for flag, value in flags.items():
        if value is None:
            continue
        name = "profiles" if flag == "passes" and "profiles" in params \
            else flag
        if name in params:
            kwargs[name] = value
        else:
            unknown.append(f"--{flag}")
    if unknown:
        raise UsageError(f"{artifact} does not take {', '.join(unknown)}")
    return fn(**kwargs)


# -- subcommands --------------------------------------------------------------
def _cmd_compile(args) -> int:
    from .experiments.profiles import profile_by_name
    from .ir.printer import format_module
    from .passes import PassManager
    from .ir import verify_module

    engine = _make_engine(args)
    _check_benchmark(args.benchmark)
    profile = _lookup(profile_by_name, args.profile)
    if args.ir:
        module = engine.frontend_module(args.benchmark).clone()
        if profile.passes:
            PassManager(profile.passes, profile.config).run(module)
        verify_module(module)
        print(format_module(module))
    else:
        print(engine.compile(args.benchmark, profile))
    return 0


def _cmd_run(args) -> int:
    from .experiments.profiles import profile_by_name

    engine = _make_engine(args)
    benchmark_name = _check_benchmark(args.benchmark)
    profile = _lookup(profile_by_name, args.profile)
    label = benchmark_name
    if args.reference:
        # Replay on the seed interpreter (the differential-testing oracle);
        # bypasses the measurement caches since nothing is persisted.
        from .benchmarks import get_benchmark
        from .emulator import ReferenceMachine

        benchmark = get_benchmark(benchmark_name)
        machine = ReferenceMachine(engine.compile(benchmark_name, profile),
                                   max_instructions=engine.max_instructions,
                                   input_values=benchmark.inputs)
        trace = machine.run("main", benchmark.args)
        label += " [reference interpreter]"
    else:
        trace = engine.measure(benchmark_name, profile).trace
    print(f"benchmark:     {label}")
    print(f"profile:       {profile.name}")
    print(f"output:        {list(trace.output)}")
    print(f"return value:  {trace.return_value}")
    print(f"instructions:  {trace.instructions}")
    if not args.reference:
        _report_engine(engine, full=args.engine_stats)
    return 0


def _cmd_measure(args) -> int:
    from .analysis.reporting import format_table
    from .experiments.profiles import profile_by_name

    engine = _make_engine(args)
    benchmarks = _resolve_benchmarks(args.benchmarks)
    profiles = [_lookup(profile_by_name, name)
                for name in (args.profile or ["baseline"])]
    pairs = [(b, p) for b in benchmarks for p in profiles]
    measurements = engine.measure_pairs(pairs)
    if args.json:
        _emit([m.as_dict() for m in measurements], as_json=True)
    else:
        rows = [[m.benchmark, m.profile, m.instructions,
                 m.risc0.total_cycles, m.risc0.execution_time, m.risc0.proving_time,
                 m.sp1.execution_time, m.sp1.proving_time, m.cpu.execution_time]
                for m in measurements]
        print(format_table(
            ["benchmark", "profile", "instructions", "risc0 cycles",
             "risc0 exec s", "risc0 prove s", "sp1 exec s", "sp1 prove s",
             "native s"],
            rows, title="Measurements"))
    _report_engine(engine, full=args.engine_stats)
    return 0


def _cmd_regenerate(args) -> int:
    """``repro figure N`` and ``repro table N``."""
    registry = args.registry()
    if args.number not in registry:
        print(f"unknown {args.command} {args.number!r}; available: "
              f"{', '.join(sorted(registry, key=int))}", file=sys.stderr)
        return 2
    engine = _make_engine(args)
    benchmarks = _resolve_benchmarks(args.benchmarks) if args.benchmarks else None
    result = _call_regenerator(registry[args.number],
                               f"{args.command} {args.number}", engine,
                               benchmarks=benchmarks, passes=args.passes,
                               iterations=getattr(args, "iterations", None),
                               seed=getattr(args, "seed", None))
    _emit(result, as_json=args.json)
    _report_engine(engine, full=args.engine_stats)
    return 0


def _report_interrupt(engine, finished: str) -> None:
    """Ctrl-C's hint: what the cache kept and how to continue."""
    print(f"\ninterrupted; finished {finished} are in the measurement cache "
          "— rerun the same command to continue"
          if engine.cache is not None else
          f"\ninterrupted; --no-disk-cache kept no {finished}",
          file=sys.stderr)


def _cmd_autotune(args) -> int:
    from .autotuner import GeneticAutotuner

    engine = _make_engine(args)
    tuner = GeneticAutotuner(runner=engine, seed=args.seed, zkvm=args.zkvm,
                             population_size=args.population,
                             size_weight=args.size_weight)
    try:
        result = tuner.tune(_check_benchmark(args.benchmark),
                            iterations=args.iterations)
    except KeyboardInterrupt:
        _report_interrupt(engine, "candidates")
        _report_engine(engine, full=args.engine_stats)
        return 130
    summary = {
        "benchmark": result.benchmark,
        "zkvm": result.zkvm,
        "evaluations": result.evaluations,
        "baseline_cycles": result.baseline_cycles,
        "o3_cycles": result.o3_cycles,
        "best_cycles": result.best_cycles,
        "speedup_over_o3": result.speedup_over_o3,
        "gain_over_o3_percent": result.gain_over_o3_percent,
        "best_passes": list(result.best.passes),
        "inline_threshold": result.best.inline_threshold,
        "unroll_threshold": result.best.unroll_threshold,
    }
    _emit(summary, as_json=args.json)
    _report_engine(engine, full=args.engine_stats)
    return 0


def _cmd_passes(args) -> int:
    from .analysis.reporting import format_table
    from .experiments.profiles import profile_by_name
    from .passes import PassManager

    profile = _lookup(profile_by_name, args.profile)
    if not args.time:
        if args.json:
            _emit({"profile": profile.name, "passes": list(profile.passes)},
                  as_json=True)
        else:
            for index, name in enumerate(profile.passes):
                print(f"{index:3d}  {name}")
        return 0

    engine = _make_engine(args)
    benchmarks = _resolve_benchmarks(args.benchmarks or ["all"])
    # One slot per pipeline position, aggregated across the benchmarks.
    slots: list[dict] = [
        {"name": name, "seconds": 0.0, "changed": 0,
         "computed": 0, "hits": 0, "drifted": 0, "skipped": 0}
        for name in profile.passes
    ]
    for benchmark_name in benchmarks:
        module = engine.frontend_module(benchmark_name).clone()
        manager = PassManager(profile.passes, profile.config)
        manager.run(module)
        for timing in manager.timings:
            slot = slots[timing.index]
            slot["seconds"] += timing.seconds
            slot["changed"] += int(timing.changed)
            for key in ("computed", "hits", "drifted", "skipped"):
                slot[key] += getattr(timing.analysis, key)

    if args.json:
        _emit({"profile": profile.name, "benchmarks": benchmarks,
               "slots": slots}, as_json=True)
        return 0
    rows = [[index, slot["name"], f"{slot['seconds'] * 1000:.2f}",
             slot["changed"], slot["computed"], slot["hits"],
             slot["drifted"], slot["skipped"]]
            for index, slot in enumerate(slots)]
    total = sum(slot["seconds"] for slot in slots)
    rows.append(["", "TOTAL", f"{total * 1000:.2f}",
                 sum(s["changed"] for s in slots),
                 sum(s["computed"] for s in slots),
                 sum(s["hits"] for s in slots),
                 sum(s["drifted"] for s in slots),
                 sum(s["skipped"] for s in slots)])
    print(format_table(
        ["#", "pass", "total ms", "changed", "computed", "hits",
         "drifted", "skipped"],
        rows,
        title=f"Pass pipeline timing — {profile.name} over "
              f"{len(benchmarks)} benchmark(s)"))
    return 0


def _cmd_lower(args) -> int:
    from .analysis.reporting import format_table
    from .experiments.profiles import profile_by_name

    engine = _make_engine(args)
    profile = _lookup(profile_by_name, args.profile)
    benchmarks = _resolve_benchmarks(args.benchmarks)

    if not args.stats:
        # Plain mode: show the optimizing backend's assembly (equivalent to
        # ``repro compile``, but accepting several benchmarks/suites).
        for benchmark_name in benchmarks:
            print(engine.compile(benchmark_name, profile))
        return 0

    rows = []
    report = []
    for benchmark_name in benchmarks:
        program = engine.compile(benchmark_name, profile)
        for function_name, stats in program.backend_stats.items():
            rows.append([benchmark_name, function_name,
                         stats["lowered_instructions"],
                         stats["final_instructions"], stats["spilled_vregs"],
                         stats["spill_loads"] + stats["spill_stores"],
                         sum(stats["peephole"].values())])
            report.append({"benchmark": benchmark_name,
                           "function": function_name, **stats})
    if args.json:
        _emit({"profile": profile.name, "functions": report}, as_json=True)
        return 0
    print(format_table(
        ["benchmark", "function", "lowered", "final", "spilled", "spill ops",
         "peephole hits"],
        rows, title=f"Backend static code size — {profile.name}"))
    print(f"total: {sum(r[2] for r in rows)} lowered -> "
          f"{sum(r[3] for r in rows)} final static instructions")
    return 0


def _cmd_encode(args) -> int:
    from .analysis.reporting import format_table
    from .backend.encoding import code_size_report, encode_program
    from .experiments.profiles import profile_by_name

    engine = _make_engine(args)
    profile = _lookup(profile_by_name, args.profile)
    benchmarks = _resolve_benchmarks(args.benchmarks)

    rows = []
    report = []
    for benchmark_name in benchmarks:
        program = engine.compile(benchmark_name, profile)
        # The compile already encoded both variants for this report.
        sizes = code_size_report(program)
        if args.hex:
            chosen = encode_program(program, rvc=args.rvc)
            print(f"# {benchmark_name} — {profile.name}, "
                  f"{'RVC' if args.rvc else 'RV32I'}, "
                  f"{chosen.code_bytes} bytes")
            print(chosen.hexdump())
            print()
        report.append({"benchmark": benchmark_name,
                       "code_bytes": {"rv32": sizes["rv32"],
                                      "rvc": sizes["rvc"]},
                       "functions": sizes["functions"]})
        for function_name, size in sizes["functions"].items():
            rv32_bytes, rvc_bytes = size["rv32"], size["rvc"]
            reduction = ((rv32_bytes - rvc_bytes) / rv32_bytes * 100
                         if rv32_bytes else 0.0)
            rows.append([benchmark_name, function_name, rv32_bytes,
                         rvc_bytes, f"{reduction:.1f}"])
    if args.json:
        _emit({"profile": profile.name, "benchmarks": report}, as_json=True)
        return 0
    if not args.hex or len(rows) > 1:
        print(format_table(
            ["benchmark", "function", "rv32 bytes", "rvc bytes", "Δ%"],
            rows, title=f"Binary code size — {profile.name}"))
        total_rv32 = sum(r[2] for r in rows)
        total_rvc = sum(r[3] for r in rows)
        if total_rv32:
            print(f"total: {total_rv32} -> {total_rvc} bytes "
                  f"({(total_rv32 - total_rvc) / total_rv32 * 100:.1f}% "
                  f"smaller with RVC)")
    return 0


def _cmd_fuzz(args) -> int:
    from .fuzz import HarnessConfig, run_campaign
    from .fuzz.driver import DEFAULT_MAX_MINIMIZE

    engine = _make_engine(args)
    config = HarnessConfig(emulator_max_instructions=args.max_instructions)
    try:
        summary = run_campaign(
            seeds=args.seeds, mode=args.mode, start_seed=args.start_seed,
            engine=engine, config=config, minimize=args.minimize,
            corpus_dir=args.corpus_dir, shard_size=args.shard_size,
            max_minimize=args.max_minimize
            if args.max_minimize is not None else DEFAULT_MAX_MINIMIZE)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit(summary.as_dict(), as_json=args.json)
    _report_engine(engine, full=args.engine_stats)
    if summary.interrupted:
        _report_interrupt(engine, "verdicts")
        return 130
    return 0 if summary.clean else 1


def _cmd_cache(args) -> int:
    from .experiments.cache import MeasurementCache

    if args.no_disk_cache:
        raise UsageError("'repro cache' manages the disk cache; "
                         "--no-disk-cache disables it")
    cache = MeasurementCache(args.cache_dir)
    if args.action == "stats":
        report = cache.size_report()
    elif args.action == "verify":
        report = cache.verify()
    else:  # clear
        report = {"root": str(cache.root), "removed": cache.clear()}
    _emit(report, as_json=args.json)
    # verify is an fsck: finding (and evicting) corruption is a nonzero exit.
    return 1 if report.get("corrupt_removed", 0) else 0


def _cmd_list(args) -> int:
    from .benchmarks import all_benchmark_names, benchmarks_in_suite, suites
    from .experiments.profiles import all_study_profiles, zkvm_aware_profile

    kind = args.kind
    if kind == "benchmarks":
        for name in all_benchmark_names():
            print(name)
    elif kind == "suites":
        for suite in suites():
            print(f"{suite}: {len(benchmarks_in_suite(suite))} benchmarks")
    elif kind == "profiles":
        for profile in [*all_study_profiles(), zkvm_aware_profile()]:
            print(profile.describe())
    elif kind == "figures":
        print(" ".join(sorted(_figure_registry(), key=int)))
    elif kind == "tables":
        print(" ".join(sorted(_table_registry(), key=int)))
    return 0


# -- argument parsing ---------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit: compile, emulate and measure zkVM "
                    "benchmarks; regenerate the paper's figures and tables.")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for batched measurements "
                             "(default: CPU count)")
    parser.add_argument("--cache-dir", default=None,
                        help="measurement cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro/measurements)")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="keep measurements in memory only")
    parser.add_argument("--max-instructions", type=int, default=20_000_000,
                        help="emulator instruction budget per run")
    parser.add_argument("--job-timeout", type=float, default=None,
                        help="per-job wall-clock budget in seconds for "
                             "batched jobs; a job running longer has its "
                             "worker killed and is retried or quarantined "
                             "(default: no timeout)")
    parser.add_argument("--retries", type=int, default=3,
                        help="attempts a batched job that exceeds "
                             "--job-timeout gets before it is quarantined; "
                             "a job that raises runs once (default: 3)")
    # dest avoids colliding with 'repro lower --stats' (a different report).
    parser.add_argument("--stats", dest="engine_stats", action="store_true",
                        help="print full engine/cache fault-tolerance "
                             "counters and job-failure records to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="show a benchmark's compiled form")
    p.add_argument("benchmark")
    p.add_argument("--profile", default="baseline",
                   help="optimization profile (default: baseline)")
    p.add_argument("--ir", action="store_true",
                   help="print optimized IR instead of RV32IM assembly")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("run", help="execute a benchmark on the emulator")
    p.add_argument("benchmark")
    p.add_argument("--profile", default="baseline")
    p.add_argument("--reference", action="store_true",
                   help="replay on the seed reference interpreter "
                        "(slow; for differential debugging)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("measure", help="measure benchmark × profile pairs")
    p.add_argument("benchmarks", nargs="+",
                   help="benchmark names, suite names, or 'all'")
    p.add_argument("--profile", action="append",
                   help="profile to measure (repeatable; default: baseline)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("number", help="3, 4, 5, 6, 7, 8, 9, 14 or 15")
    p.add_argument("--benchmarks", nargs="+", action="extend", default=None)
    p.add_argument("--passes", nargs="+", action="extend", default=None,
                   help="pass names, repeatable; figure 9 takes any profile, "
                        "a level as --passes=-O3")
    p.add_argument("--iterations", type=int, default=None,
                   help="autotuner budget (figure 6 only)")
    p.add_argument("--seed", type=int, default=None,
                   help="autotuner seed (figure 6 only)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_regenerate, registry=_figure_registry)

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("number", help="1, 2, 3 or 6")
    p.add_argument("--benchmarks", nargs="+", action="extend", default=None)
    p.add_argument("--passes", nargs="+", action="extend", default=None,
                   help="pass names (repeatable)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_regenerate, registry=_table_registry)

    p = sub.add_parser("autotune", help="genetic search over pass sequences")
    p.add_argument("benchmark")
    p.add_argument("--iterations", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--population", type=int, default=12)
    p.add_argument("--zkvm", choices=["risc0", "sp1"], default="risc0")
    p.add_argument("--size-weight", type=float, default=0.0,
                   help="weight of the RVC binary footprint in candidate "
                        "fitness (cycles + weight * code_bytes; default 0 = "
                        "cycles only)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_autotune)

    p = sub.add_parser("passes", help="inspect/time a profile's pass pipeline")
    p.add_argument("benchmarks", nargs="*",
                   help="benchmark names, suite names, or 'all' "
                        "(only used with --time; default: all)")
    p.add_argument("--profile", default="-O3",
                   help="optimization profile (default: -O3)")
    p.add_argument("--time", action="store_true",
                   help="compile the benchmarks and report per-pass wall "
                        "time and analysis-cache activity")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_passes)

    p = sub.add_parser("lower",
                       help="inspect backend lowering; --stats reports "
                            "static sizes, spills and peephole hits")
    p.add_argument("benchmarks", nargs="+",
                   help="benchmark names, suite names, or 'all'")
    p.add_argument("--profile", default="-O3",
                   help="optimization profile (default: -O3)")
    p.add_argument("--stats", action="store_true",
                   help="per-function static instruction counts (lowered "
                        "and final), spills and peephole hits")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lower)

    p = sub.add_parser("encode",
                       help="encode benchmarks to real RV32/RVC machine "
                            "words and report byte-accurate code sizes")
    p.add_argument("benchmarks", nargs="+",
                   help="benchmark names, suite names, or 'all'")
    p.add_argument("--profile", default="-O3",
                   help="optimization profile (default: -O3)")
    p.add_argument("--rvc", action="store_true",
                   help="show the RVC-compressed encoding in --hex output "
                        "(the size table always reports both)")
    p.add_argument("--hex", action="store_true",
                   help="print the full disassembly-style hex dump")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("fuzz",
                       help="differential fuzzing across every oracle "
                            "(IR interpreter, backend, emulators, pipeline)")
    p.add_argument("--seeds", type=int, default=200,
                   help="number of generated programs (default: 200)")
    p.add_argument("--mode", default="all",
                   help="generator mode: loop-heavy, call-heavy, "
                        "pointer-heavy, branchy-int, mixed, or 'all' "
                        "(round-robin; default)")
    p.add_argument("--start-seed", type=int, default=0,
                   help="first seed (campaigns shard the seed space)")
    p.add_argument("--minimize", action="store_true",
                   help="delta-debug each failure down to a minimal "
                        "reproducer before triage")
    p.add_argument("--corpus-dir", default=None,
                   help="write triaged reproducers as .repro files here")
    p.add_argument("--shard-size", type=int, default=16,
                   help="programs per batched engine job")
    p.add_argument("--max-minimize", type=int, default=None,
                   help="cap on minimizations per campaign (default: 25)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("cache",
                       help="measurement-cache maintenance "
                            "(stats / verify / clear)")
    p.add_argument("action", choices=["stats", "verify", "clear"],
                   help="stats: entry count and footprint; verify: load-check "
                        "every entry, evicting corrupt ones (exit 1 if any); "
                        "clear: delete every entry")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser("list", help="enumerate available inputs")
    p.add_argument("kind", choices=["benchmarks", "suites", "profiles",
                                    "figures", "tables"])
    p.set_defaults(func=_cmd_list)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (also the ``repro`` console script)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        # Bad input is reported cleanly; genuine crashes traceback normally.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output truncated by a downstream pager/head; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
