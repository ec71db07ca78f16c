"""Backend code-quality report: RISC Zero cycles and code size at ``-O3``.

Compiles every seed benchmark at ``-O3`` (the paper's CPU-tuned profile)
through :func:`repro.backend.compile_module` — immediate-folding lowering
with per-block constant/address reuse and loop-invariant hoisting, the
machine-level peephole pass, and the hole-aware, loop-weighted linear-scan
allocator — replays each program on the emulator, and evaluates the RISC Zero
and SP1 cost models on the trace.

Every count here is deterministic, so the bar needs no threshold: a full-suite
run fails if the geomean RISC Zero total cycles, the total dynamic
instructions or the total static instructions exceed the committed
``BENCH_backend.json``, which is read before the new report is written.
Guest behaviour is checked separately, against the IR interpreter, by
``tests/test_backend_differential.py``.

``make bench-backend`` writes ``BENCH_backend.json``.  Runs standalone
(``python benchmarks/bench_backend.py [--json PATH]``) and as a pytest target
under the bench harness.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: The committed report the bar compares against.
COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_backend.json"

#: Aggregate counts that must not exceed their committed values.
BARRED = ("risc0_cycles_geomean", "instructions", "static_instructions")

#: Instruction budget per run; a few -O3 kernels legitimately run long.
MAX_INSTRUCTIONS = 80_000_000


def committed_aggregate(path: Path = COMMITTED) -> dict:
    """The aggregate of the committed report ({} when there is none)."""
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get("aggregate", {})


def regressions(aggregate: dict, committed: dict) -> list[str]:
    """One message per barred count above its committed value."""
    return [f"{key} {aggregate[key]} exceeds the committed {committed[key]}"
            for key in BARRED
            if key in committed and aggregate[key] > committed[key]]


def run_report(benchmarks=None, echo=print) -> dict:
    """Compile + replay every benchmark; returns the report."""
    from repro.analysis.reporting import format_table
    from repro.backend import compile_module
    from repro.benchmarks import all_benchmark_names, get_benchmark
    from repro.emulator import Machine
    from repro.experiments.profiles import profile_by_name
    from repro.frontend import compile_source
    from repro.passes import PassManager
    from repro.zkvm.models import ZKVMS

    names = benchmarks or all_benchmark_names()
    profile = profile_by_name("-O3")

    per_benchmark: dict[str, dict] = {}
    for name in names:
        benchmark = get_benchmark(name)
        module = compile_source(benchmark.source, module_name=name)
        PassManager(profile.passes, profile.config).run(module)
        program = compile_module(module, profile.cost_model)
        machine = Machine(program, max_instructions=MAX_INSTRUCTIONS,
                          input_values=benchmark.inputs)
        trace = machine.run("main", benchmark.args)
        zkvm = {zkvm_name: ZKVMS[zkvm_name].evaluate(trace)
                for zkvm_name in ("risc0", "sp1")}
        per_benchmark[name] = {
            "risc0_total_cycles": zkvm["risc0"].total_cycles,
            "sp1_total_cycles": zkvm["sp1"].total_cycles,
            "instructions": trace.instructions,
            "static_instructions": program.total_static_instructions(),
        }

    rows = per_benchmark.values()
    aggregate = {
        "benchmarks": len(names),
        "profile": profile.name,
        "risc0_cycles_geomean": math.exp(
            sum(math.log(r["risc0_total_cycles"]) for r in rows) / len(names)),
        "risc0_cycles": sum(r["risc0_total_cycles"] for r in rows),
        "sp1_cycles": sum(r["sp1_total_cycles"] for r in rows),
        "instructions": sum(r["instructions"] for r in rows),
        "static_instructions": sum(r["static_instructions"] for r in rows),
    }

    top = sorted(per_benchmark.items(),
                 key=lambda item: -item[1]["risc0_total_cycles"])[:12]
    echo(format_table(
        ["benchmark", "risc0 cycles", "sp1 cycles", "dyn instrs", "static"],
        [[name, data["risc0_total_cycles"], data["sp1_total_cycles"],
          data["instructions"], data["static_instructions"]]
         for name, data in top],
        title=f"Backend at -O3 (top {len(top)} of {len(names)} benchmarks "
              f"by RISC Zero cycles)"))
    echo(f"aggregate: RISC Zero cycles geomean "
         f"{aggregate['risc0_cycles_geomean']:.1f} | dynamic instructions "
         f"{aggregate['instructions']} | static "
         f"{aggregate['static_instructions']}")
    return {"aggregate": aggregate, "per_benchmark": per_benchmark}


def test_backend_code_quality():
    """Bench-harness entry: no barred count may exceed the committed one."""
    committed = committed_aggregate()
    report = run_report()
    assert not regressions(report["aggregate"], committed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH",
                        help="write the full report as JSON to PATH")
    parser.add_argument("--benchmarks", nargs="+",
                        help="subset of benchmark names (default: all; a "
                             "subset skips the bar)")
    args = parser.parse_args(argv)
    committed = committed_aggregate()
    report = run_report(benchmarks=args.benchmarks)
    failures = [] if args.benchmarks else \
        regressions(report["aggregate"], committed)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"wrote {args.json}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
