"""Binary-encoding report: round-trip integrity and RVC code-size reduction.

Compiles every seed benchmark at ``-O3`` through the optimizing backend and
pushes the result through the binary-encoding subsystem
(:mod:`repro.backend.encoding` + :mod:`repro.backend.rvc`), checking three
contracts per benchmark:

* **Round-trip** — ``encode → decode_words → encode_one`` reproduces the
  byte blob exactly, for both the plain RV32I encoding and the
  RVC-compressed one.
* **Stream equality** — the RVC-compressed blob decodes to the *same*
  canonical instruction stream (opcodes, operands, resolved targets) as the
  uncompressed blob, instruction for instruction.
* **Semantics** — the decoded stream reassembles into a program the
  emulator runs to the same guest output and return value as the original.

The acceptance bar is the **geomean RVC code-size reduction** across all 58
benchmarks: ≥20% locally, relaxed via ``--min-reduction`` in CI.  ``make
bench-encoding`` writes ``BENCH_encoding.json`` so the size trajectory is
tracked across PRs.  Run with
``python benchmarks/bench_encoding.py [--json PATH]``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: RVC must shrink the binary by this fraction (geomean across the suite).
REQUIRED_REDUCTION = 0.20

#: Instruction budget per semantic replay; a few -O3 kernels run long.
MAX_INSTRUCTIONS = 80_000_000


def _stream(instrs):
    """The comparable fields of a decoded stream (source index excluded)."""
    return [(i.size, i.word, i.opcode, i.operands, i.target) for i in instrs]


def _check_round_trip(program, rvc: bool):
    """Encode/decode/re-encode one program; returns the encoded program."""
    from repro.backend.encoding import decode_words, encode_one, encode_program

    encoded = encode_program(program, rvc=rvc)
    decoded = decode_words(encoded.blob, encoded.base_address)
    blob = bytearray()
    for instr in decoded:
        blob += encode_one(instr).to_bytes(instr.size, "little")
    if bytes(blob) != encoded.blob:
        raise AssertionError("re-encoded blob differs from the original")
    if _stream(decoded) != _stream(encoded.instrs):
        raise AssertionError("decoded stream differs from the encoded one")
    return encoded, decoded


def run_report(benchmarks=None, echo=print) -> dict:
    """Encode every benchmark both ways, verify round-trips, report sizes."""
    from repro.analysis.reporting import format_table
    from repro.backend import compile_module
    from repro.backend.encoding import fold_relaxed_branches, reassemble
    from repro.benchmarks import all_benchmark_names, get_benchmark
    from repro.emulator import run_program
    from repro.experiments.profiles import profile_by_name
    from repro.frontend import compile_source
    from repro.passes import PassManager

    names = benchmarks or all_benchmark_names()
    profile = profile_by_name("-O3")

    per_benchmark: dict[str, dict] = {}
    log_ratio_sum = 0.0
    totals = {"rv32_bytes": 0, "rvc_bytes": 0,
              "instructions": 0, "compressed": 0}
    for name in names:
        benchmark = get_benchmark(name)
        module = compile_source(benchmark.source, module_name=name)
        PassManager(profile.passes, profile.config).run(module)
        program = compile_module(module, profile.cost_model)

        plain, _ = _check_round_trip(program, rvc=False)
        packed, packed_decoded = _check_round_trip(program, rvc=True)

        # The compressed stream must carry the same instructions as the
        # uncompressed one (sizes/addresses differ; meanings must not).
        # Far-branch relaxation is folded first: it is layout-dependent, so
        # the smaller RVC image may legitimately relax fewer branches.
        plain_atoms = fold_relaxed_branches(plain.instrs)
        packed_atoms = fold_relaxed_branches(packed.instrs)
        if plain_atoms != packed_atoms:
            raise AssertionError(
                f"{name}: RVC compression changed the instruction stream")

        # Semantic replay: the reassembled program must behave identically.
        base = run_program(program, args=benchmark.args,
                           input_values=benchmark.inputs,
                           max_instructions=MAX_INSTRUCTIONS)
        lifted = reassemble(packed_decoded, packed.symbols, like=program)
        replay = run_program(lifted, args=benchmark.args,
                             input_values=benchmark.inputs,
                             max_instructions=MAX_INSTRUCTIONS)
        if (base.output, base.return_value) != \
                (replay.output, replay.return_value):
            raise AssertionError(
                f"{name}: reassembled binary diverges from the original "
                f"program on the emulator")

        ratio = packed.code_bytes / plain.code_bytes
        log_ratio_sum += math.log(ratio)
        compressed = sum(1 for instr in packed.instrs if instr.size == 2)
        per_benchmark[name] = {
            "rv32_bytes": plain.code_bytes,
            "rvc_bytes": packed.code_bytes,
            "size_ratio": ratio,
            "instructions": len(packed.instrs),
            "compressed_instructions": compressed,
        }
        totals["rv32_bytes"] += plain.code_bytes
        totals["rvc_bytes"] += packed.code_bytes
        totals["instructions"] += len(packed.instrs)
        totals["compressed"] += compressed

    geomean_ratio = math.exp(log_ratio_sum / len(names))
    aggregate = {
        "benchmarks": len(names),
        "profile": profile.name,
        "geomean_size_ratio": geomean_ratio,
        "geomean_reduction": 1.0 - geomean_ratio,
        "required_reduction": REQUIRED_REDUCTION,
        **totals,
    }

    top = sorted(per_benchmark.items(), key=lambda item: item[1]["size_ratio"])
    rows = [[name, data["rv32_bytes"], data["rvc_bytes"],
             f"{(1 - data['size_ratio']) * 100:.1f}%"]
            for name, data in top[:10] + top[-3:]]
    echo(format_table(
        ["benchmark", "rv32 bytes", "rvc bytes", "reduction"],
        rows, title=f"RVC code-size reduction at -O3 (best 10 / worst 3 of "
                    f"{len(names)} benchmarks)"))
    echo(f"aggregate: geomean size reduction "
         f"{(1 - geomean_ratio) * 100:.1f}% "
         f"(required: {REQUIRED_REDUCTION * 100:.0f}%) | bytes "
         f"{totals['rv32_bytes']} -> {totals['rvc_bytes']} | "
         f"{totals['compressed']}/{totals['instructions']} instructions "
         f"compressed")
    return {"aggregate": aggregate, "per_benchmark": per_benchmark}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH",
                        help="write the full report as JSON to PATH")
    parser.add_argument("--benchmarks", nargs="+",
                        help="subset of benchmark names (default: all)")
    parser.add_argument("--min-reduction", type=float,
                        default=REQUIRED_REDUCTION,
                        help="geomean size-reduction bar to enforce "
                             f"(default: {REQUIRED_REDUCTION})")
    args = parser.parse_args(argv)
    report = run_report(benchmarks=args.benchmarks)
    report["aggregate"]["enforced_reduction"] = args.min_reduction
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"wrote {args.json}")
    reduction = report["aggregate"]["geomean_reduction"]
    if reduction < args.min_reduction:
        print(f"FAIL: geomean RVC size reduction {reduction * 100:.1f}% is "
              f"below the {args.min_reduction * 100:.0f}% bar",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
