#!/usr/bin/env python3
"""Quickstart: compile a guest program, optimize it, and compare zkVM metrics.

Run with:  python examples/quickstart.py
"""
from repro.backend import compile_module
from repro.cpu import CpuTimingModel
from repro.emulator import Machine
from repro.frontend import compile_source
from repro.passes import pipeline_for_level
from repro.zkvm import ZKVMS

SOURCE = """
const N = 500;
global table[64];

fn mix(x) -> int { return (x * 31 + 7) % 1024; }

fn main() -> int {
  var acc = 0;
  var i;
  for (i = 0; i < N; i = i + 1) {
    table[i % 64] = mix(i);
    acc = acc + table[i % 64] / 4;
  }
  print(acc);
  return acc;
}
"""


def measure(module, label):
    program = compile_module(module)
    cpu = CpuTimingModel()
    machine = Machine(program, observers=[cpu])
    trace = machine.run()
    print(f"--- {label} ---")
    print(f"  guest output        : {trace.output}")
    print(f"  dynamic instructions: {trace.instructions}")
    for name, model in ZKVMS.items():
        metrics = model.evaluate(trace)
        print(f"  {name:6s} cycles={metrics.total_cycles:>9d} "
              f"exec={metrics.execution_time * 1000:.3f} ms "
              f"prove={metrics.proving_time:.2f} s")
    print(f"  x86 model           : {cpu.finalize().execution_time * 1e6:.1f} us")
    return trace


def main():
    module = compile_source(SOURCE, "quickstart")
    baseline = measure(module.clone(), "unoptimized baseline")

    optimized = module.clone()
    pipeline_for_level("-O3").run(optimized)
    o3 = measure(optimized, "-O3")

    zkvm_aware = module.clone()
    pipeline_for_level("-O3", zkvm_aware=True).run(zkvm_aware)
    aware = measure(zkvm_aware, "zkVM-aware -O3 (Change Sets 1-3)")

    assert baseline.output == o3.output == aware.output
    print()
    print(f"-O3 removes {100 * (1 - o3.instructions / baseline.instructions):.1f}% "
          f"of executed instructions; the zkVM-aware build removes "
          f"{100 * (1 - aware.instructions / baseline.instructions):.1f}%.")


if __name__ == "__main__":
    main()
