"""Regenerate ``expected_outputs.json``: each benchmark's guest behaviour.

The reference comes from the IR interpreter on the *unoptimized* frontend
module, so it shares no code with the pass pipeline, the backend or the
emulators whose outputs the benchmark checks against it.  Run from the
repository root after changing a benchmark's source::

    PYTHONPATH=src python3 e2ebench/make_expected.py
"""

from __future__ import annotations

import json

from repro.benchmarks import all_benchmark_names, get_benchmark
from repro.frontend import compile_source
from repro.ir.interpreter import run_module

from workloads import EXPECTED_OUTPUTS


def expected_outputs() -> dict:
    outputs = {}
    for name in all_benchmark_names():
        benchmark = get_benchmark(name)
        if benchmark.inputs:
            raise SystemExit(f"{name} reads host inputs; the IR interpreter "
                             "cannot supply them")
        result = run_module(compile_source(benchmark.source, name), "main",
                            list(benchmark.args) if benchmark.args else None)
        outputs[name] = {"output": list(result.output),
                         "return_value": result.return_value}
    return outputs


if __name__ == "__main__":
    EXPECTED_OUTPUTS.write_text(json.dumps(expected_outputs(), indent=1,
                                           sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_OUTPUTS}")
