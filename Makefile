# CI-friendly entry points for the reproduction.
#
#   make test            tier-1 test suite (the driver's gate)
#   make test-engine     engine/cache/CLI tests only
#   make figures-smoke   regenerate a figure + table on a tiny slice via the CLI
#   make bench-engine    serial vs parallel vs warm-cache wall-time report
#   make bench-emulator  fast vs reference interpreter Minstr/s; writes
#                        BENCH_emulator.json (perf trajectory across PRs)
#   make bench-emulator-translated
#                        adds the superblock-translated pass and enforces its
#                        aggregate speedup bar (4x warm single-stream) at
#                        byte-for-byte TraceStats/memory parity
#   make coverage        tier-1 suite under pytest-cov with a line-rate floor
#                        (skips gracefully when pytest-cov is not installed)
#   make bench-passes    cached vs fresh pass-pipeline compile time; writes
#                        BENCH_passes.json (fails if the cached pipeline
#                        computes more analyses than the committed file)
#   make bench-backend   -O3 RISC Zero cycles and code size; writes
#                        BENCH_backend.json (fails if geomean cycles, dynamic
#                        or static instructions exceed the committed file)
#   make bench-encoding  RV32/RVC binary encoding: byte-identical round-trips,
#                        semantic replay of the reassembled binaries, and the
#                        RVC code-size bar; writes BENCH_encoding.json (20%
#                        geomean size reduction enforced)
#   make fuzz-smoke      ~200-seed differential fuzzing campaign across all
#                        generator modes, journaled and restarted mid-way to
#                        exercise --resume (minutes; fails on any divergence)
#   make chaos           fault-injection suite: retries, timeouts, poison-job
#                        quarantine, cache damage, campaign resume
#   make docs-check      markdown link check + GUIDE.md quickstart smoke run
#   make bench           full pytest-benchmark harness (slow)

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-engine chaos figures-smoke bench-engine bench-emulator \
	bench-emulator-translated bench-passes bench-backend bench-encoding \
	fuzz-smoke docs-check coverage bench clean-cache

test:
	$(PYTHON) -m pytest -x -q

test-engine:
	$(PYTHON) -m pytest -x -q tests/test_engine.py

# The chaos suite: every fault the engine claims to survive, injected
# deterministically (FaultPlan) and checked end to end — including a real
# SIGINT of a running campaign followed by --resume.
chaos:
	$(PYTHON) -m pytest -x -q tests/test_faults.py

# Small slices so this finishes in seconds; the second run of each target is
# expected to report computed=0 (warm disk cache).
figures-smoke:
	$(PYTHON) -m repro figure 5 --benchmarks fibonacci loop-sum
	$(PYTHON) -m repro table 6 --benchmarks fibonacci loop-sum
	$(PYTHON) -m repro figure 14 --benchmarks fibonacci

bench-engine:
	$(PYTHON) benchmarks/bench_engine.py

# Fails if the pre-decoded fast path drops below 3x the seed interpreter.
bench-emulator:
	$(PYTHON) benchmarks/bench_emulator.py --json BENCH_emulator.json

# Adds the superblock-translated pass: every benchmark must replay with
# byte-for-byte identical TraceStats, paging events and final memory, and the
# translated aggregate must beat the warm single-stream aggregate by the bar
# (override: make bench-emulator-translated BENCH_TRANSLATED_BAR=3).
BENCH_TRANSLATED_BAR ?= 4.0
bench-emulator-translated:
	$(PYTHON) benchmarks/bench_emulator.py --json BENCH_emulator.json \
		--translated --min-translated-speedup $(BENCH_TRANSLATED_BAR)

# Both bars compare deterministic counts against the committed JSON (read
# before it is rewritten), so they need no threshold and no CI relaxation.
# Fails if the cached pipeline computes more analyses than committed.
bench-passes:
	$(PYTHON) benchmarks/bench_passes.py --json BENCH_passes.json

# Fails if -O3 geomean RISC Zero cycles, total dynamic instructions or total
# static instructions exceed the committed BENCH_backend.json.
bench-backend:
	$(PYTHON) benchmarks/bench_backend.py --json BENCH_backend.json

# Fails if any benchmark's encode->decode->re-encode round-trip is not
# byte-identical, if a reassembled binary diverges on the emulator, or if the
# geomean RVC code-size reduction drops below the bar (override:
# make bench-encoding BENCH_ENCODING_BAR=0.15).
BENCH_ENCODING_BAR ?= 0.20
bench-encoding:
	$(PYTHON) benchmarks/bench_encoding.py --json BENCH_encoding.json \
		--min-reduction $(BENCH_ENCODING_BAR)

# Differential fuzzing: generated MiniC programs replayed through every
# oracle (IR interpreter, backend, all three emulators, cached-vs-fresh
# pipeline) under both paper profiles.  Runs as a two-step resumable
# campaign: the first invocation journals a few shards and stops, the second
# resumes from the journal and must finish the remainder — exercising the
# checkpoint/restart path on every CI run.  Exits non-zero on any
# divergence; failures are delta-debugged to minimal reproducers (override
# the batch: make fuzz-smoke FUZZ_SEEDS=50 FUZZ_START_SEED=1000).
FUZZ_SEEDS ?= 200
FUZZ_START_SEED ?= 0
FUZZ_JOURNAL ?= .fuzz-smoke-journal.jsonl
fuzz-smoke:
	rm -f $(FUZZ_JOURNAL)
	$(PYTHON) -m repro --no-disk-cache fuzz --seeds $(FUZZ_SEEDS) \
		--start-seed $(FUZZ_START_SEED) --journal $(FUZZ_JOURNAL) \
		--stop-after-shards 4 --json
	$(PYTHON) -m repro --no-disk-cache fuzz --seeds $(FUZZ_SEEDS) \
		--start-seed $(FUZZ_START_SEED) --journal $(FUZZ_JOURNAL) \
		--resume --minimize --json
	rm -f $(FUZZ_JOURNAL)

# Link-checks README.md/docs/*.md and smoke-runs the GUIDE.md quickstart.
docs-check:
	$(PYTHON) -m pytest -q tests/test_docs.py
	$(PYTHON) -m repro --no-disk-cache run fibonacci --profile=-O2
	$(PYTHON) -m repro --no-disk-cache measure loop-sum --profile=-O3
	$(PYTHON) -m repro --no-disk-cache lower fibonacci --stats
	$(PYTHON) -m repro --no-disk-cache autotune fibonacci --iterations 4 --json
	$(PYTHON) -m repro passes
	$(PYTHON) -m repro list benchmarks

# Tier-1 suite under pytest-cov with a line-rate floor over src/repro.  The
# floor is a conservative lower bound on the measured rate (CI enforces it;
# override: make coverage COV_FLOOR=70).  Skips gracefully where pytest-cov
# is not installed so the target never blocks a toolchain without it.
COV_FLOOR ?= 75
coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest -q --cov=repro \
			--cov-report=term --cov-fail-under=$(COV_FLOOR); \
	else \
		echo "pytest-cov is not installed; skipping coverage" \
			"(pip install pytest-cov to enable)"; \
	fi

bench:
	$(PYTHON) -m pytest benchmarks -q

clean-cache:
	$(PYTHON) -c "from repro.experiments.cache import MeasurementCache; print(MeasurementCache().clear(), 'entries removed')"
