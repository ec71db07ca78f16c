"""A genetic autotuner over pass sequences and numeric compiler flags.

This mirrors the paper's use of OpenTuner (Section 4.2): candidate
configurations are pass sequences up to a bounded depth plus values for the
numeric knobs (inline-threshold, unroll-threshold); the fitness function is
the zkVM *cycle count*, which the paper shows is a cheap and faithful proxy
for execution and proving time.

The search is generational: each generation's population is submitted to the
runner as **one batched shard** via ``measure_pairs``, so an
:class:`~repro.experiments.engine.ExperimentEngine` evaluates the whole
generation across worker processes and memoizes every candidate in the
content-addressed measurement cache.  Because cache keys hash the pass list
and knobs (not the candidate's name), re-discovered configurations — and
entire re-runs with the same seed — cost nothing to re-evaluate.

That cache is also how a search resumes.  The search is deterministic in its
seed, and a smaller budget evaluates a prefix of a larger budget's
candidates, so rerunning an interrupted search, or extending a finished one
with more iterations, answers every candidate already measured from the
cache.  Cache keys hash every package source and the cost models, so a
resumed search's fitness is always measured by the code that reports it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..passes import PassConfig, available_passes
from ..experiments.profiles import Profile, custom_profile
from ..experiments.runner import BenchmarkRunner


@dataclass
class TuningSpace:
    """The search space: which passes may appear and the numeric knob ranges."""

    passes: tuple[str, ...] = ()
    max_depth: int = 20
    inline_threshold_range: tuple[int, int] = (25, 5000)
    unroll_threshold_range: tuple[int, int] = (0, 1000)

    def __post_init__(self):
        if not self.passes:
            self.passes = tuple(available_passes())


@dataclass
class Candidate:
    """One configuration in the population."""

    passes: list[str]
    inline_threshold: int
    unroll_threshold: int
    fitness: Optional[float] = None

    def to_profile(self, name: str) -> Profile:
        config = PassConfig(inline_threshold=self.inline_threshold,
                            unroll_threshold=self.unroll_threshold)
        return custom_profile(name, self.passes, config)


@dataclass
class AutotuneResult:
    """Outcome of one autotuning run."""

    benchmark: str
    zkvm: str
    best: Candidate
    best_cycles: int
    baseline_cycles: int
    o3_cycles: int
    evaluations: int
    history: list = field(default_factory=list)

    @property
    def speedup_over_o3(self) -> float:
        return self.o3_cycles / self.best_cycles if self.best_cycles else 1.0

    @property
    def gain_over_o3_percent(self) -> float:
        if self.o3_cycles == 0:
            return 0.0
        return (self.o3_cycles - self.best_cycles) / self.o3_cycles * 100.0


class GeneticAutotuner:
    """Population-based search over pass sequences.

    Pass an :class:`~repro.experiments.engine.ExperimentEngine` as ``runner``
    to evaluate each generation in parallel and persist every candidate
    measurement; a plain :class:`BenchmarkRunner` evaluates the same batches
    serially.  ``generation_size`` controls how many children are bred (and
    measured as one shard) per generation.
    """

    def __init__(self, runner: Optional[BenchmarkRunner] = None,
                 space: Optional[TuningSpace] = None,
                 population_size: int = 12, seed: int = 0,
                 zkvm: str = "risc0",
                 generation_size: Optional[int] = None,
                 size_weight: float = 0.0):
        self.runner = runner or BenchmarkRunner()
        self.space = space or TuningSpace()
        self.population_size = population_size
        self.generation_size = generation_size or max(2, population_size // 2)
        self.seed = seed
        self.random = random.Random(seed)
        self.zkvm = zkvm
        #: Weight of the RVC binary footprint in candidate fitness:
        #: ``cycles + size_weight * code_bytes``.  0.0 preserves the
        #: historical cycles-only objective; positive values trade cycles
        #: for smaller guest images (the paper's zkVM setting prices both).
        self.size_weight = size_weight
        self.evaluations = 0

    # -- candidate construction -------------------------------------------------
    def random_candidate(self) -> Candidate:
        """A uniformly random pass sequence plus random knob values."""
        depth = self.random.randint(1, self.space.max_depth)
        passes = [self.random.choice(self.space.passes) for _ in range(depth)]
        return Candidate(
            passes=passes,
            inline_threshold=self.random.randint(*self.space.inline_threshold_range),
            unroll_threshold=self.random.randint(*self.space.unroll_threshold_range),
        )

    def mutate(self, candidate: Candidate) -> Candidate:
        """Replace/insert/drop one pass and occasionally re-roll the knobs."""
        passes = list(candidate.passes)
        op = self.random.random()
        if op < 0.3 and passes:
            passes[self.random.randrange(len(passes))] = self.random.choice(self.space.passes)
        elif op < 0.55 and len(passes) < self.space.max_depth:
            passes.insert(self.random.randrange(len(passes) + 1),
                          self.random.choice(self.space.passes))
        elif op < 0.8 and len(passes) > 1:
            passes.pop(self.random.randrange(len(passes)))
        inline_threshold = candidate.inline_threshold
        unroll_threshold = candidate.unroll_threshold
        if self.random.random() < 0.3:
            inline_threshold = self.random.randint(*self.space.inline_threshold_range)
        if self.random.random() < 0.3:
            unroll_threshold = self.random.randint(*self.space.unroll_threshold_range)
        return Candidate(passes, inline_threshold, unroll_threshold)

    def crossover(self, a: Candidate, b: Candidate) -> Candidate:
        """Splice a prefix of ``a`` onto a suffix of ``b``, inheriting knobs."""
        if a.passes and b.passes:
            cut_a = self.random.randrange(len(a.passes) + 1)
            cut_b = self.random.randrange(len(b.passes) + 1)
            passes = (a.passes[:cut_a] + b.passes[cut_b:])[: self.space.max_depth]
        else:
            passes = list(a.passes or b.passes)
        return Candidate(passes or [self.random.choice(self.space.passes)],
                         self.random.choice([a.inline_threshold, b.inline_threshold]),
                         self.random.choice([a.unroll_threshold, b.unroll_threshold]))

    def _breed(self, survivors: list[Candidate]) -> Candidate:
        """One child for the next generation: mutation or survivor crossover."""
        if self.random.random() < 0.5 or len(survivors) < 2:
            return self.mutate(self.random.choice(survivors))
        return self.crossover(*self.random.sample(survivors, 2))

    # -- fitness ----------------------------------------------------------------
    def evaluate_generation(self, benchmark: str,
                            candidates: list[Candidate]) -> None:
        """Measure a generation's candidates as one batched shard.

        The whole batch goes through ``runner.measure_pairs`` with
        ``on_error="none"``: an engine shards it across workers, and a
        candidate whose compilation or emulation fails (e.g. it blows the
        instruction budget) gets infinite fitness instead of aborting the
        search.  Fitness is written onto each candidate in place.
        """
        pairs = []
        for candidate in candidates:
            pairs.append((benchmark,
                          candidate.to_profile(f"tuned-{self.evaluations}")))
            self.evaluations += 1
        measurements = self.runner.measure_pairs(pairs, on_error="none")
        for candidate, measurement in zip(candidates, measurements):
            if measurement is None:
                candidate.fitness = float("inf")
            else:
                candidate.fitness = self._objective(measurement)

    def _objective(self, measurement) -> float:
        """Candidate fitness: proven cycles plus the weighted binary size."""
        cycles = float(measurement.metric(self.zkvm, "total_cycles"))
        if not self.size_weight:
            return cycles
        sizes = measurement.code_bytes or {}
        return cycles + self.size_weight * float(sizes.get("rvc", 0))

    # -- search ---------------------------------------------------------------------
    def tune(self, benchmark: str, iterations: int = 40) -> AutotuneResult:
        """Run the genetic search for (at most) ``iterations`` evaluations.

        The initial population and every subsequent generation of children
        are each evaluated as one batched shard (parallel under an engine;
        see :meth:`evaluate_generation`).
        """
        from ..experiments.profiles import baseline_profile, profile_by_name

        baseline = self.runner.measure(benchmark, baseline_profile())
        o3 = self.runner.measure(benchmark, profile_by_name("-O3"))
        baseline_cycles = int(baseline.metric(self.zkvm, "total_cycles"))
        o3_cycles = int(o3.metric(self.zkvm, "total_cycles"))

        population = [self.random_candidate()
                      for _ in range(self.population_size)]
        # Seed the population with the -O3 sequence so the search starts from
        # a strong configuration (OpenTuner does the same with -O3 as a
        # baseline).
        from ..passes import OPTIMIZATION_LEVELS
        population[0] = Candidate(
            list(OPTIMIZATION_LEVELS["-O3"])[: self.space.max_depth],
            inline_threshold=325, unroll_threshold=300)

        history = []
        # Always evaluate at least one candidate so a tiny/zero budget still
        # yields a well-formed result (the -O3 seed).
        population = population[: max(1, iterations)]
        self.evaluate_generation(benchmark, population)
        evaluated = len(population)
        best = min(population, key=lambda c: c.fitness
                   if c.fitness is not None else float("inf"))
        history.append((evaluated, best.fitness))

        while evaluated < iterations:
            population.sort(key=lambda c: c.fitness
                            if c.fitness is not None else float("inf"))
            survivors = population[: max(2, self.population_size // 3)]
            children = [self._breed(survivors)
                        for _ in range(min(self.generation_size,
                                           iterations - evaluated))]
            self.evaluate_generation(benchmark, children)
            evaluated += len(children)
            population.extend(children)
            best = min(population, key=lambda c: c.fitness
                       if c.fitness is not None else float("inf"))
            history.append((evaluated, best.fitness))

        population.sort(key=lambda c: c.fitness if c.fitness is not None else float("inf"))
        best = population[0]
        return AutotuneResult(
            benchmark=benchmark, zkvm=self.zkvm, best=best,
            best_cycles=int(best.fitness if best.fitness not in (None, float("inf"))
                            else baseline_cycles),
            baseline_cycles=baseline_cycles, o3_cycles=o3_cycles,
            evaluations=evaluated, history=history,
        )
