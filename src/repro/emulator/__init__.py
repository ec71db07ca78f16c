"""RISC-V guest emulator: replays compiled guest programs and records the
execution trace statistics that the zkVM cost models consume.

Three interchangeable execution paths live here:

* :class:`Machine` — the production emulator: decode-once
  (:func:`decode_program`) and table dispatch over pre-decoded tuples, with
  a second loop that times the run on an attached ``CpuTimingModel``;
* :class:`ReferenceMachine` — the original per-instruction interpreter, kept
  as the executable specification for differential testing; it drives
  observers (the ``CpuTimingModel`` oracle) one event per instruction;
* :class:`TranslatedMachine` — the superblock-translating engine: hot
  decoded regions compiled once into specialized Python closures, with the
  interpreter loops as the fallback for cold/irregular code and timed runs.
"""

from .decoder import DecodedProgram, decode_program
from .machine import EmulationError, Machine, run_program
from .reference import ReferenceMachine
from .translate import TranslatedMachine, TranslationCache, translation_cache
from .trace import PAGE_SIZE, TraceStats

__all__ = ["DecodedProgram", "decode_program",
           "EmulationError", "Machine", "ReferenceMachine",
           "TranslatedMachine", "TranslationCache",
           "run_program", "translation_cache",
           "PAGE_SIZE", "TraceStats"]
