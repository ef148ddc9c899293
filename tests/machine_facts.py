"""Shadow-memory differential harness for the machine's per-cycle facts.

The monitor judges records, so its soundness rests on three facts about how
the machine relates a record to machine state the record does not carry.
No proposition over records can state them; this harness checks them on
every cycle the simulator runs:

- **frame**: every byte a cycle changes lies at the record's CPU-write word
  (``w_en``; ``d_addr`` and ``d_addr + 1``) or its DMA-write word
  (``dma_en`` and ``dma_write``; ``dma_addr`` and ``dma_addr + 1``); after
  a reset, the registers and data RAM are zero and pc is the boot entry;
- **sensor**: the sensor is read once for each GPIO read the record shows,
  at the record's cycle and the read's address, and never otherwise. A GPIO
  read is a CPU read (``r_en``, ``d_addr`` in GPIO) or a DMA read
  (``dma_en``, not ``dma_write``, ``dma_addr`` in GPIO);
- **control flow**: the record's pc is the fetched pc, and the next pc is
  pc + size, the JMP/BRZ/CALL target, the value RET pops, or pc on HALT;
  with ``irq`` set and the machine not halted it is the IRQ vector. A
  fetch that does not decode gives a ``reset=1`` record, and one that
  decodes a ``reset=0`` record (the monitor's verdict is merged later).

``FactHarness.installed()`` replaces the module-level ``machine.exec_step``
that ``machine.run`` calls, and ``Machine.on_reset`` of every machine, with
checking wrappers. Before each cycle it copies memory (the shadow); after
it, the shadow is compared with memory, and the fetched bytes are decoded
from the shadow with ``isa.decode`` itself, never through the machine's
decode memo. Records that ``protocol`` synthesizes for staging and
verification are no ``exec_step`` cycles and are outside the per-cycle
facts, but their resets run through ``machine.commit_run``, which completes
them as ``machine.commit`` does, and so reach ``on_reset``: ``check_reset``
covers every reset of a round.

The three ``*_mutant`` functions are faulty machines, one per fact, built by
editing what the real ``exec_step`` reports.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from unittest.mock import patch

import numpy as np
from hypothesis import strategies as st

from mcusentry import machine as machine_module
from mcusentry.errors import DecodeError
from mcusentry.isa import MODE_ABS, Op, decode
from mcusentry.layout import ErWindow, default_layout
from mcusentry.machine import (DmaRequest, Machine, RunContext, SensorProvider,
                               SequenceSensor, load_image, run)
from mcusentry.referee import run_scenario
from mcusentry.scenarios import CATALOGUE, random_plan

FACTS = ("frame", "sensor", "control-flow")
REAL_STEP = machine_module.exec_step


class RecordingSensor(SensorProvider):
    """Forwards to the run's sensor and keeps (cycle, addr, value) per read."""

    def __init__(self, inner: SensorProvider):
        self.inner = inner
        self.calls: list[tuple[int, int, int]] = []

    def read(self, cycle: int, addr: int) -> int:
        value = self.inner.read(cycle, addr)
        self.calls.append((cycle, addr, value))
        return value


@dataclass
class FactHarness:
    """Checks the three facts on every cycle of ``step`` (the real
    ``exec_step`` unless a mutant is given) while installed."""

    step: object = REAL_STEP
    cycles: int = 0
    resets: int = 0
    violations: list[tuple[str, int, str]] = field(default_factory=list)

    @contextmanager
    def installed(self):
        harness = self

        def get_hook(machine):
            def on_reset(m):
                harness.check_reset(m)
                hook = m.__dict__.get("_hook")
                if hook is not None:
                    hook(m)
            return on_reset

        def set_hook(machine, hook):
            machine.__dict__["_hook"] = hook

        with patch.object(machine_module, "exec_step", self.exec_step), \
                patch.object(Machine, "on_reset", property(get_hook, set_hook),
                             create=True):
            yield self

    def by_fact(self) -> dict[str, int]:
        counts = dict.fromkeys(FACTS, 0)
        for fact, _, _ in self.violations:
            counts[fact] += 1
        return counts

    def _violate(self, fact: str, cycle: int, detail: str) -> None:
        self.violations.append((fact, cycle, detail))

    def exec_step(self, m: Machine, dma_request, irq_line: bool, sensor):
        shadow = bytes(m.memory)
        pc = m.pc & 0xFFFE
        regs = list(m.gpr)
        halted = m.halted
        recorder = RecordingSensor(sensor)
        rec = self.step(m, dma_request, irq_line, recorder)
        self.cycles += 1
        self._frame(shadow, m.memory, rec)
        self._sensor(m.layout, rec, recorder.calls)
        self._control_flow(m, shadow, pc, regs, halted, rec, recorder.calls)
        return rec

    def check_reset(self, m: Machine) -> None:
        self.resets += 1
        dmem = m.layout.dmem
        if any(m.gpr) or any(m.memory[dmem.start:dmem.end + 1]) \
                or m.pc != m.layout.boot_entry:
            self._violate("frame", m.cycle, "state after reset is not the "
                          "boot state (registers, DMEM, pc)")

    def _frame(self, shadow: bytes, memory: bytearray, rec) -> None:
        if shadow == memory:
            return
        changed = np.flatnonzero(np.frombuffer(shadow, np.uint8)
                                 != np.frombuffer(memory, np.uint8))
        allowed = set()
        if rec.w_en:
            allowed |= {rec.d_addr, rec.d_addr + 1}
        if rec.dma_en and rec.dma_write:
            allowed |= {rec.dma_addr, rec.dma_addr + 1}
        stray = [addr for addr in changed.tolist() if addr not in allowed]
        if stray:
            self._violate("frame", rec.cycle, "bytes changed outside the "
                          f"record's write words: {[hex(a) for a in stray[:4]]}")

    def _sensor(self, layout, rec, calls) -> None:
        expected = []
        if rec.r_en and rec.d_addr in layout.gpio:
            expected.append((rec.cycle, rec.d_addr))
        if rec.dma_en and not rec.dma_write and rec.dma_addr in layout.gpio:
            expected.append((rec.cycle, rec.dma_addr))
        got = [(cycle, addr) for cycle, addr, _ in calls]
        if got != expected:
            self._violate("sensor", rec.cycle,
                          f"sensor reads {got}, record's GPIO reads {expected}")

    def _control_flow(self, m: Machine, shadow: bytes, pc: int, regs, halted,
                      rec, calls) -> None:
        word0 = shadow[pc] | shadow[pc + 1] << 8
        nxt = (pc + 2) & 0xFFFF  # the second word wraps at the top word
        try:
            instr = decode(word0, shadow[nxt] | shadow[nxt + 1] << 8)
        except DecodeError:
            if not rec.reset:
                self._violate("control-flow", rec.cycle,
                              f"fetch {word0:#06x} at {pc:#x} does not decode, "
                              "yet the record has no reset")
            return
        if rec.reset or rec.pc != pc:
            self._violate("control-flow", rec.cycle,
                          f"decoded fetch at {pc:#x} gave a record with pc "
                          f"{rec.pc:#x} and reset={rec.reset}")
        op = instr.op
        allowed = {(pc + instr.size_bytes()) & 0xFFFF}
        if op in (Op.JMP, Op.CALL):
            allowed.add((instr.imm if instr.mode == MODE_ABS
                         else regs[instr.rs]) & 0xFFFE)
        elif op == Op.BRZ:
            allowed.add(instr.imm & 0xFFFE)
        elif op == Op.RET:
            sp = regs[7] & 0xFFFE
            if sp in m.layout.gpio and calls:
                popped = calls[0][2]
            else:
                popped = shadow[sp] | shadow[sp + 1] << 8
            allowed.add(popped & 0xFFFE)
        elif op == Op.HALT:
            allowed.add(pc)
        if rec.irq and not (halted or op == Op.HALT):
            allowed = {m.layout.effective_irq_vector}
        if m.pc not in allowed:
            self._violate("control-flow", rec.cycle,
                          f"{op.name} at {pc:#x} went to {m.pc:#x}, "
                          f"allowed {sorted(hex(a) for a in allowed)}")


# ---------------------------------------------------------------------------
# Faulty machines, one per fact


def store_without_w_en_mutant(m, dma_request, irq_line, sensor):
    """A STORE writes memory but its record clears the write enable."""
    is_store = m.memory[(m.pc & 0xFFFE) + 1] >> 4 == Op.STORE
    rec = REAL_STEP(m, dma_request, irq_line, sensor)
    return rec._replace(w_en=False) if is_store and rec.w_en else rec


def dma_gpio_read_unreported_mutant(m, dma_request, irq_line, sensor):
    """A DMA read of GPIO is serviced but its record clears ``dma_en``."""
    rec = REAL_STEP(m, dma_request, irq_line, sensor)
    if rec.dma_en and not rec.dma_write and rec.dma_addr in m.layout.gpio:
        return rec._replace(dma_en=False)
    return rec


def irq_unreported_mutant(m, dma_request, irq_line, sensor):
    """The machine vectors to the IRQ handler but its record clears ``irq``."""
    rec = REAL_STEP(m, dma_request, irq_line, sensor)
    if rec.irq and not rec.reset and not m.halted:
        return rec._replace(irq=False)
    return rec


MUTANTS = {
    "frame": store_without_w_en_mutant,
    "sensor": dma_gpio_read_unreported_mutant,
    "control-flow": irq_unreported_mutant,
}


# ---------------------------------------------------------------------------
# Corpus


def catalogue_rounds() -> None:
    for factory in CATALOGUE.values():
        run_scenario(factory(), check_goal=False)


def random_rounds(count: int, seed: int = 2_001) -> None:
    for index in range(count):
        run_scenario(random_plan(seed, index), check_goal=False)


LAYOUT = default_layout()
PROGRAM_AT = 0x4000
BARE_CYCLES = 48
# Addresses at region and window edges, so that register-indirect and
# absolute accesses, jumps and DMA land in GPIO, ROM, DMEM, the metadata
# cells, the top word and the program itself.
_EDGES = sorted({0, 2, LAYOUT.rom.end - 1, LAYOUT.er_min_cell, LAYOUT.er_max_cell,
                 LAYOUT.dmem.start, LAYOUT.dmem.end - 1, LAYOUT.gpio.start,
                 LAYOUT.gpio.end - 1, LAYOUT.ekr.start, 0xFFFE,
                 PROGRAM_AT, PROGRAM_AT + 2, PROGRAM_AT + 4, PROGRAM_AT + 8})
_WORDS = st.one_of(st.sampled_from(_EDGES), st.integers(0, 0xFFFF))


@st.composite
def _instruction_word(draw):
    """Mostly a valid opcode with random register and mode fields; now and
    then any word at all, so undecodable fetches occur too."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.integers(0, 0xFFFF))
    op = draw(st.sampled_from(list(Op)))
    return int(op) << 12 | draw(st.integers(0, 0x0FFF))


@dataclass
class BareRun:
    words: list[int]
    regs: list[int]
    dma: list[DmaRequest]
    irq_cycles: list[int]
    sensor: bytes
    dmem_fill: int  # every DMEM byte starts as this, so erasure shows


@st.composite
def bare_runs(draw):
    """A byte program at ``PROGRAM_AT`` (instruction words, each followed by
    an immediate word), random registers and DMEM fill, and random DMA and
    IRQ schedules."""
    words = []
    for _ in range(draw(st.integers(1, 12))):
        words += [draw(_instruction_word()), draw(_WORDS)]
    cycles = st.integers(0, BARE_CYCLES - 1)
    dma = [DmaRequest(cycle, op, addr, value) for cycle, (op, addr, value) in
           draw(st.dictionaries(cycles, st.tuples(
               st.sampled_from(("read", "write")), _WORDS,
               st.integers(0, 0xFFFF)), max_size=6)).items()]
    return BareRun(words, draw(st.lists(_WORDS, min_size=8, max_size=8)), dma,
                   draw(st.lists(cycles, max_size=4)),
                   draw(st.binary(min_size=2, max_size=16)),
                   draw(st.integers(0, 0xFF)))


def run_bare(spec: BareRun) -> None:
    """Run one drawn program on a machine with no monitor attached."""
    image = bytearray(PROGRAM_AT)
    for word in spec.words:
        image += word.to_bytes(2, "little")
    m = load_image(LAYOUT, bytes(image), ErWindow(PROGRAM_AT, PROGRAM_AT + 4))
    m.pc = PROGRAM_AT
    m.gpr = list(spec.regs)
    dmem = LAYOUT.dmem
    m.memory[dmem.start:dmem.end + 1] = bytes([spec.dmem_fill]) * len(dmem)
    ctx = RunContext.build(sensor=SequenceSensor(spec.sensor), dma=spec.dma,
                           irq_cycles=spec.irq_cycles)
    run(m, None, ctx, BARE_CYCLES)
