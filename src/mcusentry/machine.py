"""Deterministic cycle-level machine model.

One instruction executes per cycle and emits exactly one StateRecord
carrying the bus signals the hardware monitor consumes: pc, read/write
enables with the data address, DMA enable/address, the interrupt line, and
the reset signal. Propositions over records are the ``props`` entries; the
trace dump's region-tag column is printed from them too.

A StateRecord is a ``typing.NamedTuple``: immutable (assigning a field
raises ``AttributeError``), hashable, iterable in ``COLUMNS`` order and
equal to the plain tuple of its field values. Derive a changed record with
``rec._replace(reset=True)``; ``dataclasses.replace`` does not accept it.

Conventions fixed here:

- all word accesses (pc, data, DMA) are forced to even addresses;
- instruction fetch does not assert the read enable, only data reads do;
- GPIO reads return the external sensor provider's value for that cycle,
  GPIO writes latch to an output log and never touch the memory image;
- writes to ROM are electrically ignored (signals still assert);
- the reset routine completes atomically between records: registers and
  the data RAM are zeroed, flash and ROM persist, pc restarts at the boot
  entry;
- the executable-window bounds the monitor compares against are sampled
  from the metadata cells at the start of every cycle.

Each ``Machine`` keeps a decode memo keyed on the four bytes fetched at pc
(the second word wrapping to address 0 at the top word), so a cycle whose
bytes were seen before skips ``decode``. Because the key is the live
bytes, not the address, nothing invalidates it: self-modifying code, a DMA
write into code, the reset routine's DMEM erasure and a direct write to
``memory`` all change what the next fetch looks up.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, count
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DecodeError, ImageError
from .isa import MODE_ABS, WORD_MASK, decode
from .layout import ADDRESS_SPACE, ErWindow, MemoryLayout
from .props import REGION_NAMES, build_props, named_region


def _align(addr: int) -> int:
    return addr & 0xFFFE


@dataclass(frozen=True)
class DmaRequest:
    """One DMA bus transaction, serviced exactly at ``at_cycle``."""

    at_cycle: int
    op: str  # "read" | "write"
    addr: int
    value: int = 0

    def __post_init__(self):
        if self.op not in ("read", "write"):
            raise ValueError(f"bad DMA op {self.op!r}")
        in_range = 0 <= self.addr <= WORD_MASK and 0 <= self.value <= WORD_MASK
        if self.at_cycle < 0 or not in_range:
            raise ValueError(f"DMA request out of range: {self}")


class SensorProvider:
    """External input source backing the GPIO region.

    ``read`` may be stateful (e.g. a streamed pattern); a fresh provider per
    run keeps whole simulations deterministic.
    """

    def read(self, cycle: int, addr: int) -> int:
        raise NotImplementedError


class ConstantSensor(SensorProvider):
    def __init__(self, value: int = 0):
        self.value = value & WORD_MASK

    def read(self, cycle: int, addr: int) -> int:
        return self.value


class SequenceSensor(SensorProvider):
    """Feeds successive words per read event, then repeats the last word."""

    def __init__(self, data: bytes):
        if len(data) % 2:
            data += b"\x00"
        self.words = [int.from_bytes(data[i:i + 2], "little") for i in range(0, len(data), 2)]
        if not self.words:
            self.words = [0]
        self._cursor = 0

    def read(self, cycle: int, addr: int) -> int:
        word = self.words[min(self._cursor, len(self.words) - 1)]
        self._cursor += 1
        return word


class StateRecord(NamedTuple):
    """Observable state of one cycle; the unit all properties range over.

    A named tuple of the fields below, in ``COLUMNS`` order: it compares
    equal to the plain tuple of those values, iterates over them, and is
    changed only by building a new one, ``rec._replace(field=value)``.
    """

    cycle: int
    pc: int
    r_en: bool = False
    w_en: bool = False
    d_addr: int = 0
    dma_en: bool = False
    dma_addr: int = 0
    dma_write: bool = False
    irq: bool = False
    reset: bool = False
    executed: int | None = None
    er_min: int = 0
    er_max: int = 0


# Field order of the packed column form; ``executed`` packs ``None`` as -1,
# which lies below every window since addresses are unsigned words.
COLUMNS = ("cycle", "pc", "r_en", "w_en", "d_addr", "dma_en", "dma_addr",
           "dma_write", "irq", "reset", "executed", "er_min", "er_max")
_WIDTH, _EXECUTED = len(COLUMNS), COLUMNS.index("executed")
_NONE_AS_MINUS_ONE = {None: -1}.get  # as get(x, x): -1 for None, else x


def pack_records(records: Sequence[StateRecord]) -> np.ndarray:
    """The record-to-column mapping for a sequence of ``StateRecord``
    tuples: one int32 row per field of ``COLUMNS`` (flags as 0/1), one
    column per record.

    The records' fields are flattened into one list and converted by one
    ``struct.pack``; only the ``executed`` slice is rewritten, and only
    when it holds a ``None``."""
    if records and not isinstance(records[0], StateRecord):
        raise TypeError("pack_records takes StateRecords, not "
                        f"{type(records[0]).__name__}")
    flat = list(chain.from_iterable(records))
    executed = flat[_EXECUTED::_WIDTH]
    if None in executed:
        flat[_EXECUTED::_WIDTH] = map(_NONE_AS_MINUS_ONE, executed, executed)
    words = struct.pack(f"={len(flat)}i", *flat)
    return np.frombuffer(words, np.int32).reshape(len(records), _WIDTH).T.copy()


class RecordColumns:
    """Struct-of-arrays view of a record sequence.

    ``packed`` is the records' ``pack_records`` matrix, read-only, and
    each ``StateRecord`` field is its row under the field's own name, so
    an expression over record attributes written with ``&``, ``|`` and
    comparisons evaluates on one record and on a whole sequence alike.
    """

    def __init__(self, records: Sequence[StateRecord]):
        self.packed = pack_records(records)
        self.packed.flags.writeable = False
        for name, column in zip(COLUMNS, self.packed):
            setattr(self, name, column)

    def __len__(self) -> int:
        return self.packed.shape[1]


@lru_cache(maxsize=8)
def _region_table(layout: MemoryLayout) -> np.ndarray:
    """Bounds of the fixed regions the dump's tags are computed against;
    built once per layout value and read-only, as ``build_props`` is."""
    bounds = []
    for name in REGION_NAMES:
        if name != "ER":
            region = named_region(layout, name)
            bounds += [region.start, region.end]
    table = np.array(bounds, dtype="<i4")
    table.flags.writeable = False
    return table


def _dump_tags(rec: StateRecord, layout: MemoryLayout) -> list[str]:
    """The dump's tag column of one record, in sorted order: per region
    name, the CPU read or write and the DMA transfer (by direction) that
    touch it, as its ``cpu_read``, ``cpu_write`` and ``dma_touch`` entries
    of ``props`` say, and the interrupt and reset lines."""
    props = build_props(layout)
    tags = ("READ", "cpu_read"), ("WRITE", "cpu_write"), \
        ("DMA_W" if rec.dma_write else "DMA_R", "dma_touch")
    out = [f"{tag}({name})" for name in REGION_NAMES for tag, entry in tags
           if props[f"{entry} {name}"](rec)]
    if rec.irq:
        out.append("IRQ")
    if rec.reset:
        out.append("RESET")
    return sorted(out)


@dataclass
class Trace:
    """Record sequence plus how the run ended.

    ``columns``, the records' ``RecordColumns``, is packed at first use
    and kept: ``digest`` reads it, and so does the lasso
    ``ltl.LassoTrace.from_records`` builds from the trace. So ``records``
    must not change once it is read.
    """

    records: list[StateRecord] = field(default_factory=list)
    terminal: str = "max-cycles"  # "halted" | "reset-sink" | "max-cycles"

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def dump(self, layout: MemoryLayout) -> str:
        """Tab-separated dump, bit-exact across runs."""
        lines = []
        for r in self.records:
            tags = ",".join(_dump_tags(r, layout))
            lines.append(
                f"{r.cycle}\t{r.pc:04x}\t{int(r.r_en)}{int(r.w_en)}\t{r.d_addr:04x}"
                f"\t{int(r.dma_en)}{int(r.dma_write)}\t{r.dma_addr:04x}"
                f"\t{int(r.irq)}\t{int(r.reset)}\t{r.er_min:04x}\t{r.er_max:04x}\t{tags}"
            )
        lines.append(f"#terminal={self.terminal}")
        return "\n".join(lines) + "\n"

    @cached_property
    def columns(self) -> RecordColumns:
        return RecordColumns(self.records)

    def digest(self, layout: MemoryLayout) -> str:
        """SHA-256 over the packed record columns, ``terminal`` and the
        layout's region table.

        That is everything ``dump`` prints: the tags are a function of the
        record fields and those regions. ``executed`` is committed to as
        well, although the dump omits it.
        """
        h = hashlib.sha256(self.terminal.encode() + b"\0")
        h.update(_region_table(layout).tobytes())
        h.update(self.columns.packed.astype("<i4", copy=False).tobytes())
        return h.hexdigest()


class Machine:
    """Mutable machine instance: registers, memory, and peripheral logs."""

    def __init__(self, layout: MemoryLayout):
        self.layout = layout
        self.memory = bytearray(ADDRESS_SPACE)
        self.pc = layout.boot_entry
        self.gpr = [0] * 8
        self.halted = False
        self.cycle = 0
        self.gpio_out: list[tuple[int, int, int]] = []  # (cycle, addr, value)
        self.dma_read_log: list[tuple[int, int, int]] = []
        # Called with the machine after every completed reset routine.
        self.on_reset: Callable[["Machine"], None] | None = None
        # Decoded form of each fetched four bytes, see ``exec_step``.
        self.decode_memo: dict[bytes, tuple] = {}

    def load_word(self, addr: int) -> int:
        addr = _align(addr)
        return int.from_bytes(self.memory[addr:addr + 2], "little")

    def store_word(self, addr: int, value: int) -> None:
        addr = _align(addr)
        self.memory[addr:addr + 2] = (value & WORD_MASK).to_bytes(2, "little")

    def er_window(self) -> tuple[int, int]:
        """Live window bounds as the monitor samples them each cycle: the
        raw little-endian words in the two metadata cells. Nothing aligns
        them, so either may be odd (metadata is attacker writable). A pc is
        always even, so ``pc_at ermin`` or ``pc_at ermax`` never meets an
        odd bound: ``protocol.verify_dev`` refuses such a window before its
        digest sweep, as ``ErWindow`` refuses odd bounds."""
        mem, layout = self.memory, self.layout
        lo, hi = layout.er_min_cell, layout.er_max_cell
        return mem[lo] | mem[lo + 1] << 8, mem[hi] | mem[hi + 1] << 8


def load_image(layout: MemoryLayout, image: bytes, er: ErWindow,
               rom: bytes | None = None) -> Machine:
    """Build a machine in post-reset state from a flat memory image.

    The image covers flash and RAM; any non-zero byte falling in the ROM
    range is a configuration error (ROM is burnt at manufacture, not
    loadable). Trusted ROM content, if any, is passed separately via
    ``rom`` and placed at the start of the ROM region. The window bounds
    are written into the metadata cells.
    """
    if len(image) > ADDRESS_SPACE:
        raise ImageError(f"image of {len(image)} bytes exceeds the 64 KB space")
    layout.validate_window(er)
    overlap = image[layout.rom.start:layout.rom.end + 1]
    if overlap.count(0) != len(overlap):
        raise ImageError("image writes into the ROM range")
    machine = Machine(layout)
    machine.memory[:len(image)] = image
    if rom:
        if len(rom) > len(layout.rom):
            raise ImageError("ROM content exceeds the ROM region")
        machine.memory[layout.rom.start:layout.rom.start + len(rom)] = rom
    machine.store_word(layout.er_min_cell, er.er_min)
    machine.store_word(layout.er_max_cell, er.er_max)
    reset_routine(machine)
    return machine


def reset_routine(machine: Machine) -> Machine:
    """Hardware reset: zero all registers and the data RAM, restart at boot.

    Flash (pmem), ROM, and the persistent counter survive; the erasure of
    dmem completes before any subsequent instruction is observable, and
    before ``machine.on_reset`` sees the machine.
    """
    layout = machine.layout
    machine.gpr = [0] * 8
    dmem = layout.dmem
    machine.memory[dmem.start:dmem.end + 1] = bytes(len(dmem))
    machine.pc = layout.boot_entry
    machine.halted = False
    if machine.on_reset is not None:
        machine.on_reset(machine)
    return machine


_FAULT = ()  # memo value of fetched bytes that do not decode
_tuple_new = tuple.__new__


def exec_step(
    machine: Machine,
    dma_request: DmaRequest | None,
    irq_line: bool,
    sensor: SensorProvider,
) -> StateRecord:
    """Fetch, decode, and execute one instruction; emit the cycle's record.

    The returned record's ``reset`` flag covers machine faults only;
    ``commit`` merges in the monitor's verdict and runs the reset routine. DMA
    effects apply after the CPU's own access within the same cycle. The
    module-level ``decode`` runs only for fetched bytes missing from
    ``machine.decode_memo``, which gains at most one entry per cycle.
    """
    layout = machine.layout
    mem = machine.memory
    lo, hi = layout.er_min_cell, layout.er_max_cell
    er_min = mem[lo] | mem[lo + 1] << 8
    er_max = mem[hi] | mem[hi + 1] << 8
    pc = machine.pc & 0xFFFE
    cycle = machine.cycle
    machine.cycle = cycle + 1

    fetched = bytes(mem[pc:pc + 4]) if pc != 0xFFFE else bytes(mem[pc:] + mem[:2])
    decoded = machine.decode_memo.get(fetched)
    if decoded is None:
        try:
            instr = decode(fetched[0] | fetched[1] << 8, fetched[2] | fetched[3] << 8)
        except DecodeError:
            decoded = _FAULT
        else:
            decoded = (int(instr.op), instr.rd, instr.rs, instr.imm,
                       instr.mode == MODE_ABS, instr.size_bytes())
        machine.decode_memo[fetched] = decoded
    if decoded is _FAULT:
        return StateRecord(cycle, machine.pc, irq=irq_line, reset=True,
                           er_min=er_min, er_max=er_max)
    op, rd, rs, imm, absolute, size = decoded

    # The chain compares ``Op`` values as plain ints (an enum attribute costs
    # more than the comparison). It sets registers and pc and names the
    # cycle's one data access, which is applied once, after the chain.
    r_en = w_en = False
    d_addr = 0
    next_pc = (pc + size) & WORD_MASK
    g = machine.gpr
    if op == 2:  # LOADI
        g[rd] = imm
    elif op == 3:  # LOAD
        r_en = True
        d_addr = (imm if absolute else g[rs]) & 0xFFFE
    elif op == 4:  # STORE
        w_en = True
        d_addr = (imm if absolute else g[rd]) & 0xFFFE
        value = g[rs]
    elif op == 5:  # ADD
        g[rd] = (g[rd] + g[rs]) & WORD_MASK
    elif op == 6:  # SUB
        g[rd] = (g[rd] - g[rs]) & WORD_MASK
    elif op == 7:  # AND
        g[rd] &= g[rs]
    elif op == 8:  # JMP
        next_pc = (imm if absolute else g[rs]) & 0xFFFE
    elif op == 9:  # BRZ
        if g[rd] == 0:
            next_pc = imm & 0xFFFE
    elif op == 10:  # CALL; r7 doubles as the stack pointer
        target = imm if absolute else g[rs]
        g[7] = (g[7] - 2) & WORD_MASK
        w_en = True
        d_addr = g[7] & 0xFFFE
        value = next_pc
        next_pc = target & 0xFFFE
    elif op == 11:  # RET
        r_en = True
        d_addr = g[7] & 0xFFFE
        g[7] = (g[7] + 2) & WORD_MASK
    elif op == 12:  # HALT
        machine.halted = True
        next_pc = pc

    if r_en:
        if d_addr in layout.gpio:
            value = sensor.read(cycle, d_addr) & WORD_MASK
        else:
            value = mem[d_addr] | mem[d_addr + 1] << 8
        if op == 3:  # LOAD, else RET
            g[rd] = value
        else:
            next_pc = value & 0xFFFE
    elif w_en:
        if d_addr in layout.gpio:
            machine.gpio_out.append((cycle, d_addr, value & WORD_MASK))
        elif d_addr not in layout.rom:  # ROM ignores writes; the signals still assert
            mem[d_addr] = value & 0xFF
            mem[d_addr + 1] = value >> 8 & 0xFF

    dma_en = False
    dma_addr = 0
    dma_write = False
    if dma_request is not None:
        dma_en = True
        dma_addr = _align(dma_request.addr)
        dma_write = dma_request.op == "write"
        if dma_write:
            if dma_addr in layout.gpio:
                machine.gpio_out.append((cycle, dma_addr, dma_request.value & WORD_MASK))
            elif dma_addr not in layout.rom:
                machine.store_word(dma_addr, dma_request.value)
        else:
            if dma_addr in layout.gpio:
                value = sensor.read(cycle, dma_addr) & WORD_MASK
            else:
                value = machine.load_word(dma_addr)
            machine.dma_read_log.append((cycle, dma_addr, value))

    if irq_line and not machine.halted:
        next_pc = layout.effective_irq_vector

    machine.pc = next_pc
    # The tuple of ``COLUMNS`` values, as ``commit_run`` builds its
    # records: the named tuple's own constructor costs about 0.3 us more
    # per record, once per simulated cycle.
    return _tuple_new(StateRecord, (cycle, pc, r_en, w_en, d_addr, dma_en,
                                    dma_addr, dma_write, irq_line, False, pc,
                                    er_min, er_max))


POST_RESET_CYCLES = 16  # records ``run`` keeps after the first reset


@dataclass
class RunContext:
    """Schedules and knobs shared by every stepping loop."""

    sensor: SensorProvider = field(default_factory=ConstantSensor)
    dma_schedule: dict[int, DmaRequest] = field(default_factory=dict)
    irq_cycles: frozenset[int] = frozenset()

    @staticmethod
    def build(sensor: SensorProvider | None = None,
              dma: Iterable[DmaRequest] = (),
              irq_cycles: Iterable[int] = ()) -> "RunContext":
        schedule: dict[int, DmaRequest] = {}
        for req in dma:
            if req.at_cycle in schedule:
                raise ValueError(f"two DMA requests at cycle {req.at_cycle}")
            schedule[req.at_cycle] = req
        irq_cycles = frozenset(irq_cycles)
        if irq_cycles and min(irq_cycles) < 0:
            raise ValueError(f"negative IRQ cycle {min(irq_cycles)}")
        return RunContext(
            sensor=sensor or ConstantSensor(),
            dma_schedule=schedule,
            irq_cycles=irq_cycles,
        )


def _complete_reset(machine: Machine, monitor, rec: StateRecord) -> StateRecord:
    """``rec`` marked ``reset=True``, after ``force_reset`` and
    ``reset_routine``, which erases the data RAM and runs ``on_reset``."""
    if monitor is not None:
        monitor.force_reset()
    reset_routine(machine)
    return rec._replace(reset=True)


def commit(machine: Machine, monitor, rec: StateRecord) -> StateRecord:
    """The judge-and-reset step of each cycle ``run`` executes: step
    ``monitor`` (if any) on ``rec``; on a fault or a monitor reset,
    complete the reset and return the record marked ``reset=True``.
    The protocol's synthesized records are built and judged by
    ``commit_run``, one run at a time."""
    if (monitor is not None and monitor.step(rec)) or rec.reset:
        rec = _complete_reset(machine, monitor, rec)
    return rec


def commit_run(machine: Machine, monitor, out: list[StateRecord],
               pcs: Iterable[int], d_addrs: Iterable[int], *, r_en: bool = False,
               w_en: bool = False, store: bytes | None = None) -> bool:
    """Build and judge one run of synthesized records, the trusted
    verifier's and installer's cycles; return whether the run reset.

    One record per ``d_addrs`` entry, with pc (and ``executed``) from
    ``pcs``, cycles counted from ``machine.cycle``, the live bounds
    sampled once, and no DMA, irq or reset; a ``pcs`` shared with the
    next run loses no pc past the last record. ``monitor`` (if any)
    steps the whole run with ``Monitor.step_run``; the records up to and
    including the first that resets go to ``out``, and ``machine.cycle``
    advances by their number. A store run's ``store`` holds its words,
    stored at the run's contiguous addresses; the kept words are written
    before the reset completes, as in ``commit``.

    Verifier execution is uninterruptible: DMA and IRQ are never serviced
    during a run, and requests scheduled at its cycles lapse. Once the
    scheduler services them (ROADMAP item 4), a run must be cut at each
    scheduled DMA or IRQ cycle.
    """
    er_min, er_max = machine.er_window()
    run = [_tuple_new(StateRecord, (c, pc, r_en, w_en, d, False, 0, False,
                                    False, False, pc, er_min, er_max))
           for d, c, pc in zip(d_addrs, count(machine.cycle), pcs)]
    cut = len(run) if monitor is None else monitor.step_run(run)
    kept = min(cut + 1, len(run))
    machine.cycle += kept
    if store:
        start = run[0].d_addr
        machine.memory[start:start + 2 * kept] = store[:2 * kept]
    if cut == len(run):
        out += run
        return False
    out += run[:cut]
    out.append(_complete_reset(machine, monitor, run[cut]))
    return True


def run(machine: Machine, monitor, ctx: RunContext, max_cycles: int) -> Trace:
    """Step machine and monitor in lock-step until halt, budget, or settle.

    ``monitor`` is any object with ``step(StateRecord) -> bool`` and
    ``force_reset()``, or ``None``; ``commit`` judges each record. After
    the first reset the run continues ``POST_RESET_CYCLES`` more records
    to make post-reset state observable, then terminates as a reset sink.
    """
    if max_cycles <= 0:
        raise ValueError("max_cycles must be positive")
    trace = Trace()
    sink_at: int | None = None  # record count at which the run stops
    for _ in range(max_cycles):
        if machine.halted:
            trace.terminal = "halted"
            return trace
        cycle = machine.cycle
        rec = commit(machine, monitor, exec_step(
            machine, ctx.dma_schedule.get(cycle), cycle in ctx.irq_cycles, ctx.sensor))
        trace.records.append(rec)
        if rec.reset and sink_at is None:
            sink_at = len(trace.records) + POST_RESET_CYCLES
        if len(trace.records) == sink_at:
            trace.terminal = "reset-sink"
            return trace
    trace.terminal = "halted" if machine.halted else "max-cycles"
    return trace
