"""Cycle-level machine semantics: signals, dump tags, reset, determinism."""

from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcusentry.errors import ImageError
from mcusentry.isa import (ADD, BRZ, CALL, HALT, JMP, LOAD, LOADI, NOP, RET,
                           STORE, assemble)
from mcusentry.layout import ErWindow, default_layout
from mcusentry.machine import (COLUMNS, ConstantSensor, DmaRequest, RunContext,
                               SequenceSensor, StateRecord, Trace, exec_step,
                               _dump_tags, _region_table, load_image,
                               pack_records, reset_routine, run)

LAYOUT = default_layout()
ER = ErWindow(0x4000, 0x4004)


def fresh_machine(program: bytes = b"", at: int = 0x4000, er: ErWindow = ER):
    image = bytearray(at + len(program))
    image[at:at + len(program)] = program
    machine = load_image(LAYOUT, bytes(image), er)
    machine.pc = at
    return machine


def step(machine, dma=None, irq=False, sensor=None):
    return exec_step(machine, dma, irq, sensor or ConstantSensor(0))


def test_gpio_load_sets_read_signals():
    gpio_addr = LAYOUT.gpio.start
    machine = fresh_machine(assemble([LOAD(1, gpio_addr)]))
    rec = step(machine, sensor=ConstantSensor(0x1234))
    assert rec.r_en and rec.d_addr == gpio_addr
    assert not (rec.w_en or rec.dma_en or rec.irq or rec.reset)
    assert machine.gpr[1] == 0x1234


def test_nop_advances_pc_without_tags():
    machine = fresh_machine(assemble([NOP()]))
    rec = step(machine)
    assert machine.pc == 0x4002
    assert not (rec.r_en or rec.w_en or rec.dma_en or rec.irq or rec.reset)


def test_dma_write_sets_dma_signals():
    machine = fresh_machine(assemble([NOP()]))
    req = DmaRequest(at_cycle=0, op="write", addr=0xE100, value=0xBEEF)
    rec = step(machine, dma=req)
    assert rec.dma_en and rec.dma_addr == 0xE100 and rec.dma_write
    assert rec.dma_addr in LAYOUT.dmem and not (rec.r_en or rec.w_en)
    assert machine.load_word(0xE100) == 0xBEEF


def test_dma_read_of_gpio_uses_sensor_and_logs():
    machine = fresh_machine(assemble([NOP()]))
    req = DmaRequest(at_cycle=0, op="read", addr=LAYOUT.gpio.start)
    rec = step(machine, dma=req, sensor=ConstantSensor(0x77))
    assert rec.dma_en and not rec.dma_write and rec.dma_addr == LAYOUT.gpio.start
    assert not (rec.r_en or rec.w_en)
    assert machine.dma_read_log == [(0, LAYOUT.gpio.start, 0x77)]


def test_invalid_opcode_faults_as_reset():
    machine = fresh_machine(b"\x00\x00")
    rec = step(machine)
    assert rec.reset and rec.executed is None
    assert not (rec.r_en or rec.w_en or rec.dma_en)


def test_irq_tags_and_vectors():
    machine = fresh_machine(assemble([NOP(), NOP()]))
    rec = step(machine, irq=True)
    assert rec.irq and not rec.reset
    assert machine.pc == LAYOUT.effective_irq_vector


def test_store_to_gpio_latches_without_memory_write():
    gpio_addr = LAYOUT.gpio.start + 2
    machine = fresh_machine(assemble([LOADI(2, 0xAA55), STORE(2, gpio_addr)]))
    step(machine)
    rec = step(machine)
    assert rec.w_en and rec.d_addr == gpio_addr
    assert machine.gpio_out == [(1, gpio_addr, 0xAA55)]
    assert machine.load_word(gpio_addr) == 0


def test_store_to_rom_is_ignored_but_signals():
    machine = fresh_machine(assemble([LOADI(2, 0x1111), STORE(2, 0x0200)]))
    step(machine)
    rec = step(machine)
    assert rec.w_en and rec.d_addr == 0x0200
    assert machine.load_word(0x0200) == 0


def test_call_ret_use_r7_stack():
    program = assemble([LOADI(7, 0xEF00), CALL(0x4100), HALT()])
    machine = fresh_machine(program)
    step(machine)
    rec = step(machine)  # CALL
    assert rec.w_en and rec.d_addr == 0xEEFE
    assert machine.pc == 0x4100
    assert machine.load_word(0xEEFE) == 0x4008  # return address
    machine.memory[0x4100:0x4102] = assemble([RET()])
    rec = step(machine)
    assert rec.r_en and rec.d_addr == 0xEEFE
    assert machine.pc == 0x4008


def test_brz_taken_and_not_taken():
    program = assemble([LOADI(3, 0), BRZ(3, 0x4400)])
    machine = fresh_machine(program)
    step(machine)
    step(machine)
    assert machine.pc == 0x4400
    program = assemble([LOADI(3, 1), BRZ(3, 0x4400)])
    machine = fresh_machine(program)
    step(machine)
    step(machine)
    assert machine.pc == 0x4008


def test_reset_routine_erases_dmem_and_registers():
    machine = fresh_machine(assemble([NOP()]))
    machine.memory[0xE123] = 0xAB
    machine.gpr = list(range(8))
    machine.pc = 0x4444
    reset_routine(machine)
    assert machine.gpr == [0] * 8
    assert machine.pc == LAYOUT.boot_entry
    assert not any(machine.memory[LAYOUT.dmem.start:LAYOUT.dmem.end + 1])


def test_reset_preserves_flash_and_counter():
    machine = fresh_machine(assemble([NOP()]))
    machine.memory[LAYOUT.counter_cell.start:LAYOUT.counter_cell.start + 8] = \
        (41).to_bytes(8, "big")
    machine.store_word(0x5000, 0xCAFE)
    reset_routine(machine)
    start = LAYOUT.counter_cell.start
    assert int.from_bytes(machine.memory[start:start + 8], "big") == 41
    assert machine.load_word(0x5000) == 0xCAFE


def test_load_image_rejects_rom_content():
    image = bytearray(0x10)
    image[0] = 1
    with pytest.raises(ImageError, match="ROM"):
        load_image(LAYOUT, bytes(image), ER)


def test_load_image_rejects_one_byte_at_the_last_rom_address():
    image = bytearray(LAYOUT.rom.end + 1)
    image[LAYOUT.rom.end] = 0x80
    with pytest.raises(ImageError, match="ROM"):
        load_image(LAYOUT, bytes(image), ER)


def test_load_image_empty_sets_metadata():
    machine = load_image(LAYOUT, b"", ER)
    assert machine.er_window() == (ER.er_min, ER.er_max)
    assert not any(machine.memory[LAYOUT.dmem.start:LAYOUT.dmem.end + 1])


def test_load_image_roundtrips_window_metadata():
    binary = assemble([NOP()] * 31 + [HALT()])
    er = ErWindow(0x4000, 0x4000 + len(binary) - 2)
    image = bytearray(0x4000 + len(binary))
    image[0x4000:0x4000 + len(binary)] = binary
    machine = load_image(LAYOUT, bytes(image), er)
    assert machine.er_window() == (er.er_min, er.er_max)
    assert bytes(machine.memory[er.er_min:er.er_max + 2]) == binary


def test_run_halt_program_is_one_record():
    machine = fresh_machine(assemble([HALT()]))
    trace = run(machine, None, RunContext.build(), 10)
    assert len(trace) == 1 and trace.terminal == "halted"


def test_run_is_deterministic_bit_exact():
    def one_run():
        program = assemble([LOADI(1, 7), LOAD(2, LAYOUT.gpio.start),
                            ADD(1, 2), STORE(1, 0xE000), HALT()])
        machine = fresh_machine(program)
        ctx = RunContext.build(
            sensor=SequenceSensor(bytes(range(32))),
            dma=[DmaRequest(2, "read", 0xE000)],
            irq_cycles=[3])
        return run(machine, None, ctx, 50).dump(LAYOUT)

    assert one_run() == one_run()


@settings(max_examples=80, deadline=None)
@given(
    r_en=st.booleans(), w_en=st.booleans(), d_addr=st.integers(0, 0xFFFE),
    dma_en=st.booleans(), dma_addr=st.integers(0, 0xFFFE),
    dma_write=st.booleans(), irq=st.booleans(), reset=st.booleans(),
    er_min=st.integers(0, 0xFFFF), er_max=st.integers(0, 0xFFFF),
)
def test_tags_match_signal_predicates(r_en, w_en, d_addr, dma_en, dma_addr,
                                      dma_write, irq, reset, er_min, er_max):
    rec = StateRecord(cycle=0, pc=0x4000, r_en=r_en, w_en=w_en, d_addr=d_addr,
                      dma_en=dma_en, dma_addr=dma_addr, dma_write=dma_write,
                      irq=irq, reset=reset, er_min=er_min, er_max=er_max)
    tags = _dump_tags(rec, LAYOUT)
    assert tags == sorted(set(tags))
    assert ("IRQ" in tags) == irq
    assert ("RESET" in tags) == reset
    for name, region in (("GPIO", LAYOUT.gpio), ("DMEM", LAYOUT.dmem),
                         ("METADATA", LAYOUT.er_metadata)):
        assert (f"READ({name})" in tags) == (r_en and d_addr in region)
        assert (f"WRITE({name})" in tags) == (w_en and d_addr in region)
        dma_tag = f"DMA_W({name})" if dma_write else f"DMA_R({name})"
        assert (dma_tag in tags) == (dma_en and dma_addr in region)
    assert ("READ(ER)" in tags) == (r_en and er_min <= d_addr <= er_max)


def test_trace_dump_is_stable():
    machine = fresh_machine(assemble([LOAD(1, LAYOUT.gpio.start), HALT()]))
    trace = run(machine, None, RunContext.build(sensor=ConstantSensor(3)), 10)
    dump = trace.dump(LAYOUT)
    assert "READ(GPIO)" in dump
    assert dump == trace.dump(LAYOUT)
    assert trace.digest(LAYOUT) == trace.digest(LAYOUT)


_DUMPED_FIELDS = ("cycle", "pc", "r_en", "w_en", "d_addr", "dma_en", "dma_write",
                  "dma_addr", "irq", "reset", "er_min", "er_max")


def test_digest_commits_to_every_dumped_field():
    machine = fresh_machine(assemble([LOAD(1, LAYOUT.gpio.start), NOP(), HALT()]))
    ctx = RunContext.build(dma=[DmaRequest(1, "write", 0xE000, 5)], irq_cycles=[2])
    trace = run(machine, None, ctx, 10)
    records, base = trace.records, trace.digest(LAYOUT)
    for i, rec in enumerate(records):
        for name in _DUMPED_FIELDS:
            value = getattr(rec, name)
            changed = (not value) if isinstance(value, bool) else value ^ 2
            other = Trace(records[:i] + [rec._replace(**{name: changed})]
                          + records[i + 1:], trace.terminal)
            assert other.dump(LAYOUT) != trace.dump(LAYOUT), name
            assert other.digest(LAYOUT) != base, (i, name)
    assert Trace(records, "max-cycles").digest(LAYOUT) != base


def test_state_record_is_an_immutable_hashable_named_tuple():
    rec = StateRecord(cycle=3, pc=0x4002, r_en=True, d_addr=LAYOUT.gpio.start,
                      dma_en=True, dma_addr=0x4000, executed=0x4002,
                      er_min=0x4000, er_max=0x4004)
    with pytest.raises(AttributeError):
        rec.reset = True
    same = StateRecord(*rec)
    assert same == rec == tuple(rec) and hash(same) == hash(rec)
    assert {rec: "x"}[same] == "x"
    assert len(list(rec)) == len(rec._fields)
    reset = rec._replace(reset=True)
    assert not rec.reset and reset.reset
    assert reset == rec[:9] + (True,) + rec[10:]
    assert _dump_tags(reset, LAYOUT) == sorted(_dump_tags(rec, LAYOUT) + ["RESET"])
    assert {"READ(GPIO)", "DMA_R(ER)"} <= set(_dump_tags(reset, LAYOUT))


def _word(instr) -> int:
    return int.from_bytes(assemble([instr]), "little")


def _step_undecoded(machine, *args):
    machine.decode_memo.clear()
    return exec_step(machine, *args)


def _steps(step_fn, machine, cycles, dma=()):
    """Up to ``cycles`` records of the bare machine, stopping at a halt."""
    schedule = {req.at_cycle: req for req in dma}
    records = []
    while len(records) < cycles and not machine.halted:
        records.append(step_fn(machine, schedule.get(machine.cycle), False,
                               ConstantSensor(0)))
    return records


def _same_with_and_without_memo(scenario):
    """``scenario(step_fn)`` returns a run's records and machine; the run
    through the decode memo must match one that empties the memo before
    every step, record for record and in the end state."""
    records, machine = scenario(exec_step)
    ref_records, ref_machine = scenario(_step_undecoded)
    assert records == ref_records
    assert (machine.pc, machine.gpr, machine.halted) == \
        (ref_machine.pc, ref_machine.gpr, ref_machine.halted)
    assert machine.memory == ref_machine.memory
    return records, machine


def test_decode_memo_follows_a_store_over_the_next_instruction():
    # The STORE first rewrites the NOP after it with itself, then, on the
    # second pass, with HALT.
    program = assemble([LOADI(3, _word(NOP())), STORE(3, 0x4008), NOP(),
                        LOADI(3, _word(HALT())), JMP(0x4004)])

    def scenario(step_fn):
        machine = fresh_machine(program)
        return _steps(step_fn, machine, 20), machine

    records, machine = _same_with_and_without_memo(scenario)
    assert machine.halted and records[-1].pc == 0x4008
    assert [r.pc for r in records].count(0x4008) == 2


def test_decode_memo_follows_a_dma_write_into_a_loop_body():
    program = assemble([NOP(), JMP(0x4000)])
    dma = [DmaRequest(at_cycle=5, op="write", addr=0x4000, value=_word(HALT()))]

    def scenario(step_fn):
        machine = fresh_machine(program)
        return _steps(step_fn, machine, 20, dma), machine

    records, machine = _same_with_and_without_memo(scenario)
    assert machine.halted and len(records) == 7


def test_decode_memo_follows_a_rewritten_immediate_word():
    # The loop rewrites the address word of its own LOAD.
    program = assemble([LOAD(1, 0xE100), LOADI(2, 0xE200), STORE(2, 0x4002),
                        JMP(0x4000)])

    def scenario(step_fn):
        machine = fresh_machine(program)
        return _steps(step_fn, machine, 8), machine

    records, _ = _same_with_and_without_memo(scenario)
    assert [r.d_addr for r in records if r.r_en] == [0xE100, 0xE200]


def test_decode_memo_follows_the_reset_erasure_of_dmem_code():
    code = LAYOUT.dmem.start + 0x100

    def scenario(step_fn):
        machine = fresh_machine()
        machine.memory[code:code + 4] = assemble([NOP(), NOP()])
        machine.pc = code
        records = _steps(step_fn, machine, 2)
        reset_routine(machine)
        machine.pc = code
        return records + _steps(step_fn, machine, 1), machine

    records, _ = _same_with_and_without_memo(scenario)
    assert [r.reset for r in records] == [False, False, True]
    assert records[-1].pc == code and records[-1].executed is None


def test_decode_memo_follows_the_wrapped_second_word_at_the_top():
    # A two-word JMP at 0xFFFE takes its target from address 0, which the
    # CPU cannot write (ROM), so the test rewrites it directly.
    def scenario(step_fn):
        machine = fresh_machine()
        machine.memory[0xFFFE:] = assemble([JMP(0)])[:2]
        records = []
        for target in (0x4000, 0x4010):
            machine.memory[0:2] = target.to_bytes(2, "little")
            machine.pc = 0xFFFE
            records += _steps(step_fn, machine, 2)
        return records, machine

    records, _ = _same_with_and_without_memo(scenario)
    assert [r.pc for r in records] == [0xFFFE, 0x4000, 0xFFFE, 0x4010]
    machine = fresh_machine()
    machine.memory[0xFFFE:] = assemble([LOADI(1, 0x1234)])[:2]
    machine.memory[0:2] = (0x1234).to_bytes(2, "little")
    machine.pc = 0xFFFE
    step(machine)
    assert machine.gpr[1] == 0x1234 and machine.pc == 0x0002


def _pack_per_field(records):
    """Reference packing: one row per ``COLUMNS`` field, read by name."""
    rows = []
    for name in COLUMNS:
        values = map(attrgetter(name), records)
        if name == "executed":
            values = (-1 if v is None else v for v in values)
        rows.append(np.fromiter(values, np.int32, len(records)))
    return np.stack(rows)


_words = st.integers(0, 0xFFFF)
_records = st.builds(
    StateRecord, cycle=st.integers(0, 2**31 - 1), pc=_words,
    r_en=st.booleans(), w_en=st.booleans(), d_addr=_words,
    dma_en=st.booleans(), dma_addr=_words, dma_write=st.booleans(),
    irq=st.booleans(), reset=st.booleans(),
    executed=st.none() | _words, er_min=_words, er_max=_words)


@settings(max_examples=60, deadline=None)
@given(st.lists(_records, max_size=40))
def test_pack_records_equals_per_field_packing(records):
    packed = pack_records(records)
    assert packed.dtype == np.int32 and packed.shape == (len(COLUMNS), len(records))
    assert np.array_equal(packed, _pack_per_field(records))
    executed = packed[COLUMNS.index("executed")]
    assert list(executed == -1) == [r.executed is None for r in records]
    flags = packed[[COLUMNS.index(n) for n in ("r_en", "irq", "reset")]]
    assert set(np.unique(flags)) <= {0, 1}


def _pack_by_zip(records):
    """Reference packing, column by column: each ``zip(*records)``
    column assigned to its row."""
    out = np.empty((len(COLUMNS), len(records)), dtype=np.int32)
    for name, row, column in zip(COLUMNS, out, zip(*records)):
        if name == "executed":
            column = [-1 if pc is None else pc for pc in column]
        row[:] = column
    return out


_FULL = StateRecord(cycle=7, pc=0xFFFE, r_en=True, w_en=False, d_addr=0xFFFF,
                    dma_en=True, dma_addr=0xFFFF, dma_write=True, irq=True,
                    reset=True, executed=0xFFFE, er_min=0xFFFF, er_max=0xFFFF)


@pytest.mark.parametrize("records", [
    [],
    [StateRecord(cycle=0, pc=0)],
    [_FULL],
    [_FULL._replace(executed=None)],
    [StateRecord(cycle=0, pc=0x4000, executed=0x4000), _FULL,
     _FULL._replace(executed=None, cycle=8), StateRecord(cycle=9, pc=0xFFFE)],
    [StateRecord(cycle=i, pc=i, executed=None if i % 3 else i, irq=bool(i % 2))
     for i in range(40)],
], ids=["none", "one", "flags-and-0xffff", "executed-none", "mixed", "many-none"])
def test_pack_records_equals_the_column_by_column_packing(records):
    packed = pack_records(records)
    expected = _pack_by_zip(records)
    assert packed.dtype == expected.dtype and packed.shape == expected.shape
    assert packed.tobytes() == expected.tobytes()
    assert packed.flags.c_contiguous and packed.flags.writeable


def test_pack_records_of_nothing_has_a_row_per_column():
    assert pack_records([]).shape == (len(COLUMNS), 0)


def test_pack_records_refuses_what_is_not_a_state_record():
    rec = StateRecord(cycle=0, pc=0x4000)
    with pytest.raises(TypeError):
        pack_records([rec._asdict(), rec._asdict()])
    with pytest.raises(TypeError):
        pack_records([tuple(rec)])


def test_region_table_is_built_once_per_layout_and_read_only():
    table = _region_table(LAYOUT)
    assert _region_table(default_layout()) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1


def test_an_executed_cycle_is_a_state_record():
    machine = fresh_machine(assemble([LOADI(1, 5)]))
    rec = step(machine)
    assert type(rec) is StateRecord
    assert rec == StateRecord(cycle=0, pc=0x4000, executed=0x4000,
                              er_min=ER.er_min, er_max=ER.er_max)
    assert rec._replace(reset=True).reset
