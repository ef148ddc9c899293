"""The machine's per-cycle facts (frame, sensor, control flow) hold on the
simulator, and each fact convicts a machine that breaks it.

The harness lives in ``machine_facts``; ACCEPTANCE 9 runs it over the full
corpus (the catalogue, 1,000 random plans and drawn byte programs).
"""
import pytest
from hypothesis import given, settings

from machine_facts import (FACTS, MUTANTS, FactHarness, bare_runs,
                           catalogue_rounds, run_bare)
from mcusentry.isa import HALT, LOADI, NOP, RET, STORE, assemble
from mcusentry.layout import ErWindow, default_layout
from mcusentry.machine import (ConstantSensor, DmaRequest, RunContext,
                               load_image, run)

LAYOUT = default_layout()


def _bare(program: bytes, ctx: RunContext, cycles: int = 8, at: int = 0x4000):
    image = bytearray(at + len(program))
    image[at:at + len(program)] = program
    m = load_image(LAYOUT, bytes(image), ErWindow(0x4000, 0x4004))
    m.pc = at
    return m, run(m, None, ctx, cycles)


def test_facts_hold_on_the_catalogue_rounds():
    harness = FactHarness()
    with harness.installed():
        catalogue_rounds()
    assert harness.cycles > 500 and harness.resets > 15
    assert harness.violations == []


@settings(max_examples=150, deadline=None)
@given(bare_runs())
def test_facts_hold_on_drawn_byte_programs(spec):
    harness = FactHarness()
    with harness.installed():
        run_bare(spec)
    assert harness.cycles > 0
    assert harness.violations == []


def test_ret_pops_the_sensor_word_while_dma_reads_gpio():
    # RET's pop reads GPIO, so the next pc is the live sensor word, and the
    # same cycle's DMA read of GPIO is a second sensor read.
    gpio = LAYOUT.gpio.start
    ctx = RunContext.build(sensor=ConstantSensor(0x4101),
                           dma=[DmaRequest(1, "read", gpio + 2)])
    harness = FactHarness()
    with harness.installed():
        _, trace = _bare(assemble([LOADI(7, gpio), RET()]), ctx, cycles=3)
    ret, landed = trace.records[1:3]
    assert ret.pc == 0x4004 and ret.r_en and ret.dma_en
    assert landed.pc == 0x4100 and landed.reset  # zeroed memory faults
    assert harness.violations == []


def test_top_word_fetch_wraps_to_address_zero():
    m = load_image(LAYOUT, b"", ErWindow(0x4000, 0x4004))
    m.memory[0xFFFE:] = assemble([STORE(0, 0)])[:2]
    m.memory[0:2] = LAYOUT.dmem.start.to_bytes(2, "little")
    m.pc, m.gpr[0] = 0xFFFE, 0x1234
    harness = FactHarness()
    with harness.installed():
        trace = run(m, None, RunContext.build(), 1)
    assert trace.records[0].w_en and trace.records[0].d_addr == LAYOUT.dmem.start
    assert m.pc == 2 and m.load_word(LAYOUT.dmem.start) == 0x1234
    assert harness.cycles == 1 and harness.violations == []


def test_irq_on_halt_keeps_pc():
    harness = FactHarness()
    with harness.installed():
        m, trace = _bare(assemble([NOP(), HALT()]), RunContext.build(irq_cycles=[1]))
    assert trace.terminal == "halted" and m.pc == 0x4002
    assert trace.records[-1].irq and harness.violations == []


@pytest.mark.parametrize("fact", FACTS)
def test_each_fact_convicts_its_own_mutant(fact):
    # Each mutant breaks exactly one fact, and that fact convicts it.
    harness = FactHarness(step=MUTANTS[fact])
    with harness.installed():
        catalogue_rounds()
    found = harness.by_fact()
    assert found[fact] > 0 and sum(found.values()) == found[fact], found

