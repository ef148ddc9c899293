"""Attack and control scenarios for the authorization game.

Every scenario is a deterministic plan: memory image, window, binary,
token strategy, and schedules expressed relative to the sensing phase.
The randomized generator biases program operands and DMA/IRQ targets
toward region boundaries, where violations live.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .isa import (ADD, AND, BRZ, HALT, JMP, JMP_R, LOAD, LOADI, LOAD_R, NOP,
                  RET, STORE, STORE_R, SUB, Instruction, assemble, encode)
from .layout import ErWindow, MemoryLayout, default_layout
from .programs import (SENSOR_MARKER, boot_rom, gpio_reader, jump_out_app,
                       no_gpio_app, sensing_app, spin_forever, window_for)

STACK_TOP = 0xEFFE
STAGING = 0xE800
OUT_BUF = 0x5000
EXIT_TARGET = 0x5800
SNIPPET_BASE = 0x3000
DEFAULT_ER_MIN = 0x4000
# The layout of every plan: one frozen value, validated once.
_LAYOUT = default_layout()


@dataclass
class ScenarioPlan:
    """Everything the referee needs to replay one game round."""

    name: str
    layout: MemoryLayout
    er: ErWindow
    image: bytes
    rom: bytes
    binary: bytes
    token_strategy: str = "fresh"  # none | fresh | replay | mutated | stale
    sensor_data: bytes | int = 0
    boot_cycles: int = 3
    entry_override: int | None = None
    interlude_pc: int | None = None
    interlude_cycles: int = 0
    interlude_dma: list[tuple[int, str, int, int]] = field(default_factory=list)
    xs_dma: list[tuple[int, str, int, int]] = field(default_factory=list)
    xs_irq_offsets: list[int] = field(default_factory=list)
    xsensing_cycles: int = 800
    mutate_field: str = "token"  # token | binary | chal (for strategy=mutated)
    expected_xsensing: bool | None = None
    expected_reset: bool | None = None
    description: str = ""


def _segments(*parts: tuple[int, bytes]) -> bytes:
    end = max(addr + len(data) for addr, data in parts)
    image = bytearray(end)
    for addr, data in parts:
        image[addr:addr + len(data)] = data
    return bytes(image)


# The boot ROM and code segments of every plan: immutable bytes, built once.
_ROM = boot_rom(STACK_TOP)
_IMAGE = _segments((EXIT_TARGET, assemble([HALT()])),
                   (SNIPPET_BASE, spin_forever(SNIPPET_BASE)))


def _base_plan(name: str, binary: bytes, er: ErWindow, **kw) -> ScenarioPlan:
    return ScenarioPlan(name=name, layout=_LAYOUT, er=er, image=_IMAGE,
                        rom=_ROM, binary=binary, **kw)


def _simple_reader_plan(name: str, **kw) -> ScenarioPlan:
    binary = assemble(gpio_reader(_LAYOUT))
    er = window_for(binary, DEFAULT_ER_MIN)
    return _base_plan(name, binary, er, **kw)


# ---------------------------------------------------------------------------
# Catalogue


def happy_path() -> ScenarioPlan:
    binary, er = sensing_app(_LAYOUT, DEFAULT_ER_MIN, STAGING, OUT_BUF,
                             EXIT_TARGET)
    return _base_plan(
        "happy-path", binary, er,
        sensor_data=SENSOR_MARKER, token_strategy="fresh",
        xsensing_cycles=1500,
        expected_xsensing=True, expected_reset=False,
        description="authorized 32-byte read, pad-encrypt, self-clean, clean exit")


def no_gpio_binary() -> ScenarioPlan:
    binary = assemble(no_gpio_app())
    er = window_for(binary, DEFAULT_ER_MIN)
    return _base_plan(
        "no-gpio-binary", binary, er, token_strategy="fresh",
        expected_xsensing=False, expected_reset=False,
        description="authorized binary that never senses; verdict is failure without reset")


def unauthorized_cpu_gpio_read() -> ScenarioPlan:
    return _simple_reader_plan(
        "unauthorized-cpu-gpio-read", token_strategy="none",
        expected_xsensing=False, expected_reset=True,
        description="window binary runs without any authorization and touches GPIO")


def dma_gpio_snoop() -> ScenarioPlan:
    binary = assemble(no_gpio_app())
    er = window_for(binary, DEFAULT_ER_MIN)
    plan = _base_plan(
        "dma-gpio-snoop", binary, er, token_strategy="none",
        expected_xsensing=False, expected_reset=True,
        description="DMA reads GPIO while the CPU idles; no authorization anywhere")
    plan.interlude_pc = 4  # boot spin
    plan.interlude_cycles = 4
    plan.interlude_dma = [(1, "read", _LAYOUT.gpio.start, 0)]
    return plan


def irq_mid_er() -> ScenarioPlan:
    plan = _simple_reader_plan(
        "irq-mid-er", token_strategy="fresh",
        expected_xsensing=False, expected_reset=True,
        description="interrupt injected during authorized window execution")
    plan.xs_irq_offsets = [0]
    return plan


def dma_mid_er() -> ScenarioPlan:
    plan = _simple_reader_plan(
        "dma-mid-er", token_strategy="fresh",
        expected_xsensing=False, expected_reset=True,
        description="DMA burst during authorized window execution")
    plan.xs_dma = [(0, "read", 0xE000, 0)]
    return plan


def jump_into_mid_er() -> ScenarioPlan:
    plan = _simple_reader_plan(
        "jump-into-mid-er", token_strategy="fresh",
        expected_xsensing=False, expected_reset=True,
        description="authorized binary entered past its first word")
    plan.entry_override = plan.er.er_min + 4
    return plan


def jump_out_before_ermax() -> ScenarioPlan:
    binary = assemble(jump_out_app(SNIPPET_BASE))
    er = window_for(binary, DEFAULT_ER_MIN)
    return _base_plan(
        "jump-out-before-ermax", binary, er, token_strategy="fresh",
        expected_xsensing=False, expected_reset=True,
        description="authorized binary leaves the window before its last word")


def modify_er_after_verify() -> ScenarioPlan:
    plan = _simple_reader_plan(
        "modify-er-after-verify", token_strategy="fresh",
        expected_xsensing=False, expected_reset=True,
        description="DMA rewrites the verified window before it runs")
    plan.interlude_pc = 4  # boot spin
    plan.interlude_cycles = 4
    plan.interlude_dma = [(1, "write", plan.er.er_min, 0x1111)]
    return plan


def modify_metadata_after_verify() -> ScenarioPlan:
    plan = _simple_reader_plan(
        "modify-metadata-after-verify", token_strategy="fresh",
        expected_xsensing=False, expected_reset=True,
        description="DMA stretches the window bounds between verification and execution")
    plan.interlude_pc = 4
    plan.interlude_cycles = 4
    plan.interlude_dma = [(1, "write", plan.layout.er_max_cell,
                           plan.er.er_max + 4)]
    return plan


def token_replay() -> ScenarioPlan:
    return _simple_reader_plan(
        "token-replay", token_strategy="replay",
        expected_xsensing=False, expected_reset=True,
        description="a consumed message is staged and verified a second time")


def token_mutation(field_name: str = "token") -> ScenarioPlan:
    plan = _simple_reader_plan(
        "token-mutation", token_strategy="mutated",
        expected_xsensing=False, expected_reset=True,
        description="one-bit corruption of the staged authorization material")
    plan.mutate_field = field_name
    return plan


def stale_chal() -> ScenarioPlan:
    return _simple_reader_plan(
        "stale-chal", token_strategy="stale",
        expected_xsensing=False, expected_reset=True,
        description="an older issued message arrives after a newer one was accepted")


def ekr_read_unauthorized() -> ScenarioPlan:
    binary = assemble([LOAD(0, _LAYOUT.ekr.start), HALT()])
    er = window_for(binary, DEFAULT_ER_MIN)
    return _base_plan(
        "ekr-read-unauthorized", binary, er, token_strategy="none",
        expected_xsensing=False, expected_reset=True,
        description="unauthorized code reads the key region")


def ekr_write_non_vr() -> ScenarioPlan:
    binary = assemble([LOADI(0, 0xBEEF), STORE(0, _LAYOUT.ekr.start), HALT()])
    er = window_for(binary, DEFAULT_ER_MIN)
    return _base_plan(
        "ekr-write-non-vr", binary, er, token_strategy="none",
        expected_xsensing=False, expected_reset=True,
        description="code outside the trusted verifier writes the key region")


CATALOGUE = {
    "happy-path": happy_path,
    "no-gpio-binary": no_gpio_binary,
    "unauthorized-cpu-gpio-read": unauthorized_cpu_gpio_read,
    "dma-gpio-snoop": dma_gpio_snoop,
    "irq-mid-er": irq_mid_er,
    "dma-mid-er": dma_mid_er,
    "jump-into-mid-er": jump_into_mid_er,
    "jump-out-before-ermax": jump_out_before_ermax,
    "modify-er-after-verify": modify_er_after_verify,
    "modify-metadata-after-verify": modify_metadata_after_verify,
    "token-replay": token_replay,
    "token-mutation": token_mutation,
    "stale-chal": stale_chal,
    "ekr-read-unauthorized": ekr_read_unauthorized,
    "ekr-write-non-vr": ekr_write_non_vr,
}


# ---------------------------------------------------------------------------
# Randomized scenarios


def _biased_addr(rng: random.Random, layout: MemoryLayout, er: ErWindow) -> int:
    pool = [
        er.er_min, er.er_min + 2, er.er_max, er.er_max + 2,
        (er.er_min - 2) & 0xFFFE,
        layout.gpio.start, layout.gpio.end - 1 & 0xFFFE,
        layout.ekr.start, layout.er_min_cell, layout.er_max_cell,
        layout.atok_mailbox.start, 0xE000, 0x5000, layout.i_auth & 0xFFFE,
    ]
    return pool[rng.randrange(len(pool))]


def _random_instruction(rng: random.Random, layout: MemoryLayout,
                        er: ErWindow) -> Instruction:
    roll = rng.random()
    if roll < 0.25:
        return NOP()
    if roll < 0.40:
        return LOAD(rng.randrange(7), _biased_addr(rng, layout, er))
    if roll < 0.50:
        return STORE(rng.randrange(7), _biased_addr(rng, layout, er))
    if roll < 0.60:
        return LOADI(rng.randrange(7), rng.randrange(0x10000) & 0xFFFE)
    if roll < 0.72:
        op = rng.choice([ADD, SUB, AND])
        return op(rng.randrange(7), rng.randrange(7))
    if roll < 0.82:
        return JMP(_biased_addr(rng, layout, er))
    if roll < 0.90:
        return BRZ(rng.randrange(7), _biased_addr(rng, layout, er))
    if roll < 0.95:
        return LOAD_R(rng.randrange(7), rng.randrange(7))
    return STORE_R(rng.randrange(7), rng.randrange(7))


def _random_binary(rng: random.Random, layout: MemoryLayout,
                   er: ErWindow) -> bytes:
    span_words = er.byte_span // 2
    words: list[int] = []
    while len(words) < span_words - 1:
        instr = _random_instruction(rng, layout, er)
        new = encode(instr)
        if len(words) + len(new) > span_words - 1:
            new = encode(NOP())
        words += new
    last = rng.choice([HALT(), NOP(), RET(), JMP_R(rng.randrange(7))])
    words += encode(last)
    return b"".join(w.to_bytes(2, "little") for w in words)


def random_plan(seed: int, index: int) -> ScenarioPlan:
    rng = random.Random(seed * 1_000_003 + index)
    er_min = DEFAULT_ER_MIN + 2 * rng.randrange(0, 64)
    n_words = rng.randint(3, 10)
    er = ErWindow(er_min, er_min + 2 * (n_words - 1))
    binary = _random_binary(rng, _LAYOUT, er)
    strategy = rng.choices(
        ["fresh", "none", "mutated", "replay", "stale"],
        weights=[4, 2, 2, 1, 1])[0]
    plan = _base_plan(f"random-{index}", binary, er, token_strategy=strategy)
    plan.sensor_data = SENSOR_MARKER
    plan.mutate_field = rng.choice(["token", "binary", "chal"])
    if rng.random() < 0.3:
        plan.entry_override = rng.choice(
            [er.er_min + 2, er.er_max, (er.er_min - 2) & 0xFFFE])
    offsets = rng.sample(range(12), k=rng.randint(0, 2))
    for offset in offsets:
        plan.xs_dma.append((offset, rng.choice(["read", "write"]),
                            _biased_addr(rng, _LAYOUT, er), rng.randrange(0x10000)))
    if rng.random() < 0.3:
        plan.xs_irq_offsets = [rng.randrange(0, 12)]
    plan.xsensing_cycles = 400
    plan.description = "randomized program/schedule/token strategy"
    return plan
