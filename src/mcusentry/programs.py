"""Sample device programs: boot ROM, sensing binaries, and attack snippets.

The flagship sensing binary mirrors the intended production shape: it
streams 32 bytes from GPIO into a RAM staging buffer, one-time-pad
encrypts them against the fresh key in the key region (XOR synthesized
from add/sub/and: x^y = x + y - 2*(x&y) mod 2^16), stores the ciphertext
to an unprotected flash buffer, zeroes the staging buffer and its working
registers, and exits through a one-word jump placed exactly at the
window's last word.
"""
from __future__ import annotations

from dataclasses import dataclass

from .isa import (ADD, AND, BRZ, HALT, JMP, JMP_R, LOAD, LOADI, LOAD_R,
                  NOP, STORE_R, SUB, Instruction, assemble)
from .layout import ErWindow, MemoryLayout

# A fixed high-entropy 32-byte sensor pattern; leakage scans search for it.
SENSOR_MARKER = bytes.fromhex(
    "3fa9c47d11e08b26d45a92f06c81b3e97a5dd0184be2c6f3905174aa68cd2bf1"
)


@dataclass(frozen=True)
class Label:
    name: str


@dataclass(frozen=True)
class Ref:
    """Forward reference to a label, resolved at assembly time."""

    name: str
    build: object  # callable(addr) -> Instruction


def at(build_fn):
    def mk(name: str) -> Ref:
        return Ref(name, build_fn)
    return mk


JMP_TO = at(lambda addr: JMP(addr))
BRZ_R4_TO = at(lambda addr: BRZ(4, addr))


def asm(items: list, base: int) -> bytes:
    """Two-pass assembly with labels; items are Instruction, Label, or Ref."""
    addr = base
    labels: dict[str, int] = {}
    sized: list = []
    for item in items:
        if isinstance(item, Label):
            labels[item.name] = addr
            continue
        if isinstance(item, Ref):
            size = item.build(0).size_bytes()
        else:
            size = item.size_bytes()
        sized.append(item)
        addr += size
    out: list[Instruction] = []
    for item in sized:
        if isinstance(item, Ref):
            out.append(item.build(labels[item.name]))
        else:
            out.append(item)
    return assemble(out)


def boot_rom(stack_top: int) -> bytes:
    """Minimal boot: set the stack register, then spin in place.

    The first fetched record sits at address 0, which is what releases the
    monitor FSMs from their reset state.
    """
    return asm([LOADI(7, stack_top), Label("spin"), JMP_TO("spin")], 0)


def window_for(binary: bytes, er_min: int) -> ErWindow:
    if len(binary) % 2:
        raise ValueError("binaries must be word aligned")
    return ErWindow(er_min=er_min, er_max=er_min + len(binary) - 2)


def sensing_app(layout: MemoryLayout, er_min: int, staging: int, out_buf: int,
                exit_target: int, n_words: int = 16) -> tuple[bytes, ErWindow]:
    """The 32-byte read / encrypt / self-clean sensing binary."""
    gpio = layout.gpio.start
    ekr = layout.ekr.start
    items: list = [
        LOADI(1, gpio),        # r1: sensor cursor
        LOADI(2, staging),     # r2: staging cursor (RAM)
        LOADI(4, n_words),     # r4: loop counter
        Label("acquire"),
        LOAD_R(5, 1),          # sensor word
        STORE_R(2, 5),
        LOADI(6, 2),
        ADD(1, 6),
        ADD(2, 6),
        LOADI(6, 1),
        SUB(4, 6),
        BRZ_R4_TO("encrypt"),
        JMP_TO("acquire"),
        Label("encrypt"),
        LOADI(1, ekr),         # r1: pad cursor
        LOADI(2, staging),     # r2: plaintext cursor
        LOADI(3, out_buf),     # r3: ciphertext cursor
        LOADI(4, n_words),
        Label("enc_loop"),
        LOAD_R(5, 2),          # plaintext word
        LOAD_R(6, 1),          # pad word
        LOADI(0, 0),
        ADD(0, 5),
        AND(0, 6),             # r0 = p & k
        ADD(0, 0),             # r0 = 2(p & k)
        ADD(5, 6),             # r5 = p + k
        SUB(5, 0),             # r5 = p ^ k
        STORE_R(3, 5),
        LOADI(0, 0),
        STORE_R(2, 0),         # scrub the plaintext slot as we go
        LOADI(0, 2),
        ADD(1, 0),
        ADD(2, 0),
        ADD(3, 0),
        LOADI(0, 1),
        SUB(4, 0),
        BRZ_R4_TO("cleanup"),
        JMP_TO("enc_loop"),
        Label("cleanup"),
        LOADI(0, 0),
        LOADI(1, 0),
        LOADI(2, 0),
        LOADI(3, 0),
        LOADI(4, 0),
        LOADI(5, 0),
        LOADI(6, exit_target),
        JMP_R(6),              # one-word exit, placed at the window's last word
    ]
    binary = asm(items, er_min)
    return binary, window_for(binary, er_min)


def gpio_reader(layout: MemoryLayout) -> list[Instruction]:
    """Three-word authorized reader: one GPIO load, then halt at the exit."""
    return [LOAD(0, layout.gpio.start), HALT()]


def no_gpio_app() -> list[Instruction]:
    """Benign binary that never touches GPIO; sensing must report failure."""
    return [NOP(), NOP(), HALT()]


def jump_out_app(outside: int) -> list[Instruction]:
    """Leaves the window from its first word; the exit guard must fire."""
    return [JMP(outside), HALT()]


def spin_forever(base: int) -> bytes:
    return asm([Label("spin"), JMP_TO("spin")], base)


def filler_binary(span_bytes: int) -> list[Instruction]:
    """NOP sled ending in a halt; used for size-swept verification costs."""
    if span_bytes % 2 or span_bytes < 2:
        raise ValueError("span must be a positive even byte count")
    return [NOP()] * (span_bytes // 2 - 1) + [HALT()]
