"""Instruction set of the emulated 16-bit MCU.

Twelve fixed-format opcodes, each occupying one or two 16-bit words.
Word 0 packs opcode and register fields; two-word forms carry a 16-bit
immediate (or absolute address) in word 1:

    bits 15..12  opcode
    bits 11..9   rd
    bits 8..6    rs
    bit  5       addressing mode (0 = absolute/immediate, 1 = register)

Opcode value 0 is deliberately invalid so that execution wandering into
zeroed memory faults immediately instead of NOP-sliding.

Register r7 doubles as the stack pointer for CALL/RET.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .errors import DecodeError

WORD_MASK = 0xFFFF
WORD_BYTES = 2
NUM_REGS = 8

MODE_ABS = 0
MODE_REG = 1


class Op(IntEnum):
    NOP = 1
    LOADI = 2
    LOAD = 3
    STORE = 4
    ADD = 5
    SUB = 6
    AND = 7
    JMP = 8
    BRZ = 9
    CALL = 10
    RET = 11
    HALT = 12


# Opcodes whose absolute/immediate form carries a second word.
_IMM_OPS = {Op.LOADI, Op.BRZ}
_MODAL_OPS = {Op.LOAD, Op.STORE, Op.JMP, Op.CALL}
_PLAIN_OPS = {Op.NOP, Op.ADD, Op.SUB, Op.AND, Op.RET, Op.HALT}


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction. ``imm`` holds the second word when present."""

    op: Op
    rd: int = 0
    rs: int = 0
    mode: int = MODE_ABS
    imm: int | None = None

    def size_words(self) -> int:
        if self.op in _IMM_OPS:
            return 2
        if self.op in _MODAL_OPS and self.mode == MODE_ABS:
            return 2
        return 1

    def size_bytes(self) -> int:
        return self.size_words() * WORD_BYTES


def _check_fields(instr: Instruction) -> None:
    if not 0 <= instr.rd < NUM_REGS or not 0 <= instr.rs < NUM_REGS:
        raise DecodeError(f"register index out of range in {instr}")
    if instr.mode not in (MODE_ABS, MODE_REG):
        raise DecodeError(f"bad addressing mode in {instr}")
    if instr.op in _PLAIN_OPS and instr.mode != MODE_ABS:
        raise DecodeError(f"{instr.op.name} takes no addressing mode")
    if instr.size_words() == 2:
        if instr.imm is None:
            raise DecodeError(f"{instr.op.name} requires an immediate word")
        if not 0 <= instr.imm <= WORD_MASK:
            raise DecodeError(f"immediate {instr.imm:#x} out of 16-bit range")
    elif instr.imm is not None:
        raise DecodeError(f"{instr.op.name} (mode {instr.mode}) takes no immediate word")


def encode(instr: Instruction) -> list[int]:
    """Encode an instruction to its one or two 16-bit words."""
    _check_fields(instr)
    word0 = (int(instr.op) << 12) | (instr.rd << 9) | (instr.rs << 6) | (instr.mode << 5)
    if instr.size_words() == 2:
        return [word0, instr.imm & WORD_MASK]
    return [word0]


def decode(word0: int, word1: int | None = None) -> Instruction:
    """Decode word(s) into an Instruction.

    ``word1`` is consulted only when the instruction is two words long.
    Raises DecodeError for invalid opcodes; on the real machine this is
    surfaced as a fault-triggered reset.
    """
    opval = (word0 >> 12) & 0xF
    try:
        op = Op(opval)
    except ValueError:
        raise DecodeError(f"invalid opcode {opval:#x}") from None
    rd = (word0 >> 9) & 0x7
    rs = (word0 >> 6) & 0x7
    mode = (word0 >> 5) & 0x1
    if op in _PLAIN_OPS:
        if mode != MODE_ABS:
            raise DecodeError(f"{op.name} takes no addressing mode")
        return Instruction(op, rd, rs)
    two_words = op in _IMM_OPS or (op in _MODAL_OPS and mode == MODE_ABS)
    if two_words:
        if word1 is None:
            raise DecodeError(f"{op.name} needs a second word")
        return Instruction(op, rd, rs, mode, word1 & WORD_MASK)
    return Instruction(op, rd, rs, mode)


def assemble(instrs: list[Instruction]) -> bytes:
    """Assemble instructions to little-endian machine code."""
    out = bytearray()
    for instr in instrs:
        for word in encode(instr):
            out += word.to_bytes(WORD_BYTES, "little")
    return bytes(out)


def disassemble_at(mem: bytes | bytearray, addr: int) -> Instruction:
    """Decode the instruction starting at byte address ``addr``.

    On a whole 64 KB memory the second word wraps to address 0 past the
    top, as the machine fetches it; a shorter buffer ends at its end.
    """
    word0 = int.from_bytes(mem[addr:addr + 2], "little")
    nxt = (addr + 2) & WORD_MASK if len(mem) == WORD_MASK + 1 else addr + 2
    word1 = None
    if nxt + 2 <= len(mem):
        word1 = int.from_bytes(mem[nxt:nxt + 2], "little")
    return decode(word0, word1)


# Assembler shorthands used by sample programs and tests.

def NOP() -> Instruction:
    return Instruction(Op.NOP)


def LOADI(rd: int, value: int) -> Instruction:
    return Instruction(Op.LOADI, rd=rd, imm=value)


def LOAD(rd: int, addr: int) -> Instruction:
    return Instruction(Op.LOAD, rd=rd, imm=addr)


def LOAD_R(rd: int, rs: int) -> Instruction:
    return Instruction(Op.LOAD, rd=rd, rs=rs, mode=MODE_REG)


def STORE(rs: int, addr: int) -> Instruction:
    return Instruction(Op.STORE, rs=rs, imm=addr)


def STORE_R(rd_addr: int, rs: int) -> Instruction:
    return Instruction(Op.STORE, rd=rd_addr, rs=rs, mode=MODE_REG)


def ADD(rd: int, rs: int) -> Instruction:
    return Instruction(Op.ADD, rd=rd, rs=rs)


def SUB(rd: int, rs: int) -> Instruction:
    return Instruction(Op.SUB, rd=rd, rs=rs)


def AND(rd: int, rs: int) -> Instruction:
    return Instruction(Op.AND, rd=rd, rs=rs)


def JMP(addr: int) -> Instruction:
    return Instruction(Op.JMP, imm=addr)


def JMP_R(rs: int) -> Instruction:
    return Instruction(Op.JMP, rs=rs, mode=MODE_REG)


def BRZ(rd: int, addr: int) -> Instruction:
    return Instruction(Op.BRZ, rd=rd, imm=addr)


def CALL(addr: int) -> Instruction:
    return Instruction(Op.CALL, imm=addr)


def RET() -> Instruction:
    return Instruction(Op.RET)


def HALT() -> Instruction:
    return Instruction(Op.HALT)
