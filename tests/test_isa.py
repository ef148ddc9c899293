"""Instruction encoding and decoding."""

import pytest
from hypothesis import given, strategies as st

from mcusentry.errors import DecodeError
from mcusentry.isa import (LOADI, MODE_ABS, MODE_REG, Instruction, Op,
                           WORD_MASK, assemble, decode, disassemble_at, encode)

_PLAIN = [Op.NOP, Op.ADD, Op.SUB, Op.AND, Op.RET, Op.HALT]
_MODAL = [Op.LOAD, Op.STORE, Op.JMP, Op.CALL]


@st.composite
def instructions(draw):
    op = draw(st.sampled_from(list(Op)))
    rd = draw(st.integers(0, 7))
    rs = draw(st.integers(0, 7))
    if op in _PLAIN:
        return Instruction(op, rd, rs)
    if op in (Op.LOADI, Op.BRZ):
        return Instruction(op, rd, rs, MODE_ABS, draw(st.integers(0, WORD_MASK)))
    mode = draw(st.sampled_from([MODE_ABS, MODE_REG]))
    imm = draw(st.integers(0, WORD_MASK)) if mode == MODE_ABS else None
    return Instruction(op, rd, rs, mode, imm)


@given(instructions())
def test_encode_decode_roundtrip(instr):
    words = encode(instr)
    assert len(words) == instr.size_words()
    word1 = words[1] if len(words) == 2 else None
    assert decode(words[0], word1) == instr


@given(instructions())
def test_decode_ignores_stale_second_word(instr):
    words = encode(instr)
    if len(words) == 1:
        assert decode(words[0], 0xFFFF) == instr


def test_invalid_opcodes_raise():
    for opval in (0, 13, 14, 15):
        with pytest.raises(DecodeError):
            decode(opval << 12)


def test_two_word_forms_need_second_word():
    word0 = encode(Instruction(Op.LOADI, rd=1, imm=5))[0]
    with pytest.raises(DecodeError):
        decode(word0, None)


def test_zero_word_is_not_an_instruction():
    with pytest.raises(DecodeError):
        decode(0x0000)


def test_assemble_is_little_endian():
    blob = assemble([Instruction(Op.LOADI, rd=2, imm=0x1234)])
    assert len(blob) == 4
    assert blob[2:4] == b"\x34\x12"
    assert disassemble_at(blob, 0) == Instruction(Op.LOADI, rd=2, imm=0x1234)


def test_disassemble_wraps_the_second_word_like_the_machine():
    # LOADI r1, 0x1234 split across 0xFFFE and address 0 of a full memory.
    mem = bytearray(WORD_MASK + 1)
    mem[0xFFFE:] = assemble([LOADI(1, 0x1234)])[:2]
    mem[0:2] = (0x1234).to_bytes(2, "little")
    assert disassemble_at(mem, 0xFFFE) == LOADI(1, 0x1234)
    with pytest.raises(DecodeError):
        disassemble_at(bytes(mem[0xFFF0:]), 0xE)


def test_register_mode_is_one_word():
    assert Instruction(Op.JMP, rs=3, mode=MODE_REG).size_words() == 1
    assert Instruction(Op.JMP, imm=0x10).size_words() == 2
