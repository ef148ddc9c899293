"""Layout validation and the config text format."""

import pytest

from mcusentry.errors import LayoutError
from mcusentry.layout import (ErWindow, MemoryLayout, Region, default_layout,
                              format_layout, parse_layout)


def test_default_layout_is_valid():
    layout = default_layout()
    assert layout.i_auth in layout.rom
    assert layout.vr.start in layout.rom and layout.vr.end in layout.rom


def test_config_roundtrip():
    layout = default_layout()
    text = format_layout(layout)
    again = parse_layout(text)
    assert format_layout(again) == text


def test_parser_rejects_overlaps():
    text = format_layout(default_layout()).replace(
        "dmem=0xE000:0xEFFF", "dmem=0xD000:0xEFFF")
    with pytest.raises(LayoutError, match="overlap"):
        parse_layout(text)


def test_parser_reports_bad_lines():
    with pytest.raises(LayoutError, match="line 1"):
        parse_layout("rom 0x0:0x10\n")
    with pytest.raises(LayoutError, match="unknown key"):
        parse_layout("bogus=0x0:0x10\n")
    with pytest.raises(LayoutError, match="missing keys"):
        parse_layout("rom=0x0000:0x0FFF\n")


def test_parser_refuses_a_key_given_twice():
    # The second gpio line is a valid region of its own; it must not
    # silently replace the first.
    text = format_layout(default_layout()) + "gpio=0xF040:0xF07F\n"
    second = len(text.splitlines())
    first = text.splitlines().index("gpio=0xF000:0xF03F") + 1
    with pytest.raises(LayoutError, match=f"line {second}: gpio already set on line {first}"):
        parse_layout(text)


def test_parser_refuses_a_region_starting_on_an_odd_address():
    text = format_layout(default_layout()).replace(
        "gpio=0xF000:0xF03F", "gpio=0xF001:0xF03F")
    with pytest.raises(LayoutError, match="gpio must start on an even address "
                                          "and end on an odd one"):
        parse_layout(text)


def test_parser_refuses_a_region_ending_on_an_even_address():
    # A 3-byte key region would have the key's second word written past
    # its end.
    text = format_layout(default_layout()).replace(
        "ekr=0xF100:0xF11F", "ekr=0xF100:0xF102")
    with pytest.raises(LayoutError, match="ekr must start on an even address "
                                          "and end on an odd one"):
        parse_layout(text)


@pytest.mark.parametrize("key, line", [("i_auth", "i_auth=0x0301"),
                                       ("boot_entry", "boot_entry=0x0001"),
                                       ("irq_vector", "irq_vector=0x0011")])
def test_parser_refuses_an_odd_address(key, line):
    text = "\n".join(row for row in format_layout(default_layout()).splitlines()
                     if not row.startswith(key + "=")) + f"\n{line}\n"
    with pytest.raises(LayoutError, match=f"{key} must be an even address"):
        parse_layout(text)


@pytest.mark.parametrize("value", ["0x10000", "-2"])
def test_parser_refuses_an_irq_vector_outside_the_address_space(value):
    # The machine masks pc to 16 bits, so 0x10000 would vector to boot.
    text = format_layout(default_layout()) + f"irq_vector={value}\n"
    with pytest.raises(LayoutError, match="irq_vector .* lies outside 0x0000..0xFFFE"):
        parse_layout(text)


def test_vr_must_sit_in_rom():
    layout = default_layout()
    with pytest.raises(LayoutError, match="vr"):
        MemoryLayout(
            rom=layout.rom, pmem=layout.pmem, dmem=layout.dmem,
            gpio=layout.gpio, ekr=layout.ekr, vr=Region(0x2000, 0x20FF),
            er_metadata=layout.er_metadata, atok_mailbox=layout.atok_mailbox,
            counter_cell=layout.counter_cell, i_auth=layout.i_auth)


def test_i_auth_constraints():
    layout = default_layout()
    kwargs = dict(
        rom=layout.rom, pmem=layout.pmem, dmem=layout.dmem, gpio=layout.gpio,
        ekr=layout.ekr, vr=layout.vr, er_metadata=layout.er_metadata,
        atok_mailbox=layout.atok_mailbox, counter_cell=layout.counter_cell)
    with pytest.raises(LayoutError):
        MemoryLayout(i_auth=0x5000, **kwargs)   # not in rom
    with pytest.raises(LayoutError):
        MemoryLayout(i_auth=0x0100, **kwargs)   # inside vr
    with pytest.raises(LayoutError):
        MemoryLayout(i_auth=0x0000, **kwargs)   # boot address


def test_window_bounds():
    with pytest.raises(LayoutError):
        ErWindow(0x4001, 0x4005)  # odd
    with pytest.raises(LayoutError):
        ErWindow(0x4004, 0x4002)  # inverted
    er = ErWindow(0x4000, 0x4002)
    assert er.byte_span == 4
    assert 0x4000 in er and 0x4002 in er and 0x4004 not in er


def test_window_validation_against_regions():
    layout = default_layout()
    layout.validate_window(ErWindow(0x4000, 0x40FE))
    with pytest.raises(LayoutError, match="pmem or dmem"):
        layout.validate_window(ErWindow(0xF000, 0xF01E))   # gpio is not loadable
    with pytest.raises(LayoutError, match="er_metadata"):
        layout.validate_window(ErWindow(0x1000, 0x1002))
    with pytest.raises(LayoutError, match="atok_mailbox"):
        layout.validate_window(ErWindow(0x1010, 0x1020))
    with pytest.raises(LayoutError, match="pmem or dmem"):
        layout.validate_window(ErWindow(0x0010, 0x0020))
