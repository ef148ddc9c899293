"""Memory layout: named regions, the executable window, and the config format.

Addresses are byte addresses in a 64 KB space. All regions are inclusive
``[start, end]`` byte ranges of whole words: each starts on an even
address and ends on an odd one, and ``i_auth``, ``boot_entry`` and
``irq_vector`` are even. The machine forces word alignment on every
access, so interval membership on the low byte of an access is exact.
``irq_vector`` lies in the space, as the other addresses do by lying in
ROM: pc is masked to 16 bits, so 0x10000 would vector to boot.

The executable window is a pair of word-aligned addresses ``(er_min,
er_max)`` where ``er_max`` is the *start of the last word*: the byte extent
of the window is ``[er_min, er_max + 1]``. This keeps the monitor's
``pc == er_max`` exit comparison literal while the verification digest
still covers every byte of the window.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import LayoutError

ADDRESS_SPACE = 0x10000


@dataclass(frozen=True)
class Region:
    """Inclusive byte range [start, end]."""

    start: int
    end: int

    def __post_init__(self):
        if not 0 <= self.start <= self.end < ADDRESS_SPACE:
            raise LayoutError(f"bad region bounds {self.start:#x}:{self.end:#x}")

    def __contains__(self, addr: int) -> bool:
        return self.start <= addr <= self.end

    def __len__(self) -> int:
        return self.end - self.start + 1

    def overlaps(self, other: "Region") -> bool:
        return self.start <= other.end and other.start <= self.end


@dataclass(frozen=True)
class ErWindow:
    """Executable window [er_min, er_max]; er_max is the last word's start."""

    er_min: int
    er_max: int

    def __post_init__(self):
        if self.er_min % 2 or self.er_max % 2:
            raise LayoutError("window bounds must be word aligned")
        if not 0 <= self.er_min <= self.er_max < ADDRESS_SPACE - 1:
            raise LayoutError(f"bad window {self.er_min:#x}:{self.er_max:#x}")

    def __contains__(self, addr: int) -> bool:
        return self.er_min <= addr <= self.er_max

    @property
    def byte_span(self) -> int:
        """Number of bytes covered, including the high byte of the last word."""
        return self.er_max - self.er_min + 2

    def byte_range(self) -> Region:
        return Region(self.er_min, self.er_max + 1)


_REGION_KEYS = ("rom", "pmem", "dmem", "gpio", "ekr")
_SUB_KEYS = ("vr", "er_metadata", "atok_mailbox", "counter_cell")
_ADDR_KEYS = ("i_auth", "boot_entry", "irq_vector")


@dataclass(frozen=True)
class MemoryLayout:
    """Validated address-space map for one machine instance."""

    rom: Region
    pmem: Region
    dmem: Region
    gpio: Region
    ekr: Region
    vr: Region
    er_metadata: Region
    atok_mailbox: Region
    counter_cell: Region
    i_auth: int
    boot_entry: int = 0
    irq_vector: int | None = None

    def __post_init__(self):
        for key in _REGION_KEYS + _SUB_KEYS:
            region = getattr(self, key)
            if region.start % 2 or not region.end % 2:
                raise LayoutError(f"{key} must start on an even address "
                                  "and end on an odd one")
        for key in _ADDR_KEYS:
            if (getattr(self, key) or 0) % 2:
                raise LayoutError(f"{key} must be an even address")
        if not 0 <= (self.irq_vector or 0) < ADDRESS_SPACE - 1:
            raise LayoutError(f"irq_vector {self.irq_vector:#x} lies outside "
                              f"0x0000..0x{ADDRESS_SPACE - 2:04X}")
        top = {k: getattr(self, k) for k in _REGION_KEYS}
        keys = list(top)
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                if top[a].overlaps(top[b]):
                    raise LayoutError(f"regions {a} and {b} overlap")
        if self.vr.start not in self.rom or self.vr.end not in self.rom:
            raise LayoutError("vr must lie inside rom")
        if self.i_auth not in self.rom:
            raise LayoutError("i_auth must lie in rom")
        if self.i_auth in self.vr:
            raise LayoutError("i_auth must not lie inside vr")
        if self.i_auth == 0:
            raise LayoutError("i_auth must differ from the boot address 0")
        if self.boot_entry not in self.rom:
            raise LayoutError("boot_entry must lie in rom")
        sub = {k: getattr(self, k) for k in ("er_metadata", "atok_mailbox", "counter_cell")}
        for name, region in sub.items():
            if region.overlaps(self.gpio) or region.overlaps(self.ekr):
                raise LayoutError(f"{name} must not overlap gpio or ekr")
            if not (region.start in self.pmem and region.end in self.pmem):
                raise LayoutError(f"{name} must lie in pmem (writable, persistent)")
        skeys = list(sub)
        for i, a in enumerate(skeys):
            for b in skeys[i + 1:]:
                if sub[a].overlaps(sub[b]):
                    raise LayoutError(f"{a} and {b} overlap")
        if len(self.er_metadata) < 4:
            raise LayoutError("er_metadata needs two word cells")
        if len(self.atok_mailbox) < 40:
            raise LayoutError("atok_mailbox needs at least 40 bytes")
        if len(self.counter_cell) < 8:
            raise LayoutError("counter_cell needs 8 bytes")

    @property
    def er_min_cell(self) -> int:
        return self.er_metadata.start

    @property
    def er_max_cell(self) -> int:
        return self.er_metadata.start + 2

    @property
    def effective_irq_vector(self) -> int:
        return self.boot_entry if self.irq_vector is None else self.irq_vector

    def validate_window(self, er: ErWindow) -> None:
        """Reject windows that collide with protected or reserved regions."""
        span = er.byte_range()
        in_pmem = span.start in self.pmem and span.end in self.pmem
        in_dmem = span.start in self.dmem and span.end in self.dmem
        if not (in_pmem or in_dmem):
            raise LayoutError("window must lie wholly in pmem or dmem")
        for name in ("vr", "gpio", "ekr", "er_metadata", "atok_mailbox", "counter_cell"):
            if span.overlaps(getattr(self, name)):
                raise LayoutError(f"window overlaps {name}")


def default_layout() -> MemoryLayout:
    """64 KB map used by tests, demos, and the CLI unless overridden."""
    return MemoryLayout(
        rom=Region(0x0000, 0x0FFF),
        pmem=Region(0x1000, 0xDFFF),
        dmem=Region(0xE000, 0xEFFF),
        gpio=Region(0xF000, 0xF03F),
        ekr=Region(0xF100, 0xF11F),
        vr=Region(0x0100, 0x02FF),
        er_metadata=Region(0x1000, 0x1003),
        atok_mailbox=Region(0x1010, 0x103F),
        counter_cell=Region(0x1040, 0x1047),
        i_auth=0x0300,
        boot_entry=0x0000,
    )


def _parse_addr(text: str, lineno: int) -> int:
    try:
        return int(text, 16) if text.lower().startswith("0x") else int(text, 0)
    except ValueError:
        raise LayoutError(f"line {lineno}: bad address {text!r}") from None


def parse_layout(text: str) -> MemoryLayout:
    """Parse the line-oriented config format.

    One entry per line: ``name=start:end`` for ranges, ``name=addr`` for
    single addresses. ``#`` starts a comment. A key given twice is refused.
    Overlap and containment rules are enforced by MemoryLayout itself.
    """
    entries: dict[str, object] = {}
    lines: dict[str, int] = {}  # the line each key was read from
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise LayoutError(f"line {lineno}: expected name=value, got {raw!r}")
        name, _, value = line.partition("=")
        name = name.strip()
        value = value.strip()
        if lines.setdefault(name, lineno) != lineno:
            raise LayoutError(f"line {lineno}: {name} already set on line {lines[name]}")
        if name in _REGION_KEYS + _SUB_KEYS:
            if ":" not in value:
                raise LayoutError(f"line {lineno}: {name} needs start:end")
            lo, _, hi = value.partition(":")
            entries[name] = Region(_parse_addr(lo, lineno), _parse_addr(hi, lineno))
        elif name in _ADDR_KEYS:
            entries[name] = _parse_addr(value, lineno)
        else:
            raise LayoutError(f"line {lineno}: unknown key {name!r}")
    missing = [k for k in _REGION_KEYS + _SUB_KEYS + ("i_auth",) if k not in entries]
    if missing:
        raise LayoutError(f"missing keys: {', '.join(missing)}")
    entries.setdefault("boot_entry", 0)
    return MemoryLayout(**entries)  # type: ignore[arg-type]


def format_layout(layout: MemoryLayout) -> str:
    lines = []
    for key in _REGION_KEYS + _SUB_KEYS:
        region = getattr(layout, key)
        lines.append(f"{key}=0x{region.start:04X}:0x{region.end:04X}")
    lines.append(f"i_auth=0x{layout.i_auth:04X}")
    lines.append(f"boot_entry=0x{layout.boot_entry:04X}")
    if layout.irq_vector is not None:
        lines.append(f"irq_vector=0x{layout.irq_vector:04X}")
    return "\n".join(lines) + "\n"
