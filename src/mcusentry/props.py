"""Named propositions over one record or a whole record sequence.

Every entry of the table is one expression over record attributes that
accepts either a single StateRecord-like object (the simulator's records
and the checker's synthesized letters expose the same fields), returning
a bool, or a ``machine.RecordColumns`` view of a whole sequence, returning
one value per record: a bool or 0/1 array, or a constant that holds at
every position. To serve both, entries combine attributes with ``&``,
``|`` and ``(lo <= x) & (x <= hi)``, never ``and``, ``or`` or ``x in
region``. Window membership uses the record's own sampled bounds, so
metadata rewrites are reflected position by position.

Naming note: the ``cpu_read``, ``cpu_write`` and ``dma_touch`` entries
split CPU from DMA accesses, and the monitor's letter (``monitor.LETTER``)
is made of them and the ``pc``, ``irq`` and ``dmaen`` entries. ``read X``
is the entry ``cpu_read X | dma_touch X`` and ``write X`` is ``cpu_write
X | dma_touch X``: a DMA transfer counts as both, since its direction is
not a guard input. These entries are the only statement of what a letter
bit tests: ``monitor.table_letter`` fills its per-address tables from
them and compares the live window as the ER entries do, and the checker
reads every proposition it checks from them on its alphabet's column
view. No entry reads ``executed``, and only ``reset`` reads ``reset``:
the checker takes that one from the monitor's reset output instead.

The table is built once per layout value and shared read-only by every
reader, so a cache keyed on an entry (``ltl.LassoTrace.prop_bits``) sees
one function per name.
"""
from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping

from .layout import MemoryLayout, Region

PropFn = Callable[[object], object]

# Region names of the ``props`` entries and of the trace dump's tag column;
# ER is the record's own live window, the others are fixed layout regions.
REGION_NAMES = ("GPIO", "EKR", "ER", "METADATA", "VR", "ROM", "PMEM", "DMEM")


def named_region(layout: MemoryLayout, name: str) -> Region:
    """The fixed layout region a ``REGION_NAMES`` name other than ER denotes."""
    return getattr(layout, "er_metadata" if name == "METADATA" else name.lower())


@lru_cache(maxsize=8)
def build_props(layout: MemoryLayout) -> Mapping[str, PropFn]:
    """Proposition table for one layout, read-only; keys match the formula
    text format."""
    vr = layout.vr
    props: dict[str, PropFn] = {
        "irq": lambda r: r.irq,
        "reset": lambda r: r.reset,
        "dmaen": lambda r: r.dma_en,
        "true": lambda r: True,
        "false": lambda r: False,
        "pc_at zero": lambda r: r.pc == 0,
        "pc_at iauth": lambda r: r.pc == layout.i_auth,
        "pc_at ermin": lambda r: r.pc == r.er_min,
        "pc_at ermax": lambda r: r.pc == r.er_max,
        "pc_in ER": lambda r: (r.er_min <= r.pc) & (r.pc <= r.er_max),
        "pc_in VR": lambda r: (vr.start <= r.pc) & (r.pc <= vr.end),
    }

    regions = tuple(name for name in REGION_NAMES if name != "ER")
    for name in regions:
        reg = named_region(layout, name)
        lo, hi = reg.start, reg.end
        props[f"cpu_read {name}"] = \
            lambda r, lo=lo, hi=hi: r.r_en & (lo <= r.d_addr) & (r.d_addr <= hi)
        props[f"cpu_write {name}"] = \
            lambda r, lo=lo, hi=hi: r.w_en & (lo <= r.d_addr) & (r.d_addr <= hi)
        props[f"dma_touch {name}"] = \
            lambda r, lo=lo, hi=hi: r.dma_en & (lo <= r.dma_addr) & (r.dma_addr <= hi)
    props["cpu_read ER"] = \
        lambda r: r.r_en & (r.er_min <= r.d_addr) & (r.d_addr <= r.er_max)
    props["cpu_write ER"] = \
        lambda r: r.w_en & (r.er_min <= r.d_addr) & (r.d_addr <= r.er_max)
    props["dma_touch ER"] = \
        lambda r: r.dma_en & (r.er_min <= r.dma_addr) & (r.dma_addr <= r.er_max)
    for name in (*regions, "ER"):
        dma = props[f"dma_touch {name}"]
        props[f"read {name}"] = lambda r, cpu=props[f"cpu_read {name}"], dma=dma: \
            cpu(r) | dma(r)
        props[f"write {name}"] = lambda r, cpu=props[f"cpu_write {name}"], dma=dma: \
            cpu(r) | dma(r)
    return MappingProxyType(props)
