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

Naming note: the ``read``/``write`` propositions (``read_mem`` /
``write_mem``) count a DMA transfer as both, since its direction is not a
guard input. The ``cpu_read``, ``cpu_write`` and ``dma_touch`` entries
split CPU from DMA accesses, and the monitor's letter (``monitor.LETTER``)
is made of them and the ``pc``, ``irq`` and ``dmaen`` entries. No entry
reads ``executed``.
"""
from __future__ import annotations

from typing import Callable

from .layout import MemoryLayout, Region
from .machine import named_region

PropFn = Callable[[object], object]


def read_mem(rec, region: Region | None = None):
    """CPU-or-DMA read of any address in ``region`` this cycle; ``None``
    means the record's own live window [er_min, er_max]."""
    lo, hi = (rec.er_min, rec.er_max) if region is None else (region.start, region.end)
    d, a = rec.d_addr, rec.dma_addr
    return (rec.r_en & (lo <= d) & (d <= hi)) | (rec.dma_en & (lo <= a) & (a <= hi))


def write_mem(rec, region: Region | None = None):
    """CPU-or-DMA write of any address in ``region`` (``None``: the live
    window). DMA counts as both, since its direction is not a guard input."""
    lo, hi = (rec.er_min, rec.er_max) if region is None else (region.start, region.end)
    d, a = rec.d_addr, rec.dma_addr
    return (rec.w_en & (lo <= d) & (d <= hi)) | (rec.dma_en & (lo <= a) & (a <= hi))


def build_props(layout: MemoryLayout) -> dict[str, PropFn]:
    """Proposition table for one layout; keys match the formula text format."""
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

    for name in ("GPIO", "EKR", "METADATA", "VR", "ROM", "PMEM", "DMEM"):
        reg = named_region(layout, name)
        lo, hi = reg.start, reg.end
        props[f"read {name}"] = lambda r, reg=reg: read_mem(r, reg)
        props[f"write {name}"] = lambda r, reg=reg: write_mem(r, reg)
        props[f"cpu_read {name}"] = \
            lambda r, lo=lo, hi=hi: r.r_en & (lo <= r.d_addr) & (r.d_addr <= hi)
        props[f"cpu_write {name}"] = \
            lambda r, lo=lo, hi=hi: r.w_en & (lo <= r.d_addr) & (r.d_addr <= hi)
        props[f"dma_touch {name}"] = \
            lambda r, lo=lo, hi=hi: r.dma_en & (lo <= r.dma_addr) & (r.dma_addr <= hi)
    props["read ER"] = read_mem
    props["write ER"] = write_mem
    props["cpu_read ER"] = \
        lambda r: r.r_en & (r.er_min <= r.d_addr) & (r.d_addr <= r.er_max)
    props["cpu_write ER"] = \
        lambda r: r.w_en & (r.er_min <= r.d_addr) & (r.d_addr <= r.er_max)
    props["dma_touch ER"] = \
        lambda r: r.dma_en & (r.er_min <= r.dma_addr) & (r.dma_addr <= r.er_max)
    return props
