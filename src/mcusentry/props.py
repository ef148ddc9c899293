"""Named propositions over per-cycle records.

Every proposition is total over StateRecord-like objects (the simulator's
records and the checker's synthesized letters expose the same fields).
Window membership uses the record's own sampled bounds, so metadata
rewrites are reflected position by position.

Naming note: the machine-axiom tag sets distinguish CPU reads from DMA
reads; the monitor's access macros (``read_mem``/``write_mem``, which the
FSMs and the ``read``/``write`` propositions share) deliberately do not.
Both families are exposed here under distinct names.
"""
from __future__ import annotations

from typing import Callable

from .layout import MemoryLayout, Region

PropFn = Callable[[object], bool]


def _region_of(layout: MemoryLayout, name: str) -> Region:
    key = "er_metadata" if name == "METADATA" else name.lower()
    return layout.region_named(key)


def read_mem(rec, region: Region | None = None) -> bool:
    """CPU-or-DMA read of any address in ``region`` this cycle; ``None``
    means the record's own live window [er_min, er_max]."""
    lo, hi = (rec.er_min, rec.er_max) if region is None else (region.start, region.end)
    return (rec.r_en and lo <= rec.d_addr <= hi) or \
        (rec.dma_en and lo <= rec.dma_addr <= hi)


def write_mem(rec, region: Region | None = None) -> bool:
    """CPU-or-DMA write of any address in ``region`` (``None``: the live
    window). DMA counts as both, since its direction is not a guard input."""
    lo, hi = (rec.er_min, rec.er_max) if region is None else (region.start, region.end)
    return (rec.w_en and lo <= rec.d_addr <= hi) or \
        (rec.dma_en and lo <= rec.dma_addr <= hi)


def build_props(layout: MemoryLayout) -> dict[str, PropFn]:
    """Proposition table for one layout; keys match the formula text format."""
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
        "pc_in ER": lambda r: r.er_min <= r.pc <= r.er_max,
        "pc_in VR": lambda r: r.pc in layout.vr,
        "exec_in ER": lambda r: (r.executed is not None
                                 and r.er_min <= r.executed <= r.er_max),
    }

    for name in ("GPIO", "EKR", "METADATA", "VR", "ROM", "PMEM", "DMEM"):
        region = _region_of(layout, name)
        props[f"read {name}"] = (lambda r, reg=region: read_mem(r, reg))
        props[f"write {name}"] = (lambda r, reg=region: write_mem(r, reg))
        props[f"cpu_read {name}"] = (lambda r, reg=region: r.r_en and r.d_addr in reg)
        props[f"cpu_write {name}"] = (lambda r, reg=region: r.w_en and r.d_addr in reg)
        props[f"dma_touch {name}"] = (lambda r, reg=region: r.dma_en and r.dma_addr in reg)
    props["read ER"] = read_mem
    props["write ER"] = write_mem
    props["cpu_read ER"] = lambda r: r.r_en and r.er_min <= r.d_addr <= r.er_max
    props["cpu_write ER"] = lambda r: r.w_en and r.er_min <= r.d_addr <= r.er_max
    props["dma_touch ER"] = lambda r: r.dma_en and r.er_min <= r.dma_addr <= r.er_max

    def tag_prop(tag: str) -> PropFn:
        return lambda r: tag in r.tags(layout)

    for name in ("GPIO", "EKR", "ER", "METADATA", "VR", "ROM", "PMEM", "DMEM"):
        props[f"tag READ {name}"] = tag_prop(f"READ({name})")
        props[f"tag WRITE {name}"] = tag_prop(f"WRITE({name})")
        props[f"tag DMA_R {name}"] = tag_prop(f"DMA_R({name})")
        props[f"tag DMA_W {name}"] = tag_prop(f"DMA_W({name})")
    props["tag IRQ"] = tag_prop("IRQ")
    props["tag RESET"] = tag_prop("RESET")
    return props
