#!/usr/bin/env python3
"""Play every attack scenario in the catalogue plus a randomized batch.

Each round reports the sensing verdict, the independent atomicity oracle,
whether the hardware reset fired, and whether the adversary won. A healthy
monitor yields zero wins, with resets on every attack that touches a
guarded region.
"""
from mcusentry.referee import run_campaign, run_scenario, summary_table
from mcusentry.scenarios import CATALOGUE


def main():
    results = run_campaign(names=None, random_count=200, seed=42)
    print(summary_table(results))

    print("\ndetail: the DMA snoop attempt, cycle by cycle "
          "(the CPU spins in the boot ROM, a DMA read of GPIO is punished)")
    outcome = run_scenario(CATALOGUE["dma-gpio-snoop"]())
    layout = CATALOGUE["dma-gpio-snoop"]().layout
    for rec in outcome.trace.records:
        dma = "off"
        if rec.dma_en:
            target = "GPIO" if rec.dma_addr in layout.gpio else f"0x{rec.dma_addr:04X}"
            dma = f"{'write' if rec.dma_write else 'read'} {target}"
        marker = "  <-- punished" if rec.reset else ""
        print(f"  cycle {rec.cycle:3d}  pc=0x{rec.pc:04X}  dma={dma}{marker}")
        if rec.reset:
            break
    print(f"\nsensing verdict: {'top' if outcome.xsensing_result else 'bottom'}; "
          f"adversary wins: {outcome.adversary_wins}")


if __name__ == "__main__":
    main()
