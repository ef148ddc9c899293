"""The named property catalogue.

Seventeen primary formulas in three groups:

- six machine axioms tying record tags to raw bus signals;
- nine monitor access-control properties (GPIO read control, write
  immutability at authorization, window atomicity/controlled invocation,
  and the optional key-region properties);
- two end-to-end goals (atomic window execution; authorized-only sensing).

Two supplementary weak-until revocation properties are exposed separately:
they strengthen the immutability group (any window/metadata write blocks
sensing and key reads until re-authorization) and are included in the
exhaustive verification runs, but are not counted in the primary set.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ltl import And, B, Formula, G, Implies, Not, Or, Prop, U, W, X, conj, iff

GROUP_AXIOMS = "machine-axioms"
GROUP_GPIO = "gpio-read-control"
GROUP_IMMUT = "immutability"
GROUP_ATOM = "atomicity"
GROUP_EKR = "key-protection"
GROUP_E2E = "end-to-end"


@dataclass(frozen=True)
class CatalogueEntry:
    name: str
    group: str
    formula: Formula
    description: str
    needs_ekr: bool = False
    supplementary: bool = False


def _p(name: str) -> Prop:
    return Prop(name)


RESET = _p("reset")
IRQ = _p("irq")
DMAEN = _p("dmaen")
PC_IN_ER = _p("pc_in ER")
PC_ERMIN = _p("pc_at ermin")
PC_ERMAX = _p("pc_at ermax")
PC_IAUTH = _p("pc_at iauth")
PC_IN_VR = _p("pc_in VR")
READ_GPIO = _p("read GPIO")
READ_EKR = _p("read EKR")
WRITE_ER = _p("write ER")
WRITE_MD = _p("write METADATA")
WRITE_EKR = _p("write EKR")

_PROTECTED_WRITE = Or(WRITE_ER, WRITE_MD)


def _axioms() -> list[CatalogueEntry]:
    entries = []
    entries.append(CatalogueEntry(
        "ax-pc-tracks-execution", GROUP_AXIOMS,
        G(Implies(_p("exec_in ER"), PC_IN_ER)),
        "the program counter names the region the executed instruction lives in",
    ))
    entries.append(CatalogueEntry(
        "ax-read-signals", GROUP_AXIOMS,
        G(iff(_p("tag READ GPIO"), _p("cpu_read GPIO"))),
        "a CPU-read tag appears exactly when the read enable targets the region",
    ))
    entries.append(CatalogueEntry(
        "ax-write-signals", GROUP_AXIOMS,
        G(iff(_p("tag WRITE GPIO"), _p("cpu_write GPIO"))),
        "a CPU-write tag appears exactly when the write enable targets the region",
    ))
    entries.append(CatalogueEntry(
        "ax-dma-signals", GROUP_AXIOMS,
        G(iff(Or(_p("tag DMA_R GPIO"), _p("tag DMA_W GPIO")), _p("dma_touch GPIO"))),
        "a DMA tag appears exactly when DMA is enabled on an address in the region",
    ))
    entries.append(CatalogueEntry(
        "ax-irq-signal", GROUP_AXIOMS,
        G(iff(_p("tag IRQ"), IRQ)),
        "the interrupt tag mirrors the interrupt line",
    ))
    entries.append(CatalogueEntry(
        "ax-reset-signal", GROUP_AXIOMS,
        G(iff(_p("tag RESET"), RESET)),
        "the reset tag mirrors the reset signal",
    ))
    return entries


def _monitor() -> list[CatalogueEntry]:
    safe_gpio = Or(Not(READ_GPIO), RESET)
    safe_ekr = Or(Not(READ_EKR), RESET)
    entries = [
        CatalogueEntry(
            "mon-gpio-read-in-er", GROUP_GPIO,
            G(Implies(And(READ_GPIO, Not(PC_IN_ER)), RESET)),
            "GPIO is readable only while pc is inside the window",
        ),
        CatalogueEntry(
            "mon-gpio-one-shot", GROUP_GPIO,
            G(Implies(Or(PC_ERMAX, RESET), W(safe_gpio, PC_IAUTH))),
            "after window exit or any reset, no un-reset GPIO read until re-authorization",
        ),
        CatalogueEntry(
            "mon-no-write-at-auth", GROUP_IMMUT,
            G(Implies(And(PC_IAUTH, _PROTECTED_WRITE), RESET)),
            "window or metadata writes during the authorization cycle reset",
        ),
        CatalogueEntry(
            "mon-er-exit-at-end", GROUP_ATOM,
            G(Implies(
                conj(Not(RESET), PC_IN_ER, Not(X(PC_IN_ER))),
                Or(PC_ERMAX, X(RESET)))),
            "leaving the window anywhere but its last word forces a reset",
        ),
        CatalogueEntry(
            "mon-er-entry-at-start", GROUP_ATOM,
            G(Implies(
                conj(Not(RESET), Not(PC_IN_ER), X(PC_IN_ER)),
                Or(X(PC_ERMIN), X(RESET)))),
            "entering the window anywhere but its first word forces a reset",
        ),
        CatalogueEntry(
            "mon-er-no-irq-dma", GROUP_ATOM,
            G(Implies(And(PC_IN_ER, Or(IRQ, DMAEN)), RESET)),
            "interrupts or DMA during window execution reset",
        ),
        CatalogueEntry(
            "mon-ekr-read-in-er", GROUP_EKR,
            G(Implies(And(READ_EKR, Not(PC_IN_ER)), RESET)),
            "the key region is readable only while pc is inside the window",
            needs_ekr=True,
        ),
        CatalogueEntry(
            "mon-ekr-one-shot", GROUP_EKR,
            G(Implies(Or(PC_ERMAX, RESET), W(safe_ekr, PC_IAUTH))),
            "after window exit or any reset, no un-reset key read until re-authorization",
            needs_ekr=True,
        ),
        CatalogueEntry(
            "mon-ekr-write-vr-only", GROUP_EKR,
            G(Implies(And(WRITE_EKR, Not(PC_IN_VR)), RESET)),
            "only trusted-verifier code may write the key region",
            needs_ekr=True,
        ),
    ]
    return entries


def _supplementary() -> list[CatalogueEntry]:
    safe_gpio = Or(Not(READ_GPIO), RESET)
    safe_ekr = Or(Not(READ_EKR), RESET)
    return [
        CatalogueEntry(
            "mon-revoke-gpio-on-write", GROUP_IMMUT,
            G(Implies(_PROTECTED_WRITE, W(safe_gpio, PC_IAUTH))),
            "window or metadata writes revoke GPIO access until re-authorization",
            supplementary=True,
        ),
        CatalogueEntry(
            "mon-revoke-ekr-on-write", GROUP_IMMUT,
            G(Implies(_PROTECTED_WRITE, W(safe_ekr, PC_IAUTH))),
            "window or metadata writes revoke key access until re-authorization",
            needs_ekr=True, supplementary=True,
        ),
    ]


def atomic_execution_goal() -> Formula:
    """Window execution, once entered, stays inside with no irq/DMA until
    the last word or a reset; entry happens only at the first word."""
    body = conj(PC_IN_ER, Not(IRQ), Not(DMAEN))
    stay = G(Implies(PC_IN_ER, W(body, Or(PC_ERMAX, RESET))))
    entry = G(Implies(
        conj(Not(RESET), Not(PC_IN_ER), X(PC_IN_ER)),
        Or(X(PC_ERMIN), X(RESET))))
    return And(stay, entry)


def authorized_sensing_goal() -> Formula:
    """Un-reset GPIO reads happen only inside the window, and are preceded
    by an authorization cycle after which neither the window, nor metadata,
    nor the key region (other than by trusted-verifier code) was written
    before window entry."""
    read_ok = And(READ_GPIO, Not(RESET))
    in_er = G(Implies(read_ok, PC_IN_ER))
    clean = conj(
        Not(WRITE_ER), Not(WRITE_MD),
        Implies(WRITE_EKR, PC_IN_VR))
    auth_then_clean = And(PC_IAUTH, Implies(PC_IAUTH, U(clean, PC_ERMIN)))
    before = B(auth_then_clean, read_ok)
    return And(in_er, before)


def builtin_formulas(ekr_enabled: bool = True) -> list[CatalogueEntry]:
    """The 17 primary named formulas (6 axioms + 9 monitor + 2 end-to-end)."""
    entries = _axioms() + _monitor()
    entries.append(CatalogueEntry(
        "e2e-atomic-execution", GROUP_E2E, atomic_execution_goal(),
        "every window execution is atomic with controlled invocation",
    ))
    entries.append(CatalogueEntry(
        "e2e-authorized-sensing", GROUP_E2E, authorized_sensing_goal(),
        "sensing happens only inside a window authorized and untouched since",
    ))
    if not ekr_enabled:
        entries = [e for e in entries if not e.needs_ekr]
    return entries


def all_formulas(ekr_enabled: bool = True) -> list[CatalogueEntry]:
    """Primary catalogue plus the supplementary revocation properties."""
    return builtin_formulas(ekr_enabled) + [
        e for e in _supplementary() if ekr_enabled or not e.needs_ekr]


def catalogue_by_name(ekr_enabled: bool = True) -> dict[str, CatalogueEntry]:
    return {e.name: e for e in all_formulas(ekr_enabled)}
