"""The named property catalogue.

Eleven primary formulas in two parts:

- nine monitor access-control properties (GPIO read control, write
  immutability at authorization, window atomicity/controlled invocation,
  and the optional key-region properties);
- two end-to-end goals (atomic window execution; authorized-only sensing).

Two supplementary weak-until revocation properties are exposed separately:
they strengthen the immutability group (any window/metadata write blocks
sensing and key reads until re-authorization) and are included in the
exhaustive verification runs, but are not counted in the primary set.

The machine facts these rest on (each cycle changes memory only at its
record's write addresses, a sensor value reaches software only through a
record with a GPIO read, the next pc is a successor the instruction allows)
are no formulas here: they relate a record to machine state that records
do not carry, so the test suite checks them per cycle on the simulator.

Every entry is listed whatever the device; the checker leaves out those
that ``needs_ekr`` for a guard set without a key region.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ltl import And, B, Formula, G, Implies, Not, Or, Prop, U, W, X, conj

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


RESET = Prop("reset")
IRQ = Prop("irq")
DMAEN = Prop("dmaen")
PC_IN_ER = Prop("pc_in ER")
PC_ERMIN = Prop("pc_at ermin")
PC_ERMAX = Prop("pc_at ermax")
PC_IAUTH = Prop("pc_at iauth")
PC_IN_VR = Prop("pc_in VR")
READ_GPIO = Prop("read GPIO")
READ_EKR = Prop("read EKR")
WRITE_ER = Prop("write ER")
WRITE_MD = Prop("write METADATA")
WRITE_EKR = Prop("write EKR")

_PROTECTED_WRITE = Or(WRITE_ER, WRITE_MD)


def _monitor() -> list[CatalogueEntry]:
    safe_gpio = Or(Not(READ_GPIO), RESET)
    safe_ekr = Or(Not(READ_EKR), RESET)
    return [
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


def builtin_formulas() -> list[CatalogueEntry]:
    """The 11 primary named formulas (9 monitor + 2 end-to-end)."""
    return _monitor() + [
        CatalogueEntry(
            "e2e-atomic-execution", GROUP_E2E, atomic_execution_goal(),
            "every window execution is atomic with controlled invocation",
        ),
        CatalogueEntry(
            "e2e-authorized-sensing", GROUP_E2E, authorized_sensing_goal(),
            "sensing happens only inside a window authorized and untouched since",
        ),
    ]


def all_formulas() -> list[CatalogueEntry]:
    """Primary catalogue plus the supplementary revocation properties."""
    return builtin_formulas() + _supplementary()


def catalogue_by_name() -> dict[str, CatalogueEntry]:
    return {e.name: e for e in all_formulas()}
