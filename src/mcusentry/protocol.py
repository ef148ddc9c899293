"""Controller/device sensing-authorization protocol.

The controller authorizes a binary by binding it to a fresh monotone
challenge under the shared master key; the device stages the message,
recomputes the digest over the *live window bytes*, and only a match
raises the program counter to the authorization address. Verification is
trusted emulator-native code: it synthesizes the monitor-visible record
pattern (window reads from trusted-verifier addresses, key-region writes,
the final authorization record) instead of running foreign instructions,
with a record count affine in the window size.

Each phase is one ``machine.commit_run`` call, which builds the run's
records, steps the monitor over the whole run at once and keeps the
records up to and including the first that resets: the installer's
mailbox, window, er_min cell and er_max cell, and the verifier's header,
digest sweep, tail, key writes and final authorization record. A store
run's kept words are stored before that reset completes. A run samples
the live window bounds once; only the two bound stores touch the cells
``er_window`` reads (the layout keeps the mailbox, the window and the key
region off them), and each is a run of its own, so the next record sees
the bound it stored. Records, memory, cycle count and monitor state are
those of judging and storing one record at a time, and so is the cost
model.

Wire format of an authorization message, bit exact:

    "VRSA" | chal (8 bytes BE) | token (32 bytes) | length (4 bytes BE) | binary
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, cycle, repeat

from .crypto import (CHAL_BYTES, KEY_BYTES, MAC_BYTES, derive_enc_key,
                     token_mac)
from .errors import SizeError
from .layout import ErWindow, MemoryLayout, default_layout
from .machine import Machine, RunContext, StateRecord, Trace, commit_run, run
from .monitor import Monitor
from .oracle import BOTTOM, TOP

MAGIC = b"VRSA"

# Record-count model for one verification pass.
VERIFY_HEADER_RECORDS = 6       # mailbox parse and counter compare
VERIFY_RECORDS_PER_WORD = 1     # digest sweep over the window
VERIFY_TAIL_RECORDS = 2         # token compare and bookkeeping


@dataclass(frozen=True)
class AuthorizationMessage:
    binary: bytes
    chal: int
    token: bytes

    def to_wire(self) -> bytes:
        if len(self.token) != MAC_BYTES:
            raise SizeError("token must be 32 bytes")
        return (MAGIC + self.chal.to_bytes(CHAL_BYTES, "big") + self.token
                + len(self.binary).to_bytes(4, "big") + self.binary)

    @staticmethod
    def from_wire(blob: bytes) -> "AuthorizationMessage":
        if len(blob) < len(MAGIC) + CHAL_BYTES + MAC_BYTES + 4:
            raise SizeError("message too short")
        if blob[:4] != MAGIC:
            raise SizeError("bad message magic")
        chal = int.from_bytes(blob[4:12], "big")
        token = blob[12:44]
        length = int.from_bytes(blob[44:48], "big")
        body = blob[48:48 + length]
        if len(body) != length:
            raise SizeError("message truncated")
        if len(blob) != 48 + length:
            raise SizeError(f"{len(blob) - 48 - length} bytes after the message body")
        return AuthorizationMessage(binary=body, chal=chal, token=token)


def authorize_ctrl(key: bytes, ctrl_counter: int, binary: bytes,
                   capacity: int | None = None) -> tuple[AuthorizationMessage, int]:
    """Controller side: bind ``binary`` to the next challenge value.

    Each call consumes one challenge; issuing several messages for the same
    binary yields a batch of independently usable one-shot tokens.
    """
    if len(key) != KEY_BYTES:
        raise SizeError(f"key must be {KEY_BYTES} bytes")
    if not binary:
        raise SizeError("refusing to authorize an empty binary")
    if capacity is not None and len(binary) > capacity:
        raise SizeError(f"binary of {len(binary)} bytes exceeds capacity {capacity}")
    chal = ctrl_counter + 1
    msg = AuthorizationMessage(binary=binary, chal=chal,
                               token=token_mac(key, chal, binary))
    return msg, chal


def install(msg: AuthorizationMessage, machine: Machine, er: ErWindow,
            monitor: Monitor | None = None) -> list[StateRecord]:
    """Stage a message on the device: binary into the window (zero padded),
    challenge and token into the mailbox, bounds into the metadata cells.

    Staging runs as ordinary unprivileged stores, so the monitor observes
    every window and metadata write; re-staging after a successful
    verification is therefore a revocation event, exactly like any other
    tampering. Like a CPU, staging stops after the store of the first
    record that resets. Returns the emitted records.
    """
    layout = machine.layout
    layout.validate_window(er)
    span = er.byte_span
    if len(msg.binary) > span:
        raise SizeError(f"binary of {len(msg.binary)} bytes exceeds window of {span}")
    mailbox = msg.chal.to_bytes(CHAL_BYTES, "big") + msg.token
    if len(mailbox) + len(mailbox) % 2 > len(layout.atok_mailbox):  # whole words
        raise SizeError(f"challenge and token of {len(mailbox)} bytes overflow the mailbox")
    pcs = repeat((layout.pmem.start + 0x80) & 0xFFFE)  # the installer's pc
    padded = msg.binary + bytes(span - len(msg.binary))
    records: list[StateRecord] = []
    if len(mailbox) % 2:  # a short token: the last word's high byte is 0
        mailbox += b"\x00"
    for addr, data in ((layout.atok_mailbox.start, mailbox), (er.er_min, padded),
                       (layout.er_min_cell, er.er_min.to_bytes(2, "little")),
                       (layout.er_max_cell, er.er_max.to_bytes(2, "little"))):
        if commit_run(machine, monitor, records, pcs, range(addr, addr + len(data), 2),
                      w_en=True, store=data):
            break
    return records


def stored_counter(machine: Machine) -> int:
    start = machine.layout.counter_cell.start
    return int.from_bytes(machine.memory[start:start + 8], "big")


def _set_stored_counter(machine: Machine, value: int) -> None:
    start = machine.layout.counter_cell.start
    machine.memory[start:start + 8] = value.to_bytes(8, "big")


def verify_dev(key: bytes, machine: Machine,
               monitor: Monitor | None) -> tuple[bool, list[StateRecord]]:
    """Device-side verification over the live window bytes.

    Rejects stale challenges, and live windows that are inverted or have
    an odd bound (see ``Machine.er_window``), before any digest work. On a
    digest match the stored counter advances, the fresh one-time key lands
    in the key region, and the final emitted record sits at the
    authorization address; on mismatch that address is never reached and
    the staged message stays for retry. ``machine.commit_run`` completes a
    reset on the record that fires it, and verification stops there with
    ``BOTTOM``, the final authorization record's own reset included.
    """
    layout = machine.layout
    records: list[StateRecord] = []
    pcs = cycle(range(layout.vr.start, layout.vr.end + 1, 2))
    mb = layout.atok_mailbox.start
    chal = int.from_bytes(machine.memory[mb:mb + CHAL_BYTES], "big")
    staged_token = bytes(machine.memory[mb + CHAL_BYTES:mb + CHAL_BYTES + MAC_BYTES])

    if commit_run(machine, monitor, records, pcs,
                  range(mb, mb + 2 * VERIFY_HEADER_RECORDS, 2), r_en=True):
        return BOTTOM, records

    if chal <= stored_counter(machine):
        return BOTTOM, records

    er_min, er_max = machine.er_window()
    if er_min > er_max or er_min % 2 or er_max % 2:
        return BOTTOM, records
    window_bytes = bytes(machine.memory[er_min:er_max + 2])
    # Each word's address VERIFY_RECORDS_PER_WORD times in a row.
    sweep = range(er_min, er_min + len(window_bytes), 2)
    if commit_run(machine, monitor, records, pcs,
                  chain.from_iterable(zip(*[sweep] * VERIFY_RECORDS_PER_WORD)), r_en=True):
        return BOTTOM, records
    sigma = token_mac(key, chal, window_bytes)

    if commit_run(machine, monitor, records, pcs, (0,) * VERIFY_TAIL_RECORDS):
        return BOTTOM, records

    # Constant-time compare is irrelevant in simulation; equality is the contract.
    if sigma != staged_token:
        return BOTTOM, records

    _set_stored_counter(machine, chal)
    k_enc = derive_enc_key(key, chal)[:2 * len(_key_offsets(layout))]
    ekr = layout.ekr.start
    if commit_run(machine, monitor, records, pcs, range(ekr, ekr + len(k_enc), 2),
                  w_en=True, store=k_enc):
        return BOTTOM, records
    if commit_run(machine, monitor, records, (layout.i_auth,), (0,)):
        return BOTTOM, records
    return TOP, records


def _key_offsets(layout: MemoryLayout) -> range:
    """Byte offsets of the one-time key's words written into the key
    region: as many as both the key and the region hold."""
    return range(0, min(MAC_BYTES, len(layout.ekr)), 2)


def verify_record_count(window_span_bytes: int,
                        layout: MemoryLayout | None = None) -> int:
    """Closed-form record count of a successful verification (cost model)
    on ``layout`` (default: ``default_layout()``), whose key region bounds
    the key writes."""
    words = window_span_bytes // 2
    kenc_writes = len(_key_offsets(layout or default_layout()))
    return (VERIFY_HEADER_RECORDS + VERIFY_RECORDS_PER_WORD * words
            + VERIFY_TAIL_RECORDS + kenc_writes + 1)


def settle_after_verify(machine: Machine, monitor: Monitor | None,
                        records: list[StateRecord]) -> None:
    """A no-op kept for ``bench/workloads.py``: ``verify_dev`` has already
    completed any reset, and a second reset routine would run ``on_reset`` twice."""


def xsensing(machine: Machine, monitor: Monitor | None, ctx: RunContext,
             max_cycles: int = 2000,
             entry: int | None = None) -> tuple[Trace, bool]:
    """Jump to the live window start (or to ``entry``, an attacker-chosen
    address) and run; report whether sensing happened.

    Success means at least one record carries an un-reset CPU read of GPIO.
    Calling without a prior successful verification is legal; the monitor
    then punishes the first GPIO access.
    """
    if entry is None:
        entry, _ = machine.er_window()
    machine.pc = entry & 0xFFFE
    machine.halted = False
    trace = run(machine, monitor, ctx, max_cycles)
    return trace, sensing_verdict(trace, machine)


def sensing_verdict(trace: Trace, machine: Machine) -> bool:
    gpio = machine.layout.gpio
    return any(r.r_en and r.d_addr in gpio and not r.reset for r in trace)
