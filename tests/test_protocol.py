"""Authorization, staging, device verification, and sensing execution."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from mcusentry.crypto import derive_enc_key, token_mac
from mcusentry.errors import SizeError
from mcusentry.isa import HALT, LOAD, NOP, assemble
from mcusentry.layout import ErWindow, default_layout, format_layout, parse_layout
from mcusentry.machine import (ConstantSensor, RunContext, StateRecord, commit,
                               load_image, run)
from mcusentry.monitor import GpioState, Monitor
from mcusentry.oracle import BOTTOM, TOP
from mcusentry.programs import boot_rom, filler_binary, window_for
from mcusentry.protocol import (VERIFY_HEADER_RECORDS, VERIFY_RECORDS_PER_WORD,
                                VERIFY_TAIL_RECORDS, AuthorizationMessage,
                                authorize_ctrl, install, settle_after_verify,
                                stored_counter, verify_dev, verify_record_count,
                                xsensing)

LAYOUT = default_layout()
KEY = bytes(range(32))


def booted_machine(er: ErWindow, layout=LAYOUT):
    machine = load_image(layout, b"", er, rom=boot_rom(0xEFFE))
    monitor = Monitor.for_layout(layout)
    run(machine, monitor, RunContext.build(), 3)
    return machine, monitor


def staged(binary: bytes, er_min: int = 0x4000, layout=LAYOUT):
    er = window_for(binary, er_min)
    machine, monitor = booted_machine(er, layout)
    msg, _ = authorize_ctrl(KEY, 0, binary)
    install(msg, machine, er, monitor)
    return machine, monitor, msg, er


class TestAuthorize:
    def test_fresh_challenges_and_distinct_tokens(self):
        msg1, counter = authorize_ctrl(KEY, 0, b"\x10\x00")
        msg2, counter = authorize_ctrl(KEY, counter, b"\x10\x00")
        assert (msg1.chal, msg2.chal) == (1, 2)
        assert msg1.token != msg2.token

    def test_empty_binary_rejected(self):
        with pytest.raises(SizeError):
            authorize_ctrl(KEY, 0, b"")

    def test_capacity_enforced(self):
        with pytest.raises(SizeError):
            authorize_ctrl(KEY, 0, b"\x00" * 10, capacity=8)

    def test_token_matches_independent_recomputation(self):
        msg, _ = authorize_ctrl(KEY, 6, b"binary")
        assert msg.token == token_mac(KEY, 7, b"binary")


class TestWireFormat:
    def test_fixed_prefix(self):
        msg, _ = authorize_ctrl(KEY, 0, b"\xAA\xBB")
        wire = msg.to_wire()
        assert wire[:4] == b"VRSA"
        assert int.from_bytes(wire[4:12], "big") == msg.chal
        assert wire[44:48] == (2).to_bytes(4, "big")

    @settings(max_examples=200, deadline=None)
    @given(st.binary(min_size=1, max_size=300), st.integers(1, 2 ** 60))
    def test_roundtrip(self, binary, chal):
        msg = AuthorizationMessage(binary, chal, token_mac(KEY, chal, binary))
        assert AuthorizationMessage.from_wire(msg.to_wire()) == msg

    def test_truncation_detected(self):
        msg, _ = authorize_ctrl(KEY, 0, b"\xAA\xBB\xCC\xDD")
        with pytest.raises(SizeError):
            AuthorizationMessage.from_wire(msg.to_wire()[:-1])

    def test_trailing_bytes_rejected(self):
        # Otherwise two different files would parse to the same message.
        msg, _ = authorize_ctrl(KEY, 0, b"\xAA\xBB\xCC\xDD")
        with pytest.raises(SizeError):
            AuthorizationMessage.from_wire(msg.to_wire() + b"\x00")


class TestInstallVerify:
    def test_install_then_verify_accepts(self):
        machine, monitor, msg, er = staged(assemble([NOP(), HALT()]))
        ok, records = verify_dev(KEY, machine, monitor)
        assert ok
        assert records[-1].pc == LAYOUT.i_auth
        assert monitor.state.gpio is GpioState.RUNLOCK
        assert stored_counter(machine) == msg.chal

    def test_install_leaves_monitor_locked(self):
        machine, monitor, msg, er = staged(assemble([NOP(), HALT()]))
        assert monitor.state.gpio is GpioState.RLOCK

    def test_oversize_binary_rejected(self):
        machine, monitor = booted_machine(ErWindow(0x4000, 0x4002))
        msg, _ = authorize_ctrl(KEY, 0, b"\x00" * 12)
        with pytest.raises(SizeError):
            install(msg, machine, ErWindow(0x4000, 0x4002), monitor)

    def test_long_token_rejected_before_any_store(self):
        # A 48-byte token would be staged over the counter cell behind the
        # mailbox and let a stale challenge through.
        machine, monitor, msg, er = staged(assemble([NOP(), HALT()]))
        counter = stored_counter(machine)
        memory, cycle = bytes(machine.memory), machine.cycle
        long = AuthorizationMessage(msg.binary, msg.chal + 1, b"\xff" * 48)
        with pytest.raises(SizeError, match="mailbox"):
            install(long, machine, er, monitor)
        assert stored_counter(machine) == counter
        assert bytes(machine.memory) == memory
        assert machine.cycle == cycle

    def test_token_filling_the_mailbox_is_staged(self):
        binary = b"\x00\x00"
        er = window_for(binary, 0x4000)
        machine, monitor = booted_machine(er)
        room = len(LAYOUT.atok_mailbox) - 8  # after the 8-byte challenge
        msg = AuthorizationMessage(binary, 1, b"\xaa" * room)
        install(msg, machine, er, monitor)
        box = LAYOUT.atok_mailbox
        assert machine.memory[box.start + 8:box.end + 1] == msg.token
        with pytest.raises(SizeError):
            install(AuthorizationMessage(binary, 1, b"\xaa" * (room + 1)),
                    machine, er, monitor)

    def test_bit_flip_in_window_rejects(self):
        machine, monitor, msg, er = staged(assemble([NOP(), NOP(), HALT()]))
        machine.memory[er.er_min] ^= 0x01  # post-staging corruption
        ok, records = verify_dev(KEY, machine, monitor)
        assert not ok
        assert all(r.pc != LAYOUT.i_auth for r in records)

    def test_stale_challenge_rejected_before_digest(self):
        machine, monitor, msg, er = staged(assemble([NOP(), HALT()]))
        ok, _ = verify_dev(KEY, machine, monitor)
        assert ok
        install(msg, machine, er, monitor)  # same challenge again
        ok, records = verify_dev(KEY, machine, monitor)
        assert not ok
        assert len(records) <= 8  # rejected at the header, no digest sweep

    def test_failed_verify_leaves_message_staged_for_retry(self):
        binary = assemble([NOP(), HALT()])
        machine, monitor, msg, er = staged(binary)
        machine.memory[er.er_min] ^= 0x01
        ok, _ = verify_dev(KEY, machine, monitor)
        assert not ok
        machine.memory[er.er_min] ^= 0x01  # restore
        ok, _ = verify_dev(KEY, machine, monitor)
        assert ok

    def test_counter_is_monotone(self):
        machine, monitor, msg, er = staged(assemble([NOP(), HALT()]))
        before = stored_counter(machine)
        verify_dev(KEY, machine, monitor)
        assert stored_counter(machine) == msg.chal > before
        install(msg, machine, er, monitor)
        verify_dev(KEY, machine, monitor)
        assert stored_counter(machine) == msg.chal  # never decreased

    def test_padding_is_covered_by_both_sides(self):
        # A window larger than the binary: the controller authorizes the
        # padded content, staging zero-fills, and the digest must match.
        er = ErWindow(0x4000, 0x400E)
        binary = assemble([NOP(), HALT()])
        padded = binary + bytes(er.byte_span - len(binary))
        machine, monitor = booted_machine(er)
        msg, _ = authorize_ctrl(KEY, 0, padded)
        install(msg, machine, er, monitor)
        ok, _ = verify_dev(KEY, machine, monitor)
        assert ok

    def test_kenc_lands_in_key_region(self):
        machine, monitor, msg, er = staged(assemble([NOP(), HALT()]))
        verify_dev(KEY, machine, monitor)
        got = bytes(machine.memory[LAYOUT.ekr.start:LAYOUT.ekr.start + 32])
        assert got == derive_enc_key(KEY, msg.chal)

    def test_token_batch_is_usable_in_issue_order(self):
        binary = assemble([NOP(), HALT()])
        er = window_for(binary, 0x4000)
        machine, monitor = booted_machine(er)
        counter = 0
        batch = []
        for _ in range(3):
            msg, counter = authorize_ctrl(KEY, counter, binary)
            batch.append(msg)
        for msg in batch:
            install(msg, machine, er, monitor)
            ok, _ = verify_dev(KEY, machine, monitor)
            assert ok
        # A skipped-over older member is burned once a newer one was used.
        install(batch[0], machine, er, monitor)
        ok, _ = verify_dev(KEY, machine, monitor)
        assert not ok


class TestVerifyCost:
    def test_record_count_is_affine_in_window_size(self):
        counts = {}
        for span in (64, 128, 256, 512, 1024):
            binary = assemble(filler_binary(span))
            machine, monitor, msg, er = staged(binary)
            ok, records = verify_dev(KEY, machine, monitor)
            assert ok
            counts[span] = len(records)
            assert len(records) == verify_record_count(span)
        slopes = [(counts[b] - counts[a]) / (b - a)
                  for a, b in zip(sorted(counts), sorted(counts)[1:])]
        assert all(s == slopes[0] > 0 for s in slopes)

    def test_record_count_follows_the_layout_key_region(self):
        # An 8-byte key region takes four key writes, not sixteen.
        text = format_layout(LAYOUT).replace("ekr=0xF100:0xF11F",
                                             "ekr=0xF100:0xF107")
        layout = parse_layout(text)
        assert len(layout.ekr) == 8
        binary = assemble(filler_binary(16))
        machine, monitor, msg, er = staged(binary, layout=layout)
        ok, records = verify_dev(KEY, machine, monitor)
        assert ok
        assert len(records) == verify_record_count(16, layout) == 21
        assert verify_record_count(16) == verify_record_count(16, LAYOUT) == 33


class TestXSensing:
    def test_authorized_read_succeeds(self):
        binary = assemble([LOAD(0, LAYOUT.gpio.start), HALT()])
        machine, monitor, msg, er = staged(binary)
        ok, vrecs = verify_dev(KEY, machine, monitor)
        assert ok
        trace, sensed = xsensing(machine, monitor,
                                 RunContext.build(sensor=ConstantSensor(5)))
        assert sensed
        assert not any(r.reset for r in trace)

    def test_non_sensing_binary_reports_failure(self):
        binary = assemble([NOP(), NOP(), HALT()])
        machine, monitor, msg, er = staged(binary)
        verify_dev(KEY, machine, monitor)
        trace, sensed = xsensing(machine, monitor, RunContext.build())
        assert not sensed
        assert not any(r.reset for r in trace)

    def test_unverified_execution_is_punished(self):
        binary = assemble([LOAD(0, LAYOUT.gpio.start), HALT()])
        machine, monitor, msg, er = staged(binary)
        trace, sensed = xsensing(machine, monitor, RunContext.build())
        assert not sensed
        assert any(r.reset for r in trace)

    def test_second_execution_needs_fresh_verification(self):
        binary = assemble([LOAD(0, LAYOUT.gpio.start), HALT()])
        machine, monitor, msg, er = staged(binary)
        verify_dev(KEY, machine, monitor)
        _, first = xsensing(machine, monitor, RunContext.build())
        assert first
        trace, second = xsensing(machine, monitor, RunContext.build())
        assert not second
        assert any(r.reset for r in trace)


class TestUnforgeability:
    def test_random_mutations_always_reject(self):
        rng = random.Random(1234)
        binary = assemble([NOP(), NOP(), HALT()])
        rejected = 0
        trials = 400
        for i in range(trials):
            machine, monitor, msg, er = staged(binary)
            which = rng.randrange(3)
            if which == 0:
                body = bytearray(machine.memory[er.er_min:er.er_min + er.byte_span])
                body[rng.randrange(len(body))] ^= 1 << rng.randrange(8)
                machine.memory[er.er_min:er.er_min + er.byte_span] = body
            elif which == 1:
                mb = LAYOUT.atok_mailbox.start + 8 + rng.randrange(32)
                machine.memory[mb] ^= 1 << rng.randrange(8)
            else:
                mb = LAYOUT.atok_mailbox.start + rng.randrange(8)
                machine.memory[mb] ^= 1 << rng.randrange(8)
            ok, _ = verify_dev(KEY, machine, monitor)
            rejected += not ok
        assert rejected == trials


def test_refused_verification_reset_reaches_the_reset_hook():
    # A monitor held in RESET fails the first verifier cycle, and the reset
    # routine runs the machine's hook inside verify_dev itself.
    machine, monitor, _, _ = staged(assemble([NOP(), HALT()]))
    dmem = LAYOUT.dmem
    machine.memory[dmem.start:dmem.start + 4] = b"\xde\xad\xbe\xef"
    seen = []
    machine.on_reset = lambda m: seen.append(bytes(m.memory[dmem.start:dmem.end + 1]))
    monitor.force_reset()
    ok, records = verify_dev(KEY, machine, monitor)
    assert not ok and len(records) == 1 and records[-1].reset
    assert len(seen) == 1 and not any(seen[0])


def test_settle_after_verify_is_a_no_op():
    # Kept callable for older callers; the reset already ran in verify_dev.
    machine, monitor, _, _ = staged(assemble([NOP(), HALT()]))
    seen = []
    machine.on_reset = seen.append
    monitor.force_reset()
    _, records = verify_dev(KEY, machine, monitor)
    memory, state = bytes(machine.memory), monitor.state
    settle_after_verify(machine, monitor, records)
    assert len(seen) == 1
    assert bytes(machine.memory) == memory and monitor.state == state


# -- Differential reference: the per-record protocol cycles -------------------
# ``install`` and ``verify_dev`` emit each phase as runs judged by
# ``machine.commit_run``, sample the live bounds once per run and stage bytes
# straight into memory. The reference below re-reads ``er_window()`` on every
# record, stages through ``store_word`` and judges each record with
# ``machine.commit``; both must give the same records, memory, cycle count
# and monitor state, and both stop at the first reset.

def _reference_emit(machine, monitor, records, pc, *, r_en=False, w_en=False,
                    d_addr=0, er=None):
    er_min, er_max = er or machine.er_window()
    rec = StateRecord(machine.cycle, pc, r_en, w_en, d_addr, False, 0, False,
                      False, False, pc, er_min, er_max)
    machine.cycle += 1
    records.append(commit(machine, monitor, rec))
    return records[-1].reset


def reference_install(msg, machine, er, monitor=None):
    layout = machine.layout
    layout.validate_window(er)
    span = er.byte_span
    if len(msg.binary) > span:
        raise SizeError("binary exceeds window")
    installer_pc = (layout.pmem.start + 0x80) & 0xFFFE
    padded = msg.binary + bytes(span - len(msg.binary))
    records = []

    def staged_write(addr, chunk):
        # The record carries the bounds sampled before its own store.
        for i in range(0, len(chunk), 2):
            word = int.from_bytes(chunk[i:i + 2].ljust(2, b"\x00"), "little")
            bounds = machine.er_window()
            machine.store_word(addr + i, word)
            if _reference_emit(machine, monitor, records, installer_pc,
                               w_en=True, d_addr=addr + i, er=bounds):
                return True
        return False

    if not (staged_write(layout.atok_mailbox.start,
                         msg.chal.to_bytes(8, "big") + msg.token)
            or staged_write(er.er_min, padded)):
        staged_write(layout.er_min_cell, er.er_min.to_bytes(2, "little")
                     + er.er_max.to_bytes(2, "little"))
    return records


def reference_verify_dev(key, machine, monitor):
    layout = machine.layout
    records = []
    vr = layout.vr
    mb = layout.atok_mailbox.start
    chal = int.from_bytes(machine.memory[mb:mb + 8], "big")
    staged_token = bytes(machine.memory[mb + 8:mb + 40])
    cursor = [vr.start]

    def vr_pc():
        pc = cursor[0]
        cursor[0] = vr.start if pc + 2 > vr.end else pc + 2
        return pc

    for i in range(VERIFY_HEADER_RECORDS):
        if _reference_emit(machine, monitor, records, vr_pc(),
                           r_en=True, d_addr=(mb + 2 * i) & 0xFFFE):
            return BOTTOM, records
    if chal <= stored_counter(machine):
        return BOTTOM, records
    er_min, er_max = machine.er_window()
    if er_min > er_max or er_min % 2 or er_max % 2:
        return BOTTOM, records
    window_bytes = bytes(machine.memory[er_min:er_max + 2])
    for offset in range(0, len(window_bytes), 2):
        for _ in range(VERIFY_RECORDS_PER_WORD):
            if _reference_emit(machine, monitor, records, vr_pc(),
                               r_en=True, d_addr=er_min + offset):
                return BOTTOM, records
    sigma = token_mac(key, chal, window_bytes)
    for _ in range(VERIFY_TAIL_RECORDS):
        if _reference_emit(machine, monitor, records, vr_pc()):
            return BOTTOM, records
    if sigma != staged_token:
        return BOTTOM, records
    start = layout.counter_cell.start
    machine.memory[start:start + 8] = chal.to_bytes(8, "big")
    k_enc = derive_enc_key(key, chal)
    ekr = layout.ekr
    for i in range(0, min(32, len(ekr)), 2):
        machine.store_word(ekr.start + i, int.from_bytes(k_enc[i:i + 2], "little"))
        if _reference_emit(machine, monitor, records, vr_pc(),
                           w_en=True, d_addr=ekr.start + i):
            return BOTTOM, records
    if _reference_emit(machine, monitor, records, layout.i_auth):
        return BOTTOM, records
    return TOP, records


EKR8_LAYOUT = parse_layout(format_layout(LAYOUT).replace("ekr=0xF100:0xF11F",
                                                         "ekr=0xF100:0xF107"))
# The mailbox right against the metadata cells: its run ends on the word
# before the er_min cell, or starts on the word after the er_max cell.
MAILBOX_BEFORE_CELLS_LAYOUT = parse_layout(
    format_layout(LAYOUT).replace("er_metadata=0x1000:0x1003", "er_metadata=0x1028:0x102B")
    .replace("atok_mailbox=0x1010:0x103F", "atok_mailbox=0x1000:0x1027"))
MAILBOX_AFTER_CELLS_LAYOUT = parse_layout(
    format_layout(LAYOUT).replace("atok_mailbox=0x1010:0x103F", "atok_mailbox=0x1004:0x102B")
    .replace("counter_cell=0x1040:0x1047", "counter_cell=0x102C:0x1033"))


def _session(layout, boot_er, monitor_mode, steps, install_fn, verify_fn):
    """Boot on ``boot_er``, then run each (message, window) step through
    install and verify; return everything either side observed."""
    machine, monitor = booted_machine(boot_er, layout)
    if monitor_mode == "reset":
        monitor.force_reset()
    elif monitor_mode == "none":
        monitor = None
    seen = []
    for msg, er in steps:
        staged = install_fn(msg, machine, er, monitor)
        ok, verified = verify_fn(KEY, machine, monitor)
        seen.append((staged, ok, verified, bytes(machine.memory), machine.cycle,
                     None if monitor is None else monitor.state))
    return seen


def _steps(kind, binary, er):
    """Messages for one session: ``fresh`` is accepted once; ``tampered``
    flips a bit of the binary; ``short-token`` drops the token's last
    byte, so the mailbox chunk has odd length; ``replayed`` stages an
    accepted message again; ``stale`` stages an older challenge after a
    newer one."""
    first, counter = authorize_ctrl(KEY, 0, binary)
    if kind == "fresh":
        return [(first, er)]
    if kind == "short-token":
        return [(AuthorizationMessage(binary, first.chal, first.token[:-1]), er)]
    if kind == "tampered":
        body = bytearray(binary)
        body[len(body) // 2] ^= 0x10
        return [(AuthorizationMessage(bytes(body), first.chal, first.token), er)]
    if kind == "replayed":
        return [(first, er), (first, er)]
    second, _ = authorize_ctrl(KEY, counter, binary)
    return [(second, er), (first, er)]


@settings(max_examples=60, deadline=None)
@given(layout=st.sampled_from([LAYOUT, EKR8_LAYOUT, MAILBOX_BEFORE_CELLS_LAYOUT,
                                MAILBOX_AFTER_CELLS_LAYOUT]),
       span=st.integers(1, 512).map(lambda words: 2 * words),
       cut=st.integers(0, 1023),
       er_min=st.integers(0x2000, 0x2400).map(lambda a: a & 0xFFFE),
       boot_er_min=st.integers(0x2000, 0x2400).map(lambda a: a & 0xFFFE),
       kind=st.sampled_from(["fresh", "tampered", "short-token", "replayed",
                             "stale"]),
       monitor_mode=st.sampled_from(["live", "none", "reset"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_protocol_cycles_equal_the_per_record_reference(
        layout, span, cut, er_min, boot_er_min, kind, monitor_mode, seed):
    # The binary may be shorter than the window, of odd length, and the
    # session may boot on another window, so the er_min cell's store moves
    # the live bounds that the er_max cell's record samples.
    binary = random.Random(seed).randbytes(max(1, span - cut % span))
    er = ErWindow(er_min, er_min + span - 2)
    boot_er = ErWindow(boot_er_min, boot_er_min + 2 * (seed % 8))
    steps = _steps(kind, binary, er)
    got = _session(layout, boot_er, monitor_mode, steps, install, verify_dev)
    want = _session(layout, boot_er, monitor_mode, steps,
                    reference_install, reference_verify_dev)
    assert got == want
    for staged, _, verified, *_ in got:
        assert all(type(r) is StateRecord for r in staged + verified)
    if monitor_mode == "reset":
        assert all(r.reset for r in got[0][0])


def test_metadata_record_carries_the_new_lower_bound():
    # Booted on one window, staged on another: the store to the er_min
    # cell takes effect before the er_max cell's record is emitted.
    boot_er, er = ErWindow(0x3000, 0x3002), ErWindow(0x4000, 0x400E)
    machine, monitor = booted_machine(boot_er)
    msg, _ = authorize_ctrl(KEY, 0, bytes(range(16)))
    records = install(msg, machine, er, monitor)
    first, second = records[-2:]
    assert (first.d_addr, first.er_min, first.er_max) == (LAYOUT.er_min_cell,
                                                          0x3000, 0x3002)
    assert (second.d_addr, second.er_min, second.er_max) == (LAYOUT.er_max_cell,
                                                             0x4000, 0x3002)
    assert machine.er_window() == (0x4000, 0x400E)
    ok, verified = verify_dev(KEY, machine, monitor)
    assert ok and all((r.er_min, r.er_max) == (0x4000, 0x400E) for r in verified)


# -- Hostile live bounds: runs cut in the middle ------------------------------
# Raw bounds written straight into the metadata cells after staging, as an
# attacker with a write primitive could: windows spanning GPIO or key words
# (the digest sweep reads them and resets partway through), inverted and odd
# bounds, and windows over the verifier's own words, the authorization
# address or the staging cells.

HOSTILE_BOUNDS = [
    (LAYOUT.gpio.start - 4, LAYOUT.gpio.start + 4),
    (LAYOUT.gpio.start - 3, LAYOUT.gpio.start + 1),
    (LAYOUT.ekr.start - 2, LAYOUT.ekr.start + 2),
    (0x4010, 0x4000),
    (LAYOUT.vr.start, LAYOUT.vr.end - 1),
    (LAYOUT.vr.start + 8, LAYOUT.vr.start + 16),
    (LAYOUT.i_auth, LAYOUT.i_auth + 2),
    (LAYOUT.i_auth - 4, LAYOUT.i_auth),
    (LAYOUT.er_metadata.start, LAYOUT.counter_cell.end - 1),
    (0xFFF0, 0xFFFF),
]


def _write_bounds(machine, bounds):
    for cell, value in zip((LAYOUT.er_min_cell, LAYOUT.er_max_cell), bounds):
        machine.store_word(cell, value)


def _hostile_session(bounds, monitor_mode, live_token, install_fn, verify_fn):
    """Stage, write ``bounds``, verify; then stage again under those bounds,
    write them once more and verify again. With ``live_token`` the mailbox
    token is replaced by a valid one over the live window bytes, so the
    verification reaches its key writes and final record."""
    binary = bytes(range(1, 33))
    er = window_for(binary, 0x4000)
    machine, monitor = booted_machine(er)
    if monitor_mode == "none":
        monitor = None
    counter, seen = 0, []
    for _ in range(2):
        msg, counter = authorize_ctrl(KEY, counter, binary)
        staged = install_fn(msg, machine, er, monitor)
        _write_bounds(machine, bounds)
        if live_token:
            lo, hi = machine.er_window()
            token = token_mac(KEY, msg.chal, bytes(machine.memory[lo:hi + 2]))
            mb = LAYOUT.atok_mailbox.start + 8
            machine.memory[mb:mb + len(token)] = token
        ok, verified = verify_fn(KEY, machine, monitor)
        seen.append((staged, ok, verified, bytes(machine.memory), machine.cycle,
                     None if monitor is None else monitor.state))
    return seen


@pytest.mark.parametrize("live_token", [False, True])
@pytest.mark.parametrize("monitor_mode", ["live", "none"])
@pytest.mark.parametrize("bounds", HOSTILE_BOUNDS,
                         ids=[f"{lo:04x}-{hi:04x}" for lo, hi in HOSTILE_BOUNDS])
def test_hostile_bounds_equal_the_per_record_reference(bounds, monitor_mode,
                                                       live_token):
    got = _hostile_session(bounds, monitor_mode, live_token, install, verify_dev)
    want = _hostile_session(bounds, monitor_mode, live_token,
                            reference_install, reference_verify_dev)
    assert got == want


def test_an_authorization_record_that_resets_fails_the_verification():
    # A valid token over a window laid across the verifier: every record
    # up to the key writes is judged clean, but the final record, at the
    # authorization address just past the window, resets. Verification
    # must then report BOTTOM, not the authorization the monitor revoked.
    binary = bytes(range(1, 33))
    er = window_for(binary, 0x4000)
    machine, monitor = booted_machine(er)
    msg, _ = authorize_ctrl(KEY, 0, binary)
    install(msg, machine, er, monitor)
    _write_bounds(machine, (0x0100, 0x02FE))
    token = token_mac(KEY, msg.chal, bytes(machine.memory[0x0100:0x0300]))
    mb = LAYOUT.atok_mailbox.start + 8
    machine.memory[mb:mb + len(token)] = token
    ok, records = verify_dev(KEY, machine, monitor)
    assert ok is False
    assert records[-1].pc == LAYOUT.i_auth and records[-1].reset
    assert not any(r.reset for r in records[:-1])


@pytest.mark.parametrize("bounds", [(0x4001, 0x400E), (0x4000, 0x400F),
                                    (0x4001, 0x400F)])
def test_odd_live_bounds_fail_the_verification_before_the_sweep(bounds):
    # A valid token over the live bytes, so only the bounds refuse it: a pc
    # is always even, so no run ever meets an odd bound.
    machine, monitor, msg, er = staged(bytes(range(1, 33)))
    _write_bounds(machine, bounds)
    lo, hi = bounds
    token = token_mac(KEY, msg.chal, bytes(machine.memory[lo:hi + 2]))
    mb = LAYOUT.atok_mailbox.start + 8
    machine.memory[mb:mb + len(token)] = token
    ok, records = verify_dev(KEY, machine, monitor)
    assert ok is False
    assert len(records) == VERIFY_HEADER_RECORDS
    assert not any(r.reset or lo <= r.d_addr <= hi for r in records)


def test_a_sweep_over_gpio_is_cut_past_its_first_record(monkeypatch):
    # The window's first two words lie below GPIO: the sweep's third read
    # is the first GPIO read, and the locked monitor resets on it.
    cuts = []
    inner = Monitor.step_run

    def recorded(self, records):
        cut = inner(self, records)
        cuts.append((cut, len(records)))
        return cut

    monkeypatch.setattr(Monitor, "step_run", recorded)
    machine, monitor, msg, er = staged(bytes(range(1, 33)))
    _write_bounds(machine, (LAYOUT.gpio.start - 4, LAYOUT.gpio.start + 4))
    ok, records = verify_dev(KEY, machine, monitor)
    assert not ok
    assert cuts[-1] == (2, 5)
    assert len(records) == VERIFY_HEADER_RECORDS + 3
    assert records[-1].reset and records[-1].d_addr == LAYOUT.gpio.start
    assert not any(r.reset for r in records[:-1])
