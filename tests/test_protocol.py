"""Authorization, staging, device verification, and sensing execution."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from mcusentry.crypto import derive_enc_key, token_mac
from mcusentry.errors import SizeError
from mcusentry.isa import HALT, LOAD, NOP, assemble
from mcusentry.layout import ErWindow, default_layout, format_layout, parse_layout
from mcusentry.machine import ConstantSensor, RunContext, load_image, run
from mcusentry.monitor import GpioState, Monitor
from mcusentry.programs import boot_rom, filler_binary, window_for
from mcusentry.protocol import (AuthorizationMessage, authorize_ctrl, install,
                                settle_after_verify, stored_counter, verify_dev,
                                verify_record_count, xsensing)

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
    # A monitor held in RESET fails the first verifier cycle; the reset
    # routine that settle_after_verify completes runs the machine's hook.
    machine, monitor, _, _ = staged(assemble([NOP(), HALT()]))
    dmem = LAYOUT.dmem
    machine.memory[dmem.start:dmem.start + 4] = b"\xde\xad\xbe\xef"
    seen = []
    machine.on_reset = lambda m: seen.append(bytes(m.memory[dmem.start:dmem.end + 1]))
    monitor.force_reset()
    ok, records = verify_dev(KEY, machine, monitor)
    assert not ok and len(records) == 1 and records[-1].reset
    settle_after_verify(machine, monitor, records)
    assert len(seen) == 1 and not any(seen[0])
