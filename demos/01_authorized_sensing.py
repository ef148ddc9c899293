#!/usr/bin/env python3
"""Walk the full authorized-sensing flow on a simulated device.

The controller authorizes a 32-byte sensing binary, the device stages and
verifies it, execution reads the sensor stream through GPIO, pad-encrypts
it against the fresh one-time key, scrubs its staging RAM, and exits
cleanly. The controller then decrypts the exported ciphertext.
"""
from mcusentry.crypto import derive_enc_key
from mcusentry.machine import RunContext, SequenceSensor, load_image, run
from mcusentry.monitor import Monitor
from mcusentry.programs import SENSOR_MARKER
from mcusentry.protocol import authorize_ctrl, install, verify_dev, xsensing
from mcusentry.referee import DEFAULT_KEY
from mcusentry.scenarios import OUT_BUF, happy_path


def main():
    plan = happy_path()
    layout = plan.layout
    print(f"window: 0x{plan.er.er_min:04X}..0x{plan.er.er_max:04X} "
          f"({plan.er.byte_span} bytes), binary of {len(plan.binary)} bytes")

    machine = load_image(layout, plan.image, plan.er, rom=plan.rom)
    monitor = Monitor.for_layout(layout)
    sensor = SequenceSensor(SENSOR_MARKER)
    run(machine, monitor, RunContext.build(sensor=sensor), plan.boot_cycles)
    print("booted; monitor FSMs are live and GPIO is locked")

    msg, _ = authorize_ctrl(DEFAULT_KEY, 0, plan.binary, plan.er.byte_span)
    print(f"controller issued challenge {msg.chal}, "
          f"token {msg.token.hex()[:16]}...")

    install(msg, machine, plan.er, monitor)
    ok, vrecords = verify_dev(DEFAULT_KEY, machine, monitor)
    print(f"device verification: {'accepted' if ok else 'REJECTED'} "
          f"({len(vrecords)} monitored cycles, "
          f"final pc=0x{vrecords[-1].pc:04X})")

    trace, sensed = xsensing(machine, monitor,
                             RunContext.build(sensor=sensor),
                             plan.xsensing_cycles)
    resets = sum(r.reset for r in trace)
    reads = sum(1 for r in trace
                if r.r_en and r.d_addr in layout.gpio and not r.reset)
    print(f"sensing run: verdict={'top' if sensed else 'bottom'}, "
          f"{len(trace)} cycles, {reads} sensor reads, {resets} resets")

    ciphertext = bytes(machine.memory[OUT_BUF:OUT_BUF + 32])
    pad = derive_enc_key(DEFAULT_KEY, msg.chal)
    recovered = bytes(c ^ p for c, p in zip(ciphertext, pad))
    print(f"exported ciphertext: {ciphertext.hex()}")
    print(f"controller decrypts: {recovered.hex()}")
    print(f"matches the sensor stream: {recovered == SENSOR_MARKER}")

    dmem = bytes(machine.memory[layout.dmem.start:layout.dmem.end + 1])
    leaks = sum(SENSOR_MARKER[i:i + 4] in dmem
                for i in range(len(SENSOR_MARKER) - 3))
    print(f"marker fragments left in RAM after self-cleanup: {leaks}")

    print("\nfirst sensing cycles (read/write enables, data address):")
    for rec in trace.records[:6]:
        access = f"rw={int(rec.r_en)}{int(rec.w_en)}  d_addr=0x{rec.d_addr:04X}"
        gpio = "  <- sensor read" if rec.r_en and rec.d_addr in layout.gpio else ""
        print(f"  cycle {rec.cycle:4d}  pc=0x{rec.pc:04X}  {access}{gpio}")


if __name__ == "__main__":
    main()
