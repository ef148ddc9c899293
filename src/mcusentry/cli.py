"""Command-line entry points.

Four subcommands: ``authorize`` (controller side), ``run`` (stage, verify,
and execute a message on a simulated device), ``check`` (exhaustive monitor
verification), and ``attack`` (the scenario game). Exit codes are a stable
CI contract: 0 expected verdict, 1 property violation or adversary win,
2 usage error. The ``MCUSENTRY_LAYOUT`` environment variable supplies a
default layout file.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from .catalogue import catalogue_by_name
from .checker import (check_catalogue, exhaustive_check, first_violation,
                      replay_counterexample, scaled_space)
from .errors import McuSentryError
from .layout import ErWindow, default_layout, parse_layout
from .ltl import parse as parse_formula
from .machine import (ConstantSensor, DmaRequest, RunContext, SequenceSensor,
                      Trace, load_image, run)
from .monitor import DEFAULT_GUARDS, Monitor
from .mutants import MUTANTS, mutant_guards
from .protocol import (AuthorizationMessage, authorize_ctrl, install,
                       verify_dev, xsensing)
from .referee import DEFAULT_KEY, run_campaign, summary_table

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _load_layout(path: str | None):
    path = path or os.environ.get("MCUSENTRY_LAYOUT")
    if path is None:
        return default_layout()
    return parse_layout(Path(path).read_text())


def _parse_window(text: str) -> ErWindow:
    try:
        lo, hi = (int(part, 0) for part in text.split(":"))
    except ValueError:
        raise ValueError(f"--er takes START:LAST_WORD, got {text!r}") from None
    return ErWindow(lo, hi)


def cmd_authorize(args) -> int:
    key = Path(args.key).read_bytes()
    if len(key) != 32:
        print("error: key file must hold exactly 32 bytes", file=sys.stderr)
        return EXIT_USAGE
    binary = Path(args.binary).read_bytes()
    counter_path = Path(args.counter)
    if counter_path.exists():
        text = counter_path.read_text().strip()
        if not text.isdigit():
            print(f"error: corrupt counter file {counter_path}", file=sys.stderr)
            return EXIT_USAGE
        counter = int(text)
    else:
        counter = 0
    msg, counter = authorize_ctrl(key, counter, binary)
    # The counter first: a message whose challenge was never recorded
    # would be issued again, for another binary, by the next call.
    counter_path.write_text(f"{counter}\n")
    Path(args.out).write_bytes(msg.to_wire())
    print(f"message written to {args.out} (challenge {msg.chal})")
    return EXIT_OK


def _sensor_from_args(args):
    if args.sensor_file:
        return SequenceSensor(Path(args.sensor_file).read_bytes())
    return ConstantSensor(args.sensor_const)


def _dma_request(parts: list[str]) -> DmaRequest:
    if len(parts) not in (3, 4):
        raise ValueError(f"expected 'cycle op addr [value]', got {' '.join(parts)!r}")
    value = int(parts[3], 0) if len(parts) > 3 else 0
    return DmaRequest(int(parts[0], 0), parts[1], int(parts[2], 0), value)


def _irq_cycle(parts: list[str]) -> int:
    if len(parts) != 1:
        raise ValueError(f"expected 'cycle', got {' '.join(parts)!r}")
    cycle = int(parts[0], 0)
    if cycle < 0:
        raise ValueError(f"negative IRQ cycle {cycle}")
    return cycle


def _schedule(path: str | None, kind: str, parse, cycle=None) -> list:
    """``parse`` of each line's fields, blank lines and comments skipped; a
    line it rejects names the file kind and the line number. With
    ``cycle``, a second entry at one entry's cycle is rejected too."""
    out, lines = [], {}  # the items, and the line of each cycle's first
    for lineno, line in enumerate(Path(path).read_text().splitlines() if path else [], 1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        try:
            item = parse(parts)
            if cycle is not None and lines.setdefault(cycle(item), lineno) != lineno:
                raise ValueError(f"two {kind} requests at cycle {cycle(item)} "
                                 f"(the other on line {lines[cycle(item)]})")
        except ValueError as exc:
            raise ValueError(f"{kind} file line {lineno}: {exc}") from None
        out.append(item)
    return out


def cmd_run(args) -> int:
    for flag, value in (("--boot-cycles", args.boot_cycles),
                        ("--max-cycles", args.max_cycles)):
        if value < 1:
            raise ValueError(f"{flag} must be positive, got {value}")
    layout = _load_layout(args.layout)
    er = _parse_window(args.er)
    image = Path(args.image).read_bytes() if args.image else b""
    rom = Path(args.rom).read_bytes() if args.rom else None
    machine = load_image(layout, image, er, rom=rom)
    monitor = Monitor(layout, DEFAULT_GUARDS.keyless() if args.no_ekr else DEFAULT_GUARDS)
    dma = _schedule(args.dma_file, "DMA", _dma_request, lambda req: req.at_cycle)
    irq = _schedule(args.irq_file, "IRQ", _irq_cycle)
    ctx = RunContext.build(sensor=_sensor_from_args(args), dma=dma,
                           irq_cycles=irq)
    records = []
    boot = run(machine, monitor, ctx, args.boot_cycles)
    records.extend(boot.records)

    msg = AuthorizationMessage.from_wire(Path(args.message).read_bytes())
    boot_end = machine.cycle
    records.extend(install(msg, machine, er, monitor))
    install_end = machine.cycle
    verdict_line = ""
    if not args.skip_verify:
        ok, vrecs = verify_dev(DEFAULT_KEY if args.key is None
                               else Path(args.key).read_bytes(),
                               machine, monitor)
        records.extend(vrecs)
        verdict_line += f"verify={'top' if ok else 'bottom'} "
    # Install and verify records service no DMA or IRQ: refuse, not drop.
    phases = (("install", boot_end, install_end), ("verify", install_end, machine.cycle))
    for cycle, what in sorted([(c, "DMA request") for c in ctx.dma_schedule]
                              + [(c, "IRQ") for c in ctx.irq_cycles]):
        for phase, start, end in phases:
            if start <= cycle < end:
                raise ValueError(f"{what} at cycle {cycle} falls in the {phase} "
                                 f"phase (cycles {start}-{end - 1}), which "
                                 "services no DMA or IRQ")
    trace, sensed = xsensing(machine, monitor, ctx, args.max_cycles)
    records.extend(trace.records)
    full = Trace(records=records, terminal=trace.terminal)
    if args.trace_out:
        Path(args.trace_out).write_text(full.dump(layout))
    verdict = "top" if sensed else "bottom"
    print(f"{verdict_line}xsensing={verdict}")
    expected = args.expect == verdict
    return EXIT_OK if expected else EXIT_VIOLATION


def cmd_check(args) -> int:
    space = scaled_space(args.width)
    guards = mutant_guards(args.mutate) if args.mutate else DEFAULT_GUARDS
    guards = guards.keyless() if args.no_ekr else guards
    entries = catalogue_by_name()
    if args.mutate:
        name, result = first_violation(space, guards)
        if name is None:
            print(f"mutant {args.mutate}: no catalogue formula violated")
            return EXIT_VIOLATION
        replayed = replay_counterexample(
            entries[name].formula, result.counterexample, space, guards)
        print(f"mutant {args.mutate}: violates {name} "
              f"(counterexample of {result.counterexample.length} steps, "
              f"replayed={'ok' if replayed else 'FAILED'})")
        if args.counterexample_out:
            _dump_lasso(args.counterexample_out, result.counterexample, space)
        return EXIT_OK if replayed else EXIT_VIOLATION

    if args.formula is not None or args.formula_file:
        if args.formula_file:
            formula = parse_formula(Path(args.formula_file).read_text())
            name = args.formula_file
        else:
            entry = entries.get(args.formula)
            if entry is not None and entry.needs_ekr and guards == guards.keyless():
                print(f"error: catalogue formula {args.formula!r} needs the key "
                      "region and is left out with --no-ekr", file=sys.stderr)
                return EXIT_USAGE
            formula = parse_formula(args.formula) if entry is None else entry.formula
            name = args.formula
        result = exhaustive_check(formula, space, guards, name=name)
        print(f"{name}: {result.verdict} "
              f"(explored {result.explored_states} states)")
        if result.counterexample and args.counterexample_out:
            _dump_lasso(args.counterexample_out, result.counterexample, space)
        return EXIT_OK if result.holds else EXIT_VIOLATION

    results = check_catalogue(space, guards)
    bad = 0
    for result in results:
        print(f"{result.formula_name:32} {result.verdict:9} "
              f"explored={result.explored_states}")
        bad += 0 if result.holds else 1
    return EXIT_OK if bad == 0 else EXIT_VIOLATION


def _dump_lasso(path: str, lasso, space) -> None:
    # Same tab-separated record format as simulator trace dumps, with the
    # loop boundary marked in the trailing comment line.
    records = [r._replace(cycle=i)
               for i, r in enumerate(list(lasso.prefix) + list(lasso.loop))]
    trace = Trace(records=records, terminal="lasso")
    dump = trace.dump(space)
    dump = dump.replace("#terminal=lasso",
                        f"#loop_start={len(lasso.prefix)}")
    Path(path).write_text(dump)


def cmd_attack(args) -> int:
    names = None if args.name is None else [args.name]
    # Opened before the first round, so a bad path wastes no campaign, and
    # emptied only after the last, so a failed campaign keeps an old report.
    with open(args.report, "a") if args.report else nullcontext() as report:
        results = run_campaign(names=names, random_count=args.random,
                               seed=args.seed, jobs=args.jobs)
        if report is not None:
            report.truncate(0)
            report.writelines(json.dumps(r, sort_keys=True) + "\n" for r in results)
    print(summary_table(results))
    wins = sum(1 for r in results if r["adversary_wins"])
    violations = sum(len(r["goal_violations"]) for r in results)
    return EXIT_OK if wins == 0 and violations == 0 else EXIT_VIOLATION


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are one line, ``mcusentry <cmd>: error:
    ...``, with no usage block (the mutant list alone wraps over several),
    and exit 2. ``add_subparsers`` builds every subcommand's parser as
    one too."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mcusentry",
        description="simulate, verify, and attack the sensing-authorization monitor")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("authorize", help="produce an authorization message")
    p.add_argument("--key", required=True, help="32-byte master key file")
    p.add_argument("--binary", required=True, help="binary to authorize")
    p.add_argument("--counter", required=True, help="controller counter file")
    p.add_argument("--out", required=True, help="output message file")
    p.set_defaults(fn=cmd_authorize)

    p = sub.add_parser("run", help="stage, verify, and execute a message")
    p.add_argument("--layout", help="layout config (or MCUSENTRY_LAYOUT)")
    p.add_argument("--image", help="flat memory image file")
    p.add_argument("--rom", help="trusted ROM image file")
    p.add_argument("--er", required=True, help="window as start:last_word (hex ok)")
    p.add_argument("--message", required=True, help="authorization message file")
    p.add_argument("--key", help="device master key file (demo default if omitted)")
    p.add_argument("--sensor-file", help="sensor word stream file")
    p.add_argument("--sensor-const", type=lambda s: int(s, 0), default=0)
    p.add_argument("--dma-file", help="lines: cycle op addr [value]")
    p.add_argument("--irq-file", help="lines: cycle")
    p.add_argument("--max-cycles", type=int, default=2000)
    p.add_argument("--boot-cycles", type=int, default=3)
    p.add_argument("--skip-verify", action="store_true")
    p.add_argument("--no-ekr", action="store_true")
    p.add_argument("--trace-out", help="write the trace dump here")
    p.add_argument("--expect", choices=["top", "bottom"], default="top")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("check", help="exhaustively verify monitor properties")
    what = p.add_mutually_exclusive_group()
    what.add_argument("--formula", help="catalogue name or formula text")
    what.add_argument("--formula-file", help="file holding formula text")
    what.add_argument("--mutate", choices=sorted(MUTANTS),
                      help="check a single-guard mutant instead")
    p.add_argument("--width", type=int, default=6, help="address width in bits")
    p.add_argument("--no-ekr", action="store_true")
    p.add_argument("--counterexample-out")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("attack", help="run the adversarial scenario game")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true", help="whole catalogue (default)")
    which.add_argument("--name", help="one catalogue scenario")
    p.add_argument("--random", type=int, default=0, metavar="N",
                   help="additional randomized scenarios")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--report", help="write a JSON-lines report here")
    p.set_defaults(fn=cmd_attack)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (McuSentryError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
