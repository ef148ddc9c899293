"""Command-line surface: file formats, verdicts, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mcusentry import cli
from mcusentry.checker import brute_force_check, scaled_space
from mcusentry.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main
from mcusentry.isa import HALT, LOAD, LOADI, STORE, assemble
from mcusentry.layout import default_layout, format_layout
from mcusentry.ltl import parse as parse_formula
from mcusentry.programs import boot_rom, window_for
from mcusentry.protocol import AuthorizationMessage, authorize_ctrl
from mcusentry.referee import DEFAULT_KEY

LAYOUT = default_layout()


def _write_binary(tmp, binary: bytes) -> None:
    """The binary to authorize, and an image holding it at 0x4000."""
    (tmp / "s.bin").write_bytes(binary)
    image = bytearray(0x4000 + len(binary))
    image[0x4000:0x4000 + len(binary)] = binary
    (tmp / "image.bin").write_bytes(bytes(image))


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "key.bin").write_bytes(DEFAULT_KEY)
    binary = assemble([LOAD(0, LAYOUT.gpio.start), HALT()])
    _write_binary(tmp_path, binary)
    (tmp_path / "layout.cfg").write_text(format_layout(LAYOUT))
    (tmp_path / "rom.bin").write_bytes(boot_rom(0xEFFE))
    return tmp_path, binary


def _authorize(tmp, out="msg.bin"):
    return main([
        "authorize", "--key", str(tmp / "key.bin"),
        "--binary", str(tmp / "s.bin"),
        "--counter", str(tmp / "counter.txt"),
        "--out", str(tmp / out)])


def test_authorize_writes_message_and_bumps_counter(workdir, capsys):
    tmp, binary = workdir
    assert _authorize(tmp) == EXIT_OK
    msg = AuthorizationMessage.from_wire((tmp / "msg.bin").read_bytes())
    assert msg.binary == binary and msg.chal == 1
    assert (tmp / "counter.txt").read_text().strip() == "1"
    assert _authorize(tmp, "msg2.bin") == EXIT_OK
    msg2 = AuthorizationMessage.from_wire((tmp / "msg2.bin").read_bytes())
    assert msg2.chal == 2 and msg2.token != msg.token


def test_authorize_rejects_corrupt_counter(workdir, capsys):
    tmp, _ = workdir
    (tmp / "counter.txt").write_text("not-a-number")
    assert _authorize(tmp) == EXIT_USAGE
    assert not (tmp / "msg.bin").exists()


def test_authorize_rejects_short_key(workdir):
    tmp, _ = workdir
    (tmp / "key.bin").write_bytes(b"short")
    assert _authorize(tmp) == EXIT_USAGE


def test_authorize_writes_no_message_when_the_counter_write_fails(workdir, capsys,
                                                                  monkeypatch):
    # A message whose challenge was not recorded would be issued again.
    tmp, _ = workdir
    write_text = Path.write_text

    def refuse_counter(path, *args, **kwargs):
        if path.name == "counter.txt":
            raise PermissionError(f"cannot write {path}")
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", refuse_counter)
    assert _authorize(tmp) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write")
    assert not (tmp / "msg.bin").exists()


def _run_args(tmp, er, extra=()):
    return ["run",
            "--layout", str(tmp / "layout.cfg"),
            "--image", str(tmp / "image.bin"),
            "--rom", str(tmp / "rom.bin"),
            "--er", f"0x{er.er_min:04x}:0x{er.er_max:04x}",
            "--message", str(tmp / "msg.bin"),
            "--key", str(tmp / "key.bin"),
            "--sensor-const", "0x1234",
            *extra]


def test_run_accepts_emitted_message(workdir, capsys):
    tmp, binary = workdir
    _authorize(tmp)
    er = window_for(binary, 0x4000)
    code = main(_run_args(tmp, er, ["--trace-out", str(tmp / "trace.tsv")]))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "verify=top" in out and "xsensing=top" in out
    dump1 = (tmp / "trace.tsv").read_text()
    assert "READ(GPIO)" in dump1
    main(_run_args(tmp, er, ["--trace-out", str(tmp / "trace2.tsv")]))
    assert (tmp / "trace2.tsv").read_text() == dump1  # bit-exact reruns


def test_run_skip_verify_denies_sensing(workdir, capsys):
    tmp, binary = workdir
    _authorize(tmp)
    er = window_for(binary, 0x4000)
    code = main(_run_args(tmp, er, ["--skip-verify"]))
    assert code == EXIT_VIOLATION
    assert "xsensing=bottom" in capsys.readouterr().out
    code = main(_run_args(tmp, er, ["--skip-verify", "--expect", "bottom"]))
    assert code == EXIT_OK


def test_run_tampered_message_rejected(workdir, capsys):
    tmp, binary = workdir
    _authorize(tmp)
    blob = bytearray((tmp / "msg.bin").read_bytes())
    blob[13] ^= 0x40  # inside the token
    (tmp / "msg.bin").write_bytes(bytes(blob))
    er = window_for(binary, 0x4000)
    code = main(_run_args(tmp, er, ["--expect", "bottom"]))
    out = capsys.readouterr().out
    assert "verify=bottom" in out and "xsensing=bottom" in out
    assert code == EXIT_OK


def test_run_no_ekr_drops_the_key_write_guard(workdir, capsys):
    # The window writes the key region before it senses: the key-write
    # guard resets the run, and a device without a key region has none.
    tmp, _ = workdir
    binary = assemble([LOADI(0, 0), STORE(0, LAYOUT.ekr.start),
                       LOAD(0, LAYOUT.gpio.start), HALT()])
    _write_binary(tmp, binary)
    _authorize(tmp)
    er = window_for(binary, 0x4000)
    assert main(_run_args(tmp, er)) == EXIT_VIOLATION
    assert "verify=top xsensing=bottom" in capsys.readouterr().out
    assert main(_run_args(tmp, er, ["--no-ekr"])) == EXIT_OK
    assert "verify=top xsensing=top" in capsys.readouterr().out


def test_check_no_ekr_drops_the_key_formulas(capsys):
    assert main(["check", "--no-ekr", "--width", "5"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 8 and all("holds" in row for row in rows)
    assert not any("ekr" in row for row in rows)


def test_check_no_ekr_key_mutant_violates_nothing(capsys):
    assert main(["check", "--no-ekr", "--width", "5",
                 "--mutate", "ekr-write-anywhere"]) == EXIT_VIOLATION
    assert "no catalogue formula violated" in capsys.readouterr().out


def test_check_no_ekr_names_a_left_out_key_formula(capsys):
    # A key formula's catalogue name is not read as formula text.
    assert main(["check", "--no-ekr", "--width", "5",
                 "--formula", "mon-ekr-read-in-er"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: catalogue formula 'mon-ekr-read-in-er' needs the key region "
        "and is left out with --no-ekr\n")


def test_check_single_formula(capsys):
    assert main(["check", "--formula", "mon-gpio-read-in-er",
                 "--width", "5"]) == EXIT_OK
    assert "holds" in capsys.readouterr().out


def test_check_formula_text(capsys):
    assert main(["check", "--formula", "(G true)", "--width", "5"]) == EXIT_OK


def test_check_nested_next_steps_agrees_with_bounded_search(capsys):
    # Two next steps deep under G: the walk's verdict is bounded search's.
    text = "(G (-> (read GPIO) (X (X reset))))"
    brute = brute_force_check(parse_formula(text), scaled_space(5), max_len=3)
    code = main(["check", "--formula", text, "--width", "5"])
    assert code == (EXIT_OK if brute.holds else EXIT_VIOLATION) == EXIT_VIOLATION
    assert "violated" in capsys.readouterr().out


def test_check_mutant_is_convicted(tmp_path, capsys):
    ce = tmp_path / "ce.tsv"
    assert main(["check", "--mutate", "irq-dma-ignored", "--width", "5",
                 "--counterexample-out", str(ce)]) == EXIT_OK
    assert "violates" in capsys.readouterr().out
    dump = ce.read_text()
    assert "#loop_start=" in dump and "\t" in dump


@pytest.mark.parametrize("args", [
    ["--mutate", "irq-dma-ignored", "--formula", "(G (! (read DMEM)))"],
    ["--formula", "(G true)", "--formula-file", "formula.txt"],
    ["--mutate", "irq-dma-ignored", "--formula-file", "formula.txt"]],
    ids=["mutate-and-formula", "formula-and-file", "mutate-and-file"])
def test_check_refuses_conflicting_targets(tmp_path, capsys, args):
    # One target per check: no option may silently win over another.
    (tmp_path / "formula.txt").write_text("(G true)")
    args = [str(tmp_path / a) if a == "formula.txt" else a for a in args]
    assert main(["check", "--width", "5"] + args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err.splitlines()[-1]


@pytest.mark.parametrize("argv, words", [
    (["check", "--width", "5", "--mutate", "nope"], "invalid choice: 'nope'"),
    (["check", "--mutate", "irq-dma-ignored", "--formula", "x"],
     "argument --formula: not allowed with argument --mutate"),
    (["run", "--message", "msg.bin"], "the following arguments are required: --er")],
    ids=["unknown-mutant", "conflicting-targets", "missing-required"])
def test_argument_errors_are_one_line(capsys, argv, words):
    # No usage block: the error alone, named by its subcommand, exit 2.
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"mcusentry {argv[0]}: error: ") and words in line


def test_check_usage_error_on_bad_formula(capsys):
    assert main(["check", "--formula", "(G (-> p", "--width", "5"]) == EXIT_USAGE


def test_check_unknown_proposition_is_named(capsys):
    assert main(["check", "--formula", "(G x)", "--width", "5"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: unknown proposition 'x'\n"


def test_check_names_a_parenthesis_where_a_name_belongs(capsys):
    assert main(["check", "--formula", "(G ((read GPIO))", "--width", "5"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: unexpected '(' (at offset 4)\n"


def test_check_dmem_read_is_violated(capsys):
    assert main(["check", "--width", "6", "--formula",
                 "(G (! (cpu_read DMEM)))"]) == EXIT_VIOLATION
    assert "violated" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["tag READ GPIO", "tag DMA_W DMEM", "exec_in ER"])
def test_check_refuses_machine_derived_propositions(capsys, name):
    # The tag encoding and ``exec_in ER`` are gone: such a name is an
    # unknown proposition.
    assert main(["check", "--width", "6", "--formula",
                 f"(G (-> (read GPIO) (! ({name}))))"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown proposition {name!r}\n"


def test_check_refuses_a_formula_outside_the_fragments(capsys):
    # The before-operator goal is checked on traces: no bounded search may
    # stand in for a verdict, and refusing takes no alphabet.
    start = time.perf_counter()
    assert main(["check", "--width", "5", "--formula",
                 "e2e-authorized-sensing"]) == EXIT_USAGE
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error:")
    assert "checked on traces" in err[0]


def test_python_dash_m_runs_the_cli_without_an_install():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "mcusentry", "check", "--formula",
         "e2e-authorized-sensing"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == EXIT_USAGE
    err = done.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_check_whole_catalogue_at_width_8(capsys):
    assert main(["check", "--width", "8"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "violated" not in out and out.count("holds") == 12


def test_check_width_beyond_the_address_space_is_a_usage_error(capsys):
    assert main(["check", "--width", "40"]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "40" in err[0]


def test_check_empty_formula_is_a_usage_error(capsys):
    assert main(["check", "--formula", "", "--width", "5"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("line", ["0x10 read", "5", "1 read 0x10 0 extra"])
def test_run_short_dma_line_is_a_usage_error(workdir, capsys, line):
    tmp, binary = workdir
    _authorize(tmp)
    (tmp / "dma.txt").write_text(f"# schedule\n{line}\n")
    er = window_for(binary, 0x4000)
    code = main(_run_args(tmp, er, ["--dma-file", str(tmp / "dma.txt")]))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: DMA file line 2:") and err.count("\n") == 1


@pytest.mark.parametrize("flag, line, words", [
    ("--dma-file", "5 read 0x10000", ["DMA request", "addr=65536"]),
    ("--irq-file", "-5", ["IRQ cycle", "-5"]),
], ids=["dma-address-past-the-space", "negative-irq-cycle"])
def test_run_out_of_range_schedule_is_a_usage_error(workdir, capsys, flag, line, words):
    # Without the range checks the address aliases to 0 and the interrupt
    # never fires, and the run goes on to a verdict.
    tmp, binary = workdir
    _authorize(tmp)
    capsys.readouterr()
    (tmp / "schedule.txt").write_text(f"{line}\n")
    er = window_for(binary, 0x4000)
    code = main(_run_args(tmp, er, [flag, str(tmp / "schedule.txt")]))
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == EXIT_USAGE and captured.out == ""
    assert len(err) == 1 and err[0].startswith("error:")
    assert all(word in err[0] for word in words), err[0]


@pytest.mark.parametrize("flag, kind, line", [
    ("--irq-file", "IRQ", "5 6"),
    ("--irq-file", "IRQ", "zz"),
    ("--irq-file", "IRQ", "-5"),
    ("--dma-file", "DMA", "0x10 read zz"),
    ("--dma-file", "DMA", "0x10 peek 0x20"),
    ("--dma-file", "DMA", "5 read 0x10000"),
    ("--dma-file", "DMA", "-1 write 0x20 0x1"),
    ("--dma-file", "DMA", "0xC8 write 0x20 0x1"),
], ids=["irq-two-fields", "irq-not-a-number", "irq-negative", "dma-bad-address",
        "dma-bad-op", "dma-address-past-the-space", "dma-negative-cycle",
        "dma-second-request-at-a-cycle"])
def test_run_rejected_schedule_line_names_its_file_and_line(workdir, capsys, flag,
                                                            kind, line):
    tmp, binary = workdir
    _authorize(tmp)
    capsys.readouterr()
    valid = "200" if kind == "IRQ" else "200 read 0xF000"
    (tmp / "schedule.txt").write_text(f"# schedule\n{valid}\n{line}  # bad\n")
    er = window_for(binary, 0x4000)
    code = main(_run_args(tmp, er, [flag, str(tmp / "schedule.txt")]))
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == EXIT_USAGE and captured.out == ""
    assert len(err) == 1 and err[0].startswith(f"error: {kind} file line 3: "), err


def test_run_refuses_schedule_entries_in_install_or_verify(workdir, capsys):
    # With 3 boot cycles, install starts at cycle 3 and spans cycle 5; its
    # and verify's records service no DMA or IRQ, so these would be lost.
    tmp, binary = workdir
    _authorize(tmp)
    capsys.readouterr()
    (tmp / "dma.txt").write_text("3 read 0xF000\n40 write 0x4000 0x1111\n")
    (tmp / "irq.txt").write_text("5\n")
    er = window_for(binary, 0x4000)
    code = main(_run_args(tmp, er, [
        "--dma-file", str(tmp / "dma.txt"), "--irq-file", str(tmp / "irq.txt"),
        "--trace-out", str(tmp / "trace.tsv")]))
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == EXIT_USAGE and captured.out == ""
    assert len(err) == 1 and err[0].startswith("error: DMA request at cycle 3 ")
    assert "install phase" in err[0]
    assert not (tmp / "trace.tsv").exists()


@pytest.mark.parametrize("args", [["--boot-cycles", "0"], ["--boot-cycles", "-3"],
                                  ["--max-cycles", "0"], ["--max-cycles", "-1"]],
                         ids=["zero-boot", "negative-boot", "zero-max",
                              "negative-max"])
def test_run_rejects_cycle_counts_below_one(workdir, capsys, args):
    # The error names the flag that was given, before any staging work.
    tmp, binary = workdir
    _authorize(tmp)
    capsys.readouterr()
    code = main(_run_args(tmp, window_for(binary, 0x4000), args))
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == EXIT_USAGE and captured.out == ""
    assert len(err) == 1 and err[0] == f"error: {args[0]} must be positive, got {args[1]}"


def test_run_refuses_a_layout_key_given_twice(workdir, capsys):
    tmp, binary = workdir
    _authorize(tmp)
    capsys.readouterr()
    text = format_layout(LAYOUT) + "gpio=0xF040:0xF07F\n"
    (tmp / "layout.cfg").write_text(text)
    code = main(_run_args(tmp, window_for(binary, 0x4000)))
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == EXIT_USAGE and captured.out == ""
    assert len(err) == 1 and err[0] == (f"error: line {len(text.splitlines())}: "
                                        "gpio already set on line 4")


def test_run_refuses_a_region_starting_on_an_odd_address(workdir, capsys):
    tmp, binary = workdir
    _authorize(tmp)
    capsys.readouterr()
    (tmp / "layout.cfg").write_text(format_layout(LAYOUT).replace(
        "gpio=0xF000:0xF03F", "gpio=0xF001:0xF03F"))
    code = main(_run_args(tmp, window_for(binary, 0x4000)))
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == EXIT_USAGE and captured.out == ""
    assert err == ["error: gpio must start on an even address and end on an odd one"]


def test_run_refuses_an_irq_vector_outside_the_address_space(workdir, capsys):
    tmp, binary = workdir
    _authorize(tmp)
    capsys.readouterr()
    (tmp / "layout.cfg").write_text(format_layout(LAYOUT) + "irq_vector=0x10000\n")
    code = main(_run_args(tmp, window_for(binary, 0x4000)))
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == EXIT_USAGE and captured.out == ""
    assert err == ["error: irq_vector 0x10000 lies outside 0x0000..0xFFFE"]


@pytest.mark.parametrize("window", ["0x4000", ":0x4004", "0x4000:0x4004:2"])
def test_run_malformed_window_is_a_usage_error(workdir, capsys, window):
    tmp, binary = workdir
    _authorize(tmp)
    capsys.readouterr()
    args = _run_args(tmp, window_for(binary, 0x4000))
    args[args.index("--er") + 1] = window
    code = main(args)
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == EXIT_USAGE and captured.out == ""
    assert len(err) == 1 and "--er" in err[0] and "START:LAST_WORD" in err[0]


_TOKENS = st.sampled_from(["0x10", "0xF000", "5", "-2", "read", "write", "x",
                           "#", "(", ")", "G", "->", ":", "=", "rom=0:0xFFF",
                           "\n"])
_FUZZ = st.one_of(st.text(max_size=40), st.lists(_TOKENS, max_size=10).map(" ".join))
_FUZZ_BINARY = assemble([LOAD(0, LAYOUT.gpio.start), HALT()])


def _blob(valid: bytes):
    """The valid file half the time, so later files still get parsed;
    otherwise arbitrary bytes, or the valid file cut short or extended."""
    return st.one_of(st.just(valid), st.one_of(
        st.binary(max_size=64),
        st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
        st.binary(min_size=1, max_size=4).map(lambda tail: valid + tail)))


@settings(max_examples=60, deadline=None)
@given(dma=_FUZZ, irq=_FUZZ, formula=_FUZZ,
       layout=st.one_of(st.just(format_layout(LAYOUT)), _FUZZ),
       key=_blob(DEFAULT_KEY),
       image=_blob(bytes(0x4000) + _FUZZ_BINARY),
       rom=_blob(boot_rom(0xEFFE)),
       message=_blob(authorize_ctrl(DEFAULT_KEY, 0, _FUZZ_BINARY)[0].to_wire()))
def test_malformed_input_files_never_escape(tmp_path_factory, dma, irq,
                                            formula, layout, key, image, rom,
                                            message):
    tmp = tmp_path_factory.mktemp("fuzz")
    files = {"key.bin": key, "image.bin": image, "rom.bin": rom,
             "msg.bin": message}
    for name, data in files.items():
        (tmp / name).write_bytes(data)
    texts = {"dma.txt": dma, "irq.txt": irq, "layout.cfg": layout,
             "formula.txt": formula}
    for name, text in texts.items():
        (tmp / name).write_text(text, encoding="utf-8")
    er = window_for(_FUZZ_BINARY, 0x4000)
    run_code = main(_run_args(tmp, er, [
        "--dma-file", str(tmp / "dma.txt"), "--irq-file", str(tmp / "irq.txt"),
        "--max-cycles", "20"]))
    check_code = main(["check", "--formula-file", str(tmp / "formula.txt"),
                       "--width", "5"])
    assert run_code in (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE)
    assert check_code in (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE)


def test_attack_single_scenario(capsys):
    assert main(["attack", "--name", "happy-path"]) == EXIT_OK
    assert "0 adversary wins" in capsys.readouterr().out


def test_attack_report_file(tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    code = main(["attack", "--name", "irq-mid-er", "--random", "5",
                 "--seed", "3", "--report", str(report)])
    assert code == EXIT_OK
    lines = [json.loads(line) for line in report.read_text().splitlines()]
    assert len(lines) == 6
    assert all(not entry["adversary_wins"] for entry in lines)


def test_attack_unwritable_report_fails_before_the_first_round(tmp_path, capsys,
                                                              monkeypatch):
    def no_rounds(**kwargs):
        pytest.fail("the campaign ran before the report was opened")

    monkeypatch.setattr(cli, "run_campaign", no_rounds)
    report = tmp_path / "missing-dir" / "report.jsonl"
    assert main(["attack", "--name", "happy-path", "--report", str(report)]) == EXIT_USAGE
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error:")


def test_attack_usage_error_keeps_an_existing_report(tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    report.write_text("{}\n")
    assert main(["attack", "--name", "nope", "--report", str(report)]) == EXIT_USAGE
    assert report.read_text() == "{}\n"


def test_attack_deterministic_digests(tmp_path):
    reports = []
    for i in range(2):
        path = tmp_path / f"r{i}.jsonl"
        main(["attack", "--name", "dma-gpio-snoop", "--seed", "9",
              "--random", "3", "--report", str(path)])
        reports.append(path.read_text())
    assert reports[0] == reports[1]


def test_attack_refuses_all_together_with_one_name(capsys):
    assert main(["attack", "--all", "--name", "happy-path"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err.splitlines()[-1]


def test_attack_unknown_scenario_is_a_usage_error(capsys):
    assert main(["attack", "--name", "nope"]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown scenario 'nope'")
    assert "happy-path" in err[0]


@pytest.mark.parametrize("args", [["--random", "-5"], ["--jobs", "0"],
                                  ["--jobs", "-1", "--random", "2"]],
                         ids=["negative-random", "zero-jobs", "negative-jobs"])
def test_attack_rejects_out_of_range_counts(capsys, args):
    assert main(["attack", "--name", "happy-path"] + args) == EXIT_USAGE
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error:") and args[1] in err[0]
