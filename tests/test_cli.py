"""Command-line behavior: outputs, exit codes, machine records."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import floercone
import floercone.cli as cli
from floercone.cli import build_parser, main
from floercone.cone import cone_homology_hat
from floercone.fixtures import TREFOIL
from floercone.io_format import DocumentEntry, InputDocument, parse, serialize

from corpus import tensor

DATA = Path(floercone.__file__).parent / "data"
UNKNOT_F = str(DATA / "unknot.cfk")
TREFOIL_F = str(DATA / "trefoil.cfk")
Y1SIGMA_F = str(DATA / "y1sigma.cfk")
FIGURE8_F = str(DATA / "figure8.cfk")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_records(out: str):
    return [json.loads(line) for line in out.splitlines() if line]


# ---------------------------------------------------------------------------
# check


def test_check_ok(capsys):
    code, out, err = run(capsys, "check", TREFOIL_F)
    assert code == 0 and err == ""
    assert "TREFOIL" in out and "OK" in out


def test_check_machine(capsys):
    code, out, _ = run(capsys, "check", "--machine", TREFOIL_F)
    assert code == 0
    (rec,) = machine_records(out)
    assert rec["name"] == "TREFOIL" and rec["generators"] == 3
    assert rec["valid"] is True and rec["flip"] is True


def test_check_missing_file(capsys):
    code, out, err = run(capsys, "check", str(DATA / "nope.cfk"))
    assert code == 2 and "error:" in err


def test_check_invalid_content(tmp_path, capsys):
    bad = tmp_path / "bad.cfk"
    bad.write_text("complex K spinc=0\ngen a A=0 M=0\ngen b A=0 M=0\nd b : U^0 a\nend\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2 and "invalid" in err


@pytest.mark.parametrize("line", ["flip a : U^0 zz", "flip zz : U^0 a"])
def test_check_flip_naming_an_undeclared_generator_exit_2(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfk"
    bad.write_text(f"complex K spinc=0\ngen a A=0 M=0\n{line}\nend\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2 and out == ""
    assert "[unknown-generator]" in err and "no generator named 'zz'" in err


N = 10 ** 12  # a U^N mask would take 125 GB


@pytest.mark.parametrize("body, kind", [
    (f"gen a A=0 M=0\ngen b A=0 M=0\nd a : U^{N} b", "maslov-drop"),
    (f"gen a A=0 M=0\nflip a : U^{N} a", "flip-term"),
    (f"gen a A=0 M=0\ngen b A=0 M=0\nflip a : U^-{N} a\nflip b : U^0 b", "flip-term"),
    (f"gen a A=0 M={2 * N}\nd a : U^0 zz", "unknown-generator"),
    (f"gen a A=0 M=0\ngen b A=0 M=1/2\nd a : U^{N} b", "maslov-offset"),
])
def test_check_ungraded_large_u_power_exit_2(tmp_path, capsys, body, kind):
    bad = tmp_path / "bad.cfk"
    bad.write_text(f"complex K spinc=0\n{body}\nend\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2 and out == "" and f"[{kind}]" in err


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfk"
    bad.write_text("complex K spinc=0\ngen a A=oops M=0\nend\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2 and "line 2" in err


def test_zero_maslov_denominator_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfk"
    bad.write_text("complex K spinc=0\ngen a A=0 M=0\ngen b A=0 M=1/0\nend\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2 and out == ""
    assert err == "error: line 3: expected: gen <name> A=<int> M=<int or p/q, q > 0>\n"


# ---------------------------------------------------------------------------
# cone


def test_cone_range_table(capsys):
    code, out, _ = run(capsys, "cone", TREFOIL_F, "--s", "-2..2")
    assert code == 0
    totals = [line.split()[1] for line in out.splitlines()[2:]]
    assert totals == ["0", "0", "2", "0", "0"]


def test_cone_machine_matches_library(capsys):
    code, out, _ = run(capsys, "cone", "--machine", TREFOIL_F, "--s", "0")
    assert code == 0
    (rec,) = machine_records(out)
    res = cone_homology_hat(TREFOIL, 0)
    assert rec["total_dim"] == res.total_dim
    assert rec["rank_v_plus_h"] == res.rank_v_plus_h
    assert rec["graded_dims"] == [["-2", 1], ["-1", 1]]
    assert rec["flavor"] == "hat" and rec["twisted"] is False


def test_cone_plus_machine(capsys):
    code, out, _ = run(capsys, "cone", "--machine", UNKNOT_F,
                       "--flavor", "plus", "--truncation", "4")
    assert code == 0
    (rec,) = machine_records(out)
    assert rec["truncation"] == 4 and rec["total_dim"] == 10
    assert rec["graded_dims"] == [["-1", 1], ["0", 1]]


def test_cone_twisted_table(capsys):
    code, out, _ = run(capsys, "cone", TREFOIL_F, "--s", "0", "--twisted")
    assert code == 0
    assert out.splitlines()[2].split() == ["0", "2", "2", "-"]


def test_cone_twisted_machine(capsys):
    code, out, _ = run(capsys, "cone", "--machine", UNKNOT_F, "--s", "0", "--twisted")
    (rec,) = machine_records(out)
    assert rec["novikov_dim"] == 0
    assert rec["laurent_free_rank"] == 0
    assert rec["torsion_factors"] == ["1 + T"]


def test_cone_flag_conflicts(capsys):
    code, _, err = run(capsys, "cone", TREFOIL_F, "--twisted", "--flavor", "plus")
    assert code == 2 and "twisted" in err
    code, _, err = run(capsys, "cone", TREFOIL_F, "--truncation", "3")
    assert code == 2 and "truncation" in err


def test_cone_bad_s_range():
    with pytest.raises(SystemExit) as exc:
        main(["cone", TREFOIL_F, "--s", "2..0"])
    assert exc.value.code == 2


def test_cone_bad_truncation():
    with pytest.raises(SystemExit) as exc:
        main(["cone", TREFOIL_F, "--flavor", "plus", "--truncation", "-3"])
    assert exc.value.code == 2


def test_an_explicit_truncation_costs_no_memory_linear_in_it():
    """--truncation 10^8 runs under a 1 GiB address-space cap: no step
    enumerates the N + 1 gradings of a tower."""
    resource = pytest.importorskip("resource")
    n = 10 ** 8

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(DATA.parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "floercone.cli", "cone", FIGURE8_F, "--flavor", "plus",
         "--truncation", str(n), "--s", "-1..1", "--machine"],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=60)
    assert proc.returncode == 0, proc.stderr
    fields = ("s", "truncation", "total_dim", "rank_v", "rank_h", "rank_v_plus_h", "graded_dims")
    assert [tuple(r[f] for f in fields) for r in machine_records(proc.stdout)] == [
        (-1, n, 0, n, n + 1, n + 1, None),
        (0, n, 2 * n + 4, n + 1, n + 1, 0, [["-1", 2], ["0", 1]]),
        (1, n, 0, n + 1, n, n + 1, None),
    ]


def library_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(DATA.parents[1]), env.get("PYTHONPATH")]))
    return env


def peak_rss(*argv) -> int:
    """The peak resident set of a fresh process running `floercone argv`, as
    that process reports it (kilobytes on Linux, bytes on macOS)."""
    code = ("import resource, sys\n"
            "from floercone.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(status)\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=library_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.split()[-1])


def test_an_explicit_truncation_peaks_no_higher_than_a_small_one():
    """No P-bit mask is built at P = N + 1: --truncation 10^8 peaks within
    20 % of --truncation 1000 (one int of 10^8 bits is 12.5 MB)."""
    pytest.importorskip("resource")
    small, big = (peak_rss("cone", FIGURE8_F, "--flavor", "plus", "--truncation", str(n),
                           "--s", "-1..1", "--machine") for n in (1000, 10 ** 8))
    assert big <= 1.2 * small, (small, big)


HUGE_U_POWER = ("complex K spinc=0\ngen a A=0 M=0\ngen b A=0 M=1999999999999\n"
                "d a : U^1000000000000 b\nflip a : U^0 a\nflip b : U^0 b\nend\n")


def run_capped(argv, path, python_flags=()):
    """The CLI in a child process under a 1 GiB address-space cap."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, *python_flags, "-m", "floercone.cli", *argv, str(path)],
                          capture_output=True, text=True, env=library_env(),
                          preexec_fn=cap, timeout=60)


def test_hat_commands_answer_on_a_valid_huge_u_power(tmp_path):
    """d a : U^(10^12) b is graded, and the hat complexes are built modulo U,
    so no 10^12-bit power is written out: every hat command, and every
    twisted one, which reads the hat cone off s = 0, answers under a 1 GiB
    address-space cap."""
    path = tmp_path / "huge.cfk"
    path.write_text(HUGE_U_POWER)
    for argv, shows in ((["genus"], "genus 0"), (["cone", "--s", "0"], "flavor hat"),
                        (["prop0check"], "Fires"),
                        (["cone", "--twisted", "--s", "-1..1"],
                         "1 + T; 1 + T\n    1        0          0  -"),
                        (["detect-sphere"], "DoesNotFire")):
        proc = run_capped(argv, path)
        assert proc.returncode == 0 and shows in proc.stdout, (argv, proc.stderr)


def test_plus_commands_reading_U0_alone_answer_on_a_valid_huge_u_power(tmp_path):
    """Height 0, and auto mode past a_bound, read only U^0: their answer is
    the hat cone's, built modulo U, and comes under the cap."""
    path = tmp_path / "huge.cfk"
    path.write_text(HUGE_U_POWER)
    for argv in (["cone", "--flavor", "plus", "--truncation", "0", "--s", "0"],
                 ["cone", "--flavor", "plus", "--s", "1"]):
        proc = run_capped(argv, path)
        assert proc.returncode == 0 and "flavor plus" in proc.stdout, (argv, proc.stderr)


@pytest.mark.parametrize("python_flags", [(), ("-O",)], ids=["python", "python_O"])
def test_plus_cone_refuses_a_huge_u_power_it_must_write_out(tmp_path, python_flags):
    """The trefoil summed with d a = U^(10^12) b: at s = 1 its cone of v + h
    is not graded and holds U^(10^12), which auto mode and --truncation
    10^12 would write out as a 10^12-bit mask.  Both exit 2 with a named
    error that gives the power, also under python -O; --truncation 2 drops
    that power and answers.  All under the 1 GiB cap."""
    path = tmp_path / "huge_sum.cfk"
    k = parse(HUGE_U_POWER).entries[0].complex
    path.write_text(serialize(InputDocument((DocumentEntry("TK", tensor(TREFOIL, k)),))))
    for flags in ((), ("--truncation", str(10 ** 12))):
        proc = run_capped(["cone", "--flavor", "plus", *flags, "--s", "1"], path, python_flags)
        assert proc.returncode == 2, (flags, proc.stderr)
        assert proc.stderr == "error: the cone of v + h needs U^1000000000000 written out, " \
                              "past U^1000000\n", (flags, proc.stderr)
    proc = run_capped(["cone", "--flavor", "plus", "--truncation", "2", "--s", "1", "--machine"],
                      path, python_flags)
    assert proc.returncode == 0 and json.loads(proc.stdout)["total_dim"] == 0, proc.stderr


def test_plus_cone_at_s_0_answers_on_a_valid_huge_u_power(tmp_path):
    """Auto mode at s = 0 reads the exact pivot U^(10^12) of each summand of
    the cone off the gradings, with no power written out, and reports the
    height 10^12 - 1 at which both blocks are whole."""
    path = tmp_path / "huge.cfk"
    path.write_text(HUGE_U_POWER)
    proc = run_capped(["cone", "--flavor", "plus", "--s", "0", "--machine"], path)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout)
    assert (rec["truncation"], rec["total_dim"], rec["rank_v"]) == (
        10 ** 12 - 1, 4 * 10 ** 12, 2 * 10 ** 12)


def test_red_refuses_a_huge_reduced_homology(tmp_path):
    """HF_red of d a = U^(10^12) b is one block F2[U]/U^(10^12), which no
    list of graded dimensions can hold: red exits 2 with a named error
    before it lists any, and does not hang."""
    path = tmp_path / "huge.cfk"
    path.write_text(HUGE_U_POWER)
    proc = run_capped(["red"], path)
    assert proc.returncode == 2 and "dimension 1000000000000" in proc.stderr, proc.stderr


# ---------------------------------------------------------------------------
# detectors and reports


def test_genus(capsys):
    code, out, _ = run(capsys, "genus", FIGURE8_F)
    assert code == 0 and out == "genus 1\n"


def test_genus_multiple_files(capsys):
    code, out, _ = run(capsys, "genus", UNKNOT_F, TREFOIL_F)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith("genus 0") and lines[1].endswith("genus 1")


def test_alex(capsys):
    code, out, _ = run(capsys, "alex", TREFOIL_F)
    assert code == 0
    assert "T^-1 + 1 + T" in out and "nontrivial" in out


def test_alex_machine(capsys):
    _, out, _ = run(capsys, "alex", "--machine", UNKNOT_F)
    (rec,) = machine_records(out)
    assert rec["polynomial"] == "1" and rec["trivial_mod_2"] is True


def test_detect_sphere_unknot(capsys):
    code, out, _ = run(capsys, "detect-sphere", UNKNOT_F)
    assert code == 0
    assert out.startswith("DoesNotFire")


def test_detect_sphere_trefoil_machine(capsys):
    code, out, _ = run(capsys, "detect-sphere", "--machine", TREFOIL_F)
    assert code == 0
    (rec,) = machine_records(out)
    assert rec["kind"] == "Fires"
    assert rec["witness"]["s"] == 0 and rec["witness"]["novikov_dim"] == 2


def test_prop0check_trefoil(capsys):
    code, out, _ = run(capsys, "prop0check", TREFOIL_F)
    assert code == 0
    assert out.startswith("DoesNotFire") and "clause=b" in out


def test_red(capsys):
    code, out, _ = run(capsys, "red", Y1SIGMA_F)
    assert code == 0 and out == "Y1SIGMA (spinc 0): -1:1\n"


def test_red_empty(capsys):
    code, out, _ = run(capsys, "red", TREFOIL_F)
    assert code == 0 and "(empty)" in out


def test_red_machine(capsys):
    _, out, _ = run(capsys, "red", "--machine", Y1SIGMA_F)
    (rec,) = machine_records(out)
    assert rec["reduced"] == [["-1", 1]]


# ---------------------------------------------------------------------------
# verdict and red1


def test_verdict_unknotted(capsys):
    code, out, _ = run(capsys, "verdict", "--dim-y", "1", "--dim-n", "1")
    assert code == 0
    assert "unknotted" in out


def test_verdict_inconclusive(capsys):
    code, out, _ = run(capsys, "verdict", "--dim-y", "5", "--dim-n", "3")
    assert code == 0 and "Inconclusive" in out


def test_verdict_impossible_exit_1(capsys):
    code, out, _ = run(capsys, "verdict", "--dim-y", "3", "--dim-n", "5")
    assert code == 1
    assert "no such surgery" in out


def test_verdict_bad_dims_exit_2(capsys):
    code, _, err = run(capsys, "verdict", "--dim-y", "0", "--dim-n", "1")
    assert code == 2 and "error:" in err


def test_red1_explicit(capsys):
    code, out, _ = run(capsys, "red1", "--red", "-1:1", "--homology-sphere")
    assert code == 0 and out.startswith("Fires")


def test_red1_requires_certificate(capsys):
    code, _, err = run(capsys, "red1", "--red", "-1:1")
    assert code == 2 and "homology sphere" in err


def test_red1_from_file(capsys):
    code, out, _ = run(capsys, "red1", "--from-file", Y1SIGMA_F, "--homology-sphere")
    assert code == 0 and out.startswith("Fires") and "grading=-1" in out


def test_red1_machine(capsys):
    code, out, _ = run(capsys, "red1", "--machine", "--red", "0:2,2:1",
                       "--homology-sphere")
    (rec,) = machine_records(out)
    assert rec["kind"] == "Fires" and rec["witness"]["grading"] == "2"
    assert rec["reduced"] == [["0", 2], ["2", 1]]


def test_red1_flags_mutually_exclusive():
    with pytest.raises(SystemExit) as exc:
        main(["red1", "--red", "0:1", "--from-file", Y1SIGMA_F])
    assert exc.value.code == 2


def test_red1_bad_red_argument():
    with pytest.raises(SystemExit) as exc:
        main(["red1", "--red", "nonsense", "--homology-sphere"])
    assert exc.value.code == 2


def test_red1_negative_count_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["red1", "--red", "1:-3", "--homology-sphere"])
    assert exc.value.code == 2
    assert "bad reduced-homology entry '1:-3'" in capsys.readouterr().err


def test_red1_repeated_grading_exit_2(capsys):
    """1 and 2/2 are one grading: a second count for it is refused, not kept."""
    with pytest.raises(SystemExit) as exc:
        main(["red1", "--red", "1:1,2/2:2", "--homology-sphere"])
    assert exc.value.code == 2
    assert "bad reduced-homology entry '2/2:2'" in capsys.readouterr().err


def test_red1_zero_denominator_grading_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["red1", "--red", "1/0:1", "--homology-sphere"])
    assert exc.value.code == 2
    assert "bad reduced-homology entry '1/0:1'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism and entry point


def test_output_deterministic(capsys):
    _, first, _ = run(capsys, "cone", TREFOIL_F, "--s", "-2..2", "--machine")
    _, second, _ = run(capsys, "cone", TREFOIL_F, "--s", "-2..2", "--machine")
    assert first == second


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert build_parser() is build_parser()
    run(capsys, "cone", TREFOIL_F, "--flavor", "plus", "--truncation", "2", "--s", "1", "--machine")
    _, out, _ = run(capsys, "cone", TREFOIL_F, "--machine")
    (rec,) = machine_records(out)
    assert (rec["flavor"], rec["s"], rec["truncation"]) == ("hat", 0, None)


def test_a_rebound_command_function_is_called_after_the_parser_is_built(capsys, monkeypatch):
    run(capsys, "check", TREFOIL_F)
    calls = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: calls.append(args.files) or 0)
    assert run(capsys, "check", TREFOIL_F) == (0, "", "")
    assert calls == [[TREFOIL_F]]


# Each argv through main, which hands a command's words straight to that
# command's parser, and through the program's parser alone: the same
# namespace, or the same exit code, help and error text.
COMMANDS = tuple(name[4:].replace("_", "-") for name in vars(cli) if name.startswith("cmd_"))
DISPATCH_ARGVS = [
    [], ["-h"], ["--help"], ["nope", TREFOIL_F], ["nope", "-h"], ["--machine", "check", TREFOIL_F],
    ["--", "check", TREFOIL_F], ["check", "--", TREFOIL_F], ["check", TREFOIL_F, "--", "--machine"],
    ["check"], ["check", TREFOIL_F], ["check", "--machine", TREFOIL_F, UNKNOT_F], ["check", TREFOIL_F, "-x"],
    *([name, "-h"] for name in COMMANDS),
    *([name, TREFOIL_F, "--bogus"] for name in COMMANDS),
    ["cone", "--he"], ["cone", TREFOIL_F, "--fl", "plus"], ["cone", TREFOIL_F, "--flavor", "plus", "--tr", "3"],
    ["cone", TREFOIL_F, "--s=-2..2"], ["cone", TREFOIL_F, "--s", "-2..2"], ["cone", TREFOIL_F, "--s", "3..1"],
    ["cone", TREFOIL_F, "--s"], ["cone", TREFOIL_F, "--s", "--machine"], ["cone", TREFOIL_F, "--s", "1", "--s", "2"],
    ["cone", TREFOIL_F, "-2..2"], ["cone", "--machine", TREFOIL_F, "--twisted", "--s", "-2"],
    ["cone", TREFOIL_F, "--flavor", "spicy"], ["cone", TREFOIL_F, "--truncation", "-1"],
    ["red1", "--red", "0:1", "--from-file", TREFOIL_F, "--homology-sphere"], ["red1"],
    ["red1", "--red", "-1:1,0:2", "--homology-sphere", "--machine"], ["red1", "--red", "x"],
    ["verdict", "--dim-y", "x", "--dim-n", "1"], ["verdict", "--dim-y", "2", "--dim-n", "1", "--machine"],
    ["verdict", "--dim-y", "2"], ["detect-sphere", TREFOIL_F, Y1SIGMA_F, "--machine"],
]


def outcome(capsys, call):
    """vars of the namespace call returns, or its SystemExit code, and what it printed."""
    try:
        result = vars(call())
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", DISPATCH_ARGVS,
                         ids=lambda argv: " ".join(Path(word).name for word in argv) or "no_arguments")
def test_main_parses_as_the_program_parser_does(argv, capsys, monkeypatch):
    seen = []
    for name in COMMANDS:
        monkeypatch.setattr(cli, "cmd_" + name.replace("-", "_"), lambda args: seen.append(args) or 0)
    got = outcome(capsys, lambda: main(list(argv)) == 0 and seen[-1])
    assert got == outcome(capsys, lambda: build_parser().parse_args(argv))


def test_main_reads_sys_argv_as_the_program_parser_does(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_cone", lambda args: seen.append(args) or 0)
    for argv in (["cone", TREFOIL_F, "--s", "-1..1"], ["cone", TREFOIL_F, "--bogus"], []):
        monkeypatch.setattr(sys, "argv", ["floercone", *argv])
        got = outcome(capsys, lambda: main() == 0 and seen[-1])
        assert got == outcome(capsys, lambda: build_parser().parse_args()), argv


@pytest.mark.parametrize("argv", [[], ["--help"]], ids=["no_arguments", "help"])
def test_module_entry_point_prints_the_program_parser_text(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the same help width in both processes
    proc = subprocess.run([sys.executable, "-m", "floercone.cli", *argv], capture_output=True,
                          text=True, env=library_env(), timeout=60)
    result, out, err = outcome(capsys, lambda: build_parser().parse_args(argv))
    assert (("exit", proc.returncode), proc.stdout, proc.stderr) == (result, out, err)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "floercone.cli", "detect-sphere", UNKNOT_F],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("DoesNotFire")
