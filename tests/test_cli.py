"""Command-line behavior: outputs, exit codes, machine records."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import floercone
from floercone.cli import main
from floercone.cone import cone_homology_hat
from floercone.fixtures import TREFOIL

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


# ---------------------------------------------------------------------------
# determinism and entry point


def test_output_deterministic(capsys):
    _, first, _ = run(capsys, "cone", TREFOIL_F, "--s", "-2..2", "--machine")
    _, second, _ = run(capsys, "cone", TREFOIL_F, "--s", "-2..2", "--machine")
    assert first == second


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "floercone.cli", "detect-sphere", UNKNOT_F],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("DoesNotFire")
