"""Replay of a recorded CLI transcript: the `--machine` output, stderr and
exit code of every command on every shipped `.cfk` file, byte for byte.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import os
from pathlib import Path

import floercone
from floercone.cli import main

DATA = Path(floercone.__file__).parent / "data"
GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"
S_RANGE = ("--s", "-3..3")


def commands():
    """Every recorded argv; file arguments are names inside DATA."""
    for name in sorted(p.name for p in DATA.glob("*.cfk")):
        yield ("check", name)
        yield ("cone", name) + S_RANGE
        yield ("cone", "--twisted", name) + S_RANGE
        for truncation in ("auto", "0", "1", "2", "3"):
            yield ("cone", "--flavor", "plus", "--truncation", truncation, name) + S_RANGE
        for command in ("genus", "alex", "detect-sphere", "prop0check", "red"):
            yield (command, name)
        yield ("red1", "--from-file", name)
        yield ("red1", "--from-file", name, "--homology-sphere")


def transcript() -> str:
    """Run every command from inside DATA and join the results."""
    chunks = []
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        for argv in commands():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv) + ["--machine"])
            chunks.append(f"$ floercone {' '.join(argv)} --machine\n"
                          f"{out.getvalue()}{err.getvalue()}exit {code}\n")
    finally:
        os.chdir(cwd)
    return "".join(chunks)


def test_cli_transcript_replays_byte_for_byte():
    expected = GOLDEN.read_text(encoding="utf-8")
    actual = transcript()
    if actual != expected:  # name the first command whose output moved
        for want, got in zip(expected.split("$ "), actual.split("$ ")):
            assert got == want
    assert actual == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(transcript(), encoding="utf-8")
