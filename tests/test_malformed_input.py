"""Malformed input: seeded mutations of the shipped `.cfk` files must end in
exit 0 or a named error with exit 2, never in a traceback.

The mutations name undeclared generators as sources and targets of `d` and
`flip` lines, set U-powers of 10^12 of either sign, insert self-loops,
change `A=` values and drop lines.  CI also runs this file under
`python -O`, so no error path may rest on an assert.
"""

import contextlib
import io
import random
from pathlib import Path

import pytest

import floercone
from floercone.cli import main

DATA = Path(floercone.__file__).parent / "data"
UNDECLARED = ("zz", "_q", "a0")
MUTANTS_PER_FILE = 60
COMMANDS = (("check",), ("genus",), ("cone", "--s", "-1..1"), ("prop0check",))


def _rename_source(lines, k, rng):
    head, _, rest = lines[k].split(None, 2)
    lines[k] = f"{head} {rng.choice(UNDECLARED)} : {rest}"


def _edit_term(lines, k, rng, part, value):
    """Set part 0 (the U-power) or 1 (the target) of one term on line k."""
    head, terms = lines[k].split(":", 1)
    terms = [t.split() for t in terms.split(",")]
    rng.choice(terms)[part] = value
    lines[k] = f"{head}: " + ", ".join(" ".join(t) for t in terms)


def _rename_target(lines, k, rng):
    _edit_term(lines, k, rng, 1, rng.choice(UNDECLARED))


def _large_power(lines, k, rng):
    # no grading allows it, and a bitmask of 10^12 bits would take 125 GB
    _edit_term(lines, k, rng, 0, f"U^{rng.choice([-1, 1]) * 10 ** 12}")


def _self_loop(lines, k, rng):
    name = lines[k].split()[1]
    lines.insert(k + 1, f"d {name} : U^{rng.randrange(3)} {name}")


def _shift_alexander(lines, k, rng):
    gen, name, a, m = lines[k].split()
    lines[k] = f"{gen} {name} A={int(a[2:]) + rng.choice([-2, -1, 1, 2])} {m}"


def _drop(lines, k, rng):
    del lines[k]


# each mutation with the line heads it applies to
MUTATIONS = ((_rename_source, ("d", "flip")), (_rename_target, ("d", "flip")),
             (_large_power, ("d", "flip")),
             (_self_loop, ("gen",)), (_shift_alexander, ("gen",)),
             (_drop, ("gen", "d", "flip", "end")))


def mutants(text: str, rng: random.Random, count: int):
    """count texts, each with one or two seeded mutations."""
    for _ in range(count):
        lines = text.splitlines()
        for _ in range(rng.choice([1, 2])):
            mutate, heads = rng.choice(MUTATIONS)
            where = [k for k, line in enumerate(lines) if line.split()[0] in heads]
            if where:
                mutate(lines, rng.choice(where), rng)
        yield "\n".join(lines) + "\n"


def run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.cfk")))
def test_mutated_fixtures_exit_0_or_2_with_a_named_error(tmp_path, name):
    rng = random.Random(f"malformed {name}")
    path = tmp_path / name
    codes = set()
    for text in mutants((DATA / name).read_text(), rng, MUTANTS_PER_FILE):
        path.write_text(text)
        for command in COMMANDS:
            code, err = run(command + (str(path),))
            assert code in (0, 2), (command, text)
            assert code == 0 or err.startswith("error: "), (command, text, err)
            codes.add(code)
    assert 2 in codes
