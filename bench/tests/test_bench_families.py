"""Generated input families are valid complexes, and name prefixes change nothing."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import families as fam  # noqa: E402
import workloads  # noqa: E402
from floercone.detect import genus  # noqa: E402
from floercone.fixtures import FIGURE8, TREFOIL, TREFOIL_L  # noqa: E402
from floercone.io_format import parse  # noqa: E402
from floercone.model import derive_flip, validate  # noqa: E402


def _shape(c):
    """The complex with generator names replaced by their sort position."""
    pos = {g.name: k for k, g in enumerate(c.generators)}
    gens = [(g.alexander, g.maslov) for g in c.generators]
    diff = sorted((pos[t.source], pos[t.target], t.u_power) for t in c.differential)
    flip = None if c.flip is None else sorted(
        (pos[t.source], pos[t.target], t.u_power) for t in c.flip)
    return gens, diff, flip


def test_every_workload_input_validates():
    for wl in workloads.every_input():
        for label, inp in wl.inputs.items():
            assert validate(inp.complex).ok, label


def test_staircase_and_mirror_match_the_trefoil_fixtures():
    assert _shape(fam.staircase(1)) == _shape(TREFOIL)
    assert sorted(_shape(fam.mirror(fam.staircase(1)))[0]) == sorted(_shape(TREFOIL_L)[0])
    for k in range(6):
        c = fam.staircase(k)
        assert len(c.generators) == 2 * k + 1
        assert fam.mirror(fam.mirror(c)) == c


def test_connected_sums_have_product_size_and_additive_genus():
    c = fam.sum_of(fam.staircase(1), FIGURE8, fam.mirror(fam.staircase(2)))
    assert len(c.generators) == 3 * 5 * 5
    assert validate(c).ok
    assert genus([fam.sum_of(fam.staircase(1), fam.staircase(2))]) == 3


def test_random_pool_is_deterministic_and_flipped():
    pool = workloads.random_pool()
    assert pool == workloads.random_pool()
    assert len(pool) == workloads.POOL_SIZE
    assert all(c.flip is not None and 1 <= len(c.generators) <= 6 for c in pool)


def test_every_pool_member_runs_and_every_other_one_has_no_flip():
    wl = workloads.cli_batch()
    pool = [label for label in wl.inputs if label.startswith("R")]
    assert len(pool) == workloads.POOL_SIZE
    assert sum(not wl.inputs[label].has_flip for label in pool) == workloads.POOL_SIZE // 2
    assert workloads.cli_batch().cycle == wl.cycle


def test_prefix_keeps_the_flip_search_choice():
    c = fam.strip_flip(fam.sum_of(fam.staircase(1), fam.mirror(fam.staircase(1))))
    template = fam.cfk_template("T", c)
    flips = []
    for prefix in ("a_", "zz9_", "o0000017_"):
        parsed = parse(fam.instantiate(template, prefix)).entries[0].complex
        found = derive_flip(parsed)
        flips.append(_shape(found))
        assert all(g.name.startswith(prefix) for g in found.generators)
    assert flips[0] == flips[1] == flips[2]
