"""The pruned flip search: the same flip as the leaf-only oracle search,
bounded time on the 25-45-generator sums, and a node budget that gives up
with its own error."""

import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import floercone.model as model
from floercone.cli import main
from floercone.io_format import DocumentEntry, InputDocument, serialize
from floercone.model import (
    FlipSearchExhausted,
    NoFlipFound,
    derive_flip,
    enumerate_flips,
    validate,
)

from corpus import connected_sum, corpus
from oracles import oracle_derive_flip, oracle_enumerate_flips

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_inputs_without_flips(lo: int, hi: int, skip=()) -> list:
    """Every benchmark input with lo..hi generators, its flip lines dropped,
    but the sums named in skip."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads

    seen = {}
    for wl in workloads.every_input():
        for label, inp in wl.inputs.items():
            if lo <= inp.gens <= hi and label.split(".")[0] not in skip:
                seen.setdefault(replace(inp.complex, flip=None), label)
    return [pytest.param(c, id=label) for c, label in seen.items()]


def _flip_or_none(search, c):
    try:
        return search(c).flip
    except NoFlipFound:
        return None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_derive_flip_equals_the_leaf_only_search_on_the_corpus(seed):
    for c in corpus(seed):
        assert _flip_or_none(derive_flip, c) == _flip_or_none(oracle_derive_flip, c)


@pytest.mark.parametrize("c", _bench_inputs_without_flips(1, 15))
def test_derive_flip_equals_the_leaf_only_search_on_bench_inputs(c):
    assert _flip_or_none(derive_flip, c) == _flip_or_none(oracle_derive_flip, c)


# the leaf-only search takes more than a minute on the flipless F8#F8 and
# T(2,3)#T(2,3)#mT(2,3), so the slow tier leaves those two out
@pytest.mark.slow
@pytest.mark.parametrize("c", _bench_inputs_without_flips(16, 27, skip=("F8+F8", "T2_3+T2_3+mT2_3")))
def test_derive_flip_equals_the_leaf_only_search_on_larger_sums(c):
    assert _flip_or_none(derive_flip, c) == _flip_or_none(oracle_derive_flip, c)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_enumerate_flips_equals_the_product_search_on_the_corpus(seed):
    for c in corpus(seed):
        assert enumerate_flips(c) == oracle_enumerate_flips(c)


@pytest.mark.parametrize("name", ["F8+F8", "T2_5+F8", "T2_5+mT2_5", "mT2_3+F8+T2_3",
                                  "T2_3+T2_3+T2_5"])
def test_derive_flip_finishes_within_a_second_on_flipless_sums(name):
    c = replace(connected_sum(name), flip=None)
    start = time.perf_counter()
    flipped = derive_flip.__wrapped__(c)  # past the cache: time the search itself
    assert time.perf_counter() - start < 1.0
    assert validate(flipped).ok


def test_forcing_the_last_free_target_keeps_the_search_small(monkeypatch):
    # the 125-generator sum needs 1,102 nodes; without forcing it needs 1,569
    monkeypatch.setattr(model, "_FLIP_SEARCH_NODES", 1200)
    c = replace(connected_sum("T2_5+mT2_5+F8"), flip=None)
    assert validate(derive_flip.__wrapped__(c)).ok


def test_the_node_budget_raises_its_own_error(monkeypatch):
    monkeypatch.setattr(model, "_FLIP_SEARCH_NODES", 5)
    c = replace(connected_sum("F8+F8"), flip=None)
    with pytest.raises(FlipSearchExhausted):
        derive_flip.__wrapped__(c)
    assert not issubclass(FlipSearchExhausted, NoFlipFound)


def test_genus_exits_2_when_the_flip_search_gives_up(tmp_path, monkeypatch, capsys):
    c = replace(connected_sum("F8+F8"), flip=None)
    path = tmp_path / "f8f8.cfk"
    path.write_text(serialize(InputDocument((DocumentEntry("F8F8", c),))))
    monkeypatch.setattr(model, "_FLIP_SEARCH_NODES", 5)
    derive_flip.cache_clear()  # an equal complex may have been derived earlier
    assert main(["genus", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "flip search" in err
