"""Text format: parsing, validation wiring, canonical serialization."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import floercone
from floercone.fixtures import ALL_FIXTURES, TREFOIL
from floercone.io_format import (
    DocumentEntry,
    DuplicateName,
    InputDocument,
    ParseError,
    load_path,
    parse,
    serialize,
)
from floercone.model import ValidationError

from oracles import oracle_parse
from test_malformed_input import MUTANTS_PER_FILE, mutants

DATA = Path(floercone.__file__).parent / "data"
FILES = {
    "UNKNOT": "unknot.cfk",
    "TREFOIL": "trefoil.cfk",
    "TREFOIL_L": "trefoil_mirror.cfk",
    "Y1SIGMA": "y1sigma.cfk",
    "FIGURE8": "figure8.cfk",
}


def test_data_files_parse_to_fixtures():
    for name, fname in FILES.items():
        doc = load_path(DATA / fname)
        assert len(doc.entries) == 1
        entry = doc.entries[0]
        assert entry.name == name
        fixture = dict(zip(FILES, ALL_FIXTURES))[name]
        assert entry.complex == fixture


def test_data_files_round_trip_byte_identical():
    for fname in FILES.values():
        text = (DATA / fname).read_text()
        assert serialize(parse(text)) == text


def test_serialize_is_canonical_under_reordering():
    scrambled = """
# comment then an unsorted body
complex TREFOIL spinc=0
gen c A=-1 M=-2
gen a A=1 M=0
gen b A=0 M=-1
flip c : U^1 a
flip b : U^0 b
flip a : U^-1 c
d b : U^0 c, U^1 a
end
"""
    doc = parse(scrambled)
    assert doc.entries[0].complex == TREFOIL
    assert serialize(doc) == (DATA / "trefoil.cfk").read_text()


def test_parse_comments_and_blank_lines():
    text = """# leading comment

complex K spinc=0
# inside a block
gen a A=0 M=0

flip a : U^0 a
end
"""
    doc = parse(text)
    assert doc.entries[0].name == "K"


def test_parse_fractional_maslov():
    text = "complex K spinc=half\ngen a A=0 M=-3/2\nend\n"
    c = parse(text).entries[0].complex
    assert c.generator("a").maslov == Fraction(-3, 2)


def test_parse_error_reports_line():
    text = "complex K spinc=0\ngen a A=zero M=0\nend\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 2


def test_parse_error_unterminated_block():
    with pytest.raises(ParseError):
        parse("complex K spinc=0\ngen a A=0 M=0\n")


def test_parse_error_empty_document():
    with pytest.raises(ParseError):
        parse("# nothing here\n")


def test_parse_error_stray_line():
    with pytest.raises(ParseError):
        parse("gen a A=0 M=0\n")


def test_parse_error_negative_differential_power():
    text = "complex K spinc=0\ngen a A=0 M=0\ngen b A=0 M=1\nd b : U^-1 a\nend\n"
    with pytest.raises(ParseError):
        parse(text)


def test_parse_duplicate_complex_label():
    text = ("complex K spinc=0\ngen a A=0 M=0\nend\n"
            "complex K spinc=0\ngen a A=0 M=0\nend\n")
    with pytest.raises(DuplicateName):
        parse(text)


def test_parse_invalid_complex_raises_validation_error():
    text = ("complex K spinc=0\n"
            "gen a A=0 M=0\n"
            "gen b A=0 M=0\n"
            "d b : U^0 a\n"
            "end\n")
    with pytest.raises(ValidationError):
        parse(text)


def test_parse_two_spinc_blocks():
    text = ((DATA / "unknot.cfk").read_text().replace("UNKNOT", "FIRST")
            + "\n"
            + (DATA / "trefoil.cfk").read_text()
              .replace("TREFOIL", "SECOND").replace("spinc=0", "spinc=1"))
    doc = parse(text)
    assert [e.name for e in doc.entries] == ["FIRST", "SECOND"]
    assert len(doc.complexes) == 2
    assert [c.spinc_label for c in doc.complexes] == ["0", "1"]


def test_parse_duplicate_spinc_label():
    text = ((DATA / "unknot.cfk").read_text().replace("UNKNOT", "FIRST")
            + "\n" + (DATA / "trefoil.cfk").read_text().replace("TREFOIL", "SECOND"))
    with pytest.raises(DuplicateName):
        parse(text)


def test_load_path_missing_file():
    with pytest.raises(OSError):
        load_path(DATA / "does_not_exist.cfk")


def test_document_entry_structure():
    doc = InputDocument((DocumentEntry("X", TREFOIL),))
    assert doc.complexes == (TREFOIL,)
    assert serialize(parse(serialize(doc))) == serialize(doc)


# ---------------------------------------------------------------------------
# the parser against the one that made a Fraction per generator

BENCH = Path(__file__).resolve().parents[1] / "bench"
M_TEXTS = ("1/2", "-3/4", "2/4", "0/7")
EDGE_CASES = (
    "gen a A=0 M=0\n",
    "complex K spinc=0\ngen a A=0 M=0\n",
    "complex K spinc=0\ncomplex L spinc=1\n",
    "complex K\ngen a A=0 M=0\nend\n",
    "complex K spinc=0\ngen a A=0 M=1/0\nend\n",
    "complex K spinc=0\ngen a A=0 M=0\nd a: U^0\nend\n",
    "complex K spinc=0\ngen a A=0 M=0\nflip a :U^0 a ,  U^0  a\nend\n",
    "complex K spinc=0\ngen a A=0 M=0\nd a : U^1 a, V b\nend\n",
    "complex K spinc=0\ngen a A=0 M=0\nd a : U^-1 a\nend\n",
    "complex K spinc=0\ngen a A=0 M=0\nflip a : U^-1 a\nend\n",
    "complex K spinc=0\ngen a A=0 M=0\nmap a : U^0 a\nend\n",
    "complex K spinc=0\ngen a A=0 M=0\nend now\n",
    "complex K spinc=0\ngen a A=0 M=0\nend\ncomplex K spinc=1\nend\n",
    "# nothing\n",
    # M texts that int and Fraction read alike, or that the grammar refuses
    *(f"complex K spinc=0\ngen a A=0 M={m}\nflip a : U^0 a\nend\n"
      for m in ("-0", "007", "+1", "\u0663", "6/4", "-0/5")),
    "complex K spinc=0\ngen a A=0 M=0\nflip a : U^0 a# after a term\nend\n",
    "complex K spinc=0\ngen a#b A=0 M=0\nflip a : U^0 a\nend\n",
    "complex K spinc=0\ngen a A=0 M=0\ngen b A=0 M=0\nflip a\t:\tU^0 a\t,\tU^0 b\nflip b :\tU^0 b\nend\n",
    "complex K spinc=0\r\ngen a A=0 M=0\r\nflip a : U^0 a\r\nend\r\n",
    "complex K spinc=0\ngen a A=0 M=0\nflip a : U^0 a,\nend\n",
    "d a : U^0 a\n",
    "complex K spinc=0\ngen a A=0 M=0\nend\nd a : U^0 a\n",
    "complex K spinc=0\ngen a A=0 M=0\nend\ngen b A=0 M=0\n",
)


def bench_texts() -> list:
    """Every benchmark input's template, instantiated."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import families
    import workloads

    return [families.instantiate(families.cfk_template(label, inp.complex), "p0_")
            for wl in workloads.every_input() for label, inp in sorted(wl.inputs.items())]


def m_text_documents() -> list:
    """One document per M= text, beside a generator whose M is written another way."""
    return [f"complex K spinc=0\ngen a A=0 M={m}\ngen b A=0 M={Fraction(m)}\n"
            f"flip a : U^0 a\nflip b : U^0 b\nend\n" for m in M_TEXTS]


def outcome(read, text):
    """What read(text) gives: the document, or the error's type, message and line."""
    try:
        return read(text)
    except (ParseError, DuplicateName, ValidationError) as e:
        return type(e), str(e), getattr(e, "line", None)


def test_parse_equals_the_oracle_parser():
    shipped = [p.read_text() for p in sorted(DATA.glob("*.cfk"))]
    malformed = [text for p in sorted(DATA.glob("*.cfk"))
                 for text in mutants(p.read_text(), random.Random(f"malformed {p.name}"),
                                     MUTANTS_PER_FILE)]
    errors = 0
    for text in shipped + bench_texts() + m_text_documents() + malformed + list(EDGE_CASES):
        got = outcome(parse, text)
        assert got == outcome(oracle_parse, text), text
        errors += isinstance(got, tuple)
    assert errors > len(EDGE_CASES)


def test_each_distinct_m_text_is_one_fraction():
    doc = parse("complex K spinc=0\ngen a A=0 M=2/4\ngen b A=0 M=1/2\ngen c A=0 M=2/4\n"
                "flip a : U^0 a\nflip b : U^0 b\nflip c : U^0 c\nend\n")
    a, b, c = (g.maslov for g in doc.entries[0].complex.generators)
    assert a == b == c == Fraction(1, 2) and a is c and a is not b
