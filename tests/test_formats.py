import pytest

from matdecide.automata import (
    Edge,
    ValenceAutomaton,
    WordLabels,
    build_membership_automaton,
    to_free_group_automaton,
)
from matdecide.formats import (
    FormatError,
    format_automaton,
    format_matrix,
    format_matrix_list,
    parse_automaton,
    parse_matrix,
    parse_matrix_list,
)
from matdecide.matrix import IntMatrix
from matdecide.sanov import default_coset_table
from matdecide.words import FreeWord

from conftest import A, B, I2


def test_matrix_text_form():
    assert format_matrix(A) == '[["1","2"],["0","1"]]'
    assert parse_matrix('[["1","2"],["0","1"]]') == A


def test_matrix_roundtrip_handles_big_and_negative_entries():
    big = IntMatrix([[10**40, -3], [0, -(10**45)]])
    assert parse_matrix(format_matrix(big)) == big


def test_matrix_parse_accepts_bare_integers():
    assert parse_matrix("[[1,2],[0,1]]") == A


def test_matrix_parse_errors_carry_context():
    with pytest.raises(FormatError, match="line 1"):
        parse_matrix("[[1,2],")
    with pytest.raises(FormatError, match=r"matrix\[0\]\[1\]"):
        parse_matrix('[["1","x"],["0","1"]]')
    with pytest.raises(FormatError, match="square"):
        parse_matrix('[["1","2"]]')
    with pytest.raises(FormatError, match=r"matrix\[0\]\[0\]"):
        parse_matrix('[["\u0661\u0662","0"],["0","1"]]')


def test_matrix_list_roundtrip():
    text = format_matrix_list([A, B, I2])
    assert parse_matrix_list(text) == [A, B, I2]
    with pytest.raises(FormatError, match=r"matrix\[1\]"):
        parse_matrix_list('[[["1","2"],["0","1"]], "nope"]')


def test_automaton_roundtrip_matrix_labels():
    v = build_membership_automaton(A, [B, I2])
    assert parse_automaton(format_automaton(v)) == v


def test_automaton_roundtrip_word_labels():
    v = ValenceAutomaton(
        ("p", "q"),
        ("a", "b"),
        WordLabels(2),
        [
            Edge("p", "a", FreeWord.from_text("a b'", 2), "q"),
            Edge("q", None, FreeWord.identity(2), "p"),
        ],
        "p",
        ("q",),
    )
    assert parse_automaton(format_automaton(v)) == v


def test_automaton_roundtrip_coset_image():
    v = to_free_group_automaton(build_membership_automaton(A, [B]), default_coset_table())
    assert parse_automaton(format_automaton(v)) == v


def test_automaton_field_errors():
    with pytest.raises(FormatError, match="missing field"):
        parse_automaton('{"states": ["p"]}')
    good = format_automaton(build_membership_automaton(A, [B]))
    broken = good.replace('"initial": "q1"', '"initial": "zz"')
    with pytest.raises(FormatError, match="initial"):
        parse_automaton(broken)
    with pytest.raises(FormatError, match="label_domain.kind"):
        parse_automaton(
            '{"states": ["p"], "alphabet": [], "label_domain": {"kind": "odd"},'
            ' "initial": "p", "accepting": [], "edges": []}'
        )
    with pytest.raises(FormatError, match=r"edges\[0\].label"):
        parse_automaton(
            '{"states": ["p"], "alphabet": ["a"], "label_domain": {"kind": "word", "rank": 2},'
            ' "initial": "p", "accepting": [], '
            '"edges": [{"src": "p", "input": "a", "label": "zz", "dst": "p"}]}'
        )
    with pytest.raises(FormatError, match=r"edges\[0\].label: expected a word string"):
        parse_automaton(
            '{"states": ["p"], "alphabet": ["a"], "label_domain": {"kind": "word", "rank": 2},'
            ' "initial": "p", "accepting": [], '
            '"edges": [{"src": "p", "input": "a", "label": ["a"], "dst": "p"}]}'
        )
    with pytest.raises(FormatError, match="automaton: expected a JSON object"):
        parse_automaton('[{"states": ["p"]}]')
    with pytest.raises(FormatError, match="matrix list: expected an array"):
        parse_matrix_list('{"0": [["1"]]}')
    with pytest.raises(ValueError, match="word rank 2"):
        ValenceAutomaton(("p",), ("a",), WordLabels(2),
                         [Edge("p", "a", FreeWord.from_text("a", 3), "p")], "p", ())


def test_automaton_label_dimension_checked():
    with pytest.raises(FormatError):
        parse_automaton(
            '{"states": ["p"], "alphabet": ["a"], "label_domain": {"kind": "matrix", "dim": 2},'
            ' "initial": "p", "accepting": [], '
            '"edges": [{"src": "p", "input": "a", "label": [["1"]], "dst": "p"}]}'
        )
