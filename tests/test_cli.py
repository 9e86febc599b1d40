"""End-to-end CLI checks, including the exit-code contract: 0 yes/witness,
1 no, 2 unknown (out of memory included), 64 usage, 65 malformed input,
70 internal error, 73 cannot create the output file, 74 standard output
closed. Dimensions other than 2 must never produce a definitive no."""

import json
import os
import random
import subprocess
import sys

import pytest

import matdecide
from matdecide import cli, deciders
from matdecide.cli import main
from matdecide.formats import format_automaton, format_matrix, format_matrix_list, parse_automaton
from matdecide.automata import (
    Edge,
    MatrixLabels,
    ValenceAutomaton,
    WordLabels,
    build_identity_automaton,
    build_membership_automaton,
)
from matdecide.matrix import IntMatrix
from matdecide.words import FreeWord

from conftest import A, A_INV, B, B_INV, J, S, T


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factor_member(capsys):
    code, out, _ = run(capsys, "factor", '[["1","2"],["0","1"]]')
    assert (code, out) == (0, "a\n")


def test_factor_non_member(capsys):
    code, out, _ = run(capsys, "factor", '[["1","1"],["0","1"]]')
    assert (code, out) == (1, "not a member\n")


def test_factor_malformed(capsys, tmp_path):
    code, _, err = run(capsys, "factor", "[[1,2]")
    assert code == 65
    assert "line 1" in err
    code, out, err = run(capsys, "factor")
    assert (code, out) == (65, "") and "--file" in err
    missing = str(tmp_path / "absent.json")
    code, out, err = run(capsys, "factor", "--file", missing)
    assert (code, out) == (65, "") and missing in err


def test_factor_structured(capsys):
    code, out, _ = run(capsys, "factor", "--format", "structured", '[["5","2"],["2","1"]]')
    assert code == 0
    assert json.loads(out) == {"command": "factor", "member": True, "word": "a b"}


def test_cosets_prints_24_reps(capsys):
    code, out, _ = run(capsys, "cosets")
    lines = out.strip().split("\n")
    assert code == 0
    assert len(lines) == 24
    assert lines[0] == '[["1","0"],["0","1"]]'
    # deterministic across invocations
    assert run(capsys, "cosets")[1] == out


def test_member_yes_with_witness(capsys, files):
    target = files("y.json", format_matrix(A * B))
    gens = files("gens.json", format_matrix_list([A, B]))
    code, out, _ = run(capsys, "member", "--target", target, "--gens", gens)
    assert code == 0
    assert "witness 1 2" in out


def test_member_witness_indexes_the_input_list(capsys, files):
    # the singular generator takes no part in the search, but keeps its index
    target = files("y.json", format_matrix(A * B.inverse_unimodular()))
    gens = files("gens.json", format_matrix_list([IntMatrix([[2, 0], [0, 1]]), A, B]))
    code, out, _ = run(capsys, "member", "--target", target, "--gens", gens,
                       "--format", "structured")
    assert (code, json.loads(out)["witness"]) == (0, [2, -3])


def test_member_identity_target_prints_the_empty_witness(capsys, files):
    target = files("y.json", format_matrix(IntMatrix.identity(2)))
    for gens_list in ([IntMatrix([[2, 0], [0, 1]])], [IntMatrix([[2, 0], [0, 1]]), A]):
        gens = files("gens.json", format_matrix_list(gens_list))
        member = ["member", "--target", target, "--gens", gens]
        assert run(capsys, *member) == (
            0,
            "yes: witness (empty product) (signed generator indices, negative = inverse)\n",
            "",
        )
        code, out, _ = run(capsys, *member, "--format", "structured")
        assert (code, json.loads(out)) == (
            0, {"command": "member", "answer": "yes", "witness": []}
        )


def test_member_no(capsys, files):
    target = files("y.json", format_matrix(B))
    gens = files("gens.json", format_matrix_list([A]))
    code, out, _ = run(capsys, "member", "--target", target, "--gens", gens)
    assert code == 1
    assert out.startswith("no")


def test_member_checked_flag(capsys, files):
    target = files("y.json", format_matrix(A))
    gens = files("gens.json", format_matrix_list([B]))
    assert run(capsys, "member", "--target", target, "--gens", gens, "--checked")[0] == 1


def test_member_bounded_mode(capsys, files):
    gens = files("gens.json", format_matrix_list([A]))
    target = files("y.json", format_matrix(B))
    code, out, _ = run(capsys, "member", "--target", target, "--gens", gens, "--bounded", "4")
    assert code == 2
    assert "unknown" in out
    # the bounded search runs over the group, so inverses count
    target = files("y.json", format_matrix(A_INV))
    code, out, _ = run(capsys, "member", "--target", target, "--gens", gens, "--bounded", "4")
    assert (code, out) == (0, "yes: witness -1 (signed generator indices, negative = inverse)\n")


@pytest.mark.parametrize("target, gens, argv, witness", [
    ([[1, -20], [0, 1]], [[[1, 2], [0, 1]]], ["--bounded", "12"], [-1] * 10),
    ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[[1, -1, 0], [0, 1, 0], [0, 0, 1]]],
     ["--bounded", "5"], [-1]),
    ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[[1, -1, 0], [0, 1, 0], [0, 0, 1]]], [], [-1]),
    # a singular generator cannot be a factor of a unimodular target
    ([[1, -4], [0, 1]], [[[2, 0], [0, 0]], [[1, 2], [0, 1]]], ["--bounded", "3"], [-2, -2]),
    ([[1, 0], [0, 1]], [[[2, 0], [0, 1]]], ["--bounded", "2"], []),
])
def test_member_bounded_searches_the_group(capsys, files, target, gens, argv, witness):
    y = files("y.json", json.dumps(target))
    g = files("gens.json", json.dumps(gens))
    code, out, _ = run(capsys, "member", "--target", y, "--gens", g, *argv,
                       "--format", "structured")
    assert code == 0
    assert json.loads(out)["witness"] == witness


_UNIMODULAR = [A, B, S, T, J, A_INV, IntMatrix([[0, 1], [1, 0]])]
# Determinants 1, -1, 0, 2 and -2: a group holds only the unimodular ones.
_MIXED_POOL = _UNIMODULAR + [IntMatrix([[2, 0], [0, 1]]), IntMatrix([[1, 1], [1, -1]]),
                             IntMatrix([[3, 1], [0, 0]]), IntMatrix([[1, 2], [2, 4]])]


def test_a_bounded_yes_never_contradicts_an_exact_no(capsys, files):
    """A bounded search may answer unknown where the exact decider says yes,
    never yes where it says no. A singular product of the generators is
    never in the group they generate."""
    rng = random.Random(0xB0D)
    singular_products = 0
    for _ in range(60):
        gens = rng.sample(_MIXED_POOL, rng.randint(1, 3))
        target = rng.choice(gens)
        for _ in range(rng.randint(0, 2)):
            target = target * rng.choice(gens)
        if rng.random() < 0.3:
            target = rng.choice(_UNIMODULAR) * rng.choice(_UNIMODULAR)
        singular_products += not target.is_unimodular()
        g = files("gens.json", format_matrix_list(gens))
        y = files("y.json", format_matrix(target))
        member = ["member", "--target", y, "--gens", g]
        if run(capsys, *member, "--bounded", "3")[0] == 0:
            assert run(capsys, *member)[0] == 0, (target, gens)
        if run(capsys, "identity", "--gens", g, "--bounded", "3")[0] == 0:
            assert run(capsys, "identity", "--gens", g)[0] == 0, gens
    assert singular_products >= 15  # 19 with this seed


def test_member_bounded_checks_dimensions_before_dropping_singular_generators(capsys, files):
    y = files("y.json", format_matrix(A))
    g = files("gens.json", json.dumps([[[1, 2], [0, 1]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]]]))
    code, out, err = run(capsys, "member", "--target", y, "--gens", g, "--bounded", "3")
    assert (code, out) == (65, "")
    assert "mixed dimensions" in err


def test_member_dimension_mismatch_is_data_error(capsys, files):
    target = files("y.json", format_matrix(IntMatrix.identity(3)))
    gens = files("gens.json", format_matrix_list([A]))
    code, _, err = run(capsys, "member", "--target", target, "--gens", gens)
    assert code == 65
    assert "dimension" in err


def test_identity_yes_witness(capsys, files):
    gens = files("gens.json", format_matrix_list([A, A_INV]))
    code, out, _ = run(capsys, "identity", "--gens", gens)
    assert code == 0
    assert "witness 1 2" in out


def test_identity_no(capsys, files):
    gens = files("gens.json", format_matrix_list([A, B]))
    code, out, _ = run(capsys, "identity", "--gens", gens)
    assert code == 1


def _block4(m: IntMatrix) -> IntMatrix:
    rows = []
    for i in range(2):
        rows.append(list(m.entries[i]) + [0, 0])
    for i in range(2):
        rows.append([0, 0] + list(m.entries[i]))
    return IntMatrix(rows)


def test_4x4_identity_planted_witness(capsys, files):
    gens = files("gens.json", format_matrix_list([_block4(S)]))
    code, out, _ = run(capsys, "identity", "--gens", gens)
    assert code == 0
    assert "witness 1 1 1 1" in out


def test_4x4_identity_never_definitive_no(capsys, files):
    # an order-free 4x4 generator: exhausting the bound must report unknown
    gens = files("gens.json", format_matrix_list([_block4(A)]))
    code, out, _ = run(capsys, "identity", "--gens", gens, "--bounded", "5")
    assert code == 2
    assert "unknown" in out


def test_4x4_member_witness_or_unknown_only(capsys, files):
    block_a = _block4(A)
    target = files("y.json", format_matrix(block_a * block_a))
    gens = files("gens.json", format_matrix_list([block_a]))
    code, out, _ = run(capsys, "member", "--target", target, "--gens", gens)
    assert code == 0
    assert "witness 1 1" in out

    target2 = files("y2.json", format_matrix(_block4(B)))
    code2, out2, _ = run(capsys, "member", "--target", target2, "--gens", gens)
    assert code2 == 2
    assert "unknown" in out2


def test_empty_word_automaton(capsys, files):
    v = build_membership_automaton(A, [A_INV])
    path = files("aut.json", format_automaton(v))
    code, out, _ = run(capsys, "empty", path)
    assert code == 0
    assert out.startswith("NONEMPTY")
    assert "'aa'" in out


def test_empty_reports_empty(capsys, files):
    v = build_identity_automaton([A])
    path = files("aut.json", format_automaton(v))
    code, out, _ = run(capsys, "empty", path)
    assert (code, out) == (1, "EMPTY\n")


def test_empty_checked(capsys, files):
    v = build_membership_automaton(A, [B])
    path = files("aut.json", format_automaton(v))
    assert run(capsys, "empty", path, "--checked")[0] == 1


def test_empty_4x4_is_bounded_only(capsys, files):
    block_a = _block4(A)
    v = build_identity_automaton([block_a])
    path = files("aut.json", format_automaton(v))
    code, out, _ = run(capsys, "empty", path)
    assert code == 2
    assert out.startswith("UNKNOWN")

    v2 = build_identity_automaton([block_a, block_a.inverse_unimodular()])
    path2 = files("aut2.json", format_automaton(v2))
    code2, out2, _ = run(capsys, "empty", path2)
    assert code2 == 0
    assert out2.startswith("NONEMPTY")


def test_register_cap_env(capsys, files, monkeypatch):
    v = build_membership_automaton(A, [A_INV])
    path = files("aut.json", format_automaton(v))
    for bad in ("not-a-number", "0"):
        monkeypatch.setenv("MATDECIDE_REGISTER_CAP", bad)
        code, out, err = run(capsys, "empty", path)
        assert (code, out) == (65, "") and "MATDECIDE_REGISTER_CAP" in err
    monkeypatch.setenv("MATDECIDE_REGISTER_CAP", "1000")
    assert run(capsys, "empty", path)[0] == 0


def test_convert_roundtrips_and_converts(capsys, files, tmp_path):
    v = build_membership_automaton(A, [B])
    path = files("aut.json", format_automaton(v))
    out_path = str(tmp_path / "image.json")
    code, _, _ = run(capsys, "convert", path, "-o", out_path)
    assert code == 0
    image = parse_automaton(open(out_path).read())
    assert image.states == ("q1|0", "q2|0")  # the pairs reachable from q1|0
    stj = files("stj.json", format_automaton(build_membership_automaton(T, [S, T, J])))
    code_stj, out_stj, _ = run(capsys, "convert", stj)
    assert code_stj == 0
    assert len(parse_automaton(out_stj).states) == 25

    # converting a word automaton is the identity transformation
    code2, out2, _ = run(capsys, "convert", out_path)
    assert code2 == 0
    assert parse_automaton(out2) == image


def test_convert_to_an_unwritable_path_exits_73(capsys, files, tmp_path):
    path = files("aut.json", format_automaton(build_membership_automaton(A, [B])))
    code, out, err = run(capsys, "convert", path, "-o", str(tmp_path / "missing" / "out.json"))
    assert (code, out) == (73, "")
    assert err.count("\n") == 1
    assert err.startswith("matdecide: ") and "internal error" not in err


def test_convert_4x4_unsupported(capsys, files):
    v = build_identity_automaton([_block4(A)])
    path = files("aut.json", format_automaton(v))
    code, _, err = run(capsys, "convert", path)
    assert code == 2
    assert "cannot convert" in err


def test_search_semigroup_and_group(capsys, files):
    target = files("y.json", format_matrix(A * B.inverse_unimodular()))
    gens = files("gens.json", format_matrix_list([A, B]))
    code, out, _ = run(capsys, "search", "--target", target, "--gens", gens, "--max-len", "4")
    assert code == 2
    # the group search is member --bounded, which counts inverses
    code2, out2, _ = run(capsys, "member", "--target", target, "--gens", gens, "--bounded", "4")
    assert code2 == 0
    assert "1 -2" in out2


def test_bounded_searches_stop_once_no_longer_product_can_match(capsys, files, product_budget):
    # S has order 4, so no word over S and S^-1 equals J; [[1]] gives only
    # [[1]]. Searched length by length, either bound would run for minutes.
    product_budget[0] = 100
    target = files("y.json", format_matrix(J))
    gens = files("gens.json", format_matrix_list([S]))
    code, out, _ = run(capsys, "member", "--target", target, "--gens", gens,
                       "--bounded", "1000000")
    assert (code, out) == (2, "unknown: no product of length <= 1000000 matches "
                               "(absence at the bound proves nothing)\n")
    target = files("y1.json", '[["2"]]')
    gens = files("gens1.json", '[[["1"]]]')
    code, out, _ = run(capsys, "search", "--target", target, "--gens", gens,
                       "--max-len", "10000000")
    assert (code, out) == (2, "unknown: no product of length <= 10000000 matches "
                               "(absence at the bound proves nothing)\n")


def test_engine_disagreement_exits_70(capsys, files, monkeypatch):
    real = deciders.pda_emptiness
    monkeypatch.setattr(deciders, "pda_emptiness", lambda pda: not real(pda))
    aut = files("aut.json", format_automaton(build_membership_automaton(A, [B])))
    target = files("y.json", format_matrix(A * B))
    gens = files("gens.json", format_matrix_list([A, B]))
    for argv in (
        ("empty", aut, "--checked"),
        ("member", "--target", target, "--gens", gens, "--checked"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (70, "")
        assert err.count("\n") == 1
        assert "engines disagree" in err


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["member", "--target", "only.json"])
    assert exc.value.code == 64
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc2:
        main(["no-such-command"])
    assert exc2.value.code == 64
    capsys.readouterr()
    # the group search is member --bounded; search has no --group option
    with pytest.raises(SystemExit) as exc3:
        main(["search", "--target", "y.json", "--gens", "g.json", "--group"])
    assert exc3.value.code == 64
    capsys.readouterr()


def test_consecutive_calls_share_no_state(capsys, files, monkeypatch):
    """main reuses one parser per process; no flag, option or usage error
    may carry over from one call to the next."""
    seen = []
    real = cli.decide_subgroup_membership

    def recording(y, gens, checked):
        seen.append(checked)
        return real(y, gens, checked=checked)

    monkeypatch.setattr(cli, "decide_subgroup_membership", recording)
    target = files("y.json", format_matrix(A * B))
    gens = files("gens.json", format_matrix_list([A, B]))
    member = ["member", "--target", target, "--gens", gens]
    checked = run(capsys, *member, "--checked", "--format", "structured")
    plain = run(capsys, *member)
    assert seen == [True, False]
    assert checked[:2] == (0, '{"answer": "yes", "command": "member", "witness": [1, 2]}\n')
    assert plain[:2] == (0, "yes: witness 1 2 (signed generator indices, negative = inverse)\n")
    with pytest.raises(SystemExit) as exc:
        main(["member", "--target", target])
    assert exc.value.code == 64
    capsys.readouterr()
    assert run(capsys, *member) == plain
    search = run(capsys, "search", "--target", target, "--gens", gens)
    assert search[:2] == (0, "yes: witness 1 2\n")
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("option", ["--bounded", "--max-len", "--witness-len"])
def test_negative_bounds_exit_64(capsys, files, option):
    gens = files("gens.json", format_matrix_list([A]))
    target = files("y.json", format_matrix(A))
    aut = files("aut.json", format_automaton(build_membership_automaton(A, [A])))
    argv = {
        "--bounded": ["member", "--target", target, "--gens", gens],
        "--max-len": ["search", "--target", target, "--gens", gens],
        "--witness-len": ["empty", aut],
    }[option]
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, "-3"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (64, "")
    assert option in err


@pytest.mark.parametrize(
    "field, mutate",
    [
        ("edges[0].src", lambda doc: doc["edges"][0].update(src=["q1"])),
        ("edges[0].dst", lambda doc: doc["edges"][0].update(dst=7)),
        ("initial", lambda doc: doc.update(initial=["q1"])),
        ("accepting", lambda doc: doc["accepting"].append(["q2"])),
        ("states", lambda doc: doc["states"].append(3)),
        ("alphabet", lambda doc: doc.update(alphabet="a")),
        ("label_domain", lambda doc: doc.update(label_domain="matrix")),
        ("edges", lambda doc: doc.update(edges={})),
        ("edges[1]", lambda doc: doc["edges"].__setitem__(1, "q2 -> q2")),
        ("edges[0]: missing field 'label'", lambda doc: doc["edges"][0].pop("label")),
        ("edges[0].input", lambda doc: doc["edges"][0].update(input=7)),
        ("edges[0].label[0][1]", lambda doc: doc["edges"][0]["label"][0].__setitem__(1, True)),
        ("edges[0].label[1]", lambda doc: doc["edges"][0]["label"].__setitem__(1, "0 1")),
        ("accepting states", lambda doc: doc["accepting"].append("q3")),
        ("edge endpoint", lambda doc: doc["edges"][1].update(dst="q3")),
        ("edge symbol 'b'", lambda doc: doc["edges"][1].update(input="b")),
    ],
    ids=["src", "dst", "initial", "accepting", "states", "alphabet", "label-domain", "edges",
         "edge", "edge-label-missing", "input", "boolean-entry", "row", "accepting-unknown",
         "endpoint-unknown", "symbol-unknown"],
)
def test_non_string_state_names_exit_65(capsys, files, field, mutate):
    doc = json.loads(format_automaton(build_membership_automaton(A, [A_INV])))
    mutate(doc)
    code, out, err = run(capsys, "empty", files("aut.json", json.dumps(doc)))
    assert (code, out) == (65, "")
    assert field in err


def _domain_doc(domain, accepting=()):
    return {"states": ["p"], "alphabet": ["a"], "label_domain": domain,
            "initial": "p", "accepting": list(accepting), "edges": []}


@pytest.mark.parametrize(
    "field, command, doc",
    [
        ("label_domain.rank", "empty", _domain_doc({"kind": "word", "rank": 0})),
        ("label_domain.rank", "empty", _domain_doc({"kind": "word", "rank": 0}, ["p"])),
        ("label_domain.rank", "empty", _domain_doc({"kind": "word", "rank": -2})),
        ("label_domain.dim", "convert", _domain_doc({"kind": "matrix", "dim": 0})),
        ("label_domain.dim", "empty", _domain_doc({"kind": "matrix", "dim": "-1"})),
    ],
    ids=["rank-0", "rank-0-accepting", "rank-negative", "dim-0-convert", "dim-negative"],
)
def test_label_domains_below_one_exit_65(capsys, files, field, command, doc):
    code, out, err = run(capsys, command, files("aut.json", json.dumps(doc)))
    assert (code, out) == (65, "")
    assert err.count("\n") == 1 and field in err


def test_empty_with_no_path_to_an_accepting_state_is_unknown(capsys, files):
    # the initial state loops on epsilon and never reaches the accepting one,
    # so the bounded witness search has nothing to explore
    doc = {"states": ["s0", "s1"], "alphabet": ["a"], "label_domain": {"kind": "matrix", "dim": 3},
           "initial": "s0", "accepting": ["s1"],
           "edges": [{"src": "s0", "input": None, "dst": "s0",
                      "label": [["1", "-1", "0"], ["0", "1", "0"], ["0", "0", "1"]]}]}
    code, out, _ = run(capsys, "empty", files("aut.json", json.dumps(doc)), "--witness-len", "3")
    assert code == 2
    assert out.startswith("UNKNOWN")


def test_witness_search_pays_for_an_epsilon_loop_once(capsys, files, monkeypatch, moves):
    # s0 loops on epsilon with a register that grows at every turn, and every
    # configuration the loop reaches can read a into the accepting state s1;
    # the a edge flips the last coordinate, so no register there is I
    loop = IntMatrix([[1, -1, 0], [0, 1, 0], [0, 0, 1]])
    flip_last = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    v = ValenceAutomaton(
        ("s0", "s1"), ("a",), MatrixLabels(3),
        [Edge("s0", None, loop, "s0"), Edge("s0", "a", flip_last, "s1")], "s0", ("s1",),
    )
    path = files("aut.json", format_automaton(v))
    monkeypatch.setenv("MATDECIDE_REGISTER_CAP", "50")

    def explored(witness_len):
        moves[0] = 0
        assert run(capsys, "empty", path, "--witness-len", witness_len)[0] == 2
        return moves[0]

    epsilon_moves = explored("0")
    assert epsilon_moves > 0  # the fixture counts the search's moves
    # each letter move leaves one of the configurations that the epsilon
    # loop reaches, and each of those makes one epsilon move
    assert epsilon_moves <= explored("3") <= 2 * epsilon_moves


def _flooded_machine(dim: int) -> ValenceAutomaton:
    """s0 loops on epsilon with two labels of determinant 2, and reads a
    into a 30-state epsilon chain whose labels multiply back to I; each label
    is embedded as diag(M, 1, ..., 1)."""

    def embed(m):
        rows = [list(row) + [0] * (dim - 2) for row in m]
        return IntMatrix(rows + [[int(i == j) for j in range(dim)] for i in range(2, dim)])

    chain = [f"c{i}" for i in range(30)]
    edges = [
        Edge("s0", None, embed([[2, 1], [0, 1]]), "s0"),
        Edge("s0", None, embed([[1, 0], [1, 2]]), "s0"),
        Edge("s0", "a", embed([[1, 1], [0, 1]]), "c0"),
        *(Edge(p, None, embed([[1, 0], [0, 1]]), q) for p, q in zip(chain, chain[1:])),
        Edge("c29", None, embed([[1, -1], [0, 1]]), "acc"),
    ]
    return ValenceAutomaton(("s0", *chain, "acc"), ("a",), MatrixLabels(dim), edges, "s0",
                            ("acc",))


@pytest.mark.parametrize("dim", [2, 3])
def test_empty_skips_singular_labels_in_every_dimension(capsys, files, dim):
    # the epsilon loops would flood the witness search with growing
    # registers; none of them can return to I, so the search drops them
    path = files("aut.json", format_automaton(_flooded_machine(dim)))
    assert run(capsys, "empty", path) == (0, "NONEMPTY: witness 'a'\n", "")


def test_empty_finds_a_witness_through_a_growing_epsilon_cycle(capsys, files):
    # letters alone reach the identity only with four b per a, so a witness of
    # at most four symbols needs runs through the epsilon loops
    v = ValenceAutomaton(
        ("s0", "s1"), ("a", "b"), MatrixLabels(2),
        [
            Edge("s1", None, IntMatrix([[1, 0], [0, 1]]), "s0"),
            Edge("s0", "a", IntMatrix([[1, -4], [0, 1]]), "s1"),
            Edge("s1", "b", IntMatrix([[1, 1], [0, 1]]), "s1"),
            Edge("s1", "b", IntMatrix([[1, 0], [0, 1]]), "s0"),
            Edge("s1", None, IntMatrix([[2, -3], [1, -1]]), "s1"),
            Edge("s0", None, IntMatrix([[1, 0], [-2, 1]]), "s0"),
        ],
        "s0", ("s1",),
    )
    path = files("aut.json", format_automaton(v))
    code, out, _ = run(capsys, "empty", path, "--witness-len", "4")
    assert (code, out) == (0, "NONEMPTY: witness 'abab'\n")


def test_structured_outputs_are_deterministic(capsys, files):
    gens = files("gens.json", format_matrix_list([A, A_INV]))
    first = run(capsys, "identity", "--gens", gens, "--format", "structured")
    second = run(capsys, "identity", "--gens", gens, "--format", "structured")
    assert first == second
    payload = json.loads(first[1])
    assert payload["answer"] == "yes"
    assert payload["witness"] == [1, 2]


def test_convert_output_ignores_the_hash_seed(files):
    # state order comes from a breadth-first search, not from set iteration
    path = files("stj.json", format_automaton(build_membership_automaton(T, [S, T, J])))
    src = os.path.dirname(os.path.dirname(matdecide.__file__))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "matdecide.cli", "convert", path],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(parse_automaton(outputs[0]).states) == 25


class _Input(str):
    """Argument text written to a file, whose path replaces it in argv."""


def _mats(*ms):
    return _Input(format_matrix_list(list(ms)))


def _block3(m: IntMatrix) -> IntMatrix:
    return IntMatrix([list(m.entries[0]) + [0], list(m.entries[1]) + [0], [0, 0, 1]])


_MEMBER_SUFFIX = " (signed generator indices, negative = inverse)"
_SINGULAR = IntMatrix([[2, 0], [0, 1]])
_X = FreeWord([1], 2)
# symbols of two characters and of one: the witness is a list of symbols,
# since the joined "aaa" would not say which input was read
_TWO_CHAR_SYMBOL = ValenceAutomaton(
    ("p", "q", "r"), ("aa", "a"), WordLabels(2),
    [Edge("p", "aa", _X, "q"), Edge("q", "a", _X.inverse(), "r")], "p", ("r",),
)


@pytest.mark.parametrize(
    "argv, code, text, structured",
    [
        pytest.param(
            ["member", "--target", _Input(format_matrix(A * B)), "--gens", _mats(A, B)],
            0, "yes: witness 1 2" + _MEMBER_SUFFIX,
            '{"answer": "yes", "command": "member", "witness": [1, 2]}',
            id="member-yes"),
        pytest.param(
            ["member", "--target", _Input(format_matrix(B)), "--gens", _mats(A)],
            1, "no: decided by coset conversion and emptiness of the membership machine",
            '{"answer": "no", "command": "member", "reason": "decided by coset conversion '
            'and emptiness of the membership machine"}',
            id="member-no"),
        pytest.param(
            ["member", "--target", _Input(format_matrix(B)), "--gens", _mats(A),
             "--bounded", "4"],
            2, "unknown: no product of length <= 4 matches (absence at the bound proves nothing)",
            '{"answer": "unknown", "bound": 4, "command": "member", "witness": null}',
            id="member-bounded-unknown"),
        pytest.param(
            ["member", "--target", _Input('[["9","3"],["0","0"]]'),
             "--gens", _mats(IntMatrix([[3, 1], [0, 0]]), IntMatrix([[0, 1], [-1, -2]])),
             "--bounded", "3"],
            2, "unknown: no product of length <= 3 matches (absence at the bound proves nothing)",
            '{"answer": "unknown", "bound": 3, "command": "member", "witness": null}',
            id="member-bounded-singular-target"),
        pytest.param(
            ["member", "--target", _Input(format_matrix(IntMatrix([[1, 20], [0, 1]]))),
             "--gens", _mats(A)],
            0, "yes (no witness found within the search depth)",
            '{"answer": "yes", "command": "member", "witness": null}',
            id="member-yes-no-witness"),
        pytest.param(
            ["identity", "--gens", _mats(_SINGULAR, A, A_INV)],
            0, "yes: witness 2 3",
            '{"answer": "yes", "command": "identity", "witness": [2, 3]}',
            id="identity-yes"),
        pytest.param(
            ["identity", "--gens", _mats(_SINGULAR, A, A_INV), "--bounded", "3"],
            0, "yes: witness 2 3",
            '{"answer": "yes", "bound": 3, "command": "identity", "witness": [2, 3]}',
            id="identity-bounded-yes"),
        pytest.param(
            ["identity", "--gens", _mats(A, B)],
            1, "no: decided by coset conversion and emptiness of the identity machine",
            '{"answer": "no", "command": "identity", "reason": "decided by coset conversion '
            'and emptiness of the identity machine"}',
            id="identity-no"),
        pytest.param(
            ["identity", "--gens", _mats(_block4(A))],
            2, "unknown: no product of length <= 8 equals the identity "
               "(absence at the bound proves nothing)",
            '{"answer": "unknown", "bound": 8, "command": "identity", "witness": null}',
            id="identity-4x4-unknown"),
        pytest.param(
            ["empty", _Input(format_automaton(build_identity_automaton([A])))],
            1, "EMPTY", '{"answer": "empty", "command": "empty", "witness": null}',
            id="empty-empty"),
        pytest.param(
            ["empty", _Input(format_automaton(build_membership_automaton(A, [A_INV])))],
            0, "NONEMPTY: witness 'aa'",
            '{"answer": "nonempty", "command": "empty", "witness": "aa"}',
            id="empty-nonempty"),
        pytest.param(
            ["empty", _Input(format_automaton(build_membership_automaton(A, [A_INV]))),
             "--witness-len", "0"],
            0, "NONEMPTY (no witness found within the search bounds)",
            '{"answer": "nonempty", "command": "empty", "witness": null}',
            id="empty-nonempty-no-witness"),
        pytest.param(
            ["empty", _Input(format_automaton(_TWO_CHAR_SYMBOL))],
            0, "NONEMPTY: witness ['aa', 'a']",
            '{"answer": "nonempty", "command": "empty", "witness": ["aa", "a"]}',
            id="empty-nonempty-symbol-list"),
        pytest.param(
            ["empty", _Input(format_automaton(build_identity_automaton([_block3(A)])))],
            2, "UNKNOWN: no exact emptiness procedure for 3x3 labels "
               "and bounded search found no witness",
            '{"answer": "unknown", "command": "empty", "witness": null}',
            id="empty-3x3-unknown"),
        pytest.param(
            ["member", "--target", _Input(format_matrix(A * B_INV)), "--gens", _mats(A, B),
             "--bounded", "8"],
            0, "yes: witness 1 -2" + _MEMBER_SUFFIX,
            '{"answer": "yes", "bound": 8, "command": "member", "witness": [1, -2]}',
            id="member-bounded-yes"),
        pytest.param(
            ["member", "--target", _Input(format_matrix(IntMatrix.identity(2))),
             "--gens", _mats(_SINGULAR), "--bounded", "8"],
            0, "yes: witness (empty product)" + _MEMBER_SUFFIX,
            '{"answer": "yes", "bound": 8, "command": "member", "witness": []}',
            id="member-bounded-empty-product-singular"),
        pytest.param(
            ["member", "--target", _Input(format_matrix(A_INV)), "--gens", _mats(_SINGULAR, A),
             "--bounded", "8"],
            0, "yes: witness -2" + _MEMBER_SUFFIX,
            '{"answer": "yes", "bound": 8, "command": "member", "witness": [-2]}',
            id="member-bounded-skips-singular"),
        pytest.param(
            ["search", "--target", _Input(format_matrix(A * B)), "--gens", _mats(A, B)],
            0, "yes: witness 1 2",
            '{"answer": "yes", "bound": 8, "command": "search", "witness": [1, 2]}',
            id="search-found"),
        # search counts products of 1..K generators, so I needs a word
        pytest.param(
            ["search", "--target", _Input(format_matrix(IntMatrix.identity(2))),
             "--gens", _mats(A)],
            2, "unknown: no product of length <= 8 matches (absence at the bound proves nothing)",
            '{"answer": "unknown", "bound": 8, "command": "search", "witness": null}',
            id="search-empty-product"),
        pytest.param(
            ["search", "--target", _Input(format_matrix(IntMatrix.identity(2))),
             "--gens", _mats(_SINGULAR)],
            2, "unknown: no product of length <= 8 matches (absence at the bound proves nothing)",
            '{"answer": "unknown", "bound": 8, "command": "search", "witness": null}',
            id="search-empty-product-singular"),
        pytest.param(
            ["search", "--target", _Input(format_matrix(A)), "--gens", _mats(_SINGULAR, A)],
            0, "yes: witness 2",
            '{"answer": "yes", "bound": 8, "command": "search", "witness": [2]}',
            id="search-skips-singular"),
        pytest.param(
            ["search", "--target", _Input(format_matrix(A * B_INV)), "--gens", _mats(A, B),
             "--max-len", "4"],
            2, "unknown: no product of length <= 4 matches (absence at the bound proves nothing)",
            '{"answer": "unknown", "bound": 4, "command": "search", "witness": null}',
            id="search-not-found"),
    ],
)
def test_every_answer_kind_in_both_formats(capsys, files, argv, code, text, structured):
    argv = [files(f"in{i}.json", a) if isinstance(a, _Input) else a for i, a in enumerate(argv)]
    assert run(capsys, *argv)[:2] == (code, text + "\n")
    got = run(capsys, *argv, "--format", "structured")
    assert got[:2] == (code, structured + "\n")
    assert json.loads(got[1])["command"] == argv[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", '[["5","2"],["2","1"]]'],
        ["cosets"],
        ["member", "--target", _Input(format_matrix(A * B)), "--gens", _mats(A, B)],
        ["identity", "--gens", _mats(A, A_INV)],
        ["empty", _Input(format_automaton(build_membership_automaton(A, [A_INV])))],
        ["convert", _Input(format_automaton(build_membership_automaton(A, [B])))],
        ["search", "--target", _Input(format_matrix(A * B)), "--gens", _mats(A, B)],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_return_their_answer_and_main_writes_it(capsys, files, argv):
    argv = [files(f"in{i}.json", a) if isinstance(a, _Input) else a for i, a in enumerate(argv)]
    args = cli._build_parser().parse_args(argv)
    code, lines, fields = args.func(args)
    assert capsys.readouterr().out == ""
    assert isinstance(code, int) and all(isinstance(line, str) for line in lines)
    assert run(capsys, *argv)[:2] == (code, "".join(f"{line}\n" for line in lines))
    if argv[0] != "convert":  # convert writes only its document
        structured = json.dumps({"command": argv[0], **fields}, sort_keys=True) + "\n"
        assert run(capsys, *argv, "--format", "structured")[:2] == (code, structured)


def test_convert_takes_no_format_option(capsys, files):
    path = files("a.json", format_automaton(build_membership_automaton(A, [B])))
    with pytest.raises(SystemExit) as exc:
        main(["convert", path, "--format", "structured"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (64, "")
    assert "--format" in err


@pytest.mark.parametrize("entry", ['"1{}"', "1{}"], ids=["string", "bare"])
def test_entries_over_the_digit_limit_are_malformed_input(capsys, files, entry):
    big = entry.format("0" * 5000)  # 5001 digits
    target = files("y.json", f'[[{big},"0"],["0","1"]]')
    gens = files("gens.json", format_matrix_list([A]))
    code, out, err = run(capsys, "member", "--target", target, "--gens", gens)
    assert (code, out) == (65, "")
    assert err.count("\n") == 1 and err.startswith("matdecide: ")
    assert "set_int_max_str_digits" not in err
    if entry.startswith('"'):
        assert "matrix[0][0]" in err


_DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize(
    "argv",
    [["factor", "--file", _Input(_DEEP)],
     ["member", "--target", _Input(_DEEP), "--gens", _mats(A)],
     ["empty", _Input(_DEEP)],
     ["convert", _Input(_DEEP)]],
    ids=lambda argv: argv[0],
)
def test_deeply_nested_json_is_malformed_input(capsys, files, argv):
    argv = [files(f"in{i}.json", a) if isinstance(a, _Input) else a for i, a in enumerate(argv)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (65, "")
    assert err.count("\n") == 1 and "nested too deeply" in err


def _word_doc(labels, rank=2):
    """A word-labelled document whose i-th edge runs p -> q with labels[i]."""
    return {"states": ["p", "q"], "alphabet": ["x"],
            "label_domain": {"kind": "word", "rank": rank},
            "initial": "p", "accepting": ["q"],
            "edges": [{"src": "p", "input": "x", "label": label, "dst": "q"}
                      for label in labels]}


@pytest.mark.parametrize("rank", [27, "100000000"], ids=["rank-27", "rank-huge"])
def test_word_ranks_over_26_exit_65(capsys, files, rank):
    # only a..z name generators; a larger rank is refused before any table
    # of the pushdown engine is built
    path = files("aut.json", json.dumps(_word_doc(["a a'"], rank)))
    code, out, err = run(capsys, "empty", "--checked", path)
    assert (code, out) == (65, "")
    assert err.count("\n") == 1 and "label_domain.rank: word rank must be at most 26" in err


@pytest.mark.parametrize(
    "labels, rank, message",
    [
        (["zz"], 2, "edges[0].label: bad generator token 'zz'"),
        (["a c"], 2, "edges[0].label: generator 'c' out of range for rank 2"),
        (["a b'", "zz", "a b'", "zz"], 2, "edges[1].label: bad generator token 'zz'"),
        (["b", "c", "b", "c"], 2, "edges[1].label: generator 'c' out of range for rank 2"),
    ],
    ids=["bad-token", "out-of-range", "bad-token-repeated", "out-of-range-repeated"],
)
def test_bad_word_labels_exit_65(capsys, files, labels, rank, message):
    path = files("aut.json", json.dumps(_word_doc(labels, rank)))
    code, out, err = run(capsys, "empty", path)
    assert (code, out) == (65, "")
    assert err.count("\n") == 1 and message in err


def test_a_label_text_is_read_afresh_in_every_document(capsys, files):
    # "c" names a generator at rank 3 only, and "zz" never does; each call
    # must judge a text by its own document and name its own edge
    calls = [(_word_doc(["c c'"], 3), 0, ""), (_word_doc(["c c'"], 2), 65, "edges[0].label"),
             (_word_doc(["a", "b", "zz"], 2), 65, "edges[2].label: bad generator token 'zz'"),
             (_word_doc(["zz", "a"], 2), 65, "edges[0].label: bad generator token 'zz'"),
             (_word_doc(["a", "c c'", "a"], 3), 0, "")]
    for doc, expected, message in calls:
        code, _, err = run(capsys, "empty", files("aut.json", json.dumps(doc)))
        assert code == expected and message in err


def test_repeated_label_texts_parse_like_labels_read_one_at_a_time():
    texts = ["a b'", "", "a b'", "ε", "b\ta^-1", "a b'", "b a'", "a a'", "", "b\ta^-1"]
    doc = _word_doc(texts)
    doc["states"] += ["r"]
    for i, edge in enumerate(doc["edges"]):
        edge["dst"] = ["p", "q", "r"][i % 3]
    parsed = parse_automaton(json.dumps(doc))
    edges = [Edge("p", "x", FreeWord.from_text(t, 2), ["p", "q", "r"][i % 3])
             for i, t in enumerate(texts)]
    one_at_a_time = ValenceAutomaton(["p", "q", "r"], ["x"], WordLabels(2), edges, "p", ["q"])
    assert parsed == one_at_a_time
    # edges 5, 7 and 9 repeat edges 2, 1 and 6 once read, and are dropped
    assert [(e.label.to_text(), e.dst) for e in parsed.edges] == [
        ("a b'", "p"), ("ε", "q"), ("a b'", "r"), ("ε", "p"), ("b a'", "q"), ("b a'", "p"),
        ("ε", "r")]


def _cli_child(*argv, **kwargs):
    """Start the command line in a child process that imports this checkout."""
    src = os.path.dirname(os.path.dirname(matdecide.__file__))
    return subprocess.Popen(
        [sys.executable, "-m", "matdecide.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kwargs,
    )


def test_a_closed_standard_output_exits_74_quietly():
    # a^100000 is 200 KB of text, more than the pipe holds, so the writer
    # is still writing when the reader closes its end
    with _cli_child("factor", '[["1","200000"],["0","1"]]') as proc:
        assert proc.stdout.read(10) == "a a a a a "
        proc.stdout.close()
        err = proc.stderr.read()  # neither an internal error nor an exit-time flush error
        assert (proc.wait(timeout=60), err) == (74, "")


def test_running_out_of_memory_is_unknown(files):
    """A search that exhausts memory answers unknown, not internal error.
    Run in a child process under a 128 MiB address-space limit, which the
    layers of a length-20 group search outgrow."""
    resource = pytest.importorskip("resource")
    target = files("target.json", format_matrix(T))
    gens = files("gens.json", format_matrix_list([A, B]))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))

    argv = ("member", "--bounded", "20", "--target", target, "--gens", gens)
    with _cli_child(*argv, preexec_fn=limit) as proc:
        out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (2, "", "matdecide: out of memory before an answer\n")
