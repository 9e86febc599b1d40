"""End-to-end CLI checks, including the exit-code contract: 0 yes/witness,
1 no, 2 unknown, 64 usage, 65 malformed input, 70 internal error, 73 cannot
create the output file. Dimensions other than 2 must never produce a
definitive no."""

import json
import os
import subprocess
import sys

import pytest

import matdecide
from matdecide import cli, deciders
from matdecide.cli import main
from matdecide.formats import format_automaton, format_matrix, format_matrix_list, parse_automaton
from matdecide.automata import build_identity_automaton, build_membership_automaton
from matdecide.matrix import IntMatrix

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


def test_factor_malformed(capsys):
    code, _, err = run(capsys, "factor", "[[1,2]")
    assert code == 65
    assert "line 1" in err


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
    target = files("y.json", format_matrix(A_INV))
    gens = files("gens.json", format_matrix_list([A]))
    code, out, _ = run(capsys, "member", "--target", target, "--gens", gens, "--bounded", "4")
    assert code == 2
    assert "unknown" in out


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
    monkeypatch.setenv("MATDECIDE_REGISTER_CAP", "not-a-number")
    assert run(capsys, "empty", path)[0] == 65
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
    code2, out2, _ = run(
        capsys, "search", "--target", target, "--gens", gens, "--max-len", "4", "--group"
    )
    assert code2 == 0
    assert "1 -2" in out2


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
    search = run(capsys, "search", "--target", target, "--gens", gens, "--group")
    assert search[:2] == (0, "found: 1 2\n")
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
    ],
    ids=["src", "dst", "initial", "accepting"],
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
            ["member", "--target", _Input(format_matrix(A_INV)), "--gens", _mats(A),
             "--bounded", "4"],
            2, "unknown: no product of length <= 4 matches (absence at the bound proves nothing)",
            '{"answer": "unknown", "bound": 4, "command": "member", "witness": null}',
            id="member-bounded-unknown"),
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
            ["empty", _Input(format_automaton(build_identity_automaton([_block3(A)])))],
            2, "UNKNOWN: no exact emptiness procedure for 3x3 labels "
               "and bounded search found no witness",
            '{"answer": "unknown", "command": "empty", "witness": null}',
            id="empty-3x3-unknown"),
        pytest.param(
            ["search", "--target", _Input(format_matrix(A * B_INV)), "--gens", _mats(A, B),
             "--group"],
            0, "found: 1 -2", '{"answer": "found", "command": "search", "witness": [1, -2]}',
            id="search-found"),
        pytest.param(
            ["search", "--target", _Input(format_matrix(IntMatrix.identity(2))),
             "--gens", _mats(A), "--group"],
            0, "found: (empty product)",
            '{"answer": "found", "command": "search", "witness": []}',
            id="search-empty-product"),
        pytest.param(
            ["search", "--target", _Input(format_matrix(A * B_INV)), "--gens", _mats(A, B),
             "--max-len", "4"],
            2, "not found within length 4",
            '{"answer": "not-found", "command": "search", "witness": null}',
            id="search-not-found"),
    ],
)
def test_every_answer_kind_in_both_formats(capsys, files, argv, code, text, structured):
    argv = [files(f"in{i}.json", a) if isinstance(a, _Input) else a for i, a in enumerate(argv)]
    assert run(capsys, *argv)[:2] == (code, text + "\n")
    got = run(capsys, *argv, "--format", "structured")
    assert got[:2] == (code, structured + "\n")
    assert json.loads(got[1])["command"] == argv[0]


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
