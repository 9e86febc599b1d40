"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run pytest with -s to see them). Every expected value is either
computed by an independent brute-force oracle in this file or is a frozen
hand-checked constant; tolerances here are exact equality and the stated
runtime ceilings.
"""

import random
import time

from matdecide.automata import (
    Edge,
    MatrixLabels,
    SimResult,
    ValenceAutomaton,
    bounded_accepts,
    to_free_group_automaton,
)
from matdecide.cli import main as cli_main
from matdecide.deciders import (
    decide_identity_in_semigroup,
    decide_subgroup_membership,
    identity_in_semigroup_bounded,
)
from matdecide.formats import format_automaton, format_matrix, format_matrix_list
from matdecide.matrix import IntMatrix
from matdecide.pda import free_automaton_emptiness, from_free_automaton, pda_emptiness
from matdecide.sanov import (
    build_coset_table,
    default_coset_table,
    eval_word,
    factor_in_sanov,
    schreier_rewrite,
)
from matdecide.words import FreeWord

from conftest import (
    A,
    A_INV,
    B,
    B_INV,
    I2,
    S,
    all_strings,
    random_matrix_automaton,
    random_reduced_word,
    random_unimodular,
    random_word_automaton,
)


class _Timer:
    def __init__(self, name: str, limit: float):
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None and elapsed < self.limit:
            print(f"PASS {self.name} ({elapsed:.2f}s < {self.limit:.0f}s)")
            return False
        if exc_type is None:
            raise AssertionError(
                f"FAIL {self.name}: runtime {elapsed:.2f}s exceeds {self.limit:.0f}s"
            )
        print(f"FAIL {self.name} ({elapsed:.2f}s)")
        return False


def test_criterion_1_sanov_roundtrip():
    rng = random.Random(101)
    with _Timer("criterion 1: factorization round-trip on 1000 words", 5.0):
        for _ in range(1000):
            word = random_reduced_word(rng, 12)
            assert factor_in_sanov(eval_word(word)) == word


def test_criterion_2_coset_table_and_rewriting():
    rng = random.Random(202)
    with _Timer("criterion 2: 24-coset closure and 500 rewrite equations", 10.0):
        table = build_coset_table()
        assert table.size == 24
        for _ in range(500):
            g = random_unimodular(rng, 5)
            for c in range(table.size):
                c2, word = schreier_rewrite(table, c, g)
                assert table.reps[c] * g == eval_word(word) * table.reps[c2]


def test_criterion_3_conversion_preserves_language():
    rng = random.Random(303)
    table = default_coset_table()
    definitive = (SimResult.ACCEPTED, SimResult.NO)
    with _Timer("criterion 3: coset conversion agreement on 100 machines", 60.0):
        compared = accepted = 0
        for _ in range(100):
            v = random_matrix_automaton(rng)
            image = to_free_group_automaton(v, table)
            for s in all_strings(("a", "b"), 4):
                r1 = bounded_accepts(v, s, register_cap=10**4, config_budget=2000)
                r2 = bounded_accepts(image, s, register_cap=48, config_budget=2000)
                if r1 in definitive and r2 in definitive:
                    assert r1 is r2, (v.edges, s, r1, r2)
                    compared += 1
                    accepted += r1 is SimResult.ACCEPTED
        assert compared >= 500
        assert accepted >= 20


def _cancellation_machines():
    """Hand-built shapes whose acceptance hinges on popping an inverse letter
    that was pushed first."""
    from matdecide.automata import WordLabels

    def w(text):
        return FreeWord.from_text(text, 2)

    cases = []
    for first, second in (("a'", "a"), ("b'", "b"), ("a' b'", "b a")):
        cases.append(
            ValenceAutomaton(
                ("p", "q", "r"),
                ("a", "b"),
                WordLabels(2),
                [Edge("p", "a", w(first), "q"), Edge("q", "b", w(second), "r")],
                "p",
                ("r",),
            )
        )
    return cases


def test_criterion_4_emptiness_cross_check():
    rng = random.Random(404)
    with _Timer("criterion 4: dual emptiness engines on 200 machines", 30.0):
        machines = _cancellation_machines()
        for v in machines:
            assert not free_automaton_emptiness(v)
        machines += [random_word_automaton(rng) for _ in range(200)]
        nonempty = 0
        for v in machines:
            by_saturation = free_automaton_emptiness(v)
            by_pda = pda_emptiness(from_free_automaton(v))
            assert by_saturation == by_pda, v.edges
            nonempty += not by_saturation
        assert nonempty >= 20


def test_criterion_5_membership_end_to_end():
    rng = random.Random(505)
    with _Timer("criterion 5: 200 planted memberships plus negatives", 120.0):
        for _ in range(200):
            gens = [eval_word(random_reduced_word(rng, 4)) for _ in range(rng.randint(1, 2))]
            gens += [random_unimodular(rng, 4) for _ in range(rng.randint(1, 2))]
            y = I2
            for _ in range(rng.randint(0, 5)):
                g = rng.choice(gens)
                y = y * (g if rng.random() < 0.5 else g.inverse_unimodular())
            assert decide_subgroup_membership(y, gens).answer

        # structural negatives: the determinant gate
        for _ in range(25):
            m = IntMatrix([[rng.randint(-6, 6) for _ in range(2)] for _ in range(2)])
            if not m.is_unimodular():
                assert not decide_subgroup_membership(m, [A, B]).answer
        assert not decide_subgroup_membership(IntMatrix([[2, 0], [0, 1]]), [A, B]).answer

        # upper vs lower unitriangular generators never mix
        assert not decide_subgroup_membership(A, [B]).answer

        # conjugation invariance on 50 mixed instances
        for _ in range(50):
            gens = [random_unimodular(rng, 3) for _ in range(2)]
            y = random_unimodular(rng, 4)
            p = random_unimodular(rng, 4)
            p_inv = p.inverse_unimodular()
            conjugated = [p * g * p_inv for g in gens]
            assert (decide_subgroup_membership(y, gens).answer
                    == decide_subgroup_membership(p * y * p_inv, conjugated).answer)


def test_criterion_6_identity_agrees_with_bounded_search():
    rng = random.Random(606)
    with _Timer("criterion 6: identity decider vs bounded search", 60.0):
        bounded_hits = 0
        attempts = 0
        while bounded_hits < 100 and attempts < 400:
            attempts += 1
            gens = [random_unimodular(rng, 3) for _ in range(rng.randint(1, 3))]
            roll = rng.random()
            if roll < 0.45:
                gens.append(rng.choice(gens).inverse_unimodular())
            elif roll < 0.65:
                gens.append(S)  # order 4, seeds short identity products
            witness = identity_in_semigroup_bounded(gens, 8)
            decided = decide_identity_in_semigroup(gens).answer
            if witness is not None:
                bounded_hits += 1
                assert decided, gens  # zero false negatives
                product = I2
                for i in witness:
                    product = product * gens[i - 1]
                assert product == I2
        assert bounded_hits >= 100


def _diag4(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    rows = [list(x.entries[i]) + [0, 0] for i in range(2)]
    return IntMatrix(rows + [[0, 0] + list(y.entries[i]) for i in range(2)])


def _block4(m: IntMatrix) -> IntMatrix:
    return _diag4(m, m)


def test_criterion_7_no_definitive_no_beyond_2x2(tmp_path, capsys):
    rng = random.Random(707)
    with _Timer("criterion 7: 4x4 answers are witness or unknown only", 30.0):
        def run_cli(*argv):
            code = cli_main(list(argv))
            capsys.readouterr()
            return code

        def write(name, text):
            path = tmp_path / name
            path.write_text(text)
            return str(path)

        block_s = _block4(S)
        block_a = _block4(A)

        gens_with_identity = write("g1.json", format_matrix_list([block_s]))
        assert run_cli("identity", "--gens", gens_with_identity) == 0

        gens_without = write("g2.json", format_matrix_list([block_a]))
        assert run_cli("identity", "--gens", gens_without) == 2

        target_hit = write("t1.json", format_matrix(block_a * block_a))
        assert run_cli("member", "--target", target_hit, "--gens", gens_without) == 0

        target_miss = write("t2.json", format_matrix(_block4(B)))
        assert run_cli("member", "--target", target_miss, "--gens", gens_without) == 2

        # random 4x4 instances: exit code 1 must never appear
        for k in range(10):
            gens = [_block4(random_unimodular(rng, 3)) for _ in range(rng.randint(1, 3))]
            target = _block4(random_unimodular(rng, 3))
            gens_path = write(f"rg{k}.json", format_matrix_list(gens))
            target_path = write(f"rt{k}.json", format_matrix(target))
            assert run_cli("member", "--target", target_path, "--gens", gens_path) in (0, 2)
            assert run_cli("identity", "--gens", gens_path, "--bounded", "4") in (0, 2)


def pcp_automaton(pairs) -> ValenceAutomaton:
    """The paper's 4x4 undecidability construction for a Post Correspondence
    instance (u_1, v_1), ..., (u_k, v_k) over {a, b}. Reading index i from s
    or t multiplies the register by diag(phi(u_i), phi(v_i)), with phi(a) = A
    and phi(b) = B; then t -e-> r, and r loops on epsilon with diag(A', A')
    and diag(B', B'). The register ends as diag(phi(U) W, phi(V) W), which is
    the identity iff phi(U) = phi(V), iff U = V since A and B generate a free
    group. So the language is exactly the instance's solutions."""
    phi = {"a": A, "b": B}

    def image(text):
        m = I2
        for c in text:
            m = m * phi[c]
        return m

    symbols = [str(i) for i in range(1, len(pairs) + 1)]
    edges = [Edge("t", None, IntMatrix.identity(4), "r"),
             Edge("r", None, _diag4(A_INV, A_INV), "r"),
             Edge("r", None, _diag4(B_INV, B_INV), "r")]
    for sym, (u, v) in zip(symbols, pairs):
        label = _diag4(image(u), image(v))
        edges += [Edge("s", sym, label, "t"), Edge("t", sym, label, "t")]
    return ValenceAutomaton(("s", "t", "r"), symbols, MatrixLabels(4), edges, "s", ("r",))


def test_criterion_8_pcp_gives_its_solution_or_unknown(tmp_path, capsys, monkeypatch):
    with _Timer("criterion 8: 4x4 PCP construction gives its solution or unknown", 5.0):
        def empty(pairs, witness_len, cap):
            monkeypatch.setenv("MATDECIDE_REGISTER_CAP", str(cap))
            path = tmp_path / "pcp.json"
            path.write_text(format_automaton(pcp_automaton(pairs)))
            code = cli_main(["empty", str(path), "--witness-len", str(witness_len)])
            return code, capsys.readouterr().out

        def solves(pairs, indices):
            return "".join(pairs[int(i) - 1][0] for i in indices) == "".join(
                pairs[int(i) - 1][1] for i in indices)

        planted = [
            ([("ab", "a"), ("b", "bb")], 2, "12"),
            ([("a", "baa"), ("ab", "aa"), ("bba", "bb")], 4, "3231"),
        ]
        for pairs, witness_len, solution in planted:
            assert solves(pairs, solution)
            assert empty(pairs, witness_len, 1000) == (0, f"NONEMPTY: witness {solution!r}\n")

        # every |u_i| > |v_i|, so there is no solution; the answer must be
        # unknown, never a definitive empty
        code, out = empty([("aa", "a"), ("ba", "b")], 3, 64)
        assert code == 2 and out.startswith("UNKNOWN")
