"""Self-tests of the benchmark: seeded generators, planted truth checked
against matdecide's independent oracles, the answer checker, and the run
contract. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402
from matdecide.automata import (  # noqa: E402
    build_identity_automaton,
    build_membership_automaton,
    to_free_group_automaton,
)
from matdecide.deciders import identity_in_semigroup_bounded  # noqa: E402
from matdecide.formats import parse_automaton  # noqa: E402
from matdecide.matrix import IntMatrix  # noqa: E402
from matdecide.oracle import group_word_search  # noqa: E402
from matdecide.pda import from_free_automaton, pda_emptiness  # noqa: E402
from matdecide.sanov import default_coset_table  # noqa: E402


def M(m: W.Mat) -> IntMatrix:
    return IntMatrix([[m[0], m[1]], [m[2], m[3]]])


def pushdown_empty(machine) -> bool:
    """Emptiness by the pushdown saturation engine, not the closure."""
    word = to_free_group_automaton(machine, default_coset_table())
    return pda_emptiness(from_free_automaton(word))


def symmetrized(gens):
    ms = [M(g) for g in gens]
    return list(dict.fromkeys(ms + [m.inverse_unimodular() for m in ms]))


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_rounds_are_deterministic_per_seed(workload):
    assert W.make_round(workload, 3, 1) == W.make_round(workload, 3, 1)
    assert W.make_round(workload, 3, 1) != W.make_round(workload, 4, 1)
    assert W.make_round(workload, 3, 1) != W.make_round(workload, 3, 2)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_rounds_have_fixed_composition(workload):
    def shape(q):
        return (q.truth, q.k, len(q.gens))

    a = sorted(map(shape, W.make_round(workload, 1, 0)))
    assert a == sorted(map(shape, W.make_round(workload, 2, 5)))
    assert sum(truth for truth, _, _ in a) * 2 == len(a)


def test_exact_arithmetic():
    for q in W.make_round("member_mixed", 0, 0):
        for g in q.gens:
            assert W.det(g) in (1, -1)
            assert W.mul(g, W.inv(g)) == W.I2
            assert M(W.mul(g, q.target)) == M(g) * M(q.target)


@pytest.mark.parametrize("seed", [0, 1])
def test_member_mixed_truth(seed):
    for q in W.make_round("member_mixed", seed, 0):
        y = M(q.target)
        if q.truth:
            witness = group_word_search(y, [M(g) for g in q.gens], 5)
            assert witness is not None, q
            factors = [q.gens[abs(i) - 1] if i > 0 else W.inv(q.gens[abs(i) - 1])
                       for i in witness]
            assert W.product(factors) == q.target
        else:
            assert pushdown_empty(build_membership_automaton(y, symmetrized(q.gens))), q


@pytest.mark.parametrize("seed", [0, 1])
def test_identity_truth(seed):
    for q in W.make_round("identity_checked", seed, 0):
        gens = [M(g) for g in q.gens]
        if q.truth:
            assert identity_in_semigroup_bounded(gens, len(gens)) is not None, q
        else:
            assert pushdown_empty(build_identity_automaton(gens)), q
            assert identity_in_semigroup_bounded(gens, 4) is None


def test_magnitude_truth():
    for q in W.make_round("magnitude", 0, 0):
        k = q.k
        assert all(tuple(x % k for x in g) == (1, 0, 0, 1) for g in q.gens)
        if q.truth:
            assert group_word_search(M(q.target), [M(g) for g in q.gens], 3) is not None
        else:
            assert tuple(x % k for x in q.target) != (1, 0, 0, 1)
            if k <= 32:
                machine = build_membership_automaton(M(q.target), symmetrized(q.gens))
                assert pushdown_empty(machine)


@pytest.mark.parametrize("seed", [0, 1])
def test_word_emptiness_truth(seed):
    for q in W.make_round("word_emptiness", seed, 0):
        doc = json.loads(q.doc)
        assert len(doc["states"]) == W.EMPTINESS_STATES
        assert len(doc["edges"]) == W.EMPTINESS_EDGES
        v = parse_automaton(q.doc)
        assert pda_emptiness(from_free_automaton(v)) is (not q.truth), q.qid


def test_checker_rejects_wrong_answers():
    q = next(q for q in W.make_round("member_mixed", 0, 0) if q.truth)
    witness = group_word_search(M(q.target), [M(g) for g in q.gens], 5)
    good = {"command": "member", "answer": "yes", "witness": list(witness)}
    assert W.check_structured(q, "member", 0, good) is None
    assert W.check_structured(q, "member", 1, good) is not None
    assert W.check_structured(q, "member", 0, dict(good, answer="no")) is not None
    assert W.check_structured(q, "member", 0, dict(good, witness=None)) is not None
    bad = list(witness) + [1]  # generator 1 is a nonempty Sanov word, never I
    assert W.check_structured(q, "member", 0, dict(good, witness=bad)) is not None
    assert W.check_structured(q, "member", 0, dict(good, witness=[99])) is not None


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric(trace):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    done = _run(HERE.parent, "--workload", "word_emptiness", "--seed", "1",
                "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = bench["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_run_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "magnitude", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_gauge_scales_by_the_readings_around_a_query():
    import gauge

    meter = gauge.Gauge()
    ref = gauge.REFERENCE_S
    meter.readings = [ref] * 9 + [2 * ref] * 9
    assert meter.scale(0) == 1.0
    assert meter.scale(18) == 0.5
    meter.readings = [ref, 4 * ref]  # fewer readings than the window
    assert meter.scale(1) == pytest.approx(0.4)
