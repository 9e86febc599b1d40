"""Seeded workload generators with planted truth, and the exact arithmetic the
benchmark uses to check answers.

Nothing here imports matdecide: inputs are built and answers are checked with
the benchmark's own 2x2 integer arithmetic, so a defect in the program cannot
hide in its own checker. A matrix is a tuple (a, b, c, d) for [[a, b], [c, d]].

Every round of a workload is a fixed grid of strata (yes/no, generator count,
target length, magnitude, ...) in a seeded order, with the seed choosing the
random content of each stratum. A run executes whole rounds, so two seeds
give runs of the same composition and differ only in content.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Optional

Mat = tuple[int, int, int, int]

I2: Mat = (1, 0, 0, 1)
A: Mat = (1, 2, 0, 1)  # Sanov generators
B: Mat = (1, 0, 2, 1)
T: Mat = (1, 1, 0, 1)
S: Mat = (0, -1, 1, 0)
J: Mat = (1, 0, 0, -1)
L: Mat = (1, 0, 1, 1)


def mul(x: Mat, y: Mat) -> Mat:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def det(m: Mat) -> int:
    return m[0] * m[3] - m[1] * m[2]


def inv(m: Mat) -> Mat:
    """Exact inverse of a unimodular matrix (det +-1)."""
    d = det(m)
    if d not in (1, -1):
        raise ValueError(f"not unimodular: {m}")
    a, b, c, e = m
    return (d * e, -d * b, -d * c, d * a)


def product(ms) -> Mat:
    out = I2
    for m in ms:
        out = mul(out, m)
    return out


def to_obj(m: Mat) -> list[list[str]]:
    return [[str(m[0]), str(m[1])], [str(m[2]), str(m[3])]]


# Unimodular matrices whose products reach every coset of the Sanov subgroup.
GL2_POOL = (A, B, inv(A), inv(B), S, T, J, inv(S), inv(T), L)


def random_unimodular(rng: random.Random, length: int) -> Mat:
    """A product of `length` random pool matrices."""
    return product(rng.choice(GL2_POOL) for _ in range(length))


def random_letters(rng: random.Random, length: int, positive: bool = False) -> list[int]:
    """A freely reduced word of exactly `length` letters over a=1, b=2."""
    choices = (1, 2) if positive else (1, -1, 2, -2)
    letters: list[int] = []
    while len(letters) < length:
        x = rng.choice(choices)
        if not letters or letters[-1] != -x:
            letters.append(x)
    return letters


_SANOV = {1: A, -1: inv(A), 2: B, -2: inv(B)}


def sanov_matrix(letters) -> Mat:
    return product(_SANOV[x] for x in letters)


def conjugate(p: Mat, m: Mat) -> Mat:
    return mul(mul(p, m), inv(p))


@dataclass(frozen=True)
class Query:
    """One decision query. `gens`/`target` feed the CLI workloads; `doc`
    holds the automaton text of a word_emptiness query. `truth` is the
    planted answer: member / identity yes, or automaton nonempty."""

    qid: str
    truth: bool
    gens: tuple[Mat, ...] = ()
    target: Optional[Mat] = None
    k: int = 0
    doc: str = ""


# Word and conjugator lengths cycle through these in a fixed order, so that
# every round has the same sizes and the seed picks only the letters: with
# random lengths, the few largest queries of a run, and with them its tail
# latency, changed from seed to seed.
def _cycle(i: int, lo: int, hi: int) -> int:
    return lo + i % (hi - lo + 1)


def _member_yes(rng: random.Random, n_sanov: int, tlen: int, i: int):
    gens = [sanov_matrix(random_letters(rng, _cycle(i + j, 1, 4))) for j in range(n_sanov)]
    gens.append(random_unimodular(rng, _cycle(i, 1, 3)))
    factors = [rng.choice(gens) for _ in range(tlen)]
    target = product(g if rng.random() < 0.5 else inv(g) for g in factors)
    return gens, target


def _member_no(rng: random.Random, n_gens: int, wlen: int):
    """Generators p w_i p^-1 span a conjugate of a Sanov subgroup; the target
    p T w p^-1 lies outside it because T w is not even in the Sanov group
    (T is not congruent to I mod 2)."""
    p = random_unimodular(rng, _cycle(wlen, 1, 4))
    gens = [conjugate(p, sanov_matrix(random_letters(rng, _cycle(wlen + j, 1, 4))))
            for j in range(n_gens)]
    target = conjugate(p, mul(T, sanov_matrix(random_letters(rng, wlen))))
    return gens, target


def member_mixed_round(rng: random.Random) -> list[Query]:
    """Yes: Sanov words plus one random unimodular matrix as generators, and a
    product of 1-5 of them or their inverses as target. One unimodular
    generator, not criterion 5's one or two: two usually generate a subgroup
    of finite index, on which the closure takes 1-10 s per query, and runs
    of such queries did not repeat from seed to seed."""
    cases = []
    for n_sanov in (1, 2):
        for i, tlen in enumerate((1, 2, 3, 4, 5) * 2):
            gens, target = _member_yes(rng, n_sanov, tlen, i)
            cases.append(Query("", True, tuple(gens), target))
    for n_gens in (1, 2, 3, 4):
        for wlen in range(5):
            gens, target = _member_no(rng, n_gens, wlen)
            cases.append(Query("", False, tuple(gens), target))
    return cases


def identity_round(rng: random.Random) -> list[Query]:
    """Yes: g_1, g_2 and (g_1 g_2)^-1. No: conjugates p w_i p^-1 of positive
    Sanov words; a product of positive words is a nonempty positive word,
    and the Sanov group is free, so no product is the identity. The sizes
    put a run's sample count midway between the tail-percentile steps at
    200 and 1,000 queries."""
    cases = []
    for i in range(20):
        gens = [random_unimodular(rng, _cycle(i + j, 1, 3)) for j in range(2)]
        gens.append(inv(product(gens)))
        rng.shuffle(gens)
        cases.append(Query("", True, tuple(gens)))
    for n_gens in (2, 3, 4, 5):
        for i in range(5):
            p = random_unimodular(rng, _cycle(i, 1, 4))
            gens = [conjugate(p, sanov_matrix(random_letters(rng, _cycle(i + j, 2, 6), True)))
                    for j in range(n_gens)]
            cases.append(Query("", False, tuple(gens)))
    return cases


MAGNITUDE_KS = (10, 32, 100, 316, 1000)


def magnitude_round(rng: random.Random) -> list[Query]:
    """Generators [[1,k],[0,1]] and [[1,0],[k,1]] on a fixed log grid of k.
    Yes: one generator or its inverse, so that a yes query costs about what
    the no query of the same k costs. No: [[1,1],[0,1]], which is not
    congruent to I mod k while every generator is."""
    cases = []
    for k in MAGNITUDE_KS:
        gens = ((1, k, 0, 1), (1, 0, k, 1))
        target = rng.choice(gens)
        cases.append(Query("", True, gens, target if rng.random() < 0.5 else inv(target), k))
        cases.append(Query("", False, gens, T, k))
    return cases


_NAMES = {1: "a", -1: "a'", 2: "b", -2: "b'"}

EMPTINESS_STATES = 26
EMPTINESS_EDGES = 78


def _word_text(letters) -> str:
    return " ".join(_NAMES[x] for x in letters)


def word_automaton(rng: random.Random, nonempty: bool) -> str:
    """A word-labeled automaton document of 26 states and 78 edges.

    States are 2-coloured, and every label's length parity equals the XOR of
    its endpoint colours, so any path's label has the parity of its endpoint
    colours, and so has its free reduction. Empty half: every accepting state
    has the colour opposite to the initial one, so no path label reduces to
    the empty word. Nonempty half: an initial-to-accepting path spelling
    u u^-1 in pieces is planted, and the accepting states share the initial
    colour.
    """
    n = EMPTINESS_STATES
    colour = [i % 2 for i in range(n)]
    rng.shuffle(colour)
    colour[0] = 0
    by_colour = {c: [q for q in range(1, n) if colour[q] == c] for c in (0, 1)}
    edges: list[tuple[int, Optional[str], list[int], int]] = []

    def parity_label(src: int, dst: int) -> list[int]:
        odd = colour[src] ^ colour[dst]
        length = rng.choice((1, 3) if odd else (0, 2, 4))
        return random_letters(rng, length)

    if nonempty:
        u = random_letters(rng, rng.randint(3, 6))
        spelled = u + [-x for x in reversed(u)]
        pieces = []
        i = 0
        while i < len(spelled):
            step = rng.randint(1, 3)
            pieces.append(spelled[i:i + step])
            i += step
        cur = 0
        for piece in pieces[:-1]:
            nxt = rng.choice(by_colour[colour[cur] ^ (len(piece) & 1)])
            edges.append((cur, rng.choice(("a", "b", None)), piece, nxt))
            cur = nxt
        # the whole word has even length, so the last hop lands on colour 0
        last = pieces[-1]
        end = rng.choice(by_colour[colour[cur] ^ (len(last) & 1)])
        edges.append((cur, rng.choice(("a", "b", None)), last, end))
        accepting = {end} | set(rng.sample(by_colour[0], 2))
    else:
        accepting = set(rng.sample(by_colour[1], 3))
    while len(edges) < EMPTINESS_EDGES:
        src, dst = rng.randrange(n), rng.randrange(n)
        edges.append((src, rng.choice(("a", "b", None)), parity_label(src, dst), dst))
    doc = {
        "states": [f"s{q}" for q in range(n)],
        "alphabet": ["a", "b"],
        "label_domain": {"kind": "word", "rank": 2},
        "initial": "s0",
        "accepting": sorted(f"s{q}" for q in accepting),
        "edges": [
            {"src": f"s{s}", "input": sym, "label": _word_text(w), "dst": f"s{d}"}
            for s, sym, w, d in edges
        ],
    }
    return json.dumps(doc)


def word_emptiness_round(rng: random.Random) -> list[Query]:
    return [Query("", nonempty, doc=word_automaton(rng, nonempty))
            for nonempty in (True, False) * 10]


ROUNDS = {
    "member_mixed": member_mixed_round,
    "identity_checked": identity_round,
    "magnitude": magnitude_round,
    "word_emptiness": word_emptiness_round,
}
WORKLOADS = tuple(ROUNDS)


def make_round(workload: str, seed: int, round_no: int) -> list[Query]:
    """Round `round_no` of a workload: the same seed gives the same queries."""
    rng = random.Random(f"{workload}/{seed}/{round_no}")
    queries = ROUNDS[workload](rng)
    rng.shuffle(queries)
    return [replace(q, qid=f"{workload}/{seed}/{round_no}/{i}") for i, q in enumerate(queries)]


def check_structured(q: Query, command: str, code: int, out: dict) -> Optional[str]:
    """Why a `member`/`identity` CLI answer is wrong, or None if it is right.

    A yes must exit 0 and carry a witness whose exact product is the target
    (signed 1-based generator indices for member, where -i is the inverse of
    generator i; plain indices for identity, whose target is I). A no must
    exit 1.
    """
    if out.get("command") != command:
        return f"structured output is for {out.get('command')!r}"
    want = "yes" if q.truth else "no"
    if out.get("answer") != want:
        return f"answer {out.get('answer')!r}, planted {want!r}"
    if code != (0 if q.truth else 1):
        return f"exit code {code} for answer {want!r}"
    if not q.truth:
        return None
    witness = out.get("witness")
    if not isinstance(witness, list) or (command == "identity" and not witness):
        return f"yes without a witness: {witness!r}"
    target = q.target if command == "member" else I2
    factors = []
    for i in witness:
        if not isinstance(i, int) or not 1 <= abs(i) <= len(q.gens):
            return f"witness index {i!r} out of range"
        if command == "identity" and i < 0:
            return f"identity witness uses an inverse: {i}"
        g = q.gens[abs(i) - 1]
        factors.append(g if i > 0 else inv(g))
    if product(factors) != target:
        return f"witness {witness} multiplies to {product(factors)}, not {target}"
    return None
