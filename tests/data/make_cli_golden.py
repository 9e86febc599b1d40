#!/usr/bin/env python3
"""Write tests/data/cli_golden.json: seeded CLI calls and their exact output.

Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_cli_golden.py

Each record holds a call's argv, the input documents it reads, and the
stdout, stderr and exit code that `matdecide.cli.main` gave for it. An argv
element equal to an input's name stands for the path of that input file.
tests/test_cli_golden.py replays every call and compares the output
exactly, so a change that should not alter behaviour can be checked
against the output of the commit that wrote this file. Inputs are written as
plain JSON here, without matdecide's own formatter.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from matdecide import cli

OUT = Path(__file__).resolve().parent / "cli_golden.json"
SEED = 20261018

# Sanov generators, S, T, J and inverses: products stay unimodular.
POOL = [
    ((1, 2), (0, 1)), ((1, 0), (2, 1)), ((1, -2), (0, 1)), ((1, 0), (-2, 1)),
    ((0, -1), (1, 0)), ((0, 1), (-1, 0)), ((1, 1), (0, 1)), ((1, -1), (0, 1)),
    ((1, 0), (0, -1)),
]
SANOV = POOL[:4]
# The inverse of each pool matrix.
INVERSE = dict(zip(POOL, [POOL[2], POOL[3], POOL[0], POOL[1], POOL[5], POOL[4], POOL[7],
                          POOL[6], POOL[8]]))
# Elementary 3x3 shears and a cyclic permutation.
POOL3 = [((1, 1, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 1), (0, 0, 1)),
         ((1, 0, 0), (0, 1, 0), (-1, 0, 1)), ((0, 1, 0), (0, 0, 1), (1, 0, 0))]


def mul(x, y):
    n = len(x)
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def ident(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def product(rng, pool, length, n=2):
    m = ident(n)
    for _ in range(length):
        m = mul(m, rng.choice(pool))
    return m


def mat_text(m):
    return json.dumps([[str(x) for x in row] for row in m])


def list_text(ms):
    return json.dumps([[[str(x) for x in row] for row in m] for m in ms])


def word(rng, max_len):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        letters.append(rng.choice("ab") + rng.choice(["", "'"]))
    return " ".join(letters) or "ε"


def automaton_text(rng, kind, dim=2, n_states=None, n_edges=None, singular=False):
    n_states = n_states or rng.randint(1, 4)
    states = [f"s{i}" for i in range(n_states)]
    edges = []
    for _ in range(n_edges or rng.randint(1, 7)):
        if kind == "word":
            label = word(rng, 3)
        elif dim == 2:
            m = product(rng, POOL, rng.randint(0, 4))
            if singular and rng.random() < 0.3:
                m = ((rng.randint(-2, 2), 0), (0, 0))
            label = [[str(x) for x in row] for row in m]
        else:
            label = [[str(x) for x in row] for row in product(rng, POOL3, rng.randint(0, 2), 3)]
        src, dst = rng.randrange(n_states), rng.randrange(n_states)
        symbol = rng.choice(["a", "b", None])
        if symbol is None and src >= dst:
            # Epsilon edges only run forward: an epsilon cycle that grows the
            # register makes the bounded witness simulator take seconds.
            symbol = rng.choice("ab")
        edges.append({"src": states[src], "input": symbol, "label": label, "dst": states[dst]})
    domain = {"kind": "word", "rank": 2} if kind == "word" else {"kind": "matrix", "dim": dim}
    accepting = [q for q in states if rng.random() < 0.5] or [states[-1]]
    return json.dumps({"states": states, "alphabet": ["a", "b"], "label_domain": domain,
                       "initial": states[0], "accepting": accepting, "edges": edges})


def flooded_text(dim):
    """s0 loops on epsilon with F = [[2,1],[0,1]] and G = [[1,0],[1,2]], and
    reads a with T = [[1,1],[0,1]] into an epsilon chain c0..c29 of identity
    labels whose last edge, T^-1, enters the accepting state acc. Every label
    is embedded as diag(M, 1) in dim x dim."""
    def label(m):
        rows = [list(row) + [0] * (dim - 2) for row in m] + [list(r) for r in ident(dim)[2:]]
        return [[str(x) for x in row] for row in rows]

    chain = [f"c{i}" for i in range(30)]
    edges = [("s0", None, ((2, 1), (0, 1)), "s0"), ("s0", None, ((1, 0), (1, 2)), "s0"),
             ("s0", "a", ((1, 1), (0, 1)), "c0")]
    edges += [(p, None, ident(2), q) for p, q in zip(chain, chain[1:])]
    edges.append(("c29", None, ((1, -1), (0, 1)), "acc"))
    return json.dumps({"states": ["s0", *chain, "acc"], "alphabet": ["a"],
                       "label_domain": {"kind": "matrix", "dim": dim}, "initial": "s0",
                       "accepting": ["acc"],
                       "edges": [{"src": src, "input": symbol, "label": label(m), "dst": dst}
                                 for src, symbol, m, dst in edges]})


def calls(rng):
    """Yield (argv, inputs) pairs."""
    fmt = lambda: ["--format", "structured"] if rng.random() < 0.5 else []  # noqa: E731

    # factor: Sanov products (members), other unimodular matrices, huge
    # entries, singular and non-2x2 matrices, malformed text.
    for _ in range(10):
        m = product(rng, SANOV, rng.randint(0, 12))
        yield ["factor", mat_text(m), *fmt()], {}
    for _ in range(6):
        yield ["factor", mat_text(product(rng, POOL, rng.randint(1, 8))), *fmt()], {}
    for length in (60, 140):
        yield ["factor", mat_text(product(rng, SANOV, length))], {}
    yield ["factor", mat_text(((3, 5), (6, 10)))], {}
    yield ["factor", mat_text(((-1, 0), (0, -1)))], {}
    yield ["factor", "--file", "m.json"], {"m.json": mat_text(((7,),))}
    yield ["factor", "--file", "m.json"], {"m.json": mat_text(ident(3))}
    yield ["factor", "[[1,2]"], {}

    yield ["cosets"], {}
    yield ["cosets", "--format", "structured"], {}

    # member: planted yes (target is a product of the generators), random
    # targets, --checked, --bounded, singular generators, 1x1 and 3x3.
    for i in range(24):
        gens = [product(rng, POOL, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        if i % 2 == 0:
            target = ident(2)
            for _ in range(rng.randint(0, 4)):
                g = rng.choice(gens)
                target = mul(target, g)
        else:
            target = product(rng, POOL, rng.randint(0, 5))
        extra = []
        if i % 3 == 0:
            extra.append("--checked")
        if i % 8 == 5:
            extra += ["--bounded", str(rng.randint(0, 4))]
        yield (["member", "--target", "y.json", "--gens", "g.json", *extra, *fmt()],
               {"y.json": mat_text(target), "g.json": list_text(gens)})
    big = product(rng, SANOV, 120)
    yield (["member", "--target", "y.json", "--gens", "g.json"],
           {"y.json": mat_text(big), "g.json": list_text(SANOV[:2])})
    yield (["member", "--target", "y.json", "--gens", "g.json", "--checked"],
           {"y.json": mat_text(mul(big, POOL[6])), "g.json": list_text(SANOV[:2])})
    for _ in range(3):
        gens = [product(rng, POOL, 2), ((rng.randint(-3, 3), 1), (0, 0))]
        rng.shuffle(gens)
        yield (["member", "--target", "y.json", "--gens", "g.json", *fmt()],
               {"y.json": mat_text(mul(gens[0], gens[0])), "g.json": list_text(gens)})
    yield (["member", "--target", "y.json", "--gens", "g.json"],
           {"y.json": mat_text(((6,),)), "g.json": list_text([((2,),), ((3,),)])})
    yield (["member", "--target", "y.json", "--gens", "g.json", "--bounded", "2"],
           {"y.json": mat_text(((5,),)), "g.json": list_text([((2,),), ((3,),)])})
    for _ in range(3):
        gens = rng.sample(POOL3, 2)
        target = product(rng, gens, rng.randint(0, 3), 3)
        yield (["member", "--target", "y.json", "--gens", "g.json", "--bounded", "3", *fmt()],
               {"y.json": mat_text(target), "g.json": list_text(gens)})
    yield (["member", "--target", "y.json", "--gens", "g.json"],
           {"y.json": mat_text(ident(3)), "g.json": list_text([ident(2)])})

    # identity: sets that contain a loop back to I, random sets, --checked,
    # --bounded, singular generators, 1x1 and 3x3.
    for i in range(22):
        gens = [product(rng, POOL, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        if i % 2 == 0:
            g = rng.choice(POOL)
            gens.append(INVERSE[g] if rng.random() < 0.5 else g)
        extra = []
        if i % 3 == 1:
            extra.append("--checked")
        if i % 7 == 6:
            extra += ["--bounded", str(rng.randint(1, 4))]
        yield ["identity", "--gens", "g.json", *extra, *fmt()], {"g.json": list_text(gens)}
    yield (["identity", "--gens", "g.json"],
           {"g.json": list_text([((2, 0), (0, 1)), ((1, 1), (0, 1)), ((1, -1), (0, 1))])})
    yield (["identity", "--gens", "g.json"],
           {"g.json": list_text([((1, 7), (0, 1)), ((1, -11), (0, 1))])})
    yield (["identity", "--gens", "g.json", "--bounded", "3"],
           {"g.json": list_text([((-1,),)])})
    yield (["identity", "--gens", "g.json", "--bounded", "3", *fmt()],
           {"g.json": list_text([POOL3[3], POOL3[0]])})
    yield ["identity", "--gens", "g.json"], {"g.json": "[]"}

    # bounded group words (member --bounded) and positive products (search).
    for i in range(14):
        gens = [product(rng, POOL, rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
        target = ident(2)
        for _ in range(rng.randint(0, 3)):
            g = rng.choice(gens)
            target = mul(target, g)
        if i % 4 == 3:
            target = product(rng, POOL, 3)
        bound = str(rng.randint(0, 4))
        if i % 3 != 2:
            argv = ["member", "--target", "y.json", "--gens", "g.json", "--bounded", bound]
        else:
            argv = ["search", "--target", "y.json", "--gens", "g.json", "--max-len", bound]
        yield [*argv, *fmt()], {"y.json": mat_text(target), "g.json": list_text(gens)}
    yield (["search", "--target", "y.json", "--gens", "g.json", "--max-len", "3"],
           {"y.json": mat_text(((8,),)), "g.json": list_text([((2,),)])})
    yield (["member", "--target", "y.json", "--gens", "g.json", "--bounded", "8"],
           {"y.json": mat_text(ident(2)), "g.json": list_text([((2, 0), (0, 1))])})

    # convert: 2x2 labels (some singular), word labels, 3x3 labels.
    for i in range(12):
        yield ["convert", "a.json"], {"a.json": automaton_text(rng, "matrix", singular=i % 3 == 0)}
    for _ in range(2):
        yield ["convert", "a.json"], {"a.json": automaton_text(rng, "word")}
    yield ["convert", "a.json"], {"a.json": automaton_text(rng, "matrix", dim=3)}

    # empty: 2x2 and word automata, --checked, short witness bounds, 3x3.
    for i in range(16):
        extra = ["--witness-len", str(rng.randint(0, 3))]
        if i % 3 == 0:
            extra.append("--checked")
        yield (["empty", "a.json", *extra, *fmt()],
               {"a.json": automaton_text(rng, "matrix", singular=i % 4 == 1)})
    for i in range(10):
        extra = ["--witness-len", str(rng.randint(0, 3))]
        if i % 2 == 0:
            extra.append("--checked")
        yield ["empty", "a.json", *extra, *fmt()], {"a.json": automaton_text(rng, "word")}
    for _ in range(3):
        yield (["empty", "a.json", "--witness-len", "2", *fmt()],
               {"a.json": automaton_text(rng, "matrix", dim=3, n_states=2, n_edges=3)})
    # empty: epsilon loops of determinant 2, which no accepting run can use,
    # in 2x2 and in 3x3; the witness search drops them in both.
    for dim in (2, 3):
        yield ["empty", "a.json"], {"a.json": flooded_text(dim)}


def run(argv, inputs, workdir: Path):
    for name, text in inputs.items():
        (workdir / name).write_text(text, encoding="utf-8")
    real = [str(workdir / a) if a in inputs else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(real)
    for name in inputs:
        (workdir / name).unlink()
    return {"argv": argv, "inputs": inputs, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "code": code}


def main() -> None:
    rng = random.Random(SEED)
    with tempfile.TemporaryDirectory() as tmp:
        records = [run(argv, inputs, Path(tmp)) for argv, inputs in calls(rng)]
    OUT.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} calls to {OUT}")


if __name__ == "__main__":
    main()
