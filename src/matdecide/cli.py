"""Batch command-line front end.

Exit codes: 0 = yes / witness found, 1 = no, 2 = unknown (bounded search
exhausted, or no decision procedure for the dimension), 64 = usage error,
65 = malformed input file, 70 = internal error (a bug, such as the two
emptiness engines disagreeing), 73 = cannot create the output file. The same
inputs always produce byte-identical output. MATDECIDE_REGISTER_CAP overrides
the register caps of the bounded simulator used for witness extraction.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Any, Callable, Optional, Sequence

from matdecide.automata import (
    MatrixLabels,
    prune_noninvertible,
    shortest_accepted_string,
    to_free_group_automaton,
)
from matdecide.deciders import (
    Decision,
    automaton_nonempty,
    decide_identity_in_semigroup,
    decide_subgroup_membership,
    identity_in_semigroup_bounded,
    membership_bounded,
)
from matdecide.formats import (
    FormatError,
    format_automaton,
    format_matrix,
    parse_automaton,
    parse_matrix,
    parse_matrix_list,
)
from matdecide.matrix import IntMatrix, _generator_dim
from matdecide.oracle import DEFAULT_DEPTH, group_word_search
from matdecide.sanov import default_coset_table, factor_in_sanov

EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70
EX_CANTCREAT = 73


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _length_bound(text: str) -> int:
    """argparse type for --bounded, --max-len and --witness-len."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _register_cap() -> Optional[int]:
    raw = os.environ.get("MATDECIDE_REGISTER_CAP")
    if raw is None:
        return None
    try:
        cap = int(raw)
        if cap < 1:
            raise ValueError
    except ValueError:
        raise FormatError(f"MATDECIDE_REGISTER_CAP must be a positive integer, got {raw!r}")
    return cap


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}")


# One command's answer: exit code, text lines, structured fields.
Answer = tuple[int, list[str], dict[str, Any]]


def _emit(args, answer: Answer) -> int:
    """Write a command's answer in the chosen format and return its exit code."""
    code, lines, fields = answer
    if args.format == "structured":
        print(json.dumps({"command": args.command, **fields}, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def _gens(args) -> list[IntMatrix]:
    gens = parse_matrix_list(_read(args.gens))
    if not gens:
        raise FormatError(f"{args.command}: generator list is empty")
    return gens


def cmd_factor(args) -> Answer:
    text = _read(args.file) if args.file else args.matrix
    if text is None:
        raise FormatError("factor: provide a matrix argument or --file")
    m = parse_matrix(text)
    if m.n != 2:
        raise FormatError(f"factor: expected a 2x2 matrix, got {m.n}x{m.n}")
    word = factor_in_sanov(m)
    if word is None:
        return 1, ["not a member"], {"member": False}
    return 0, [word.to_text()], {"member": True, "word": word.to_text()}


def cmd_cosets(args) -> Answer:
    table = default_coset_table()
    lines = [format_matrix(rep) for rep in table.reps]
    return 0, lines, {"size": table.size, "representatives": [json.loads(s) for s in lines]}


def _witness_str(seq: Sequence[int]) -> str:
    return " ".join(str(i) for i in seq) or "(empty product)"


def _bounded_report(witness: Optional[Sequence[int]], bound: int, miss: str,
                    suffix: str = "") -> Answer:
    """Answer of a bounded product search: a witness (text followed by
    suffix), or unknown at the bound, where miss says what no product of
    length <= bound did."""
    if witness is not None:
        return (0, [f"yes: witness {_witness_str(witness)}{suffix}"],
                {"answer": "yes", "witness": list(witness), "bound": bound})
    return (2, [f"unknown: no product of length <= {bound} {miss} "
                "(absence at the bound proves nothing)"],
            {"answer": "unknown", "witness": None, "bound": bound})


def _decision_report(decision: Decision, witness: Optional[Sequence[int]],
                     suffix: str = "") -> Answer:
    """Answer of an exact decision: no with its reason, or yes with the witness
    (text followed by suffix) or the line saying the search found none."""
    if not decision.answer:
        return 1, [f"no: {decision.reason}"], {"answer": "no", "reason": decision.reason}
    if witness is None:
        return (0, ["yes (no witness found within the search depth)"],
                {"answer": "yes", "witness": None})
    return (0, [f"yes: witness {_witness_str(witness)}{suffix}"],
            {"answer": "yes", "witness": list(witness)})


def _unimodular_witness(
    gens: Sequence[IntMatrix], search: Callable[[list[IntMatrix]], Optional[tuple[int, ...]]]
) -> Optional[tuple[int, ...]]:
    """Run search on the unimodular generators only and map its signed letters
    back to positions in gens; None when there are none or nothing is found.
    A product with a singular factor is singular, so it is never a witness."""
    positions = [i for i, g in enumerate(gens, start=1) if g.is_unimodular()]
    found = search([gens[i - 1] for i in positions]) if positions else None
    if found is None:
        return None
    return tuple(positions[abs(s) - 1] * (1 if s > 0 else -1) for s in found)


def _group_witness(
    y: IntMatrix, gens: Sequence[IntMatrix], depth: int
) -> Optional[tuple[int, ...]]:
    """A word of length <= depth over the unimodular generators and their
    inverses whose product is y, or None. I is the empty product, also with
    no unimodular generator."""
    if y.is_identity():
        return ()
    return _unimodular_witness(gens, lambda us: group_word_search(y, us, depth))


_SIGNED = " (signed generator indices, negative = inverse)"


def cmd_member(args) -> Answer:
    y = parse_matrix(_read(args.target))
    gens = _gens(args)
    if args.bounded is not None or y.n != 2:
        bound = args.bounded if args.bounded is not None else DEFAULT_DEPTH
        if y.is_unimodular():
            _generator_dim(gens, y)
            return _bounded_report(_group_witness(y, gens, bound), bound, "matches", _SIGNED)
        return _bounded_report(membership_bounded(y, gens, bound), bound, "matches")
    decision = decide_subgroup_membership(y, gens, checked=args.checked)
    witness = _group_witness(y, gens, DEFAULT_DEPTH) if decision.answer else None
    return _decision_report(decision, witness, _SIGNED)


def cmd_identity(args) -> Answer:
    gens = _gens(args)
    if args.bounded is not None or gens[0].n != 2:
        bound = args.bounded if args.bounded is not None else DEFAULT_DEPTH
        return _bounded_report(identity_in_semigroup_bounded(gens, bound), bound,
                               "equals the identity")
    decision = decide_identity_in_semigroup(gens, checked=args.checked)
    witness = None
    if decision.answer:
        witness = _unimodular_witness(
            gens, lambda us: identity_in_semigroup_bounded(us, DEFAULT_DEPTH))
    return _decision_report(decision, witness)


def cmd_empty(args) -> Answer:
    v = parse_automaton(_read(args.automaton))
    cap = _register_cap()
    matrix_labels = isinstance(v.label_domain, MatrixLabels)
    exact = not matrix_labels or v.label_domain.dim == 2
    if exact:
        if not automaton_nonempty(v, checked=args.checked):
            return 1, ["EMPTY"], {"answer": "empty", "witness": None}
        if matrix_labels:
            v = prune_noninvertible(v)
    found = shortest_accepted_string(v, max_len=args.witness_len, register_cap=cap)
    if found is not None:
        # joined when every symbol is one character, else the symbol list
        witness = "".join(found) if all(len(s) == 1 for s in v.alphabet) else list(found)
        return 0, [f"NONEMPTY: witness {witness!r}"], {"answer": "nonempty", "witness": witness}
    if exact:
        return (0, ["NONEMPTY (no witness found within the search bounds)"],
                {"answer": "nonempty", "witness": None})
    dim = v.label_domain.dim
    return (2, [f"UNKNOWN: no exact emptiness procedure for {dim}x{dim} labels "
                "and bounded search found no witness"],
            {"answer": "unknown", "witness": None})


def cmd_convert(args) -> Answer:
    v = parse_automaton(_read(args.automaton))
    if isinstance(v.label_domain, MatrixLabels):
        if v.label_domain.dim != 2:
            print(f"cannot convert: no finite-index free-subgroup table for "
                  f"{v.label_domain.dim}x{v.label_domain.dim} labels", file=sys.stderr)
            return 2, [], {}
        v = to_free_group_automaton(prune_noninvertible(v), default_coset_table())
    out = format_automaton(v)
    if not args.output:
        return 0, out.splitlines(), {}
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    except OSError as exc:
        print(f"matdecide: {args.output}: {exc.strerror or exc}", file=sys.stderr)
        return EX_CANTCREAT, [], {}
    return 0, [], {}


def cmd_search(args) -> Answer:
    y = parse_matrix(_read(args.target))
    gens = _gens(args)
    search = group_word_search if args.group else membership_bounded
    witness = search(y, gens, args.max_len)
    if witness is not None:
        return 0, [f"found: {_witness_str(witness)}"], {"answer": "found", "witness": list(witness)}
    return (2, [f"not found within length {args.max_len}"],
            {"answer": "not-found", "witness": None})


# The options that several commands share, each defined once.
_SHARED = {
    "--target": dict(required=True, help="file with one matrix"),
    "--gens": dict(required=True, help="file with a matrix list"),
    "--bounded": dict(type=_length_bound, metavar="K",
                      help="force bounded product search up to length K"),
    "--checked": dict(action="store_true", help="cross-check both emptiness engines"),
}


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parse_args keeps no state
    between calls, and building it costs far more than one parse."""
    parser = _Parser(prog="matdecide", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *shared):
        p = sub.add_parser(name, help=help)
        for flag in shared:
            p.add_argument(flag, **_SHARED[flag])
        p.set_defaults(func=func)
        return p

    p = command("factor", cmd_factor, "factor a 2x2 matrix in the Sanov subgroup")
    p.add_argument("matrix", nargs="?", help="matrix as nested JSON arrays of decimal strings")
    p.add_argument("--file", help="read the matrix from a file instead")
    command("cosets", cmd_cosets, "print the coset representatives of the Sanov subgroup")
    command("member", cmd_member, "is the target in the group generated by the generators?",
            "--target", "--gens", "--bounded", "--checked")
    command("identity", cmd_identity, "does a product of generators equal the identity?",
            "--gens", "--bounded", "--checked")
    p = command("empty", cmd_empty, "decide emptiness of an automaton file", "--checked")
    p.add_argument("automaton", help="automaton JSON file")
    p.add_argument("--witness-len", type=_length_bound, default=8,
                   help="max input length for witness extraction")
    p = command("convert", cmd_convert, "convert 2x2 matrix labels to free-word labels")
    p.add_argument("automaton", help="automaton JSON file")
    p.add_argument("-o", "--output", help="write to this file instead of stdout")
    p.set_defaults(format="text")  # the document is the only output
    p = command("search", cmd_search, "bounded product search (any dimension)",
                "--target", "--gens")
    p.add_argument("--max-len", type=_length_bound, default=DEFAULT_DEPTH)
    p.add_argument("--group", action="store_true",
                   help="search words over generators and their inverses")

    for name, p in sub.choices.items():
        if name != "convert":
            p.add_argument("--format", choices=("text", "structured"), default="text",
                           help="output style: human text lines or one JSON object")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _emit(args, args.func(args))
    except ValueError as exc:  # FormatError included
        print(f"matdecide: {exc}", file=sys.stderr)
        return EX_DATAERR
    except Exception as exc:
        # Any other exception is a fault in matdecide; exit 1 would read as "no".
        print(f"matdecide: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
