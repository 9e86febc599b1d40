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
from typing import Any, Optional, Sequence

from matdecide.automata import (
    MatrixLabels,
    prune_noninvertible,
    shortest_accepted_string,
    to_free_group_automaton,
)
from matdecide.deciders import (
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


def _emit(args, text_lines: list[str], structured: dict[str, Any]) -> None:
    if args.format == "structured":
        print(json.dumps(structured, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_factor(args) -> int:
    text = _read(args.file) if args.file else args.matrix
    if text is None:
        raise FormatError("factor: provide a matrix argument or --file")
    m = parse_matrix(text)
    if m.n != 2:
        raise FormatError(f"factor: expected a 2x2 matrix, got {m.n}x{m.n}")
    word = factor_in_sanov(m)
    if word is None:
        _emit(args, ["not a member"], {"command": "factor", "member": False})
        return 1
    _emit(args, [word.to_text()], {"command": "factor", "member": True, "word": word.to_text()})
    return 0


def cmd_cosets(args) -> int:
    table = default_coset_table()
    lines = [format_matrix(rep) for rep in table.reps]
    _emit(
        args,
        lines,
        {"command": "cosets", "size": table.size, "representatives": [json.loads(s) for s in lines]},
    )
    return 0


def _witness_str(seq: Sequence[int]) -> str:
    return " ".join(str(i) for i in seq)


def cmd_member(args) -> int:
    y = parse_matrix(_read(args.target))
    gens = parse_matrix_list(_read(args.gens))
    if not gens:
        raise FormatError("member: generator list is empty")
    if args.bounded is not None or y.n != 2:
        bound = args.bounded if args.bounded is not None else DEFAULT_DEPTH
        witness = membership_bounded(y, gens, bound)
        if witness is not None:
            _emit(
                args,
                [f"yes: witness {_witness_str(witness)}"],
                {"command": "member", "answer": "yes", "witness": list(witness), "bound": bound},
            )
            return 0
        _emit(
            args,
            [f"unknown: no product of length <= {bound} matches "
             "(absence at the bound proves nothing)"],
            {"command": "member", "answer": "unknown", "witness": None, "bound": bound},
        )
        return 2
    decision = decide_subgroup_membership(y, gens, checked=args.checked)
    if not decision.answer:
        _emit(
            args,
            [f"no: {decision.reason}"],
            {"command": "member", "answer": "no", "reason": decision.reason},
        )
        return 1
    # The search sees only the unimodular generators; its letters are mapped
    # back to positions in the input list.
    positions = [i for i, g in enumerate(gens, start=1) if g.is_unimodular()]
    witness = () if y.is_identity() else None  # also with no unimodular generator
    if positions:
        found = group_word_search(y, [gens[i - 1] for i in positions], DEFAULT_DEPTH)
        if found is not None:
            witness = tuple(positions[abs(s) - 1] * (1 if s > 0 else -1) for s in found)
    if witness is not None:
        lines = [f"yes: witness {_witness_str(witness) or '(empty product)'} "
                 "(signed generator indices, negative = inverse)"]
    else:
        lines = ["yes (no witness found within the search depth)"]
    _emit(
        args,
        lines,
        {
            "command": "member",
            "answer": "yes",
            "witness": list(witness) if witness is not None else None,
        },
    )
    return 0


def cmd_identity(args) -> int:
    gens = parse_matrix_list(_read(args.gens))
    if not gens:
        raise FormatError("identity: generator list is empty")
    n = gens[0].n
    if args.bounded is not None or n != 2:
        bound = args.bounded if args.bounded is not None else DEFAULT_DEPTH
        witness = identity_in_semigroup_bounded(gens, bound)
        if witness is not None:
            _emit(
                args,
                [f"yes: witness {_witness_str(witness)}"],
                {"command": "identity", "answer": "yes", "witness": list(witness), "bound": bound},
            )
            return 0
        _emit(
            args,
            [f"unknown: no product of length <= {bound} equals the identity "
             "(absence at the bound proves nothing)"],
            {"command": "identity", "answer": "unknown", "witness": None, "bound": bound},
        )
        return 2
    decision = decide_identity_in_semigroup(gens, checked=args.checked)
    if not decision.answer:
        _emit(
            args,
            [f"no: {decision.reason}"],
            {"command": "identity", "answer": "no", "reason": decision.reason},
        )
        return 1
    witness = identity_in_semigroup_bounded(gens, DEFAULT_DEPTH)
    if witness is not None:
        lines = [f"yes: witness {_witness_str(witness)}"]
    else:
        lines = ["yes (no witness found within the search depth)"]
    _emit(
        args,
        lines,
        {
            "command": "identity",
            "answer": "yes",
            "witness": list(witness) if witness is not None else None,
        },
    )
    return 0


def cmd_empty(args) -> int:
    v = parse_automaton(_read(args.automaton))
    cap = _register_cap()
    if isinstance(v.label_domain, MatrixLabels) and v.label_domain.dim != 2:
        witness = shortest_accepted_string(v, max_len=args.witness_len, register_cap=cap)
        if witness is not None:
            _emit(
                args,
                [f"NONEMPTY: witness {witness!r}"],
                {"command": "empty", "answer": "nonempty", "witness": witness},
            )
            return 0
        _emit(
            args,
            [f"UNKNOWN: no exact emptiness procedure for {v.label_domain.dim}x"
             f"{v.label_domain.dim} labels and bounded search found no witness"],
            {"command": "empty", "answer": "unknown", "witness": None},
        )
        return 2
    if not automaton_nonempty(v, checked=args.checked):
        _emit(args, ["EMPTY"], {"command": "empty", "answer": "empty", "witness": None})
        return 1
    searchable = prune_noninvertible(v) if isinstance(v.label_domain, MatrixLabels) else v
    witness = shortest_accepted_string(searchable, max_len=args.witness_len, register_cap=cap)
    if witness is not None:
        lines = [f"NONEMPTY: witness {witness!r}"]
    else:
        lines = ["NONEMPTY (no witness found within the search bounds)"]
    _emit(args, lines, {"command": "empty", "answer": "nonempty", "witness": witness})
    return 0


def cmd_convert(args) -> int:
    v = parse_automaton(_read(args.automaton))
    if isinstance(v.label_domain, MatrixLabels):
        if v.label_domain.dim != 2:
            print(
                f"cannot convert: no finite-index free-subgroup table for "
                f"{v.label_domain.dim}x{v.label_domain.dim} labels",
                file=sys.stderr,
            )
            return 2
        v = to_free_group_automaton(prune_noninvertible(v), default_coset_table())
    out = format_automaton(v)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            print(f"matdecide: {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return EX_CANTCREAT
    else:
        sys.stdout.write(out)
    return 0


def cmd_search(args) -> int:
    y = parse_matrix(_read(args.target))
    gens = parse_matrix_list(_read(args.gens))
    if not gens:
        raise FormatError("search: generator list is empty")
    if args.group:
        witness = group_word_search(y, gens, args.max_len)
    else:
        witness = membership_bounded(y, gens, args.max_len)
    if witness is not None:
        _emit(
            args,
            [f"found: {_witness_str(witness) or '(empty product)'}"],
            {"command": "search", "answer": "found", "witness": list(witness)},
        )
        return 0
    _emit(
        args,
        [f"not found within length {args.max_len}"],
        {"command": "search", "answer": "not-found", "witness": None},
    )
    return 2


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parse_args keeps no state
    between calls, and building it costs far more than one parse."""
    parser = _Parser(prog="matdecide", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            help="output style: human text lines or one JSON object",
        )

    p = sub.add_parser("factor", help="factor a 2x2 matrix in the Sanov subgroup")
    p.add_argument("matrix", nargs="?", help="matrix as nested JSON arrays of decimal strings")
    p.add_argument("--file", help="read the matrix from a file instead")
    common(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("cosets", help="print the coset representatives of the Sanov subgroup")
    common(p)
    p.set_defaults(func=cmd_cosets)

    p = sub.add_parser("member", help="is the target in the group generated by the generators?")
    p.add_argument("--target", required=True, help="file with one matrix")
    p.add_argument("--gens", required=True, help="file with a matrix list")
    p.add_argument("--bounded", type=_length_bound, metavar="K",
                   help="force bounded product search up to length K")
    p.add_argument("--checked", action="store_true",
                   help="cross-check both emptiness engines")
    common(p)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("identity", help="does a product of generators equal the identity?")
    p.add_argument("--gens", required=True, help="file with a matrix list")
    p.add_argument("--bounded", type=_length_bound, metavar="K",
                   help="force bounded product search up to length K")
    p.add_argument("--checked", action="store_true",
                   help="cross-check both emptiness engines")
    common(p)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("empty", help="decide emptiness of an automaton file")
    p.add_argument("automaton", help="automaton JSON file")
    p.add_argument("--checked", action="store_true",
                   help="cross-check both emptiness engines")
    p.add_argument("--witness-len", type=_length_bound, default=8,
                   help="max input length for witness extraction")
    common(p)
    p.set_defaults(func=cmd_empty)

    p = sub.add_parser("convert", help="convert 2x2 matrix labels to free-word labels")
    p.add_argument("automaton", help="automaton JSON file")
    p.add_argument("-o", "--output", help="write to this file instead of stdout")
    common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("search", help="bounded product search (any dimension)")
    p.add_argument("--target", required=True, help="file with one matrix")
    p.add_argument("--gens", required=True, help="file with a matrix list")
    p.add_argument("--max-len", type=_length_bound, default=DEFAULT_DEPTH)
    p.add_argument("--group", action="store_true",
                   help="search words over generators and their inverses")
    common(p)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # FormatError included
        print(f"matdecide: {exc}", file=sys.stderr)
        return EX_DATAERR
    except Exception as exc:
        # Any other exception is a fault in matdecide; exit 1 would read as "no".
        print(f"matdecide: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
