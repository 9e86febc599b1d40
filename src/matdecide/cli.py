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
from matdecide.matrix import IntMatrix
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
        print(json.dumps({"command": args.command, **structured}, sort_keys=True))
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
        _emit(args, ["not a member"], {"member": False})
        return 1
    _emit(args, [word.to_text()], {"member": True, "word": word.to_text()})
    return 0


def cmd_cosets(args) -> int:
    table = default_coset_table()
    lines = [format_matrix(rep) for rep in table.reps]
    _emit(args, lines, {"size": table.size, "representatives": [json.loads(s) for s in lines]})
    return 0


def _witness_str(seq: Sequence[int]) -> str:
    return " ".join(str(i) for i in seq) or "(empty product)"


def _bounded_report(args, witness: Optional[Sequence[int]], bound: int, miss: str) -> int:
    """Report a bounded product search: a witness, or unknown at the bound,
    where miss says what no product of length <= bound did."""
    if witness is not None:
        _emit(args, [f"yes: witness {_witness_str(witness)}"],
              {"answer": "yes", "witness": list(witness), "bound": bound})
        return 0
    _emit(args, [f"unknown: no product of length <= {bound} {miss} "
                 "(absence at the bound proves nothing)"],
          {"answer": "unknown", "witness": None, "bound": bound})
    return 2


def _decision_report(
    args, decision: Decision, witness: Optional[Sequence[int]], suffix: str = ""
) -> int:
    """Report an exact decision: no with its reason, or yes with the witness
    (text followed by suffix) or the line saying the search found none."""
    if not decision.answer:
        _emit(args, [f"no: {decision.reason}"], {"answer": "no", "reason": decision.reason})
        return 1
    if witness is None:
        _emit(args, ["yes (no witness found within the search depth)"],
              {"answer": "yes", "witness": None})
    else:
        _emit(args, [f"yes: witness {_witness_str(witness)}{suffix}"],
              {"answer": "yes", "witness": list(witness)})
    return 0


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


def cmd_member(args) -> int:
    y = parse_matrix(_read(args.target))
    gens = parse_matrix_list(_read(args.gens))
    if not gens:
        raise FormatError("member: generator list is empty")
    if args.bounded is not None or y.n != 2:
        bound = args.bounded if args.bounded is not None else DEFAULT_DEPTH
        return _bounded_report(args, membership_bounded(y, gens, bound), bound, "matches")
    decision = decide_subgroup_membership(y, gens, checked=args.checked)
    witness = None
    if decision.answer:  # I is the empty product, also with no unimodular generator
        witness = () if y.is_identity() else _unimodular_witness(
            gens, lambda us: group_word_search(y, us, DEFAULT_DEPTH))
    return _decision_report(args, decision, witness,
                            " (signed generator indices, negative = inverse)")


def cmd_identity(args) -> int:
    gens = parse_matrix_list(_read(args.gens))
    if not gens:
        raise FormatError("identity: generator list is empty")
    if args.bounded is not None or gens[0].n != 2:
        bound = args.bounded if args.bounded is not None else DEFAULT_DEPTH
        witness = identity_in_semigroup_bounded(gens, bound)
        return _bounded_report(args, witness, bound, "equals the identity")
    decision = decide_identity_in_semigroup(gens, checked=args.checked)
    witness = None
    if decision.answer:
        witness = _unimodular_witness(
            gens, lambda us: identity_in_semigroup_bounded(us, DEFAULT_DEPTH))
    return _decision_report(args, decision, witness)


def cmd_empty(args) -> int:
    v = parse_automaton(_read(args.automaton))
    cap = _register_cap()
    matrix_labels = isinstance(v.label_domain, MatrixLabels)
    exact = not matrix_labels or v.label_domain.dim == 2
    if exact:
        if not automaton_nonempty(v, checked=args.checked):
            _emit(args, ["EMPTY"], {"answer": "empty", "witness": None})
            return 1
        if matrix_labels:
            v = prune_noninvertible(v)
    witness = shortest_accepted_string(v, max_len=args.witness_len, register_cap=cap)
    if witness is not None:
        lines = [f"NONEMPTY: witness {witness!r}"]
    elif exact:
        lines = ["NONEMPTY (no witness found within the search bounds)"]
    else:
        dim = v.label_domain.dim
        _emit(args, [f"UNKNOWN: no exact emptiness procedure for {dim}x{dim} labels "
                     "and bounded search found no witness"],
              {"answer": "unknown", "witness": None})
        return 2
    _emit(args, lines, {"answer": "nonempty", "witness": witness})
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
        _emit(args, [f"found: {_witness_str(witness)}"],
              {"answer": "found", "witness": list(witness)})
        return 0
    _emit(args, [f"not found within length {args.max_len}"],
          {"answer": "not-found", "witness": None})
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
