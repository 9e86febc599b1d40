"""Structured text forms: matrices as nested arrays of decimal strings (exact
at any magnitude), words in generator-name notation, and automata as a JSON
document. parse(print(x)) == x for every format.

An integer in an input document may have at most sys.get_int_max_str_digits()
digits (4300 by default): Python parses decimal text in quadratic time, and
the limit keeps outside input from stalling the parser. A longer entry is a
FormatError, which names the field when the entry is a decimal string.
Arithmetic on parsed values has no such limit.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from matdecide.automata import (
    Edge,
    LabelDomain,
    MatrixLabels,
    ValenceAutomaton,
    WordLabels,
)
from matdecide.matrix import IntMatrix
from matdecide.words import FreeWord


class FormatError(ValueError):
    """Malformed input document; message carries the offending field or the
    JSON parser's line/column."""


def _digit_limit() -> str:
    return f"the limit of {sys.get_int_max_str_digits()} digits per integer"


def _int_from(obj: Any, where: str) -> int:
    if isinstance(obj, bool):
        raise FormatError(f"{where}: expected an integer, got a boolean")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        body = obj[1:] if obj.startswith("-") else obj
        if body.isascii() and body.isdigit():
            try:
                return int(obj)
            except ValueError:  # more digits than the interpreter parses
                raise FormatError(f"{where}: {len(body)} digits, over {_digit_limit()}") from None
    raise FormatError(f"{where}: expected a decimal integer string, got {obj!r}")


def matrix_to_obj(m: IntMatrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in m.entries]


def matrix_from_obj(obj: Any, where: str = "matrix") -> IntMatrix:
    if not isinstance(obj, list) or not obj:
        raise FormatError(f"{where}: expected a nonempty array of rows")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise FormatError(f"{where}[{i}]: expected an array of entries")
        rows.append([_int_from(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)])
    try:
        return IntMatrix(rows)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None


def format_matrix(m: IntMatrix) -> str:
    return json.dumps(matrix_to_obj(m), separators=(",", ":"))


def parse_matrix(text: str) -> IntMatrix:
    return matrix_from_obj(_load_json(text), "matrix")


def format_matrix_list(ms: list[IntMatrix]) -> str:
    return json.dumps([matrix_to_obj(m) for m in ms], separators=(",", ":"))


def parse_matrix_list(text: str) -> list[IntMatrix]:
    obj = _load_json(text)
    if not isinstance(obj, list):
        raise FormatError("matrix list: expected an array")
    return [matrix_from_obj(x, f"matrix[{i}]") for i, x in enumerate(obj)]


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError:  # a bare integer over the digit limit
        raise FormatError(f"a number is over {_digit_limit()}") from None


def _domain_to_obj(domain: LabelDomain) -> dict[str, Any]:
    if isinstance(domain, MatrixLabels):
        return {"kind": "matrix", "dim": domain.dim}
    return {"kind": "word", "rank": domain.rank}


def _domain_from_obj(obj: Any) -> LabelDomain:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormatError("label_domain: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind not in ("matrix", "word"):
        raise FormatError(f"label_domain.kind: expected 'matrix' or 'word', got {kind!r}")
    field = "dim" if kind == "matrix" else "rank"
    size = _int_from(obj.get(field), f"label_domain.{field}")
    if size < 1:
        raise FormatError(f"label_domain.{field}: must be at least 1, got {size}")
    return MatrixLabels(size) if kind == "matrix" else WordLabels(size)


def automaton_to_obj(v: ValenceAutomaton) -> dict[str, Any]:
    edges = []
    for e in v.edges:
        label: Any
        if isinstance(e.label, IntMatrix):
            label = matrix_to_obj(e.label)
        else:
            label = e.label.to_text()
        edges.append({"src": e.src, "input": e.symbol, "label": label, "dst": e.dst})
    return {
        "states": list(v.states),
        "alphabet": list(v.alphabet),
        "label_domain": _domain_to_obj(v.label_domain),
        "initial": v.initial,
        "accepting": sorted(v.accepting),
        "edges": edges,
    }


def format_automaton(v: ValenceAutomaton) -> str:
    return json.dumps(automaton_to_obj(v), indent=2) + "\n"


def automaton_from_obj(obj: Any) -> ValenceAutomaton:
    if not isinstance(obj, dict):
        raise FormatError("automaton: expected a JSON object")
    for field in ("states", "alphabet", "label_domain", "initial", "accepting", "edges"):
        if field not in obj:
            raise FormatError(f"automaton: missing field {field!r}")
    states = obj["states"]
    if not isinstance(states, list) or not all(isinstance(q, str) for q in states):
        raise FormatError("states: expected an array of state names")
    alphabet = obj["alphabet"]
    if not isinstance(alphabet, list) or not all(isinstance(s, str) for s in alphabet):
        raise FormatError("alphabet: expected an array of symbols")
    domain = _domain_from_obj(obj["label_domain"])
    if not isinstance(obj["initial"], str):
        raise FormatError("initial: expected a state name")
    accepting = obj["accepting"]
    if not isinstance(accepting, list) or not all(isinstance(q, str) for q in accepting):
        raise FormatError("accepting: expected an array of state names")
    edges = []
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise FormatError("edges: expected an array")
    for i, raw in enumerate(raw_edges):
        where = f"edges[{i}]"
        if not isinstance(raw, dict):
            raise FormatError(f"{where}: expected an object")
        for field in ("src", "input", "label", "dst"):
            if field not in raw:
                raise FormatError(f"{where}: missing field {field!r}")
        for field in ("src", "dst"):
            if not isinstance(raw[field], str):
                raise FormatError(f"{where}.{field}: expected a state name")
        symbol = raw["input"]
        if symbol is not None and not isinstance(symbol, str):
            raise FormatError(f"{where}.input: expected a symbol or null")
        if isinstance(domain, MatrixLabels):
            label: Any = matrix_from_obj(raw["label"], f"{where}.label")
        else:
            if not isinstance(raw["label"], str):
                raise FormatError(f"{where}.label: expected a word string")
            try:
                label = FreeWord.from_text(raw["label"], domain.rank)
            except ValueError as exc:
                raise FormatError(f"{where}.label: {exc}") from None
        edges.append(Edge(raw["src"], symbol, label, raw["dst"]))
    try:
        return ValenceAutomaton(
            states=states,
            alphabet=alphabet,
            label_domain=domain,
            edges=edges,
            initial=obj["initial"],
            accepting=accepting,
        )
    except ValueError as exc:
        raise FormatError(f"automaton: {exc}") from None


def parse_automaton(text: str) -> ValenceAutomaton:
    return automaton_from_obj(_load_json(text))
