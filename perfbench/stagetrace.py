"""Stage tracing from outside the program.

The tracer replaces public functions of the matdecide modules with wrappers
that record a span (name, start, end, parent span, query id) per call, and
counting wrappers on the hottest inner calls. Spans stay in memory until the
run ends. Nothing in matdecide is edited: a function imported by name into
another module is patched wherever that module bound it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, function) pairs whose calls it records
SPANS = {
    "formats.parse": [("formats", "parse_matrix"), ("formats", "parse_matrix_list"),
                      ("formats", "parse_automaton")],
    "automata.build": [("automata", "build_membership_automaton"),
                       ("automata", "build_identity_automaton")],
    "automata.prune": [("automata", "prune_noninvertible")],
    "automata.convert": [("automata", "to_free_group_automaton")],
    "sanov.rewrite": [("sanov", "schreier_rewrite")],
    "pda.emptiness": [("pda", "free_automaton_emptiness")],
    "kernel.closure": [("_kernel", "dyck_nonempty")],
    "pda.pushdown_build": [("pda", "from_free_automaton")],
    "pda.saturation": [("pda", "pda_emptiness")],
    "oracle.witness": [("oracle", "group_word_search")],
    "deciders.bounded_witness": [("deciders", "identity_in_semigroup_bounded"),
                                 ("deciders", "membership_bounded")],
    "deciders.decide": [("deciders", "decide_subgroup_membership"),
                        ("deciders", "decide_identity_in_semigroup")],
}

# Called thousands of times per query: counted, not timed.
COUNTED = {"sanov.factor_calls": ("sanov", "factor_in_sanov")}

# Spans whose arguments or result give the size counters.
INSPECTED = ("automata.convert", "pda.emptiness", "kernel.closure")

# Spans reported with their children included; every other span reports
# self time.
INCLUSIVE = ("cli.query", "deciders.decide")

PER_LAYER = [
    ("formats.parse_s", "s"), ("automata.build_s", "s"), ("automata.prune_s", "s"),
    ("automata.convert_s", "s"), ("sanov.rewrite_s", "s"), ("sanov.rewrite_calls", "count"),
    ("sanov.factor_calls", "count"), ("convert.word_letters", "count"),
    ("pda.emptiness_s", "s"), ("pda.hop_states", "count"), ("pda.alive_frac", "ratio"),
    ("kernel.closure_s", "s"), ("kernel.closure_states", "count"),
    ("kernel.closure_edges", "count"), ("pda.pushdown_build_s", "s"),
    ("pda.saturation_s", "s"), ("oracle.witness_s", "s"),
    ("deciders.bounded_witness_s", "s"), ("witness.len", "count"),
    ("deciders.decide_s", "s"), ("cli.query_s", "s"), ("trace.overhead_frac", "ratio"),
]


def _hop_states(automaton) -> int:
    """States after splitting word labels into single-letter hops."""
    return len(automaton.states) + sum(max(len(e.label) - 1, 0) for e in automaton.edges)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, query id)
        self.stack: list[int] = []
        self.by_query: defaultdict[str, Counter] = defaultdict(Counter)
        self.qid = ""
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((name, time.process_time(), None, parent, self.qid))
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        end = time.process_time()
        self.stack.pop()
        name, start, _, parent, qid = self.spans[sid]
        self.spans[sid] = (name, start, end, parent, qid)

    def query(self, qid: str, fn):
        """Run fn() as the root span of one query."""
        self.qid = qid
        sid = self._open("cli.query")
        try:
            return fn()
        finally:
            self._close(sid)

    def _inspect(self, name: str, args, result) -> None:
        # Bookkeeping gets its own span so no stage's self time includes it.
        sid = self._open("trace.count")
        c = self.by_query[self.qid]
        if name == "automata.convert":
            c["convert.word_letters"] += sum(len(e.label) for e in result.edges)
        elif name == "pda.emptiness":
            c["pda.hop_states"] += _hop_states(args[0])
        else:
            c["kernel.closure_states"] += args[0]
            c["kernel.closure_edges"] += len(args[1])
        self._close(sid)

    def _span_wrapper(self, name: str, fn):
        inspect = name in INSPECTED

        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if inspect:
                self._inspect(name, args, result)
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        def counted(*args, **kwargs):
            self.by_query[self.qid][name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Patch every matdecide module that bound a traced function."""
        targets = [(name, mod, fn, self._span_wrapper)
                   for name, pairs in SPANS.items() for mod, fn in pairs]
        targets += [(name, mod, fn, self._count_wrapper) for name, (mod, fn) in COUNTED.items()]
        modules = [m for n, m in sys.modules.items() if n == "matdecide" or n.startswith("matdecide.")]
        for name, mod, fn_name, make in targets:
            original = getattr(sys.modules[f"matdecide.{mod}"], fn_name)
            wrapper = make(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, value))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, value in reversed(self._patched):
            setattr(m, attr, value)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Total time per span name: self time, or inclusive for INCLUSIVE."""
        children: defaultdict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: defaultdict[str, float] = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            dur = end - start
            totals[name] += dur if name in INCLUSIVE else dur - children[sid]
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, qid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "query": qid}) + "\n")


def per_layer_metrics(tracer: Tracer, queries: int, witness_lens: list[int],
                      overhead_frac: float) -> dict[str, dict]:
    """Per-query means of every per-layer metric."""
    times = tracer.self_times()
    c = sum(tracer.by_query.values(), Counter())
    c["sanov.rewrite_calls"] = sum(1 for span in tracer.spans if span[0] == "sanov.rewrite")
    values = {}
    for name, unit in PER_LAYER:
        if unit == "s":
            values[name] = times.get(name[:-2], 0.0) / queries
        elif unit == "count" and name != "witness.len":
            values[name] = c[name] / queries
    hops = c["pda.hop_states"]
    values["pda.alive_frac"] = c["kernel.closure_states"] / hops if hops else 0.0
    values["witness.len"] = sum(witness_lens) / len(witness_lens) if witness_lens else 0.0
    values["trace.overhead_frac"] = overhead_frac
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
