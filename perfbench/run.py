#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the matdecide decision pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload member_mixed --seed 1 --seconds 24 --trace 0

One client sends queries in a closed loop, in this process: the next query
starts when the previous one has returned. Queries come in rounds of fixed
composition (see workloads.py); the run executes whole rounds until the CPU
time spent inside queries reaches --seconds. Query times are CPU times scaled
to a reference machine speed by gauge.py. Every answer is checked against the
truth planted by construction, and every witness against the benchmark's own
exact 2x2 product.

--trace 0 prints the end-to-end metrics. --trace 1 runs every round twice,
untraced and then traced, insists both give the same answers, and prints
the per-layer metrics of the traced passes plus the tracing overhead.
The last line of standard output is one JSON object; a fuller record, with
the kernel backend, Python version, CPU count and seed, goes to
perfbench/out/results/, and the traced run's spans to perfbench/out/spans/.
The exit status is 0 only if every query was answered correctly.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import gauge  # noqa: E402
import stagetrace  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 15
# Standard percentiles; the tail is the highest with >= 10 samples beyond it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
WALL_LIMIT_S = 120.0  # stop mid-round past this, to end well within 180 s

# Query and set-up times are CPU time of the measuring process, scaled to the
# reference machine speed of gauge.py. A query is single-threaded and
# CPU-bound, so on an idle core its CPU time equals its wall time; unlike wall
# time, it leaves out the spells in which a shared host runs other tenants on
# the core.
clock = time.process_time

# Prints the set-up time, then the median of gauge readings taken in the
# same child right after it.
SETUP_CODE = (
    "import sys, time\n"
    "t = time.process_time()\n"
    "import matdecide\n"
    "matdecide.default_coset_table()\n"
    "t = time.process_time() - t\n"
    f"sys.path.insert(0, {str(HERE)!r})\n"
    "import gauge, statistics\n"
    "readings = [gauge.read() for _ in range(8)][3:]  # the first warm up\n"
    "print(t, statistics.median(readings))\n"
)


def measure_setup() -> tuple[float, float]:
    """Median time for a fresh interpreter to import matdecide and build the
    coset table, which every CLI call pays, scaled and raw. Each child
    scales its time by its own gauge readings. The first child, which may
    also write the bytecode cache, is not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, raw = [], []
    for rep in range(SETUP_REPS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        if rep:
            t, reading = map(float, done.stdout.split())
            raw.append(t)
            scaled.append(t * gauge.REFERENCE_S / reading)
    return statistics.median(scaled), statistics.median(raw)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest ladder
    percentile that leaves at least 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (1 - p / 100) >= 10:
            chosen = p
    idx = max(0, math.ceil(chosen * n / 100) - 1)  # nearest rank
    return chosen, xs[idx], n - 1 - idx


class Runner:
    """Sends one workload's queries to matdecide and checks the answers."""

    def __init__(self, workload: str, workdir: Path):
        from matdecide import cli, formats, pda

        self.workload = workload
        self.cli, self.formats, self.pda = cli, formats, pda
        self.command = "identity" if workload == "identity_checked" else "member"
        self.gens_file = workdir / "gens.json"
        self.target_file = workdir / "target.json"

    def argv(self, q: workloads.Query) -> list[str]:
        self.gens_file.write_text(json.dumps([workloads.to_obj(g) for g in q.gens]))
        argv = [self.command, "--gens", str(self.gens_file), "--format", "structured"]
        if self.command == "member":
            self.target_file.write_text(json.dumps(workloads.to_obj(q.target)))
            argv += ["--target", str(self.target_file)]
        else:
            argv.append("--checked")
        return argv

    def run(self, q: workloads.Query, tracer=None):
        """Returns (latency s, answer, error or None, witness length or None).
        With a tracer, the timed call is the root span of the query."""

        def wrap(fn):
            return tracer.query(q.qid, fn) if tracer else fn()

        if self.workload == "word_emptiness":
            formats, pda = self.formats, self.pda

            def call():
                # module attributes are looked up per call so a tracer's
                # wrappers are seen
                return pda.free_automaton_emptiness(formats.parse_automaton(q.doc))

            t0 = clock()
            try:
                empty = wrap(call)
            except Exception as exc:  # a crash is a failed query, not a dead run
                return clock() - t0, None, f"{type(exc).__name__}: {exc}", None
            latency = clock() - t0
            err = None if empty is (not q.truth) else f"empty={empty}, planted nonempty={q.truth}"
            return latency, empty, err, None

        argv = self.argv(q)
        buf = io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(buf):
                code = wrap(lambda: self.cli.main(argv))
        except (Exception, SystemExit) as exc:
            return clock() - t0, None, f"{type(exc).__name__}: {exc}", None
        latency = clock() - t0
        text = buf.getvalue()
        try:
            out = json.loads(text)
        except json.JSONDecodeError:
            out = None
        if not isinstance(out, dict):
            return latency, (code, text), f"output is not a JSON object: {text!r}", None
        err = workloads.check_structured(q, self.command, code, out)
        wlen = len(out["witness"]) if err is None and q.truth else None
        return latency, (code, text), err, wlen


@dataclass
class Round:
    """What one pass over a round's queries produced."""

    correct: int = 0
    busy: float = 0.0  # CPU seconds spent inside queries, unscaled
    latencies: list = field(default_factory=list)  # CPU seconds, unscaled
    marks: list = field(default_factory=list)  # gauge position of each query
    answers: dict = field(default_factory=dict)  # query id -> answer
    witness_lens: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def run_round(runner: Runner, queries, deadline: float, meter: gauge.Gauge,
              tracer=None, expect=None) -> Round:
    """Run a round's queries in order, with gauge readings between them.
    With `expect`, each answer must equal the one recorded there for the
    same query."""
    out = Round()
    for q in queries:
        out.marks.append(meter.before_query())
        latency, answer, err, wlen = runner.run(q, tracer)
        meter.after_query(latency)
        if err is None and expect and q.qid in expect and expect[q.qid] != answer:
            err = "traced answer differs from the untraced one"
        if err is None:
            out.correct += 1
        else:
            out.failures.append(f"{q.qid}: {err}")
        if wlen is not None:
            out.witness_lens.append(wlen)
        out.answers[q.qid] = answer
        out.busy += latency
        out.latencies.append(latency)
        if time.monotonic() > deadline:
            break
    return out


def endless_rounds(workload: str, seed: int):
    r = 0
    while True:
        yield workloads.make_round(workload, seed, r)
        r += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "matdecide" / "__init__.py").is_file():
        print(f"perfbench: no matdecide sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import matdecide

    if Path(matdecide.__file__).resolve().parent != SRC / "matdecide":
        print(f"perfbench: imported {matdecide.__file__}, not the checkout", file=sys.stderr)
        return 2

    for _ in range(3):
        gauge.read()  # warm-up
    setup = None if args.trace else measure_setup()
    matdecide.default_coset_table()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, workdir)
        deadline = started + WALL_LIMIT_S
        first = workloads.make_round(args.workload, args.seed, 0)[0]
        runner.run(first)  # warm-up: lazy imports and allocator; not counted
        if args.trace:
            record = traced_run(runner, args, deadline)
        else:
            record = untraced_run(runner, args, deadline, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(
        workload=args.workload, seed=args.seed, trace=args.trace, seconds=args.seconds,
        kernel_backend=matdecide.kernel_backend(), python=platform.python_version(),
        nproc=os.cpu_count(),
    )
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    result_file = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} backend {record['kernel_backend']} "
          f"python {record['python']} nproc {record['nproc']}")
    print(f"rounds {record['rounds']} queries {record['attempted']} "
          f"failed {record['failed']} failed_frac {record['failed_frac']:.4f}")
    for msg in record["failures"][:10]:
        print(f"FAIL {msg}")
    for key in ("tail_percentile", "tail_samples_beyond", "per_k_word_letters"):
        if key in record:
            print(f"{key} {record[key]}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["failed"] == 0 else 1


def scaled(meter: gauge.Gauge, passes: list[Round]) -> list[float]:
    """Every query's latency at the gauge's reference speed."""
    return [x * meter.scale(m) for r in passes for x, m in zip(r.latencies, r.marks)]


def qps(meter: gauge.Gauge, passes: list[Round]) -> float:
    """Correct queries per second of scaled query time."""
    return sum(r.correct for r in passes) / sum(scaled(meter, passes))


def untraced_run(runner: Runner, args, deadline: float, setup: tuple[float, float]) -> dict:
    meter = gauge.Gauge()
    rounds: list[Round] = []
    for queries in endless_rounds(args.workload, args.seed):
        rounds.append(run_round(runner, queries, deadline, meter))
        if time.monotonic() > deadline or sum(r.busy for r in rounds) >= args.seconds:
            break
    meter.finish()
    latencies = scaled(meter, rounds)
    failures = [f for r in rounds for f in r.failures]
    pct, tail_s, beyond = tail(latencies)
    setup_s, raw_setup_s = setup
    metrics = {
        "queries_per_s": {"value": qps(meter, rounds), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "latency_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    return {
        "rounds": len(rounds), "attempted": len(latencies), "failed": len(failures),
        "failed_frac": len(failures) / len(latencies), "failures": failures,
        "tail_percentile": pct, "tail_samples_beyond": beyond,
        "raw_queries_per_s": sum(r.correct for r in rounds) / sum(r.busy for r in rounds),
        "raw_setup_s": raw_setup_s,
        "gauge_median_s": statistics.median(meter.readings),
        "gauge_reference_s": gauge.REFERENCE_S, "metrics": metrics,
    }


def traced_run(runner: Runner, args, deadline: float) -> dict:
    """Each round runs untraced and then traced, until the untraced passes
    reach half of --seconds. Alternating round by round exposes both passes
    to the same machine conditions, so their gap is the tracing overhead."""
    tracer = stagetrace.Tracer()
    meter = gauge.Gauge()
    rounds, base, traced = [], [], []
    for queries in endless_rounds(args.workload, args.seed):
        rounds.append(queries)
        base.append(run_round(runner, queries, deadline, meter))
        tracer.install()
        try:
            traced.append(run_round(runner, queries, deadline + 30, meter, tracer,
                                    base[-1].answers))
        finally:
            tracer.uninstall()
        if time.monotonic() > deadline or sum(r.busy for r in base) >= args.seconds / 2:
            break
    meter.finish()

    traced_queries = sum(len(r.latencies) for r in traced)
    attempted = traced_queries + sum(len(r.latencies) for r in base)
    failures = [f for r in base + traced for f in r.failures]
    metrics = stagetrace.per_layer_metrics(
        tracer, traced_queries, [n for r in traced for n in r.witness_lens],
        1 - qps(meter, traced) / qps(meter, base))
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")
    record = {
        "rounds": len(rounds), "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted, "failures": failures, "metrics": metrics,
    }
    if args.workload == "magnitude":
        record["per_k_word_letters"] = per_k_letters(tracer, rounds)
    return record


def per_k_letters(tracer: stagetrace.Tracer, rounds) -> dict[int, float]:
    """Mean letters on converted edges per query, by generator entry k."""
    letters: dict[int, list[int]] = {}
    for queries in rounds:
        for q in queries:
            letters.setdefault(q.k, []).append(tracer.by_query[q.qid]["convert.word_letters"])
    return {k: statistics.mean(v) for k, v in sorted(letters.items())}


if __name__ == "__main__":
    sys.exit(main())
