"""Benchmark of expertlogic's bounded countermodel search and its CLI.

Run from the root of a checkout; the program is imported from ./src.

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, a table
    python3 perfbench/run.py --self-check                 # tiny bounds, every check

Workloads: exhaustive, conjectures, cli (see README.md).  With
--trace 0 a run measures the end-to-end metrics; with --trace 1 it
alternates untraced and traced rounds, reports the per-layer split of the
traced ones and the tracing overhead, and writes its spans to
perfbench/out/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from spans import ROOT as ROOT_SPAN, TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

clock = time.perf_counter

END_TO_END = (
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p99_ms", "ms"),
    ("models_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
# Self time of find_countermodel is the search loop itself: partition
# enumeration, valuation build, least-index reduction, witness construction.
_SELF_NAME = {"validity.find_countermodel": "validity.search.self_s"}
PER_LAYER = tuple(
    item
    for mod, fn in TRACED
    for item in (
        (f"{mod}.{fn}.calls", "calls/answer"),
        (f"{mod}.{fn}.s", "s/answer"),
        (_SELF_NAME.get(f"{mod}.{fn}", f"{mod}.{fn}.self_s"), "s/answer"),
    )
) + (
    ("kernels.eval_chunk.rows", "rows/answer"),
    ("kernels.rows_per_s", "rows/s"),
    ("kernels.rows_per_call", "rows/call"),
    ("kernels.useful_rows_ratio", "ratio"),
    ("bench.answer.self_s", "s/answer"),
    ("trace.answer_s", "s/answer"),
    ("trace.overhead_pct", "%"),
    ("cli.import_s", "s"),
)
SETUP_PROBES = 5


def import_program():
    """expertlogic from this checkout's src/, never from anywhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import expertlogic
        import expertlogic.cli
    except ImportError as e:
        raise SystemExit(f"error: cannot import expertlogic from {src}: {e}")
    where = Path(expertlogic.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"error: imported expertlogic from {where}, not from {src}")
    return expertlogic


def program_modules(el) -> dict:
    return {
        "package": el,
        "formula": el.formula,
        "model": el.model,
        "semantics": el.semantics,
        "kernels": el.kernels,
        "validity": el.validity,
        "proofs": el.proofs,
        "cli": el.cli,
    }


def _probe_argv(args) -> list[str]:
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload]
    argv += ["--seed", str(args.seed)] + (["--small"] if args.small else [])
    return argv


def measure_setup(args, count: int) -> float:
    """Median over fresh interpreters of the time from spawning one until it
    has imported the program, built the inputs and made one warm-up call."""
    samples = []
    for _ in range(count):
        t0 = clock()
        proc = subprocess.Popen(_probe_argv(args), cwd=ROOT, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        samples.append(clock() - t0)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return statistics.median(samples)


def measure_cli_import(count: int) -> float:
    """Median time a fresh interpreter spends importing expertlogic.cli."""
    code = "import time; t = time.perf_counter(); import expertlogic.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, check=True
        )
        samples.append(float(out.stdout))
    return statistics.median(samples)


def setup_probe(args) -> int:
    el = import_program()
    workload = WORKLOADS[args.workload](el, ROOT, args.seed, args.small)
    workload.warm_up()
    print("ready", flush=True)
    return 0


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run(args) -> int:
    el = import_program()
    setup_s = None if args.trace else measure_setup(args, 1 if args.small else SETUP_PROBES)
    workload = WORKLOADS[args.workload](el, ROOT, args.seed, args.small)
    workload.warm_up()
    extra = {"in_process": True} if args.trace and args.workload == "cli" else {}
    tracer = Tracer() if args.trace else None

    rounds = []
    problems: list[str] = []
    raised = 0
    measured = 0.0
    r = 0
    while True:
        traced = bool(args.trace) and r % 2 == 1
        try:
            if traced:
                tracer.install(program_modules(el))
            try:
                rnd = workload.run_round(r, tracer if traced else None, **extra)
            finally:
                if traced:
                    tracer.uninstall()
        except Exception:
            # the answer that raised counts as attempted and failed
            traceback.print_exc()
            problems.append(f"round {r} raised")
            raised = 1
            break
        workload.check_round(rnd)
        rounds.append((rnd, traced))
        problems += rnd.problems
        measured += rnd.seconds
        r += 1
        if measured >= args.seconds and (not args.trace or r % 2 == 0):
            break
    peak_kb = getattr(workload, "peak_kb", 0) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems += workload.final_checks()
    if not rounds or (args.trace and len(rounds) < 2):
        print(f"error: {args.workload}: no round completed", file=sys.stderr)
        return 1

    attempted = sum(rnd.answers for rnd, _ in rounds) + raised
    failed = sum(rnd.failed for rnd, _ in rounds) + raised
    if args.trace:
        metrics = per_layer(args, tracer, rounds)
    else:
        metrics = end_to_end(setup_s, peak_kb, [rnd for rnd, _ in rounds])
    info = dict(workload.info, rounds=len(rounds), measured_s=round(measured, 3))
    print(f"info: {args.workload} seed {args.seed}: {json.dumps(info, sort_keys=True)}", file=sys.stderr)
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in (PER_LAYER if args.trace else END_TO_END)
                },
            }
        )
    )
    return 0


def end_to_end(setup_s, peak_kb, rounds) -> dict:
    times = [t for rnd in rounds for t in rnd.times]
    return {
        "setup_s": setup_s,
        "verdicts_per_s": sum(rnd.answers for rnd in rounds) / sum(rnd.seconds for rnd in rounds),
        "verdict_p50_ms": statistics.median(times) * 1e3,
        "verdict_p99_ms": nearest_rank(times, 0.99) * 1e3,
        "models_per_s": sum(rnd.models for rnd in rounds) / sum(rnd.model_seconds for rnd in rounds),
        "peak_rss_mb": peak_kb / 1024,
    }


def per_layer(args, tracer, rounds) -> dict:
    traced = [rnd for rnd, t in rounds if t]
    plain = [rnd for rnd, t in rounds if not t]
    answers = sum(rnd.answers for rnd in traced)
    layers = tracer.summary()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0}
    out = {}
    self_total = 0.0
    for mod, fn in TRACED:
        key = f"{mod}.{fn}"
        row = layers.get(key, empty)
        out[f"{key}.calls"] = row["calls"] / answers
        out[f"{key}.s"] = row["s"] / answers
        out[_SELF_NAME.get(key, f"{key}.self_s")] = row["self_s"] / answers
        self_total += row["self_s"]
    root = layers[ROOT_SPAN]
    chunk = layers.get("kernels.eval_chunk", empty)
    out["kernels.eval_chunk.rows"] = chunk["rows"] / answers
    out["kernels.rows_per_s"] = chunk["rows"] / chunk["s"] if chunk["s"] else 0.0
    out["kernels.rows_per_call"] = chunk["rows"] / chunk["calls"] if chunk["calls"] else 0.0
    out["kernels.useful_rows_ratio"] = (
        sum(rnd.models for rnd in traced) / chunk["rows"] if chunk["rows"] else 0.0
    )
    out["bench.answer.self_s"] = root["self_s"] / answers
    out["trace.answer_s"] = root["s"] / answers
    self_total += root["self_s"]
    if abs(self_total - root["s"]) > 1e-6 * max(1.0, root["s"]):
        raise RuntimeError(f"self times add up to {self_total} s, answers took {root['s']} s")
    per_answer = lambda rs: sum(r.seconds for r in rs) / sum(r.answers for r in rs)  # noqa: E731
    out["trace.overhead_pct"] = (per_answer(traced) / per_answer(plain) - 1) * 100
    out["cli.import_s"] = measure_cli_import(1 if args.small else SETUP_PROBES)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    return out


def run_many(args, names, seconds, trace, small=False) -> list[tuple[str, dict | None]]:
    """Each workload in its own process; (name, result or None)."""
    results = []
    for name in names:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(seconds), "--trace", str(trace)] + (["--small"] if small else [])
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        results.append((name, result))
    return results


def print_table(results) -> None:
    for name, result in results:
        if result is None:
            print(f"{name}: no result")
            continue
        print(f"{name}: correct {result['correct']}, attempted {result['attempted']}, failed {result['failed']}")
        for metric, cell in result["metrics"].items():
            print(f"  {metric:<40} {cell['value']:>16.6g} {cell['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="tiny bounds, for checking the checks")
    ap.add_argument("--self-check", action="store_true", help="every workload at tiny bounds, both modes")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.pop("EXPERTLOGIC_KERNEL", None)
    os.chdir(ROOT)
    if args.setup_probe:
        return setup_probe(args)
    if args.self_check:
        import_program()
        results = []
        for trace in (0, 1):
            results += run_many(args, list(WORKLOADS), 0, trace, small=True)
        print_table(results)
        bad = [n for n, r in results if r is None or not r["correct"] or r["failed"]]
        print("self-check: " + ("failed on " + ", ".join(bad) if bad else "ok"))
        return 1 if bad else 0
    if args.workload == "all":
        import_program()
        results = run_many(args, list(WORKLOADS), args.seconds, args.trace)
        print_table(results)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"results-trace{args.trace}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump(dict(results), fh, indent=2)
        return 0 if all(r is not None and r["correct"] for _, r in results) else 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
