"""Benchmark the countermodel-search engines against each other.

Runs exhaustive bounded sweeps (formulas chosen to have no countermodel, so
every engine scans the full space) and reports models/second per engine:
numpy always, the pure-Python reference with --with-python.

    python3 benchmarks/bench_search.py
    python3 benchmarks/bench_search.py --max-states 6 --repeat 5
    python3 benchmarks/bench_search.py --with-python --max-states 4
"""

import argparse
import time

from expertlogic.formula import parse
from expertlogic.validity import EnumerationSpec, find_countermodel

FORMULAS = (
    "p -> S p",
    "E p <-> E ~p",
    "E p <-> A (S p -> p)",
    "S p & ~S q -> S (p & ~q)",
    "S ~S p -> ~S p",
    "(E p & E q) -> E (p & q)",
)


def bench(text: str, spec: EnumerationSpec, engine: str, repeat: int) -> tuple[float, int]:
    formula = parse(text)
    best = float("inf")
    checked = 0
    for _ in range(repeat):
        started = time.perf_counter()
        verdict = find_countermodel(formula, spec, engine)
        best = min(best, time.perf_counter() - started)
        if verdict.status != "valid-up-to-bound":
            raise SystemExit(
                f"benchmark formula {text!r} unexpectedly has a countermodel"
            )
        checked = verdict.stats.models_checked
    return best, checked


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-states", type=int, default=6)
    ap.add_argument("--atoms", default="p,q")
    ap.add_argument("--repeat", type=int, default=3, help="take the best of N runs")
    ap.add_argument(
        "--with-python",
        action="store_true",
        help="also time the pure-Python engine (slow beyond 4 states)",
    )
    args = ap.parse_args()

    atoms = tuple(a.strip() for a in args.atoms.split(",") if a.strip())
    spec = EnumerationSpec(args.max_states, atoms)
    engines = ["numpy", "python"] if args.with_python else ["numpy"]

    print(
        f"bound: up to {spec.n_states} states, atoms {{{', '.join(atoms)}}}, "
        f"{spec.total_count()} models per formula, best of {args.repeat}"
    )
    header = f"{'formula':<28}" + "".join(f"{e:>16}" for e in engines)
    if len(engines) > 1:
        header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for text in FORMULAS:
        cells = []
        times = []
        for engine in engines:
            seconds, checked = bench(text, spec, engine, args.repeat)
            times.append(seconds)
            rate = checked / seconds if seconds else float("inf")
            cells.append(f"{seconds * 1e3:9.1f}ms {rate / 1e6:4.1f}M/s")
        line = f"{text:<28}" + "".join(f"{c:>16}" for c in cells)
        if len(times) > 1:
            line += f"{times[1] / times[0]:9.1f}x"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
