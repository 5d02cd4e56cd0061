"""Spans around the calls the benchmark's answers make into the program.

install() wraps each public function in TRACED and patches every name in
the program's modules that refers to it, so by-name imports (proofs and
cli import find_countermodel, validity imports holds) are caught as well
as module attribute lookups (validity calls kernels.eval_chunk).  A
recursive call of a wrapped function runs inside its outermost span
without a span of its own.

Each span is (answer, id, parent, name, start, end, rows): all spans of one
answer share the answer id, `rows` is the batch size of eval_chunk calls.
Spans stay in memory until the run ends.  A span's self time is its
duration minus that of its child spans, so the self times of all spans of
an answer, the benchmark's own root span included, add up to the root
span's duration.  The program is single-threaded: no span waits on
another, so there is no waiting time to report.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module, function) pairs that are wrapped, in layer order.
TRACED = (
    ("formula", "parse"),
    ("formula", "in_expertise_language"),
    ("model", "load_model"),
    ("semantics", "holds"),
    ("semantics", "check_correspondence"),
    ("kernels", "compile_program"),
    ("kernels", "eval_chunk"),
    ("validity", "find_countermodel"),
    ("proofs", "instantiate"),
    ("proofs", "soundness_sweep"),
    ("proofs", "check_derivation"),
    ("cli", "main"),
)
ROOT = "bench.answer"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._answer = -1
        self._patched: list[tuple] = []

    def install(self, modules: dict) -> None:
        """Wrap TRACED in the program's modules ({short name: module})."""
        for mod, fn in TRACED:
            original = getattr(modules[mod], fn)
            wrapper = self._wrap(f"{mod}.{fn}", original, rows=fn == "eval_chunk")
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, rows):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack or stack[-1][1] == name:
                # outside an answer, or a recursive call of the same layer
                return fn(*args, **kwargs)
            parent = stack[-1][0]
            sid = len(spans)
            spans.append(None)
            stack.append((sid, name))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                n = args[2].shape[0] if rows else 0
                spans[sid] = (self._answer, sid, parent, name, start, end, n)

        wrapper.__wrapped__ = fn
        return wrapper

    def answer(self, fn, *args):
        """Run fn(*args) as one answer under a root span."""
        self._answer += 1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append((sid, ROOT))
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (self._answer, sid, None, ROOT, start, end, 0)

    def summary(self) -> dict:
        """Per-layer totals: calls, inclusive s, self s, rows."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0})
        for _, sid, _, name, start, end, rows in self.spans:
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[sid]
            row["rows"] += rows
        return dict(out)

    def write(self, path) -> None:
        """One JSON array per span; times in seconds from the first span."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["answer","id","parent","name","start_s","end_s","rows"]\n')
            for a, sid, parent, name, start, end, rows in self.spans:
                fh.write(json.dumps([a, sid, parent, name, round(start - t0, 9), round(end - t0, 9), rows]))
                fh.write("\n")
