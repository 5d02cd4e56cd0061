"""The workloads: inputs from the seed, one round, and its checks.

Every workload is a closed loop with one caller: an answer starts only
when the previous one has returned.  A run repeats whole rounds; each
round is built from (workload, seed, round index), so the same seed gives
the same inputs.  run_round() times the answers and keeps only what its
checks need; check_round() and final_checks() run outside the timed
phase and compare the program's outputs with the independent logic in
reference.py, never with a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import reference as R

clock = time.perf_counter


@dataclass
class Round:
    """What one round did: answers, timed seconds and models checked."""

    answers: int = 0
    seconds: float = 0.0
    models: int = 0
    # seconds the models were searched in (on cli, the search commands)
    model_seconds: float = 0.0
    times: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    pending: list = field(default_factory=list)


def _rng(name: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{name}/{seed}/{r}")


def _call(fn, tracer, *args):
    return tracer.answer(fn, *args) if tracer is not None else fn(*args)


class Workload:
    name = ""

    def __init__(self, el, root: Path, seed: int, small: bool):
        self.el = el
        self.root = root
        self.seed = seed
        self.info: Counter = Counter()

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_round(self, r: int, tracer=None) -> Round:
        raise NotImplementedError

    def check_round(self, rnd: Round) -> None:
        """Mark failed answers in rnd (outside the timed phase)."""

    def final_checks(self) -> list[str]:
        """Checks of the paper's facts on the inputs, once per run."""
        return []


class Exhaustive(Workload):
    """The six valid formulas of benchmarks/bench_search.py at 7 states."""

    name = "exhaustive"
    TEXTS = (
        "p -> S p",
        "E p <-> E ~p",
        "E p <-> A (S p -> p)",
        "S p & ~S q -> S (p & ~q)",
        "S ~S p -> ~S p",
        "(E p & E q) -> E (p & q)",
    )
    ATOMS = ("p", "q")

    def __init__(self, el, root, seed, small):
        super().__init__(el, root, seed, small)
        self.n_states = 3 if small else 7
        self.spec = el.EnumerationSpec(self.n_states, self.ATOMS)
        self.trees = [R.parse(t) for t in self.TEXTS]
        self.expected = R.total_count(self.n_states, len(self.ATOMS))

    def _one(self, text):
        el = self.el
        return el.find_countermodel(el.parse(text), self.spec)

    def warm_up(self):
        el = self.el
        el.find_countermodel(el.parse(self.TEXTS[0]), el.EnumerationSpec(2, self.ATOMS))

    def run_round(self, r, tracer=None):
        rnd = Round()
        order = _rng(self.name, self.seed, r).sample(range(len(self.TEXTS)), len(self.TEXTS))
        started = clock()
        for i in order:
            t0 = clock()
            v = _call(self._one, tracer, self.TEXTS[i])
            rnd.times.append(clock() - t0)
            rnd.pending.append((i, v.status, v.stats.models_checked, v.stats.truncated))
            rnd.models += v.stats.models_checked
        rnd.seconds = rnd.model_seconds = clock() - started
        rnd.answers = len(order)
        return rnd

    def check_round(self, rnd):
        for i, status, models, truncated in rnd.pending:
            if status != "valid-up-to-bound" or truncated or models != self.expected:
                rnd.failed += 1
                rnd.problems.append(
                    f"{self.TEXTS[i]!r}: {status}, {models} models, expected "
                    f"valid-up-to-bound after {self.expected}"
                )
        rnd.pending.clear()

    def final_checks(self):
        out = []
        for text, tree in zip(self.TEXTS, self.trees):
            hit = R.reference_search(tree, self.ATOMS, 3)
            if hit is not None:
                out.append(f"reference search refutes valid formula {text!r}: {hit}")
        return out


def _norm(witness, atoms):
    """A program witness report with every search atom in its valuation."""
    model = dict(witness["model"])
    model["valuation"] = {a: list(model["valuation"].get(a, [])) for a in atoms}
    model["partition"] = [list(b) for b in model["partition"]]
    return {"model": model, "state": witness["state"]}


class Conjectures(Workload):
    """Seeded random formulas over E, S, A and {p, q, r} at 4 states."""

    name = "conjectures"
    ATOMS = ("p", "q", "r")
    DEPTH = 5
    # answers whose verdict the reference search re-derives, per run
    SAMPLE = 24

    def __init__(self, el, root, seed, small):
        super().__init__(el, root, seed, small)
        self.n_states = 2 if small else 4
        self.batch = 60 if small else 500
        self.spec = el.EnumerationSpec(self.n_states, self.ATOMS)
        self.total = R.total_count(self.n_states, len(self.ATOMS))
        self._inputs = {}
        self._sample_rng = random.Random(f"{self.name}/sample/{seed}")
        self.sampled = 0
        self.sampled_valid = 0

    def inputs(self, r):
        """The round's formulas (benchmark trees) and their text."""
        got = self._inputs.pop(r, None)
        if got is None:
            rng = _rng(self.name, self.seed, r)
            trees = [R.random_formula(rng, self.ATOMS, self.DEPTH) for _ in range(self.batch)]
            got = trees, [R.render(t) for t in trees]
        return got

    def _one(self, text):
        el = self.el
        return el.find_countermodel(el.parse(text), self.spec)

    def warm_up(self):
        self._inputs[0] = trees, texts = self.inputs(0)
        self._one(texts[0])

    def run_round(self, r, tracer=None):
        rnd = Round()
        trees, texts = self.inputs(r)
        started = clock()
        for text in texts:
            t0 = clock()
            v = _call(self._one, tracer, text)
            rnd.times.append(clock() - t0)
            rnd.pending.append(v)
            rnd.models += v.stats.models_checked
        rnd.seconds = rnd.model_seconds = clock() - started
        rnd.answers = len(texts)
        rnd.pending = list(zip(trees, rnd.pending))
        return rnd

    def check_round(self, rnd):
        for tree, v in rnd.pending:
            why = None
            if v.status == "countermodel-found":
                witness = v.to_report()["witness"]
                self.info[f"refuted_at_{len(witness['model']['states'])}"] += 1
                why = R.check_witness(tree, witness)
                pos = R.witness_position(witness, self.ATOMS)
                if why is None and pos != v.stats.models_checked:
                    why = f"models_checked {v.stats.models_checked}, witness is model {pos}"
            else:
                witness = None
                self.info["valid"] += 1
                if v.stats.models_checked != self.total or v.stats.truncated:
                    why = f"valid after {v.stats.models_checked} models, expected {self.total}"
            self.info["size_sum"] += R.size_of(tree)
            self.info["depth_sum"] += R.depth_of(tree)
            # the reference search re-derives the first valid answer and
            # about one in ten answers until SAMPLE are done
            first_valid = witness is None and self.sampled_valid < 1
            drawn = self.sampled < self.SAMPLE and self._sample_rng.random() < 0.1
            if why is None and (first_valid or drawn):
                why = self._reference(tree, witness)
            if why is not None:
                rnd.failed += 1
                rnd.problems.append(f"{R.render(tree)}: {why}")
        rnd.pending.clear()

    def _reference(self, tree, witness):
        self.sampled += 1
        hit = R.reference_search(tree, self.ATOMS, self.n_states)
        if hit is None:
            self.sampled_valid += 1
            return None if witness is None else "reference search finds no countermodel"
        if witness is None:
            return f"reference search refutes it at model {hit[0]}"
        if R.witness_of(hit, self.ATOMS) != _norm(witness, self.ATOMS):
            return f"reference witness {R.witness_of(hit, self.ATOMS)} differs"
        return None

    def final_checks(self):
        if self.sampled < 2 or self.sampled_valid < 1:
            return [f"reference search sampled {self.sampled} answers, {self.sampled_valid} valid"]
        return []


class Cli(Workload):
    """Fresh `python -m expertlogic ... --json` processes, one at a time."""

    name = "cli"
    PROOFS = ("nec_shat.prf", "shat_5.prf", "shat_k.prf", "shat_t.prf")
    MODELS = ("economist.json", "distribution.json")
    ATOMS = ("p", "q", "r")

    def __init__(self, el, root, seed, small):
        super().__init__(el, root, seed, small)
        self.bound = 2 if small else 4
        self.models = {}
        for name in self.MODELS:
            with open(root / "fixtures" / name, encoding="utf-8") as fh:
                doc = json.load(fh)
            self.models[name] = (doc, R.SetModel.from_document(doc))
        for name in self.PROOFS:
            if not (root / "fixtures" / name).is_file():
                raise FileNotFoundError(f"fixtures/{name}")
        self.corpus = [R.parse(t) for t in el.validity.CORPUS_TEXTS]
        self.schemas = {**R.SCHEMAS, **R.INVALID_SCHEMAS}
        if set(el.SCHEMAS) != set(R.SCHEMAS) or el.E_DISTRIBUTION.name != "E_dist":
            raise RuntimeError("the program's schemas are not the paper's eight plus E_dist")
        self.sweep_instances = sum(
            len(self.corpus) ** len(R.metavariables(t)) for t in self.schemas.values()
        )
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.theorems: dict[str, str] = {}
        self.peak_kb = 0
        self._commands = {}

    # -- inputs --

    def commands(self, r):
        """(argv after the program name, expectation) for round r."""
        got = self._commands.pop(r, None)
        if got is not None:
            return got
        rng = _rng(self.name, self.seed, r)
        out = []
        pqr = self.ATOMS
        out.append((["translate", R.render(R.random_formula(rng, pqr, 4))], ("translate",)))
        for name, (doc, sm) in self.models.items():
            atoms = sorted(doc["valuation"])
            path = f"fixtures/{name}"
            f = R.random_formula(rng, atoms, 4)
            state = rng.choice(doc["states"])
            out.append((["eval", path, R.render(f), "--state", state], ("eval", name, f, state)))
            f = R.random_formula(rng, atoms, 4)
            out.append((["eval", path, R.render(f)], ("eval", name, f, None)))
            f = R.random_formula(rng, atoms, 4)
            mode = rng.choice(["fast", "literal"])
            out.append((["extension", path, R.render(f), "--mode", mode], ("extension", name, f)))
            out.append((["to-s5", path], ("to-s5", name)))
            f = R.random_formula(rng, atoms, 4)
            out.append((["correspondence", path, R.render(f)], ("correspondence", name, f)))
        for name in self.PROOFS:
            out.append((["check-proof", f"fixtures/{name}"], ("check-proof", name)))
        # the eight schemas and E_dist over the corpus; 2 states keep it short
        out.append((["soundness-sweep", "--with-e-distribution", "--max-states", "2"], ("soundness-sweep",)))
        search = ["--max-states", str(self.bound)] if self.bound != 4 else []
        # valid searches take time in proportion to the formula's size, so
        # their sizes are held in a narrow band
        for _ in range(2):
            f = self._covering(rng, lambda g: 16 <= R.size_of(g) <= 20, valid_schema=True)
            out.append((["countermodel", R.render(f)] + search, ("countermodel", f)))
        f = self._covering(rng, lambda g: R.reference_search(g, pqr, 2) is not None)
        out.append((["countermodel", R.render(f)] + search, ("countermodel", f)))
        f = self._covering(rng, lambda g: 8 <= R.size_of(g) <= 10 and "E" in R.operators_of(g))
        g = R.eliminate_expertise(f)
        out.append((["equiv", R.render(f), R.render(g)] + search, ("equiv", f, g)))
        return [(["-m", "expertlogic"] + argv + ["--json"], want) for argv, want in out]

    def _covering(self, rng, accept, valid_schema=False):
        """A formula over exactly {p, q, r} that `accept`s; valid_schema
        makes it an instance of one of the paper's axiom schemas."""
        while True:
            if valid_schema:
                template = R.SCHEMAS[rng.choice(sorted(R.SCHEMAS))]
                f = R.substitute(
                    template,
                    {m: R.random_formula(rng, self.ATOMS, 3) for m in R.metavariables(template)},
                )
            else:
                f = R.random_formula(rng, self.ATOMS, 4)
            if R.atoms_of(f) == set(self.ATOMS) and accept(f):
                return f

    # -- running --

    def _spawn(self, argv):
        """Exit code, stdout, wall seconds and peak RSS (kB) of one process."""
        t0 = clock()
        proc = subprocess.Popen(
            [sys.executable] + argv,
            cwd=self.root,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = clock() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out.decode(), wall, usage.ru_maxrss

    def _in_process(self, argv):
        """cli.main in this process, output captured (for the traced run)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.el.cli.main(argv[2:])
        return code, out.getvalue()

    def warm_up(self):
        self._commands[0] = cmds = self.commands(0)
        code, out, _, _ = self._spawn(cmds[0][0])
        if code != 0:
            raise RuntimeError(f"warm-up command exited {code}")

    def run_round(self, r, tracer=None, in_process=False):
        rnd = Round()
        cmds = self.commands(r)
        started = clock()
        for argv, want in cmds:
            if in_process:
                t0 = clock()
                code, out = _call(self._in_process, tracer, argv)
                rnd.times.append(clock() - t0)
            else:
                code, out, wall, peak = self._spawn(argv)
                rnd.times.append(wall)
                self.peak_kb = max(self.peak_kb, peak)
            rnd.pending.append((argv, want, code, out))
        rnd.seconds = clock() - started
        rnd.answers = len(cmds)
        for (argv, want, code, out), wall in zip(rnd.pending, rnd.times):
            if want[0] in ("countermodel", "equiv") and code in (0, 1):
                rnd.models += json.loads(out)["models_checked"]
                rnd.model_seconds += wall
        return rnd

    def check_round(self, rnd):
        for argv, want, code, out in rnd.pending:
            try:
                why = self._check(want, code, json.loads(out) if out.strip() else None)
            except (KeyError, TypeError, ValueError) as e:
                why = f"unexpected output: {e!r}"
            if why is not None:
                rnd.failed += 1
                rnd.problems.append(f"{' '.join(argv[2:])}: exit {code}: {why}")
        rnd.pending.clear()

    def _check(self, want, code, doc):
        kind = want[0]
        if doc is None:
            return "no JSON on stdout"
        if kind == "translate":
            f = R.parse(doc["formula"])
            kf = R.parse(doc["knowledge_form"])
            ee = R.parse(doc["expertise_eliminated"])
            for _, sm in self.models.values():
                ext = sm.extension(f)
                if sm.extension(kf) != ext or sm.extension(ee) != ext:
                    return "a translation changes the extension on a fixture model"
            return None if code == 0 else "expected exit 0"
        if kind in ("eval", "extension", "correspondence"):
            sm = self.models[want[1]][1]
            ext = sm.extension(want[2])
            names = [s for s in sm.states if s in ext]
            if kind == "eval" and want[3] is not None:
                truth = want[3] in ext
                if doc["value"] != truth:
                    return f"value {doc['value']}, reference {truth}"
                return None if code == (0 if truth else 1) else f"expected exit {int(not truth)}"
            if doc["extension"] != names:
                return f"extension {doc['extension']}, reference {names}"
            if kind == "eval":
                whole = ext == sm.universe
                if doc["globally_true"] != whole:
                    return "globally_true disagrees with the reference"
                return None if code == (0 if whole else 1) else f"expected exit {int(not whole)}"
            if kind == "correspondence":
                if doc["translated_extension"] != names or doc["agrees"] is not True:
                    return "knowledge form disagrees with the formula"
            return None if code == 0 else "expected exit 0"
        if kind == "to-s5":
            sm = self.models[want[1]][1]
            cells = []
            for s in sm.states:
                cell = sm.cell(s)
                if cell not in cells:
                    cells.append(cell)
            classes = [[s for s in sm.states if s in c] for c in cells]
            pairs = [[a, b] for a in sm.states for b in sm.states if b in sm.cell(a)]
            if doc["classes"] != classes or sorted(doc["relation"]) != sorted(pairs):
                return "induced relation differs from the reference cells"
            return None if code == 0 else "expected exit 0"
        if kind == "check-proof":
            if doc["ok"] is not True or code != 0:
                return "fixture derivation rejected"
            self.theorems[want[1]] = doc["theorem"]
            return None
        if kind == "soundness-sweep":
            if doc["instances_checked"] != self.sweep_instances:
                return f"{doc['instances_checked']} instances, expected {self.sweep_instances}"
            if not doc["violations"]:
                return "E_dist, which is not valid, has no countermodel"
            for v in doc["violations"]:
                if v["schema"] != "E_dist":
                    return f"sound schema {v['schema']} reported violated"
                subst = {m: R.parse(t) for m, t in v["substitution"].items()}
                tree = R.substitute(R.INVALID_SCHEMAS["E_dist"], subst)
                why = R.check_witness(tree, v["witness"])
                if why is not None:
                    return f"E_dist instance {v['instance']}: {why}"
            return None if code == 1 else "expected exit 1"
        f = want[1] if kind == "countermodel" else ("iff", want[1], want[2])
        atoms = sorted(R.atoms_of(f))
        if doc["bound"]["atoms"] != atoms or doc["bound"]["n_states"] != self.bound:
            return f"searched {doc['bound']}, expected {self.bound} states over {atoms}"
        if doc["status"] == "countermodel-found":
            why = R.check_witness(f, doc["witness"])
            pos = R.witness_position(doc["witness"], atoms)
            if why is None and pos != doc["models_checked"]:
                why = f"models_checked {doc['models_checked']}, witness is model {pos}"
            if why is None and kind == "equiv":
                why = "the expertise-free form is equivalent (ES axiom)"
            if why is None and code != 1:
                why = "expected exit 1"
            return why
        total = R.total_count(self.bound, len(atoms))
        if doc["models_checked"] != total:
            return f"valid after {doc['models_checked']} models, expected {total}"
        if kind == "countermodel" and R.reference_search(f, atoms, 1) is not None:
            return "reported valid but a one-state model refutes it"
        return None if code == 0 else "expected exit 0"

    def final_checks(self):
        out = []
        for name, text in sorted(self.theorems.items()):
            tree = R.parse(text)
            atoms = sorted(R.atoms_of(tree))
            if R.reference_search(tree, atoms, 3) is not None:
                out.append(f"theorem of {name} has a countermodel: {text}")
        if len(self.theorems) != len(self.PROOFS):
            out.append("not every proof fixture was checked")
        # the paper's soundness: no instance of the eight schemas has a
        # countermodel; expertise does not distribute over implication
        refuted = 0
        for name, template in self.schemas.items():
            metas = R.metavariables(template)
            for picks in product(self.corpus, repeat=len(metas)):
                tree = R.substitute(template, dict(zip(metas, picks)))
                if R.reference_search(tree, ("p", "q"), 2) is None:
                    continue
                if name in R.SCHEMAS:
                    out.append(f"reference search refutes {name} instance {R.render(tree)}")
                refuted += 1
        if refuted == 0:
            out.append("reference search finds no countermodel to any E_dist instance")
        return out


WORKLOADS = {w.name: w for w in (Exhaustive, Conjectures, Cli)}
