"""Release gate: each test is one acceptance criterion with its runtime
budget pinned, and each prints one PASS/FAIL/SKIP line in the terminal
summary (see conftest.py).  The labels are the docstring first lines."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from expertlogic.cli import main
from expertlogic.formula import (
    And,
    BOT,
    Iff,
    Imp,
    ModalA,
    ModalE,
    ModalS,
    Not,
    Or,
    TOP,
    parse,
    render,
    to_knowledge_form,
)
from expertlogic.model import (
    Partition,
    expertise_set_from_partition,
    load_model,
    model_to_dict,
    partition_from_expertise_set,
    set_names,
    to_s5_model,
)
from expertlogic.proofs import E_DISTRIBUTION, SCHEMAS, check_derivation, load_derivation
from expertlogic.semantics import extension, extension_relational, globally_true, holds
from expertlogic.validity import (
    ENGINES,
    EnumerationSpec,
    blocks_from_rgs,
    corpus_formulas,
    enumerate_models,
    find_countermodel,
    rgs_partitions,
)
from expertlogic.proofs import soundness_sweep

from mutations import mutation_catalog

ECONOMIST = "fixtures/economist.json"
DISTRIBUTION_FIXTURE = "fixtures/distribution.json"
NEC_SHAT = "fixtures/nec_shat.prf"

DISTRIBUTION = "E(p -> q) -> (E p -> E q)"

pytestmark = pytest.mark.acceptance


def _sweep_models(n_states=4, atoms=("p", "q")):
    for n in range(1, n_states + 1):
        yield from enumerate_models(EnumerationSpec(n, atoms))


def test_economist_fixture_exact_values():
    """economist fixture evaluates exactly (expertise, soundness, extension)"""
    started = time.perf_counter()
    model = load_model(ECONOMIST)
    assert globally_true(model, parse("E r"))
    assert holds(model, "c", parse("S (r & p)"))
    assert not holds(model, "c", parse("r & p"))
    assert set_names(extension(model, parse("r & p")), model.states) == ["a"]
    assert time.perf_counter() - started < 1.0


def test_distribution_countermodel_and_fixture(capsys):
    """expertise distribution falsified: search witness and bundled fixture"""
    started = time.perf_counter()
    code = main(["countermodel", DISTRIBUTION, "--max-states", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "countermodel found" in out

    model = load_model(DISTRIBUTION_FIXTURE)
    formula = parse(DISTRIBUTION)
    assert extension(model, formula) == 0  # false at every state
    assert time.perf_counter() - started < 1.0


def _conjunction(formulas):
    items = list(formulas)
    while len(items) > 1:
        paired = [And(a, b) for a, b in zip(items[::2], items[1::2])]
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


def test_expertise_closure_sweep():
    """closure laws of expertise hold on every model up to four states"""
    started = time.perf_counter()
    corpus = corpus_formulas()
    assert len(corpus) >= 12

    laws = []
    for f in corpus:
        laws.append(Iff(ModalE(f), ModalE(Not(f))))
        laws.append(Iff(ModalE(f), ModalA(ModalE(f))))
        # expertise claims are settled model-wide, one way or the other
        laws.append(Or(ModalA(ModalE(f)), ModalA(Not(ModalE(f)))))
        laws.append(And(And(ModalE(TOP), ModalE(BOT)), ModalE(ModalE(f))))
        laws.append(Imp(f, ModalS(f)))
    laws.extend(
        Imp(And(ModalE(f), ModalE(g)), ModalE(And(f, g)))
        for f in corpus
        for g in corpus
    )

    spec = EnumerationSpec(4, ("p", "q"))
    verdict = find_countermodel(_conjunction(laws), spec)
    if verdict.status != "valid-up-to-bound":
        model = verdict.witness_model
        broken = [
            render(law)
            for law in laws
            if extension(model, law) != model.full_mask
        ]
        pytest.fail(f"laws {broken} fail on {model_to_dict(model)}")
    assert verdict.stats.models_checked == 4196
    assert time.perf_counter() - started < 30.0


def test_translation_correspondence_sweep():
    """induced-knowledge translation agrees with direct evaluation everywhere"""
    started = time.perf_counter()
    corpus = corpus_formulas()
    translated = [to_knowledge_form(f) for f in corpus]

    models = pairs = 0
    for model in _sweep_models():
        models += 1
        relational = to_s5_model(model)
        for f, tf in zip(corpus, translated):
            pairs += 1
            assert extension(model, f) == extension_relational(relational, tf), (
                render(f),
                model_to_dict(model),
            )
    assert models == 4196
    assert pairs == 4196 * len(corpus)
    assert time.perf_counter() - started < 60.0


def test_partition_family_bijection():
    """partition and expertise-family views are interchangeable"""
    started = time.perf_counter()
    for n in range(1, 6):
        count = 0
        for rgs in rgs_partitions(n):
            count += 1
            partition = Partition.from_blocks(blocks_from_rgs(rgs))
            family = expertise_set_from_partition(partition)
            assert partition_from_expertise_set(family, n) == partition
            assert (
                expertise_set_from_partition(partition_from_expertise_set(family, n))
                == family
            )
        assert count == [1, 2, 5, 15, 52][n - 1]

    for n in range(1, 5):
        for rgs in rgs_partitions(n):
            partition = Partition.from_blocks(blocks_from_rgs(rgs))
            members = set(expertise_set_from_partition(partition))
            for subset in range(1 << n):
                assert (subset in members) == partition.is_union_of_blocks(subset)
    assert time.perf_counter() - started < 5.0


def test_axiom_schemas_sound_planted_flagged():
    """all eight axiom schemas sweep clean; planted distribution is flagged"""
    started = time.perf_counter()
    spec = EnumerationSpec(4, ("p", "q"))
    corpus = corpus_formulas()

    report = soundness_sweep(SCHEMAS.values(), corpus, spec)
    assert report.ok, report.to_report()
    assert report.instances_checked == 360

    planted = soundness_sweep([E_DISTRIBUTION], corpus, spec)
    assert not planted.ok
    first = planted.violations[0]
    assert first.schema == "E_dist"
    assert dict(first.substitution) == {"phi": parse("p"), "psi": parse("q")}
    assert time.perf_counter() - started < 60.0


def test_equivalence_cli(capsys):
    """expertise unfolds to its soundness form under bounded equivalence"""
    started = time.perf_counter()
    code = main(["equiv", "E p", "A (S p -> p)"])
    out_one = capsys.readouterr().out
    assert code == 0
    assert "no countermodel with ≤ 4 states" in out_one

    code = main(["equiv", "~E p", "A^ (S p & ~p)"])
    out_two = capsys.readouterr().out
    assert code == 0
    assert "no countermodel with ≤ 4 states" in out_two
    assert time.perf_counter() - started < 10.0


def test_proof_checker_and_mutations():
    """bundled derivation verifies; twenty mutations rejected at the right step"""
    derivation = load_derivation(NEC_SHAT)
    assert check_derivation(derivation).ok
    assert render(derivation.theorem) == "~S ~(p -> p)"

    catalog = mutation_catalog(derivation)
    assert len(catalog) == 20
    for expected_step, mutant in catalog:
        verdict = check_derivation(mutant)
        assert not verdict.ok
        assert verdict.step == expected_step, (expected_step, str(verdict))


def test_dual_path_soundness_agreement():
    """literal and block-closure evaluation agree on the whole sweep"""
    corpus = corpus_formulas()
    mismatches = 0
    models = 0
    for model in _sweep_models():
        models += 1
        for f in corpus:
            if extension(model, f, mode="fast") != extension(model, f, mode="literal"):
                mismatches += 1
    assert models == 4196
    assert mismatches == 0


def _countermodel_json(engine):
    """Run the distribution countermodel search through the CLI, as a user would."""
    argv = [
        sys.executable,
        "-m",
        "expertlogic",
        "countermodel",
        DISTRIBUTION,
        "--max-states",
        "3",
        "--engine",
        engine,
        "--json",
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(argv, env=env, capture_output=True, check=False)


def _assert_pinned_witness(stdout):
    """The enumeration-least countermodel of distribution, and the models it took."""
    doc = json.loads(stdout)
    assert doc["witness"]["model"]["valuation"] == {"p": [], "q": ["x0"]}
    assert doc["witness"]["state"] == "x0"
    assert doc["witness"]["model"]["partition"] == [["x0", "x1"]]
    assert doc["models_checked"] == 9
    return doc


def test_deterministic_parallel_witness():
    """witness search emits byte-identical JSON reports"""
    reports = {}
    for engine in ENGINES:
        first = _countermodel_json(engine)
        second = _countermodel_json(engine)
        assert first.returncode == second.returncode == 1, (engine, first.stderr)
        assert first.stdout == second.stdout, engine
        doc = _assert_pinned_witness(first.stdout)
        assert doc.pop("engine") == engine
        reports[engine] = doc
    assert all(doc == reports["bitslice"] for doc in reports.values()), reports
