"""Command-line contract: outputs, exit codes, JSON stability."""

import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from expertlogic import kernels
from expertlogic.cli import build_parser, main
from expertlogic.formula import atom_names, parse, render
from expertlogic.kernels import eval_chunk

from reference import ref_eval, ref_family_from_partition, ref_partitions
from strategies import formulas

ECONOMIST = "fixtures/economist.json"
# a child `python -m expertlogic` imports the package from this tree
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
DISTRIBUTION_FIXTURE = "fixtures/distribution.json"
NEC_SHAT = "fixtures/nec_shat.prf"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_true_at_state(self, capsys):
        code, out, _ = run(capsys, "eval", ECONOMIST, "S (r & p)", "--state", "c")
        assert code == 0
        assert out == "true\n"

    def test_false_at_state(self, capsys):
        code, out, _ = run(capsys, "eval", ECONOMIST, "r & p", "--state", "c")
        assert code == 1
        assert out == "false\n"

    def test_extension_and_global_verdict(self, capsys):
        code, out, _ = run(capsys, "eval", ECONOMIST, "E p")
        assert code == 1
        assert "extension: {}" in out
        assert "globally true: no" in out

    def test_constant_true_everywhere(self, capsys):
        code, out, _ = run(capsys, "eval", ECONOMIST, "T")
        assert code == 0
        assert "extension: {a, b, c, d}" in out
        assert "globally true: yes" in out

    def test_model_in_expertise_family_form(self, capsys):
        code, out, _ = run(
            capsys, "eval", DISTRIBUTION_FIXTURE, "E (p -> q) -> E p -> E q"
        )
        assert code == 1
        assert "extension: {}" in out

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "eval", ECONOMIST, "E r", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc == {
            "formula": "E r",
            "extension": ["a", "b", "c", "d"],
            "globally_true": True,
        }

    def test_state_json(self, capsys):
        code, out, _ = run(
            capsys, "eval", ECONOMIST, "S (r & p)", "--state", "c", "--json"
        )
        assert code == 0
        assert json.loads(out) == {"formula": "S (r & p)", "state": "c", "value": True}

    def test_literal_mode_agrees(self, capsys):
        fast = run(capsys, "eval", ECONOMIST, "S (r & p)", "--mode", "fast")
        literal = run(capsys, "eval", ECONOMIST, "S (r & p)", "--mode", "literal")
        assert fast == literal

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "fixtures/missing.json", "p"),
            ("eval", ECONOMIST, "p &"),
            ("eval", ECONOMIST, "p", "--state", "z"),
            ("eval", ECONOMIST, "K p"),
        ],
    )
    def test_errors_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "error:" in err
        assert out == ""

    @pytest.mark.parametrize("blocks, code", [(21, 2), (20, 1)])
    def test_literal_mode_caps_the_blocks(self, capsys, tmp_path, blocks, code):
        states = [f"s{i}" for i in range(blocks)]
        path = tmp_path / "model.json"
        doc = {"states": states, "partition": [[s] for s in states], "valuation": {"p": ["s0"]}}
        path.write_text(json.dumps(doc))
        got, out, err = run(capsys, "eval", str(path), "S p", "--mode", "literal")
        assert got == code
        if code == 2:
            assert err.startswith("error: ") and "21 blocks" in err
        else:
            assert out.startswith("extension: {s0}\n")

    def test_unknown_atom_at_a_state_warns_once(self):
        proc = subprocess.run(
            [sys.executable, "-m", "expertlogic", "eval", ECONOMIST, "p & zz", "--state", "a"],
            env=CHILD_ENV,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == "false\n"
        warnings = [line for line in proc.stderr.splitlines() if "UnknownAtomWarning" in line]
        assert len(warnings) == 1, proc.stderr


class TestExtension:
    def test_plain_set(self, capsys):
        code, out, _ = run(capsys, "extension", ECONOMIST, "r & p")
        assert code == 0
        assert out == "{a}\n"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "extension", ECONOMIST, "r & p", "--json")
        assert json.loads(out) == {"formula": "r & p", "extension": ["a"]}

    @pytest.mark.parametrize(
        "doc",
        [
            {"states": ["a"], "partition": [["a"]], "valuation": {"p": 3}},
            {"states": ["a"], "partition": [[["a"]]]},
            {"states": ["a", "b"], "partition": ["ab"]},
        ],
    )
    def test_malformed_model_is_a_format_error(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "expertlogic", "extension", str(path), "p"],
            env=CHILD_ENV,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: "), proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [("eval", "p"), ("to-s5",)])
    def test_deeply_nested_model_is_a_format_error(self, capsys, tmp_path, argv):
        # the JSON decoder gives up on 2,000 nested arrays with a
        # RecursionError: a bad input, not a fault of the program
        path = tmp_path / "model.json"
        path.write_text('{"states": ' + "[" * 2000 + "]" * 2000 + "}")
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid JSON in "), err
        assert "nested too deeply" in err

    def test_partition_that_misses_a_state_is_a_format_error(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"states": ["a", "b"], "partition": [["a"]]}))
        code, out, err = run(capsys, "extension", str(path), "T")
        assert (code, out) == (2, "")
        assert err == "error: partition must cover exactly the state space\n"

    @pytest.mark.parametrize(
        "states, family, message",
        [
            (["a", "b"], [], "family lacks the whole state space {a, b}"),
            (["a", "b"], [["a", "b"]], "family lacks the complement {} of member {a, b}"),
            (
                ["a", "b", "c"],
                [[], ["a"], ["c"], ["a", "b"], ["b", "c"], ["a", "b", "c"]],
                "family lacks the intersection {b} of members {a, b} and {b, c}",
            ),
            (
                ["a", "b"],
                [["a"]],
                "family lacks the whole state space {a, b}; "
                "family lacks the complement {b} of member {a}",
            ),
        ],
        ids=["whole-set", "complements", "intersections", "two-laws"],
    )
    def test_illegal_expertise_collection_names_braced_sets(
        self, capsys, tmp_path, states, family, message
    ):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"states": states, "expertise": family}))
        code, out, err = run(capsys, "eval", str(path), "p")
        assert (code, out) == (2, "")
        assert err == f"error: not a legal expertise collection: {message}\n"

    @pytest.mark.parametrize("argv", [("eval", "p"), ("check-proof",)])
    def test_a_file_that_is_not_utf8_is_named(self, capsys, tmp_path, argv):
        path = tmp_path / "input"
        path.write_bytes(b"\xff{}")
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: invalid UTF-8 in {path}: "), err


class TestTranslate:
    def test_both_forms(self, capsys):
        code, out, _ = run(capsys, "translate", "E p")
        assert code == 0
        assert "knowledge form:       A (p -> K p)" in out
        assert "expertise eliminated: A (S p -> p)" in out

    def test_soundness_translation(self, capsys):
        _, out, _ = run(capsys, "translate", "S ~p")
        assert "~K ~~p" in out

    def test_atom_is_fixed_point(self, capsys):
        _, out, _ = run(capsys, "translate", "p", "--json")
        doc = json.loads(out)
        assert doc["knowledge_form"] == "p"
        assert doc["expertise_eliminated"] == "p"

    def test_knowledge_input_is_an_error(self, capsys):
        code, _, err = run(capsys, "translate", "K p")
        assert code == 2
        assert "error:" in err


class TestToS5:
    def test_classes_and_relation(self, capsys):
        code, out, _ = run(capsys, "to-s5", ECONOMIST)
        assert code == 0
        assert "classes: {a, c} {b, d}" in out
        assert "relation: 8 pairs" in out

    def test_json_is_relational_document(self, capsys):
        _, out, _ = run(capsys, "to-s5", ECONOMIST, "--json")
        doc = json.loads(out)
        assert doc["classes"] == [["a", "c"], ["b", "d"]]
        assert ["a", "c"] in doc["relation"]
        assert doc["valuation"]["r"] == ["a", "c"]


class TestCorrespondence:
    def test_agreement(self, capsys):
        code, out, _ = run(capsys, "correspondence", ECONOMIST, "S (r & p)")
        assert code == 0
        assert "classes: {a, c} {b, d}" in out
        assert "agree at all 4 states" in out

    def test_json(self, capsys):
        _, out, _ = run(capsys, "correspondence", ECONOMIST, "E r", "--json")
        doc = json.loads(out)
        assert doc["agrees"] is True
        assert doc["mismatch_state"] is None
        assert doc["translated"] == "A (r -> K r)"

    def test_unknown_atom_warns_on_one_line_without_a_path(self):
        # both sides of the comparison warn; the command prints it once
        proc = subprocess.run(
            [sys.executable, "-m", "expertlogic", "correspondence", ECONOMIST, "zz & p"],
            env=CHILD_ENV,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == [
            "UnknownAtomWarning: atoms not in the valuation are treated as false: zz"
        ]

    def test_each_command_in_one_process_warns_once(self, capsys):
        import warnings

        before = warnings.showwarning
        for _ in range(2):
            code, _, err = run(capsys, "correspondence", ECONOMIST, "zz & p")
            assert code == 0
            assert err.splitlines() == [
                "UnknownAtomWarning: atoms not in the valuation are treated as false: zz"
            ]
            assert warnings.showwarning is before


class TestCountermodel:
    def test_distribution_formula_finds_a_witness(self, capsys):
        code, out, _ = run(
            capsys,
            "countermodel",
            "E(p -> q) -> (E p -> E q)",
            "--max-states",
            "3",
        )
        assert code == 1
        assert "countermodel found: 2 states" in out
        assert "falsified at: x0" in out

    def test_valid_formula_reports_the_bound(self, capsys):
        code, out, _ = run(capsys, "countermodel", "p -> S p")
        assert code == 0
        assert "no countermodel with ≤ 4 states" in out

    def test_json_witness_is_stable(self, capsys):
        argv = (
            "countermodel",
            "E(p -> q) -> (E p -> E q)",
            "--max-states",
            "3",
            "--json",
        )
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        doc = json.loads(first[1])
        assert doc["status"] == "countermodel-found"
        assert doc["witness"]["model"]["valuation"] == {"p": [], "q": ["x0"]}

    def test_too_many_atoms_demand_explicit_bound(self, capsys):
        code, _, err = run(capsys, "countermodel", "p & q & r & s")
        assert code == 2
        assert "--atoms" in err

    def test_explicit_atoms_cover_the_formula(self, capsys):
        code, _, err = run(capsys, "countermodel", "p & q", "--atoms", "p")
        assert code == 2
        assert "outside the search valuations" in err

    def test_empty_atom_list_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "countermodel", "p", "--atoms", "")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "names no atom" in err

    @pytest.mark.parametrize("text", ["~top", "E top"])
    def test_atom_named_top_is_searched(self, capsys, text):
        code, out, _ = run(capsys, "countermodel", text)
        assert code == 1
        assert "countermodel found" in out
        assert "atoms {top}" in out
        assert "  valuation: top = {" in out

    def test_limit_reports_truncation(self, capsys):
        code, out, _ = run(
            capsys, "countermodel", "p -> S p", "--limit", "7", "--engine", "python"
        )
        assert code == 0
        assert "truncated" in out

    def test_python_engine(self, capsys):
        code, out, _ = run(
            capsys, "countermodel", "E p", "--max-states", "2", "--engine", "python"
        )
        assert code == 1
        assert "countermodel found" in out

    def test_one_name_per_engine(self, capsys):
        # the kernel engine is bitslice; its former name numpy is no alias
        with pytest.raises(SystemExit) as stop:
            main(["countermodel", "p", "--engine", "numpy"])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'numpy'" in err
        assert "bitslice" in err
        code, out, _ = run(capsys, "countermodel", "p", "--engine", "bitslice", "--json")
        assert code == 1
        assert json.loads(out)["engine"] == "bitslice"

    def test_timings_are_opt_in(self, capsys):
        base = (
            "countermodel",
            "E p",
            "--max-states",
            "2",
            "--json",
        )
        _, out, _ = run(capsys, *base)
        assert "elapsed_s" not in json.loads(out)
        _, out, _ = run(capsys, *base, "--timings")
        assert "elapsed_s" in json.loads(out)

    def test_timings_report_the_models_evaluated(self, capsys):
        # the bitslice engine runs only each shape's representative partition:
        # at 7 states over {p, q}, 299,492 of the 15,257,700 models decided
        base = ("countermodel", "p -> S p", "--max-states", "7", "--atoms", "p,q", "--json")
        _, out, _ = run(capsys, *base)
        assert "models_evaluated" not in json.loads(out)
        _, out, _ = run(capsys, *base, "--timings")
        doc = json.loads(out)
        assert doc["models_checked"] == 15_257_700
        assert doc["models_evaluated"] == 299_492

    def test_kernel_fault_is_an_internal_error(self, capsys, monkeypatch):
        # a kernel that clears state x0 in every model reports a witness the
        # literal re-check refutes: a fault of the program, not of the input.
        # A root that holds in the whole window comes back as None, which
        # stands for every state's row being the whole window.
        def faulty(program, planes, ends):
            whole = [planes[-1]] * ends[-1]
            return [[0, *(rows or whole)[1:]] for rows in eval_chunk(program, planes, ends)]

        monkeypatch.setattr(kernels, "eval_chunk", faulty)
        code, out, err = run(capsys, "countermodel", "p -> S p")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ")
        assert "does not falsify" in err

    def test_unexpected_exception_is_an_internal_error(self, capsys, monkeypatch):
        # any exception the program does not expect is a fault of the
        # program: exit 3, never the answer code 1 or a traceback
        def broken(n, k, start, w):
            raise TypeError("atom_planes is broken")

        monkeypatch.setattr(kernels, "atom_planes", broken)
        code, out, err = run(capsys, "countermodel", "p -> S p")
        assert code == 3
        assert out == ""
        assert err == "internal error: atom_planes is broken\n"


class TestEquiv:
    def test_expertise_unpacks_to_soundness_form(self, capsys):
        code, out, _ = run(capsys, "equiv", "E p", "A (S p -> p)")
        assert code == 0
        assert "equivalent up to bound" in out
        assert "no countermodel with ≤ 4 states" in out

    def test_dual_form(self, capsys):
        code, out, _ = run(capsys, "equiv", "~E p", "A^ (S p & ~p)")
        assert code == 0
        assert "equivalent up to bound" in out

    def test_separation_prints_the_witness(self, capsys):
        code, out, _ = run(capsys, "equiv", "S p", "p", "--max-states", "2")
        assert code == 1
        assert "not equivalent" in out
        assert "falsified at: x1" in out

    def test_atom_named_top_is_not_the_constant(self, capsys):
        code, out, _ = run(capsys, "equiv", "top", "F")
        assert code == 1
        assert "not equivalent" in out

    def test_json_has_both_sides(self, capsys):
        _, out, _ = run(capsys, "equiv", "E p", "E ~p", "--json")
        doc = json.loads(out)
        assert doc["left"] == "E p"
        assert doc["right"] == "E ~p"
        assert doc["equivalent_up_to_bound"] is True


class TestCheckProof:
    def test_bundled_proof(self, capsys):
        code, out, _ = run(capsys, "check-proof", NEC_SHAT)
        assert code == 0
        assert out == "ok: ~S ~(p -> p) (4 steps)\n"

    def test_bad_step_exit_1(self, capsys, tmp_path):
        text = (
            "1. p -> p ; taut\n"
            "2. A (p -> p) ; necA 1\n"
            "3. A (p -> p) -> ~S ~(p -> p) ; axiom T_A\n"
            "4. ~S ~(p -> p) ; mp 2 3\n"
        )
        path = tmp_path / "mutant.prf"
        path.write_text(text)
        code, out, _ = run(capsys, "check-proof", str(path))
        assert code == 1
        assert out == "bad step 3: formula is not an instance of axiom T_A\n"

    def test_empty_file_is_a_format_error(self, capsys, tmp_path):
        path = tmp_path / "empty.prf"
        path.write_text("")
        code, _, err = run(capsys, "check-proof", str(path))
        assert code == 2
        assert "error: no steps" in err

    def test_a_tautology_past_the_letter_cap_is_an_error_not_a_bad_step(
        self, capsys, tmp_path
    ):
        path = tmp_path / "wide.prf"
        path.write_text("1. " + " | ".join(f"a{i}" for i in range(21)) + " ; taut\n")
        code, out, err = run(capsys, "check-proof", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "21 distinct letters" in err, err

    def test_json_verdicts(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check-proof", NEC_SHAT, "--json")
        assert code == 0
        assert json.loads(out) == {
            "ok": True,
            "steps": 4,
            "theorem": "~S ~(p -> p)",
        }
        path = tmp_path / "bad.prf"
        path.write_text("1. p ; taut\n")
        code, out, _ = run(capsys, "check-proof", str(path), "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc == {
            "ok": False,
            "steps": 1,
            "step": 1,
            "reason": "not a propositional tautology",
        }


class TestSoundnessSweep:
    def test_help_names_the_sweep_atoms(self, capsys):
        # the sweep has no formula: --atoms defaults to p,q
        with pytest.raises(SystemExit) as stop:
            main(["soundness-sweep", "--help"])
        assert stop.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "comma-separated valuation atoms (default: p,q)" in out
        assert "formula" not in out

    def test_help_says_the_atoms_must_include_the_corpus_atoms(self, capsys):
        with pytest.raises(SystemExit):
            main(["soundness-sweep", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "the list must include the corpus atoms p and q" in out
        assert "once per walk" in out

    @pytest.mark.parametrize(
        "atoms, missing", [("p", "q"), ("q,r", "p"), ("r", "p, q")]
    )
    def test_atoms_without_a_corpus_atom_is_a_usage_error(self, capsys, atoms, missing):
        code, out, err = run(
            capsys, "soundness-sweep", "--schemas", "ES,T_S", "--atoms", atoms,
            "--max-states", "3",
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --atoms {atoms!r} leaves out corpus atoms: {missing}\n"

    def test_timings_count_each_walk_once(self, capsys):
        # nine schemas, one walk each, 36 codes per walk at 2 states
        base = ("soundness-sweep", "--with-e-distribution", "--max-states", "2", "--json")
        _, out, _ = run(capsys, *base)
        assert "models_evaluated" not in json.loads(out)
        _, out, _ = run(capsys, *base, "--timings")
        assert json.loads(out)["models_evaluated"] == 9 * 36

    def test_all_schemas_clean_at_small_bound(self, capsys):
        code, out, _ = run(capsys, "soundness-sweep", "--max-states", "2")
        assert code == 0
        assert "checked 360 instances of 8 schemas" in out
        assert "no violations" in out

    def test_planted_schema_flagged(self, capsys):
        code, out, _ = run(
            capsys,
            "soundness-sweep",
            "--schemas",
            "T_S",
            "--with-e-distribution",
            "--max-states",
            "2",
        )
        assert code == 1
        assert "VIOLATION E_dist" in out

    def test_unknown_schema_name(self, capsys):
        code, _, err = run(capsys, "soundness-sweep", "--schemas", "Q_S")
        assert code == 2
        assert "unknown schema" in err

    @pytest.mark.parametrize("value", [",", "", " , "])
    def test_schema_list_naming_nothing_is_a_usage_error(self, capsys, value):
        code, out, err = run(capsys, "soundness-sweep", "--schemas", value)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "names no schema" in err

    def test_empty_atom_list_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "soundness-sweep", "--atoms", "", "--schemas", "T_A", "--max-states", "2"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "names no atom" in err

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys,
            "soundness-sweep",
            "--schemas",
            "T_A,Inc",
            "--max-states",
            "2",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schemas"] == ["T_A", "Inc"]
        assert doc["instances_checked"] == 24
        assert doc["violations"] == []


def _brute_force_status(f, max_states):
    """The search's status for f over its own atoms, from the reference
    oracles: every partition of up to max_states states, every valuation."""
    atoms = sorted(atom_names(f))
    for n in range(1, max_states + 1):
        states = [f"x{i}" for i in range(n)]
        for blocks in ref_partitions(states):
            family = ref_family_from_partition(blocks)
            for code in range(1 << (n * len(atoms))):
                valuation = {
                    a: frozenset(x for i, x in enumerate(states) if code >> (j * n + i) & 1)
                    for j, a in enumerate(atoms)
                }
                if not all(ref_eval(states, family, valuation, x, f) for x in states):
                    return "countermodel-found"
    return "valid-up-to-bound"


@settings(deadline=None)
@given(formulas(("p", "top"), with_k=False, max_leaves=6))
@example(parse("~top"))
@example(parse("E top"))
def test_default_search_space_agrees_with_brute_force(f):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["countermodel", render(f), "--max-states", "2", "--json"])
    assert json.loads(out.getvalue())["status"] == _brute_force_status(f, 2)


class TestEntryPoint:
    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize(
        "argv",
        [("to-s5", ECONOMIST), ("countermodel", "E (p -> q) -> E p -> E q", "--json")],
    )
    def test_closed_stdout_pipe_ends_quietly(self, argv, buffered):
        # 141 is 128 + SIGPIPE, what a shell shows for a tool SIGPIPE ended
        env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "expertlogic", *argv],
                env=env,
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, "")

    def test_installed_script_target_runs_a_command(self, capsys):
        # pyproject.toml's [project.scripts] line, read without tomllib
        # (Python 3.10 has none)
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        target = re.search(r'^expertlogic = "([\w.]+):(\w+)"$', text, re.M)
        assert target is not None, "no expertlogic entry point in pyproject.toml"
        module, name = target.groups()
        entry = getattr(importlib.import_module(module), name)
        assert entry(["translate", "E p"]) == 0
        assert capsys.readouterr().out == (
            "knowledge form:       A (p -> K p)\nexpertise eliminated: A (S p -> p)\n"
        )

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "expertlogic", "extension", ECONOMIST, "r & p"],
            env=CHILD_ENV,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "{a}\n"

    def test_usage_error_from_argparse(self):
        proc = subprocess.run(
            [sys.executable, "-m", "expertlogic", "no-such-command"],
            env=CHILD_ENV,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


# The help and usage errors of the command line, as the parser that built
# every subparser's arguments printed them (argparse of Python 3.11, at
# COLUMNS=80).  main builds the arguments of its command alone.
USAGE_CASES = json.loads((Path(__file__).resolve().parent / "usage.json").read_text())
USAGE_IDS = [" ".join(case["argv"]) or "no-arguments" for case in USAGE_CASES]


def _usage(parse, argv):
    """Exit code, stdout and stderr of a parse that ends the program."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as stop:
            parse(argv)
    return stop.value.code, out.getvalue(), err.getvalue()


class TestUsage:
    @pytest.mark.parametrize("case", USAGE_CASES, ids=USAGE_IDS)
    def test_one_subparser_prints_what_the_whole_parser_prints(self, monkeypatch, case):
        # argparse words its messages differently from one Python to the
        # next; the whole parser is this Python's reference
        monkeypatch.setenv("COLUMNS", "80")
        whole = _usage(lambda argv: build_parser().parse_args(argv), case["argv"])
        assert _usage(main, case["argv"]) == whole

    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11), reason="the bytes of Python 3.11's argparse"
    )
    @pytest.mark.parametrize("case", USAGE_CASES, ids=USAGE_IDS)
    def test_bytes_as_pinned(self, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", "80")
        got = _usage(main, case["argv"])
        assert got == (case["code"], case["stdout"], case["stderr"])
