"""What a fresh process loads and what its searches cost.

The pytest process may have numpy loaded by some other package, so every
test here runs its program in a fresh interpreter.  No command imports
numpy: the search kernel computes on Python ints.  No command imports
dataclasses, and each command loads only the package's modules it calls
(LOADS).  Importing the kernel also keeps the pages a search frees mapped
for the next search (kernels module docstring).
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHILD_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
ECONOMIST = str(ROOT / "fixtures" / "economist.json")
DISTRIBUTION = str(ROOT / "fixtures" / "distribution.json")

# every subcommand, on the bundled fixtures, searches on both engines
COMMANDS = [
    ["translate", "E p"],
    ["translate", "S ~p", "--json"],
    ["eval", ECONOMIST, "S (r & p)", "--state", "c"],
    ["eval", DISTRIBUTION, "E (p -> q) -> E p -> E q"],
    ["extension", ECONOMIST, "r & p"],
    ["to-s5", ECONOMIST, "--json"],
    ["correspondence", ECONOMIST, "E r"],
    ["countermodel", "p -> S p", "--max-states", "3"],
    ["countermodel", "E p", "--max-states", "2", "--engine", "python", "--json"],
    ["equiv", "E p", "A (S p -> p) & A (S ~p -> ~p)", "--max-states", "3"],
    ["soundness-sweep", "--max-states", "2", "--schemas", "T_A,K_S"],
    ["soundness-sweep", "--max-states", "2", "--schemas", "T_A", "--engine", "python"],
] + [["check-proof", str(path)] for path in sorted((ROOT / "fixtures").glob("*.prf"))]


def _child(script: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=CHILD_ENV,
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_no_command_imports_numpy():
    script = f"""
import contextlib, io, json, sys
import expertlogic, expertlogic.cli
for argv in {COMMANDS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = expertlogic.cli.main(argv)
    print(json.dumps([argv[0], code, 'numpy' in sys.modules]))
"""
    runs = [json.loads(line) for line in _child(script).splitlines()]
    assert len(runs) == len(COMMANDS)
    assert all(code in (0, 1) for _, code, _ in runs), runs
    assert not any(loaded for _, _, loaded in runs), runs


# the package's modules a command loads besides expertlogic, its cli and
# formula modules: the layers it calls and the ones those import
SEARCH = {"model", "semantics", "kernels", "validity"}
LOADS = {
    "translate": set(),
    "eval": {"model", "semantics"},
    "extension": {"model", "semantics"},
    "to-s5": {"model"},
    "correspondence": {"model", "semantics"},
    "check-proof": {"proofs"},
    "countermodel": SEARCH,
    "equiv": SEARCH,
    "soundness-sweep": SEARCH | {"proofs"},
}
ALWAYS = {"expertlogic", "expertlogic.cli", "expertlogic.formula"}


def _own(modules) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "expertlogic"}


# runs the package as __main__, as `python -m expertlogic` does, then
# prints the exit code and the loaded modules as the last line of stdout
RUN_AS_MAIN = """
import json, runpy, sys
try:
    runpy.run_module("expertlogic", run_name="__main__", alter_sys=True)
except SystemExit as e:
    code = e.code
print(json.dumps([code, sorted(sys.modules)]))
"""


@pytest.mark.parametrize(
    "argv", COMMANDS, ids=[f"{argv[0]}-{i}" for i, argv in enumerate(COMMANDS)]
)
def test_what_a_command_loads(argv):
    # -S: no .pth file in site-packages may load a module before the program
    proc = subprocess.run(
        [sys.executable, "-S", "-c", RUN_AS_MAIN, *argv],
        env=CHILD_ENV,
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code in (0, 1), proc.stderr
    assert "dataclasses" not in modules
    assert _own(modules) == ALWAYS | {f"expertlogic.{m}" for m in LOADS[argv[0]]}


def test_importing_the_cli_loads_only_the_formula_layer():
    script = "import json, sys; import expertlogic.cli; print(json.dumps(sorted(sys.modules)))"
    assert _own(json.loads(_child(script))) == ALWAYS


def test_the_kernel_resolves_as_a_package_attribute():
    script = """
import json, sys
import expertlogic
print(json.dumps('numpy' in sys.modules))
print(expertlogic.kernels.eval_chunk.__module__)
"""
    numpy_loaded, module = _child(script).splitlines()
    assert json.loads(numpy_loaded) is False
    assert module == "expertlogic.kernels"


def test_timings_do_not_include_the_kernel_import():
    # a one-state search takes well under a millisecond, so a clock that
    # included an import, or the kernel's set-up, would show it
    proc = subprocess.run(
        [sys.executable, "-m", "expertlogic", "countermodel", "p | ~p"]
        + ["--max-states", "1", "--json", "--timings"],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["elapsed_s"] < 0.05


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="counts minor page faults under glibc's malloc",
)
def test_repeated_searches_do_not_fault_their_pages_in_again():
    # without the kernel's allocator note each search frees its batches'
    # pages to the system and faults them in again: over 1,600 minor
    # faults per search here
    script = """
import resource
from expertlogic import EnumerationSpec, find_countermodel, parse
f, spec = parse("p -> S p"), EnumerationSpec(6, ("p", "q", "r"))
find_countermodel(f, spec)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    assert find_countermodel(f, spec).status == "valid-up-to-bound"
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""
    assert float(_child(script)) < 50
