"""What a fresh process loads and what its searches cost.

The pytest process has numpy and the kernel loaded already, so every test
here runs its program in a fresh interpreter.  Only a search imports
expertlogic.kernels, and numpy with it; the commands that evaluate,
translate or check proofs never do.  Importing the kernel also keeps the
pages a batch frees mapped for the next search (kernels module
docstring), and a search's --timings clock starts after that import.
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

# every subcommand that runs no search, on the bundled fixtures
NON_SEARCH = [
    ["translate", "E p"],
    ["translate", "S ~p", "--json"],
    ["eval", ECONOMIST, "S (r & p)", "--state", "c"],
    ["eval", DISTRIBUTION, "E (p -> q) -> E p -> E q"],
    ["extension", ECONOMIST, "r & p"],
    ["to-s5", ECONOMIST, "--json"],
    ["correspondence", ECONOMIST, "E r"],
] + [["check-proof", str(path)] for path in sorted((ROOT / "fixtures").glob("*.prf"))]

LOADED = "print(json.dumps(['numpy' in sys.modules, 'expertlogic.kernels' in sys.modules]))"


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


def test_only_a_search_loads_numpy_and_the_kernel():
    script = f"""
import contextlib, io, json, sys
import expertlogic, expertlogic.cli
{LOADED}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [expertlogic.cli.main(argv) for argv in {NON_SEARCH!r}]
print(json.dumps(codes))
{LOADED}
with contextlib.redirect_stdout(io.StringIO()):
    expertlogic.cli.main(["countermodel", "p -> S p", "--max-states", "2"])
{LOADED}
"""
    imported, codes, commands, search = map(json.loads, _child(script).splitlines())
    assert imported == [False, False]
    assert all(code in (0, 1) for code in codes), codes
    assert commands == [False, False]
    assert search == [True, True]


def test_the_kernel_resolves_as_a_package_attribute():
    script = f"""
import json, sys
import expertlogic
{LOADED}
print(expertlogic.kernels.eval_chunk.__module__)
"""
    before, module = _child(script).splitlines()
    assert json.loads(before) == [False, False]
    assert module == "expertlogic.kernels"


def test_timings_do_not_include_the_kernel_import():
    # importing numpy takes about 0.1 s; a one-state search takes well
    # under a millisecond, so a clock started before the import shows it
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
