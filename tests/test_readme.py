"""The command-line examples in README.md print what the README shows.

Every `$ expertlogic …` line inside a ```sh block is run as
`python -m expertlogic …` from the repository root.  The lines after it, up
to a blank line, the next `$` line or the end of the block, are its shown
output: stdout must equal them exactly, or, when they include a `...` line,
contain the other shown lines as whole lines in the same order.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ELLIPSIS = "..."


def readme_examples() -> list[tuple[str, list[str]]]:
    examples = []
    in_sh = False
    current = None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
            current = None
        elif not in_sh:
            continue
        elif line.startswith("$ expertlogic "):
            current = []
            examples.append((line[2:], current))
        elif not line.strip():
            current = None
        elif current is not None:
            current.append(line)
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 9


def _in_order(shown: list[str], got: list[str]) -> bool:
    rest = iter(got)
    return all(line in rest for line in shown)


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_output(command, shown):
    argv = shlex.split(command)[1:]
    proc = subprocess.run(
        [sys.executable, "-m", "expertlogic", *argv],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode in (0, 1), proc.stderr
    got = proc.stdout.splitlines()
    if ELLIPSIS in shown:
        assert _in_order([s for s in shown if s != ELLIPSIS], got), proc.stdout
    else:
        assert got == shown
