"""The README's command examples: each `$ nrtloops ...` line in an sh block
runs and prints exactly the lines shown under it, up to the fence."""

import shlex
import subprocess
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list[tuple[str, list[str]]]:
    examples = []
    in_sh, current = False, None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh, current = line == "```sh", None
        elif in_sh and line.startswith("$ nrtloops "):
            current = (line.removeprefix("$ nrtloops "), [])
            examples.append(current)
        elif current is not None:
            current[1].append(line)
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("command, output", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, output):
    result = subprocess.run(
        [sys.executable, "-m", "nrtloops", *shlex.split(command)],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "".join(line + "\n" for line in output)
