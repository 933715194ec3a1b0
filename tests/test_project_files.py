"""The project's own files: the README's examples run as written, and the
pytest settings let a failing Hypothesis test fail on its own."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from quditproc.cli import main
from quditproc.harness import run_config

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


CLI_LINES = [line for block in _blocks("sh") for line in block.splitlines() if line.startswith("quditproc ")]


def test_the_readme_has_its_examples():
    assert len(CLI_LINES) >= 6
    assert len(_blocks("json")) == 1
    assert len(_blocks("python")) == 1


@pytest.mark.parametrize("line", CLI_LINES)
def test_each_readme_cli_line_exits_0(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line, comments=True)[1:]) == 0


def test_the_readme_config_passes_every_row():
    (block,) = _blocks("json")
    _, rows = run_config(json.loads(block))
    assert rows and all(row.passed for row in rows)


def test_the_readme_library_example_runs(capsys):
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    probability, fidelity = map(float, capsys.readouterr().out.split())
    assert 0 < probability <= 1
    assert fidelity == pytest.approx(1.0, abs=1e-12)


HYPOTHESIS_FAILURE = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_leaves_the_run_going(tmp_path):
    # Under the repo's pytest settings, where warnings are errors. Hypothesis
    # may import libcst to print a failing example's patch, which warned of a
    # deprecation and stopped the whole run with an INTERNALERROR.
    (tmp_path / "test_one_failure.py").write_text(HYPOTHESIS_FAILURE)
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_one_failure.py"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]
