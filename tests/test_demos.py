"""Every script in demos/ and every example in the README runs against the source tree."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _python(*args, cwd=ROOT):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _readme_block(heading):
    """The first fenced code block under a README heading."""
    section = README.split(f"## {heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


def _readme_commands():
    lines = [line for line in _readme_block("Command line").splitlines() if line]
    # the CI verify job runs `bachsym verify --scope all` verbatim
    return [line for line in lines if line != "bachsym verify --scope all"]


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    assert _python(str(demo)).strip()


def test_readme_quick_start_runs():
    assert len(_python("-c", _readme_block("Library quick start")).splitlines()) == 3


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_runs(line, tmp_path):
    argv = shlex.split(line)
    assert argv[0] == "bachsym"
    out = None
    if "--out" in argv:
        at = argv.index("--out") + 1
        out = argv[at] = str(tmp_path / argv[at])
    printed = _python("-m", "bachelier_symmetries", *argv[1:], cwd=tmp_path)
    assert (printed if out is None else Path(out).read_text()).strip()
