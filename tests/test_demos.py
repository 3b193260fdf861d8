"""Smoke test: every script in ``demos/`` runs to completion and prints, and
the README's python session prints what it documents."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_session_prints_its_documented_output(capsys):
    readme = ROOT / "README.md"
    session = readme.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    documented = session.rstrip().splitlines()[-1]
    assert documented == "# 7 ok 24.553773 23.817512"
    exec(compile(session, str(readme), "exec"), {})
    assert capsys.readouterr().out == documented[2:] + "\n"
