"""The settings tables of the README and of the ``cli`` module docstring
list exactly the keys, flags, kinds and per-command defaults of
``cli._SETTINGS``, so the documentation cannot drift from the code."""

from pathlib import Path

import pytest

from leoroute import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def table_rows(text):
    """Cells of each row of the first table whose header starts with Key."""
    lines = [line.strip() for line in text.splitlines()]
    start = next(i for i, line in enumerate(lines) if line.startswith("| Key "))
    rows = []
    for line in [lines[start], *lines[start + 2 :]]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def expected_rows():
    commands = list(cli._OPTIONS)
    rows = [["Key", "Flag", "Kind", *(f"`{c}`" for c in commands)]]
    for key, (flag, kind, _, defaults) in cli._SETTINGS.items():
        cells = [
            "-" if c not in defaults
            else "unset" if defaults[c] is None
            else f"{defaults[c]:g}"
            for c in commands
        ]
        rows.append([f"`{key}`", f"`{flag}`", kind.__name__, *cells])
    return rows


@pytest.mark.parametrize(
    "text", [README.read_text(), cli.__doc__], ids=["README.md", "cli docstring"]
)
def test_settings_table_matches_the_code(text):
    assert table_rows(text) == expected_rows()
