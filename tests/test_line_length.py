"""No source, script or test line is longer than 120 characters."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIMIT = 120


@pytest.mark.parametrize("folder", ["src", "scripts", "tests"])
def test_no_line_exceeds_the_limit(folder):
    long_lines = [
        f"{path.relative_to(ROOT)}:{n}"
        for path in sorted((ROOT / folder).rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > LIMIT
    ]
    assert not long_lines
