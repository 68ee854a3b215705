"""Stdout and exit codes of the paper's commands, pinned byte for byte.

Each file under ``golden/`` is the exact stdout of one command line.  To
regenerate one after an intended output change, run for example
``python3 -m gaussflip analyze --json ADBECADBEC > tests/golden/analyze_ADBECADBEC.json``
and review the diff.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from gaussflip.cli import main

GOLDEN = Path(__file__).parent / "golden"

WORDS = ("ADBECADBEC", "ACDECABDEB", "AEBACBDCED", "AABBCC")

CASES = [
    *((f"analyze_{w}.txt", ("analyze", w)) for w in WORDS),
    *((f"analyze_{w}.json", ("analyze", "--json", w)) for w in WORDS),
    ("verify_5.txt", ("verify", "--max-chords", "5")),
    ("verify_5.json", ("verify", "--max-chords", "5", "--json")),
    ("flips_orbit_ACDECABDEB.json", ("flips", "ACDECABDEB", "--orbit", "--json")),
    ("census_m5.txt", ("graph", "census", "mobius:5")),
    ("census_m5.csv", ("graph", "census", "--csv", "mobius:5")),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden(capsys, name, argv):
    code = main(list(argv))
    assert (code, capsys.readouterr().out) == (0, (GOLDEN / name).read_text())
