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
K33 = "0 3,0 4,0 5,1 3,1 4,1 5,2 3,2 4,2 5"
PRISM5 = "0 1,1 2,2 3,3 4,0 4,5 6,6 7,7 8,8 9,5 9,0 5,1 6,2 7,3 8,4 9"
# the graph of AABCBC and a relabelling: a multigraph with several
# isomorphisms, so this pins which one is the witness
AABCBC = "0 1,0 1,0 5,1 2,2 3,2 4,3 4,3 5,4 5"
AABCBC_RELABELLED = "0 1,0 3,0 5,1 2,1 5,2 4,2 4,3 4,3 5"

CASES = [
    *((f"analyze_{w}.txt", ("analyze", w)) for w in WORDS),
    *((f"analyze_{w}.json", ("analyze", "--json", w)) for w in WORDS),
    ("verify_5.txt", ("verify", "--max-chords", "5")),
    ("verify_5.json", ("verify", "--max-chords", "5", "--json")),
    ("flips_orbit_ACDECABDEB.json", ("flips", "ACDECABDEB", "--orbit", "--json")),
    ("census_m5.txt", ("graph", "census", "mobius:5")),
    ("census_m5.csv", ("graph", "census", "--csv", "mobius:5")),
    ("iso_m3_k33.txt", ("graph", "iso", "mobius:3", K33)),
    ("iso_m3_k33.json", ("graph", "iso", "--json", "mobius:3", K33)),
    ("iso_m5_prism.txt", ("graph", "iso", "mobius:5", PRISM5)),
    ("hamcycles_m4.json", ("graph", "hamcycles", "mobius:4", "--json")),
    ("iso_AABCBC.json", ("graph", "iso", "--json", AABCBC, AABCBC_RELABELLED)),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden(capsys, name, argv):
    code = main(list(argv))
    assert (code, capsys.readouterr().out) == (0, (GOLDEN / name).read_text())
