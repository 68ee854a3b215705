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
# several interlacement components, so many embeddings draw the same curve
# and curve codes from different roots agree on long prefixes: eight
# isolated chords, and a five-chord star joined to four isolated chords
SUMS = ("AABBCCDDEEFFGGHH", "ABCDEABCDEFFGGHHII")
K33 = "0 3,0 4,0 5,1 3,1 4,1 5,2 3,2 4,2 5"
PRISM5 = "0 1,1 2,2 3,3 4,0 4,5 6,6 7,7 8,8 9,5 9,0 5,1 6,2 7,3 8,4 9"
# the graph of AABCBC and a relabelling: a multigraph with several
# isomorphisms, so this pins which one is the witness
AABCBC = "0 1,0 1,0 5,1 2,2 3,2 4,3 4,3 5,4 5"
AABCBC_RELABELLED = "0 1,0 3,0 5,1 2,1 5,2 4,2 4,3 4,3 5"
# renumbered graphs of the random diagrams HCEKDJAGFBIGBJDLKAFEILHC (12
# chords) and DEGDFHECGFBACBAH (8 chords): they pin the cycle order
# of the Hamiltonian-cycle search on graphs without symmetry to lean on
D12 = (
    "0 4,0 13,0 23,1 10,1 21,1 23,2 7,2 15,2 17,3 7,3 16,3 17,4 15,4 20,"
    "5 14,5 20,5 22,6 9,6 11,6 12,7 18,8 10,8 12,8 19,9 11,9 21,10 17,"
    "11 12,13 19,13 22,14 18,14 19,15 16,16 23,18 20,21 22"
)
D8 = (
    "0 9,0 12,0 14,1 2,1 14,1 15,2 7,2 8,3 9,3 10,3 11,4 6,4 7,4 9,5 6,"
    "5 10,5 13,6 12,7 13,8 14,8 15,10 12,11 13,11 15"
)

CASES = [
    *((f"analyze_{w}.txt", ("analyze", w)) for w in WORDS),
    *((f"analyze_{w}.json", ("analyze", "--json", w)) for w in WORDS + SUMS),
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
    ("hamcycles_m12.json", ("graph", "hamcycles", "--json", "mobius:12")),
    ("hamcycles_d12.json", ("graph", "hamcycles", "--json", D12)),
    ("census_d8.json", ("graph", "census", "--json", D8)),
    ("analyze_ABAB.dot", ("analyze", "ABAB", "--dot")),
    ("hamcycles_m3.dot", ("graph", "hamcycles", "mobius:3", "--dot")),
    ("flips_ADBECADBEC.json", ("flips", "ADBECADBEC", "--json")),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden(capsys, name, argv):
    code = main(list(argv))
    assert (code, capsys.readouterr().out) == (0, (GOLDEN / name).read_text())
