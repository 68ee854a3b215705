"""End-to-end command line tests, driven through main(argv)."""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from test_criterion import rosette

import gaussflip
from gaussflip import cli, flips, realize
from gaussflip.cli import main
from gaussflip.cubic import graph_from_diagram, moebius_ladder
from gaussflip.diagrams import GaussDiagram, _symmetries, enumerate_diagrams, parse_word

GOLDEN = Path(__file__).parent / "golden"
BENCH = Path(__file__).resolve().parent.parent / "bench"

K4_INLINE = "0 1,0 2,0 3,1 2,1 3,2 3"
K33_INLINE = "0 3,0 4,0 5,1 3,1 4,1 5,2 3,2 4,2 5"
SQUARE_INLINE = "0 1,1 2,2 3,0 3"


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_json_stable(out: str) -> dict:
    """The emitted JSON must survive a parse-and-redump byte for byte."""
    data = json.loads(out)
    assert json.dumps(data, indent=2) + "\n" == out
    return data


def reference_curves(d: GaussDiagram) -> list[dict]:
    """The ``curves`` of ``analysis_record``, coded once per mirror pair.

    A key and its complement draw mirror curves with one code, so every
    key with bit 0 set is skipped and each other plane embedding is coded.
    """
    curves: dict[str, tuple[int, ...]] = {}
    for report in realize.realize_all(d):
        if report.rotation & 1:
            continue
        curves.setdefault(realize.curve_code(report), report.face_degrees())
    return [
        {"code": code, "face_degrees": list(degrees), "face_count": len(degrees)}
        for code, degrees in sorted(curves.items())
    ]


def record_and_coded(d: GaussDiagram) -> tuple[dict, list[int]]:
    """``analysis_record`` of d, and the keys it passed to ``curve_code``."""
    coded = []
    real_code = cli.curve_code

    def counted(report):
        coded.append(report.rotation)
        return real_code(report)

    cli.curve_code = counted
    try:
        return cli.analysis_record(d, d.word()), coded
    finally:
        cli.curve_code = real_code


def orbit_keys_by_chord_maps(
    d: GaussDiagram, reports: list[realize.EmbeddingReport]
) -> list[int]:
    """The least key of each orbit of d's symmetries and the mirror.

    Acts on keys chord by chord: for a symmetry g, bit i of g.k, for chord
    i at slots u < v, is bit i of k moved to the chord at slot g(u),
    flipped when g(u) > g(v).  ``reports`` come in ascending key order.
    """
    full = (1 << d.n) - 1
    m = 2 * d.n
    actions = []  # per symmetry: the chord each bit moves to, and the flips
    for start, step in _symmetries(d):
        target, flipped = [], 0
        for u, v in d.chord_slots:
            gu, gv = (start + step * u) % m, (start + step * v) % m
            target.append(d.chord_of[gu])
            flipped |= (gu > gv) << d.chord_of[gu]
        actions.append((target, flipped))
    seen: set[int] = set()
    kept = []
    for report in reports:
        key = report.rotation
        if key in seen:
            continue
        kept.append(key)
        for target, flipped in actions:
            image = flipped
            for i, j in enumerate(target):
                image ^= (key >> i & 1) << j
            seen.add(image)
            seen.add(image ^ full)
    return kept


def assert_matches_reference(d: GaussDiagram) -> None:
    """``analysis_record`` gives the reference curves, each coded once.

    The keys it codes are the least of each orbit, as the chord-map action
    finds them.
    """
    record, coded = record_and_coded(d)
    assert record["curves"] == reference_curves(d), d.word()
    assert len(coded) == len(record["curves"]), d.word()
    assert coded == orbit_keys_by_chord_maps(d, realize.realize_all(d)), d.word()


def assert_classes_match_reference(max_chords: int) -> None:
    """Every realizable class up to ``max_chords``; CI runs it at 8."""
    for n in range(1, max_chords + 1):
        for d in enumerate_diagrams(n):
            if realize.is_realizable(d):
                assert_matches_reference(d)


def symmetric_sum(rng: random.Random) -> str:
    """A rotated connected sum of stars, isolated chords and the fixtures."""
    parts = (
        "AA", "AABB", "AABBCC",  # isolated chords
        "ABCABC", "ABCDEABCDE", "ABCDEFGABCDEFG",  # odd stars
        "ADBECADBEC", "ACDECABDEB",  # the realizable fixtures
    )
    tokens: list[str] = []
    for _ in range(rng.randint(2, 4)):
        part = rng.choice(parts)
        if (len(tokens) + len(part)) // 2 > 14:
            break
        used = len(tokens) // 2
        tokens += [f"X{used + ord(c) - ord('A')}" for c in part]
    k = rng.randrange(len(tokens))
    return " ".join(tokens[k:] + tokens[:k])


class TestCurvesPerOrbit:
    """``analysis_record`` codes one embedding per orbit of d's symmetries."""

    def test_classes_up_to_seven_chords(self):
        assert_classes_match_reference(7)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_words(self, monkeypatch, seed):
        monkeypatch.syspath_prepend(str(BENCH))
        from inputs import analyze_words

        for word in analyze_words(seed):
            assert_matches_reference(parse_word(word))

    def test_connected_sums_of_symmetric_parts(self):
        rng = random.Random(20261019)
        for _ in range(200):
            assert_matches_reference(parse_word(symmetric_sum(rng)))

    def test_rosette(self):
        # R_251 = 1 2 ... 251 1 2 ... 251: all 1,004 reads are symmetries
        d = rosette(251)
        assert len(_symmetries(d)) == 1004
        assert_matches_reference(d)

    def test_rosette_of_2001_chords_in_seconds(self):
        # 8,004 symmetries of 2,001 chords; the chord-map action took 9.4 s
        d = rosette(2001)
        keys = realize._plane_keys(d, realize._plane_key(d))
        began = time.process_time()
        kept = list(realize._one_per_curve(d, keys))
        assert time.process_time() - began < 3
        assert kept == keys[:1]


class TestAnalyze:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "ADBECADBEC")
        assert code == 0
        lines = out.splitlines()
        assert "word        ADBECADBEC" in lines
        assert "canonical   ABCDEABCDE" in lines
        assert "parity      pass" in lines
        assert "verdict     realizable (gadget agrees: True)" in lines
        assert "min genus   0" in lines
        assert "embeddings  2 of 32 systems are planar" in lines
        assert any("faces[2,2,2,2,2,5,5]" in ln for ln in lines)

    def test_text_report_unrealizable(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "AEBACBDCED")
        assert code == 0
        assert "verdict     unrealizable (gadget agrees: False)" in out
        assert "min genus   1" in out
        assert "curve" not in out

    def test_one_walk_over_rotation_systems(self, monkeypatch):
        counts = {"walks": 0, "systems": 0, "traces": 0}
        systems, trace = realize.transverse_rotation_systems, realize.trace_faces

        def counted_systems(d):
            counts["walks"] += 1
            for rs in systems(d):
                counts["systems"] += 1
                yield rs

        def counted_trace(d, rs):
            counts["traces"] += 1
            return trace(d, rs)

        monkeypatch.setattr(realize, "transverse_rotation_systems", counted_systems)
        monkeypatch.setattr(realize, "trace_faces", counted_trace)
        monkeypatch.setattr(cli, "trace_faces", counted_trace)
        cli.analysis_record(parse_word("AEBACBDCED"), "AEBACBDCED")
        assert counts == {"walks": 1, "systems": 32, "traces": 0}
        counts.update(walks=0, systems=0)
        # two plane embeddings, mirrors of one curve: only the coded one is traced
        record = cli.analysis_record(parse_word("ADBECADBEC"), "ADBECADBEC")
        assert counts == {"walks": 0, "systems": 0, "traces": 1}
        assert record["realizations"] == 2

    def test_one_decision_per_record(self, monkeypatch):
        calls = []
        decide = realize._plane_key

        def counted(d):
            calls.append(d.word())
            return decide(d)

        monkeypatch.setattr(realize, "_plane_key", counted)
        monkeypatch.setattr(cli, "_plane_key", counted)
        for word in ("ADBECADBEC", "ACDECABDEB", "AEBACBDCED", "AABBCC"):
            calls.clear()
            cli.analysis_record(parse_word(word), word)
            assert calls == [word]

    def test_one_curve_code_per_curve(self):
        for word, embeddings, curves in (
            ("ADBECADBEC", 2, 1),
            ("AABBCC", 8, 2),
            ("AABBCCDDEEFFGGHHIIJJ", 1024, 44),
        ):
            record, coded = record_and_coded(parse_word(word))
            assert record["realizations"] == embeddings
            assert len(record["curves"]) == len(coded) == curves, word

    def test_pair_syntax(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "0-2,1-3")
        assert code == 0
        assert "word        ABAB" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--json", "ACDECABDEB")
        assert code == 0
        record = assert_json_stable(out)
        assert record["word"] == "ACDECABDEB"
        assert record["canonical"] == "ABCADEBCED"
        assert record["realizable"] is True
        assert record["oracles_agree"] is True
        assert record["realizations"] == 2
        assert [c["face_degrees"] for c in record["curves"]] == [
            [2, 2, 2, 3, 3, 4, 4]
        ]

    def test_dot_output(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--dot", "ABAB")
        assert code == 0
        assert out.startswith("graph interlacement {")
        assert '"A" -- "B";' in out
        assert out.endswith("}\n")

    def test_dot_escapes_quote_in_label(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--dot", 'X" Y X" Y')
        assert code == 0
        assert out.splitlines() == [
            "graph interlacement {",
            '  "X\\"";',
            '  "Y";',
            '  "X\\"" -- "Y";',
            "}",
        ]

    def test_dot_refuses_label_ending_in_backslash(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--dot", "X\\ Y X\\ Y")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "backslash" in err

    def test_malformed_word(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "ABC")
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_pairs(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "0-x")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "'0-x'" in err

    @pytest.mark.parametrize(
        "word, limit",
        [
            # unrealizable: the least genus would trace 2^40 rotation systems
            (
                "A B A C B C " + " ".join(f"X{i} X{i}" for i in range(37)),
                "40 chords exceed the limit of 16",
            ),
            # realizable: 2^40 plane embeddings to trace and code
            (
                " ".join(f"X{i} X{i}" for i in range(40)),
                "40 interlacement components exceed the limit of 14",
            ),
        ],
        ids=["ABACBC-and-37-isolated", "40-isolated"],
    )
    def test_over_limit_refused_fast(self, capsys, word, limit):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "analyze", "--json", word)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert limit in err and "gaussflip check" in err

    def test_limits_are_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "ANALYZE_MAX_UNREALIZABLE", 5)
        monkeypatch.setattr(cli, "ANALYZE_MAX_COMPONENTS", 2)
        for word, code in (
            ("AEBACBDCED", 0),  # unrealizable, 5 chords
            ("AEBACBDCEDFF", 2),  # unrealizable, 6 chords
            ("AABB", 0),  # realizable, 2 components
            ("AABBCC", 2),  # realizable, 3 components
            ("ABABCCDD", 0),  # 3 components, but unrealizable and 4 chords
        ):
            assert run_cli(capsys, "analyze", word)[0] == code, word


class TestCheck:
    def test_realizable_exit_zero(self, capsys):
        assert run_cli(capsys, "check", "ABCDEABCDE") == (0, "realizable\n", "")

    def test_unrealizable_exit_one(self, capsys):
        assert run_cli(capsys, "check", "AEBACBDCED") == (1, "unrealizable\n", "")

    def test_large_stars_decided_fast(self, capsys):
        # every chord of a k-star crosses the other k - 1, so only odd k
        # pass; tracing would walk up to 2^40 rotation systems for either
        for k, code, out in ((41, 0, "realizable\n"), (40, 1, "unrealizable\n")):
            star = " ".join([f"X{i}" for i in range(k)] * 2)
            assert run_cli(capsys, "check", star) == (code, out, "")

    def test_garbage_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "A1B2")
        assert code == 2
        assert "error:" in err


class TestGraph:
    def test_hamcycles_k4(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "hamcycles", K4_INLINE)
        assert code == 0
        assert out.splitlines()[-1] == "# cycles=3"

    def test_hamcycles_k33_count(self, capsys):
        # mobius:3 is K3,3 in disguise; K3,3 has 3!*2!/2 = 6 cycles
        code, out, _ = run_cli(capsys, "graph", "hamcycles", "mobius:3")
        assert code == 0
        assert out.splitlines()[-1] == "# cycles=6"

    def test_hamcycles_json(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "hamcycles", "--json", "mobius:5")
        assert code == 0
        data = assert_json_stable(out)
        assert data["count"] == 8
        assert len(data["cycles"]) == 8
        assert all(len(c) == 10 and c[0] == 0 for c in data["cycles"])

    def test_census_json_matches_golden(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "census", "--json", "mobius:5")
        assert code == 0
        data = assert_json_stable(out)
        golden = json.loads((GOLDEN / "m5_census.json").read_text())
        assert data == golden

    def test_census_csv(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "census", "--csv", "mobius:5")
        assert code == 0
        assert out.splitlines() == [
            "word,cycles,realizable",
            "ABCADCEDBE,2,false",
            "ABCADEBCED,5,true",
            "ABCDEABCDE,1,true",
        ]

    def test_census_text_footer(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "census", "mobius:5")
        assert code == 0
        assert out.splitlines()[-1] == "# cycles=8 classes=3"

    def test_iso_witness(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "iso", "mobius:3", K33_INLINE)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "isomorphic"
        assert len(lines[1].split()) == 6  # one a->b token per vertex

    def test_iso_negative(self, capsys):
        prism = (
            "0 1,1 2,2 3,3 4,0 4,5 6,6 7,7 8,8 9,5 9,"
            "0 5,1 6,2 7,3 8,4 9"
        )
        code, out, _ = run_cli(capsys, "graph", "iso", "mobius:5", prism)
        assert code == 0
        assert out == "not isomorphic\n"

    def test_iso_json(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "iso", "--json", "mobius:3", K33_INLINE)
        assert code == 0
        data = assert_json_stable(out)
        assert data["isomorphic"] is True
        assert sorted(data["mapping"]) == [str(v) for v in range(6)]

    def test_dot_output(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "hamcycles", "--dot", "mobius:3")
        assert code == 0
        assert out.startswith("graph cubic {")
        assert "  0 -- 1;" in out

    def test_file_and_stdin_input(self, capsys, tmp_path, monkeypatch):
        text = moebius_ladder(3).to_edge_list()
        path = tmp_path / "ladder.edges"
        path.write_text(text)
        code, from_file, _ = run_cli(capsys, "graph", "hamcycles", str(path))
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, from_stdin, _ = run_cli(capsys, "graph", "hamcycles", "-")
        assert code == 0
        assert from_file == from_stdin

    def test_inline_longer_than_a_file_name(self, capsys):
        # the graph of the 16-chord star ABC..P ABC..P, inline: 257 bytes
        g, _ = graph_from_diagram(parse_word("ABCDEFGHIJKLMNOP" * 2))
        inline = g.to_edge_list().strip().replace("\n", ",")
        assert len(inline) > 255
        code, out, err = run_cli(capsys, "graph", "hamcycles", inline)
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, "graph", "hamcycles", "mobius:16")[1]

    def test_wrong_arity(self, capsys):
        # each action's parser reads its own count of graphs
        code, out, err = run_cli(capsys, "graph", "iso", "mobius:3")
        assert (code, out) == (2, "")
        assert "error: the following arguments are required: graphs" in err
        code, out, err = run_cli(capsys, "graph", "census", "mobius:3", "mobius:4")
        assert (code, out) == (2, "")
        assert "error: unrecognized arguments: mobius:4" in err

    def test_action_help_lists_its_own_flags(self, capsys):
        usage = {}
        for action in ("hamcycles", "census", "iso"):
            assert main(["graph", action, "-h"]) == 0
            usage[action] = capsys.readouterr().out
        assert "--dot" in usage["hamcycles"] and "--csv" not in usage["hamcycles"]
        assert "--dot" in usage["census"] and "--csv" in usage["census"]
        assert "--dot" not in usage["iso"] and "--csv" not in usage["iso"]
        assert "graphs graphs" in usage["iso"]

    @pytest.mark.parametrize("source", ["file", "stdin", "directory"])
    def test_unreadable_graph_is_bad_input(self, capsys, tmp_path, monkeypatch, source):
        # bytes that are not UTF-8, or a failed open, are malformed input, not a bug
        data = b"0 1\n\xff\n"
        path = tmp_path / "bad.edges"
        path.write_bytes(data)
        spec = str(path)
        if source == "stdin":
            spec = "-"
            stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
            monkeypatch.setattr(sys, "stdin", stdin)
        elif source == "directory":
            # open raises IsADirectoryError, even for root
            spec, isfile = str(tmp_path), os.path.isfile
            monkeypatch.setattr(os.path, "isfile", lambda p: p == spec or isfile(p))
        code, out, err = run_cli(capsys, "graph", "census", spec)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read graph {spec!r}: ")
        assert err.count("\n") == 1

    def test_not_cubic_diagnostic(self, capsys):
        code, _, err = run_cli(capsys, "graph", "census", SQUARE_INLINE)
        assert code == 2
        assert "not cubic" in err
        assert "vertex 0 has degree 2" in err

    @pytest.mark.parametrize("vertex", ["999999", "99999999999999999999"])
    def test_huge_vertex_rejected_fast(self, capsys, vertex):
        # degrees are counted from the edges, and only three faults are named
        code, out, err = run_cli(capsys, "graph", "hamcycles", f"0 1,0 1,0 {vertex}")
        assert (code, out) == (2, "")
        assert err.startswith("error: graph is not cubic: vertex 1 has degree 2;")
        assert len(err.encode()) < 200

    def test_bad_specs(self, capsys):
        code, _, err = run_cli(capsys, "graph", "census", "mobius:x")
        assert code == 2
        assert "bad ladder order" in err
        # refused before the 3 * 10^8 edges are built
        code, _, err = run_cli(capsys, "graph", "hamcycles", "mobius:100000000")
        assert code == 2
        assert err.startswith("error: ladder order 100000000 ")
        code, _, err = run_cli(capsys, "graph", "census", "no-such-file")
        assert code == 2
        assert "cannot read graph" in err


class TestFlips:
    def test_sites_text(self, capsys):
        code, out, _ = run_cli(capsys, "flips", "ABAB")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "i=0 j=2 P=A Q=B -> ABAB"
        assert lines[-1] == "# sites=4"

    def test_sites_json(self, capsys):
        code, out, _ = run_cli(capsys, "flips", "--json", "ADBECADBEC")
        assert code == 0
        data = assert_json_stable(out)
        assert len(data["sites"]) == 10
        assert data["sites"][0] == {
            "i": 0,
            "j": 5,
            "p": "A",
            "q": "D",
            "result": "ADCEBADBEC",
        }

    def test_orbit_text(self, capsys):
        code, out, _ = run_cli(capsys, "flips", "--orbit", "ADBECADBEC")
        assert code == 0
        assert out.splitlines() == [
            "ABCADEBCED  realizable",
            "ABCDEABCDE  realizable",
            "# members=2 edges=12 homogeneous=true",
        ]

    def test_orbit_json(self, capsys):
        code, out, _ = run_cli(capsys, "flips", "--orbit", "--json", "AEBACBDCED")
        assert code == 0
        data = assert_json_stable(out)
        assert data["members"] == [
            {"word": "ABCADCEDBE", "realizable": False}
        ]

    def test_orbit_over_limit_refused_fast(self, capsys):
        # a connected sum of 8 pentagrams: its orbit takes 312,500 flips
        word = " ".join(f"P{p}c{c}" for p in range(8) for _ in "ab" for c in range(5))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "flips", "--orbit", word)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: flip orbit:")
        assert f"exceed the limit of {flips.ORBIT_MAX_FLIPS}\n" in err


class TestEnumerate:
    def test_three_chords(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--chords", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "AABBCC  realizable"
        assert lines[-2] == "ABCABC  realizable"
        assert lines[-1] == "# classes=5 realizable=3 unrealizable=2"

    def test_realizable_only_keeps_footer(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--chords", "3", "--realizable-only"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all("  realizable" in ln for ln in lines[:-1])
        assert lines[-1] == "# classes=5 realizable=3 unrealizable=2"
        for n in range(1, 7):
            chords = ("--chords", str(n))
            _, full, _ = run_cli(capsys, "enumerate", *chords)
            _, kept, _ = run_cli(capsys, "enumerate", *chords, "--realizable-only")
            *rows, footer = full.splitlines()
            assert kept.splitlines() == [
                *(r for r in rows if r.endswith("  realizable")), footer
            ]
            _, full, _ = run_cli(capsys, "enumerate", *chords, "--json")
            _, kept, _ = run_cli(
                capsys, "enumerate", *chords, "--json", "--realizable-only"
            )
            record = json.loads(full)
            record["classes"] = [c for c in record["classes"] if c["realizable"]]
            assert assert_json_stable(kept) == record

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--json", "--chords", "2")
        assert code == 0
        data = assert_json_stable(out)
        assert data == {
            "chords": 2,
            "classes": [
                {"word": "AABB", "realizable": True},
                {"word": "ABAB", "realizable": False},
            ],
        }

    def test_bounds(self, capsys):
        for bad in ("0", "9"):
            code, out, err = run_cli(capsys, "enumerate", "--chords", bad)
            assert code == 2
            assert out == ""
            # newer argparse releases quote the value: invalid choice: '9'
            assert re.search(f"argument --chords: invalid choice: '?{bad}'? ", err)


class TestVerify:
    def test_text_two_chords(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-chords", "2")
        assert code == 0
        assert out.splitlines() == [
            "flip theorem up to 2 chords: 3 diagram classes,"
            " 4 flips checked, no counterexamples",
            "oracle agreement up to 2 chords: all 3 diagram classes agree",
        ]

    def test_json_three_chords(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--json", "--max-chords", "3")
        assert code == 0
        data = assert_json_stable(out)
        assert data["flip_theorem"] == {
            "max_n": 3,
            "diagrams_checked": 8,
            "sites_checked": 12,
            "counterexamples": [],
        }
        assert data["oracle_agreement"] == {
            "max_n": 3,
            "diagrams_checked": 8,
            "mismatches": [],
        }

    def test_threads_match(self, capsys):
        _, serial, _ = run_cli(capsys, "verify", "--json", "--max-chords", "3")
        _, parallel, _ = run_cli(
            capsys, "verify", "--json", "--max-chords", "3", "--threads", "2"
        )
        assert serial == parallel

    def test_oracle_mismatch_fails(self, capsys, monkeypatch):
        # a leaf trace that finds AABB's streamed key non-planar contradicts
        # the stream; ABAB fails slot parity, so the sweep never enumerates it
        real = flips._traces_plane
        monkeypatch.setattr(
            flips,
            "_traces_plane",
            lambda d, key: d.word() != "AABB" and real(d, key),
        )
        code, out, _ = run_cli(
            capsys, "verify", "--json", "--max-chords", "3", "--threads", "1"
        )
        assert code == 3
        data = assert_json_stable(out)
        assert data["oracle_agreement"]["mismatches"] == ["AABB"]
        assert data["flip_theorem"]["counterexamples"] == []
        code, out, _ = run_cli(capsys, "verify", "--max-chords", "3", "--threads", "1")
        assert code == 3
        assert out.splitlines()[1:] == [
            "oracle agreement up to 3 chords: 1 DISAGREEMENTS",
            "  oracle mismatch on AABB",
        ]

    def test_bounds(self, capsys):
        for bad in ("1", "12"):
            code, out, err = run_cli(capsys, "verify", "--max-chords", bad)
            assert code == 2
            assert out == ""
            assert re.search(f"argument --max-chords: invalid choice: '?{bad}'? ", err)
        code, _, err = run_cli(capsys, "verify", "--max-chords", "3", "--threads", "0")
        assert code == 2
        assert "positive" in err


class TestTopLevel:
    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, why",
        [
            (("analyze", "--json", "--dot", "ABAB"), "not allowed"),
            (("graph", "census", "--json", "--csv", "mobius:5"), "not allowed"),
            (("graph", "census", "--json", "--dot", "mobius:5"), "not allowed"),
            (("graph", "census", "--csv", "--dot", "mobius:5"), "not allowed"),
            (("graph", "hamcycles", "--csv", "mobius:3"), "unrecognized arguments: --csv"),
            (("graph", "iso", "--csv", "mobius:3", "mobius:3"), "unrecognized arguments: --csv"),
            (("graph", "iso", "--dot", "mobius:3", "mobius:4"), "unrecognized arguments: --dot"),
        ],
        ids=[
            "analyze-json-dot",
            "graph-json-csv",
            "graph-json-dot",
            "graph-csv-dot",
            "hamcycles-csv",
            "iso-csv",
            "iso-dot",
        ],
    )
    def test_conflicting_output_flags(self, capsys, argv, why):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert why in err

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "analyze" in out and "verify" in out

    def test_parser_built_once_per_process(self, capsys, monkeypatch):
        def no_new_parser(*args, **kwargs):
            raise AssertionError("main built an argument parser")

        monkeypatch.setattr(argparse, "ArgumentParser", no_new_parser)
        assert main(["check", "ABAB"]) == 1
        assert main(["--help"]) == 0
        assert "analyze" in capsys.readouterr().out

    def test_internal_error_labelled(self, capsys, monkeypatch):
        def broken(args):
            raise AssertionError("impossible face count")

        monkeypatch.setattr(cli, "cmd_check", broken)
        code, out, err = run_cli(capsys, "check", "ABAB")
        assert code == 2
        assert out == ""
        assert err == "internal error: AssertionError: impossible face count\n"

    def test_closed_stdout_exits_141_quietly(self):
        # the reader takes one line and leaves, as `| head -1` does; the
        # 153 kB of 7-chord classes overrun the pipe, so a write fails
        src = str(Path(gaussflip.__file__).parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "gaussflip", "enumerate", "--chords", "7"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert first == b"AABBCCDDEEFFGG  realizable\n"
        assert err == b""

    def test_import_leaves_networkx_out(self):
        src = str(Path(gaussflip.__file__).parent.parent)
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, gaussflip.cli; assert 'networkx' not in sys.modules",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr

    def test_import_leaves_the_process_pool_out(self):
        # only `verify --threads N` with N > 1 starts a pool, and only past one
        # batch of classes; it imports the pool then
        src = str(Path(gaussflip.__file__).parent.parent)
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, gaussflip.cli; print(sorted({'multiprocessing',"
                " 'concurrent.futures'} & set(sys.modules)))",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_module_entry_point(self):
        # the child imports the same gaussflip as this test, installed or not
        src = str(Path(gaussflip.__file__).parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "gaussflip", "check", "ABCDEABCDE"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout == "realizable\n"
