"""End-to-end command line tests, driven through main(argv)."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import gaussflip
from gaussflip import cli, flips, realize
from gaussflip.cli import main
from gaussflip.cubic import graph_from_diagram, moebius_ladder
from gaussflip.diagrams import parse_word

GOLDEN = Path(__file__).parent / "golden"

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
        cli.analysis_record(parse_word("AEBACBDCED"), "AEBACBDCED")
        assert counts == {"walks": 1, "systems": 32, "traces": 0}
        counts["traces"] = 0
        record = cli.analysis_record(parse_word("ADBECADBEC"), "ADBECADBEC")
        assert counts["traces"] == record["realizations"] == 2

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

    def test_malformed_word(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "ABC")
        assert code == 2
        assert err.startswith("error:")


class TestCheck:
    def test_realizable_exit_zero(self, capsys):
        assert run_cli(capsys, "check", "ABCDEABCDE") == (0, "realizable\n", "")

    def test_unrealizable_exit_one(self, capsys):
        assert run_cli(capsys, "check", "AEBACBDCED") == (1, "unrealizable\n", "")

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
        code, _, err = run_cli(capsys, "graph", "iso", "mobius:3")
        assert code == 2
        assert "exactly 2" in err
        code, _, err = run_cli(capsys, "graph", "census", "mobius:3", "mobius:4")
        assert code == 2

    def test_not_cubic_diagnostic(self, capsys):
        code, _, err = run_cli(capsys, "graph", "census", SQUARE_INLINE)
        assert code == 2
        assert "not cubic" in err
        assert "vertex 0 has degree 2" in err

    def test_bad_specs(self, capsys):
        code, _, err = run_cli(capsys, "graph", "census", "mobius:x")
        assert code == 2
        assert "bad ladder order" in err
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
            code, _, err = run_cli(capsys, "enumerate", "--chords", bad)
            assert code == 2
            assert "between 1 and 8" in err


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
        # a gadget oracle that calls ABAB planar disagrees with face tracing
        real = flips.gadget_planarity
        monkeypatch.setattr(
            flips,
            "gadget_planarity",
            lambda d: d.word() == "ABAB" or real(d),
        )
        code, out, _ = run_cli(
            capsys, "verify", "--json", "--max-chords", "3", "--threads", "1"
        )
        assert code == 3
        data = assert_json_stable(out)
        assert data["oracle_agreement"]["mismatches"] == ["ABAB"]
        assert data["flip_theorem"]["counterexamples"] == []
        code, out, _ = run_cli(capsys, "verify", "--max-chords", "3", "--threads", "1")
        assert code == 3
        assert out.splitlines()[1:] == [
            "oracle agreement up to 3 chords: 1 DISAGREEMENTS",
            "  oracle mismatch on ABAB",
        ]

    def test_bounds(self, capsys):
        for args in (["--max-chords", "1"], ["--max-chords", "7"]):
            code, _, err = run_cli(capsys, "verify", *args)
            assert code == 2
            assert "between 2 and 6" in err
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

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "analyze" in out and "verify" in out

    def test_internal_error_labelled(self, capsys, monkeypatch):
        def broken(args):
            raise AssertionError("impossible face count")

        monkeypatch.setattr(cli, "cmd_check", broken)
        code, out, err = run_cli(capsys, "check", "ABAB")
        assert code == 2
        assert out == ""
        assert err == "internal error: AssertionError: impossible face count\n"

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
