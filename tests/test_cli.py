import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toric_surface_lab
from toric_surface_lab.cli import main


@pytest.fixture
def p2_file(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text('{"rays": [[1,0],[0,1],[-1,-1]]}')
    return str(path)


@pytest.fixture
def dp6_file(tmp_path):
    path = tmp_path / "dp6.json"
    path.write_text('{"rays": [[1,0],[1,1],[0,1],[-1,0],[-1,-1],[0,-1]]}')
    return str(path)


@pytest.fixture
def d12_file(tmp_path):
    path = tmp_path / "d12.json"
    path.write_text('{"generators": [[[1,-1],[1,0]], [[0,1],[1,0]]]}')
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestValidate:
    def test_ok(self, capsys, p2_file):
        code, report = run_json(capsys, ["validate", "--fan", p2_file])
        assert code == 0
        assert report["schema"] == "toric-surface-lab/1"
        assert report["result"]["fan"]["ray_count"] == 3

    def test_round_trip(self, capsys, tmp_path, dp6_file):
        code, report = run_json(capsys, ["validate", "--fan", dp6_file])
        emitted = tmp_path / "again.json"
        emitted.write_text(json.dumps({"rays": report["result"]["fan"]["rays"]}))
        code2, report2 = run_json(capsys, ["validate", "--fan", str(emitted)])
        assert code2 == 0
        assert report2["result"]["fan"]["rays"] == report["result"]["fan"]["rays"]

    def test_invalid_input_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rays": [[2,0],[0,1],[-1,-1]]}')
        code, report = run_json(capsys, ["validate", "--fan", str(bad)])
        assert code == 2
        assert "NonPrimitiveRay" in report["error"]

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"rays": [[1,0],')
        code, report = run_json(capsys, ["validate", "--fan", str(bad)])
        assert code == 2
        assert "line" in report["error"]


class TestMalformedInput:
    """Each bad file exits 2 with a JSON error report, never a traceback."""

    @pytest.mark.parametrize(
        "content",
        [
            b'{"rays": null}',
            b'{"rays": [1,2,3]}',
            b'{"rays": [[true,false],[0,1],[-1,-1]]}',
            b'{"rays": [[1.0,0],[0,1],[-1,-1]]}',
            b"\xff\xfe{",
            b"[" * 100_000 + b"]" * 100_000,
            b'{"rays": [[1' + b"0" * 5000 + b',0],[0,1],[-1,-1]]}',
        ],
        ids=["null", "flat", "bools", "floats", "undecodable", "too-deep", "too-many-digits"],
    )
    def test_fan_file(self, capsys, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, report = run_json(capsys, ["validate", "--fan", str(bad)])
        assert code == 2
        assert report["status"] == "invalid-input"

    @pytest.mark.parametrize(
        "content",
        ['{"generators": "x"}', '{"generators": [[[1.5,0],[0,1]]]}'],
        ids=["string", "float"],
    )
    def test_group_file(self, capsys, tmp_path, content):
        bad = tmp_path / "bad_group.json"
        bad.write_text(content)
        code, report = run_json(capsys, ["classify-group", "--group", str(bad)])
        assert code == 2
        assert "2x2 integer matrices" in report["error"]

    def test_directory_as_fan(self, capsys, tmp_path):
        code, report = run_json(capsys, ["validate", "--fan", str(tmp_path)])
        assert code == 2
        assert "cannot read" in report["error"]

    def test_missing_file(self, capsys, tmp_path):
        code, report = run_json(capsys, ["validate", "--fan", str(tmp_path / "no.json")])
        assert code == 2
        assert "file not found" in report["error"]

    @pytest.mark.parametrize("command", ["basis", "report"])
    def test_negative_bound(self, capsys, p2_file, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--fan", p2_file, "--bound", "-1", "--json"])
        assert exc.value.code == 2
        assert "must be non-negative" in capsys.readouterr().err


class TestCommands:
    def test_aut(self, capsys, dp6_file):
        code, report = run_json(capsys, ["aut", "--fan", dp6_file])
        assert code == 0
        assert report["result"]["automorphisms"]["order"] == 12
        assert report["result"]["automorphisms"]["label"] == "D12"

    def test_classify_group(self, capsys, d12_file):
        code, report = run_json(capsys, ["classify-group", "--group", d12_file])
        assert code == 0
        assert report["result"]["group"]["label"] == "D12"

    def test_minimalize_defaults_to_trivial_group(self, capsys, dp6_file):
        code, report = run_json(capsys, ["minimalize", "--fan", dp6_file])
        assert code == 0
        assert len(report["result"]["trace"]["steps"]) == 3

    def test_k0_verify(self, capsys, dp6_file):
        code, report = run_json(capsys, ["k0-verify", "--fan", dp6_file])
        assert code == 0
        assert report["result"]["k0"]["rank"] == 6
        assert report["result"]["k0"]["span_index"] == 1

    def test_basis_search_bound_zero(self, capsys, p2_file):
        code, report = run_json(capsys, ["basis", "--fan", p2_file, "--bound", "0"])
        assert code == 0
        assert report["result"]["basis"]["found"] is False

    def test_collection_reversed_exit_1(self, capsys, p2_file):
        code, report = run_json(
            capsys, ["collection", "--fan", p2_file, "--order", "reversed"]
        )
        assert code == 1
        violation = report["result"]["collection"]["first_violation"]
        assert violation["ext"] == [3, 0, 0]
        assert violation["source"] == [1, 0, 0]
        assert violation["target"] == [2, 0, 0]


class TestReport:
    def test_full_report_dp6_d12(self, capsys, dp6_file, d12_file):
        code, report = run_json(
            capsys, ["report", "--fan", dp6_file, "--group", d12_file]
        )
        assert code == 0
        result = report["result"]
        assert result["minimal_model"]["kind"] == "dP6"
        assert result["minimal_model"]["group_label"] == "D12"
        assert result["basis"]["orbit_sizes"] == [1, 3, 2]
        assert result["collection"]["verified"] is True
        assert result["decomposition"]["product"] == "k×P×Q"
        assert result["cohomology_spot_check"]["violations"] == 0

    def test_deterministic_bytes(self, capsys, dp6_file, d12_file):
        argv = ["report", "--fan", dp6_file, "--group", d12_file, "--json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_group_not_preserving_fan_exit_2(self, capsys, p2_file, tmp_path):
        group = tmp_path / "bad_group.json"
        group.write_text('{"generators": [[[0,-1],[1,0]]]}')
        code, report = run_json(
            capsys, ["report", "--fan", p2_file, "--group", str(group)]
        )
        assert code == 2
        assert "NotAFanSymmetry" in report["error"]


class TestHugeTwist:
    """F(2^40): a box scan of its polytopes would need terabytes."""

    @pytest.fixture
    def f2e40_file(self, tmp_path):
        path = tmp_path / "f2e40.json"
        path.write_text(json.dumps({"rays": [[1, 0], [0, 1], [-1, 2**40], [0, -1]]}))
        return str(path)

    @pytest.mark.parametrize("command", ["collection", "report"])
    def test_verified(self, capsys, f2e40_file, command):
        code, report = run_json(capsys, [command, "--fan", f2e40_file])
        assert code == 0
        assert report["result"]["collection"]["verified"] is True


def test_cli_import_does_not_load_numpy():
    src = str(Path(toric_surface_lab.__file__).resolve().parent.parent)
    extra = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + extra if extra else ""))
    code = "import sys, toric_surface_lab.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
