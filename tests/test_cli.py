import builtins
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import toric_surface_lab
from toric_surface_lab import cli, grothendieck
from toric_surface_lab.cli import main
from toric_surface_lab.cohomology import CohomologyVector, line_bundle_cohomology


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


class TestInputsReadOnce:
    DP6 = b'{"rays": [[1,0],[1,1],[0,1],[-1,0],[-1,-1],[0,-1]]}'
    P2 = b'{"rays": [[1,0],[0,1],[-1,-1]]}'

    def test_digest_is_of_the_analysed_bytes(self, capsys, monkeypatch, tmp_path, d12_file):
        """A fan file that changes between reads (dP6, then P2) is read once,
        and the reported digest is that of the fan analysed."""
        fan_path = str(tmp_path / "changing.json")
        versions = [self.DP6, self.P2]
        opened: dict[str, int] = {}
        real_open = builtins.open

        def counting_open(file, mode="r", *args, **kwargs):
            key = str(file)
            opened[key] = opened.get(key, 0) + 1
            if key == fan_path:
                return io.BytesIO(versions[min(opened[key], 2) - 1])
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code, report = run_json(capsys, ["classify", "--fan", fan_path, "--group", d12_file])
        monkeypatch.undo()
        assert opened == {fan_path: 1, d12_file: 1}
        assert code == 0  # D12 acts on dP6; on P2 it would be exit 2
        assert report["result"]["minimal_model"]["kind"] == "dP6"
        assert report["inputs"]["fan"]["sha256"] == hashlib.sha256(self.DP6).hexdigest()
        assert report["inputs"]["group"]["sha256"] == hashlib.sha256(
            Path(d12_file).read_bytes()).hexdigest()

    def test_error_inputs(self, capsys, tmp_path, p2_file):
        """A missing file gives no digest; malformed JSON gives one."""
        broken = tmp_path / "broken.json"
        broken.write_bytes(b'{"generators": [')
        code, report = run_json(capsys, ["minimalize", "--fan", p2_file,
                                         "--group", str(tmp_path / "no.json")])
        assert code == 2
        assert set(report["inputs"]) == {"fan"}
        code, report = run_json(capsys, ["minimalize", "--fan", p2_file,
                                         "--group", str(broken)])
        assert code == 2
        assert report["inputs"]["group"]["sha256"] == hashlib.sha256(
            broken.read_bytes()).hexdigest()

    def test_empty_path_is_invalid_input(self, capsys):
        code, report = run_json(capsys, ["validate", "--fan", ""])
        assert code == 2
        assert "file not found" in report["error"]


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


class TestSpotCheck:
    def test_wrong_h1_is_caught(self, monkeypatch, dp6):
        """An h1 that is off by one everywhere still satisfies Serre duality
        (h1 is self-dual), so only the Riemann-Roch comparison can see it."""

        def wrong(fan, coeffs):
            h = line_bundle_cohomology(fan, coeffs)
            return CohomologyVector(h.h0, h.h1 + 1, h.h2)

        monkeypatch.setattr(cli, "line_bundle_cohomology", wrong)
        d = (1, -2, 0, 3, 0, -1)
        dual = tuple(-1 - c for c in d)
        forward, back = wrong(dp6, d), wrong(dp6, dual)
        assert forward.as_tuple() == (back.h2, back.h1, back.h0)
        assert cli._spot_check_cohomology(dp6, seed=0, samples=20) == {
            "samples": 20, "violations": 20}

    def test_report_fails_on_wrong_h1(self, capsys, monkeypatch, dp6_file):
        monkeypatch.setattr(
            cli, "line_bundle_cohomology",
            lambda fan, c: CohomologyVector(0, 1, 0),
        )
        code, report = run_json(capsys, ["report", "--fan", dp6_file])
        assert code == 1
        assert report["status"] == "verification-failed"
        assert "cohomology spot check failed" in report["result"]["failures"]

    def test_honest_cohomology_passes(self, dp6):
        assert cli._spot_check_cohomology(dp6, seed=3)["violations"] == 0


class TestFailedCertificates:
    """A certificate the library fails on its own objects exits 1, not 2."""

    def test_k0_relation_failure_exits_1(self, capsys, monkeypatch, p2_file):
        real = grothendieck.k0_multiply

        def off_by_one(x, y):
            z = real(x, y)
            return z._replace(chi=z.chi + 1)

        monkeypatch.setattr(grothendieck, "k0_multiply", off_by_one)
        code, report = run_json(capsys, ["k0-verify", "--fan", p2_file])
        assert code == 1
        assert report["status"] == "verification-failed"
        assert set(report["result"]["k0"]) == {"error"}
        code, report = run_json(capsys, ["report", "--fan", p2_file])
        assert code == 1
        assert report["result"]["failures"][0] == "k0: " + report["result"]["k0"]["error"]

    @pytest.mark.parametrize("error", [grothendieck.NotABasis, grothendieck.NotInvariant])
    @pytest.mark.parametrize("bound", [None, "1"])
    def test_basis_certificate_failure_exits_1(self, capsys, monkeypatch, dp6_file,
                                               d12_file, error, bound):
        def failing(basis, fan, group):
            raise error("planted failure")

        monkeypatch.setattr(cli, "verify_permutation_basis", failing)
        argv = ["basis", "--fan", dp6_file, "--group", d12_file]
        code, report = run_json(capsys, argv + (["--bound", bound] if bound else []))
        assert code == 1
        assert report["status"] == "verification-failed"
        assert report["result"]["basis"]["error"] == "planted failure"
        if bound:
            assert report["result"]["basis"]["found"] is True


class TestStageCounts:
    """One in-process report on the 12-ray D12 fan computes each stage once."""

    COUNTED = ("minimal_model.classify_minimal", "grothendieck.verify_permutation_basis",
               "cohomology.line_bundle_cohomology")

    def test_report_runs_each_stage_once(self, capsys, monkeypatch):
        counts = dict.fromkeys(self.COUNTED, 0)
        modules = [m for name, m in sys.modules.items()
                   if name.startswith("toric_surface_lab.")]
        for key in self.COUNTED:
            module, attr = key.split(".")
            original = getattr(sys.modules[f"toric_surface_lab.{module}"], attr)

            def shim(*args, _key=key, _original=original):
                counts[_key] += 1
                return _original(*args)

            for ns in modules:  # every module binding of the function
                for name, value in list(vars(ns).items()):
                    if value is original:
                        monkeypatch.setattr(ns, name, shim)
        monkeypatch.chdir(Path(__file__).parent / "golden")
        code, report = run_json(capsys, ["report", "--fan", "dp6-12.json",
                                         "--group", "d12.json"])
        monkeypatch.undo()
        assert code == 0
        result = report["result"]
        objects = sum(len(block) for block in result["collection"]["blocks"])
        assert objects == 12
        assert counts == {
            "minimal_model.classify_minimal": 1,
            "grothendieck.verify_permutation_basis": 1,
            "cohomology.line_bundle_cohomology": (
                result["cohomology_spot_check"]["samples"]
                + result["collection"]["pairs_checked"] - (objects - 1)),
        }


class TestInternalError:
    def test_bug_exits_3_with_json_report(self, capsys, monkeypatch, p2_file):
        def boom(fan):
            raise KeyError("unexpected")

        monkeypatch.setattr(cli, "compute_aut", boom)
        code = main(["aut", "--fan", p2_file, "--json"])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 3
        assert report["status"] == "internal-error"
        assert report["inputs"]["fan"]["path"] == p2_file
        assert "KeyError" in report["error"]
        assert "Traceback" in captured.err

    def test_bug_without_json(self, capsys, monkeypatch, p2_file):
        monkeypatch.setattr(cli, "compute_aut", lambda fan: 1 / 0)
        assert main(["aut", "--fan", p2_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal error: ZeroDivisionError" in captured.err

    def test_argparse_exit_2_is_kept(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command", "--json"])
        assert exc.value.code == 2


# A fixed alphabet: general text makes hypothesis build a Unicode table on a
# fresh checkout, which alone costs seconds.
texts = st.text(alphabet='ab"\\{[é\x00', max_size=5) | st.sampled_from(["rays", "generators"])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | texts,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(texts, inner, max_size=3),
    max_leaves=12,
)
small = st.integers(-3, 3)
ray_sets = st.lists(st.lists(small, min_size=2, max_size=2), min_size=3, max_size=7)
matrices = st.lists(st.lists(small, min_size=2, max_size=2), min_size=2, max_size=2)
VALID_RAYS = [
    [[1, 0], [0, 1], [-1, -1]],
    [[1, 0], [0, 1], [-1, 2], [0, -1]],
    [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
    [[1, 0], [2, 1], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
]
rotated_valid = st.tuples(st.sampled_from(VALID_RAYS), st.integers(0, 6)).map(
    lambda p: p[0][p[1] % len(p[0]):] + p[0][:p[1] % len(p[0])])
fan_values = (json_values | st.fixed_dictionaries({"rays": json_values})
              | (ray_sets | rotated_valid).map(lambda r: {"rays": r}))
group_values = (st.none() | json_values
                | st.lists(matrices, max_size=3).map(lambda g: {"generators": g}))
FUZZ_COMMANDS = ["validate", "aut", "classify-group", "minimalize", "classify",
                 "k0-verify", "basis", "collection", "decompose", "report"]


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(FUZZ_COMMANDS), fan=fan_values, group=group_values)
def test_fuzz_exit_codes(command, fan, group):
    """Any JSON value as fan or group file: exit 0, 1 or 2, and `--json`
    stdout parses.  Budget: 100 examples, about 3 s."""
    with tempfile.TemporaryDirectory() as tmp:
        fan_path = os.path.join(tmp, "fan.json")
        group_path = os.path.join(tmp, "group.json")
        with open(fan_path, "w") as handle:
            json.dump(fan, handle)
        argv = [command, "--json"]
        if command != "classify-group":
            argv += ["--fan", fan_path]
        if group is not None and command not in ("validate", "aut", "k0-verify"):
            with open(group_path, "w") as handle:
                json.dump(group, handle)
            argv += ["--group", group_path]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
    assert code in (0, 1, 2), buf.getvalue()
    report = json.loads(buf.getvalue())
    assert report["status"] in ("ok", "verification-failed", "invalid-input")


def test_cli_import_does_not_load_numpy():
    src = str(Path(toric_surface_lab.__file__).resolve().parent.parent)
    extra = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + extra if extra else ""))
    code = (
        "import sys, toric_surface_lab.cli; "
        "print(sorted({'numpy', 'dataclasses'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
