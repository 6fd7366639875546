import builtins
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from operator import mul
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import toric_surface_lab
# `derived` binds `core_blocks` at import, so a test that plants the basis's
# `core_blocks` leaves the collection's alone whatever ran before it.
from toric_surface_lab import (
    cli, cohomology, derived, grothendieck, lattice_fan, minimal_model, motivic, symmetry,
)
from toric_surface_lab.cli import main
from toric_surface_lab.cohomology import CohomologyVector, _ample_weights, _cohomology

from sweeps import CELLS, expected_code, run_cell
from test_golden import GOLDEN, golden_runs


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

    @pytest.mark.parametrize("det, m", [(0, [[0, 0], [0, 0]]), (2, [[2, 0], [0, 1]]),
                                        (-3, [[1, 2], [2, 1]])], ids=["0", "2", "-3"])
    def test_group_file_generator_determinant(self, capsys, tmp_path, det, m):
        bad = tmp_path / "singular.json"
        bad.write_text(json.dumps({"generators": [m]}))
        message = (f"{bad}: SymmetryError: generator {tuple(map(tuple, m))} "
                   f"has determinant {det}, not 1 or -1")
        code, report = run_json(capsys, ["classify-group", "--group", str(bad)])
        assert code == 2
        assert report["status"] == "invalid-input"
        assert report["error"] == message
        assert main(["classify-group", "--group", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_group_file_without_generators(self, capsys, tmp_path):
        bad = tmp_path / "no_generators.json"
        bad.write_text('{"gens": [[[0,1],[1,0]]]}')
        message = f'{bad}: expected an object with a "generators" key'
        code, report = run_json(capsys, ["classify-group", "--group", str(bad)])
        assert code == 2
        assert report["status"] == "invalid-input"
        assert report["error"] == message
        assert main(["classify-group", "--group", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

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
        """An h1 that is off by one everywhere is still self-dual (forward
        and back agree), but it is not h0 + h2 - chi(K - D), so the
        comparison of h0 - h1 + h2 with chi(K - D) sees it."""

        def wrong(table, coeffs, degree, chi):
            h = _cohomology(table, coeffs, degree, chi)
            return CohomologyVector(h.h0, h.h1 + 1, h.h2)

        monkeypatch.setattr(cohomology, "_cohomology", wrong)
        table = _ample_weights(dp6)
        d = (1, -2, 0, 3, 0, -1)
        dual = tuple(-1 - c for c in d)
        forward, back = (wrong(table, c, sum(map(mul, table[1], c)), cohomology._chi(table[0], c))
                         for c in (d, dual))
        assert forward.as_tuple() == (back.h2, back.h1, back.h0)
        assert cli._spot_check_cohomology(dp6, seed=0) == {"samples": 50, "violations": 50}

    def test_wrong_picard_chi_is_caught(self, monkeypatch, dp6):
        """A Picard-route chi off by one everywhere leaves h0 and h2 alone
        but moves the kernel's h1 with it, so h0 - h1 + h2 is no longer the
        closed form's chi(K - D)."""
        real = grothendieck.PicardLattice._euler
        monkeypatch.setattr(grothendieck.PicardLattice, "_euler",
                            lambda lat, tail, c0, c1: real(lat, tail, c0, c1) + 1)
        assert cli._spot_check_cohomology(dp6, seed=0) == {"samples": 50, "violations": 50}

    def test_report_fails_on_wrong_h1(self, capsys, monkeypatch, dp6_file):
        monkeypatch.setattr(
            cohomology, "_cohomology",
            lambda table, c, degree, chi: CohomologyVector(0, 1, 0),
        )
        code, report = run_json(capsys, ["report", "--fan", dp6_file])
        assert code == 1
        assert report["status"] == "verification-failed"
        assert "cohomology spot check failed" in report["result"]["failures"]

    def test_wrong_dual_chi_is_caught(self, monkeypatch, dp6):
        """A closed-form chi(K - D) off by one fails the comparison of
        h0 - h1 + h2 of the kernel against chi(K - D) on every sample.  The
        fault is planted only on the spot check's own `_chi` calls, each on
        the K - D of the kernel call before it: the kernel is handed chi(D)
        from the Picard lattice, and the walks call `_chi` for their h0."""
        real = cohomology._chi
        spot = cli._spot_check_cohomology.__code__
        pending = []  # the D of the kernel call whose chi(K - D) comes next

        def planted_chi(a, c):
            if sys._getframe(1).f_code is not spot or not pending:
                return real(a, c)  # a walk's h0
            return real(a, c) + (list(c) == [-1 - x for x in pending.pop()])

        def record(table, coeffs, degree, chi):
            pending.append(list(coeffs))
            return _cohomology(table, coeffs, degree, chi)

        monkeypatch.setattr(cohomology, "_chi", planted_chi)
        monkeypatch.setattr(cohomology, "_cohomology", record)
        assert cli._spot_check_cohomology(dp6, seed=0) == {"samples": 50, "violations": 50}
        assert not pending

    def test_each_route_is_evaluated_once(self, monkeypatch, dp6):
        """Each sample takes chi(D) once from the Picard lattice, hands that
        chi to the kernel, and evaluates the closed form once, on K - D."""
        real_euler, real_chi = grothendieck.PicardLattice._euler, cohomology._chi
        spot = cli._spot_check_cohomology.__code__
        calls = []

        def euler(lat, tail, c0, c1):
            chi = real_euler(lat, tail, c0, c1)
            calls.append(("euler", [c0, c1, *tail], chi))
            return chi

        def closed_form(a, c):
            if sys._getframe(1).f_code is spot:
                calls.append(("chi", list(c)))
            return real_chi(a, c)  # a walk's h0 is not counted

        def kernel(table, coeffs, degree, chi):
            calls.append(("kernel", list(coeffs), chi))
            return _cohomology(table, coeffs, degree, chi)

        monkeypatch.setattr(grothendieck.PicardLattice, "_euler", euler)
        monkeypatch.setattr(cohomology, "_chi", closed_form)
        monkeypatch.setattr(cohomology, "_cohomology", kernel)
        assert cli._spot_check_cohomology(dp6, seed=0) == {"samples": 50, "violations": 0}
        assert len(calls) == 150
        for (e, d, picard_chi), (k, coeffs, chi), (c, dual) in zip(*[iter(calls)] * 3):
            assert (e, k, c) == ("euler", "kernel", "chi")
            assert coeffs == d and chi == picard_chi
            assert dual == [-1 - x for x in d]

    def test_draws_cover_the_box(self, monkeypatch, dp6):
        """Each sample is one divisor of n coefficients in [-4, 4]; over the
        samples every value occurs."""
        drawn = []

        def record(table, coeffs, degree, chi):
            drawn.append(tuple(coeffs))
            return _cohomology(table, coeffs, degree, chi)

        monkeypatch.setattr(cohomology, "_cohomology", record)
        assert cli._spot_check_cohomology(dp6, seed=5)["violations"] == 0
        assert len(drawn) == 50
        assert {len(d) for d in drawn} == {dp6.n}
        assert {x for d in drawn for x in d} == set(range(-4, 5))

    def test_negative_h1_is_caught(self, monkeypatch, dp6):
        """A kernel that returns h1 = -1 without raising, with h0 moved so
        that every Euler characteristic still agrees, fails on h1 >= 0."""

        def negative(table, coeffs, degree, chi):
            h = _cohomology(table, coeffs, degree, chi)
            return CohomologyVector(h.h0 - h.h1 - 1, -1, h.h2)

        monkeypatch.setattr(cohomology, "_cohomology", negative)
        assert cli._spot_check_cohomology(dp6, seed=0) == {"samples": 50, "violations": 50}

    def test_raising_kernel_counts_a_violation(self, monkeypatch, dp6):
        """A kernel that raises ArithmeticError (its negative-h1 check) on a
        sample counts that sample as a violation and goes on to the next:
        raised on every other call, half of the honest samples fail."""
        calls = []

        def every_other(table, coeffs, degree, chi):
            calls.append(coeffs)
            if len(calls) % 2:
                raise ArithmeticError("planted negative h1")
            return _cohomology(table, coeffs, degree, chi)

        monkeypatch.setattr(cohomology, "_cohomology", every_other)
        assert cli._spot_check_cohomology(dp6, seed=3) == {"samples": 50, "violations": 25}
        assert len(calls) == 50

    def test_honest_cohomology_passes(self, dp6):
        assert cli._spot_check_cohomology(dp6, seed=3)["violations"] == 0


class TestFailedCertificates:
    """A certificate the library fails on its own objects exits 1, not 2."""

    def test_k0_relation_failure_exits_1(self, capsys, monkeypatch, p2_file):
        real = grothendieck.k0_multiply

        def off_by_one(lat, x, y):
            z = real(lat, x, y)
            return z._replace(chi=z.chi + 1)

        monkeypatch.setattr(grothendieck, "k0_multiply", off_by_one)
        code, report = run_json(capsys, ["k0-verify", "--fan", p2_file])
        assert code == 1
        assert report["status"] == "verification-failed"
        assert set(report["result"]["k0"]) == {"error", "first_violation"}
        # The point classes get chi = 2, so the cone classes (1, 0, 1),
        # (0, 1, 1) and (0, 0, 2) span a sublattice of index 1 * 1 * 2.
        assert report["result"]["k0"]["first_violation"] == {
            "kind": "span", "rank": 3, "index": 2}
        code, report = run_json(capsys, ["report", "--fan", p2_file])
        assert code == 1
        assert report["result"]["failures"][0] == "k0: " + report["result"]["k0"]["error"]
        assert report["result"]["k0"]["first_violation"]["kind"] == "span"

    def test_k0_product_witness(self, capsys, monkeypatch, dp6_file):
        real = grothendieck.picard

        def planted(fan):
            lat = real(fan)
            return lat._replace(band=(lat.band[0] + 2, *lat.band[1:]))

        monkeypatch.setattr(grothendieck, "picard", planted)
        for command in ("k0-verify", "report"):
            code, report = run_json(capsys, [command, "--fan", dp6_file])
            assert code == 1
            witness = report["result"]["k0"]["first_violation"]
            assert witness["kind"] == "product"
            first, second = witness["cones"]
            assert not set(first) & set(second)
            assert witness["got"] != witness["expected"]

    @pytest.mark.parametrize("fan_file", ["p2_file", "dp6_file"])
    def test_k0_ray_witness(self, capsys, monkeypatch, request, fan_file):
        """A canonical class with its first entry moved by 2 fails only the
        ray relation, and `k0-verify --json` exits 1 with that witness."""
        real = grothendieck.picard

        def planted(fan):
            lat = real(fan)
            k = lat.canonical_coords
            return lat._replace(canonical_coords=(k[0] + 2, *k[1:]))

        monkeypatch.setattr(grothendieck, "picard", planted)
        code, report = run_json(capsys, ["k0-verify", "--fan", request.getfixturevalue(fan_file)])
        assert code == 1
        assert report["status"] == "verification-failed"
        witness = report["result"]["k0"]["first_violation"]
        assert witness["kind"] == "ray" and witness["adjunction"] == 0
        assert report["result"]["k0"]["error"].startswith(f"ray {witness['ray']} has D.(D + K) = 0")

    @pytest.mark.parametrize("failed", [
        grothendieck.BasisCertificate(None, 0, (), "coordinate matrix has determinant 0"),
        grothendieck.BasisCertificate(None, 1, (), "image of basis element (0, 0) leaves the set"),
    ], ids=["NotABasis", "NotInvariant"])
    @pytest.mark.parametrize("bound", [None, "1"])
    def test_basis_certificate_failure_exits_1(self, capsys, monkeypatch, dp6_file,
                                               d12_file, failed, bound):
        """A returned failed certificate, planted for a determinant and for
        a set the group does not permute, exits 1 from `basis`, from the
        basis search and from `decompose`."""
        monkeypatch.setattr(grothendieck, "verify_permutation_basis",
                            lambda basis, group: failed._replace(basis=basis))
        argv = ["--fan", dp6_file, "--group", d12_file]
        runs = ([("basis", "basis", ["--bound", bound])] if bound else
                [("basis", "basis", []), ("decompose", "decomposition", [])])
        for command, key, extra in runs:
            code, report = run_json(capsys, [command] + argv + extra)
            assert code == 1
            assert report["status"] == "verification-failed"
            assert report["result"][key]["error"] == failed.error
            if bound:
                assert report["result"]["basis"]["found"] is True

    def test_report_basis_certificate_failure_exits_1(self, capsys, monkeypatch, dp6_file,
                                                      d12_file):
        failed = grothendieck.BasisCertificate(None, 0, (), "planted failure")
        monkeypatch.setattr(grothendieck, "verify_permutation_basis",
                            lambda basis, group: failed._replace(basis=basis))
        code, report = run_json(capsys, ["report", "--fan", dp6_file, "--group", d12_file])
        assert code == 1
        assert report["status"] == "verification-failed"
        result = report["result"]
        assert result["basis"] == {"error": "planted failure"}
        assert result["failures"] == ["basis: planted failure"]
        assert "decomposition" not in result

    def test_report_basis_search_failure_exits_1(self, capsys, monkeypatch, dp6_file,
                                                 d12_file):
        """A searched basis whose certificate fails is the report's only
        failure, in the payload and in the human-readable FAILED line; the
        standard basis, the collection and the decomposition still pass."""
        real = grothendieck.verify_permutation_basis
        failed = grothendieck.BasisCertificate(None, 0, (), "planted failure")

        def planted(basis, group):
            if set(basis.tags) == {("search", None)}:
                return failed._replace(basis=basis)
            return real(basis, group)

        monkeypatch.setattr(grothendieck, "verify_permutation_basis", planted)
        argv = ["report", "--fan", dp6_file, "--group", d12_file, "--bound", "1"]
        code, report = run_json(capsys, argv)
        assert (code, report["status"]) == (1, "verification-failed")
        result = report["result"]
        assert result["basis_search"] == {"found": True, "bound": 1, "error": "planted failure"}
        assert result["failures"] == ["basis search: planted failure"]
        assert "error" not in result["basis"] and "decomposition" in result
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "FAILED: basis search: planted failure"

    R_ORBIT = {("R", (0, 5)), ("R", (1, 2)), ("R", (3, 4))}

    @pytest.mark.parametrize("swap, reason", [
        ({("R", (3, 4)): None}, "11 classes cannot form a basis of rank 12"),
        (dict.fromkeys(R_ORBIT), "9 classes cannot form a basis of rank 12"),
        ({("R", (3, 4)): ("R", (3,))}, "leaves the set"),
    ], ids=["one-slot-dropped", "orbit-dropped", "unimodular-not-closed"])
    def test_library_basis_failure_exits_1(self, capsys, monkeypatch, swap, reason):
        """A library-built basis that is too small or not group-closed fails
        its certificate (exit 1) in every command that certifies it, not at
        construction as invalid input (exit 2).  The report's collection,
        whose objects cannot read a failed basis certificate, is certified
        from scratch, as the `collection` command certifies it."""
        real = grothendieck.core_blocks

        def planted(label):
            return tuple(tuple(swap.get(slot, slot) for slot in block if swap.get(slot, slot))
                         for block in real(label))

        monkeypatch.setattr(grothendieck, "core_blocks", planted)
        monkeypatch.chdir(Path(__file__).parent / "golden")
        argv = ["--fan", "dp6-12.json", "--group", "d12.json"]
        for command, key in (("basis", "basis"), ("decompose", "decomposition")):
            code, report = run_json(capsys, [command] + argv)
            assert (code, report["status"]) == (1, "verification-failed")
            error = report["result"][key]["error"]
            assert reason in error
            assert main([command] + argv) == 1
            assert capsys.readouterr().out == f"{key} FAILED verification: {error}\n"
        code, report = run_json(capsys, ["report"] + argv)
        assert (code, report["status"]) == (1, "verification-failed")
        assert report["result"]["failures"] == ["basis: " + report["result"]["basis"]["error"]]
        assert reason in report["result"]["basis"]["error"]
        assert "decomposition" not in report["result"]
        _, collection = run_json(capsys, ["collection"] + argv)
        assert report["result"]["collection"] == collection["result"]["collection"]

    def test_orbit_spanning_two_slots_exits_3(self, capsys, monkeypatch, dp6, dp6_aut):
        """A table row whose core orbit names two factor slots is a table
        bug, not a failed certificate: the basis certifies, library
        `decompose` raises ValueError, and the CLI exits 3."""
        dp6_row = minimal_model.TABLE[-1]
        one, _, q_block = dp6_row.blocks
        planted = dp6_row._replace(blocks=(one, (
            ("R0", (0, 5), "P"), ("R1", (1, 2), "P"), ("R2", (3, 4), "X")), q_block))
        monkeypatch.setattr(minimal_model, "TABLE", (*minimal_model.TABLE[:-1], planted))
        trace, label = minimal_model.classify_pair(dp6, dp6_aut)
        basis = grothendieck.standard_permutation_basis(minimal_model.pullback(trace), label)
        cert = grothendieck.verify_permutation_basis(basis, dp6_aut)
        assert cert.ok
        with pytest.raises(ValueError, match=r"mixes factor slots \['P', 'X'\]"):
            motivic.decompose(cert, label)
        monkeypatch.chdir(Path(__file__).parent / "golden")
        for command in ("decompose", "report"):
            code = main([command, "--fan", "dp6.json", "--group", "d12.json", "--json"])
            report = json.loads(capsys.readouterr().out)
            assert (code, report["status"]) == (3, "internal-error")
            assert report["error"].startswith("internal error: ValueError: orbit ")


class TestStageCounts:
    """One in-process report on the 12-ray D12 fan computes each stage once.

    `cohomology._cohomology` is the one cohomology routine: the spot check
    calls it once per sample, and the collection once for H*(O_X) and once
    per Ext pair of distinct objects where D2 - D1 or K - (D2 - D1) has
    degree >= 0; the other pairs have Ext (0, -chi, 0) in closed form.
    The basis is certified once, with one determinant and one orbit
    partition, and the collection's objects read its certificate: they take
    neither.  The group read from its generators is certified once.  The basis
    and the collection read one pullback along the trace.  The basis search
    partitions its candidates with the certificate's routine."""

    COUNTED = ("minimal_model.classify_minimal", "grothendieck.verify_permutation_basis",
               "cohomology._cohomology", "grothendieck._orbit_partition",
               "minimal_model.pullback", "intlinalg.bareiss_det",
               "symmetry._rotation_and_reflection")

    @staticmethod
    def patch_every_binding(monkeypatch, original, replacement):
        """Replace `original` with `replacement` in every package module
        that binds it."""
        for name, module in list(sys.modules.items()):
            if name.startswith("toric_surface_lab."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, replacement)

    def test_report_runs_each_stage_once(self, capsys, monkeypatch):
        calls = {key: [] for key in self.COUNTED}
        for key in self.COUNTED:
            module, attr = key.split(".")
            original = getattr(sys.modules[f"toric_surface_lab.{module}"], attr)

            def shim(*args, _key=key, _original=original):
                calls[_key].append(args)
                return _original(*args)

            self.patch_every_binding(monkeypatch, original, shim)
        monkeypatch.chdir(Path(__file__).parent / "golden")
        code, report = run_json(capsys, ["report", "--fan", "dp6-12.json",
                                         "--group", "d12.json"])
        monkeypatch.undo()
        assert code == 0
        result = report["result"]
        objects = [tuple(d) for block in result["collection"]["blocks"] for d in block]
        assert len(objects) == 12
        basis = [tuple(d) for d in result["basis"]["divisors"]]
        assert len(basis) == 12
        partitions = calls["grothendieck._orbit_partition"]
        partitioned = [list(a) for args in partitions for a in args
                       if isinstance(a, (list, tuple))]
        assert partitioned.count(basis) == 1
        assert partitioned.count(objects) == 0
        counts = {key: len(args) for key, args in calls.items()}
        # The Ext pairs of distinct objects, within a block and from a later
        # block to an earlier one, by the degree (D2 - D1).H of D2 - D1.
        _, weights, k_degree = _ample_weights(
            lattice_fan.validate_fan(json.loads((GOLDEN / "dp6-12.json").read_text())["rays"]))
        rows = [[sum(map(mul, weights, d)) for d in block]
                for block in result["collection"]["blocks"]]
        degrees = [dst - src for b, row in enumerate(rows) for t, other in enumerate(rows[:b + 1])
                   for i, src in enumerate(row) for j, dst in enumerate(other) if t < b or i != j]
        assert len(degrees) == result["collection"]["pairs_checked"] - len(objects)
        sided = sum(1 for d in degrees if d >= 0 or k_degree - d >= 0)
        assert (len(degrees), sided) == (85, 38)
        assert counts["cohomology._cohomology"] == 89
        assert counts == {
            "minimal_model.classify_minimal": 1,
            "grothendieck.verify_permutation_basis": 1,
            "grothendieck._orbit_partition": 1,
            "intlinalg.bareiss_det": 1,
            "symmetry._rotation_and_reflection": 1,
            "minimal_model.pullback": 1,
            "cohomology._cohomology": result["cohomology_spot_check"]["samples"] + 1 + sided,
        }

    def test_basis_search_partitions_with_the_certificates_routine(self, capsys, monkeypatch):
        """`basis --bound 1` on dP6 with D12 partitions classes into orbits
        twice, both times with `_orbit_partition`: once in the search, for
        its 425 candidate classes, and once in the certificate, for the 6
        classes found.  The counts do not depend on the fan; CI pins the
        report of the 12-ray fan's search over 524,657 candidates."""
        partition, search = grothendieck._orbit_partition, grothendieck.search_line_bundle_basis
        calls, in_search = [], []

        def counted_partition(*args):
            calls.append(args)
            return partition(*args)

        def counted_search(*args):
            before = len(calls)
            found = search(*args)
            in_search.append(len(calls) - before)
            return found

        self.patch_every_binding(monkeypatch, partition, counted_partition)
        self.patch_every_binding(monkeypatch, search, counted_search)
        monkeypatch.chdir(GOLDEN)
        code, report = run_json(capsys, ["basis", "--fan", "dp6.json", "--group", "d12.json",
                                         "--bound", "1"])
        monkeypatch.undo()
        assert code == 0
        assert in_search == [1]
        assert [len(args[3]) for args in calls] == [425, 6]
        assert list(calls[1][2]) == [tuple(d) for d in report["result"]["basis"]["divisors"]]


class _Pair(NamedTuple):
    x: int
    label: str


class TestJsonWriter:
    """`cli._json_text` writes what `json.dumps(obj, sort_keys=True,
    indent=2)` writes, byte for byte, and refuses what JSON reports never
    hold."""

    @staticmethod
    def check(obj):
        assert cli._json_text(obj, "\n") == json.dumps(obj, sort_keys=True, indent=2)

    def test_every_golden_payload(self, monkeypatch):
        docs = []
        real = cli._json_text

        def record(obj, pad):
            if pad == "\n":  # a whole report, not a value inside one
                docs.append(obj)
            return real(obj, pad)

        monkeypatch.setattr(cli, "_json_text", record)
        monkeypatch.chdir(GOLDEN)
        for argv in golden_runs():
            with redirect_stdout(io.StringIO()) as buf:
                main(argv)
            assert buf.getvalue() == real(docs[-1], "\n") + "\n"
        monkeypatch.undo()
        assert len(docs) == len(golden_runs())
        for doc in docs:
            self.check(doc)

    @pytest.mark.parametrize("obj", [
        "plain", "", "caf\u00e9 \u221e \U0001f600 \u2028", "\x00\x01\x1f\x7f\n\t\r\b\f",
        'a "quote" and a \\ backslash', {}, [], (), {"a": {}}, {"a": []},
        [[], {}, [[]], [{}]], {"e": {"f": {}}}, [True, False, None],
        {"t": True, "f": False, "n": None}, True, False, None, 0, -1, -(2**40),
        2**40, 10**30, -(10**30), (1, (2, (3,))), _Pair(-7, "x\u00ff"),
        [_Pair(2**40, '"'), {"pair": _Pair(0, "")}],
        {"b": 1, "a": [2, {"\u00e9": 3}], "A": 4, "": 5, "\x00": 6, "aa": -(10**30)},
    ])
    def test_adversarial_payloads(self, obj):
        self.check(obj)

    @pytest.mark.parametrize("obj", [
        1.5, {1, 2}, object(), {1: "a"}, [1, 0.0], {"k": {2: 3}}, {"s": {"x"}},
    ], ids=["float", "set", "object", "int-key", "float-in-list", "nested-int-key",
            "nested-set"])
    def test_other_types_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            cli._json_text(obj, "\n")


class TestInternalError:
    def test_bug_exits_3_with_json_report(self, capsys, monkeypatch, p2_file):
        def boom(fan):
            raise KeyError("unexpected")

        monkeypatch.setattr(symmetry, "compute_aut", boom)
        code = main(["aut", "--fan", p2_file, "--json"])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 3
        assert report["status"] == "internal-error"
        assert report["inputs"]["fan"]["path"] == p2_file
        assert "KeyError" in report["error"]
        assert "Traceback" in captured.err

    def test_table_violation_exits_3(self, capsys, monkeypatch, p2_file):
        """A minimal pair outside the table indicates a bug: exit 3, not
        invalid input."""
        monkeypatch.setattr(minimal_model, "TABLE", ())
        code, report = run_json(capsys, ["classify", "--fan", p2_file])
        assert (code, report["status"]) == (3, "internal-error")
        assert report["error"] == (
            "internal error: TableViolation: minimal 3-ray pair with group C1 is not a table row")

    def test_bug_without_json(self, capsys, monkeypatch, p2_file):
        monkeypatch.setattr(symmetry, "compute_aut", lambda fan: 1 / 0)
        assert main(["aut", "--fan", p2_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal error: ZeroDivisionError" in captured.err

    @pytest.mark.parametrize("error, code", [
        (ValueError, 3),
        (lattice_fan.FanError, 2),
        (symmetry.SymmetryError, 2),
        (minimal_model.MinimalModelError, 2),
        (grothendieck.GrothendieckError, 2),
    ], ids=["ValueError", "FanError", "SymmetryError", "MinimalModelError", "GrothendieckError"])
    def test_only_lab_errors_are_invalid_input(self, capsys, monkeypatch, p2_file, error, code):
        """A stage's LabError means invalid input (exit 2); a plain ValueError
        from a stage is a bug and exits 3."""
        def boom(fan):
            raise error("unexpected")

        monkeypatch.setattr(grothendieck, "verify_klyachko", boom)
        assert main(["k0-verify", "--fan", p2_file, "--json"]) == code
        report = json.loads(capsys.readouterr().out)
        status, prefix = {2: ("invalid-input", ""), 3: ("internal-error", "internal error: ")}[code]
        assert report["status"] == status
        assert report["error"] == f"{prefix}{error.__name__}: unexpected"

    def test_argparse_exit_2_is_kept(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command", "--json"])
        assert exc.value.code == 2


class TestWriteFailure:
    """Output that cannot be written exits 3 with one line on stderr, in a
    fresh process: a closed pipe or a full device is not a failed
    certificate, and the flush at interpreter exit must not fail again."""

    @staticmethod
    def run(stdout, argv):
        src = str(Path(toric_surface_lab.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        extra = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + extra if extra else "")
        return subprocess.run([sys.executable, "-m", "toric_surface_lab.cli", *argv],
                              stdout=stdout, stderr=subprocess.PIPE, env=env, cwd=GOLDEN)

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_closed_pipe_exits_3(self, json_flag):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.run(write_end, ["validate", "--fan", "p2.json", *json_flag])
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (3, b"error: cannot write output: Broken pipe\n")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_full_device_exits_3(self, json_flag):
        with open("/dev/full", "wb") as full:
            proc = self.run(full, ["validate", "--fan", "p2.json", *json_flag])
        assert proc.returncode == 3
        assert proc.stderr == b"error: cannot write output: No space left on device\n"


# The Tier-1 slice of the exit row of tests/sweeps.py (20 of its 72 cells):
# every input and flag with stderr on /dev/full, stdout writable or a closed
# pipe for `validate` and writable for the failed collection; and a full
# stdout with a writable stderr once for each command.
EXIT_SLICE = [cell for cell in CELLS if cell[4] == "full" and (
    cell[3] == "ok" or (cell[3] == "closed" and cell[0] == ("validate",)))]
EXIT_SLICE += [(("validate",), ("--json",), "valid", "full", "ok"),
               (("collection", "--order", "reversed"), (), "valid", "full", "ok")]


class TestExitMatrix:
    """A stderr that cannot be written keeps the run's exit code, and a
    stdout that cannot be written exits 3, in a fresh process per cell."""

    @pytest.mark.parametrize("cell", EXIT_SLICE, ids=lambda cell: "-".join(
        [cell[0][0], "json" if cell[1] else "plain", *cell[2:]]))
    def test_cell(self, cell):
        assert run_cell(*cell) == expected_code(*cell)


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


# The package modules a fresh CLI process loads besides cli, lattice_fan and
# intlinalg: those of the stages each command runs ("" is the bare import).
STAGE_MODULES = {
    "": set(),
    "validate": set(),
    "aut": {"symmetry"},
    "classify-group": {"symmetry"},
    "k0-verify": {"grothendieck"},
    "minimalize": {"symmetry", "minimal_model"},
    "basis": {"symmetry", "minimal_model", "grothendieck"},
    "collection": {"symmetry", "minimal_model", "grothendieck", "cohomology", "derived"},
    "decompose": {"symmetry", "minimal_model", "grothendieck", "motivic"},
    "report": {"symmetry", "minimal_model", "grothendieck", "cohomology", "derived",
               "motivic"},
}
PROBE = """
import contextlib, io, json, sys
from toric_surface_lab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted({"numpy", "dataclasses"} & set(sys.modules)),
                  sorted(m for m in sys.modules if m.startswith("toric_surface_lab."))]))
"""


def test_cli_import_does_not_load_numpy():
    """A fresh CLI process loads no numpy, and each command loads exactly the
    package modules of its stages; the package resolves its names lazily."""
    src = str(Path(toric_surface_lab.__file__).resolve().parent.parent)
    extra = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + extra if extra else ""))
    for command, stages in STAGE_MODULES.items():
        argv = [command] if command else []
        if command and command != "classify-group":
            argv += ["--fan", "dp6-12.json"]
        if command in ("classify-group", "minimalize", "basis", "collection", "decompose",
                       "report"):
            argv += ["--group", "d12.json"]
        out = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, cwd=GOLDEN,
                             capture_output=True, text=True, check=True)
        code, heavy, loaded = json.loads(out.stdout)
        assert (code, heavy) == (0, []), command
        expected = {"cli", "lattice_fan", "intlinalg"} | stages
        assert set(loaded) == {f"toric_surface_lab.{m}" for m in expected}, command

    namespace: dict = {}
    exec("from toric_surface_lab import *", namespace)
    assert all(namespace[name] is getattr(toric_surface_lab, name)
               for name in toric_surface_lab.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        toric_surface_lab.no_such_name
