"""Command-line interface: report shape, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from groupnear import cli
from groupnear.matcore import matrix_to_json, random_general

CLI = [sys.executable, "-m", "groupnear.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


@pytest.fixture
def antidiag(tmp_path):
    path = tmp_path / "antidiag.json"
    path.write_text(json.dumps({"n": 2, "data": [[0, 2], [1, 0]]}))
    return str(path)


@pytest.fixture
def unimodular_diag(tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"n": 2, "data": [[2, 0], [0, 0.5]]}))
    return str(path)


@pytest.fixture
def odd_weights(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"m": 1, "weights": [-3, -1, 1, 3]}))
    return str(path)


class TestNearest:
    def test_orthogonal_example(self, antidiag):
        proc = run_cli("nearest", "orthogonal", antidiag)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["command"] == "nearest"
        assert report["results"][0]["x"]["data"] == [[0, 1], [1, 0]]
        assert report["results"][0]["distance_sq"] == pytest.approx(1.0)

    def test_sl_on_group_input(self, unimodular_diag):
        proc = run_cli("nearest", "sl", unimodular_diag)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["results"][0]["distance_sq"] == pytest.approx(0.0, abs=1e-12)
        assert report["results"][0]["det_sign"] == 1

    def test_component_override(self, unimodular_diag):
        proc = run_cli("nearest", "sl", unimodular_diag, "--component", "pm")
        assert proc.returncode == 0

    def test_component_rejected_elsewhere(self, antidiag):
        proc = run_cli("nearest", "orthogonal", antidiag, "--component", "pm")
        assert proc.returncode == 2

    def test_symplectic_unsupported(self, antidiag):
        proc = run_cli("nearest", "symplectic", antidiag)
        assert proc.returncode == 4

    def test_torus_unsupported(self, antidiag):
        proc = run_cli("nearest", "torus", antidiag)
        assert proc.returncode == 4

    def test_unknown_group(self, antidiag):
        proc = run_cli("nearest", "borel", antidiag)
        assert proc.returncode == 2

    def test_missing_file(self):
        proc = run_cli("nearest", "orthogonal", "/nonexistent.json")
        assert proc.returncode == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli("nearest", "orthogonal", str(bad))
        assert proc.returncode == 2

    def test_degenerate_input(self, tmp_path):
        # Repeated singular values: the solver refuses, mapped to exit 3.
        path = tmp_path / "scaled_identity.json"
        path.write_text(json.dumps({"n": 2, "data": [[2, 0], [0, 2]]}))
        proc = run_cli("nearest", "orthogonal", str(path))
        assert proc.returncode == 3


class TestDeterminism:
    def test_byte_identical_stdout(self, antidiag):
        first = run_cli("critical", "sl-pm", antidiag)
        second = run_cli("critical", "sl-pm", antidiag)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_timing_on_stderr_only(self, antidiag):
        proc = run_cli("nearest", "orthogonal", antidiag)
        assert "elapsed_ms" not in proc.stdout
        assert "elapsed_ms" in proc.stderr


class TestCritical:
    def test_orthogonal_census(self, antidiag):
        proc = run_cli("critical", "orthogonal", antidiag)
        report = json.loads(proc.stdout)
        assert report["counts"]["expected"] == 4
        assert len(report["results"]) == 4

    def test_sl_pm_reports_complex_count(self, unimodular_diag):
        proc = run_cli("critical", "sl-pm", unimodular_diag)
        report = json.loads(proc.stdout)
        assert report["counts"]["expected"] == 8
        assert len(report["results"]) <= 8
        dists = [r["distance_sq"] for r in report["results"]]
        assert dists == sorted(dists)

    def test_special_orthogonal_only_rotations(self, antidiag):
        proc = run_cli("critical", "special-orthogonal", antidiag)
        report = json.loads(proc.stdout)
        assert report["counts"]["expected"] == 2
        assert all(r["det_sign"] == 1 for r in report["results"])

    def test_symplectic_census_allowed(self, antidiag):
        proc = run_cli("--starts", "200", "critical", "symplectic", antidiag)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["counts"]["expected"] == 4

    def test_symplectic_census_diagnostics_reported(self, antidiag):
        first = run_cli("--starts", "200", "critical", "symplectic", antidiag)
        second = run_cli("--starts", "200", "critical", "symplectic", antidiag)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        counts = json.loads(first.stdout)["counts"]
        assert counts["expected_source"] == "literature"
        assert counts["attempted"] == counts["converged"] + counts["failed"] == 200
        # antidiag is [[0, 2], [1, 0]], so ||u|| = sqrt(5).
        assert counts["merge_radius"] == pytest.approx(1e-5 * (1.0 + 5.0**0.5), rel=1e-15)
        assert counts["worst_residual"] <= 1e-9
        assert 1 <= counts["sweeps"] <= 200

    def test_symplectic_size_refused_before_census(self, tmp_path, monkeypatch):
        assert _critical_symplectic_without_census(8, tmp_path, monkeypatch) == cli.EXIT_UNSUPPORTED

    def test_odd_symplectic_size_refused_before_census(self, tmp_path, monkeypatch):
        assert _critical_symplectic_without_census(3, tmp_path, monkeypatch) == cli.EXIT_UNSUPPORTED


def _critical_symplectic_without_census(n, tmp_path, monkeypatch):
    """Exit code of `critical symplectic` on a random n x n input, with a
    census that fails the test if it is ever called."""
    path = tmp_path / f"u{n}.json"
    path.write_text(json.dumps(matrix_to_json(random_general(n, 0))))

    def census_must_not_run(*args, **kwargs):
        raise AssertionError("census ran for an unsupported size")

    monkeypatch.setattr(cli, "multistart_census", census_must_not_run)
    return cli.main(["critical", "symplectic", str(path)])


class TestVerify:
    def test_sl_suite(self):
        proc = run_cli("--seed", "11", "verify", "sl")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        expected = {c["name"]: c["expected"] for c in report["checks"]}
        assert expected == {
            "sl n=1 distinct multiplier count": 2,
            "sl n=2 distinct multiplier count": 8,
            "sl n=3 distinct multiplier count": 24,
        }
        assert all(c["pass"] for c in report["checks"])

    def test_torus_suite(self):
        proc = run_cli("verify", "torus")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["counts"]["observed"] == report["counts"]["expected"]

    def test_orthogonal_suite(self):
        proc = run_cli("verify", "orthogonal")
        assert proc.returncode == 0

    def test_unknown_suite(self):
        proc = run_cli("verify", "everything")
        assert proc.returncode == 2


class TestBkk:
    def test_bound_and_count(self, odd_weights):
        proc = run_cli("bkk", odd_weights)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["counts"]["expected"] == 6
        assert report["counts"]["observed"] == 6

    def test_asymmetric_rejected(self, tmp_path):
        path = tmp_path / "asym.json"
        path.write_text(json.dumps({"m": 1, "weights": [1, 2]}))
        proc = run_cli("bkk", str(path))
        assert proc.returncode == 2

    def test_planar_bound_without_count(self, tmp_path):
        path = tmp_path / "cross.json"
        path.write_text(
            json.dumps({"m": 2, "weights": [[1, 0], [-1, 0], [0, 1], [0, -1]]})
        )
        proc = run_cli("bkk", str(path))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["counts"] == {"expected": 4}

    def test_rank3_bound_without_count(self, tmp_path):
        path = tmp_path / "cube.json"
        corners = [[a, b, c] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
        path.write_text(json.dumps({"m": 3, "weights": corners}))
        proc = run_cli("bkk", str(path))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["counts"] == {"expected": 48}

    def test_invalid_rank4_set_is_unsupported_before_validation(self, tmp_path):
        # The rank limit is checked before the symmetry and rank test, so an
        # asymmetric rank-4 set exits 4 (unsupported), not 2 (bad input).
        path = tmp_path / "rank4.json"
        path.write_text(json.dumps({"m": 4, "weights": [[1, 0, 0, 0], [0, 1, 0, 0]]}))
        proc = run_cli("bkk", str(path))
        assert proc.returncode == 4
        assert "m <= 3" in proc.stderr

    def test_oversized_rank1_count_unsupported(self, tmp_path):
        # Degree 1026 is past the cap; the count is refused before any work.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"m": 1, "weights": [-513, 513]}))
        proc = run_cli("bkk", str(path))
        assert proc.returncode == 4
