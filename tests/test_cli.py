"""Command-line interface: report shape, determinism, exit codes."""

import json
import subprocess
import sys

import pytest
from test_torused import RANK_DEFICIENT

from groupnear import cli, orthonear
from groupnear.matcore import matrix_to_json, random_general
from groupnear.orthonear import nearest_orthogonal
from groupnear.slnear import sl_critical_points

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

    def test_string_entry_refused(self, tmp_path):
        # "2.5" is a JSON string, not a number: an input error, exit 2.
        path = tmp_path / "string.json"
        path.write_text(json.dumps({"n": 1, "data": [["2.5"]]}))
        proc = run_cli("nearest", "orthogonal", str(path))
        assert proc.returncode == 2
        assert "non-numeric entry" in proc.stderr

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

    @pytest.mark.parametrize(
        "group,n", [("orthogonal", 15), ("special-orthogonal", 30), ("unitary", 13)]
    )
    def test_oversized_enumeration_refused_before_work(self, group, n, tmp_path, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("enumeration ran for a refused size")

        monkeypatch.setattr(orthonear, "_svd_frame", must_not_run)
        monkeypatch.setattr(orthonear, "_sign_table", must_not_run)
        u = random_general(n, 0, complex_entries=group == "unitary")
        assert cli.main(["critical", group, _write_matrix(tmp_path, u)]) == cli.EXIT_UNSUPPORTED
        captured = capsys.readouterr()
        assert "supports n <=" in captured.err and captured.out == ""


def _write_matrix(tmp_path, u, name="u.json"):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_to_json(u)))
    return str(path)


def _critical_symplectic_without_census(n, tmp_path, monkeypatch):
    """Exit code of `critical symplectic` on a random n x n input, with a
    census that fails the test if it is ever called."""
    path = _write_matrix(tmp_path, random_general(n, 0), f"u{n}.json")

    def census_must_not_run(*args, **kwargs):
        raise AssertionError("census ran for an unsupported size")

    monkeypatch.setattr(cli, "multistart_census", census_must_not_run)
    return cli.main(["critical", "symplectic", path])


class TestVerify:
    def test_sl_suite(self):
        proc = run_cli("--seed", "11", "verify", "sl")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        expected = {c["name"]: c["expected"] for c in report["checks"]}
        laws = {}
        for n in (1, 2, 3, 4):
            laws[f"sl n={n} real count at |det u| = 2^-n"] = 2**n
            laws[f"sl n={n} real count at c < 0, |det u| = 2^n"] = 2**n - 1
            laws[f"sl n={n} odd real count at c > 0, |det u| = 2^n (proved for generic u)"] = 1
        assert expected == {
            "sl n=1 distinct multiplier count": 2,
            "sl n=2 distinct multiplier count": 8,
            "sl n=3 distinct multiplier count": 24,
            **laws,
        }
        assert all(c["pass"] for c in report["checks"])

    def test_torus_suite(self):
        proc = run_cli("verify", "torus")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["counts"]["observed"] == report["counts"]["expected"]
        names = {c["name"] for c in report["checks"]}
        assert {"torus box [-2, 2]^3 bound", "torus cross-polytope m=2 bound"} <= names

    def test_orthogonal_suite(self):
        proc = run_cli("verify", "orthogonal")
        assert proc.returncode == 0

    def test_unknown_suite(self):
        proc = run_cli("verify", "everything")
        assert proc.returncode == 2

    def test_failed_check_exits_1(self, monkeypatch, capsys):
        def failing(seed, starts):
            return [cli._check("forced", 1, 0)]

        monkeypatch.setitem(cli._SUITE_RUNNERS, "orthogonal", failing)
        assert cli.main(["verify", "orthogonal"]) == cli.EXIT_VERIFY_FAILED == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["counts"] == {"expected": 1, "observed": 0}
        assert report["checks"] == [{"name": "forced", "expected": 1, "observed": 0, "pass": False}]
        assert "FAIL forced: expected 1, observed 0" in captured.err


class TestSeed:
    # A negative seed is refused at parse time on every command, with an
    # error line and the input exit code, before any file is read.
    @pytest.mark.parametrize(
        "args",
        [("critical", "symplectic", "x.json"), ("verify", "all"), ("bkk", "w.json")],
        ids=["critical", "verify", "bkk"],
    )
    def test_negative_seed_refused(self, args):
        proc = run_cli("--seed", "-1", *args)
        assert proc.returncode == cli.EXIT_INPUT == 2
        assert "--seed: must be a non-negative integer" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""


class TestOptions:
    # The group name picks the solver and the checks have fixed thresholds:
    # --seed and --starts are the only options.
    def test_only_seed_and_starts(self):
        options = [a.option_strings for a in cli._build_parser()._actions if a.option_strings]
        assert options == [["-h", "--help"], ["--seed"], ["--starts"]]

    @pytest.mark.parametrize(
        "argv",
        [["nearest", "sl", "@antidiag", "--component", "pm"], ["--tol", "1e-300", "verify", "orthogonal"]],
        ids=["component", "tol"],
    )
    def test_removed_options_refused_at_parse_time(self, argv, antidiag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([antidiag if a == "@antidiag" else a for a in argv])
        assert exc.value.code == cli.EXIT_INPUT == 2
        captured = capsys.readouterr()
        assert "groupnear: error:" in captured.err and captured.out == ""


class TestComplexInput:
    # Whether a group takes complex input is its solver's rule: each real
    # group's solver refuses it by name, and the CLI maps that to exit 2.
    @pytest.mark.parametrize(
        "argv",
        [
            *([command, group] for command in ("nearest", "critical")
              for group in ("orthogonal", "special-orthogonal", "sl", "sl-pm")),
            ["critical", "symplectic"],
        ],
        ids=" ".join,
    )
    def test_real_groups_refuse_complex_input(self, argv, tmp_path, capsys):
        path = _write_matrix(tmp_path, random_general(2, 0, complex_entries=True))
        assert cli.main([*argv, path]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "real" in captured.err and "sym_eig" not in captured.err


class TestStarts:
    # --starts must be a positive integer no larger than the cap set from the
    # census's memory per start: 0 used to be accepted silently, and a million
    # starts would need tens of GB.
    @pytest.mark.parametrize("starts", ["0", "-5", "1.5", "x", str(cli._MAX_STARTS + 1), "1000000"])
    def test_bad_starts_refused_at_parse_time(self, starts, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--starts", starts, "verify", "orthogonal"])
        assert exc.value.code == cli.EXIT_INPUT == 2
        captured = capsys.readouterr()
        assert f"--starts: must be an integer from 1 to {cli._MAX_STARTS}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("starts", [1, cli._MAX_STARTS])
    def test_bounds_accepted(self, starts):
        args = cli._build_parser().parse_args(["--starts", str(starts), "verify", "orthogonal"])
        assert args.starts == starts


def _hex(values) -> list[str]:
    """The exact bits of each float in a nested list; an int fails."""
    if isinstance(values, list):
        return [h for v in values for h in _hex(v)]
    return [values.hex()]


def _plain(value) -> bool:
    """True if value is built from dicts, lists and plain Python scalars only."""
    if isinstance(value, dict):
        return all(isinstance(k, str) and _plain(v) for k, v in value.items())
    if isinstance(value, list):
        return all(_plain(v) for v in value)
    return type(value) in (str, int, float, bool, type(None))


class TestReportEncoding:
    # Reports go through the standard JSON encoder, which spells each float
    # as its shortest round-trip repr: it parses back to the same double.
    def test_nearest_orthogonal_round_trips(self, tmp_path, capsys):
        u = random_general(3, 0)
        assert cli.main(["nearest", "orthogonal", _write_matrix(tmp_path, u)]) == 0
        printed = json.loads(capsys.readouterr().out)["results"][0]
        point = nearest_orthogonal(u)
        assert _hex(printed["x"]["data"]) == _hex(point.x.tolist())
        assert _hex([printed["distance_sq"], printed["residual"]]) == _hex(
            [point.distance_sq, point.residual]
        )

    def test_critical_sl_pm_round_trips(self, tmp_path, capsys):
        u = random_general(3, 0)
        assert cli.main(["critical", "sl-pm", _write_matrix(tmp_path, u)]) == 0
        printed = json.loads(capsys.readouterr().out)["results"]
        points = sl_critical_points(u)
        assert len(printed) == len(points) > 0
        for row, point in zip(printed, points):
            assert _hex([row["distance_sq"], row["residual"], row["c"]]) == _hex(
                [point.distance_sq, point.residual, point.c]
            )

    @pytest.mark.parametrize(
        "argv",
        [
            *(["nearest", group, "@real"] for group in ("orthogonal", "special-orthogonal", "sl", "sl-pm")),
            ["nearest", "unitary", "@complex"],
            *(["critical", group, "@real"] for group in ("orthogonal", "special-orthogonal", "sl", "sl-pm")),
            ["critical", "unitary", "@complex"],
            ["--starts", "50", "critical", "symplectic", "@real2"],
            ["bkk", "@rank1"],
            ["bkk", "@rank3"],
            ["verify", "all"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_report_is_plain_finite_json(self, argv, tmp_path, odd_weights):
        corners = [[a, b, c] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
        cube = tmp_path / "cube.json"
        cube.write_text(json.dumps({"m": 3, "weights": corners}))
        files = {
            "@real": _write_matrix(tmp_path, random_general(3, 0)),
            "@real2": _write_matrix(tmp_path, random_general(2, 0), "u2.json"),
            "@complex": _write_matrix(tmp_path, random_general(2, 0, complex_entries=True), "c.json"),
            "@rank1": odd_weights,
            "@rank3": str(cube),
        }
        args = cli._build_parser().parse_args([files.get(a, a) for a in argv])
        report = args.func(args).to_json()
        json.dumps(report, allow_nan=False)  # a NaN or an unencodable scalar raises
        assert _plain(report)

    # Finite entries whose squares overflow would be reported as Infinity
    # (distance_sq and residual, or the census merge_radius): refused.
    @pytest.mark.parametrize(
        "argv,n,scale",
        [(["nearest", "orthogonal"], 3, 1e160), (["critical", "symplectic"], 4, 1e200)],
        ids=["nearest orthogonal", "critical symplectic"],
    )
    def test_overflowing_input_refused(self, argv, n, scale, tmp_path, capsys):
        path = tmp_path / "u.json"  # matrix_to_json refuses such a matrix too
        path.write_text(json.dumps({"n": n, "data": (scale * random_general(n, 0)).tolist()}))
        assert cli.main([*argv, str(path)]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "u: squared Frobenius norm overflows" in captured.err


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

    def test_oversized_rank3_set_unsupported(self, tmp_path):
        # 2000 rank-3 weights would keep the facet search busy for hours;
        # they are refused (exit 4) before it starts.  An entry past 2**19
        # is refused (exit 4) before the set is checked, so a planar set
        # with one exits 4, not 2.
        path = tmp_path / "big.json"
        line = [[k, 0, 0] for k in range(-997, 998) if k] + [[0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
        planar = [[2**20, 0, 0], [-(2**20), 0, 0], [0, 1, 0], [0, -1, 0]]
        for weights, message in (
            (line + [[998, 0, 0], [-998, 0, 0]], "at most 150 rank-3 weights"),
            (planar, "weight entries"),
        ):
            path.write_text(json.dumps({"m": 3, "weights": weights}))
            proc = subprocess.run(CLI + ["bkk", str(path)], capture_output=True, text=True, timeout=60)
            assert proc.returncode == 4
            assert proc.stdout == ""
            assert message in proc.stderr

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rank_deficient_set_exits_2(self, m, tmp_path):
        path = tmp_path / "flat.json"
        w = RANK_DEFICIENT[m]
        path.write_text(json.dumps({"m": m, "weights": [list(chi) for chi in w.weights]}))
        proc = run_cli("bkk", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "not a valid torus weight set" in proc.stderr

    def test_oversized_rank1_count_unsupported(self, tmp_path):
        # Degree 1026 is past the cap; the count is refused before any work.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"m": 1, "weights": [-513, 513]}))
        proc = run_cli("bkk", str(path))
        assert proc.returncode == 4
