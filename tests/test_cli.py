"""Command-line interface: report shape, determinism, exit codes, and the
largest sizes the commands accept.

`tests/test_corpus.py` replays a report per group and input, one refusal
per nonzero exit code but 1, `bkk` at ranks 1 and 3 and the `verify`
suites; the cases here check what the corpus does not, through
`cli.main` in process.  Only the determinism cases and the largest
census, whose peak RSS is measured, start an interpreter, with
RuntimeWarning made an error as in the suite (pyproject.toml).
"""

import json
import subprocess
import sys
import textwrap
import time

import pytest
from test_torused import RANK_DEFICIENT

from groupnear import cli, orthonear
from groupnear.matcore import matrix_to_json, random_general
from groupnear.orthonear import nearest_orthogonal
from groupnear.slnear import sl_critical_points

CLI = [sys.executable, "-W", "error::RuntimeWarning", "-m", "groupnear.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def run_main(capsys, *argv):
    """(exit code, stdout, stderr) of one in-process `cli.main` run."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def antidiag(tmp_path):
    path = tmp_path / "antidiag.json"
    path.write_text(json.dumps({"n": 2, "data": [[0, 2], [1, 0]]}))
    return str(path)


class TestNearest:
    def test_orthogonal_example(self, antidiag, capsys):
        # The corpus compares x to 1e-12; here it must be exact.
        code, out, _ = run_main(capsys, "nearest", "orthogonal", antidiag)
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["command"] == "nearest"
        assert report["results"][0]["x"]["data"] == [[0, 1], [1, 0]]
        assert report["results"][0]["distance_sq"] == pytest.approx(1.0)

    def test_torus_unsupported(self, antidiag, capsys):
        assert run_main(capsys, "nearest", "torus", antidiag)[0] == cli.EXIT_UNSUPPORTED

    def test_unknown_group(self, antidiag, capsys):
        assert run_main(capsys, "nearest", "borel", antidiag)[0] == cli.EXIT_INPUT

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_main(capsys, "nearest", "orthogonal", str(bad))[0] == cli.EXIT_INPUT

    def test_string_entry_refused(self, tmp_path, capsys):
        # "2.5" is a JSON string, not a number: an input error, exit 2.
        path = tmp_path / "string.json"
        path.write_text(json.dumps({"n": 1, "data": [["2.5"]]}))
        code, _, err = run_main(capsys, "nearest", "orthogonal", str(path))
        assert code == cli.EXIT_INPUT
        assert "non-numeric entry" in err


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
    def test_symplectic_census_diagnostics_reported(self, antidiag, capsys):
        first = run_main(capsys, "--starts", "200", "critical", "symplectic", antidiag)
        second = run_main(capsys, "--starts", "200", "critical", "symplectic", antidiag)
        assert first[0] == second[0] == cli.EXIT_OK
        assert first[1] == second[1]
        counts = json.loads(first[1])["counts"]
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


def _write_weights(tmp_path, m, weights, name="weights.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"m": m, "weights": weights}))
    return str(path)


def _line_set(r):
    """The rank-3 weights +-k e1 for k = 1..r, and +-e2 and +-e3: 2r + 4 of them."""
    return [[k, 0, 0] for k in range(-r, r + 1) if k] + [[0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]


def _critical_symplectic_without_census(n, tmp_path, monkeypatch):
    """Exit code of `critical symplectic` on a random n x n input, with a
    census that fails the test if it is ever called."""
    path = _write_matrix(tmp_path, random_general(n, 0), f"u{n}.json")

    def census_must_not_run(*args, **kwargs):
        raise AssertionError("census ran for an unsupported size")

    monkeypatch.setattr(cli, "multistart_census", census_must_not_run)
    return cli.main(["critical", "symplectic", path])


class TestVerify:
    @pytest.mark.parametrize(
        "argv,names",
        [
            (["verify", "torus"], {"torus box [-2, 2]^3 bound", "torus cross-polytope m=2 bound"}),
            # The corpus runs the symplectic suite on seed 0 only.
            (["--seed", "9", "verify", "symplectic"], set()),
            (["--seed", "14", "verify", "symplectic"], set()),
        ],
        ids=["torus", "symplectic seed 9", "symplectic seed 14"],
    )
    def test_suite_passes(self, argv, names, capsys):
        code, out, _ = run_main(capsys, *argv)
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["counts"]["observed"] == report["counts"]["expected"]
        assert names <= {c["name"] for c in report["checks"]}

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "everything"])
        assert exc.value.code == cli.EXIT_INPUT
        assert capsys.readouterr().out == ""

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
    def test_negative_seed_refused(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--seed", "-1", *args])
        assert exc.value.code == cli.EXIT_INPUT == 2
        captured = capsys.readouterr()
        assert "--seed: must be a non-negative integer" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


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
    def test_report_is_plain_finite_json(self, argv, tmp_path):
        corners = [[a, b, c] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
        files = {
            "@real": _write_matrix(tmp_path, random_general(3, 0)),
            "@real2": _write_matrix(tmp_path, random_general(2, 0), "u2.json"),
            "@complex": _write_matrix(tmp_path, random_general(2, 0, complex_entries=True), "c.json"),
            "@rank1": _write_weights(tmp_path, 1, [-3, -1, 1, 3], "rank1.json"),
            "@rank3": _write_weights(tmp_path, 3, corners, "cube.json"),
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
    def test_bound_and_count(self, tmp_path, capsys):
        # The weights have gcd 6: the count in t^g divides by it.
        code, out, _ = run_main(capsys, "bkk", _write_weights(tmp_path, 1, [-9, -3, 3, 9]))
        assert code == cli.EXIT_OK
        assert json.loads(out)["counts"] == {"expected": 18, "observed": 18}

    def test_asymmetric_rejected(self, tmp_path, capsys):
        assert run_main(capsys, "bkk", _write_weights(tmp_path, 1, [1, 2]))[0] == cli.EXIT_INPUT

    def test_planar_bound_without_count(self, tmp_path, capsys):
        code, out, _ = run_main(capsys, "bkk", _write_weights(tmp_path, 2, [[1, 0], [-1, 0], [0, 1], [0, -1]]))
        assert code == cli.EXIT_OK
        assert json.loads(out)["counts"] == {"expected": 4}

    def test_invalid_rank4_set_is_unsupported_before_validation(self, tmp_path, capsys):
        # The rank limit is checked before the symmetry and rank test, so an
        # asymmetric rank-4 set exits 4 (unsupported), not 2 (bad input).
        code, _, err = run_main(capsys, "bkk", _write_weights(tmp_path, 4, [[1, 0, 0, 0], [0, 1, 0, 0]]))
        assert code == cli.EXIT_UNSUPPORTED
        assert "m <= 3" in err

    def test_oversized_rank3_set_unsupported(self, tmp_path, capsys):
        # 152 rank-3 weights, two past the cap, are refused (exit 4) before
        # the facet search starts.  An entry past 2**19 is refused (exit 4)
        # before the set is checked, so a planar set with one exits 4, not 2.
        planar = [[2**20, 0, 0], [-(2**20), 0, 0], [0, 1, 0], [0, -1, 0]]
        for weights, message in ((_line_set(74), "at most 150 rank-3 weights"), (planar, "weight entries")):
            code, out, err = run_main(capsys, "bkk", _write_weights(tmp_path, 3, weights))
            assert code == cli.EXIT_UNSUPPORTED
            assert out == ""
            assert message in err

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rank_deficient_set_exits_2(self, m, tmp_path, capsys):
        weights = [list(chi) for chi in RANK_DEFICIENT[m].weights]
        code, out, err = run_main(capsys, "bkk", _write_weights(tmp_path, m, weights))
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert "not a valid torus weight set" in err

    def test_oversized_rank1_count_unsupported(self, tmp_path, capsys):
        # Degree 1026 is past the cap; the count is refused before any work.
        assert run_main(capsys, "bkk", _write_weights(tmp_path, 1, [-513, 513]))[0] == cli.EXIT_UNSUPPORTED


# A fresh interpreter runs the CLI and prints its exit code and peak RSS
# in MB, read from RUSAGE_CHILDREN: that counts this one child, and no
# other test's.  ru_maxrss is in kB on Linux.
_PEAK_RSS = textwrap.dedent(
    """
    import resource, subprocess, sys
    with open(sys.argv[1], "w") as out:
        code = subprocess.run(sys.argv[2:], stdout=out, timeout=120).returncode
    print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
    """
)


class TestLargestSizes:
    # The largest size each command accepts runs to the end within 60 s:
    # bkk at its 150-weight rank-3 cap, nearest (which has no size limit)
    # at 200 x 200, and the 2^n-point enumerations at their limit n = 14.
    @pytest.mark.parametrize(
        "argv,data,counts,results",
        [
            (["bkk"], {"m": 3, "weights": _line_set(73)}, {"expected": 584}, 0),
            (["nearest", "orthogonal"], 200, {"expected": 2**200}, 1),
            (["critical", "special-orthogonal"], 14, {"expected": 8192}, 8192),
            (["critical", "orthogonal"], 14, {"expected": 16384}, 16384),
        ],
        ids=["bkk 150 weights", "nearest orthogonal n=200", "critical special-orthogonal n=14", "critical orthogonal n=14"],
    )
    def test_largest_accepted_size_within_60_s(self, argv, data, counts, results, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(matrix_to_json(random_general(data, 0)) if isinstance(data, int) else data))
        start = time.monotonic()
        code, out, _ = run_main(capsys, *argv, str(path))
        assert code == cli.EXIT_OK and time.monotonic() - start < 60
        report = json.loads(out)
        assert report["counts"] == counts
        assert len(report["results"]) == results

    def test_largest_census_within_120_s_and_200_mb(self, tmp_path):
        # Sp(6), the largest census the CLI runs, at the starts cap: a census
        # holds its Jacobians for one block of starts at a time, so
        # its memory is set by the block, not by --starts.
        path = _write_matrix(tmp_path, random_general(6, 0))
        out = tmp_path / "sp6.out"
        argv = [*CLI, "--starts", str(cli._MAX_STARTS), "critical", "symplectic", path]
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, str(out), *argv], capture_output=True, text=True)
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stderr
        code, peak_mb = proc.stdout.split()
        assert int(code) == cli.EXIT_OK and elapsed < 120 and float(peak_mb) < 200
        report = json.loads(out.read_text())
        counts = report["counts"]
        assert counts["attempted"] == counts["converged"] + counts["failed"] == cli._MAX_STARTS
        assert report["results"] and counts["worst_residual"] < 1e-9
