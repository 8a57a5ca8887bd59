"""Dense linear algebra kernel: the eigensolver, input checks, matrix JSON."""

import json

import numpy as np
import pytest

from groupnear.errors import ConvergenceError, DegeneracyError, InputError
from groupnear.matcore import (
    as_square,
    frobenius_norm,
    matrix_from_json,
    matrix_to_json,
    random_general,
    sym_eig,
)


def _random_symmetric(n, seed):
    a = random_general(n, seed)
    return a + a.T


class TestSymEig:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_reconstruction(self, n):
        s = _random_symmetric(n, 100 + n)
        e = sym_eig(s)
        back = (e.q * e.values) @ e.q.T
        assert frobenius_norm(back - s) < 1e-12 * (1.0 + frobenius_norm(s))

    def test_orthonormal_frame(self):
        e = sym_eig(_random_symmetric(6, 7))
        assert frobenius_norm(e.q.T @ e.q - np.eye(6)) < 1e-12

    def test_descending_order(self):
        e = sym_eig(_random_symmetric(6, 8))
        assert all(a >= b for a, b in zip(e.values, e.values[1:]))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_reference_eigenvalues(self, n):
        s = _random_symmetric(n, 42 + n)
        ours = np.sort(sym_eig(s).values)
        ref = np.sort(np.linalg.eigvalsh(s))
        assert np.max(np.abs(ours - ref)) < 1e-10 * (1.0 + np.max(np.abs(ref)))

    def test_rejects_nonsymmetric(self):
        with pytest.raises(InputError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_complex(self):
        with pytest.raises(InputError, match="^sym_eig: real input required"):
            sym_eig(1j * np.eye(2))

    def test_eigh_failure_is_a_convergence_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError, match="^sym_eig: eigensolver did not converge"):
            sym_eig(np.eye(2))


class TestShapeChecks:
    def test_as_square_rejects_rectangular(self):
        with pytest.raises(InputError):
            as_square(np.zeros((2, 3)))

    def test_as_square_rejects_vector(self):
        with pytest.raises(InputError):
            as_square(np.zeros(4))

    @pytest.mark.parametrize("scale", [1e160, 1e160j], ids=["real", "complex"])
    def test_as_square_refuses_an_overflowing_square(self, scale):
        with pytest.raises(InputError, match="^a: squared Frobenius norm overflows"):
            as_square(scale * random_general(3, 0), "a")
        assert np.array_equal(as_square(1e150 * np.eye(3)), 1e150 * np.eye(3))

    @pytest.mark.parametrize(
        "a,message",
        [(np.array([[1.0, None], [0.0, 1.0]], dtype=object), "entries must be numeric"), (np.zeros((0, 0)), "empty")],
        ids=["object", "empty"],
    )
    def test_as_square_refuses_non_numeric_or_empty(self, a, message):
        with pytest.raises(InputError, match=f"^a: {message}"):
            as_square(a, "a")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_as_square_refuses_non_finite_entries(self, bad):
        with pytest.raises(InputError, match="^a: entries must be finite"):
            as_square([[1.0, bad], [0.0, 1.0]], "a")

    def test_frobenius_norm_inner_consistency(self):
        a = random_general(3, 15)
        assert frobenius_norm(a) == pytest.approx(np.sqrt(np.sum(a * a)))


class TestRandomGeneral:
    def test_deterministic(self):
        assert np.array_equal(random_general(3, 5), random_general(3, 5))

    def test_seeds_differ(self):
        assert not np.array_equal(random_general(3, 5), random_general(3, 6))

    def test_complex_entries(self):
        a = random_general(2, 5, complex_entries=True)
        assert np.iscomplexobj(a)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
    def test_refuses_bad_seeds(self, seed):
        with pytest.raises(InputError, match="seed must be a non-negative integer"):
            random_general(3, seed)

    @pytest.mark.parametrize("n", [0, 2.0, True])
    def test_refuses_bad_sizes(self, n):
        with pytest.raises(InputError, match="n must be a positive integer"):
            random_general(n, 0)

    def test_numpy_integers_accepted(self):
        assert np.array_equal(random_general(np.int64(3), np.int64(5)), random_general(3, 5))

    def test_gives_up_after_100_draws(self, monkeypatch):
        # Every draw singular: the 100th refusal ends the search.
        draws = []

        def singular(a, compute_uv=True):
            draws.append(1)
            return np.zeros(a.shape[0])

        monkeypatch.setattr(np.linalg, "svd", singular)
        with pytest.raises(DegeneracyError, match="no well-conditioned draw for n=3, seed=0"):
            random_general(3, 0)
        assert len(draws) == 100


class TestMatrixJson:
    def test_real_round_trip(self):
        a = random_general(3, 21)
        assert np.array_equal(matrix_from_json(matrix_to_json(a)), a)

    def test_complex_round_trip(self):
        a = random_general(2, 22, complex_entries=True)
        assert np.array_equal(matrix_from_json(matrix_to_json(a)), a)

    def test_rejects_ragged(self):
        with pytest.raises(InputError):
            matrix_from_json({"n": 2, "data": [[1.0, 2.0], [3.0]]})

    def test_rejects_size_mismatch(self):
        with pytest.raises(InputError):
            matrix_from_json({"n": 3, "data": [[1.0, 2.0], [3.0, 4.0]]})

    @pytest.mark.parametrize("entry", ["2.5", " 3 ", True, False, None, [1.0], {"re": 1.0}])
    @pytest.mark.parametrize("form", ["data", "re", "im"])
    def test_rejects_entries_that_are_not_json_numbers(self, entry, form):
        # numpy reads "2.5" and " 3 " as 2.5 and 3.0 and true as 1.0; only
        # JSON numbers are entries.
        obj = {"n": 2, "re": [[1, 2.5], [3, 4]], "im": [[0, 1], [1, 0]]}
        if form == "data":
            obj = {"n": 2, "data": obj["re"]}
        obj[form][1][0] = entry
        with pytest.raises(InputError, match="non-numeric entry"):
            matrix_from_json(obj)

    @pytest.mark.parametrize(
        "obj,message",
        [
            ([[1.0]], "expected an object"),
            ({"data": [[1.0]]}, "missing integer field 'n'"),
            ({"n": 1.0, "data": [[1.0]]}, "missing integer field 'n'"),
            ({"n": True, "data": [[1.0]]}, "missing integer field 'n'"),
            ({"n": 0, "data": []}, "'n' must be positive"),
            ({"n": 1}, "expected 'data' or 're'/'im' fields"),
            ({"n": 1, "re": [[1.0]]}, "expected 'data' or 're'/'im' fields"),
            (json.loads('{"n": 1, "data": [[1e999]]}'), "entries in 'data' must be finite"),
        ],
        ids=["list", "no_n", "float_n", "bool_n", "zero_n", "no_data", "re_only", "1e999"],
    )
    def test_rejects_malformed_objects(self, obj, message):
        with pytest.raises(InputError, match=f"^matrix JSON: {message}"):
            matrix_from_json(obj)

    def test_integer_beyond_a_double_is_not_finite(self):
        with pytest.raises(InputError, match="finite"):
            matrix_from_json({"n": 1, "data": [[10**400]]})

    def test_ints_and_floats_accepted(self):
        a = matrix_from_json({"n": 2, "re": [[1, 2.5], [-3, 0]], "im": [[0, 1], [1e-3, 0]]})
        assert np.array_equal(a, np.array([[1, 2.5], [-3, 0]]) + 1j * np.array([[0, 1], [1e-3, 0]]))
