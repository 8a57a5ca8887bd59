"""Lie algebra bases, membership checks, and the multistart census."""

import tracemalloc

import numpy as np
import pytest

from test_acceptance import _match_sets
from test_orthonear import _graded_inputs

from groupnear import critsearch, orthonear
from groupnear.critsearch import (
    KINDS,
    CriticalPoint,
    GroupSpec,
    _armijo,
    _basis_columns,
    _certify_batch,
    _defects,
    _draw,
    _lie_coordinates,
    _lie_part,
    _merge_representatives,
    _newton_block,
    _System,
    critical_point_from,
    critical_residual,
    embed_complex,
    lie_basis,
    membership_violation,
    multistart_census,
    random_group_element,
    symplectic_form,
)
from groupnear.errors import InputError, UnsupportedError
from groupnear.matcore import frobenius_norm, random_general
from groupnear.orthonear import (
    enumerate_orthogonal_critical,
    enumerate_special_orthogonal_critical,
    enumerate_unitary_critical,
    nearest_orthogonal,
    nearest_special_orthogonal,
    nearest_unitary,
)
from groupnear.slnear import sl_critical_points, sl_plus_critical_points


class TestGroupSpec:
    def test_symplectic_needs_even_size(self):
        with pytest.raises(InputError):
            GroupSpec("symplectic", 3)

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            GroupSpec("borel", 2)

    def test_unitary_embedding_even(self):
        with pytest.raises(InputError):
            GroupSpec("unitary_embedded", 3)

    @pytest.mark.parametrize("n", [2.0, True, "2", 2.5])
    def test_non_integer_size_refused(self, n):
        with pytest.raises(InputError, match="integer"):
            GroupSpec("orthogonal", n)

    def test_numpy_integer_size_stored_as_int(self):
        g = GroupSpec("orthogonal", np.int64(3))
        assert type(g.n) is int and g == GroupSpec("orthogonal", 3)

    def test_hashable_with_one_cached_basis(self):
        a, b = GroupSpec("symplectic", 4), GroupSpec("symplectic", 4)
        assert hash(a) == hash(b)
        assert _basis_columns(a) is _basis_columns(b)
        with pytest.raises(ValueError):
            _basis_columns(a)[0, 0] = 1.0


def _entrywise_basis(g):
    """The Lie basis of g written entry by entry: the tests' reference for
    each Lie algebra, independent of the projection `_lie_part` from which
    the package derives its basis."""
    n, m = g.n, g.n // 2

    def unit(size, *entries):
        b = np.zeros((size, size))
        for i, j, v in entries:
            b[i, j] = v
        return b

    if g.kind in ("orthogonal", "special_orthogonal"):
        return [unit(n, (i, j, 1.0), (j, i, -1.0)) for i in range(n) for j in range(i + 1, n)]
    if g.kind in ("sl", "sl_pm"):
        off = [unit(n, (i, j, 1.0)) for i in range(n) for j in range(n) if i != j]
        return off + [unit(n, (i, i, 1.0), (i + 1, i + 1, -1.0)) for i in range(n - 1)]
    upper = [(i, j) for i in range(m) for j in range(i, m)]
    if g.kind == "symplectic":
        gl = [unit(n, (i, j, 1.0), (m + j, m + i, -1.0)) for i in range(m) for j in range(m)]
        b = [unit(n, (i, m + j, 1.0), (j, m + i, 1.0)) for i, j in upper]
        c = [unit(n, (m + i, j, 1.0), (m + j, i, 1.0)) for i, j in upper]
        return gl + b + c
    skew = [unit(m, (i, j, 1.0), (j, i, -1.0)) for i in range(m) for j in range(i + 1, m)]
    sym = [unit(m, (i, j, 1.0), (j, i, 1.0)) for i, j in upper]
    return [embed_complex(a.astype(complex)) for a in skew] + [embed_complex(1j * b) for b in sym]


def _groups_up_to(top):
    """GroupSpec of every kind at n = 1..top (even n for Sp and U)."""
    return [
        GroupSpec(kind, n)
        for kind in KINDS
        for n in range(1, top + 1)
        if n % 2 == 0 or kind not in ("symplectic", "unitary_embedded")
    ]


class TestLieBasis:
    @pytest.mark.parametrize("g", _groups_up_to(8), ids=lambda g: f"{g.kind}-{g.n}")
    def test_orthonormal_and_spans_the_entrywise_definition(self, g):
        got = np.array([b.ravel() for b in lie_basis(g)]).reshape(-1, g.n * g.n)
        want = np.array([b.ravel() for b in _entrywise_basis(g)]).reshape(-1, g.n * g.n)
        assert got.shape == want.shape
        assert np.abs(got @ got.T - np.eye(len(got))).max(initial=0.0) < 1e-14
        # Every entrywise element lies in the span of the orthonormal basis.
        assert np.abs(want - (want @ got.T) @ got).max(initial=0.0) < 1e-14

    @pytest.mark.parametrize(
        "kind,n,dim",
        [
            ("orthogonal", 2, 1),
            ("orthogonal", 4, 6),
            ("special_orthogonal", 3, 3),
            ("sl", 2, 3),
            ("sl", 3, 8),
            ("sl_pm", 2, 3),
            ("symplectic", 2, 3),
            ("symplectic", 4, 10),
            ("unitary_embedded", 2, 1),
            ("unitary_embedded", 4, 4),
        ],
    )
    def test_dimensions(self, kind, n, dim):
        assert len(lie_basis(GroupSpec(kind, n))) == dim

    def test_rank_matches_count(self):
        for kind in KINDS:
            for n in range(1, 7):
                if kind in ("symplectic", "unitary_embedded") and n % 2:
                    continue
                g = GroupSpec(kind, n)
                basis = lie_basis(g)
                if basis:
                    stacked = np.stack([b.ravel() for b in basis])
                    assert np.linalg.matrix_rank(stacked) == len(basis), f"{kind} n={n}"

    def test_smallest_symplectic_equals_traceless(self):
        # In size two the form-preserving algebra and the traceless
        # algebra are the same space.
        sp = np.stack([b.ravel() for b in lie_basis(GroupSpec("symplectic", 2))])
        sl = np.stack([b.ravel() for b in lie_basis(GroupSpec("sl", 2))])
        both = np.vstack([sp, sl])
        assert np.linalg.matrix_rank(both) == 3

    def test_traceless(self):
        for b in lie_basis(GroupSpec("sl", 3)):
            assert abs(np.trace(b)) < 1e-14


class TestLieProjector:
    """`_lie_part` is the orthogonal projector onto the Lie algebra, which
    the derived basis (`_basis_columns`) relies on."""

    @pytest.mark.parametrize("g", _groups_up_to(8), ids=lambda g: f"{g.kind}-{g.n}")
    def test_symmetric_idempotent_onto_the_entrywise_span(self, g):
        n = g.n
        # Row k is the projection of the k-th matrix unit, row-major.
        p = _lie_part(np.eye(n * n).reshape(n * n, n, n), g).reshape(n * n, n * n)
        assert np.abs(p - p.T).max(initial=0.0) <= 1e-14
        assert np.abs(p @ p - p).max(initial=0.0) <= 1e-14
        want = np.array([b.ravel() for b in _entrywise_basis(g)]).reshape(-1, n * n)
        assert np.linalg.matrix_rank(p) == len(want)
        assert np.abs(want @ p - want).max(initial=0.0) <= 1e-14


class TestSymplecticForm:
    def test_antisymmetric_and_square_to_minus_one(self):
        j = symplectic_form(4)
        assert np.array_equal(j, -j.T)
        assert np.array_equal(j @ j, -np.eye(4))

    def test_odd_size_refused(self):
        with pytest.raises(InputError, match="even n"):
            symplectic_form(3)


class TestEmbedding:
    def test_block_layout(self):
        z = random_general(2, 5, complex_entries=True)
        e = embed_complex(z)
        assert np.array_equal(e, np.block([[z.real, -z.imag], [z.imag, z.real]]))

    def test_multiplicative(self):
        a = random_general(2, 6, complex_entries=True)
        b = random_general(2, 7, complex_entries=True)
        assert np.allclose(embed_complex(a @ b), embed_complex(a) @ embed_complex(b))


class TestMembership:
    @pytest.mark.parametrize(
        "kind,n",
        [
            ("orthogonal", 3),
            ("special_orthogonal", 3),
            ("sl", 3),
            ("sl_pm", 2),
            ("symplectic", 4),
            ("unitary_embedded", 4),
        ],
    )
    def test_random_element_belongs(self, kind, n):
        g = GroupSpec(kind, n)
        x = random_group_element(g, 11)
        assert membership_violation(x, g) < 1e-9

    def test_perturbation_detected(self):
        g = GroupSpec("orthogonal", 3)
        x = random_group_element(g, 12)
        assert membership_violation(x + 0.01, g) > 1e-4

    def test_determinant_constraints(self):
        x = random_group_element(GroupSpec("special_orthogonal", 3), 13)
        assert np.linalg.det(x) == pytest.approx(1.0, abs=1e-9)
        y = random_group_element(GroupSpec("sl", 3), 14)
        assert np.linalg.det(y) == pytest.approx(1.0, abs=1e-9)


class TestComplexInputRefused:
    # The real measures refuse complex input before any work, instead of
    # returning a complex residual or dropping the imaginary part.
    @pytest.mark.parametrize(
        "call",
        [
            lambda: critical_point_from(np.eye(2), [[1, 2j], [0, 1]], GroupSpec("orthogonal", 2)),
            lambda: critical_residual(np.eye(2), 1j * np.eye(2), GroupSpec("orthogonal", 2)),
            lambda: critical_residual(1j * np.eye(2), np.eye(2), GroupSpec("orthogonal", 2)),
            lambda: membership_violation(1j * np.eye(2), GroupSpec("orthogonal", 2)),
        ],
        ids=["point_complex_u", "residual_complex_u", "residual_complex_x", "membership_complex_x"],
    )
    def test_refused_before_any_work(self, monkeypatch, call):
        def heavy(*args, **kwargs):
            raise AssertionError("work started before the input check")

        for name in ("_certify_batch", "_residuals", "_violations"):
            monkeypatch.setattr(critsearch, name, heavy)
        with pytest.raises(InputError, match="embed_complex"):
            call()

    # A complex m x m x is a point of U(m), embedded as unitary_embedded 2m;
    # certified against any other group, it is refused before any work.
    @pytest.mark.parametrize(
        "g",
        [GroupSpec("orthogonal", 3), GroupSpec("sl", 2), GroupSpec("unitary_embedded", 6)],
        ids=["orthogonal-3", "sl-2", "unitary_embedded-6"],
    )
    def test_complex_x_refused_off_its_unitary_group(self, monkeypatch, g):
        z = random_general(2, 0, complex_entries=True)
        x = nearest_unitary(z).x

        def heavy(*args, **kwargs):
            raise AssertionError("work started before the group check")

        monkeypatch.setattr(critsearch, "_certify_batch", heavy)
        with pytest.raises(InputError, match="needs unitary_embedded 4"):
            critical_point_from(x, z, g)

    def test_complex_x_accepted_on_its_unitary_group(self):
        z = random_general(2, 0, complex_entries=True)
        point = nearest_unitary(z)
        assert _fields(critical_point_from(point.x, z, GroupSpec("unitary_embedded", 4))) == _fields(point)


class TestSizeMismatchRefused:
    # x, u and the group must have one size; a mismatch is refused before
    # any work.
    @pytest.mark.parametrize(
        "call",
        [
            lambda: critical_residual(np.eye(2), np.eye(3), GroupSpec("orthogonal", 2)),
            lambda: membership_violation(np.eye(3), GroupSpec("orthogonal", 2)),
            lambda: critical_residual(np.eye(3), np.eye(3), GroupSpec("orthogonal", 2)),
            lambda: critical_point_from(np.eye(3), np.eye(3), GroupSpec("orthogonal", 2)),
        ],
        ids=["x_and_u", "membership", "residual_group", "point_group"],
    )
    def test_refused_before_any_work(self, monkeypatch, call):
        def heavy(*args, **kwargs):
            raise AssertionError("work started before the size check")

        for name in ("_certify_batch", "_residuals", "_violations"):
            monkeypatch.setattr(critsearch, name, heavy)
        with pytest.raises(InputError, match="size mismatch"):
            call()


class TestCriticalPointFrom:
    def test_residual_zero_at_true_point(self):
        u = random_general(2, 20)
        point = enumerate_orthogonal_critical(u)[0]
        again = critical_point_from(point.x, u, GroupSpec("orthogonal", 2))
        assert again.residual < 1e-10
        assert again.distance_sq == pytest.approx(point.distance_sq)

    def test_residual_positive_off_critical(self):
        u = random_general(2, 21)
        x = random_group_element(GroupSpec("orthogonal", 2), 22)
        assert critical_residual(x, u, GroupSpec("orthogonal", 2)) > 1e-4


_ALL_KINDS = [
    ("orthogonal", 3),
    ("special_orthogonal", 3),
    ("sl", 3),
    ("sl_pm", 3),
    ("symplectic", 4),
    ("unitary_embedded", 4),
]


def _draws_and_perturbed(g, count=5, eps=1e-3):
    """count group elements and a perturbed copy of each, stacked."""
    rng = np.random.default_rng(3)
    draws = np.stack([random_group_element(g, s) for s in range(count)])
    return np.concatenate([draws, draws + eps * rng.standard_normal(draws.shape)])


def _explicit_residual(x, u, g):
    """Projection of x^t (u - x) onto the span of the entrywise Lie basis
    (least squares), plus the defining-equation violation written out per
    kind."""
    cols = np.stack([b.ravel() for b in _entrywise_basis(g)], axis=1)
    m = (x.T @ (u - x)).ravel()
    coef, *_ = np.linalg.lstsq(cols, m, rcond=None)
    lie = np.linalg.norm(cols @ coef)
    n = g.n
    gram = np.linalg.norm(x.T @ x - np.eye(n))
    d = np.linalg.det(x)
    if g.kind == "orthogonal":
        member = gram
    elif g.kind == "special_orthogonal":
        member = gram + abs(d - 1.0)
    elif g.kind == "sl":
        member = abs(d - 1.0)
    elif g.kind == "sl_pm":
        member = abs(abs(d) - 1.0)
    elif g.kind == "symplectic":
        j = symplectic_form(n)
        member = np.linalg.norm(x.T @ j @ x - j)
    else:
        # U = O ∩ Sp.  On O(n), |x^t J x - J| = |x K - K x|, K the complex structure.
        j = symplectic_form(n)
        member = gram + np.linalg.norm(x.T @ j @ x - j)
    return lie + member


def _fields(p):
    return (p.x.tobytes(), p.distance_sq, p.det_sign, p.residual, p.c)


def _phase_qr(a):
    """Q of a = QR with R's diagonal made real positive."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _reference_draw(g, rng):
    """One start as the per-start draw made it before draws were batched
    (its retry loop dropped: no draw is ever refused)."""
    n = g.n
    if g.kind in ("orthogonal", "special_orthogonal"):
        q = _phase_qr(rng.uniform(-1.0, 1.0, (n, n)))
        if g.kind == "special_orthogonal" and np.linalg.det(q) < 0.0:
            q[:, -1] *= -1.0
        return q
    if g.kind in ("sl", "sl_pm"):
        a = rng.uniform(-1.0, 1.0, (n, n))
        d = np.linalg.det(a)
        a = a / abs(d) ** (1.0 / n)
        if g.kind == "sl" and d < 0.0:
            a[:, 0] *= -1.0
        return a
    # unitary, and symplectic through its compact part U(m)
    m = n // 2
    z = rng.uniform(-1.0, 1.0, (m, m)) + 1j * rng.uniform(-1.0, 1.0, (m, m))
    return embed_complex(_phase_qr(z))


class TestDraw:
    @pytest.mark.parametrize("kind,n", _ALL_KINDS)
    def test_batch_equals_single_draws_bitwise(self, kind, n):
        g = GroupSpec(kind, n)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            single = np.stack([_reference_draw(g, rng) for _ in range(50)])
            batch = _draw(g, np.random.default_rng(seed), 50)
            assert batch.tobytes() == single.tobytes(), f"{kind} seed={seed}"
            prefix = _draw(g, np.random.default_rng(seed), 20)
            assert prefix.tobytes() == batch[:20].tobytes()
            assert random_group_element(g, seed).tobytes() == batch[0].tobytes()

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_single_draw_refuses_bad_seeds(self, seed):
        with pytest.raises(InputError, match="seed must be a non-negative integer"):
            random_group_element(GroupSpec("sl", 3), seed)


class TestSystem:
    @pytest.mark.parametrize("kind,n", _ALL_KINDS)
    def test_jacobian_matches_central_differences(self, kind, n):
        g = GroupSpec(kind, n)
        sys_ = _System(random_general(n, 5), g)
        x = _draws_and_perturbed(g, count=3)
        jac = sys_.jacobian(x)
        h = 1e-6
        for k in range(n * n):
            step = np.zeros(n * n)
            step[k] = h
            step = step.reshape(n, n)
            diff = (sys_.residual(x + step) - sys_.residual(x - step)) / (2.0 * h)
            assert np.max(np.abs(diff - jac[:, :, k])) < 1e-7 * (1.0 + np.max(np.abs(jac))), f"entry {k}"

    @pytest.mark.parametrize("kind,n", _ALL_KINDS)
    def test_residual_along_a_step_is_its_polynomial_expansion(self, kind, n):
        # Every row but det is quadratic in x, so along x + a d it is
        # f + a J d + a^2 q; det(x + a d) is det(x) sum_k a^k e_k.
        g = GroupSpec(kind, n)
        sys_ = _System(random_general(n, 6), g)
        x = _draws_and_perturbed(g, count=3)
        d = np.random.default_rng(4).normal(size=x.shape)
        f, jac = sys_.residual(x), sys_.jacobian(x)
        p = sys_.poly_rows
        lin = np.einsum("brk,bk->br", jac[:, :p], d.reshape(len(x), -1))
        quad = sys_.quadratic(d)
        for j in range(30):
            a = 2.0**-j
            want = sys_.residual(x + a * d)
            got = f[:, :p] + a * lin + a * a * quad
            if sys_.has_det:
                dets = sys_.det_polynomial(x, d) @ a ** np.arange(n + 1)
                target = np.sign(dets) if kind == "sl_pm" else 1.0
                got = np.concatenate([got, (dets - target)[:, None]], axis=1)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want))), f"j={j}"


class TestOneEquationSet:
    # U(m) is O(2m) ∩ Sp(2m): it has the equations of both and no others.
    @pytest.mark.parametrize("m", [2, 3])
    def test_unitary_violation_is_orthogonal_plus_symplectic_bitwise(self, m):
        n = 2 * m
        for x in _draws_and_perturbed(GroupSpec("unitary_embedded", n)):
            o = membership_violation(x, GroupSpec("orthogonal", n))
            sp = membership_violation(x, GroupSpec("symplectic", n))
            assert membership_violation(x, GroupSpec("unitary_embedded", n)) == o + sp

    @pytest.mark.parametrize("m", [2, 3])
    def test_unitary_lie_part_is_symplectic_part_of_orthogonal_part_bitwise(self, m):
        n = 2 * m
        xs = _draws_and_perturbed(GroupSpec("unitary_embedded", n))
        mats = np.matmul(np.swapaxes(xs, 1, 2), random_general(n, 12)[None] - xs)
        want = _lie_part(_lie_part(mats.copy(), GroupSpec("orthogonal", n)), GroupSpec("symplectic", n))
        assert _lie_part(mats, GroupSpec("unitary_embedded", n)).tobytes() == want.tobytes()

    def test_sl_pm_det_row_at_singular_x(self):
        # The census det row and the certifier read one det rule, so a
        # singular x is off SL^pm by 1 in both.
        g = GroupSpec("sl_pm", 2)
        x = np.array([[1.0, 2.0], [2.0, 4.0]])
        row = _System(random_general(2, 0), g).residual(x[None])[0, -1]
        assert row == -1.0
        assert abs(row) == membership_violation(x, g) == 1.0


class TestCertifyBatch:
    @pytest.mark.parametrize("kind,n", _ALL_KINDS)
    def test_rows_equal_one_row_certification_bitwise(self, kind, n):
        g = GroupSpec(kind, n)
        xs = _draws_and_perturbed(g)
        u = random_general(n, 7)
        batch = _certify_batch(xs, u, g)
        assert len(batch) == len(xs)
        for x, p in zip(xs, batch):
            assert _fields(p) == _fields(critical_point_from(x, u, g))

    def test_complex_rows_equal_one_row_certification_bitwise(self):
        g = GroupSpec("unitary_embedded", 6)
        # The C-linear part a + ib of each embedded draw [[a, -b], [b, a]].
        xs = np.stack([0.5 * (x[:3, :3] + x[3:, 3:]) + 0.5j * (x[3:, :3] - x[:3, 3:]) for x in _draws_and_perturbed(g)])
        u = random_general(3, 8, complex_entries=True)
        batch = _certify_batch(xs, u, g, c=[float(i) for i in range(len(xs))])
        for i, (x, p) in enumerate(zip(xs, batch)):
            assert _fields(p) == _fields(critical_point_from(x, u, g, c=float(i)))
            assert p.det_sign == 1
            assert p.distance_sq == pytest.approx(2.0 * np.sum(np.abs(u - x) ** 2), rel=1e-14)

    @pytest.mark.parametrize("kind,n", [("orthogonal", 12), ("unitary_embedded", 14)])
    def test_identity_form_defect_has_the_bits_of_the_explicit_product(self, kind, n):
        # x^t (I x) - I without forming I x; x^t x on one buffer would go to
        # syrk, whose sums differ from gemm's at these sizes.
        xs = _draws_and_perturbed(GroupSpec(kind, n))
        eye = np.eye(n)
        expected = np.matmul(np.swapaxes(xs, 1, 2), np.matmul(eye, xs)) - eye
        assert np.array_equal(_defects(xs, GroupSpec(kind, n))[0][0], expected)

    @pytest.mark.parametrize("kind,n", _ALL_KINDS)
    def test_residual_matches_explicit_formula(self, kind, n):
        g = GroupSpec(kind, n)
        u = random_general(n, 9)
        for x in _draws_and_perturbed(g):
            assert critical_residual(x, u, g) == pytest.approx(_explicit_residual(x, u, g), rel=1e-14)


class TestCriticalPointRecord:
    def test_field_names_and_order(self):
        assert CriticalPoint._fields == ("x", "distance_sq", "det_sign", "residual", "c")
        p = CriticalPoint(np.eye(2), 1.5, -1, 1e-16, 0.25)
        assert tuple(p)[1:] == (p.distance_sq, p.det_sign, p.residual, p.c) == (1.5, -1, 1e-16, 0.25)
        assert p[0] is p.x

    def test_c_defaults_to_none(self):
        assert CriticalPoint(np.eye(2), 0.0, 1, 0.0).c is None
        assert nearest_orthogonal(random_general(3, 0)).c is None

    @pytest.mark.parametrize("field", ["x", "distance_sq", "det_sign", "residual", "c"])
    def test_fields_cannot_be_assigned(self, field):
        p = nearest_orthogonal(random_general(3, 0))
        with pytest.raises(AttributeError):
            setattr(p, field, None)

    @pytest.mark.parametrize(
        "solve,n",
        [
            (enumerate_orthogonal_critical, 3),
            (enumerate_orthogonal_critical, 12),
            (enumerate_special_orthogonal_critical, 6),
            (sl_critical_points, 3),
            (sl_plus_critical_points, 4),
        ],
    )
    def test_distance_is_the_squared_difference_bitwise(self, solve, n):
        # The certifier squares one difference stack in place; each row must
        # read as the plain sum over that one point.
        u = random_general(n, 4)
        points = solve(u)
        assert points
        for p in points:
            assert p.distance_sq == np.sum(np.abs(u - p.x) ** 2)

    @pytest.mark.parametrize("m", [2, 5])
    def test_complex_distance_is_twice_the_squared_difference_bitwise(self, m):
        u = random_general(m, 5, complex_entries=True)
        for p in enumerate_unitary_critical(u) + [nearest_unitary(u)]:
            assert p.distance_sq == 2.0 * np.sum(np.abs(u - p.x) ** 2)


class TestLieProjection:
    # The certifier projects x^t (u - x) onto the Lie algebra by formula;
    # the census keeps coordinates in the orthonormal basis.  Both must
    # measure the same component.
    @pytest.mark.parametrize("kind,n", _ALL_KINDS)
    def test_projection_norm_equals_basis_coordinate_norm(self, kind, n):
        g = GroupSpec(kind, n)
        u = random_general(n, 11)
        xs = _draws_and_perturbed(g)
        coords = _lie_coordinates(xs, u, g)
        m = np.matmul(np.swapaxes(xs, 1, 2), u[None, :, :] - xs)
        part = _lie_part(m.copy(), g)
        scale = np.linalg.norm(m.reshape(len(m), -1), axis=1)
        assert np.linalg.norm(part.reshape(len(m), -1), axis=1) == pytest.approx(
            np.linalg.norm(coords, axis=1), abs=1e-14 * scale.max()
        )
        # The projection is idempotent: it lands in the algebra.
        assert np.allclose(_lie_part(part.copy(), g), part, rtol=0.0, atol=1e-14 * scale.max())

    @pytest.mark.parametrize(
        "nearest,complex_entries",
        [(nearest_orthogonal, False), (nearest_special_orthogonal, False), (nearest_unitary, True)],
        ids=["orthogonal", "special_orthogonal", "unitary"],
    )
    def test_nearest_builds_no_sign_table_or_lie_basis(self, monkeypatch, nearest, complex_entries):
        # Nearest sizes have no limit: at n = 40 the sign table would have
        # 2^40 rows and the Lie basis (n^2, k) about 10 MB; neither is built.
        def must_not_run(*args, **kwargs):
            raise AssertionError("a nearest query built a size-limited table")

        monkeypatch.setattr(orthonear, "_sign_table", must_not_run)
        monkeypatch.setattr(critsearch, "_basis_columns", must_not_run)
        point = nearest(random_general(40, 0, complex_entries=complex_entries))
        assert point.residual < 1e-10
        assert point.det_sign == 1 or nearest is nearest_orthogonal


class TestCensus:
    def test_finds_all_orthogonal_points(self):
        u = random_general(2, 30)
        census = multistart_census(u, GroupSpec("orthogonal", 2), starts=400, seed=0)
        expected = sorted(p.distance_sq for p in enumerate_orthogonal_critical(u))
        got = sorted(p.distance_sq for p in census)
        assert np.allclose(got, expected, atol=1e-6)

    @pytest.mark.parametrize("s", [0.5, -2.0, 1.0, -0.5])
    def test_sl_pm_at_n_1_matches_the_closed_form(self, s):
        # SL^pm(1) = {1, -1}; half the biased starts 0.5 (+-1 + sign s)
        # are exactly 0, where the det row has no gradient: they fail.
        census = multistart_census(np.array([[s]]), GroupSpec("sl_pm", 1))
        expected = sl_critical_points([[s]])
        assert [(p.x.item(), p.c) for p in census] == [(p.x.item(), p.c) for p in expected]
        assert 0 < census.failed < census.attempted == census.converged + census.failed == 1000

    def test_deterministic(self):
        u = random_general(2, 31)
        g = GroupSpec("sl", 2)
        a = multistart_census(u, g, starts=300, seed=5)
        b = multistart_census(u, g, starts=300, seed=5)
        assert len(a) == len(b)
        for p, q in zip(a, b):
            assert np.array_equal(p.x, q.x)

    def test_more_starts_never_lose_points(self):
        u = random_general(2, 32)
        g = GroupSpec("sl_pm", 2)
        few = multistart_census(u, g, starts=100, seed=1)
        many = multistart_census(u, g, starts=800, seed=1)
        assert len(many) >= len(few)

    def test_diagnostics_accounting(self):
        u = random_general(2, 33)
        census = multistart_census(u, GroupSpec("orthogonal", 2), starts=200, seed=2)
        assert census.attempted == 200
        assert census.converged + census.failed == census.attempted
        assert census.stalled + census.budget == census.failed
        assert census.merge_radius == 1e-5 * (1.0 + frobenius_norm(u))
        assert census.worst_residual == max(p.residual for p in census)
        assert 1 <= census.sweeps <= 200
        assert census[0] is census.points[0] and census[-1:] == census.points[-1:]

    def test_residuals_small(self):
        u = random_general(2, 34)
        census = multistart_census(u, GroupSpec("symplectic", 2), starts=300, seed=3)
        assert len(census) >= 1
        for p in census:
            assert p.residual < 1e-9

    def test_census_with_no_converged_start_is_empty(self):
        # At this scale every start stops above the absolute acceptance
        # 1e-9, so the certificate after the sweeps runs on no row.
        census = multistart_census(1e8 * random_general(2, 0), GroupSpec("orthogonal", 2), starts=10, seed=0)
        assert len(census) == census.converged == 0 and census.failed == 10
        assert census.worst_residual is None

    def test_converged_starts_off_the_group_are_rejected(self, monkeypatch):
        # SO's census runs O's system, whose roots include O's det -1
        # critical points.  With every start drawn on the det -1 component,
        # the starts converge there, and the certificate on SO rejects each
        # one.
        draw, flip = critsearch._draw, np.diag([-1.0, 1.0, 1.0])
        monkeypatch.setattr(critsearch, "_draw", lambda g, rng, count: flip @ draw(g, rng, count))
        census = multistart_census(random_general(3, 0), GroupSpec("special_orthogonal", 3), starts=50, seed=0)
        assert census.sweeps < 200  # the starts converged on O's system
        assert len(census) == census.converged == 0 and census.failed == 50

    @pytest.mark.parametrize("kind", ["special_orthogonal", "unitary_embedded"])
    def test_matches_closed_form(self, kind):
        # SO(3) has the four det +1 points of O(3); U(2) embedded has 2^2.
        g = GroupSpec(kind, 3 if kind == "special_orthogonal" else 4)
        for seed in range(5):
            if kind == "special_orthogonal":
                u = random_general(3, seed)
                want = [p.x for p in enumerate_orthogonal_critical(u) if p.det_sign == 1]
            else:
                z = random_general(2, seed, complex_entries=True)
                u = embed_complex(z)
                want = [embed_complex(p.x) for p in enumerate_unitary_critical(z)]
            got = [p.x for p in multistart_census(u, g, starts=200, seed=seed)]
            assert _match_sets(got, want, 1e-5 * (1.0 + frobenius_norm(u))), f"seed={seed}"

    def test_public_embed_complex_runs_the_unitary_census(self):
        # The real-input refusals send a complex u to `embed_complex`, so the
        # package exports it; the README's U(2) census on embed_complex(z)
        # finds the closed-form points, embedded.
        import groupnear

        z = np.array([[2.0 + 1.0j, 0.5], [0.3j, 1.0 - 0.5j]])
        u = groupnear.embed_complex(z)
        got = groupnear.multistart_census(u, GroupSpec("unitary_embedded", 4), starts=1000, seed=0)
        want = [groupnear.embed_complex(p.x) for p in enumerate_unitary_critical(z)]
        assert len(want) == 4
        assert _match_sets([p.x for p in got], want, 1e-9 * (1.0 + frobenius_norm(u)))

    def test_refuses_complex_data_and_fractional_starts(self):
        g = GroupSpec("unitary_embedded", 2)
        with pytest.raises(InputError):
            multistart_census(np.array([[1.0 + 0.5j, 0.0], [0.0, 1.0]]), g, starts=10)
        with pytest.raises(InputError):
            multistart_census(np.eye(2), g, starts=2.5)
        with pytest.raises(InputError):
            multistart_census(np.eye(2), g, starts=True)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_refuses_negative_and_non_integer_seeds(self, seed):
        with pytest.raises(InputError, match="seed"):
            multistart_census(np.eye(2), GroupSpec("sl", 2), starts=10, seed=seed)

    @pytest.mark.parametrize("kind", KINDS)
    def test_size_past_cap_refused_before_the_draw(self, monkeypatch, kind):
        # n = 12 would cache about n^6 doubles (24 MB) and take minutes at
        # 1000 starts; n = 10, the cap, reaches the draw.
        def refuse(*args):
            raise RuntimeError("the starts were drawn")

        monkeypatch.setattr(critsearch, "_draw", refuse)
        with pytest.raises(UnsupportedError, match="n <= 10, got 12"):
            multistart_census(random_general(12, 0), GroupSpec(kind, 12))
        with pytest.raises(RuntimeError, match="the starts were drawn"):
            multistart_census(random_general(10, 0), GroupSpec(kind, 10))

    def test_starts_past_cap_refused_before_the_draw(self, monkeypatch):
        # The draw, the frozen points and the residual rows grow with starts:
        # past the cap (the CLI's --starts limit) the census is refused.
        def refuse(*args):
            raise RuntimeError("the starts were drawn")

        cap = critsearch._MAX_STARTS
        monkeypatch.setattr(critsearch, "_draw", refuse)
        with pytest.raises(UnsupportedError, match=f"starts <= {cap}, got {cap + 1}"):
            multistart_census(random_general(2, 0), GroupSpec("sl", 2), starts=cap + 1)
        with pytest.raises(RuntimeError, match="the starts were drawn"):
            multistart_census(random_general(2, 0), GroupSpec("sl", 2), starts=cap)

    @pytest.mark.parametrize(
        "u,n,error,message",
        [
            (np.eye(2) + 0.5j, 2, InputError, "real"),
            (np.eye(2), 3, InputError, "size mismatch"),
            (random_general(12, 0), 12, UnsupportedError, "n <= 10, got 12"),
        ],
        ids=["complex input", "size mismatch", "size past cap"],
    )
    def test_starts_cap_checked_after_input_and_size(self, u, n, error, message):
        # Too many starts on a bad input or an oversized group reports the
        # first fault: the input checks and the n cap come before the starts cap.
        with pytest.raises(error, match=message):
            multistart_census(u, GroupSpec("sl", n), starts=critsearch._MAX_STARTS + 1)

    def test_late_converger_kept(self):
        # One of the 59 points of this census is reached by a single start
        # (start 48), at sweep 126, after 110 sweeps in which its residual
        # fell by under 0.5 % per sweep (1.112 at sweep 7 to 1.105 at sweep
        # 117): a start that gains little over many sweeps can still
        # converge, so no stagnation stop may drop it.  The prefix of 48
        # starts lacks the point.
        u, g = random_general(6, 8), GroupSpec("orthogonal", 6)
        census = multistart_census(u, g, starts=300, seed=8)
        assert len(census) == 59
        assert census.worst_residual < 1e-9
        assert len(multistart_census(u, g, starts=48, seed=8)) == len(multistart_census(u, g, starts=49, seed=8)) - 1

    # Sp(2) and SL(2) are the same group.  On these seeds one of the two
    # points lies near -I (trace -1.7 to -1.95).
    @pytest.mark.parametrize("seed", [9, 14, 43, 45, 46, 50, 73, 74, 76, 82, 84, 93, 97, 99])
    def test_sp2_census_equals_sl2_census(self, seed):
        u = random_general(2, seed)
        sp = [p.x for p in multistart_census(u, GroupSpec("symplectic", 2), starts=1000, seed=seed)]
        sl = [p.x for p in multistart_census(u, GroupSpec("sl", 2), starts=1000, seed=seed)]
        assert _match_sets(sp, sl, 1e-5 * (1.0 + frobenius_norm(u)))

    @pytest.mark.parametrize("seed", [11, 15, 19, 22, 30, 31, 39])
    def test_sp4_census_reaches_every_point(self, seed):
        census = multistart_census(random_general(4, seed), GroupSpec("symplectic", 4), starts=1000, seed=seed)
        assert len(census) == 4
        assert census.worst_residual < 1e-9

    @pytest.mark.parametrize("kind,n", [("symplectic", 4), ("special_orthogonal", 4), ("unitary_embedded", 4)])
    def test_compact_starts_are_the_draw(self, kind, n, monkeypatch):
        # Sp, SO and U start from the draw itself, on the group.
        g = GroupSpec(kind, n)
        starts = _first_residual_input(monkeypatch, random_general(n, 3), g, starts=9, seed=3)
        assert starts.tobytes() == critsearch._draw(g, np.random.default_rng(3), 9).tobytes()

    @pytest.mark.parametrize("kind,n", [("orthogonal", 4), ("sl", 3), ("sl_pm", 3)])
    def test_even_starts_are_pulled(self, kind, n, monkeypatch):
        # O pulls every other start halfway toward the identity of its
        # draw's component, diag(det sign, 1, ..., 1); SL and SL^± toward u
        # put on the group by `_unit_det`.  The odd starts are the draw.
        u, g = random_general(n, 3), GroupSpec(kind, n)
        starts = _first_residual_input(monkeypatch, u, g, starts=9, seed=3)
        draw = critsearch._draw(g, np.random.default_rng(3), 9)
        if kind == "orthogonal":
            anchor = np.stack([np.diag([np.sign(np.linalg.det(q))] + [1.0] * (n - 1)) for q in draw[0::2]])
        else:
            anchor = critsearch._unit_det(u[None].copy(), kind)
        assert starts[0::2].tobytes() == (0.5 * (draw[0::2] + anchor)).tobytes()
        assert starts[1::2].tobytes() == draw[1::2].tobytes()

    @pytest.mark.parametrize(
        "kind,n", [("symplectic", 4), ("sl_pm", 3), ("symplectic", 2), ("orthogonal", 3), ("unitary_embedded", 4)]
    )
    def test_larger_census_contains_smaller_bitwise(self, kind, n):
        # A start's trajectory must not depend on the other starts in the
        # batch, so every point of a 100-start census is, byte for byte, a
        # point of the 800-start census on the same seed.
        g = GroupSpec(kind, n)
        for seed in range(6):
            u = random_general(n, seed)
            few = multistart_census(u, g, starts=100, seed=seed)
            many = {p.x.tobytes() for p in multistart_census(u, g, starts=800, seed=seed)}
            for p in few:
                assert p.x.tobytes() in many, f"{kind} n={n} seed={seed}"


def _first_residual_input(monkeypatch, u, g, starts, seed):
    """The stack of starts of a census: the first input of `_System.residual`."""
    seen = []
    residual = critsearch._System.residual

    def record(self, x):
        if not seen:
            seen.append(x.copy())
        return residual(self, x)

    monkeypatch.setattr(critsearch._System, "residual", record)
    multistart_census(u, g, starts=starts, seed=seed)
    return seen[0]


def _closed_form_points(kind, n, seed):
    """(u, the closed-form critical points) on random_general(n, seed): real
    or, for U, complex entries, embedded."""
    if kind == "unitary_embedded":
        z = random_general(n // 2, seed, complex_entries=True)
        return embed_complex(z), [embed_complex(p.x) for p in enumerate_unitary_critical(z)]
    u = random_general(n, seed)
    points = enumerate_orthogonal_critical(u)
    return u, [p.x for p in points if kind == "orthogonal" or p.det_sign == 1]


def _oracle_hits(census, want, label) -> int:
    """How many of the points want lie within the census's merge radius of
    a census point; asserts that every census point is one of them."""
    got = np.stack([p.x for p in census])
    dist = np.linalg.norm(got[:, None] - np.stack(want)[None], axis=(2, 3))
    assert np.all(dist.min(axis=1) <= census.merge_radius), label
    return int(np.sum(dist.min(axis=0) <= census.merge_radius))


class TestCompactCensusIndependence:
    # The census is the oracle the closed forms are checked against, so on
    # O, SO and U it must not start from their answer: it reads no singular
    # frame of u, whose polar factor is the closed-form nearest point.
    @pytest.mark.parametrize("kind,n", [("orthogonal", 3), ("special_orthogonal", 3), ("unitary_embedded", 4)])
    def test_runs_without_svd(self, kind, n, monkeypatch):
        u, want = _closed_form_points(kind, n, 0)

        def no_svd(*args, **kwargs):
            raise AssertionError("the census took an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        got = [p.x for p in multistart_census(u, GroupSpec(kind, n), starts=200, seed=0)]
        assert _match_sets(got, want, 1e-5 * (1.0 + frobenius_norm(u)))

    # Every point at 100 starts, census seed = input seed, on inputs where
    # the census pulled toward the polar factor found 13-15 of O(4)'s 16
    # points, 7 of SO(4)'s 8 and 7 of U(3)'s 8.
    @pytest.mark.parametrize(
        "kind,n,seed",
        [("orthogonal", 4, s) for s in (0, 1, 2, 4, 6, 7, 17, 18)]
        + [("special_orthogonal", 4, s) for s in (0, 7, 12, 15)]
        + [("unitary_embedded", 6, s) for s in (2, 8, 19)],
    )
    def test_recall_at_100_starts(self, kind, n, seed):
        u, want = _closed_form_points(kind, n, seed)
        got = [p.x for p in multistart_census(u, GroupSpec(kind, n), starts=100, seed=seed)]
        assert len(want) == {"orthogonal": 16, "special_orthogonal": 8, "unitary_embedded": 8}[kind]
        assert _match_sets(got, want, 1e-5 * (1.0 + frobenius_norm(u)))

    # U's recall over many inputs, census seed = input seed: how many of
    # the 2^m closed-form points the census finds.  The floors are the
    # measured counts (the same with U's equations as the forms I and J and
    # as a commutator with the complex structure); they are never lowered.
    @pytest.mark.parametrize("m,starts,seeds,floor", [(3, 100, 40, 319), (4, 300, 8, 124)])
    def test_unitary_recall_floor(self, m, starts, seeds, floor):
        g = GroupSpec("unitary_embedded", 2 * m)
        found = 0
        for seed in range(seeds):
            u, want = _closed_form_points(g.kind, g.n, seed)
            census = multistart_census(u, g, starts=starts, seed=seed)
            found += _oracle_hits(census, want, f"seed={seed}")
        assert found >= floor, f"{found} of {seeds * 2**m} points"

    # U's census on a u that is not C-linear runs O's system on u's
    # C-linear part, z = (a + d)/2 + i (c - b)/2 for u = [[a, b], [c, d]]:
    # U's critical points for u are the closed-form points of z, each
    # certified against u itself.  100 starts, seeds 0-29; the floors are
    # the counts of the census that ran U's own equations on u.
    @pytest.mark.parametrize("m,floor", [(2, 120), (3, 238)])
    def test_unitary_census_of_a_general_u(self, m, floor):
        g = GroupSpec("unitary_embedded", 2 * m)
        found = 0
        for seed in range(30):
            u = random_general(2 * m, seed)
            (a, b), (c, d) = (np.hsplit(half, 2) for half in np.vsplit(u, 2))
            z = (a + d) / 2 + 1j * (c - b) / 2
            census = multistart_census(u, g, starts=100, seed=seed)
            assert census.worst_residual <= 1e-9, f"seed={seed}"
            found += _oracle_hits(census, [embed_complex(p.x) for p in enumerate_unitary_critical(z)], f"seed={seed}")
        assert found >= floor, f"{found} of {30 * 2**m} points"


class TestNewtonRecall:
    # Recall of every census kind on the Newton step (`_recall`).  The
    # floors are the counts that the census found on each grid before the
    # Newton step: all 8 SL^± points and all 4 SL points of each n = 3
    # input; for O and SO, closed-form points; and for Sp, which has no
    # oracle, the distinct converged points.  They are never lowered.
    @pytest.mark.parametrize(
        "kind,n,starts,seeds,floor",
        [
            ("sl_pm", 3, 100, 80, 640),
            ("sl", 3, 100, 80, 320),
            ("symplectic", 4, 50, 120, 484),
            ("symplectic", 6, 100, 20, 158),
            ("orthogonal", 4, 100, 80, 1241),
            ("orthogonal", 5, 100, 40, 1090),
            ("special_orthogonal", 5, 100, 30, 460),
            ("special_orthogonal", 6, 100, 20, 529),
        ],
    )
    def test_recall_floor(self, kind, n, starts, seeds, floor):
        found = _recall(kind, n, starts, seeds)
        assert found >= floor, f"{found} points, floor {floor}"

    # On u = 5 random_general(3, seed), 300 starts, seeds 0-39, the census
    # found 323 of the 372 SL^± points and 179 of the 192 SL points.
    @pytest.mark.parametrize("kind,floor", [("sl_pm", 323), ("sl", 179)])
    def test_recall_floor_at_scale_5(self, kind, floor):
        found = _recall(kind, 3, 300, 40, scale=5.0)
        assert found >= floor, f"{found} points, floor {floor}"


def _recall(kind, n, starts, seeds, scale=1.0) -> int:
    """Oracle points the census finds, census seed = input seed, over seeds
    0 .. seeds - 1: closed-form points for O and SO, `sl_critical_points`
    for SL^± and `sl_plus_critical_points` for SL on scale
    random_general(n, seed), and for Sp the distinct converged points.
    Asserts that every census point is an oracle point where there is one."""
    oracle = {"sl_pm": sl_critical_points, "sl": sl_plus_critical_points}.get(kind)
    g = GroupSpec(kind, n)
    found = 0
    for seed in range(seeds):
        if kind in ("orthogonal", "special_orthogonal"):
            u, want = _closed_form_points(kind, n, seed)
        else:
            u = scale * random_general(n, seed)
            want = None if oracle is None else [p.x for p in oracle(u)]
        census = multistart_census(u, g, starts=starts, seed=seed)
        assert census.worst_residual < 1e-9, f"seed={seed}"
        found += len(census) if want is None else _oracle_hits(census, want, f"seed={seed}")
    return found


def _union_find_representatives(points, radius):
    """Reference single linkage: lowest index of each cluster, ascending."""
    parent = list(range(len(points)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if np.sum((points[i] - points[j]) ** 2) <= radius * radius:
                parent[root(i)] = root(j)
    lowest = {}
    for i in range(len(points)):
        lowest.setdefault(root(i), i)
    return sorted(lowest.values())


class TestMerge:
    def test_chain_links_transitively(self):
        # Rows 0 and 1 are 1.8 radius apart, linked only through row 2.
        r = 1e-5
        direction = np.ones(16) / 4.0
        flat = np.stack([np.zeros(16), 1.8 * r * direction, 0.9 * r * direction]) + 0.3
        assert list(_merge_representatives(flat, r)) == [0]

    def test_far_clusters_keep_lowest_index(self):
        r = 1e-5
        a, b = np.full(16, 0.5), np.full(16, -0.5)
        offsets = 0.2 * r * np.eye(16)
        flat = np.stack([b, a, b + offsets[0], a + offsets[1], a + offsets[2]])
        assert list(_merge_representatives(flat, r)) == [0, 1]

    def test_matches_reference_union_find(self):
        rng = np.random.default_rng(7)
        r = 1e-3
        for _ in range(5):
            # Random walks with steps near the radius: clusters that are
            # chains, some of them broken where a step exceeds it.
            walks = []
            for centre in rng.uniform(-1.0, 1.0, (6, 16)):
                steps = rng.normal(size=(rng.integers(1, 12), 16))
                steps *= (r * rng.uniform(0.3, 1.2, len(steps)) / np.linalg.norm(steps, axis=1))[:, None]
                walks.append(centre + np.cumsum(steps, axis=0))
            flat = np.concatenate(walks)[rng.permutation(sum(len(w) for w in walks))]
            assert list(_merge_representatives(flat, r)) == _union_find_representatives(flat, r)


    def test_radius_below_resolution_refused(self):
        # Unit-norm rows: the Gram form cannot resolve a radius of 1e-9.
        flat = np.eye(16)[:4]
        with pytest.raises(InputError, match="largest row norm"):
            _merge_representatives(flat, 1e-9)
        assert list(_merge_representatives(flat, 1e-7)) == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "kind,n,scale,seed",
        [("sl_pm", 3, 100.0, s) for s in (0, 1, 2, 3, 4, 7)]
        + [("sl_pm", 3, 5.0, 7), ("sl_pm", 4, 100.0, 0), ("sl_pm", 4, 100.0, 1)],
    )
    def test_census_radius_resolved_on_scaled_inputs(self, kind, n, scale, seed):
        # The scaled inputs of the SL tests: the census radius
        # 1e-5 (1 + |u|) stays above the merge's resolution.
        u = scale * random_general(n, seed)
        census = multistart_census(u, GroupSpec(kind, n), starts=100, seed=0)
        assert len(census) > 0
        assert census.merge_radius >= 1e-7 * max(frobenius_norm(p.x) for p in census)

    @pytest.mark.parametrize("kind", ["orthogonal", "sl_pm", "symplectic"])
    def test_census_radius_resolved_on_graded_inputs(self, kind):
        for u in _graded_inputs()[:4]:
            census = multistart_census(u, GroupSpec(kind, 4), starts=100, seed=0)
            assert len(census) > 0


def _halving_reference(sys_, x, step, phi):
    """Reference Armijo search: halve one step length at a time, 30 tries."""
    alpha = np.ones(len(x))
    accepted = np.zeros(len(x), dtype=bool)
    xnew, phinew = x.copy(), phi.copy()
    for _ in range(30):
        idx = np.flatnonzero(~accepted)
        if idx.size == 0:
            break
        cand = x[idx] + alpha[idx, None, None] * step[idx]
        fc = sys_.residual(cand)
        pc = np.einsum("br,br->b", fc, fc)
        ok = pc <= (1.0 - 1e-4 * alpha[idx]) * phi[idx]
        xnew[idx[ok]], phinew[idx[ok]] = cand[ok], pc[ok]
        accepted[idx[ok]] = True
        alpha[idx[~ok]] *= 0.5
    return xnew, phinew, np.flatnonzero(~accepted)


def _armijo_case(kind, n, uphill=True):
    """60 perturbed draws of g, their system data, overlong Newton
    steps and lin = J step on the polynomial rows.  With uphill the steps
    need 0 to 29 halvings and every seventh is reversed, passing at no
    length; without, they need 0 to 21 and all pass."""
    g = GroupSpec(kind, n)
    sys_ = _System(random_general(n, 40), g)
    rng = np.random.default_rng(3)
    x = np.stack([random_group_element(g, s) for s in range(60)])
    x += 0.05 * rng.normal(size=x.shape)
    fvals = sys_.residual(x)
    phi = np.einsum("br,br->b", fvals, fvals)
    jac = sys_.jacobian(x)
    step = np.stack([np.linalg.lstsq(j, -f, rcond=None)[0] for j, f in zip(jac, fvals)])
    step *= np.ldexp(1.0, np.arange(60) % (30 if uphill else 22) - 2)[:, None]
    if uphill:
        step[::7] *= -1.0
    lin = np.matmul(jac[:, : sys_.poly_rows], step.reshape(60, n * n, 1))[:, :, 0]
    return sys_, x, step.reshape(x.shape), lin, fvals, phi


def _armijo_matches_halving(sys_, x, step, lin, fvals, phi):
    """_armijo, which writes x, fvals and phi in place, against
    `_halving_reference` on copies of them; returns the stalled rows."""
    x0, phi0 = x.copy(), phi.copy()
    directions = [a.copy() for a in (step, lin)]
    stalled = np.flatnonzero(_armijo(sys_, x, step, lin, fvals, phi))
    for before, after in zip(directions, (step, lin)):
        assert before.tobytes() == after.tobytes()
    xref, phiref, stalled_ref = _halving_reference(sys_, x0, step, phi0)
    assert np.array_equal(x, xref)
    assert np.array_equal(phi, phiref)
    assert np.array_equal(stalled, stalled_ref)
    assert np.array_equal(fvals, sys_.residual(x))
    return stalled


# Every census system the sweep kernels see: Sp(4) and SL^±(3) run their
# own (SL^± with its det row), SO(3) and U(2) run O's, U on u's C-linear
# part.
_KERNEL_KINDS = [("symplectic", 4), ("sl_pm", 3), ("special_orthogonal", 3), ("unitary_embedded", 4)]


class TestArmijo:
    @pytest.mark.parametrize("kind,n", _KERNEL_KINDS)
    def test_blocks_match_sequential_halving(self, kind, n):
        stalled = _armijo_matches_halving(*_armijo_case(kind, n))
        assert 0 < len(stalled) < 60

    @pytest.mark.parametrize("kind,n", _KERNEL_KINDS)
    def test_every_row_passing_matches_sequential_halving(self, kind, n):
        stalled = _armijo_matches_halving(*_armijo_case(kind, n, uphill=False))
        assert len(stalled) == 0

    def test_peak_memory_at_a_large_batch(self):
        # Sp(6), 4000 rows, about half of them stalled.  Measured peak above
        # the inputs: 4.0 (rows x poly_rows) float64 arrays, the stacked
        # (f, lin, quad) and quad; copying x, fvals and phi for the result
        # peaked at 5.4, and stacking six operand pairs instead of
        # (f, lin, quad) once at 13.2.
        bsz, g = 4000, GroupSpec("symplectic", 6)
        sys_ = _System(random_general(6, 40), g)
        rng = np.random.default_rng(3)
        x = np.stack([random_group_element(g, s) for s in range(16)])[rng.integers(0, 16, bsz)]
        x += 0.05 * rng.normal(size=x.shape)
        fvals = sys_.residual(x)
        phi = np.einsum("br,br->b", fvals, fvals)
        step = 0.01 * rng.normal(size=x.shape)
        lin = rng.normal(size=(bsz, sys_.poly_rows))
        tracemalloc.start()
        try:
            stalled = _armijo(sys_, x, step, lin, fvals, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < np.sum(stalled) < bsz
        assert peak < 5 * bsz * sys_.poly_rows * 8


class TestSweepKernelsRowwise:
    # A start's trajectory must not depend on the other starts of its batch:
    # every sweep kernel gives each row the bits it gives that row alone.
    @pytest.mark.parametrize("kind,n", _KERNEL_KINDS)
    def test_system_rows_equal_single_rows(self, kind, n):
        sys_, x, step, _, _, _ = _armijo_case(kind, n)
        batch = {"residual": sys_.residual(x), "jacobian": sys_.jacobian(x), "quadratic": sys_.quadratic(step)}
        for i in range(len(x)):
            alone = {
                "residual": sys_.residual(x[i : i + 1]),
                "jacobian": sys_.jacobian(x[i : i + 1]),
                "quadratic": sys_.quadratic(step[i : i + 1]),
            }
            for name, rows in batch.items():
                assert rows[i].tobytes() == alone[name][0].tobytes(), f"{name} row {i}"
        # A sweep whose every row stalls evaluates an empty batch.
        assert sys_.residual(x[:0]).shape == (0, batch["residual"].shape[1])

    @pytest.mark.parametrize("kind,n", _KERNEL_KINDS)
    def test_armijo_rows_equal_single_rows(self, kind, n):
        # The batch has stalled and passing rows, so it updates by index; a
        # passing row searched alone, in place on its one-row views as a
        # census sweep block is, updates through views.  Both give each row
        # the same bits.
        sys_, x, step, lin, fvals, phi = _armijo_case(kind, n)
        xb, fb, phib = x.copy(), fvals.copy(), phi.copy()
        stalled = _armijo(sys_, xb, step, lin, fb, phib)
        assert 0 < np.sum(stalled) < len(x)
        for i in range(len(x)):
            one = slice(i, i + 1)
            assert _armijo(sys_, x[one], step[one], lin[one], fvals[one], phi[one])[0] == stalled[i], f"row {i}"
        for alone, batch in ((x, xb), (fvals, fb), (phi, phib)):
            for i in range(len(x)):
                assert alone[i].tobytes() == batch[i].tobytes(), f"row {i}"

    @pytest.mark.parametrize("kind,n", _KERNEL_KINDS)
    def test_newton_rows_equal_single_rows(self, kind, n):
        sys_, x, _, _, fvals, _ = _armijo_case(kind, n)
        delta, lin = _newton_block(sys_, x, fvals)
        for i in range(len(x)):
            delta1, lin1 = _newton_block(sys_, x[i : i + 1], fvals[i : i + 1])
            assert delta1[0].tobytes() == delta[i].tobytes(), f"row {i}"
            assert lin1[0].tobytes() == lin[i].tobytes(), f"row {i}"


class TestNewtonStep:
    # Every census kind takes the Newton step J delta = -f on a square
    # system: SO and U run O's (`_Equations.census`).
    @pytest.mark.parametrize("kind", KINDS)
    def test_census_system_is_square(self, kind):
        g = GroupSpec(kind, 4)
        sys_ = _System(random_general(4, 40), g)
        assert sys_.poly_rows + sys_.has_det == 16
        x = np.stack([random_group_element(g, s) for s in range(3)])
        assert sys_.residual(x).shape == (3, 16)
        assert sys_.jacobian(x).shape == (3, 16, 16)

    def test_singular_row_takes_a_zero_step(self):
        # x = 0 zeroes the form rows of O(3)'s Jacobian, so the batched
        # solve of a block that holds it fails and the block solves row by
        # row.  That row takes a zero step and stalls in `_armijo` with its
        # x unchanged; every other row gets the bits it gets alone.
        sys_, x, _, _, _, _ = _armijo_case("orthogonal", 3)
        x[5] = 0.0
        fvals = sys_.residual(x)
        phi = np.einsum("br,br->b", fvals, fvals)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(sys_.jacobian(x), -fvals[:, :, None])
        delta, lin = _newton_block(sys_, x, fvals)
        assert not np.any(delta[5]) and not np.any(lin[5])
        searched = x.copy()
        assert _armijo(sys_, searched, delta.reshape(x.shape), lin, fvals.copy(), phi.copy())[5]
        assert searched[5].tobytes() == x[5].tobytes()
        for i in range(len(x)):
            if i == 5:
                continue
            delta1, lin1 = _newton_block(sys_, x[i : i + 1], fvals[i : i + 1])
            assert delta1[0].tobytes() == delta[i].tobytes(), f"row {i}"
            assert lin1[0].tobytes() == lin[i].tobytes(), f"row {i}"


def _census_bytes(census):
    """Every point field and diagnostic of a census, floats as their bytes."""

    def raw(v):
        return None if v is None else np.asarray(v, dtype=np.float64).tobytes()

    points = [tuple(map(raw, p)) for p in census]
    counts = (census.attempted, census.converged, census.failed, census.sweeps)
    return points, counts, raw(census.worst_residual), raw(census.merge_radius)


# Sp(4) and SL^±(3) on their own systems, SO(4) and U(2) on O's.
_BLOCK_KINDS = [("symplectic", 4, 700), ("sl_pm", 3, 600), ("special_orthogonal", 4, 300), ("unitary_embedded", 4, 300)]


class TestSweepBlocks:
    # Each sweep runs the Newton step and the Armijo search in blocks of at
    # most `_SWEEP_BLOCK` active starts; every kernel acts on one start at a
    # time, so the block size changes no bit of any census.  These censuses
    # span several blocks of the default size.
    @pytest.mark.parametrize("scale", [1.0, 5.0])
    @pytest.mark.parametrize("kind,n,starts", _BLOCK_KINDS)
    def test_block_size_changes_no_bit(self, kind, n, starts, scale, monkeypatch):
        u, g = scale * random_general(n, 5), GroupSpec(kind, n)
        default = _census_bytes(multistart_census(u, g, starts=starts, seed=5))
        assert default[0]
        for block in (7, 10**6):
            monkeypatch.setattr(critsearch, "_SWEEP_BLOCK", block)
            assert _census_bytes(multistart_census(u, g, starts=starts, seed=5)) == default, f"block {block}"

    @pytest.mark.parametrize("kind", ["symplectic", "orthogonal"])
    def test_peak_memory_is_set_by_the_block(self, kind):
        # n = 6 with 1000 starts: one (starts, n^2, n^2) float64 array is
        # 10.4 MB.  Sp(6) and O(6) both run a square system of 36 rows
        # with no det row.  In blocks of 256 starts each census peaked at
        # 0.39 of these arrays; a sweep over all starts at once peaked at
        # 1.24.
        u, g = random_general(6, 0), GroupSpec(kind, 6)
        multistart_census(u, g, starts=10, seed=0)  # the per-group caches
        tracemalloc.start()
        try:
            multistart_census(u, g, starts=1000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1000 * 36**2 * 8
