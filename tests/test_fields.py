"""Expression-tree fields: evaluation and exact derivatives.

Oracle: central finite differences (step 1e-6) on random points.  Exact
derivatives must match to ~1e-7 relative — far tighter than any chain of
hand-computed special cases, and independent of the diff implementation.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from symloc import fields as F


RNG = np.random.default_rng(20240817)


def fd_grad(fn, pts, i, h=1e-6):
    up = pts.copy()
    dn = pts.copy()
    up[:, i] += h
    dn[:, i] -= h
    return (fn(up) - fn(dn)) / (2 * h)


def check_expr_derivatives(e, dim, n=40, rtol=2e-7, atol=1e-9):
    pts = RNG.uniform(-1.2, 1.2, size=(n, dim))
    for i in range(dim):
        exact = e.diff(i).eval(pts)
        approx = fd_grad(lambda q: e.eval(q), pts, i)
        np.testing.assert_allclose(exact, approx, rtol=rtol, atol=atol)


class TestScalarExpr:
    def test_const_coord_eval(self):
        pts = RNG.uniform(-1, 1, size=(7, 3))
        assert np.all(F.const(2.5).eval(pts) == 2.5)
        np.testing.assert_array_equal(F.coord(1).eval(pts), pts[:, 1])

    def test_add_mul_folding(self):
        x = F.coord(0)
        e = F.add(F.const(1), x, F.const(2))
        pts = RNG.uniform(-1, 1, size=(5, 1))
        np.testing.assert_allclose(e.eval(pts), pts[:, 0] + 3)
        z = F.mul(F.const(0), x)
        assert z.is_zero
        one = F.mul(F.const(1))
        assert one.is_one

    def test_polynomial_derivative(self):
        x, y = F.coord(0), F.coord(1)
        e = 3 * x * x * y + y * y * y - 2 * x + 5
        check_expr_derivatives(e, 2)

    def test_complex_coefficients(self):
        x = F.coord(0)
        e = F.mul(F.const(1j), x)
        pts = RNG.uniform(-1, 1, size=(5, 1))
        np.testing.assert_allclose(e.eval(pts), 1j * pts[:, 0])

    def test_shared_subtree_cached_once(self):
        calls = []

        class Probe(F.Expr):
            __slots__ = ()

            def _eval(self, pts, cache):
                calls.append(1)
                return pts[:, 0]

            def diff(self, i):
                return F.const(0)

        p = Probe()
        e = F.add(F.mul(p, p), p)
        e.eval(RNG.uniform(-1, 1, size=(4, 1)))
        assert len(calls) == 1


class TestMatrixFields:
    def su2_ad(self):
        # ad matrices of an orthonormal basis with [e_i, e_j] = eps_ijk e_k
        c = np.zeros((3, 3, 3))
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            c[i, j, k] = 1.0
            c[j, i, k] = -1.0
        mats = {a: c[a].T.copy() for a in range(3)}  # (ad_a)[k, j] = c[a, j, k]
        return F.MatAffine(np.zeros((3, 3)), mats)

    def test_affine_eval(self):
        ad = self.su2_ad()
        pts = RNG.uniform(-1, 1, size=(6, 3))
        vals = ad.eval(pts)
        # ad_theta e_1 = [theta, e_1] = theta_2 e_3... column check at one point
        th = pts[0]
        v = vals[0] @ np.array([1.0, 0, 0])
        expect = np.array([0.0, th[2], -th[1]])  # [th, e1] = th2 [e2,e1]... verified below vs cross
        np.testing.assert_allclose(v, np.cross(th, [1, 0, 0]), atol=1e-14)
        assert np.allclose(expect, np.cross(th, [1, 0, 0]))

    def test_expm_matches_scipy_pointwise(self):
        ad = self.su2_ad()
        e = F.Expm(ad)
        pts = RNG.uniform(-1, 1, size=(5, 3))
        vals = e.eval(pts)
        for p, v in zip(pts, vals):
            np.testing.assert_allclose(v, expm(ad.eval(p[None])[0]), atol=1e-12)

    def test_expm_derivative_fd(self):
        ad = self.su2_ad()
        e = F.Expm(ad)
        pts = RNG.uniform(-0.8, 0.8, size=(10, 3))
        for i in range(3):
            exact = e.diff(i).eval(pts)
            h = 1e-6
            up, dn = pts.copy(), pts.copy()
            up[:, i] += h
            dn[:, i] -= h
            approx = (e.eval(up) - e.eval(dn)) / (2 * h)
            np.testing.assert_allclose(exact, approx, rtol=0, atol=5e-9)

    def test_inv_derivative_fd(self):
        ad = self.su2_ad()
        m = F.MatAdd([F.Expm(ad), F.MatConst(1.5 * np.eye(3))])
        inv = F.Inv(m)
        pts = RNG.uniform(-0.8, 0.8, size=(8, 3))
        for i in range(3):
            exact = inv.diff(i).eval(pts)
            h = 1e-6
            up, dn = pts.copy(), pts.copy()
            up[:, i] += h
            dn[:, i] -= h
            approx = (inv.eval(up) - inv.eval(dn)) / (2 * h)
            np.testing.assert_allclose(exact, approx, rtol=0, atol=5e-9)

    def test_texp_identity_at_zero(self):
        ad = self.su2_ad()
        t = F.texp(ad)
        pts = np.zeros((1, 3))
        np.testing.assert_allclose(t.eval(pts)[0], np.eye(3), atol=1e-14)

    def test_texp_series_value(self):
        # T(A) = sum A^k... with T(A) = (1 - e^{-A})/A = I - A/2 + A^2/6 - ...
        ad = self.su2_ad()
        t = F.texp(ad)
        pts = RNG.uniform(-0.3, 0.3, size=(4, 3))
        vals = t.eval(pts)
        for p, v in zip(pts, vals):
            a = ad.eval(p[None])[0]
            series = np.eye(3)
            term = np.eye(3)
            for k in range(1, 30):
                term = term @ (-a) / (k + 1)
                series = series + term
            np.testing.assert_allclose(v, series, atol=1e-12)

    def test_texp_derivative_fd(self):
        ad = self.su2_ad()
        t = F.texp(ad)
        pts = RNG.uniform(-0.8, 0.8, size=(6, 3))
        for i in range(3):
            exact = t.diff(i).eval(pts)
            h = 1e-6
            up, dn = pts.copy(), pts.copy()
            up[:, i] += h
            dn[:, i] -= h
            approx = (t.eval(up) - t.eval(dn)) / (2 * h)
            np.testing.assert_allclose(exact, approx, rtol=0, atol=5e-9)

    def test_sqrtm_value_and_derivative(self):
        # SPD field: M = B^T B + (1 + x0^2) I with B affine
        b = F.MatAffine(0.3 * np.eye(2), {0: np.array([[0.2, 0.7], [0.0, 0.1]])})
        m = F.MatAdd(
            [
                F.MatMul(F.MatTranspose(b), b),
                F.MatScale(1.0, F.MatConst(np.eye(2))),
            ]
        )
        s = F.Sqrtm(m)
        pts = RNG.uniform(-0.9, 0.9, size=(6, 1))
        vals = s.eval(pts)
        mv = m.eval(pts)
        np.testing.assert_allclose(vals @ vals, mv, atol=1e-12)
        exact = s.diff(0).eval(pts)
        h = 1e-6
        up, dn = pts.copy(), pts.copy()
        up[:, 0] += h
        dn[:, 0] -= h
        approx = (s.eval(up) - s.eval(dn)) / (2 * h)
        np.testing.assert_allclose(exact, approx, rtol=0, atol=5e-9)

    def test_mat_entry_bridges_to_scalar(self):
        ad = self.su2_ad()
        e = F.Expm(ad)
        entry = F.mat_entry(e, 0, 1)
        check_expr_derivatives(entry, 3, n=10, rtol=5e-6, atol=5e-9)

    def test_second_order_matrix_derivative_raises(self):
        ad = self.su2_ad()
        d = F.Expm(ad).diff(0)
        with pytest.raises(NotImplementedError):
            d.diff(1)


def _expm_deviation(out, want):
    """Per matrix: largest entry error relative to the largest entry."""
    return np.max(np.abs(out - want), axis=(1, 2)) / np.max(np.abs(want), axis=(1, 2))


@pytest.mark.parametrize("k", [1, 3, 6, 12])
def test_batched_expm_matches_scipy_on_every_pade_branch(k):
    # 1-norms from 1e-6 to 12 take every Pade degree (3, 5, 7, 9) and the
    # scaled degree-13 branch with up to 2 squarings: alone, and in one
    # stack that takes the degree of its largest norm.  These random
    # matrices are far from normal, so at norm ~10 the two algorithms
    # differ by up to ~1e-12 of the largest entry (exp's own conditioning)
    rng = np.random.default_rng(k)
    norms = np.geomspace(1e-6, 12.0, 60)
    a = rng.standard_normal((len(norms), k, k))
    a *= (norms / np.max(np.sum(np.abs(a), axis=1), axis=1))[:, None, None]
    for stack in [a] + [a[i:i + 1] for i in (0, 20, 35, 45, 59)]:
        assert np.all(_expm_deviation(F._batched_expm(stack), expm(stack)) <= 1e-11)
    # a single (k, k) matrix is exponentiated as a one-matrix stack
    for i in (0, 20, 35, 45, 59):
        np.testing.assert_array_equal(F._batched_expm(a[i]), F._batched_expm(a[i:i + 1])[0])


def test_batched_expm_matches_scipy_on_the_field_stacks(monkeypatch):
    # the stacks the su(2) fields build: ad matrices (3x3), the texp block
    # (6x6) and the augmented Frechet blocks of both (6x6, 12x12)
    ad = TestMatrixFields().su2_ad()
    fields = [F.Expm(ad), F.Expm(ad).diff(1), F.texp(ad), F.texp(ad).diff(2)]
    pts = np.random.default_rng(3).uniform(-2.0, 2.0, size=(200, 3))
    ours = [f.eval(pts) for f in fields]
    monkeypatch.setattr(F, "_batched_expm", lambda a: expm(a))
    for f, out in zip(fields, ours):
        assert np.all(_expm_deviation(out, f.eval(pts)) <= 1e-12)


def test_batched_expm_edge_stacks():
    assert F._batched_expm(np.zeros((0, 3, 3))).shape == (0, 3, 3)
    a = np.zeros((3, 2, 2))
    a[0, 0, 1] = np.nan
    a[1, 1, 0] = np.inf
    out = F._batched_expm(a)
    assert np.all(np.isnan(out[:2]))
    np.testing.assert_array_equal(out[2], np.eye(2))
    assert np.all(np.isnan(F._batched_expm(a[0])))
    np.testing.assert_array_equal(F._batched_expm(a[2]), np.eye(2))


# ---------------------------------------------------------------------------
# immutability: one guard, shared by every value class
# ---------------------------------------------------------------------------


def _frozen_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _frozen_subclasses(sub)


def test_every_value_class_takes_the_one_guard():
    import symloc.analysis  # noqa: F401  (loads every module of the package)
    import symloc.reduced  # noqa: F401

    classes = list(_frozen_subclasses(F._Frozen))
    assert {"Expr", "MatrixField", "HamiltonianSpace", "ZeroLevelData"} <= {
        c.__name__ for c in classes}
    assert [c.__name__ for c in classes if "__setattr__" in vars(c)] == []
    # the evaluation and derivative memo live on the node base alone, and
    # are still reached through both field kinds
    for cls in (F.Expr, F.MatrixField):
        assert "eval" not in vars(cls) and "diff" not in vars(cls)
        assert callable(cls.eval) and callable(cls.diff)


def test_value_objects_refuse_assignment():
    from symloc.forms import EquivariantForm
    from symloc.hamspace import catalog_from_string
    from symloc.liealg import PhiPolynomial
    from symloc.reduced import kirwan_integral, zero_level

    sp = catalog_from_string("cn_u1(2,1)")
    level = zero_level(sp, 8)
    one = EquivariantForm.scalar(sp.chart_id, sp.ambient_dim, sp.algebra.dim, 1.0)
    values = [F.Const(1.0), F.MatConst(np.eye(2)), sp.omega, sp.action, sp,
              PhiPolynomial.constant(sp.algebra.dim), level,
              kirwan_integral(one, level, 0.05)]
    for obj in values:
        with pytest.raises(AttributeError):
            obj.extra = 1
        name = type(obj).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
