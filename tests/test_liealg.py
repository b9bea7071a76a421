"""Algebra layer: structure-constant validation, and the scalar Gaussian
oracle of tests/gaussian_oracle.py -- Wick moments against a Monte-Carlo
oracle, shifted Gaussian integrals against 1-D quadrature."""

import numpy as np
import pytest
from scipy.integrate import quad

from gaussian_oracle import gaussian_moment, shift, shifted_gaussian_integral
from symloc.liealg import (
    InputError,
    LieAlgebraSpec,
    PhiPolynomial,
    WICK_DEGREE_CAP,
    bracket,
    builtin_algebra,
)

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def mc_gaussian_integral(q, p, eps, n=2_000_000, seed=20240811):
    """Monte-Carlo oracle for integral p(phi) exp(-eps/2 phi^T q phi) dphi.

    Samples from N(0, q^{-1}/eps) and multiplies the sample mean of p by the
    exact normalizer.  Returns (estimate, standard_error)."""
    rng = np.random.default_rng(seed)
    q = np.asarray(q, dtype=float)
    dim = q.shape[0]
    cov = np.linalg.inv(q) / eps
    chol = np.linalg.cholesky(cov)
    samples = rng.standard_normal((n, dim)) @ chol.T
    vals = np.zeros(n, dtype=complex)
    for mi, c in p.terms.items():
        term = np.full(n, c, dtype=complex)
        for a, e in enumerate(mi):
            if e:
                term *= samples[:, a] ** e
        vals += term
    z = (2 * np.pi / eps) ** (dim / 2) / np.sqrt(np.linalg.det(q))
    est = z * vals.mean()
    se = z * vals.std() / np.sqrt(n)
    return est, se


def quad_sgi_1d(p, m, eps, q=1.0):
    """1-D quadrature oracle for integral p(x) exp(i m q x - eps q x^2 / 2) dx."""

    def f(x, part):
        v = p.eval([x]) * np.exp(1j * m * q * x - 0.5 * eps * q * x * x)
        return v.real if part == "re" else v.imag

    re, _ = quad(f, -40, 40, args=("re",), limit=400)
    im, _ = quad(f, -40, 40, args=("im",), limit=400)
    return re + 1j * im


# ---------------------------------------------------------------------------
# catalog / validation
# ---------------------------------------------------------------------------


def test_u1_catalog():
    a = builtin_algebra("u1")
    assert a.dim == 1
    assert np.all(a.structure_constants == 0)
    # circle group with unit generator: circumference of one period
    assert a.group_volume == pytest.approx(2 * np.pi, rel=1e-15)


def test_torus_catalog():
    a = builtin_algebra("torus(3)")
    assert a.dim == 3
    assert np.all(a.structure_constants == 0)
    assert a.group_volume == pytest.approx((2 * np.pi) ** 3, rel=1e-15)
    with pytest.raises(InputError):
        builtin_algebra("torus(0)")
    # a rank that is not an integer raised a ValueError from int()
    for name in ("torus(a)", "torus(1.5)", "torus()"):
        with pytest.raises(InputError, match="torus rank must be an integer"):
            builtin_algebra(name)
    with pytest.raises(InputError):
        builtin_algebra("so(3,1)")


def test_su2_matches_spin_half_representation():
    """The su2 entry is pinned to the representation e_a = -(i/2) sigma_a:
    structure constants from commutators, inner product from -2 tr(AB),
    and the one-parameter subgroups close at t = 4*pi (not 2*pi)."""
    a = builtin_algebra("su2")
    s = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    rep = [-0.5j * m for m in s]
    for i in range(3):
        for j in range(3):
            comm = rep[i] @ rep[j] - rep[j] @ rep[i]
            expect = sum(a.structure_constants[i, j, k] * rep[k] for k in range(3))
            assert np.allclose(comm, expect, atol=1e-14)
            ip = -2 * np.trace(rep[i] @ rep[j])
            assert ip == pytest.approx(a.inner_product[i, j], abs=1e-14)
    # period 4*pi: exp(2*pi e_3) = -1 != 1, exp(4*pi e_3) = 1
    from scipy.linalg import expm

    assert np.allclose(expm(2 * np.pi * rep[2]), -np.eye(2), atol=1e-12)
    assert np.allclose(expm(4 * np.pi * rep[2]), np.eye(2), atol=1e-12)
    # unit-norm generators with period 4*pi trace out circles of radius 2,
    # so the group is the round 3-sphere of radius 2: vol = 2*pi^2 * 2^3
    assert a.group_volume == pytest.approx(2 * np.pi**2 * 8, rel=1e-15)


def test_su2_bracket_is_cross_product():
    a = builtin_algebra("su2")
    rng = np.random.default_rng(7)
    for _ in range(5):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(bracket(a, x, y), np.cross(x, y), atol=1e-14)
        assert np.allclose(bracket(a, x, y), -bracket(a, y, x), atol=1e-14)


def test_validation_rejects_bad_data():
    eye3 = np.eye(3)
    c_sym = np.zeros((3, 3, 3))
    c_sym[0, 1, 2] = 1.0  # missing the antisymmetric partner
    with pytest.raises(InputError, match="antisymmetric"):
        LieAlgebraSpec(3, ("a", "b", "c"), c_sym, eye3, 1.0)

    c_bad = builtin_algebra("su2").structure_constants.copy()
    c_bad[0, 1, 0] = 1.0
    c_bad[1, 0, 0] = -1.0
    with pytest.raises(InputError, match="Jacobi"):
        LieAlgebraSpec(3, ("a", "b", "c"), c_bad, eye3, 1.0)

    c_su2 = builtin_algebra("su2").structure_constants
    with pytest.raises(InputError, match="ad-invariant"):
        LieAlgebraSpec(3, ("a", "b", "c"), c_su2, np.diag([1.0, 1.0, 4.0]), 1.0)

    with pytest.raises(InputError, match="positive definite"):
        LieAlgebraSpec(
            2, ("a", "b"), np.zeros((2, 2, 2)), np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0
        )

    with pytest.raises(InputError, match="volume"):
        LieAlgebraSpec(1, ("a",), np.zeros((1, 1, 1)), np.eye(1), 0.0)


# ---------------------------------------------------------------------------
# phi polynomials
# ---------------------------------------------------------------------------


def test_phi_polynomial_arithmetic():
    p = PhiPolynomial(2, {(1, 0): 2.0, (0, 2): 1j})
    q = PhiPolynomial(2, {(1, 0): -2.0, (1, 1): 3.0})
    s = p + q
    assert s.terms == {(0, 2): 1j, (1, 1): 3.0}
    prod = p * q
    phi = np.array([0.3, -1.7])
    assert prod.eval(phi) == pytest.approx(p.eval(phi) * q.eval(phi), rel=1e-14)
    assert prod.degree == 4
    assert PhiPolynomial(2, {(0, 0): 0.0}).is_zero


def test_phi_polynomial_shift_matches_pointwise():
    rng = np.random.default_rng(3)
    p = PhiPolynomial(3, {(2, 1, 0): 1.5, (0, 0, 3): -2j, (1, 1, 1): 0.7})
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    shifted = shift(p, v)
    for _ in range(4):
        phi = rng.standard_normal(3)
        assert shifted.eval(phi) == pytest.approx(p.eval(phi + v), rel=1e-12)


# ---------------------------------------------------------------------------
# gaussian moments: closed forms and Monte-Carlo oracle
# ---------------------------------------------------------------------------


def test_gaussian_moment_dim1_closed_forms():
    a = builtin_algebra("u1")
    for eps in (0.25, 1.0, 3.7):
        z = np.sqrt(2 * np.pi / eps)
        assert gaussian_moment(a, PhiPolynomial.constant(1), eps) == pytest.approx(
            z, rel=1e-14
        )
        assert gaussian_moment(
            a, PhiPolynomial(1, {(1,): 1.0}), eps
        ) == pytest.approx(0.0, abs=1e-15)
        assert gaussian_moment(
            a, PhiPolynomial(1, {(2,): 1.0}), eps
        ) == pytest.approx(z / eps, rel=1e-14)
        assert gaussian_moment(
            a, PhiPolynomial(1, {(4,): 1.0}), eps
        ) == pytest.approx(3 * z / eps**2, rel=1e-14)


def test_gaussian_moment_su2_vs_monte_carlo():
    a = builtin_algebra("su2")
    eps = 0.7
    p = PhiPolynomial(
        3, {(2, 2, 0): 1.0, (0, 0, 1): 2.0, (0, 0, 0): -5.0, (4, 0, 0): 0.5}
    )
    est, se = mc_gaussian_integral(a.inner_product, p, eps)
    exact = gaussian_moment(a, p, eps)
    assert abs(exact - est) < 3 * se
    # and the magnitude is genuinely resolved, not a 0 == 0 comparison
    assert abs(exact) > 10 * se


def test_gaussian_moment_anisotropic_vs_monte_carlo():
    q = np.array([[2.0, 0.6], [0.6, 1.0]])
    a = LieAlgebraSpec(2, ("e1", "e2"), np.zeros((2, 2, 2)), q, 1.0)
    eps = 1.3
    p = PhiPolynomial(2, {(3, 1): 1.0, (1, 1): -2.0, (0, 2): 1.0})
    est, se = mc_gaussian_integral(q, p, eps)
    exact = gaussian_moment(a, p, eps)
    assert abs(exact - est) < 3 * se
    assert abs(exact) > 10 * se
    # cross-check the normalizer against the closed form
    z = (2 * np.pi / eps) / np.sqrt(np.linalg.det(q))
    assert gaussian_moment(a, PhiPolynomial.constant(2), eps) == pytest.approx(
        z, rel=1e-14
    )
    # covariance entry: E[phi_1^2] = (q^{-1})_11 / eps
    qinv = np.linalg.inv(q)
    assert gaussian_moment(a, PhiPolynomial(2, {(2, 0): 1.0}), eps) == pytest.approx(
        z * qinv[0, 0] / eps, rel=1e-14
    )


def test_gaussian_moment_scaling_law():
    """Homogeneous degree-d integrand scales as eps^{-(dim+d)/2}."""
    a = builtin_algebra("su2")
    p = PhiPolynomial(3, {(2, 0, 2): 1.0})
    base = gaussian_moment(a, p, 1.0)
    for eps in np.geomspace(0.01, 100, 7):
        expect = base * eps ** (-(3 + 4) / 2)
        assert gaussian_moment(a, p, eps) == pytest.approx(expect, rel=1e-12)


def test_gaussian_moment_input_errors():
    a = builtin_algebra("u1")
    with pytest.raises(InputError, match="positive"):
        gaussian_moment(a, PhiPolynomial.constant(1), 0.0)
    with pytest.raises(InputError, match="positive"):
        gaussian_moment(a, PhiPolynomial.constant(1), -1.0)
    with pytest.raises(InputError, match="cap"):
        gaussian_moment(a, PhiPolynomial(1, {(WICK_DEGREE_CAP + 2,): 1.0}), 1.0)
    with pytest.raises(InputError, match="dimension"):
        gaussian_moment(a, PhiPolynomial.constant(2), 1.0)


# ---------------------------------------------------------------------------
# shifted gaussian integrals
# ---------------------------------------------------------------------------


def test_sgi_constant_dim1_closed_form():
    a = builtin_algebra("u1")
    for eps, m in [(0.5, 1.0), (2.0, -0.7), (1.0, 3.0)]:
        val = shifted_gaussian_integral(a, PhiPolynomial.constant(1), [m], eps)
        expect = np.sqrt(2 * np.pi / eps) * np.exp(-(m**2) / (2 * eps))
        assert val == pytest.approx(expect, rel=1e-14)


def test_sgi_reduces_to_gaussian_moment_at_zero_shift():
    a = builtin_algebra("su2")
    p = PhiPolynomial(3, {(2, 1, 1): 1.0, (0, 0, 0): 2.0})
    assert shifted_gaussian_integral(a, p, np.zeros(3), 0.9) == pytest.approx(
        gaussian_moment(a, p, 0.9), rel=1e-14
    )


def test_sgi_dim1_vs_quadrature():
    a = builtin_algebra("u1")
    p = PhiPolynomial(1, {(0,): 1.0, (1,): 2.0, (2,): 1 + 2j, (3,): 3.0})
    for eps, m in [(0.8, 1.3), (0.3, -2.0), (2.5, 0.4)]:
        exact = shifted_gaussian_integral(a, p, [m], eps)
        oracle = quad_sgi_1d(p, m, eps)
        assert abs(exact - oracle) <= 1e-8 * max(1.0, abs(oracle))


def test_sgi_anisotropic_dim1_vs_quadrature():
    """Non-unit inner product: the pairing <m, phi> carries the metric."""
    q = np.array([[2.5]])
    a = LieAlgebraSpec(1, ("e1",), np.zeros((1, 1, 1)), q, 1.0)
    p = PhiPolynomial(1, {(2,): 1.0, (1,): -1j})
    eps, m = 0.9, 1.1
    exact = shifted_gaussian_integral(a, p, [m], eps)
    oracle = quad_sgi_1d(p, m, eps, q=2.5)
    assert abs(exact - oracle) <= 1e-8 * max(1.0, abs(oracle))


def test_sgi_dim2_vs_tensor_quadrature():
    q = np.array([[2.0, 0.6], [0.6, 1.0]])
    a = LieAlgebraSpec(2, ("e1", "e2"), np.zeros((2, 2, 2)), q, 1.0)
    p = PhiPolynomial(2, {(2, 1): 1.0, (0, 1): -2.0, (0, 0): 1j})
    eps = 1.1
    m = np.array([0.7, -0.4])

    # tensor-product Gauss-Legendre on a generous box
    half = 14.0 / np.sqrt(eps)
    x, w = np.polynomial.legendre.leggauss(160)
    x = x * half
    w = w * half
    xx1, xx2 = np.meshgrid(x, x, indexing="ij")
    ww = np.outer(w, w)
    phi = np.stack([xx1.ravel(), xx2.ravel()], axis=1)
    qm = q @ m
    quadratic = np.einsum("ni,ij,nj->n", phi, q, phi)
    linear = phi @ qm
    vals = np.zeros(phi.shape[0], dtype=complex)
    for mi, c in p.terms.items():
        term = np.full(phi.shape[0], c, dtype=complex)
        for axis, e in enumerate(mi):
            if e:
                term *= phi[:, axis] ** e
        vals += term
    integrand = vals * np.exp(1j * linear - 0.5 * eps * quadratic)
    oracle = np.sum(integrand * ww.ravel())

    exact = shifted_gaussian_integral(a, p, m, eps)
    assert abs(exact - oracle) <= 1e-8 * max(1.0, abs(oracle))


def test_sgi_input_errors():
    a = builtin_algebra("su2")
    with pytest.raises(InputError, match="length"):
        shifted_gaussian_integral(a, PhiPolynomial.constant(3), [1.0], 1.0)
    with pytest.raises(InputError, match="positive"):
        shifted_gaussian_integral(a, PhiPolynomial.constant(3), np.zeros(3), -0.5)
