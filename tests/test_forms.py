"""Exterior algebra layer: wedge/d/contract bookkeeping, the equivariant
derivative, truncated exponentials, and the invariance checker, exercised on
hand-built U(1) and SU(2) actions with pointwise numerical oracles."""

import numpy as np
import pytest

from symloc.fields import add, const, coord, mul
from symloc.forms import (
    EquivariantForm,
    VectorFieldFamily,
    contract,
    equivariant_D,
    exp_form_part,
    exterior_d,
    invariance_residual,
    lie_derivative,
    wedge,
)
from symloc.liealg import InputError, PhiPolynomial, builtin_algebra

# ---------------------------------------------------------------------------
# fixtures: C^1 with U(1), C^2 with SU(2) (coords x1, y1, x2, y2)
# ---------------------------------------------------------------------------


def u1_circle_space(a_level=1.0):
    """C with counterclockwise U(1) rotation: omega = dx^dy,
    V = -y d/dx + x d/dy, mu = (|z|^2 - a)/2."""
    chart = "c1"
    n, g = 2, 1
    x, y = coord(0), coord(1)
    omega = EquivariantForm(chart, n, g, [((0, 1), 1.0, PhiPolynomial.constant(g))])
    V = VectorFieldFamily(chart, [[mul(const(-1.0), y), x]])
    mu = [
        add(
            mul(const(0.5), x, x),
            mul(const(0.5), y, y),
            const(-a_level / 2.0),
        )
    ]
    return chart, n, g, omega, V, mu


def su2_c2_space():
    """C^2 with the spin-1/2 action z -> exp(t e_a) z, e_a = -(i/2) sigma_a;
    mu_a = -(1/4) z^dag sigma_a z."""
    chart = "c2"
    n, g = 4, 3
    x1, y1, x2, y2 = (coord(j) for j in range(4))
    omega = EquivariantForm(
        chart,
        n,
        g,
        [
            ((0, 1), 1.0, PhiPolynomial.constant(g)),
            ((2, 3), 1.0, PhiPolynomial.constant(g)),
        ],
    )
    half = const(0.5)
    mhalf = const(-0.5)
    V = VectorFieldFamily(
        chart,
        [
            # e_1: zdot = -(i/2)(z2, z1)
            [mul(half, y2), mul(mhalf, x2), mul(half, y1), mul(mhalf, x1)],
            # e_2: zdot = -(i/2)(-i z2, i z1) = (-z2/2, z1/2)
            [mul(mhalf, x2), mul(mhalf, y2), mul(half, x1), mul(half, y1)],
            # e_3: zdot = -(i/2)(z1, -z2)
            [mul(half, y1), mul(mhalf, x1), mul(mhalf, y2), mul(half, x2)],
        ],
    )
    mu = [
        add(mul(mhalf, x1, x2), mul(mhalf, y1, y2)),
        add(mul(mhalf, x1, y2), mul(half, y1, x2)),
        add(
            mul(const(-0.25), x1, x1),
            mul(const(-0.25), y1, y1),
            mul(const(0.25), x2, x2),
            mul(const(0.25), y2, y2),
        ),
    ]
    return chart, n, g, omega, V, mu


def equivariant_symplectic(chart, n, g, omega, mu):
    """omega + i <mu, phi> as one equivariant form (orthonormal pairing)."""
    total = omega
    for a in range(g):
        mono = [0] * g
        mono[a] = 1
        total = total + EquivariantForm(
            chart, n, g, [((), mul(const(1j), mu[a]), tuple(mono))]
        )
    return total


def sample_points(n_pts, dim, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.5, 1.5, size=(n_pts, dim))


def max_abs(form, pts, phis):
    worst = 0.0
    cache = {}
    for phi in phis:
        for vals in form.eval_at_phi(pts, phi, cache).values():
            if vals.size:
                worst = max(worst, float(np.max(np.abs(vals))))
    return worst


# ---------------------------------------------------------------------------
# wedge / d / contract bookkeeping
# ---------------------------------------------------------------------------


def test_wedge_antisymmetry_and_unit():
    chart, n, g = "c2", 4, 1
    one = EquivariantForm.scalar(chart, n, g, 1.0)
    dx1 = EquivariantForm.dx(chart, n, g, 0)
    dx2 = EquivariantForm.dx(chart, n, g, 1)
    pts = sample_points(6, n, 0)
    phis = np.array([[1.0]])
    ab = wedge(dx1, dx2)
    ba = wedge(dx2, dx1)
    assert max_abs(ab + ba, pts, phis) == 0.0
    assert ab.indexed_terms  # nonzero
    beta = EquivariantForm(
        chart, n, g, [((1, 3), mul(coord(0), coord(2)), PhiPolynomial.constant(g))]
    )
    assert max_abs(wedge(one, beta) - beta, pts, phis) == 0.0
    # repeated index kills the product
    dx12 = wedge(dx1, dx2)
    dx13 = wedge(dx1, EquivariantForm.dx(chart, n, g, 2))
    assert wedge(dx12, dx13).is_zero


def _grades(form):
    """The equivariant degrees of a form's terms: form degree + 2 phi degree."""
    return {len(fmi) + 2 * sum(nu) for fmi, nu in form.indexed_terms}


def test_wedge_grading_additivity():
    chart, n, g = "c2", 4, 2
    alpha = EquivariantForm(chart, n, g, [((0,), coord(1), (1, 0))])  # grade 3
    beta = EquivariantForm(chart, n, g, [((1, 2), const(2.0), (0, 1))])  # grade 4
    prod = wedge(alpha, beta)
    assert _grades(prod) == {7}


def test_wedge_chart_mismatch():
    a = EquivariantForm.dx("a", 2, 1, 0)
    b = EquivariantForm.dx("b", 2, 1, 1)
    with pytest.raises(InputError, match="chart"):
        wedge(a, b)


def test_exterior_d_basics():
    chart, n, g = "c1", 2, 1
    c = EquivariantForm.scalar(chart, n, g, 3.7)
    assert exterior_d(c).is_zero
    # d(x1 dx2) = dx1 ^ dx2
    alpha = EquivariantForm(chart, n, g, [((1,), coord(0), PhiPolynomial.constant(g))])
    d_alpha = exterior_d(alpha)
    terms = d_alpha.indexed_terms
    assert set(terms) == {((0, 1), (0,))}
    pts = sample_points(5, n, 1)
    assert np.allclose(terms[((0, 1), (0,))].eval(pts, {}), 1.0)


def test_d_squared_zero_pointwise():
    chart, n, g = "c2", 4, 1
    rng = np.random.default_rng(42)
    pts = sample_points(100, n, 2)
    phis = rng.standard_normal((3, g))
    for trial in range(5):
        # random polynomial 0-form of degree <= 3
        pieces = [const(rng.standard_normal())]
        for _ in range(4):
            factors = [coord(int(rng.integers(0, n))) for _ in range(int(rng.integers(1, 4)))]
            pieces.append(mul(const(rng.standard_normal()), *factors))
        f = EquivariantForm.scalar(chart, n, g, add(*pieces))
        dd = exterior_d(exterior_d(f))
        assert max_abs(dd, pts, phis) < 1e-12


def test_contract_linear_field_gives_phi_pairing():
    chart, n, g = "c1", 2, 1
    V = VectorFieldFamily(chart, [[const(1.0), const(0.0)]])  # V_phi = phi d/dx1
    dx1 = EquivariantForm.dx(chart, n, g, 0)
    res = contract(dx1, V)
    assert set(res.indexed_terms) == {((), (1,))}
    pts = sample_points(4, n, 3)
    assert np.allclose(res.indexed_terms[((), (1,))].eval(pts, {}), 1.0)
    # 0-forms contract to zero
    assert contract(EquivariantForm.scalar(chart, n, g, 2.0), V).is_zero


def test_contract_degree_bookkeeping():
    chart, n, g, omega, V, mu = su2_c2_space()
    res = contract(omega, V)
    assert {len(fmi) for fmi, _ in res.indexed_terms} == {1}
    assert res.max_phi_degree() == 1
    assert _grades(res) == {3}


def test_double_contraction_vanishes_at_fixed_phi():
    """iota_{V_phi} iota_{V_phi} = 0: evaluate the double contraction at fixed
    phi vectors and compare against zero (pointwise oracle)."""
    chart, n, g, omega, V, mu = su2_c2_space()
    vol = wedge(omega, omega)  # 4-form, so double contraction is a 2-form
    double = contract(contract(vol, V), V)
    pts = sample_points(40, n, 4)
    rng = np.random.default_rng(5)
    phis = rng.standard_normal((10, g))
    assert max_abs(double, pts, phis) < 1e-12


# ---------------------------------------------------------------------------
# equivariant derivative
# ---------------------------------------------------------------------------


def test_D_of_one_is_zero():
    chart, n, g, omega, V, mu = u1_circle_space()
    one = EquivariantForm.scalar(chart, n, g, 1.0)
    assert equivariant_D(one, V).is_zero


def test_equivariant_symplectic_form_is_closed_u1():
    chart, n, g, omega, V, mu = u1_circle_space(a_level=0.7)
    omega_bar = equivariant_symplectic(chart, n, g, omega, mu)
    d_omega_bar = equivariant_D(omega_bar, V)
    pts = sample_points(100, n, 6)
    rng = np.random.default_rng(7)
    phis = rng.standard_normal((10, g))
    assert max_abs(d_omega_bar, pts, phis) < 1e-12


def test_equivariant_symplectic_form_is_closed_su2():
    chart, n, g, omega, V, mu = su2_c2_space()
    omega_bar = equivariant_symplectic(chart, n, g, omega, mu)
    d_omega_bar = equivariant_D(omega_bar, V)
    pts = sample_points(100, n, 8)
    rng = np.random.default_rng(9)
    phis = rng.standard_normal((10, g))
    assert max_abs(d_omega_bar, pts, phis) < 1e-12


def _random_invariant_form(chart, n, g, omega, mu, rng, algebra):
    """Random polynomial combination of invariant building blocks:
    scalars {|z|^2 pieces, <mu, phi>, |phi|^2} and forms {1, omega, omega^2,
    d(r2), d<mu,phi>, d(r2)^d<mu,phi>}."""
    r2 = add(*[mul(coord(j), coord(j)) for j in range(n)])
    mu_phi = EquivariantForm.zero(chart, n, g)
    for a in range(g):
        mono = [0] * g
        mono[a] = 1
        mu_phi = mu_phi + EquivariantForm(chart, n, g, [((), mu[a], tuple(mono))])
    phi2_poly = PhiPolynomial(
        g, {tuple(2 * e for e in nu): 1.0 for nu in np.eye(g, dtype=int).tolist()}
    )
    scalars = [
        EquivariantForm.scalar(chart, n, g, 1.0),
        EquivariantForm.scalar(chart, n, g, r2),
        mu_phi,
        EquivariantForm.scalar(chart, n, g, 1.0, phi2_poly),
    ]
    d_r2 = exterior_d(EquivariantForm.scalar(chart, n, g, r2))
    forms = [
        EquivariantForm.scalar(chart, n, g, 1.0),
        omega,
        wedge(omega, omega),
        d_r2,
        exterior_d(mu_phi),
        wedge(d_r2, exterior_d(mu_phi)),
    ]
    total = EquivariantForm.zero(chart, n, g)
    for _ in range(3):
        s = scalars[rng.integers(0, len(scalars))]
        s2 = scalars[rng.integers(0, len(scalars))]
        f = forms[rng.integers(0, len(forms))]
        c = rng.standard_normal() + 1j * rng.standard_normal()
        total = total + wedge(wedge(s, s2), f).scale(c)
    return total


@pytest.mark.parametrize("space", ["u1", "su2"])
def test_D_squared_zero_on_random_invariant_forms(space):
    if space == "u1":
        chart, n, g, omega, V, mu = u1_circle_space()
        algebra = builtin_algebra("u1")
    else:
        chart, n, g, omega, V, mu = su2_c2_space()
        algebra = builtin_algebra("su2")
    rng = np.random.default_rng(11)
    pts = sample_points(100, n, 12)
    phis = rng.standard_normal((10, g))
    for _ in range(10):
        gamma = _random_invariant_form(chart, n, g, omega, mu, rng, algebra)
        # confirm the generator really is invariant
        assert invariance_residual(gamma, V, algebra, pts[:20], phis[:3]) < 1e-8
        dd = equivariant_D(equivariant_D(gamma, V), V)
        assert max_abs(dd, pts, phis) < 1e-10


@pytest.mark.parametrize("space", ["u1", "su2"])
def test_leibniz_rule(space):
    if space == "u1":
        chart, n, g, omega, V, mu = u1_circle_space()
    else:
        chart, n, g, omega, V, mu = su2_c2_space()
    r2 = add(*[mul(coord(j), coord(j)) for j in range(n)])
    d_r2 = exterior_d(EquivariantForm.scalar(chart, n, g, r2))
    mu_phi = EquivariantForm.zero(chart, n, g)
    for a in range(g):
        mono = [0] * g
        mono[a] = 1
        mu_phi = mu_phi + EquivariantForm(chart, n, g, [((), mu[a], tuple(mono))])
    pts = sample_points(60, n, 13)
    rng = np.random.default_rng(14)
    phis = rng.standard_normal((6, g))
    cases = [
        (omega, mu_phi, 2),  # even ^ scalar
        (d_r2, omega, 1),  # odd ^ even
        (d_r2, wedge(d_r2, omega).scale(0.5 + 0.25j), 1),  # odd ^ odd
        (mu_phi, omega, 0),
    ]
    for alpha, beta, deg_alpha in cases:
        lhs = equivariant_D(wedge(alpha, beta), V)
        rhs = wedge(equivariant_D(alpha, V), beta) + wedge(
            alpha, equivariant_D(beta, V)
        ).scale((-1.0) ** deg_alpha)
        assert max_abs(lhs - rhs, pts, phis) < 1e-10


# ---------------------------------------------------------------------------
# exponentials
# ---------------------------------------------------------------------------


def test_exp_form_part_zero_and_2d():
    chart, n, g, omega, V, mu = u1_circle_space()
    e0 = exp_form_part(EquivariantForm.zero(chart, n, g))
    assert set(e0.indexed_terms) == {((), (0,))}
    e_omega = exp_form_part(omega)
    pts = sample_points(5, n, 15)
    phis = np.array([[0.3]])
    diff = e_omega - (EquivariantForm.scalar(chart, n, g, 1.0) + omega)
    assert max_abs(diff, pts, phis) == 0.0


def test_exp_form_part_c2_against_quadrature():
    """exp(omega) on a 4-dim chart with omega = (1 + x1^2) dx1^dy1 + dx2^dy2:
    top term integrates over [0,1]^4 to 4/3 (tensor Gauss-Legendre oracle)."""
    chart, n, g = "c2", 4, 1
    x1 = coord(0)
    omega = EquivariantForm(
        chart,
        n,
        g,
        [
            ((0, 1), add(const(1.0), mul(x1, x1)), PhiPolynomial.constant(g)),
            ((2, 3), 1.0, PhiPolynomial.constant(g)),
        ],
    )
    top = exp_form_part(omega).select_form_degree(4)
    assert set(top.indexed_terms) == {((0, 1, 2, 3), (0,))}
    coeff = top.indexed_terms[((0, 1, 2, 3), (0,))]

    xg, wg = np.polynomial.legendre.leggauss(12)
    xg = 0.5 * (xg + 1.0)
    wg = 0.5 * wg
    grids = np.meshgrid(*([xg] * 4), indexing="ij")
    pts = np.stack([g_.ravel() for g_ in grids], axis=1)
    wgrids = np.meshgrid(*([wg] * 4), indexing="ij")
    weights = np.prod(np.stack([w.ravel() for w in wgrids]), axis=0)
    integral = float(np.real(np.sum(np.asarray(coeff.eval(pts, {})) * weights)))
    # oracle: direct 1-d quadrature of 1 + x^2 on [0,1]
    oracle = float(np.sum((1.0 + xg**2) * wg))
    assert integral == pytest.approx(oracle, rel=1e-12)
    assert integral == pytest.approx(4.0 / 3.0, rel=1e-10)


def test_exp_form_part_rejects_scalar_terms():
    chart, n, g, omega, V, mu = u1_circle_space()
    bad = omega + EquivariantForm.scalar(chart, n, g, mu[0])
    with pytest.raises(InputError, match="form degree"):
        exp_form_part(bad)


# ---------------------------------------------------------------------------
# invariance checker has teeth
# ---------------------------------------------------------------------------


def test_invariance_residual_flags_noninvariant_form():
    chart, n, g, omega, V, mu = u1_circle_space()
    algebra = builtin_algebra("u1")
    bad = EquivariantForm.scalar(chart, n, g, coord(0))  # plain x1 is not invariant
    pts = sample_points(30, n, 16)
    phis = np.array([[1.0], [0.5]])
    assert invariance_residual(bad, V, algebra, pts, phis) > 1e-2


def test_lie_derivative_rotation_kills_radius():
    chart, n, g, omega, V, mu = u1_circle_space()
    r2 = add(mul(coord(0), coord(0)), mul(coord(1), coord(1)))
    lie = lie_derivative(EquivariantForm.scalar(chart, n, g, r2), V.components[0])
    pts = sample_points(20, n, 17)
    assert max_abs(lie, pts, np.array([[1.0]])) < 1e-13
