"""Quadrature over M_r and the phi-reduced Basic Integral.

Expected values are frozen from closed forms derived by hand:

* annulus/disk slab geometry: Lebesgue volumes of {|s - a| <= 2 sqrt(r)}
  in polar coordinates;
* single-plane Basic Integral: substituting h(s) = mu(s) (1 + t s) turns
  the radial integral into a Gaussian antiderivative, giving
  BI = (erf(h(s_hi)/sqrt(2 eps)) - erf(h(s_lo)/sqrt(2 eps))) / 2
  for alpha = 1 on cn_u1(1, 1) at every t >= 0 (monotonicity of h is not
  needed: the fundamental theorem of calculus applies to the signed
  sweep);
* two-plane Basic Integrals: the s-integral of (1 + u) e^{-u^2/(8 eps)}
  and its first moment, giving pi erf(sqrt(r/(2 eps))) for alpha = 1 and
  i (2 pi erf(sqrt(r/(2 eps))) - 2 sqrt(r) sqrt(2 pi/eps) e^{-r/(2 eps)})
  for alpha = <phi, e>;
* surfaces: circle of radius sqrt(s), and the 3-sphere area 2 pi^2 R^3.
"""

import itertools
import json
import logging
import math

import numpy as np
import pytest
from scipy.special import iv

from seed_level import seed_build_surface
from seed_linear import expr_reprs, seed_torus2_space
from seed_path import radial_chunks, seed_basic_integrals, seed_integrand
from space_checks import with_corrupted_moment
from symloc import integrate
from symloc.analysis import DEFAULT_EPSILON_GRID, DEFAULT_T_GRID
from symloc.fields import add, const, coord, mul
from symloc.forms import (
    EquivariantForm,
    equivariant_D,
    exp_form_part,
    exterior_d,
    wedge,
)
from symloc.hamspace import (
    RadialMoment,
    _linear_space,
    _realify,
    catalog,
    catalog_from_string,
    catalog_names_for_validation,
    eta_exprs,
    lambda_form,
)
from symloc.integrate import (
    BasicIntegralRequest,
    BasicIntegralResult,
    _build_surface,
    _index_runs,
    _leggauss,
    _LevelChart,
    _points_on_ray,
    _probe_points,
    _stacked_grids,
    _wsum,
    QuadratureScheme,
    basic_integral,
    basic_integral_batch,
    boundary_integral,
    boundary_surfaces,
    check_alpha,
    integrate_form_on_surface,
    integrate_over_Mr,
    known_critical_values,
    pairing_alpha,
    phi_reduced_integrand,
    sgi_values,
)
from symloc.liealg import (
    AccuracyError,
    InputError,
    NotRegularError,
    PhiPolynomial,
    builtin_algebra,
    shifted_gaussian_integral,
)
from symloc.reduced import zero_level


def annulus():
    return catalog("cn_u1", n=1, a=1.0)


def two_planes():
    return catalog("cn_u1", n=2, a=1.0)


def one_form(space):
    return EquivariantForm.scalar(space.chart_id, space.ambient_dim,
                                  space.algebra.dim, 1.0)


def bi_single_plane_oracle(r, t, eps):
    """Closed form for BI(1, r, t) on cn_u1(1, 1); see module docstring."""
    s_hi = 1.0 + 2.0 * math.sqrt(r)
    s_lo = max(1.0 - 2.0 * math.sqrt(r), 0.0)

    def h(s):
        return 0.5 * (s - 1.0) * (1.0 + t * s)

    c = math.sqrt(2.0 * eps)
    return 0.5 * (math.erf(h(s_hi) / c) - math.erf(h(s_lo) / c))


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def _grid(space, r, level=0):
    """(nodes, weights) of the level-``level`` grid of {|mu|^2 <= r}: the
    stacked grid of one member on the whole slab, every angle node kept."""
    info = space.radial
    return _stacked_grids(info, QuadratureScheme(), level, [[info.s_bounds(r)]], [False])


def test_grid_volume_annulus():
    # Lebesgue area of {|s - 1| <= 0.8} = pi (s_hi - s_lo) = 1.6 pi
    for level in (0, 1):
        nodes, weights = _grid(annulus(), 0.16, level)
        assert weights.sum() == pytest.approx(1.6 * math.pi, rel=1e-12)
        assert nodes.shape[1] == 2


def test_grid_volume_two_planes_and_weighted():
    # volume between the spheres {s = s_lo} and {s = s_hi} is
    # pi^2 (s_hi^2 - s_lo^2) / (2 w1 w2)
    assert _grid(two_planes(), 0.16)[1].sum() == pytest.approx(
        1.6 * math.pi**2, rel=1e-12)
    wsp = catalog("weighted_cn_u1", n=2, weights=(1, 2), a=1.0)
    assert _grid(wsp, 0.16)[1].sum() == pytest.approx(0.8 * math.pi**2, rel=1e-12)


def test_grid_volume_quartic_ball():
    # {|z|^2 <= 4 sqrt(r)}: ball of s-radius 0.8 -> pi^2 0.8^2 / 2
    assert _grid(catalog("c2_su2"), 0.04)[1].sum() == pytest.approx(
        0.32 * math.pi**2, rel=1e-12)


def test_grid_rejects_critical_radius_and_odd_spaces():
    sp = annulus()
    with pytest.raises(NotRegularError):
        basic_integral(BasicIntegralRequest(space=sp, alpha=one_form(sp), r=0.25,
                                            epsilon=0.05))
    with pytest.raises(InputError, match="radial moment norm"):
        boundary_surfaces(catalog("standard_model", preset="u1_w1"), 0.1)


def test_known_critical_values():
    assert known_critical_values(annulus()) == (0.0, 0.25)
    assert known_critical_values(catalog("c2_su2")) == (0.0,)
    sp = catalog("standard_model", preset="u1_w1")
    assert known_critical_values(sp) is None


# the level a of each weighted-plane space; None for c2_su2
_FAMILY_LEVEL = {
    "cn_u1(1,1)": 1.0, "cn_u1(2,1)": 1.0, "weighted_cn_u1(2,(1,2),1)": 1.0, "c2_su2": None,
}


def _family_geometry(name):
    """The per-family s-slab and critical values that RadialMoment
    replaced, kept as the reference: |mu| = |s - a| / 2 on the weighted
    planes, |mu| = s / 4 on c2_su2."""
    a = _FAMILY_LEVEL[name]
    if a is not None:

        def s_bounds(r):
            half = 2.0 * math.sqrt(r)
            return (max(a - half, 0.0), a + half)

        return s_bounds, (0.0, a * a / 4.0)
    return (lambda r: (0.0, 4.0 * math.sqrt(r))), (0.0,)


@pytest.mark.parametrize("name", list(_FAMILY_LEVEL))
def test_radial_moment_matches_the_family_formulas(name):
    sp = catalog_from_string(name)
    s_bounds, crit = _family_geometry(name)

    def bits(xs):
        return [float(x).hex() for x in xs]

    assert bits(known_critical_values(sp)) == bits(crit)
    for r in (0.01, 0.04, 0.16, 0.36, 1.0, 2.5):
        assert bits(sp.radial.s_bounds(r)) == bits(s_bounds(r))


def test_corrupted_moment_has_no_radial_geometry():
    # the leaked x_0 term breaks |mu| = |s - a| / 2: the corrupted space
    # must not be gridded, integrated or meshed with the clean geometry
    sp = with_corrupted_moment(annulus())
    assert sp.radial is None
    assert known_critical_values(sp) is None
    req = BasicIntegralRequest(space=sp, alpha=one_form(sp), r=0.36, epsilon=0.1)
    with pytest.raises(InputError, match="radial moment norm"):
        basic_integral(req)
    with pytest.raises(InputError, match="no closed-form zero-level"):
        zero_level(sp)


@pytest.mark.parametrize(
    "name,build",
    [pytest.param(name, build, id=name)
     for name, build in catalog_names_for_validation()],
)
def test_validation_space_integrates_or_names_its_refusal(name, build):
    # every validation space gives a Basic Integral, or a typed refusal
    # that names why; a space with radial geometry never refuses
    sp = build()
    try:
        (out,) = basic_integral_batch(sp, one_form(sp), [(0.1, 0.1, 0.0)])
    except InputError as exc:
        assert sp.radial is None
        assert "orientation" in str(exc) or "radial moment norm" in str(exc), str(exc)
        return
    assert isinstance(out, BasicIntegralResult)


def test_negative_weights_fold_into_a_negative_level():
    # mu = (-|z|^2 - 1)/2, so |mu| = (s + 1)/2 with s = |z|^2: M_r is the
    # disk s <= 2 sqrt(r) - 1 (empty below r = 1/4), mu never vanishes,
    # and BI(1, r, 0) = (erf((s_hi + 1)/c) - erf(1/c)) / 2, c = 2 sqrt(2 eps)
    sp = catalog("weighted_cn_u1", n=1, weights=(-1,), a=1.0)
    assert sp.radial == RadialMoment((1,), -1.0)
    assert known_critical_values(sp) == (0.25,)
    r, eps = 0.36, 0.1
    s_hi = 2.0 * math.sqrt(r) - 1.0
    c = 2.0 * math.sqrt(2.0 * eps)
    exact = 0.5 * (math.erf((s_hi + 1.0) / c) - math.erf(1.0 / c))
    res = basic_integral(BasicIntegralRequest(space=sp, alpha=one_form(sp), r=r,
                                              epsilon=eps))
    assert exact == pytest.approx(0.0280334, abs=1e-7)
    assert abs(res.value - exact) < 1e-10
    with pytest.raises(InputError, match="is empty"):
        basic_integral(BasicIntegralRequest(space=sp, alpha=one_form(sp), r=0.16,
                                            epsilon=eps))
    with pytest.raises(InputError, match="zero level set .* is empty"):
        zero_level(sp)


# ---------------------------------------------------------------------------
# integrate_over_Mr
# ---------------------------------------------------------------------------


def test_integrate_omega_is_annulus_area():
    sp = annulus()
    res = integrate_over_Mr(sp, sp.omega, 0.16)
    assert res.value == pytest.approx(1.6 * math.pi, abs=1e-10)
    assert res.error < 1e-8


def test_integrate_liouville_volume_two_planes():
    sp = two_planes()
    res = integrate_over_Mr(sp, exp_form_part(sp.omega), 0.16)
    assert res.value == pytest.approx(1.6 * math.pi**2, abs=1e-9)


def test_integrate_zero_form_gives_zero():
    sp = annulus()
    res = integrate_over_Mr(sp, one_form(sp), 0.16)
    assert res.value == 0


def test_integrate_radial_polynomial():
    # int_{M_r} mu^2 omega = pi int_{0.2}^{1.8} ((s-1)/2)^2 ds
    #                      = pi (0.8^3 + 0.8^3) / 12 = pi 1.024 / 12
    sp = annulus()
    mu = sp.moment_star[0]
    res = integrate_over_Mr(sp, sp.omega.scale(mul(mu, mu)), 0.16)
    assert res.value == pytest.approx(math.pi * 1.024 / 12.0, abs=1e-12)


def test_integrate_requires_positive_radius():
    with pytest.raises(InputError):
        integrate_over_Mr(annulus(), annulus().omega, -0.1)


# ---------------------------------------------------------------------------
# shifted-Gaussian vectorization
# ---------------------------------------------------------------------------


def test_sgi_values_matches_pointwise_closed_form():
    rng = np.random.default_rng(11)
    for name in ("u1", "torus(2)", "su2"):
        a = builtin_algebra(name)
        m_arr = rng.standard_normal((12, a.dim))
        for eps in (0.05, 0.3):
            for total in range(5):
                for nu in _multi_indices(a.dim, total):
                    vals = sgi_values(a, nu, m_arr, eps)
                    for k in range(4):
                        p = PhiPolynomial(a.dim, {nu: 1.0})
                        ref = shifted_gaussian_integral(a, p, m_arr[k], eps)
                        assert vals[k] == pytest.approx(ref, rel=1e-12, abs=1e-12)


def _multi_indices(dim, total):
    if dim == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _multi_indices(dim - 1, total - head):
            yield (head,) + rest


def test_sgi_values_input_errors():
    a = builtin_algebra("u1")
    with pytest.raises(InputError):
        sgi_values(a, (2, 1), np.zeros((3, 1)), 0.1)
    with pytest.raises(InputError):
        sgi_values(a, (18,), np.zeros((3, 1)), 0.1)
    with pytest.raises(InputError):
        sgi_values(a, (2,), np.zeros((3, 1)), -0.1)
    with pytest.raises(InputError, match="positive"):
        sgi_values(a, (2,), np.zeros((3, 1)), np.array([0.1, 0.0, 0.2]))
    with pytest.raises(InputError, match="shape"):
        sgi_values(a, (2,), np.zeros((3, 1)), np.array([0.1, 0.2]))


@pytest.mark.parametrize("name", ["u1", "su2"])
def test_sgi_values_at_per_row_eps_is_each_row_at_its_own_eps(name):
    # the eps-only factors are taken per distinct eps with scalar
    # arithmetic, so every row is bit-identical to a call at its eps
    a = builtin_algebra(name)
    rng = np.random.default_rng(5)
    m_arr = rng.standard_normal((40, a.dim))
    eps = rng.choice([0.05, 0.1, 0.3, 1.7], size=40)
    for total in range(5):
        for nu in _multi_indices(a.dim, total):
            got = sgi_values(a, nu, m_arr, eps)
            for k in range(len(eps)):
                want = sgi_values(a, nu, m_arr[k : k + 1], float(eps[k]))[0]
                assert got[k].real.hex() == want.real.hex(), (nu, k)
                assert got[k].imag.hex() == want.imag.hex(), (nu, k)


# ---------------------------------------------------------------------------
# phi reduction: pointwise closed form vs direct phi-quadrature
# ---------------------------------------------------------------------------


def _torus2_space():
    """T^2 acting on C^2 by independent rotations; mu_j = (|z_j|^2 - a_j)/2."""
    return _linear_space(
        "t2_c2", builtin_algebra("torus(2)"),
        [_realify(np.diag([1j, 0])), _realify(np.diag([0, 1j]))],
        (-0.45, -0.55), None, np.array([[-1.2, 1.2]] * 4),
    )


def test_torus2_space_is_the_hand_written_one():
    new, old = _torus2_space(), seed_torus2_space()
    for sp in (new, old):
        assert sp.chart_id == "t2_c2" and sp.radial is None
    assert expr_reprs(new) == expr_reprs(old)
    assert np.array_equal(new.omega_matrix.value, old.omega_matrix.value)
    assert np.array_equal(new.metric.value, old.metric.value)
    assert np.array_equal(new.sample_box, old.sample_box)


def _phi_degree_four_alpha(space):
    """A phi-degree 4 test form (no invariance needed pointwise)."""
    g = space.algebra.dim
    pp = PhiPolynomial(g, {tuple([0] * g): 1.0, tuple([2] + [0] * (g - 1)): 0.7,
                           tuple([4] + [0] * (g - 1)): 0.25})
    return EquivariantForm.scalar(space.chart_id, space.ambient_dim, g, 1.0, pp)


def _direct_parts(space, alpha, t, pts):
    """The pieces of the full integrand at ``pts``, rebuilt from first
    principles: the top-degree terms {nu: values} of the form part
    alpha wedge exp(omega + t d lambda), and the phi-linear phase
    coefficients lin (phase i <phi, lin>), lin = Q mu* + t eta with
    eta_a = <V mu*, V e_a>.  No use of the closed-form reduction."""
    q = space.algebra.inner_product
    nil = space.omega
    if t != 0.0:
        nil = nil + exterior_d(lambda_form(space)).scale(t)
    total = wedge(alpha, exp_form_part(nil))

    cache: dict = {}
    n = pts.shape[0]

    def col(e):
        return np.broadcast_to(np.asarray(e.eval(pts, cache), float), (n,))

    mu = np.stack([col(e) for e in space.moment_star], axis=1)
    lin = mu @ q  # row k: Q mu*(x_k)
    if t != 0.0:
        eta = np.stack([col(e) for e in eta_exprs(space)], axis=1)
        lin = lin + t * eta
    top = tuple(range(space.ambient_dim))
    terms = {nu: vals for (fmi, nu), vals in total.eval_terms(pts, cache).items()
             if fmi == top}
    return terms, lin


def _phi_box(space, eps, n_axis):
    """Gauss-Legendre nodes and weights on [-12/sqrt(eps), 12/sqrt(eps)]."""
    box = 12.0 / math.sqrt(eps)
    x, w = np.polynomial.legendre.leggauss(n_axis)
    return box * x, box * w


def _direct_phi_full(space, alpha, t, eps, pts, n_axis):
    """Tensor Gauss-Legendre phi-integral of the full integrand on the box
    [-12/sqrt(eps), 12/sqrt(eps)]^g, top form component at each point,
    summed over the whole product grid; the Gaussian is
    exp(-(eps/2) <phi, phi>_Q)."""
    g = space.algebra.dim
    q = space.algebra.inner_product
    x, w = _phi_box(space, eps, n_axis)
    grids = np.meshgrid(*([x] * g), indexing="ij")
    ph = np.stack([gr.ravel() for gr in grids], axis=1)
    wg = np.ones(len(ph))
    for axis in range(g):
        wg = wg * np.meshgrid(*([w] * g), indexing="ij")[axis].ravel()
    gauss = np.exp(-0.5 * eps * np.einsum("pg,gh,ph->p", ph, q, ph))
    terms, lin = _direct_parts(space, alpha, t, pts)
    monos = {nu: np.prod(ph ** np.asarray(nu, dtype=float), axis=1) for nu in terms}
    out = np.zeros(pts.shape[0], dtype=complex)
    for k in range(pts.shape[0]):
        phase = np.exp(1j * (ph @ lin[k])) * gauss * wg
        acc = 0j
        for nu, vals in terms.items():
            acc = acc + vals[k] * np.sum(monos[nu] * phase)
        out[k] = acc
    return out


def _direct_phi_quadrature(space, alpha, t, eps, pts, n_axis):
    """_direct_phi_full summed axis by axis: with Q diagonal (every test
    space has Q = I) the phase, the Gaussian, the monomials and the
    weights of the product rule all factor over the phi axes, so by
    Fubini the sum is a product of one-dimensional sums over the same
    nodes and weights."""
    q = space.algebra.inner_product
    assert np.array_equal(q, np.diag(np.diag(q))), "the factorized sum needs a diagonal Q"
    x, w = _phi_box(space, eps, n_axis)
    terms, lin = _direct_parts(space, alpha, t, pts)
    top_power = max(max(nu) for nu in terms)
    axis_sums = []  # per axis: (points, power) -> sum_j x_j^e e^{i x_j lin_a} gauss_j w_j
    for a in range(space.algebra.dim):
        weighted = np.exp(-0.5 * eps * q[a, a] * x * x) * w
        phase = np.exp(1j * np.multiply.outer(lin[:, a], x))
        axis_sums.append(np.stack(
            [phase @ (x**e * weighted) for e in range(top_power + 1)], axis=1))
    out = np.zeros(pts.shape[0], dtype=complex)
    for nu, vals in terms.items():
        prod = np.ones(pts.shape[0], dtype=complex)
        for a, e in enumerate(nu):
            prod = prod * axis_sums[a][:, e]
        out = out + vals * prod
    return out


@pytest.mark.parametrize("t", [0.0, 1.0])
@pytest.mark.parametrize(
    "space_builder,n_axis", [(annulus, 1024), (_torus2_space, 220)], ids=["dim1", "dim2"]
)
def test_factorized_direct_quadrature_is_the_full_sum(space_builder, n_axis, t):
    space = space_builder()
    rng = np.random.default_rng(29)
    lo, hi = space.sample_box[:, 0], space.sample_box[:, 1]
    pts = lo + (hi - lo) * rng.random((12, space.ambient_dim))
    alpha = _phi_degree_four_alpha(space)
    full = _direct_phi_full(space, alpha, t, 0.3, pts, n_axis)
    fact = _direct_phi_quadrature(space, alpha, t, 0.3, pts, n_axis)
    assert np.max(np.abs(fact - full)) <= 1e-12 * np.max(np.abs(full))


@pytest.mark.parametrize(
    "space_builder,n_axis,t_values",
    [
        # t = 10 is only checked in dimension one: at large t the direct
        # quadrature must resolve oscillation frequencies ~ t |eta| even at
        # exponentially damped points, which is affordable only there
        # (GL-512 aliases at 2 nodes/cycle; GL-1024 is clean).
        (annulus, 1024, (0.0, 1.0, 10.0)),
        (_torus2_space, 220, (0.0, 1.0)),
        (lambda: catalog("c2_su2"), 144, (0.0, 1.0)),
    ],
    ids=["dim1", "dim2", "dim3"],
)
def test_phi_exactness_against_direct_quadrature(space_builder, n_axis, t_values):
    space = space_builder()
    eps = 0.3
    rng = np.random.default_rng(29)
    lo, hi = space.sample_box[:, 0], space.sample_box[:, 1]
    pts = lo + (hi - lo) * rng.random((50, space.ambient_dim))
    alpha = _phi_degree_four_alpha(space)
    top = tuple(range(space.ambient_dim))
    for t in t_values:
        f = phi_reduced_integrand(space, alpha, t, eps)
        reduced = f(pts)[top]
        direct = _direct_phi_quadrature(space, alpha, t, eps, pts, n_axis)
        scale = np.max(np.abs(direct))
        # The direct sum carries ~1e-13 * scale of cancellation roundoff,
        # so compare relatively only where it has relative meaning and
        # absolutely (against the global scale) below that.
        live = np.abs(direct) > 1e-6 * scale
        rel = np.max(np.abs(reduced[live] - direct[live]) / np.abs(direct[live]))
        assert rel < 1e-6, f"t={t}: rel={rel}"
        assert np.all(np.abs(reduced[~live] - direct[~live]) <= 1e-9 * scale)


def test_integrand_point_values_single_plane():
    # at mu* = 0 (|z|^2 = 1), alpha = 1, t = 0: the phi-integral is the
    # plain Gaussian normalization sqrt(2 pi / eps) on every component
    sp = annulus()
    eps = 0.05
    z = math.sqrt(2.0 * math.pi / eps)
    vals = phi_reduced_integrand(sp, one_form(sp), 0.0, eps)(np.array([[1.0, 0.0]]))
    assert vals[()][0] == pytest.approx(z, rel=1e-13)
    assert vals[(0, 1)][0] == pytest.approx(z, rel=1e-13)
    # general point: damped by exp(-mu^2 / (2 eps))
    pt = np.array([[1.2, 0.0]])
    mu = 0.5 * (1.44 - 1.0)
    vals = phi_reduced_integrand(sp, one_form(sp), 0.0, eps)(pt)
    assert vals[()][0] == pytest.approx(z * math.exp(-mu**2 / (2 * eps)), rel=1e-13)
    # alpha = <phi, e>: first-moment shift i mu / eps times the alpha = 1 value
    vals_phi = phi_reduced_integrand(sp, pairing_alpha(sp, [1.0]), 0.0, eps)(pt)
    assert vals_phi[()][0] == pytest.approx(vals[()][0] * 1j * mu / eps, rel=1e-12)


# ---------------------------------------------------------------------------
# Basic Integral oracles
# ---------------------------------------------------------------------------


def test_basic_integral_single_plane_t0():
    sp = annulus()
    alpha = one_form(sp)
    for eps in (0.02, 0.05, 0.1, 0.2):
        res = basic_integral(
            BasicIntegralRequest(space=sp, alpha=alpha, r=0.16, epsilon=eps)
        )
        oracle = math.erf(math.sqrt(0.16 / (2.0 * eps)))
        assert res.value.real == pytest.approx(oracle, abs=1e-10)
        assert abs(res.value.imag) <= max(res.error, 1e-12)


@pytest.mark.parametrize(
    "r,t,eps",
    [
        (0.16, 0.5, 0.05),
        (0.16, 1.0, 0.05),
        (0.16, 4.0, 0.02),
        (0.16, 16.0, 0.02),
        (0.36, 2.0, 0.1),   # disk regime: s_lo = 0
        (0.36, 16.0, 0.05),
    ],
)
def test_basic_integral_single_plane_deformed(r, t, eps):
    sp = annulus()
    res = basic_integral(
        BasicIntegralRequest(space=sp, alpha=one_form(sp), r=r, t=t, epsilon=eps)
    )
    assert res.value.real == pytest.approx(bi_single_plane_oracle(r, t, eps),
                                           abs=1e-10)


def test_basic_integral_two_planes_alpha_one():
    sp = two_planes()
    res = basic_integral(
        BasicIntegralRequest(space=sp, alpha=one_form(sp), r=0.16, epsilon=0.05)
    )
    oracle = math.pi * math.erf(math.sqrt(0.16 / 0.1))
    assert res.value.real == pytest.approx(oracle, abs=1e-9)
    assert abs(res.value.imag) <= max(res.error, 1e-12)


def test_basic_integral_two_planes_phi_alpha():
    r, eps = 0.16, 0.05
    sp = two_planes()
    res = basic_integral(
        BasicIntegralRequest(
            space=sp, alpha=pairing_alpha(sp, [1.0]), r=r, epsilon=eps
        )
    )
    oracle = 1j * (
        2.0 * math.pi * math.erf(math.sqrt(r / (2 * eps)))
        - 2.0 * math.sqrt(r) * math.sqrt(2.0 * math.pi / eps)
        * math.exp(-r / (2 * eps))
    )
    assert abs(res.value - oracle) < 1e-9
    assert abs(res.value.real) <= max(res.error, 1e-12)


def test_basic_integral_su2_real_and_finite():
    sp = catalog("c2_su2")
    res = basic_integral(
        BasicIntegralRequest(space=sp, alpha=one_form(sp), r=0.04, epsilon=0.1)
    )
    assert abs(res.value.imag) <= max(res.error, 1e-12)
    assert 0.0 < res.value.real < 10.0


def test_basic_integral_t_continuity():
    sp = annulus()
    base = basic_integral(
        BasicIntegralRequest(space=sp, alpha=one_form(sp), r=0.16, epsilon=0.05)
    )
    bumped = basic_integral(
        BasicIntegralRequest(
            space=sp, alpha=one_form(sp), r=0.16, t=1e-6, epsilon=0.05
        )
    )
    assert abs(bumped.value - base.value) < 1e-4 * abs(base.value)


def test_basic_integral_monotone_convergence():
    sp = two_planes()
    loose = basic_integral(
        BasicIntegralRequest(
            space=sp, alpha=one_form(sp), r=0.16, epsilon=0.05,
            quadrature=QuadratureScheme(rel_tol=1e-5),
        )
    )
    tight = basic_integral(
        BasicIntegralRequest(
            space=sp, alpha=one_form(sp), r=0.16, epsilon=0.05,
            quadrature=QuadratureScheme(rel_tol=5e-6),
        )
    )
    assert abs(tight.value - loose.value) <= max(loose.error, 1e-12)


# ---------------------------------------------------------------------------
# torus collapse of the radial angles
# ---------------------------------------------------------------------------


def x_squared_top_form(space, i):
    """x_i^2 times the Liouville form: not invariant in the plane of x_i."""
    return exp_form_part(space.omega).scale(mul(coord(i), coord(i)))


def test_invariant_integrand_collapses_angles(caplog):
    # levels 0 and 1 on the angle-0 rays: 12^2 + 24^2 = 720 nodes, against
    # 626,688 on the full angular grid
    r, eps = 0.16, 0.05
    sp = two_planes()
    with caplog.at_level(logging.DEBUG, logger="symloc"):
        res = basic_integral(
            BasicIntegralRequest(space=sp, alpha=one_form(sp), r=r, epsilon=eps)
        )
    assert res.n_nodes == 720
    assert res.value.real == pytest.approx(
        math.pi * math.erf(math.sqrt(r / (2 * eps))), abs=1e-10
    )
    assert "angles collapsed" in caplog.text
    assert "8 sample nodes" in caplog.text


def test_su2_deformed_integrand_collapses_angles():
    sp = catalog("c2_su2")
    res = basic_integral(
        BasicIntegralRequest(space=sp, alpha=one_form(sp), r=0.04, t=4.0,
                             epsilon=0.05)
    )
    assert res.n_nodes == 720


@pytest.mark.parametrize("coord_index", [0, 2], ids=["x1", "x3"])
def test_non_invariant_integrand_keeps_angular_grid(coord_index, caplog):
    # int x_i^2 over {0.2 <= s <= 1.8} in C^2 = pi^2 (1.8^3 - 0.2^3) / 12;
    # x3^2 is invariant in plane 1 only, which must not collapse either
    sp = two_planes()
    with caplog.at_level(logging.DEBUG, logger="symloc"):
        res = integrate_over_Mr(sp, x_squared_top_form(sp, coord_index), 0.16)
    assert res.n_nodes == 626_688
    assert res.value == pytest.approx(
        math.pi**2 * (1.8**3 - 0.2**3) / 12.0, abs=1e-12
    )
    assert "full angular grid" in caplog.text


# ---------------------------------------------------------------------------
# batches: one integrand plan, members evaluated together per level
# ---------------------------------------------------------------------------

_BATCH_SPACES = ["cn_u1(1,1)", "cn_u1(2,1)", "weighted_cn_u1(2,(1,2),1)", "c2_su2"]


def _contribution_points():
    """The exact point list that contribution(cn_u1(1,1), 1, [0.05, 0.1],
    t <= 64, max_level=6) -- a benchmark operation -- hands to
    basic_integral_batch: 54 members."""
    import symloc.analysis as A

    class Seen(Exception):
        pass

    def record(space, alpha, points, quadrature=None):
        raise Seen(list(points))

    sp = catalog_from_string("cn_u1(1,1)")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(A, "basic_integral_batch", record)
        with pytest.raises(Seen) as seen:
            A.contribution(sp, one_form(sp), 1, [0.05, 0.1], t_grid=_T_TO_64,
                           quadrature=QuadratureScheme(max_level=6))
    (points,) = seen.value.args
    return points


_T_TO_64 = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def _batch_points(name, kind):
    if kind == "contribution":
        return _contribution_points()
    r_out, r_in = (0.04, 0.02) if name == "c2_su2" else (0.36, 0.16)
    if kind == "plateau":  # one large_t_limit
        return [(r_out, 0.1, t) for t in DEFAULT_T_GRID]
    if kind == "probes":  # contribution: t-major, upper probe first
        return [(rad, e, t) for e in (0.05, 0.1) for t in DEFAULT_T_GRID
                for rad in (r_out, r_in)]
    if kind == "eps_grid":  # a fixed-t epsilon_sweep
        return [(r_in, e, 0.0) for e in DEFAULT_EPSILON_GRID]
    return [(r_in, 0.05, 4.0)]


def _same_outcome(got, ref, t):
    """A batch member ended as the one-at-a-time evaluation did: the same
    AccuracyError message, or the same nodes and level and a value that is
    bit-identical at t = 0 and within 1e-15 relative otherwise."""
    assert isinstance(got, AccuracyError) == isinstance(ref, AccuracyError)
    if isinstance(ref, AccuracyError):
        assert str(got) == str(ref)
        return
    assert (got.n_nodes, got.level) == (ref.n_nodes, ref.level)
    if t == 0.0:
        assert [x.hex() for x in (got.value.real, got.value.imag, got.error)] == [
            x.hex() for x in (ref.value.real, ref.value.imag, ref.error)
        ]
    else:
        assert abs(got.value - ref.value) <= 1e-15 * abs(ref.value)


_BATCH_CASES = [
    pytest.param(name, kind, max_level, id=f"{name}-{kind}-{label}")
    for name in _BATCH_SPACES
    for kind in ["plateau", "probes", "eps_grid", "single_t"]
    for max_level, label in [(3, "default"), (1, "forced_failures")]
] + [
    # the batch of a benchmark contribution, at its max_level and forced short
    pytest.param("cn_u1(1,1)", "contribution", max_level,
                 id=f"cn_u1(1,1)-contribution-{label}")
    for max_level, label in [(6, "max_level_6"), (1, "forced_failures")]
]


@pytest.mark.parametrize("name, kind, max_level", _BATCH_CASES)
def test_batch_matches_one_request_at_a_time(name, kind, max_level):
    sp = catalog_from_string(name)
    alpha = one_form(sp)
    scheme = QuadratureScheme(max_level=max_level)
    points = _batch_points(name, kind)
    got = basic_integral_batch(sp, alpha, points, scheme)
    ref = seed_basic_integrals(sp, alpha, points, scheme)
    assert len(got) == len(points)
    for (_, _, t), g, want in zip(points, got, ref):
        _same_outcome(g, want, t)
    settled = [g for g in got if not isinstance(g, AccuracyError)]
    # one wall time for the whole batch
    assert len({g.wall_time for g in settled}) <= 1


def test_forced_failures_hit_some_members_only():
    # max_level=1 leaves members on both sides, so the comparison above
    # sees failures and results side by side
    sp = catalog_from_string("cn_u1(1,1)")
    got = basic_integral_batch(sp, one_form(sp), _batch_points("cn_u1(1,1)", "probes"),
                               QuadratureScheme(max_level=1))
    failed = sum(isinstance(g, AccuracyError) for g in got)
    assert 0 < failed < len(got)


def _torus_breaking_alpha(space):
    """Re(z1 conj z2)^2 as a function: invariant under the diagonal circle
    only, so the probe keeps the full angular grid."""
    re = add(mul(coord(0), coord(2)), mul(coord(1), coord(3)))
    return EquivariantForm.scalar(space.chart_id, space.ambient_dim, space.algebra.dim,
                                  mul(re, re))


def test_batch_members_beyond_one_chunk_run_alone(monkeypatch):
    # level 1 of the full angular grid is 16 chunks of 1024 nodes: those
    # members run chunk by chunk, the level-0 grids (one chunk) together
    monkeypatch.setattr(integrate, "_CHUNK_NODES", 1024)
    sp = two_planes()
    alpha = _torus_breaking_alpha(sp)
    scheme = QuadratureScheme(base_radial=4, base_angular=8, max_level=1, rel_tol=1e-3)
    points = [(0.16, 0.05, 0.0), (0.16, 0.1, 0.0), (0.36, 0.1, 1.0)]
    got = basic_integral_batch(sp, alpha, points, scheme)
    ref = seed_basic_integrals(sp, alpha, points, scheme)
    for (_, _, t), g, want in zip(points, got, ref):
        _same_outcome(g, want, t)
    assert any(not isinstance(g, AccuracyError) and g.n_nodes == 1024 + 16384
               for g in got)


def test_mixed_batch_of_chunked_and_small_members(monkeypatch):
    # alpha = 1 + 3e-12 Re(z1 conj z2)^2 puts the torus probe's relative
    # residual near its 1e-12 bound: members whose support reaches large
    # radii keep the full angular grid, 4 chunks of 1024 nodes at level 0
    # and 64 at level 1, while the others collapse it and share one block
    monkeypatch.setattr(integrate, "_CHUNK_NODES", 1024)
    sp = two_planes()
    re = add(mul(coord(0), coord(2)), mul(coord(1), coord(3)))
    alpha = EquivariantForm.scalar(sp.chart_id, sp.ambient_dim, sp.algebra.dim,
                                   add(const(1.0), mul(const(3e-12), mul(re, re))))
    scheme = QuadratureScheme(base_radial=8, base_angular=8, max_level=2, rel_tol=1e-3)
    points = [(0.36, e, t) for t in (0.0, 1.0, 4.0, 16.0) for e in (0.05, 0.2)]
    got = basic_integral_batch(sp, alpha, points, scheme)
    ref = seed_basic_integrals(sp, alpha, points, scheme)
    for (_, _, t), g, want in zip(points, got, ref):
        _same_outcome(g, want, t)
    nodes = [g.n_nodes for g in got if not isinstance(g, AccuracyError)]
    assert 4096 + 65536 in nodes and 64 + 256 + 1024 in nodes


@pytest.mark.parametrize("space", [annulus(), two_planes(), catalog_from_string("c2_su2")],
                         ids=["one_plane", "two_planes", "c2_su2"])
@pytest.mark.parametrize("level", [0, 2])
def test_stacked_grids_are_the_member_grids_node_for_node(space, level):
    info = space.radial
    s_lo, s_hi = info.s_bounds(0.16 if space.ambient_dim == 2 else 0.04)
    mid = 0.5 * (s_lo + s_hi)
    supports = [[(s_lo, s_hi)], [(s_lo, mid - 0.01), (mid + 0.01, s_hi)], [(s_lo, mid)]]
    invariant = [True, False, False]
    scheme = QuadratureScheme(base_radial=4, base_angular=8)
    pts, wts = _stacked_grids(info, scheme, level, supports, invariant)
    want = [next(radial_chunks(info, level, scheme, sup, inv, 1 << 40))
            for sup, inv in zip(supports, invariant)]
    assert np.array_equal(pts, np.concatenate([p for p, _ in want]))
    assert np.array_equal(wts, np.concatenate([w for _, w in want]))
    # a span of one member's grid, its ends inside radial rows
    for (p_ref, w_ref), sup, inv in zip(want, supports, invariant):
        n = len(w_ref)
        for start, stop in [(0, n), (3, n - 5), (n // 3 + 1, n // 2 + 7)]:
            p, w = _stacked_grids(info, scheme, level, [sup], [inv], (start, stop))
            assert np.array_equal(p, p_ref[start:stop]) and np.array_equal(w, w_ref[start:stop])
    with pytest.raises(InputError, match="empty integration region"):
        _stacked_grids(info, scheme, level, [[(s_lo, s_hi)], [(mid, mid)]], [True, True])


def _probe_points_loop(info, s_intervals):
    """One member's torus probe as the per-member loop drew it, kept as the
    reference for the batched _probe_points."""
    rng = np.random.default_rng(0)
    base = np.concatenate([
        _points_on_ray(info, rng.uniform(lo, hi, 8), rng.uniform(0.0, 1.0, 8))
        for lo, hi in s_intervals
    ])
    angles = rng.uniform(0.0, 2.0 * np.pi, (base.shape[0], info.planes))
    rotated = np.empty_like(base)
    rotated[:, 0::2] = base[:, 0::2] * np.cos(angles)
    rotated[:, 1::2] = base[:, 0::2] * np.sin(angles)
    return base, rotated


@pytest.mark.parametrize("space", [annulus(), two_planes()], ids=["one_plane", "two_planes"])
def test_probe_points_are_each_members_own_draws(space):
    info = space.radial
    supports = [[(0.2, 1.8)], [(0.2, 0.7), (1.1, 1.8)], [(0.5, 0.9)], [(0.1, 0.3), (0.4, 0.5)]]
    base, rotated, counts = _probe_points(info, supports)
    assert counts == [8, 16, 8, 16]
    want = [_probe_points_loop(info, sup) for sup in supports]
    assert np.array_equal(base, np.concatenate([b for b, _ in want]))
    assert np.array_equal(rotated, np.concatenate([r for _, r in want]))


def test_plan_contracts_once_per_block_not_per_member(monkeypatch):
    # every member of a plateau lives through both levels, and each level's
    # grids (and the torus probes) fit one block: the Gaussian moments are
    # taken as often for eighteen members as for one
    import symloc.integrate as I

    calls = []
    sgi = I.sgi_values
    monkeypatch.setattr(I, "sgi_values", lambda *a: calls.append(a) or sgi(*a))
    sp = annulus()
    scheme = QuadratureScheme(max_level=1)
    counts = []
    for points in ([(0.36, 0.1, 4.0)],
                   [(0.36, e, t) for e in (0.05, 0.1) for t in DEFAULT_T_GRID]):
        calls.clear()
        basic_integral_batch(sp, one_form(sp), points, scheme)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_batch_checks_every_point():
    sp = annulus()
    alpha = one_form(sp)
    assert basic_integral_batch(sp, alpha, []) == []
    with pytest.raises(InputError, match="epsilon must be positive"):
        basic_integral_batch(sp, alpha, [(0.16, 0.05, 0.0), (0.16, 0.0, 0.0)])
    with pytest.raises(InputError, match="nonnegative"):
        basic_integral_batch(sp, alpha, [(0.16, 0.05, -1.0)])
    with pytest.raises(InputError, match="request's space"):
        basic_integral_batch(two_planes(), alpha, [(0.16, 0.05, 0.0)])


@pytest.mark.parametrize("name", _BATCH_SPACES)
def test_phi_reduced_integrand_at_t0_is_the_seed_integrand(name):
    sp = catalog_from_string(name)
    lo, hi = sp.sample_box[:, 0], sp.sample_box[:, 1]
    pts = lo + (hi - lo) * np.random.default_rng(3).random((200, sp.ambient_dim))
    beta = EquivariantForm.dx(sp.chart_id, sp.ambient_dim, sp.algebra.dim, 0, coord(1))
    for alpha in (one_form(sp), _phi_degree_four_alpha(sp), pairing_alpha(sp, [1.0] * sp.algebra.dim),
                  equivariant_D(beta, sp.action)):
        for eps in (0.05, 0.3):
            got = phi_reduced_integrand(sp, alpha, 0.0, eps)
            want = seed_integrand(sp, alpha, 0.0, eps)
            g, w = got(pts), want(pts)
            assert list(g) == list(w)
            for fmi in w:
                assert np.array_equal(g[fmi], w[fmi]), fmi
            assert np.array_equal(got._damp_profile(pts), want._damp_profile(pts))
            # t > 0: the same forms and shift, summed in another order
            g, w = (f(pts) for f in (phi_reduced_integrand(sp, alpha, 2.0, eps),
                                     seed_integrand(sp, alpha, 2.0, eps)))
            assert sorted(g) == sorted(w)
            scale = max(float(np.max(np.abs(v))) for v in w.values())
            for fmi in w:
                assert np.max(np.abs(g[fmi] - w[fmi])) <= 1e-13 * scale


def test_library_logger_is_silent_by_default():
    handlers = logging.getLogger("symloc").handlers
    assert any(isinstance(h, logging.NullHandler) for h in handlers)


def test_basic_integral_validation_paths():
    sp = annulus()
    alpha = one_form(sp)
    with pytest.raises(NotRegularError):
        basic_integral(BasicIntegralRequest(space=sp, alpha=alpha, r=0.25,
                                            epsilon=0.05))
    with pytest.raises(InputError):
        BasicIntegralRequest(space=sp, alpha=alpha, r=0.16, epsilon=-0.05)
    with pytest.raises(InputError):
        BasicIntegralRequest(space=sp, alpha=alpha, r=0.16, epsilon=0.05, t=-1.0)
    # a bare dy is not invariant under the rotation action
    bad = EquivariantForm.dx(sp.chart_id, 2, 1, 1)
    with pytest.raises(InputError):
        basic_integral(BasicIntegralRequest(space=sp, alpha=bad, r=0.16,
                                            epsilon=0.05))
    report = check_alpha(sp, bad)
    assert not report["ok"]
    assert report["invariance_residual"] > 1e-3


def test_radial_paths_refuse_three_planes():
    # the typed refusal comes before the support scan, which would unpack
    # two plane weights; the boundary surfaces and the zero level share the
    # same check
    sp = catalog("cn_u1", n=3, a=1.0)
    req = BasicIntegralRequest(space=sp, alpha=one_form(sp), r=0.16, epsilon=0.05)
    for build in (
        lambda: basic_integral(req),
        lambda: boundary_surfaces(sp, 0.16),
        lambda: zero_level(sp),
    ):
        with pytest.raises(InputError, match="1 or 2 planes, got 3"):
            build()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rel_tol": math.nan},
        {"abs_tol": math.inf},
        {"rel_tol": 0.0},
        {"base_angular": math.nan},
        {"base_radial": 2.5},
        {"base_radial": 1},
        {"max_level": 2.0},
    ],
    ids=repr,
)
def test_bad_quadrature_schemes_are_refused(kwargs):
    with pytest.raises(InputError):
        QuadratureScheme(**kwargs)


@pytest.mark.parametrize("level", [-1, 2.5, True])
def test_bad_surface_levels_are_refused(level):
    sp = catalog("cn_u1", n=2, a=1.0)
    with pytest.raises(InputError, match="level must be an integer"):
        boundary_surfaces(sp, 0.36, level)


def _exp_x_dy(pts, cache=None):
    return {(1,): np.exp(5.0 * pts[:, 0]).astype(complex)}


@pytest.mark.parametrize("path", ["radial", "boundary"])
def test_accuracy_error_carries_partial_value(path):
    # A tolerance no level can meet uses up every level of each path.
    sp = annulus()
    scheme = QuadratureScheme(rel_tol=1e-16, abs_tol=1e-300, max_level=1)
    with pytest.raises(AccuracyError) as exc:
        if path == "boundary":
            boundary_integral(sp, _exp_x_dy, 0.16, scheme)
        else:
            basic_integral(
                BasicIntegralRequest(space=sp, alpha=one_form(sp), r=0.16,
                                     epsilon=0.012, quadrature=scheme)
            )
    if path == "boundary":
        # Stokes: the integral of e^{5x} dy over a circle of radius R is
        # the disk integral of 5 e^{5x}, 2 pi R I_1(5R); the inner circle
        # of the annulus {|s - 1| <= 0.8} enters with the opposite sign.
        r_out, r_in = math.sqrt(1.8), math.sqrt(0.2)
        oracle = 2.0 * math.pi * (r_out * iv(1, 5.0 * r_out) - r_in * iv(1, 5.0 * r_in))
        rel = 1e-12
    else:
        # the partial value is the unnormalized region integral
        k = sp.algebra.group_volume * (2.0 * math.pi) ** sp.algebra.dim
        oracle = k * math.erf(math.sqrt(0.16 / 0.024))
        rel = 1e-2
    err = exc.value
    assert abs(err.partial - oracle) < rel * abs(oracle)
    assert math.isfinite(err.estimate) and err.estimate > 0.0
    assert f"last error estimate {err.estimate:g}" in str(err)
    assert str(err).startswith(f"{path} quadrature on cn_u1(1,1)")


def test_wsum_is_exactly_rounded_and_order_free():
    values = np.array([1e16, 1.0, -1e16, 1.0]) * (1.0 - 2.0j)
    weights = np.ones(4)
    # plain summation loses both small terms of each part
    assert np.sum(values.real * weights) != 2.0
    exact = complex(
        math.fsum((values.real * weights).tolist()),
        math.fsum((values.imag * weights).tolist()),
    )
    assert exact == complex(2.0, -4.0)
    for perm in itertools.permutations(range(4)):
        got = _wsum(values[list(perm)], weights[list(perm)])
        assert (got.real.hex(), got.imag.hex()) == (exact.real.hex(), exact.imag.hex())


def test_phi_degree_cap_enforced():
    sp = annulus()
    pp = PhiPolynomial(1, {(18,): 1.0})
    alpha = EquivariantForm.scalar(sp.chart_id, 2, 1, 1.0, pp)
    with pytest.raises(InputError):
        phi_reduced_integrand(sp, alpha, 0.0, 0.05)


def test_request_and_result_serialize():
    sp = annulus()
    req = BasicIntegralRequest(space=sp, alpha=one_form(sp), r=0.16, epsilon=0.05)
    blob = json.dumps(req.to_json_dict(), sort_keys=True)
    assert "cn_u1(1,1)" in blob
    res = basic_integral(req)
    rec = json.loads(res.to_json())
    assert rec["value"][0] == res.value.real
    assert rec["n_nodes"] == res.n_nodes


# ---------------------------------------------------------------------------
# surfaces, boundary, Stokes
# ---------------------------------------------------------------------------


def test_level_surface_measures():
    # circle of radius sqrt(1.8) (the outer shell of r = 0.16); 3-sphere of
    # radius 1 has area 2 pi^2.  The induced measure of a chart is
    # sqrt(det J^T J) times the parameter weight.
    def area(grid):
        jtj = np.einsum("nij,nik->njk", grid.jac, grid.jac)
        return float(np.sum(np.sqrt(np.linalg.det(jtj)) * grid.weights))

    outer, _ = boundary_surfaces(annulus(), 0.16, level=1)
    assert outer.s_value == pytest.approx(1.8)
    assert area(outer) == pytest.approx(2.0 * math.pi * math.sqrt(1.8), rel=1e-12)
    sphere = _build_surface(two_planes().radial, 1.0, 1, QuadratureScheme(), +1)
    assert area(sphere) == pytest.approx(2.0 * math.pi**2, rel=1e-12)


def test_boundary_components_annulus_vs_disk():
    sp = annulus()
    comps = boundary_surfaces(sp, 0.16)
    assert [c.s_value for c in comps] == pytest.approx([1.8, 0.2])
    comps = boundary_surfaces(sp, 0.36)  # disk: inner circle degenerates away
    assert [c.s_value for c in comps] == pytest.approx([2.2])


def test_plain_stokes_on_annulus():
    # beta = x dy: d beta = dx ^ dy, so both sides equal the area 1.6 pi
    sp = annulus()
    beta = EquivariantForm.dx(sp.chart_id, 2, 1, 1, coord(0))
    bulk = integrate_over_Mr(sp, exterior_d(beta), 0.16)
    bdry = boundary_integral(sp, beta, 0.16)
    assert bulk.value == pytest.approx(1.6 * math.pi, abs=1e-10)
    assert bdry.value == pytest.approx(1.6 * math.pi, abs=1e-10)


@pytest.mark.parametrize("t", [0.0, 0.7])
def test_equivariant_stokes_identity(t):
    """Bulk integral of D(beta) e^S equals the boundary integral of the
    (d-1)-degree part of beta e^S: D annihilates the exponent (closed
    equivariant extension, invariant lambda), so Leibniz plus ordinary
    Stokes in top degree gives the identity."""
    sp = annulus()
    eps = 0.05
    beta = EquivariantForm.dx(sp.chart_id, 2, 1, 1, coord(0))  # x dy
    d_beta = equivariant_D(beta, sp.action)
    bulk = integrate_over_Mr(sp, phi_reduced_integrand(sp, d_beta, t, eps), 0.16)
    bdry = boundary_integral(sp, phi_reduced_integrand(sp, beta, t, eps), 0.16)
    assert abs(bulk.value - bdry.value) < 1e-8 * abs(bdry.value)


def test_equivariant_stokes_phi_dependent_witness():
    sp = annulus()
    eps = 0.05
    base = EquivariantForm.dx(sp.chart_id, 2, 1, 1, coord(0))
    beta = wedge(pairing_alpha(sp, [1.0]), base)  # <phi, e> x dy
    d_beta = equivariant_D(beta, sp.action)
    bulk = integrate_over_Mr(sp, phi_reduced_integrand(sp, d_beta, 0.0, eps), 0.16)
    bdry = boundary_integral(sp, phi_reduced_integrand(sp, beta, 0.0, eps), 0.16)
    assert abs(bulk.value - bdry.value) < 1e-8 * max(abs(bdry.value), 1e-6)


def test_surface_form_integration_orientation():
    # integral over the outer circle of x dy - y dx = 2 * area = 2 pi s
    sp = annulus()
    comps = boundary_surfaces(sp, 0.16)
    outer = comps[0]
    x = outer.nodes[:, 0]
    y = outer.nodes[:, 1]
    val = integrate_form_on_surface(outer, {(1,): x, (0,): -y})
    assert val == pytest.approx(2.0 * math.pi * 1.8, rel=1e-12)


# ---------------------------------------------------------------------------
# the surfaces on the level chart against their own former parametrization
# (tests/seed_level.py)
# ---------------------------------------------------------------------------

_SURFACE_SPACES = [
    "cn_u1(1,1)",
    "weighted_cn_u1(1,(2,),1)",
    "cn_u1(2,1)",
    "weighted_cn_u1(2,(1,2),1)",
]


def _surface_pairs(space, level, scheme):
    """(SurfaceGrid, seed surface) on {s = 1} as an outer shell and on both
    shells of the annulus r = 0.16 (s = 1.8 outward, s = 0.2 inward)."""
    info = space.radial
    grid = _build_surface(info, 1.0, level, scheme, +1)
    yield grid, seed_build_surface(info, 1.0, level, scheme, +1)
    for grid, outward in zip(boundary_surfaces(space, 0.16, level, scheme), (1, -1)):
        yield grid, seed_build_surface(info, grid.s_value, level, scheme, outward)


@pytest.mark.parametrize("level", range(4))
@pytest.mark.parametrize("spec", _SURFACE_SPACES)
def test_surfaces_match_their_former_parametrization(spec, level):
    # the default angle counts 16 * 2^k are powers of two, where the
    # chart's k * (2 pi / n) and the former 2 pi * k / n agree exactly
    sp = catalog_from_string(spec)
    pairs = list(_surface_pairs(sp, level, QuadratureScheme()))
    assert len(pairs) == 3
    for grid, (nodes, jac, weights, sign) in pairs:
        assert np.array_equal(grid.nodes, nodes)
        assert np.array_equal(grid.jac, jac)
        assert np.array_equal(grid.weights, weights)
        assert grid.orient_sign == sign


@pytest.mark.parametrize("spec", _SURFACE_SPACES)
def test_surfaces_at_twelve_angles_move_by_one_angle_ulp(spec):
    # at n = 12, 24, 48 angles k * (2 pi / n) and 2 pi * k / n differ on a
    # few nodes by one unit in the last place of the angle (at n = 12 on 2
    # of the 12 nodes, by at most 8.9e-16); nodes and Jacobian entries move
    # by at most the radius times that, plus their own rounding
    sp = catalog_from_string(spec)
    scheme = QuadratureScheme(base_angular=12)
    for level in range(3):
        n_ang = 12 * (1 << level)
        ang = _LevelChart((1, 1), 1.0, 4, n_ang).axes[1]
        former = 2.0 * np.pi * np.arange(n_ang) / n_ang
        shift = np.abs(ang - former)
        assert np.all(shift <= np.spacing(former))
        if level == 0:
            assert np.count_nonzero(shift) == 2 and shift.max() <= 8.9e-16
        for grid, (nodes, jac, weights, sign) in _surface_pairs(sp, level, scheme):
            radius = math.sqrt(grid.s_value / min(sp.radial.weights))
            bound = radius * (shift.max() + 4.0 * np.finfo(float).eps)
            assert np.max(np.abs(grid.nodes - nodes)) <= bound
            assert np.max(np.abs(grid.jac - jac)) <= bound
            assert np.array_equal(grid.weights, weights)
            assert grid.orient_sign == sign


@pytest.mark.parametrize("n", [1, 4, 17, 96])
def test_leggauss_is_cached_and_read_only(n):
    x, w = _leggauss(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    again = _leggauss(n)
    assert again[0] is x and again[1] is w
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def _index_runs_loop(idx):
    """The run detection _index_runs replaced, kept as the reference."""
    runs = []
    start = prev = idx[0]
    for i in idx[1:]:
        if i > prev + 8:
            runs.append((start, prev))
            start = i
        prev = i
    runs.append((start, prev))
    return runs


def _masks():
    rng = np.random.default_rng(20)
    for density in (0.02, 0.1, 0.5, 0.9, 0.99):
        for _ in range(8):
            yield rng.random(2049) < density
    for gap in (8, 9):
        mask = np.zeros(2049, dtype=bool)
        mask[100:200] = True
        mask[199 + gap : 400] = True
        yield mask
    single = np.zeros(2049, dtype=bool)
    single[1234] = True
    yield single
    edges = np.ones(2049, dtype=bool)
    edges[[0, -1]] = False
    yield edges


def test_index_runs_match_the_loop():
    n_masks = 0
    for mask in _masks():
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            continue
        starts, ends = _index_runs(idx)
        assert list(zip(starts.tolist(), ends.tolist())) == [
            (int(a), int(b)) for a, b in _index_runs_loop(idx)
        ]
        n_masks += 1
    assert n_masks == 44
    # a gap of 8 indices merges two runs, a gap of 9 splits them
    gap8, gap9 = list(_masks())[40:42]
    assert len(_index_runs(np.nonzero(gap8)[0])[0]) == 1
    assert len(_index_runs(np.nonzero(gap9)[0])[0]) == 2
