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

from symloc.fields import MatConst, add, const, coord, mul
from symloc.forms import (
    EquivariantForm,
    VectorFieldFamily,
    equivariant_D,
    exp_form_part,
    exterior_d,
    wedge,
)
from symloc.hamspace import (
    HamiltonianSpace,
    catalog,
    eta_exprs,
    lambda_form,
)
from symloc.integrate import (
    BasicIntegralRequest,
    _index_runs,
    _leggauss,
    _wsum,
    QuadratureScheme,
    basic_integral,
    boundary_integral,
    boundary_surfaces,
    check_alpha,
    integrand_phi_reduce,
    integrate_form_on_surface,
    integrate_over_Mr,
    known_critical_values,
    level_surface,
    pairing_alpha,
    phi_reduced_integrand,
    radial_grid,
    sgi_values,
    surface_measure,
)
from symloc.liealg import (
    AccuracyError,
    InputError,
    NotRegularError,
    PhiPolynomial,
    builtin_algebra,
    shifted_gaussian_integral,
)


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


def test_grid_volume_annulus():
    # Lebesgue area of {|s - 1| <= 0.8} = pi (s_hi - s_lo) = 1.6 pi
    sp = annulus()
    for level in (0, 1):
        g = radial_grid(sp, 0.16, level=level)
        assert g.weights.sum() == pytest.approx(1.6 * math.pi, rel=1e-12)
        assert g.nodes.shape[1] == 2


def test_grid_volume_two_planes_and_weighted():
    # volume between the spheres {s = s_lo} and {s = s_hi} is
    # pi^2 (s_hi^2 - s_lo^2) / (2 w1 w2)
    g = radial_grid(two_planes(), 0.16)
    assert g.weights.sum() == pytest.approx(1.6 * math.pi**2, rel=1e-12)
    wsp = catalog("weighted_cn_u1", n=2, weights=(1, 2), a=1.0)
    g = radial_grid(wsp, 0.16)
    assert g.weights.sum() == pytest.approx(0.8 * math.pi**2, rel=1e-12)


def test_grid_volume_quartic_ball():
    # {|z|^2 <= 4 sqrt(r)}: ball of s-radius 0.8 -> pi^2 0.8^2 / 2
    g = radial_grid(catalog("c2_su2"), 0.04)
    assert g.weights.sum() == pytest.approx(0.32 * math.pi**2, rel=1e-12)


def test_grid_rejects_critical_radius_and_odd_spaces():
    with pytest.raises(NotRegularError):
        radial_grid(annulus(), 0.25)
    with pytest.raises(InputError):
        radial_grid(catalog("standard_model", preset="u1_w1"), 0.1)


def test_known_critical_values():
    assert known_critical_values(annulus()) == (0.0, 0.25)
    assert known_critical_values(catalog("c2_su2")) == (0.0,)
    sp = catalog("standard_model", preset="u1_w1")
    assert known_critical_values(sp) is None


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


# ---------------------------------------------------------------------------
# phi reduction: pointwise closed form vs direct phi-quadrature
# ---------------------------------------------------------------------------


def _torus2_space():
    """T^2 acting on C^2 by independent rotations; mu_j = (|z_j|^2 - a_j)/2."""
    algebra = builtin_algebra("torus(2)")
    chart = "t2_c2"
    omega = EquivariantForm(
        chart, 4, 2,
        [((0, 1), 1.0, PhiPolynomial.constant(2)),
         ((2, 3), 1.0, PhiPolynomial.constant(2))],
    )
    zero = const(0.0)
    action = VectorFieldFamily(
        chart,
        [
            [mul(const(-1.0), coord(1)), coord(0), zero, zero],
            [zero, zero, mul(const(-1.0), coord(3)), coord(2)],
        ],
    )
    mus = [
        add(mul(const(0.5), coord(0), coord(0)),
            mul(const(0.5), coord(1), coord(1)), const(-0.45)),
        add(mul(const(0.5), coord(2), coord(2)),
            mul(const(0.5), coord(3), coord(3)), const(-0.55)),
    ]
    om = np.zeros((4, 4))
    om[0, 1] = om[2, 3] = 1.0
    om[1, 0] = om[3, 2] = -1.0
    return HamiltonianSpace(
        name="t2_c2",
        algebra=algebra,
        chart_id=chart,
        ambient_dim=4,
        omega=omega,
        omega_matrix=MatConst(om),
        action=action,
        moment_star=mus,
        metric=MatConst(np.eye(4)),
        sample_box=np.array([[-1.2, 1.2]] * 4),
    )


def _direct_phi_quadrature(space, alpha, t, eps, pts, n_axis):
    """Tensor Gauss-Legendre phi-integral of the full integrand on the box
    [-12/sqrt(eps), 12/sqrt(eps)]^g, top form component at each point.

    Rebuilt from first principles: the phi-linear phase is
    i <mu*, phi>_Q + i t sum_a phi^a eta_a with eta_a = <V mu*, V e_a>,
    the form part is alpha wedge exp(omega + t d lambda), and the Gaussian
    is exp(-(eps/2) <phi, phi>_Q).  No use of the closed-form reduction."""
    g = space.algebra.dim
    q = space.algebra.inner_product
    box = 12.0 / math.sqrt(eps)
    x, w = np.polynomial.legendre.leggauss(n_axis)
    x = box * x
    w = box * w
    grids = np.meshgrid(*([x] * g), indexing="ij")
    ph = np.stack([gr.ravel() for gr in grids], axis=1)
    wg = np.ones(len(ph))
    for axis in range(g):
        wg = wg * np.meshgrid(*([w] * g), indexing="ij")[axis].ravel()
    gauss = np.exp(-0.5 * eps * np.einsum("pg,gh,ph->p", ph, q, ph))

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
    term_vals = total.eval_terms(pts, cache)
    top = tuple(range(space.ambient_dim))
    monos = {}
    for (fmi, nu) in term_vals:
        if fmi == top and nu not in monos:
            monos[nu] = np.prod(ph ** np.asarray(nu, dtype=float), axis=1)
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        phase = np.exp(1j * (ph @ lin[k])) * gauss * wg
        acc = 0j
        for (fmi, nu), vals in term_vals.items():
            if fmi != top:
                continue
            acc = acc + vals[k] * np.sum(monos[nu] * phase)
        out[k] = acc
    return out


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
    g = space.algebra.dim
    eps = 0.3
    rng = np.random.default_rng(29)
    lo, hi = space.sample_box[:, 0], space.sample_box[:, 1]
    pts = lo + (hi - lo) * rng.random((50, space.ambient_dim))
    # phi-degree 4 test form (no invariance needed pointwise)
    pp = PhiPolynomial(
        g,
        {
            tuple([0] * g): 1.0,
            tuple([2] + [0] * (g - 1)): 0.7,
            tuple([4] + [0] * (g - 1)): 0.25,
        },
    )
    alpha = EquivariantForm.scalar(space.chart_id, space.ambient_dim, g, 1.0, pp)
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
    vals = integrand_phi_reduce(sp, one_form(sp), 0.0, eps, [1.0, 0.0])
    assert vals[()] == pytest.approx(z, rel=1e-13)
    assert vals[(0, 1)] == pytest.approx(z, rel=1e-13)
    # general point: damped by exp(-mu^2 / (2 eps))
    pt = [1.2, 0.0]
    mu = 0.5 * (1.44 - 1.0)
    vals = integrand_phi_reduce(sp, one_form(sp), 0.0, eps, pt)
    assert vals[()] == pytest.approx(z * math.exp(-mu**2 / (2 * eps)), rel=1e-13)
    # alpha = <phi, e>: first-moment shift i mu / eps times the alpha = 1 value
    vals_phi = integrand_phi_reduce(sp, pairing_alpha(sp, [1.0]), 0.0, eps, pt)
    assert vals_phi[()] == pytest.approx(vals[()] * 1j * mu / eps, rel=1e-12)


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


def test_basic_integral_deterministic_across_workers():
    sp = two_planes()
    runs = [
        basic_integral(
            BasicIntegralRequest(
                space=sp, alpha=one_form(sp), r=0.16, epsilon=0.05,
                quadrature=QuadratureScheme(workers=w),
            )
        )
        for w in (1, 4, 1)
    ]
    assert runs[0].value == runs[1].value == runs[2].value


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


def test_full_grid_deterministic_across_workers():
    # the full level-1 grid spans 5 chunks of the default size
    sp = two_planes()
    runs = [
        integrate_over_Mr(
            sp, x_squared_top_form(sp, 0), 0.16, QuadratureScheme(workers=w)
        )
        for w in (1, 4, 1)
    ]
    assert runs[0].n_nodes == 626_688
    assert runs[0].value == runs[1].value == runs[2].value


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
    # two plane weights; grids and level surfaces share the same check
    sp = catalog("cn_u1", n=3, a=1.0)
    req = BasicIntegralRequest(space=sp, alpha=one_form(sp), r=0.16, epsilon=0.05)
    for build in (
        lambda: basic_integral(req),
        lambda: radial_grid(sp, 0.16),
        lambda: level_surface(sp, 1.0),
        lambda: boundary_surfaces(sp, 0.16),
    ):
        with pytest.raises(InputError, match="1 or 2 planes, got 3"):
            build()


def _exp_x_dy(pts, cache=None):
    return {(1,): np.exp(5.0 * pts[:, 0]).astype(complex)}


@pytest.mark.parametrize("path", ["radial", "rejection", "boundary"])
def test_accuracy_error_carries_partial_value(path):
    # A tolerance no level can meet uses up every level of each path; the
    # depths (4 and 5) are read by the rejection path only.
    sp = annulus()
    scheme = QuadratureScheme(
        kind="rejection" if path == "rejection" else "auto",
        rel_tol=1e-16, abs_tol=1e-300, max_level=1, min_depth=2, max_depth=5,
    )
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
    assert ("first-order" in str(err)) == (path == "rejection")


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
    req = BasicIntegralRequest(space=sp, alpha=one_form(sp), r=0.16,
                               epsilon=0.05, alpha_label="1")
    blob = json.dumps(req.to_json_dict(), sort_keys=True)
    assert "cn_u1(1,1)" in blob
    # rejection schemes that differ only in their depths serialize apart
    shallow = QuadratureScheme(kind="rejection", min_depth=2, max_depth=6)
    deep = QuadratureScheme(kind="rejection", min_depth=3, max_depth=8)
    rec = shallow.to_json_dict()
    assert (rec["min_depth"], rec["max_depth"]) == (2, 6)
    assert rec != deep.to_json_dict()
    res = basic_integral(req)
    rec = json.loads(res.to_json())
    assert rec["value"][0] == res.value.real
    assert rec["n_nodes"] == res.n_nodes


# ---------------------------------------------------------------------------
# surfaces, boundary, Stokes
# ---------------------------------------------------------------------------


def test_level_surface_measures():
    # circle of radius sqrt(1.8); 3-sphere of radius 1 has area 2 pi^2
    g = level_surface(annulus(), 1.8, level=1)
    assert surface_measure(g).sum() == pytest.approx(
        2.0 * math.pi * math.sqrt(1.8), rel=1e-12
    )
    g2 = level_surface(two_planes(), 1.0, level=1)
    assert surface_measure(g2).sum() == pytest.approx(2.0 * math.pi**2, rel=1e-12)


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
# rejection-refined fallback
# ---------------------------------------------------------------------------


def test_rejection_scheme_agrees_with_radial():
    sp = annulus()
    scheme = QuadratureScheme(kind="rejection", rel_tol=0.02)
    res = basic_integral(
        BasicIntegralRequest(space=sp, alpha=one_form(sp), r=0.16,
                             epsilon=0.05, quadrature=scheme)
    )
    oracle = math.erf(math.sqrt(0.16 / 0.1))
    assert abs(res.value.real - oracle) < 0.05 * oracle
    assert res.value.imag == pytest.approx(0.0, abs=1e-10)


def test_rejection_volume_of_region():
    # Sum of indicator-weighted cell quadrature = Lebesgue area of the
    # annulus, to first order at the cut
    sp = annulus()

    def unit(pts, cache=None):
        return {(0, 1): np.ones(pts.shape[0], dtype=complex)}

    scheme = QuadratureScheme(kind="rejection", rel_tol=5e-3)
    res = integrate_over_Mr(sp, unit, 0.16, scheme)
    assert res.value.real == pytest.approx(1.6 * math.pi, rel=2e-3)


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
