"""Hamiltonian-space layer: catalog spaces, moment condition, the
invariant one-form lambda, the standard local models, and action
samplers with analytic Jacobians.

Expected values are frozen from independent hand computations noted at
each test; structural identities (moment condition, closedness,
compatibility, pullback invariance) are checked against tolerances.
"""

import math

import numpy as np
import pytest

from symloc.fields import add, const, coord, mul
from symloc.forms import contract, exterior_d
from symloc.hamspace import (
    HamiltonianSpace,
    StandardLocalModel,
    build_standard_model,
    catalog,
    catalog_from_string,
    check_moment_condition,
    eta_exprs,
    lambda_form,
    sample_points,
    validate_space,
    with_corrupted_moment,
)
from symloc.liealg import InputError, builtin_algebra


# ---------------------------------------------------------------------------
# moment maps: frozen pointwise values
# ---------------------------------------------------------------------------


def test_cn_u1_moment_values():
    # mu* = (|z|^2 - a)/2; at z=(1.2, 0.4), a=1: (1.44+0.16-1)/2 = 0.3
    sp = catalog("cn_u1", n=1, a=1.0)
    pts = np.array([[1.2, 0.4]])
    mu = sp.eval_moment(pts)
    assert mu.shape == (1, 1)
    assert abs(mu[0, 0] - 0.3) < 1e-14


def test_weighted_moment_value():
    # (|z1|^2 + 2|z2|^2 - 1)/2 at (0.3,0.1,0.2,-0.4): (0.1 + 0.4 - 1)/2 = -0.25
    sp = catalog("weighted_cn_u1", n=2, weights=(1, 2), a=1.0)
    mu = sp.eval_moment(np.array([[0.3, 0.1, 0.2, -0.4]]))
    assert abs(mu[0, 0] - (-0.25)) < 1e-14


def test_c2_su2_moment_values():
    sp = catalog("c2_su2")
    # z = (1, 0):   mu = (0, 0, -1/4)
    # z = (1, 1):   mu = (-1/2, 0, 0)
    mu = sp.eval_moment(np.array([[1.0, 0, 0, 0], [1.0, 0, 1.0, 0]]))
    assert np.allclose(mu[0], [0, 0, -0.25], atol=1e-14)
    assert np.allclose(mu[1], [-0.5, 0, 0], atol=1e-14)


def test_standard_u1_w1_h_moment_value():
    # mu_H = nu + |x|^2/2, independent of theta:
    # at (theta, nu, x) = (0.3, 0.2, 0.5, -0.1): 0.2 + (0.25 + 0.01)/2 = 0.33
    sp = catalog("standard_model", preset="u1_w1", which="H")
    mu = sp.eval_moment(np.array([[0.3, 0.2, 0.5, -0.1]]))
    assert abs(mu[0, 0] - 0.33) < 1e-12


def test_standard_u1_beta_moment_value():
    # mu_G = beta + nu = 0.7 + nu for the abelian group, any theta
    sp = catalog("standard_model", preset="u1_beta", which="G")
    mu = sp.eval_moment(np.array([[0.45, -0.15]]))
    assert abs(mu[0, 0] - 0.55) < 1e-12


def test_standard_su2_hopf_moment_values():
    sp = catalog("standard_model", preset="su2_hopf", which="G")
    # at the identity (theta=0) with nu=0, x=0 the moment value is beta
    mu0 = sp.eval_moment(np.zeros((1, 6)))
    assert np.allclose(mu0[0], [0, 0, 0.5], atol=1e-12)
    # theta along e3 fixes beta + nu e3 under Ad
    mu1 = sp.eval_moment(np.array([[0, 0, 0.4, 0.1, 0.2, -0.3]]))
    assert np.allclose(mu1[0], [0, 0, 0.6], atol=1e-12)
    # |mu| is Ad-invariant: rotating theta cannot change the norm
    pts = np.array([[0.3, -0.2, 0.1, 0.1, 0.2, -0.3]])
    mu2 = sp.eval_moment(pts)
    assert abs(np.linalg.norm(mu2[0]) - 0.6) < 1e-12


def test_standard_su2_hopf_h_moment_is_theta_independent():
    sp = catalog("standard_model", preset="su2_hopf", which="H")
    # mu_H = nu + |x|^2/2: at nu=0.15, x=(0.3, 0.4): 0.15 + 0.125 = 0.275
    mu = sp.eval_moment(np.array([[0.1, -0.2, 0.3, 0.15, 0.3, 0.4]]))
    assert abs(mu[0, 0] - 0.275) < 1e-12


# ---------------------------------------------------------------------------
# the moment condition
# ---------------------------------------------------------------------------


def test_moment_condition_cn_u1():
    rep = check_moment_condition(catalog("cn_u1", n=1, a=1.0), 500, seed=3)
    assert rep["accepted"]
    assert rep["max_residual"] < 1e-10


def test_moment_condition_c2_su2():
    rep = check_moment_condition(catalog("c2_su2"), 500, seed=5)
    assert rep["accepted"]


def test_moment_condition_catches_corruption():
    sp = with_corrupted_moment(catalog("cn_u1", n=1, a=1.0))
    rep = check_moment_condition(sp, 200, seed=1)
    assert not rep["accepted"]
    assert rep["max_residual"] > 1e-3


def test_full_validation_all_catalog_spaces():
    from symloc.hamspace import catalog_names_for_validation

    for name, make in catalog_names_for_validation():
        rep = validate_space(make(), n_samples=120, seed=7)
        assert rep["ok"], f"{name}: {rep}"


# ---------------------------------------------------------------------------
# lambda, eta, and critical behavior of |mu|^2
# ---------------------------------------------------------------------------


def test_lambda_value_cn_u1():
    # at z=(sqrt(2), 0), a=1: mu = 1/2, V mu* = mu*(-y, x) = (0, sqrt(2)/2),
    # flat metric => lambda = (sqrt(2)/2) dy
    sp = catalog("cn_u1", n=1, a=1.0)
    lam = lambda_form(sp)
    pts = np.array([[math.sqrt(2.0), 0.0]])
    vals = lam.eval_at_phi(pts, np.zeros(1))
    comps = {fmi: v[0] for fmi, v in vals.items()}
    assert abs(comps.get((1,), 0.0) - math.sqrt(2.0) / 2) < 1e-14
    assert abs(comps.get((0,), 0.0)) < 1e-14


def test_lambda_pairs_to_speed_squared():
    # lambda(V mu*) = |V mu*|^2 >= 0 by construction
    sp = catalog("cn_u1", n=2, a=1.0)
    pts = sample_points(sp, 40, seed=11)
    lam = lambda_form(sp)
    vmu = sp.v_mu_star_exprs()
    cache = {}
    vvals = np.stack(
        [np.broadcast_to(np.asarray(c.eval(pts, cache)), (40,)) for c in vmu], axis=1
    ).real
    lvals = lam.eval_at_phi(pts, np.zeros(1), cache)
    paired = np.zeros(40)
    for (j,), v in lvals.items():
        paired += v.real * vvals[:, j]
    speed2 = np.sum(vvals**2, axis=1)
    assert np.max(np.abs(paired - speed2)) < 1e-12
    assert np.min(paired) >= 0


def test_eta_value_cn_u1():
    # eta = <V mu*, V e1> = mu |z|^2; at z=(1.2, 0.4), a=1: 0.3 * 1.6 = 0.48
    sp = catalog("cn_u1", n=1, a=1.0)
    (eta,) = eta_exprs(sp)
    val = eta.eval(np.array([[1.2, 0.4]]), {})
    assert abs(complex(np.asarray(val).reshape(())).real - 0.48) < 1e-14


def test_v_mu_star_zeros_match_critical_sets():
    # zeros of V mu* on cn_u1(1, a): the origin and the circle |z|^2 = a
    sp = catalog("cn_u1", n=1, a=1.0)
    vmu = sp.v_mu_star_exprs()

    def speed(x, y):
        pts = np.array([[x, y]])
        vals = [complex(np.asarray(c.eval(pts, {})).reshape(())) for c in vmu]
        return math.hypot(vals[0].real, vals[1].real)

    assert speed(1.0, 0.0) < 1e-15
    assert speed(0.0, 0.0) < 1e-15
    # frozen: at (1.2, 0), mu = 0.22, |V| = 1.2 -> speed 0.264
    assert abs(speed(1.2, 0.0) - 0.264) < 1e-14


def test_moment_jacobian_surjective_on_zero_level_when_regular():
    # d mu has full rank along mu^{-1}(0) for the u(1) catalog spaces ...
    for make in (
        lambda: catalog("cn_u1", n=1, a=1.0),
        lambda: catalog("cn_u1", n=2, a=1.0),
    ):
        sp = make()
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((30, sp.ambient_dim))
        pts = raw / np.linalg.norm(raw, axis=1, keepdims=True)  # |z|^2 = a = 1
        jac = np.zeros((30, len(sp.moment_star), sp.ambient_dim))
        cache = {}
        for a in range(len(sp.moment_star)):
            for j in range(sp.ambient_dim):
                d = sp.moment_star[a].diff(j)
                jac[:, a, j] = np.broadcast_to(
                    np.asarray(d.eval(pts, cache)), (30,)
                ).real
        sig = np.linalg.svd(jac, compute_uv=False)
        assert np.min(sig[:, -1]) > 0.5
    # ... but not for the su(2) one, whose zero level is the origin
    sp = catalog("c2_su2")
    origin = np.zeros((1, 4))
    cache = {}
    for a in range(3):
        for j in range(4):
            v = np.asarray(sp.moment_star[a].diff(j).eval(origin, cache))
            assert np.max(np.abs(v)) < 1e-15


# ---------------------------------------------------------------------------
# action samplers: pullback invariance and Jacobian correctness
# ---------------------------------------------------------------------------


def _pullback_omega_residual(sp, xi, n=25, seed=13):
    pts = sample_points(sp, n, seed)
    new_pts, jac = sp.action_sampler(xi, pts)
    cache = {}
    om_new = np.asarray(sp.omega_matrix.eval(new_pts, {}), dtype=float)
    om_old = np.asarray(sp.omega_matrix.eval(pts, cache), dtype=float)
    pulled = np.einsum("nji,njk,nkl->nil", jac, om_new, jac)
    return float(np.max(np.abs(pulled - om_old)))


def test_omega_invariance_under_sampled_actions():
    cases = [
        (catalog("cn_u1", n=2, a=1.0), np.array([0.7])),
        (catalog("weighted_cn_u1", n=2, weights=(1, 2), a=1.0), np.array([0.4])),
        (catalog("c2_su2"), np.array([0.3, -0.5, 0.2])),
        (catalog("standard_model", preset="u1_w1", which="G"), np.array([0.3])),
        (catalog("standard_model", preset="u1_w1", which="H"), np.array([0.25])),
        (catalog("standard_model", preset="u1_beta", which="G"), np.array([0.2])),
        (
            catalog("standard_model", preset="su2_hopf", which="G"),
            np.array([0.15, -0.1, 0.2]),
        ),
        (catalog("standard_model", preset="su2_hopf", which="H"), np.array([0.2])),
    ]
    for sp, xi in cases:
        res = _pullback_omega_residual(sp, xi)
        assert res < 1e-8, f"{sp.name}: {res}"


def test_moment_equivariance_under_sampled_actions():
    # abelian/H cases: mu unchanged; su(2) left action: mu -> Ad_{e^xi} mu
    sp = catalog("standard_model", preset="su2_hopf", which="G")
    xi = np.array([0.2, 0.1, -0.3])
    pts = sample_points(sp, 20, seed=17)
    new_pts, _ = sp.action_sampler(xi, pts)
    from scipy.linalg import expm

    ad = sum(xi[a] * sp.algebra.ad_matrix(e) for a, e in enumerate(np.eye(3)))
    expected = sp.eval_moment(pts) @ expm(ad).T
    got = sp.eval_moment(new_pts)
    assert np.max(np.abs(got - expected)) < 1e-10

    for sp2, xi2 in [
        (catalog("cn_u1", n=2, a=1.0), np.array([0.9])),
        (catalog("standard_model", preset="su2_hopf", which="H"), np.array([0.35])),
    ]:
        pts = sample_points(sp2, 20, seed=19)
        new_pts, _ = sp2.action_sampler(xi2, pts)
        assert np.max(np.abs(sp2.eval_moment(new_pts) - sp2.eval_moment(pts))) < 1e-10


def test_lambda_pullback_on_orthogonal_actions():
    # where the sampled action is an isometry of the flat metric, lambda
    # pulls back to itself: J^T lambda(p') = lambda(p)
    for sp, xi in [
        (catalog("cn_u1", n=2, a=1.0), np.array([0.6])),
        (catalog("c2_su2"), np.array([0.2, 0.4, -0.1])),
        (catalog("standard_model", preset="u1_w1", which="H"), np.array([0.3])),
    ]:
        lam = lambda_form(sp)
        pts = sample_points(sp, 15, seed=23)
        new_pts, jac = sp.action_sampler(xi, pts)

        def lam_matrix(p):
            vals = lam.eval_at_phi(p, np.zeros(sp.algebra.dim))
            out = np.zeros((p.shape[0], sp.ambient_dim))
            for (j,), v in vals.items():
                out[:, j] = v.real
            return out

        pulled = np.einsum("nj,njk->nk", lam_matrix(new_pts), jac)
        assert np.max(np.abs(pulled - lam_matrix(pts))) < 1e-9, sp.name


def test_sampler_jacobians_match_finite_differences():
    # the analytic chart Jacobians of the group-factor samplers agree with
    # central finite differences
    for sp, xi in [
        (catalog("standard_model", preset="su2_hopf", which="G"),
         np.array([0.2, -0.15, 0.1])),
        (catalog("standard_model", preset="su2_hopf", which="H"), np.array([0.3])),
    ]:
        pts = sample_points(sp, 6, seed=29)
        _, jac = sp.action_sampler(xi, pts)
        h = 1e-6
        for j in range(sp.ambient_dim):
            dp = np.zeros(sp.ambient_dim)
            dp[j] = h
            plus, _ = sp.action_sampler(xi, pts + dp)
            minus, _ = sp.action_sampler(xi, pts - dp)
            fd = (plus - minus) / (2 * h)
            assert np.max(np.abs(fd - jac[:, :, j])) < 1e-6


# ---------------------------------------------------------------------------
# standard-model construction and validation errors
# ---------------------------------------------------------------------------


def _su2_model_kwargs(**over):
    kw = dict(
        algebra_G=builtin_algebra("su2"),
        k_basis=np.array([[0.0, 0.0, 1.0]]),
        h_basis=np.array([[0.0, 0.0, 1.0]]),
        beta=np.array([0.0, 0.0, 0.5]),
        x_dim=2,
        omega_X=np.array([[0.0, 1.0], [-1.0, 0.0]]),
        rho=np.array([[[0.0, -1.0], [1.0, 0.0]]]),
        name="test_model",
    )
    kw.update(over)
    return kw


def test_standard_model_rejects_unfixed_beta():
    with pytest.raises(InputError):
        StandardLocalModel(**_su2_model_kwargs(k_basis=np.array([[1.0, 0, 0]]),
                                               h_basis=np.zeros((0, 3)),
                                               rho=np.zeros((0, 2, 2))))


def test_standard_model_rejects_h_outside_k():
    with pytest.raises(InputError):
        StandardLocalModel(**_su2_model_kwargs(h_basis=np.array([[1.0, 0, 0]])))


def test_standard_model_rejects_degenerate_omega_x():
    with pytest.raises(InputError):
        StandardLocalModel(**_su2_model_kwargs(omega_X=np.zeros((2, 2))))


def test_standard_model_rejects_rho_not_preserving_omega_x():
    with pytest.raises(InputError):
        StandardLocalModel(**_su2_model_kwargs(rho=np.array([[[1.0, 0], [0, 1.0]]])))


def test_standard_model_rejects_non_centralizing_h():
    # valid model data (beta = 0 is fixed by everything, su(2) itself is a
    # subalgebra), but the h-space realization needs [h, k] = 0
    model = StandardLocalModel(
        algebra_G=builtin_algebra("su2"),
        k_basis=np.eye(3),
        h_basis=np.array([[0.0, 0.0, 1.0]]),
        beta=np.zeros(3),
        x_dim=0,
        omega_X=np.zeros((0, 0)),
        rho=np.zeros((1, 0, 0)),
        name="bad_h",
    )
    with pytest.raises(InputError):
        build_standard_model(model)


def test_trivial_h_gives_no_h_space():
    spaces = build_standard_model(
        StandardLocalModel(
            algebra_G=builtin_algebra("u1"),
            k_basis=np.array([[1.0]]),
            h_basis=np.zeros((0, 1)),
            beta=np.array([0.7]),
            x_dim=0,
            omega_X=np.zeros((0, 0)),
            rho=np.zeros((0, 0, 0)),
            name="u1_beta_like",
        )
    )
    assert spaces.space_H is None
    assert spaces.space_G.ambient_dim == 2


def test_su2_hopf_chart_radius():
    sp = catalog("standard_model", preset="su2_hopf", which="G")
    assert abs(sp.chart_radius - 2 * math.pi) < 1e-12
    assert math.isinf(catalog("cn_u1", n=1, a=1.0).chart_radius)


# ---------------------------------------------------------------------------
# catalog parsing and input errors
# ---------------------------------------------------------------------------


def test_catalog_from_string_forms():
    assert catalog_from_string("cn_u1(2, 1.0)").ambient_dim == 4
    sp = catalog_from_string("weighted_cn_u1(2, (1,2), 1.0)")
    assert sp.radial.weights == (1, 2)
    assert catalog_from_string("c2_su2").algebra.dim == 3
    assert catalog_from_string("standard_model(u1_w1, H)").name == "u1_w1:H"
    assert catalog_from_string(" c2_su2 ").name == "c2_su2"


def test_catalog_errors():
    with pytest.raises(InputError):
        catalog("cn_u1", n=1, a=-1.0)
    with pytest.raises(InputError):
        catalog("weighted_cn_u1", n=2, weights=(1, 0), a=1.0)
    with pytest.raises(InputError):
        catalog("no_such_space")
    with pytest.raises(InputError):
        catalog_from_string("cn_u1(1")
    with pytest.raises(InputError):
        catalog("standard_model", preset="u1_beta", which="H")
    with pytest.raises(InputError):
        catalog("standard_model", preset="u1_w1", which="Q")


@pytest.mark.parametrize(
    "build",
    [
        lambda: catalog("weighted_cn_u1", n=2, weights=(1, -1), a=1.0),
        lambda: catalog_from_string("weighted_cn_u1(2,(1,-1),1)"),
        lambda: catalog_from_string("weighted_cn_u1(3,(2,1,-3),0.5)"),
    ],
    ids=["catalog", "string", "three-planes"],
)
def test_mixed_sign_weights_are_not_proper(build):
    with pytest.raises(InputError, match="not proper"):
        build()


def test_space_construction_errors():
    sp = catalog("cn_u1", n=1, a=1.0)
    with pytest.raises(InputError):
        HamiltonianSpace(
            name="bad",
            algebra=sp.algebra,
            chart_id=sp.chart_id,
            ambient_dim=2,
            omega=sp.omega,
            omega_matrix=sp.omega_matrix,
            action=sp.action,
            moment_star=(),  # wrong arity
            metric=sp.metric,
            sample_box=sp.sample_box,
        )


# ---------------------------------------------------------------------------
# structural bits used by the integral layers
# ---------------------------------------------------------------------------


def test_mu_phi_form_matches_pairing():
    sp = catalog("c2_su2")
    form = sp.mu_phi_form()
    pts = sample_points(sp, 10, seed=31)
    phi = np.array([0.3, -0.2, 0.5])
    vals = form.eval_at_phi(pts, phi)
    got = vals[()].real
    expected = sp.eval_moment(pts) @ phi  # identity inner product
    assert np.max(np.abs(got - expected)) < 1e-13


def test_mu_norm2_expr_matches():
    sp = catalog("c2_su2")
    pts = sample_points(sp, 10, seed=37)
    vals = np.broadcast_to(
        np.asarray(sp.mu_norm2_expr().eval(pts, {})), (10,)
    ).real
    mu = sp.eval_moment(pts)
    assert np.max(np.abs(vals - np.sum(mu**2, axis=1))) < 1e-13


def test_residual_form_shape_directly():
    # contract(omega, V) + d<mu, phi> vanishes identically as a form on
    # the weighted space as well
    sp = catalog("weighted_cn_u1", n=2, weights=(1, 2), a=1.0)
    residual = contract(sp.omega, sp.action) + exterior_d(sp.mu_phi_form())
    pts = sample_points(sp, 50, seed=41)
    for vals in residual.eval_terms(pts, {}).values():
        assert np.max(np.abs(vals)) < 1e-12
