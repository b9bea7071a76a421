"""Hamiltonian-space layer: catalog spaces, moment condition, the
invariant one-form lambda, the standard local models, and action
samplers with analytic Jacobians.

Expected values are frozen from independent hand computations noted at
each test; structural identities (moment condition, closedness,
compatibility, pullback invariance) are checked against tolerances.
"""

import dataclasses
import math

import numpy as np
import pytest

import seed_linear
import seed_model
from space_checks import check_moment_condition, validate_space, with_corrupted_moment
from symloc.fields import add, const, coord, mul
from symloc.forms import contract, exterior_d
from symloc.hamspace import (
    _PAULI,
    HamiltonianSpace,
    StandardLocalModel,
    _linear_space,
    _realify,
    _so3_log,
    _standard_preset,
    build_standard_model,
    catalog,
    catalog_from_string,
    eta_exprs,
    lambda_form,
    sample_points,
)
from symloc.liealg import InputError, LieAlgebraSpec, builtin_algebra


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


@pytest.mark.parametrize("op,param,value", [
    (sample_points, "n", 2.5),      # was TypeError from rng.random
    (sample_points, "n", -1),       # was ValueError: negative dimensions
    (sample_points, "n", 0),
    (sample_points, "seed", -1),
    (check_moment_condition, "n_samples", True),  # was TypeError
    (check_moment_condition, "n_samples", 0),
    (check_moment_condition, "seed", 1.5),
    (validate_space, "n_samples", 0),  # was ValueError: zero-size array
    (validate_space, "n_samples", 2.5),
    (validate_space, "seed", -2),
])
def test_bad_counts_are_refused(op, param, value):
    sp = catalog("cn_u1", n=1, a=1.0)
    count, seed = (value, 0) if param != "seed" else (8, value)
    with pytest.raises(InputError, match=f"{param} must be an integer"):
        op(sp, count, seed=seed)


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


_MODEL_SPACES = [
    (preset, which)
    for preset, whiches in (("u1_w1", "GH"), ("u1_beta", "G"), ("su2_hopf", "GH"))
    for which in whiches
]


def _model_xi(sp, scale):
    return scale * np.linspace(1.0, -0.75, sp.algebra.dim)


def test_sampler_jacobians_match_finite_differences():
    # the analytic chart Jacobians of the shared chart composition agree
    # with central finite differences, on the abelian (u(1)) and the
    # nonabelian (su(2)) group factor alike
    for preset, which in _MODEL_SPACES:
        sp = catalog("standard_model", preset=preset, which=which)
        pts = sample_points(sp, 6, seed=29)
        for xi in (_model_xi(sp, 0.3), np.array([0.2, -0.15, 0.1])[: sp.algebra.dim]):
            _, jac = sp.action_sampler(xi, pts)
            h = 1e-6
            for j in range(sp.ambient_dim):
                dp = np.zeros(sp.ambient_dim)
                dp[j] = h
                plus, _ = sp.action_sampler(xi, pts + dp)
                minus, _ = sp.action_sampler(xi, pts - dp)
                fd = (plus - minus) / (2 * h)
                assert np.max(np.abs(fd - jac[:, :, j])) < 1e-6, sp.name


@pytest.mark.parametrize("preset,which", _MODEL_SPACES)
def test_chart_composition_is_the_per_row_sampler(preset, which):
    # tests/seed_model.py keeps the per-row SciPy samplers that the one
    # batched chart composition replaced; it may move by roundoff
    sp = catalog("standard_model", preset=preset, which=which)
    ref = dict(zip("GH", seed_model.samplers(_standard_preset(preset))))[which]
    for seed in (13, 29):
        pts = sample_points(sp, 25, seed)
        for scale in (0.3, -1.1, 2.0):
            xi = _model_xi(sp, scale)
            (x_new, j_new), (x_old, j_old) = sp.action_sampler(xi, pts), ref(xi, pts)
            assert np.max(np.abs(x_new - x_old)) <= 1e-14
            assert np.max(np.abs(j_new - j_old)) <= 1e-14


def _theta_composing_to(which, xi, rotvec):
    """The group coordinate theta whose chart composition with the action
    of exp(xi) on su2_hopf is the rotation exp([rotvec]_x): ad of su(2) is
    [.]_x, so e^{ad theta} is the rotation by the vector theta."""
    from scipy.spatial.transform import Rotation

    target = Rotation.from_rotvec(rotvec)
    if which == "G":  # e^{ad xi} e^{ad theta}
        return (Rotation.from_rotvec(-xi) * target).as_rotvec()
    return (target * Rotation.from_rotvec([0.0, 0.0, -xi[0]])).as_rotvec()


# rotation angles of the composition: at and near 0 (the series), in the
# bulk on both sides of the branch switch at pi/2, and within 1e-6 of pi
_LOG_ANGLES = (0.0, 1e-12, 1e-9, 1e-5, 9.9e-4, 1.01e-3, 0.7, 1.5, 1.65, 2.5,
               math.pi - 1e-6, math.pi - 1e-7)


@pytest.mark.parametrize("which", "GH")
def test_closed_form_log_is_the_per_row_sampler_at_every_angle(which):
    sp = catalog("standard_model", preset="su2_hopf", which=which)
    ref = dict(zip("GH", seed_model.samplers(_standard_preset("su2_hopf"))))[which]
    rng = np.random.default_rng(37)
    xi = _model_xi(sp, 0.3)
    pts = sample_points(sp, 4 * len(_LOG_ANGLES), 41)
    axes = rng.standard_normal((len(pts), 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.repeat(_LOG_ANGLES, 4)
    for row, (angle, axis) in enumerate(zip(angles, axes)):
        pts[row, :3] = _theta_composing_to(which, xi, angle * axis)
    (x_new, j_new), (x_old, j_old) = sp.action_sampler(xi, pts), ref(xi, pts)
    assert np.max(np.abs(x_new - x_old)) <= 1e-14
    assert np.max(np.abs(j_new - j_old)) <= 1e-14
    # the new group coordinate is the composed rotation vector
    assert np.max(np.abs(x_new[:, :3] - angles[:, None] * axes)) <= 1e-14


def _rodrigues(rotvec):
    angle = np.linalg.norm(rotvec, axis=1)
    n = rotvec / np.where(angle > 0, angle, 1.0)[:, None]
    k = np.zeros((len(n), 3, 3))
    k[:, 2, 1], k[:, 0, 2], k[:, 1, 0] = n.T
    k -= np.swapaxes(k, 1, 2)
    return (np.eye(3) + np.sin(angle)[:, None, None] * k
            + (1.0 - np.cos(angle))[:, None, None] * (k @ k))


def test_so3_log_recovers_the_rotation_vector():
    # where SciPy's logm loses digits too (within 1e-9 of pi and at pi),
    # the symmetric-part branch keeps the axis; at pi either sign is right
    rng = np.random.default_rng(43)
    angles = np.repeat(_LOG_ANGLES + (math.pi - 1e-10, math.pi), 8)
    axes = rng.standard_normal((len(angles), 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    want = angles[:, None] * axes
    got = _so3_log(_rodrigues(want))
    at_pi = angles == math.pi
    assert np.max(np.abs(got[~at_pi] - want[~at_pi])) <= 2e-15
    flip = np.minimum(np.abs(got[at_pi] - want[at_pi]).max(axis=1),
                      np.abs(got[at_pi] + want[at_pi]).max(axis=1))
    assert np.max(flip) <= 2e-15


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


def _su2_plus_u1():
    c = np.zeros((4, 4, 4))
    c[:3, :3, :3] = builtin_algebra("su2").structure_constants
    return LieAlgebraSpec(dim=4, basis_labels=("e1", "e2", "e3", "u"),
                          structure_constants=c, inner_product=np.eye(4),
                          group_volume=32 * math.pi**3, name="su2+u1")


def _scaled_su2(scale):
    su2 = builtin_algebra("su2")
    return dataclasses.replace(su2, structure_constants=scale * su2.structure_constants,
                               name=f"{scale:g} su2")


def _beta_zero_model(algebra):
    return StandardLocalModel(
        algebra_G=algebra, k_basis=np.eye(algebra.dim)[-1:],
        h_basis=np.zeros((0, algebra.dim)), beta=np.zeros(algebra.dim), x_dim=0,
        omega_X=np.zeros((0, 0)), rho=np.zeros((0, 0, 0)), name="beta_zero",
    )


def test_standard_model_refuses_a_nonabelian_adjoint_other_than_so3():
    # the sampler's closed-form log needs Ad(G) abelian or SO(3): su2 + u1
    # is a valid compact algebra, but its ad matrices are 4 x 4
    with pytest.raises(InputError, match="adjoint action of su2"):
        build_standard_model(_beta_zero_model(_su2_plus_u1()))


def test_scaled_su2_basis_samples_as_the_per_row_sampler():
    # [e_i, e_j] = 2 eps_ijk e_k: ad e_c = 2 [e_c]_x, so theta' is half
    # the rotation vector of the composition
    model = _beta_zero_model(_scaled_su2(2.0))
    sp = build_standard_model(model).space_G
    ref, _ = seed_model.samplers(model)
    pts = sample_points(sp, 25, 13)
    xi = np.array([0.4, -0.2, 0.3])
    (x_new, j_new), (x_old, j_old) = sp.action_sampler(xi, pts), ref(xi, pts)
    assert np.max(np.abs(x_new - x_old)) <= 1e-14
    assert np.max(np.abs(j_new - j_old)) <= 1e-14


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


@pytest.mark.parametrize(
    "build,match",
    [
        (lambda: catalog("cn_u1", n=1, a=-1.0), "level shift a"),
        (lambda: catalog("weighted_cn_u1", n=2, weights=(1, 0), a=1.0), "nonzero"),
        (lambda: catalog("no_such_space"), "unknown"),
        (lambda: catalog_from_string("no_such_space"), "unknown"),
        (lambda: catalog_from_string("no_such_space(1)"), "unknown"),
        (lambda: catalog_from_string("cn_u1(1"), "malformed"),
        (lambda: catalog("standard_model", preset="u1_beta", which="H"), "trivial H"),
        (lambda: catalog("standard_model", preset="u1_w1", which="Q"), "which"),
        # each of these built a space before the family table
        (lambda: catalog("cn_u1", n=2, a=1.0, weights=(1, 5)), "no parameter 'weights'"),
        (lambda: catalog("cn_u1", n=2.7, a=1.0), "n must be an integer, got 2.7"),
        (lambda: catalog("c2_su2", n=5), "no parameter 'n'"),
        (lambda: catalog_from_string("c2_su2(3, 4)"), r"c2_su2 takes \(\), got 2"),
        (lambda: catalog_from_string("standard_model(u1_w1, G, extra)"),
         r"standard_model takes \(preset, which\), got 3"),
        (lambda: catalog("weighted_cn_u1", n=2, weights=(1, 1.5), a=1.0),
         "weights must be an integer, got 1.5"),
        (lambda: catalog_from_string("cn_u1(1, nan)"), "a must be a finite number"),
        # and these raised a TypeError, a ValueError or an error not naming
        # the parameter
        (lambda: catalog("weighted_cn_u1", n=1, weights=2, a=1.0),
         "weights must be a tuple of integers"),
        (lambda: catalog("standard_model", preset=1), "preset must be a name"),
        (lambda: catalog_from_string("cn_u1(n=1, a=1)"), "malformed"),
    ],
)
def test_catalog_errors(build, match):
    with pytest.raises(InputError, match=match):
        build()


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


# ---------------------------------------------------------------------------
# linear spaces from their generators, against the hand-written builders
# (tests/seed_linear.py)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,seed_build",
    [
        ("cn_u1(1,1)", lambda: seed_linear._weighted_cn_space(1, (1,), 1.0, "cn_u1(1,1)")),
        ("cn_u1(2,1)", lambda: seed_linear._weighted_cn_space(2, (1, 1), 1.0, "cn_u1(2,1)")),
        ("cn_u1(3,1)", lambda: seed_linear._weighted_cn_space(3, (1,) * 3, 1.0, "cn_u1(3,1)")),
        ("weighted_cn_u1(2,(1,2),0.5)", lambda: seed_linear._weighted_cn_space(
            2, (1, 2), 0.5, "weighted_cn_u1(2,(1,2),0.5)")),
        ("weighted_cn_u1(3,(2,1,3),0.5)", lambda: seed_linear._weighted_cn_space(
            3, (2, 1, 3), 0.5, "weighted_cn_u1(3,(2,1,3),0.5)")),
        ("c2_su2", seed_linear._c2_su2_space),
    ],
)
def test_linear_space_is_the_hand_written_one(text, seed_build):
    new, old = catalog_from_string(text), seed_build()
    assert (new.name, new.chart_id) == (old.name, old.chart_id)
    assert seed_linear.expr_reprs(new) == seed_linear.expr_reprs(old)
    assert np.array_equal(new.omega_matrix.value, old.omega_matrix.value)
    assert np.array_equal(new.metric.value, old.metric.value)
    assert new.radial == old.radial
    assert np.array_equal(new.sample_box, old.sample_box)
    # the sampler now exponentiates the generator matrix (Pade), not cos/sin
    # or a complex 2 x 2: it may move by roundoff
    xi = np.linspace(-2.83, 1.19, new.algebra.dim)
    pts = sample_points(new, 64, seed=31)
    (x_new, j_new), (x_old, j_old) = new.action_sampler(xi, pts), old.action_sampler(xi, pts)
    assert np.max(np.abs(x_new - x_old)) <= 1e-14
    assert np.max(np.abs(j_new - j_old)) <= 1e-14


def test_linear_space_refusals():
    u1, box = builtin_algebra("u1"), np.array([[-1.0, 1.0]] * 2)
    rot = _realify(np.array([[1j]]))
    assert _linear_space("rot", u1, [rot], (0.0,), None, box).ambient_dim == 2
    with pytest.raises(InputError, match="does not preserve omega"):
        _linear_space("squeeze", u1, [np.diag([1.0, 2.0])], (0.0,), None, box)
    scaled = dataclasses.replace(u1, inner_product=np.array([[2.0]]))
    with pytest.raises(InputError, match="inner product must be the identity"):
        _linear_space("scaled", scaled, [rot], (0.0,), None, box)
    with pytest.raises(InputError, match="one generator and one level"):
        _linear_space("short", builtin_algebra("su2"), [rot], (0.0,), None, box)
    # +i sigma_a / 2 satisfy [X_1, X_2] = -X_3, the su(2) of the opposite sign
    flipped = [_realify(0.5j * p) for p in _PAULI]
    box4 = np.array([[-1.0, 1.0]] * 4)
    with pytest.raises(InputError, match="do not represent su2"):
        _linear_space("flipped", builtin_algebra("su2"), flipped, (0.0,) * 3, None, box4)


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
