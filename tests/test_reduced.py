"""Zero level set, metric connection, and reduced (Kirwan) integrals.

Frozen expectations, all derived in closed form:

* circle |z|^2 = 1: length 2 pi, A = -y dx + x dy with A(V) = 1, the
  reduced space is a point and the unit-class integral is 1;
* three-sphere in C^2 at level a: volume 2 pi^2 a^{3/2}, reduced sphere of
  symplectic area pi a, and kappa(<phi, e>) integrates to 2 pi i;
* weight-2 circle: every point has a Z_2 stabilizer, the vertical measure
  halves, and the orbifold unit integral is 1/2 -- exactly the small-eps
  constant of the Basic Integral (erf closed form);
* weighted (1,2) sphere: the reduced teardrop has area pi/2 (action-angle
  chart: I_2 in [0, 1/4], angle length 2 pi);
* c2_su2 has no regular zero level (d mu vanishes at the origin).
"""

import json
import math

import numpy as np
import pytest

from symloc import reduced as R
from symloc.fields import MatAffine, MatConst, add, column, const, coord, mul
from symloc.forms import EquivariantForm, VectorFieldFamily, equivariant_D
from symloc.hamspace import HamiltonianSpace, catalog
from symloc.integrate import _LevelChart
from symloc.liealg import InputError, NotRegularError

from seed_level import seed_embed_nodes, seed_level_arrays


@pytest.fixture(scope="module")
def circle():
    sp = catalog("cn_u1", n=1, a=1.0)
    return sp, R.zero_level(sp, 64)


@pytest.fixture(scope="module")
def sphere():
    sp = catalog("cn_u1", n=2, a=1.0)
    return sp, R.zero_level(sp, 24)


def _unit(space):
    return EquivariantForm.scalar(
        space.chart_id, space.ambient_dim, space.algebra.dim, const(1.0)
    )


def _phi_linear(space):
    return EquivariantForm(
        space.chart_id, space.ambient_dim, space.algebra.dim,
        [((), const(1.0), (1,))],
    )


def test_circle_level_data(circle):
    sp, lv = circle
    # the one node at angle 0, then one probe node per unit of mesh density
    assert lv.grid_shape == (1,)
    assert lv.n_nodes == 1 + 64
    # the mesh sits on |z|^2 = 1 and carries the arc-length measure
    assert np.max(np.abs(np.sum(lv.nodes**2, axis=1) - 1.0)) < 1e-14
    assert lv.riemann_weights.sum() == pytest.approx(2 * math.pi, abs=1e-12)
    rep = lv.regularity_report
    assert rep["min_dmu_singular"] == pytest.approx(1.0, abs=1e-12)
    assert rep["level_moment_residual"] < 1e-12
    assert rep["connection_reproduces_generators"] < 1e-10
    assert rep["equivariance_residual"] < 1e-8
    assert lv.stabilizer_order == 1
    # A = -y dx + x dy on the unit circle (the angular form, A(V) = 1)
    expected = np.stack([-lv.nodes[:, 1], lv.nodes[:, 0]], axis=1)
    assert np.max(np.abs(lv.connection_ambient[:, 0, :] - expected)) < 1e-12


def test_circle_kirwan_unit(circle):
    sp, lv = circle
    for eps in (0.004, 0.05, 0.7):
        res = R.kirwan_integral(_unit(sp), lv, eps)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert len(res.coefficients) == 1
    # the coefficient vector does not depend on the evaluation point
    a = R.kirwan_integral(_unit(sp), lv, 0.01).coefficients
    b = R.kirwan_integral(_unit(sp), lv, 0.4).coefficients
    assert max(abs(x - y) for x, y in zip(a, b)) < 1e-10


def test_sphere_level_data(sphere):
    sp, lv = sphere
    assert lv.riemann_weights.sum() == pytest.approx(
        2 * math.pi**2, rel=1e-12
    )
    assert lv.regularity_report["level_moment_residual"] < 1e-12
    assert lv.regularity_report["connection_reproduces_generators"] < 1e-10
    assert lv.regularity_report["equivariance_residual"] < 1e-8
    assert lv.horizontal_dim == 2


def test_sphere_reduced_area(sphere):
    sp, lv = sphere
    res = R.kirwan_integral(_unit(sp), lv, 0.05)
    assert res.value == pytest.approx(math.pi, abs=1e-10)
    # dim M_red = 2: the |F|^2 term is a four-form, the polynomial is constant
    assert len(res.coefficients) == 1


def test_sphere_phi_linear(sphere):
    sp, lv = sphere
    res = R.kirwan_integral(_phi_linear(sp), lv, 0.05)
    assert res.value == pytest.approx(2j * math.pi, abs=1e-10)


def test_kirwan_refuses_a_non_invariant_alpha(sphere):
    sp, lv = sphere
    dx = EquivariantForm.dx(sp.chart_id, 4, 1, 0)
    with pytest.raises(InputError, match="not an admissible integrand"):
        R.kirwan_integral(dx, lv, 0.1)


def test_kirwan_refuses_a_non_closed_alpha(circle):
    # mu* is invariant but d mu* != 0, so it is not equivariantly closed
    sp, lv = circle
    mu = EquivariantForm.scalar(sp.chart_id, sp.ambient_dim, 1, sp.moment_star[0])
    with pytest.raises(
        InputError, match=r"D-residual 1\.41, invariance residual 0$"
    ):
        R.kirwan_integral(mu, lv, 0.1)


def test_orbifold_circle_halves():
    # weight-2 circle: Z_2 generic stabilizer; the orbifold unit integral
    # is 1/2, matching the small-eps constant of the Basic Integral
    sp = catalog("weighted_cn_u1", n=1, weights=(2,), a=1.0)
    lv = R.zero_level(sp, 64)
    assert lv.stabilizer_order == 2
    res = R.kirwan_integral(_unit(sp), lv, 0.05)
    assert res.value == pytest.approx(0.5, abs=1e-12)


def test_weighted_sphere_teardrop_area():
    # action-angle derivation: omega_0 = dI_2 ^ dchi with I_2 in [0, 1/4]
    sp = catalog("weighted_cn_u1", n=2, weights=(1, 2), a=1.0)
    lv = R.zero_level(sp, 24)
    assert lv.regularity_report["stratum_orders"] == [1, 2]
    res = R.kirwan_integral(_unit(sp), lv, 0.05)
    assert res.value == pytest.approx(math.pi / 2, abs=1e-10)


def test_zero_level_errors():
    with pytest.raises(NotRegularError):
        R.zero_level(catalog("c2_su2"))
    with pytest.raises(InputError):
        R.zero_level(catalog("standard_model", preset="u1_w1", which="G"))
    with pytest.raises(InputError):
        R.zero_level(catalog("cn_u1", n=1, a=1.0), mesh_density=2)


_BAD_LEVEL_OP_CALLS = {
    # nan mesh_density raised ValueError
    "zero_level mesh_density=nan": lambda sp, lv: R.zero_level(sp, math.nan),
    "zero_level mesh_density=inf": lambda sp, lv: R.zero_level(sp, math.inf),
    # a non-integer mesh_density was truncated to an integer without a word
    "zero_level mesh_density=4.5": lambda sp, lv: R.zero_level(sp, 4.5),
    # a stride of 0 or -3 wrote every node, 2.7 every second one, True acted
    # as 1 and nan raised an untyped ValueError
    **{
        f"to_json_dict stride={v}": lambda sp, lv, v=v: lv.to_json_dict(v)
        for v in (0, -3, 2.7, True, math.nan)
    },
    # a string or None raised an untyped TypeError, an array a ValueError,
    # and True acted as eps = 1
    **{
        f"kirwan_integral eps={v!r}": lambda sp, lv, v=v: R.kirwan_integral(_unit(sp), lv, v)
        for v in ("0.1", None, np.array([0.1]), True)
    },
}


@pytest.mark.parametrize("case", list(_BAD_LEVEL_OP_CALLS))
def test_level_ops_refuse_bad_sizes_and_steps(sphere, case):
    with pytest.raises(InputError, match="finite|at least 1|integer|real number"):
        _BAD_LEVEL_OP_CALLS[case](*sphere)


_LEVEL_ARRAYS = (
    "param_nodes", "param_weights", "nodes", "jacobians", "riemann_weights",
    "connection_ambient", "connection_param", "vertical_param", "omega_param",
    "f_param",
)


def test_level_arrays_are_read_only(circle, sphere):
    for _, lv in (circle, sphere):
        stored = {
            name for name in lv.__slots__
            if isinstance(getattr(lv, name), np.ndarray)
        }
        assert stored == set(_LEVEL_ARRAYS)
        for name in _LEVEL_ARRAYS:
            arr = getattr(lv, name)
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0.0


# the two ways a level is meshed: the eta line with its probe nodes (64
# nodes, 33 on a circle), and the full tensor mesh a failed phase probe
# falls back to (32**3 nodes, 32 on a circle)
_MESHES = (
    lambda sp: R.zero_level(sp),
    lambda sp: R._zero_level(sp, 32, collapse=False),
)


@pytest.mark.parametrize(
    "name, kw",
    [
        ("cn_u1", dict(n=2, a=1.0)),
        ("weighted_cn_u1", dict(n=2, weights=(1, 2), a=1.0)),
        ("cn_u1", dict(n=1, a=1.0)),
        ("weighted_cn_u1", dict(n=1, weights=(2,), a=1.0)),
    ],
)
def test_zero_level_makes_no_per_node_lapack_call(name, kw, monkeypatch):
    # per-node LAPACK on stacks of tiny matrices dominated zero_level: the
    # regularity check takes the row norm of the one-generator d mu instead
    # of an SVD or a Gram eigensolve, the 1 x 1 Gram is inverted by a
    # reciprocal, and det J^T J and the vertical-field solve come from
    # cofactors and the adjugate.  The Kirwan integral pulls forms back
    # with written-out 2 x 2 minors.
    sp = catalog(name, **kw)
    svd = np.linalg.svd
    shapes = {fn: [] for fn in ("svd", "eigvalsh", "inv", "det", "solve")}

    def counted(fn):
        lapack = getattr(np.linalg, fn)

        def call(a, *args, **kwargs):
            shapes[fn].append(np.shape(a))
            return lapack(a, *args, **kwargs)

        return call

    for fn in shapes:
        monkeypatch.setattr(np.linalg, fn, counted(fn))
    for mesh in _MESHES:
        lv = mesh(sp)
        assert shapes["svd"] == []
        forms = (_unit(sp), _phi_linear(sp), sp.omega + sp.mu_phi_form().scale(1j))
        for alpha in forms:
            R.kirwan_integral(alpha, lv, 0.05)
        # the mesh's Gauss-Legendre rule solves one companion matrix; no
        # per-node stack reaches LAPACK
        for fn, seen in shapes.items():
            assert all(len(shape) == 2 for shape in seen), (fn, seen)
        # the row norm gives the SVD's smallest singular value to roundoff
        dmu = np.array(
            [
                [column(p.diff(k), lv.nodes, {}) for k in range(sp.ambient_dim)]
                for p in sp.mu_pairing_exprs()
            ]
        ).transpose(2, 0, 1)
        ref = float(np.min(svd(dmu, compute_uv=False)[:, -1]))
        assert abs(lv.regularity_report["min_dmu_singular"] - ref) <= 4 * np.spacing(ref)


def test_level_connection_needs_one_generator():
    # the level connection inverts a 1 x 1 Gram by a reciprocal
    sp = catalog("c2_su2")
    with pytest.raises(InputError, match="one generator, got 3"):
        R._constant_structure(sp)


def test_kirwan_requires_positive_eps(circle):
    sp, lv = circle
    with pytest.raises(InputError):
        R.kirwan_integral(_unit(sp), lv, 0.0)


def test_determinism_and_json(circle):
    sp, lv = circle
    again = R.zero_level(sp, 64)
    assert np.array_equal(lv.nodes, again.nodes)
    assert np.array_equal(lv.connection_ambient, again.connection_ambient)
    a = R.kirwan_integral(_unit(sp), lv, 0.05)
    b = R.kirwan_integral(_unit(sp), again, 0.05)
    assert a.value == b.value
    blob = json.loads(json.dumps(lv.to_json_dict(stride=8), sort_keys=True))
    assert blob["space"] == "cn_u1(1,1)"
    assert blob["n_nodes"] == 65
    assert blob["grid_shape"] == [1]
    assert len(blob["mesh"]["nodes"]) == 9  # nodes 0, 8, ..., 64
    kb = json.loads(json.dumps(a.to_json_dict(), sort_keys=True))
    # one node of weight 2 pi, where the 64-angle mesh summed 64 of 2 pi / 64
    assert kb["value"] == [1.0, 0.0]
    assert kb["meta"]["space"] == "cn_u1(1,1)"


def test_metric_connection_is_the_connection_form(sphere):
    sp, lv = sphere
    struct = R._constant_structure(sp)
    moved, _ = sp.action_sampler(0.37, lv.nodes)
    for pts in (lv.nodes, moved):
        # A(V) = 1 on the level and off it
        conn = R._metric_connection(struct, pts.T)
        pair = np.einsum("in,in->n", conn["A"], conn["V"])
        assert np.max(np.abs(pair - 1.0)) <= 4 * np.spacing(1.0)
    # the connection is built with the node axis last and stored node-first
    assert np.array_equal(
        R._metric_connection(struct, lv.nodes.T)["A"], lv.connection_ambient[:, 0].T
    )


def _replaced(space, **fields):
    """``space`` with some of its constructor fields replaced."""
    names = (
        "name", "algebra", "chart_id", "ambient_dim", "omega", "omega_matrix",
        "action", "moment_star", "metric", "sample_box", "action_sampler", "radial",
    )
    return HamiltonianSpace(**{n: fields.get(n, getattr(space, n)) for n in names})


def test_level_connection_needs_a_constant_metric():
    # dA reads no metric derivative: a position-dependent metric is refused
    sp = catalog("cn_u1", n=1, a=1.0)
    curved = _replaced(
        sp, name="cn_u1(1,1) curved", metric=MatAffine(np.eye(2), {0: 0.1 * np.eye(2)})
    )
    with pytest.raises(InputError, match="constant metric, got MatAffine"):
        R.zero_level(curved)


def test_level_connection_needs_a_linear_action():
    # V = D^T x and dA's rank-2 form read D once: a nonlinear action is refused
    sp = catalog("cn_u1", n=1, a=1.0)
    x, y = coord(0), coord(1)
    bent = _replaced(
        sp,
        name="cn_u1(1,1) bent",
        action=VectorFieldFamily(sp.chart_id, [[mul(const(-1.0), y, x), x]]),
    )
    with pytest.raises(InputError, match=r"non-constant generator Jacobian: d_0 V\^0 = Mul"):
        R.zero_level(bent)
    # a translation part has a constant Jacobian but V(0) != 0
    shifted = _replaced(
        sp,
        name="cn_u1(1,1) shifted",
        action=VectorFieldFamily(sp.chart_id, [[add(const(0.5), mul(const(-1.0), y)), x]]),
    )
    with pytest.raises(InputError, match=r"linear action, got V\(0\) = \[0.5, 0.0\]"):
        R.zero_level(shifted)


def test_level_connection_needs_a_constant_omega_matrix():
    # Omega is pulled back through the chart as one constant matrix
    sp = catalog("cn_u1", n=2, a=1.0)
    flat = sp.omega_matrix.value
    varying = _replaced(
        sp, name="cn_u1(2,1) varying", omega_matrix=MatAffine(flat, {0: 0.1 * flat})
    )
    with pytest.raises(InputError, match="constant omega_matrix, got MatAffine"):
        R.zero_level(varying)


# ---------------------------------------------------------------------------
# the (N, ...) pipeline the node-last level connection replaced, kept as the
# reference: per-node einsums and matmuls, LAPACK det and solve
# ---------------------------------------------------------------------------


def _reference_embed(chart, u):
    if chart.n == 1:
        r0, th = chart.radii[0], u[:, 0]
        x = np.stack([r0 * np.cos(th), r0 * np.sin(th)], axis=1)
        return x, np.stack([-r0 * np.sin(th), r0 * np.cos(th)], axis=1)[:, :, None]
    eta, x1, x2 = u.T
    c1, s1, c2, s2 = np.cos(x1), np.sin(x1), np.cos(x2), np.sin(x2)
    r1, r2 = chart.radii[0] * np.cos(eta), chart.radii[1] * np.sin(eta)
    dr1, dr2 = -chart.radii[0] * np.sin(eta), chart.radii[1] * np.cos(eta)
    zero = np.zeros_like(eta)
    x = np.stack([r1 * c1, r1 * s1, r2 * c2, r2 * s2], axis=1)
    jac = np.stack(
        [
            np.stack([dr1 * c1, -r1 * s1, zero], axis=1),
            np.stack([dr1 * s1, r1 * c1, zero], axis=1),
            np.stack([dr2 * c2, zero, -r2 * s2], axis=1),
            np.stack([dr2 * s2, zero, r2 * c2], axis=1),
        ],
        axis=1,
    )
    return x, jac


def _reference_connection_at(space, x):
    cache = {}
    n_pts, amb = x.shape
    comps = space.action.components[0]
    metric = np.broadcast_to(space.metric.value, (n_pts, amb, amb))
    v_field = np.stack([column(c, x, cache) for c in comps], axis=1)[:, None]
    dv_field = np.empty((n_pts, amb, 1, amb))
    for i, comp in enumerate(comps):
        for k in range(amb):
            dv_field[:, k, 0, i] = column(comp.diff(k), x, cache)
    vg = np.einsum("naj,njl->nal", v_field, metric)
    gram_inv = 1.0 / np.einsum("nal,nbl->nab", vg, v_field)
    d_conn = np.empty((n_pts, amb, 1, amb))
    for k in range(amb):
        dvg_k = np.einsum("naj,njl->nal", dv_field[:, k], metric)
        dgram_k = np.einsum("nal,nbl->nab", dvg_k, v_field) + np.einsum(
            "nal,nbl->nab", vg, dv_field[:, k]
        )
        d_conn[:, k] = np.einsum(
            "nab,nbi->nai", gram_inv, dvg_k
        ) - gram_inv @ dgram_k @ gram_inv @ vg
    da = np.einsum("niaj->naij", d_conn) - np.einsum("njai->naij", d_conn)
    return v_field, np.einsum("nab,nbi->nai", gram_inv, vg), da


def _reference_level_arrays(space, chart):
    x, jac = _reference_embed(chart, chart.param_nodes)
    v_field, conn, da = _reference_connection_at(space, x)
    jac_t = jac.transpose(0, 2, 1)
    omega = np.broadcast_to(space.omega_matrix.value, (len(x),) + space.omega_matrix.value.shape)
    jtj = np.einsum("nik,nil->nkl", jac, jac)
    jtv = np.einsum("nik,nai->nka", jac, v_field)
    return {
        "param_nodes": chart.param_nodes,
        "param_weights": chart.param_weights,
        "nodes": x,
        "jacobians": jac,
        "riemann_weights": chart.param_weights * np.sqrt(np.linalg.det(jtj)),
        "connection_ambient": conn,
        "connection_param": np.einsum("nai,nik->nak", conn, jac),
        "vertical_param": np.linalg.solve(jtj, jtv).transpose(0, 2, 1),
        "omega_param": jac_t @ omega @ jac,
        "f_param": jac_t[:, None] @ da @ jac[:, None],
    }


# the largest move measured against the reference is 8.9e-16 (f_param of
# weighted_cn_u1(2,(1,2),1), entries up to 1.1); nodes and Jacobians are exact
_REFERENCE_TOL = 2e-15


@pytest.fixture(
    scope="module",
    params=[
        ("cn_u1", dict(n=1, a=1.0)),
        ("cn_u1", dict(n=2, a=1.0)),
        ("weighted_cn_u1", dict(n=2, weights=(1, 2), a=1.0)),
        ("weighted_cn_u1", dict(n=1, weights=(2,), a=1.0)),
    ],
    ids=lambda p: f"{p[0]}{tuple(p[1].values())}",
)
def level_and_reference(request):
    name, kw = request.param
    sp = catalog(name, **kw)
    lv = R.zero_level(sp)
    ref = _reference_level_arrays(sp, lv.chart)
    fields = {slot: getattr(lv, slot) for slot in R.ZeroLevelData.__slots__}
    return sp, lv, R.ZeroLevelData(**{**fields, **ref})


@pytest.mark.parametrize("weights", [(1, 1), (1, 2)])
@pytest.mark.parametrize(
    "n_eta, n_angle",
    [pytest.param(e, a, id=str(e) if e == a else f"{e}x{a}")
     for e, a in ((4, 4), (7, 7), (32, 32), (5, 12), (24, 16))],
)
def test_chart_nodes_from_the_axes_are_the_per_node_embedding(weights, n_eta, n_angle):
    chart = _LevelChart(weights, 1.0, n_eta, n_angle)
    assert chart.grid_shape == (n_eta, n_angle, n_angle)
    # the per-node embedding of the level builds gives the bits of cos and
    # sin taken on each axis and broadcast over the mesh
    got, want = chart.embed(chart.param_nodes), seed_embed_nodes(chart)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


def test_level_arrays_match_the_reference_pipeline(level_and_reference):
    _, lv, ref = level_and_reference
    for name in _LEVEL_ARRAYS:
        got, want = getattr(lv, name), getattr(ref, name)
        assert got.shape == want.shape, name
        if name == "riemann_weights":
            # compare the density sqrt det J^T J, ~1, where the weight is
            # not 0; a probe node's measure is 0 in both
            live = lv.param_weights > 0
            assert not got[~live].any() and not want[~live].any()
            got, want = got[live] / lv.param_weights[live], want[live] / ref.param_weights[live]
        if name in ("param_nodes", "param_weights", "nodes", "jacobians"):
            assert np.array_equal(got, want), name
        else:
            assert np.max(np.abs(got - want)) <= _REFERENCE_TOL, name


def test_kirwan_integrals_match_the_reference_pipeline(level_and_reference):
    sp, lv, ref = level_and_reference
    for alpha in (_unit(sp), _phi_linear(sp), sp.omega + sp.mu_phi_form().scale(1j)):
        got = R.kirwan_integral(alpha, lv, 0.05).coefficients
        want = R.kirwan_integral(alpha, ref, 0.05).coefficients
        assert max(abs(g - w) for g, w in zip(got, want)) <= _REFERENCE_TOL


# ---------------------------------------------------------------------------
# the einsum level connection from the per-node generator derivatives
# (tests/seed_level.py) as the reference for the build from the constant
# structure
# ---------------------------------------------------------------------------

# dA's rank-2 form rounds differently from the einsum dA and its J^T dA J
# pullback, whose diagonal and lower triangle also carry ~3e-16 of roundoff
_RANK_TWO_TOL = 1e-15


@pytest.fixture(
    scope="module",
    params=[
        (name, kw, mesh)
        for name, kw in (
            ("cn_u1", dict(n=1, a=1.0)),
            ("cn_u1", dict(n=2, a=1.0)),
            ("weighted_cn_u1", dict(n=2, weights=(1, 2), a=1.0)),
            ("weighted_cn_u1", dict(n=1, weights=(2,), a=1.0)),
        )
        for mesh in (12, 32)
    ],
    ids=lambda p: f"{p[0]}{tuple(p[1].values())}-mesh{p[2]}",
)
def level_and_seed(request):
    # the full tensor mesh, whose axes the einsum reference embeds
    name, kw, mesh = request.param
    sp = catalog(name, **kw)
    lv = R._zero_level(sp, mesh, collapse=False)
    fields = {slot: getattr(lv, slot) for slot in R.ZeroLevelData.__slots__}
    seed = seed_level_arrays(sp, lv.chart)
    fields.update(seed)
    return sp, lv, R.ZeroLevelData(**fields)


def test_level_arrays_match_the_einsum_connection(level_and_seed):
    _, lv, seed = level_and_seed
    for name in _LEVEL_ARRAYS:
        got, want = getattr(lv, name), getattr(seed, name)
        assert got.shape == want.shape, name
        if name == "f_param":
            assert np.max(np.abs(got - want)) <= _RANK_TWO_TOL, name
        else:
            assert np.array_equal(got, want), name


def test_kirwan_and_chern_match_the_einsum_connection(level_and_seed):
    sp, lv, seed = level_and_seed
    for alpha in (_unit(sp), sp.omega + sp.mu_phi_form().scale(1j)):
        got = R.kirwan_integral(alpha, lv, 0.05).coefficients
        assert got == R.kirwan_integral(alpha, seed, 0.05).coefficients
    # the phi-linear integral integrates F alone (on a reduced surface it is
    # -2 pi i times the first Chern number): it is bit-identical on the
    # 32-node mesh and moves by at most one unit in the last place on the
    # 12-node one
    got = R.kirwan_integral(_phi_linear(sp), lv, 0.05).coefficients
    want = R.kirwan_integral(_phi_linear(sp), seed, 0.05).coefficients
    for g, w in zip(got, want):
        assert abs(g - w) <= (lv.mesh_density < 32) * np.spacing(abs(w))


# ---------------------------------------------------------------------------
# the eta line against the full tensor mesh it collapses, and the fallback
# to the full mesh when the phase probe fails
# ---------------------------------------------------------------------------

# kirwan_integral's coefficients on the line and on the full mesh differ only
# in how the sums round: the largest move measured is 3 ulp (cn_u1(2,1) at
# mesh 12); at mesh 32 it is at most 1 ulp, and no level array moves
_COLLAPSE_ULPS = 4


@pytest.mark.parametrize("mesh", [12, 32])
@pytest.mark.parametrize(
    "name, kw",
    [
        ("cn_u1", dict(n=1, a=1.0)),
        ("cn_u1", dict(n=2, a=1.0)),
        ("weighted_cn_u1", dict(n=2, weights=(1, 2), a=1.0)),
        ("weighted_cn_u1", dict(n=1, weights=(2,), a=1.0)),
    ],
    ids=lambda p: f"{p}" if isinstance(p, str) else f"{tuple(p.values())}",
)
def test_the_line_is_the_angle_zero_slice_of_the_full_mesh(name, kw, mesh):
    sp = catalog(name, **kw)
    line, full = R.zero_level(sp, mesh), R._zero_level(sp, mesh, collapse=False)
    two_planes = sp.ambient_dim == 4
    assert line.grid_shape == ((mesh, 1, 1) if two_planes else (1,))
    assert full.grid_shape == ((mesh,) * 3 if two_planes else (mesh,))
    n_line = math.prod(line.grid_shape)
    assert line.n_nodes == n_line + mesh and full.chart.n_probe == 0
    assert line.regularity_report["phase_probe_residual"] <= 1e-12
    assert full.regularity_report["phase_probe_residual"] is None
    # the full mesh's angle-0 nodes, in eta order
    at_zero = np.arange(n_line) * (full.n_nodes // n_line)
    for arr in set(_LEVEL_ARRAYS) - {"param_weights", "riemann_weights"}:
        assert np.array_equal(getattr(line, arr)[:n_line], getattr(full, arr)[at_zero]), arr
    # weight 2 pi per plane's angle where the full mesh has 2 pi / mesh per
    # angle node; the probe nodes weigh nothing
    angle_nodes = mesh ** (2 if two_planes else 1)
    assert np.allclose(line.param_weights[:n_line], full.param_weights[at_zero] * angle_nodes,
                       rtol=1e-15, atol=0.0)
    assert not line.param_weights[n_line:].any() and not line.riemann_weights[n_line:].any()
    density = line.riemann_weights[:n_line] / line.param_weights[:n_line]
    want = full.riemann_weights[at_zero] / full.param_weights[at_zero]
    assert np.max(np.abs(density - want)) <= 4 * np.spacing(1.0)
    for alpha in (_unit(sp), _phi_linear(sp), sp.omega + sp.mu_phi_form().scale(1j)):
        got = R.kirwan_integral(alpha, line, 0.05)
        assert got.meta["n_nodes"] == line.n_nodes  # every probe passed
        want = R.kirwan_integral(alpha, full, 0.05).coefficients
        for g, w in zip(got.coefficients, want):
            assert abs(g - w) <= _COLLAPSE_ULPS * np.spacing(abs(w))


def test_a_metric_the_phase_torus_moves_keeps_the_full_mesh():
    # the realified Hermitian metric H = [[1, 0.3], [0.3, 1]] is preserved by
    # u(1) but not by the phase torus: A = G^{-1} g V depends on xi1 - xi2.
    # The Liouville integrand does not (omega is basic and A(V) = 1), so it
    # is the probe of A that fails
    sp = catalog("cn_u1", n=2, a=1.0)
    tilted = _replaced(
        sp, name="cn_u1(2,1) tilted",
        metric=MatConst(np.kron([[1.0, 0.3], [0.3, 1.0]], np.eye(2))),
    )
    lv = R.zero_level(tilted)
    assert lv.grid_shape == (32, 32, 32) and lv.chart.n_probe == 0
    assert lv.regularity_report["phase_probe_residual"] > 0.1
    # neither the reduced volume nor the first Chern number depends on the
    # connection
    assert abs(R.kirwan_integral(_unit(tilted), lv, 0.05).value - math.pi) < 1e-10
    assert abs(R.kirwan_integral(_phi_linear(tilted), lv, 0.05).value - 2j * math.pi) < 1e-10


def test_an_integrand_the_phase_torus_moves_takes_the_full_mesh(sphere):
    # alpha = D(f dh) = df ^ dh with f = Im(conj(z1) z2), which u(1) preserves
    # and the phase torus does not, and h = |z1|^2 (dh(V) = 0): closed,
    # invariant and exact, so its reduced integral is 0.  On the level its
    # integrand goes as cos(xi2 - xi1), which the eta line alone would sum
    # to a value far from 0
    sp, lv = sphere
    x1, y1, x2, y2 = (coord(i) for i in range(4))
    f = add(mul(x1, y2), mul(const(-1.0), y1, x2))
    beta = EquivariantForm(
        sp.chart_id, 4, 1,
        [((0,), mul(const(2.0), x1, f), (0,)), ((1,), mul(const(2.0), y1, f), (0,))],
    )
    alpha = equivariant_D(beta, sp.action)
    (top,) = R._kirwan_tops(alpha, lv)
    assert not lv.chart.phase_probe(top)[0]
    assert abs(np.sum(lv.param_weights * top)) > 1.0
    res = R.kirwan_integral(alpha, lv, 0.05)
    assert res.meta["n_nodes"] == lv.mesh_density**3
    assert abs(res.value) < 1e-10
