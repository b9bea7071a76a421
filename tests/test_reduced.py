"""Zero level set, metric connection, Cartan map, and reduced integrals.

Frozen expectations, all derived in closed form:

* circle |z|^2 = 1: length 2 pi, A = -y dx + x dy with A(V) = 1, the
  reduced space is a point and the unit-class integral is 1;
* three-sphere in C^2 at level a: volume 2 pi^2 a^{3/2}, reduced sphere of
  symplectic area pi a, curvature integral gives first Chern number -1
  (the tautological-bundle sign under the positive-Liouville orientation),
  and kappa(<phi, e>) integrates to 2 pi i;
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
from symloc.fields import MatAffine, add, column, const, coord, mul
from symloc.forms import EquivariantForm, VectorFieldFamily
from symloc.hamspace import HamiltonianSpace, catalog
from symloc.liealg import InputError, NotRegularError

from seed_level import seed_level_arrays


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
    assert lv.n_nodes == 64
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


def test_chern_number_is_minus_one(sphere):
    sp, lv = sphere
    chern = R.chern_numbers(lv)
    assert chern.shape == (1,)
    assert abs(chern[0] - round(chern[0])) < 1e-6
    assert round(chern[0]) == -1


def test_chern_number_weighted_equal_weights():
    sp = catalog("weighted_cn_u1", n=2, weights=(1, 1), a=1.0)
    lv = R.zero_level(sp, 16)
    chern = R.chern_numbers(lv)
    assert abs(chern[0] - round(chern[0])) < 1e-6


def test_chern_requires_reduced_surface(circle):
    sp, lv = circle
    with pytest.raises(InputError):
        R.chern_numbers(lv)


def test_curvature_horizontal_and_abelian(sphere):
    sp, lv = sphere
    cv = R.curvature(lv)
    assert cv.horizontality_residual < 1e-8
    assert cv.invariance_residual < 1e-8
    # abelian algebra: the bracket term vanishes and F = dA
    assert np.max(np.abs(lv.f_param - lv.da_param)) == 0.0


def test_cartan_map_constant(sphere):
    sp, lv = sphere
    km = R.cartan_map(_unit(sp), lv)
    assert km.degrees() == {0}
    assert np.max(np.abs(km.coefficient(()) - 1.0)) < 1e-14


def test_cartan_map_phi_linear_is_curvature(sphere):
    sp, lv = sphere
    km = R.cartan_map(_phi_linear(sp), lv)
    assert km.degrees() == {2}
    f = lv.f_param[:, 0]
    for (i, j), coeff in km.parts.items():
        assert np.max(np.abs(coeff - 1j * f[:, i, j])) < 1e-12
    rep = R.basic_residual(lv, km)
    assert rep["contraction_residual"] < 1e-8
    assert rep["invariance_residual"] < 1e-8


def test_cartan_map_of_omega_term(sphere):
    # kappa(omega + i mu.phi) restricted to mu^{-1}(0) is the pullback of
    # the reduced symplectic form: mu vanishes on the level, the projection
    # leaves omega untouched (iota_V omega = -d mu_phi = 0 there)
    sp, lv = sphere
    alpha = sp.omega + sp.mu_phi_form().scale(1j)
    km = R.cartan_map(alpha, lv)
    expected = lv.omega_parts()
    keys = set(km.parts) | set(expected)
    for key in keys:
        got = km.coefficient(key)
        want = expected.get(key, np.zeros(lv.n_nodes, dtype=complex))
        assert np.max(np.abs(got - want)) < 1e-10
    rep = R.basic_residual(lv, km)
    assert rep["contraction_residual"] < 1e-8


def test_cartan_closedness_descends(sphere):
    sp, lv = sphere
    assert R.cartan_d_residual(_unit(sp), lv) < 1e-8
    assert R.cartan_d_residual(_phi_linear(sp), lv) < 1e-8


def test_cartan_rejects_non_invariant(sphere):
    sp, lv = sphere
    dx = EquivariantForm.dx(sp.chart_id, 4, 1, 0)
    with pytest.raises(InputError):
        R.cartan_map(dx, lv)
    with pytest.raises(InputError):
        R.kirwan_integral(dx, lv, 0.1)


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


def test_normal_form_circle(circle):
    sp, lv = circle
    rep = R.normal_form_check(sp, lv)
    assert rep["ok"]
    assert rep["moment_residual"] < 1e-10
    assert rep["closedness_residual"] < 1e-8
    assert rep["restriction_residual"] == 0.0
    # A(d/dtheta) = 1 everywhere: omega~ never degenerates on the scan
    assert rep["max_valid_radius"] == pytest.approx(1.0)


def test_normal_form_sphere(sphere):
    sp, lv = sphere
    rep = R.normal_form_check(sp, lv)
    assert rep["ok"]
    assert rep["moment_residual"] < 1e-10
    assert rep["closedness_residual"] < 1e-7
    assert rep["nondegenerate_within"]
    # the u-block is (1 + 2 nu) omega_u: degeneration exactly at nu = -1/2
    assert 0.45 <= rep["max_valid_radius"] <= 0.5


def test_zero_level_errors():
    with pytest.raises(NotRegularError):
        R.zero_level(catalog("c2_su2"))
    with pytest.raises(InputError):
        R.zero_level(catalog("standard_model", preset="u1_w1", which="G"))
    with pytest.raises(InputError):
        R.zero_level(catalog("cn_u1", n=1, a=1.0), mesh_density=2)


_LEVEL_ARRAYS = (
    "param_nodes", "param_weights", "nodes", "jacobians", "riemann_weights",
    "connection_ambient", "connection_param", "vertical_param", "omega_param",
    "da_param", "f_ambient", "f_param",
)


def test_level_arrays_are_read_only(circle, sphere):
    for _, lv in (circle, sphere):
        # u(1) is abelian: F = dA, so the level stores one pullback
        assert lv.f_param is lv.da_param
        stored = {
            name for name in lv.__slots__
            if isinstance(getattr(lv, name), np.ndarray)
        }
        assert stored == set(_LEVEL_ARRAYS)
        for name in _LEVEL_ARRAYS:
            arr = getattr(lv, name)
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0.0


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
    # cofactors and the adjugate.  The Cartan map pulls forms back with
    # written-out 2 x 2 minors.
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
    lv = R.zero_level(sp)
    assert shapes["svd"] == []
    forms = (_unit(sp), _phi_linear(sp), sp.omega + sp.mu_phi_form().scale(1j))
    for alpha in forms:
        R.kirwan_integral(alpha, lv, 0.05)
        R.cartan_map(alpha, lv)
        R.cartan_d_residual(alpha, lv, n_samples=16)
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
    blob = json.loads(lv.to_json(stride=8))
    assert blob["space"] == "cn_u1(1,1)"
    assert blob["n_nodes"] == 64
    assert len(blob["mesh"]["nodes"]) == 8
    kb = json.loads(a.to_json())
    assert kb["value"] == [1.0000000000000002, 0.0]
    assert kb["meta"]["space"] == "cn_u1(1,1)"


@pytest.mark.parametrize(
    "name, kw",
    [("cn_u1", dict(n=2, a=1.0)), ("weighted_cn_u1", dict(n=2, weights=(1, 2), a=1.0))],
)
def test_cartan_and_kirwan_reuse_the_level(name, kw, monkeypatch):
    sp = catalog(name, **kw)
    lv = R.zero_level(sp, 12)
    forms = (_unit(sp), _phi_linear(sp), sp.omega + sp.mu_phi_form().scale(1j))
    calls = []
    recompute = R._chart_conn_at

    def counted(*args):
        calls.append(args)
        return recompute(*args)

    monkeypatch.setattr(R, "_chart_conn_at", counted)
    kappas = [R.cartan_map(alpha, lv) for alpha in forms]
    kirwans = [R.kirwan_integral(alpha, lv, 0.05) for alpha in forms]
    assert calls == []
    # the stored level data is what a recomputation at the mesh gives, so
    # reading it changes no bit of either result
    monkeypatch.setattr(
        R.ZeroLevelData,
        "_pulled_back",
        lambda level: recompute(level.space, level.chart, level.param_nodes),
    )
    for alpha, kappa, kirwan in zip(forms, kappas, kirwans):
        old = R.cartan_map(alpha, lv)
        assert kappa.parts.keys() == old.parts.keys()
        for idx, coeff in kappa.parts.items():
            assert np.array_equal(coeff, old.parts[idx])
        assert kirwan.coefficients == R.kirwan_integral(alpha, lv, 0.05).coefficients


def test_metric_connection_is_the_connection_form(sphere):
    sp, lv = sphere
    struct = R._constant_structure(sp)
    moved, _ = sp.action_sampler(0.37, lv.nodes)
    amb, n = sp.ambient_dim, lv.n_nodes
    for pts in (lv.nodes, moved):
        a_only = R._metric_connection(struct, pts, np.empty((amb, n)))["A"]
        full = R._connection_at(struct, pts, np.empty((amb, n)), np.empty((amb, amb, n)))
        assert np.array_equal(a_only, full["A"])
    # the connection is built with the node axis last and stored node-first
    assert np.array_equal(
        R._metric_connection(struct, lv.nodes, np.empty((amb, n)))["A"],
        lv.connection_ambient[:, 0].T,
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


@pytest.mark.parametrize(
    "name, kw",
    [
        ("cn_u1", dict(n=1, a=1.0)),
        ("cn_u1", dict(n=2, a=1.0)),
        ("weighted_cn_u1", dict(n=1, weights=(2,), a=1.0)),
        ("weighted_cn_u1", dict(n=2, weights=(1, 2), a=1.0)),
    ],
)
def test_zero_level_makes_no_per_node_matrix_product(name, kw, monkeypatch):
    # the level is built by row arithmetic over the nodes: no einsum,
    # matmul or dot sees a node-sized operand, so none multiplies an
    # (amb, amb, N) or (N, amb, amb) stack of per-node matrices
    sp = catalog(name, **kw)
    shapes = []

    def recorded(fn):
        def call(*args, **kwargs):
            shapes.append(
                (fn.__name__, [np.shape(a) for a in args if isinstance(a, np.ndarray)])
            )
            return fn(*args, **kwargs)

        return call

    for fn in ("einsum", "matmul", "dot"):
        monkeypatch.setattr(np, fn, recorded(getattr(np, fn)))
    lv = R.zero_level(sp)
    monkeypatch.undo()
    n = lv.n_nodes
    per_node = [(fn, s) for fn, seen in shapes for s in seen if n in s]
    assert per_node == [], per_node
    # the recording is live: it saw the one product of constants, D g
    amb = sp.ambient_dim
    assert shapes == [("einsum", [(amb, amb), (amb, amb)])]


def test_collar_model_needs_one_generator(circle):
    _, lv = circle
    with pytest.raises(InputError, match="one generator, got 3"):
        R.normal_form_check(catalog("c2_su2"), lv)


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
    da_u = jac_t[:, None] @ da @ jac[:, None]
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
        "da_param": da_u,
        "f_ambient": da,
        "f_param": da_u,
    }


# the largest move measured against the reference is 1.3e-15 (f_ambient of
# weighted_cn_u1(2,(1,2),1), entries up to 4); nodes and Jacobians are exact
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
@pytest.mark.parametrize("mesh", [4, 7, 32])
def test_chart_nodes_from_the_axes_are_the_per_node_embedding(weights, mesh):
    chart = R._U1LevelChart(weights, 1.0, mesh)
    got, want = chart.embed_nodes(), chart.embed(chart.param_nodes)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


def test_level_arrays_match_the_reference_pipeline(level_and_reference):
    _, lv, ref = level_and_reference
    for name in _LEVEL_ARRAYS:
        got, want = getattr(lv, name), getattr(ref, name)
        assert got.shape == want.shape, name
        if name == "riemann_weights":
            # weights are ~1e-3: compare the density sqrt det J^T J, ~1
            got, want = got / lv.param_weights, want / ref.param_weights
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
# the einsum level connection (tests/seed_level.py) as the reference for the
# row-arithmetic build from the constant structure
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
    name, kw, mesh = request.param
    sp = catalog(name, **kw)
    lv = R.zero_level(sp, mesh)
    fields = {slot: getattr(lv, slot) for slot in R.ZeroLevelData.__slots__}
    return sp, lv, R.ZeroLevelData(**{**fields, **seed_level_arrays(sp, lv.chart)})


def test_level_arrays_match_the_einsum_connection(level_and_seed):
    _, lv, seed = level_and_seed
    for name in _LEVEL_ARRAYS:
        got, want = getattr(lv, name), getattr(seed, name)
        assert got.shape == want.shape, name
        if name in ("da_param", "f_param", "f_ambient"):
            assert np.max(np.abs(got - want)) <= _RANK_TWO_TOL, name
        else:
            assert np.array_equal(got, want), name


def test_kirwan_and_chern_match_the_einsum_connection(level_and_seed):
    sp, lv, seed = level_and_seed
    for alpha in (_unit(sp), sp.omega + sp.mu_phi_form().scale(1j)):
        got = R.kirwan_integral(alpha, lv, 0.05).coefficients
        assert got == R.kirwan_integral(alpha, seed, 0.05).coefficients
    # the phi-linear integral and the Chern number integrate F alone: they
    # are bit-identical on the 32-node mesh and move by at most one unit in
    # the last place on the 12-node one
    got = R.kirwan_integral(_phi_linear(sp), lv, 0.05).coefficients
    want = R.kirwan_integral(_phi_linear(sp), seed, 0.05).coefficients
    for g, w in zip(got, want):
        assert abs(g - w) <= (lv.mesh_density < 32) * np.spacing(abs(w))
    if lv.horizontal_dim == 2:
        got, want = R.chern_numbers(lv), R.chern_numbers(seed)
        tol = (lv.mesh_density < 32) * np.spacing(np.abs(want))
        assert np.all(np.abs(got - want) <= tol)
