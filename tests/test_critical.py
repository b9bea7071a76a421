"""Critical-set location and the local model around each component.

Frozen expectations are analytic: for cn_u1(n, a) the zeros of V mu* are
the level mu = 0 (value 0) and the fixed point z = 0 (value a^2/4); for
the quaternionic SU(2) plane the moment's Bloch identity
sum_a <z, e_a z>^2 = |z|^4 / 4 forces mu^{-1}(0) = {0}, so the only
critical component is the origin with value 0 and the quadratic moment
is bounded below by 1/4 on the unit sphere of the slice.
"""

import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import symloc
from symloc import critical
from symloc.critical import (
    CriticalComponent,
    _dedupe,
    _descend,
    _mst_clusters,
    _sobol_seeds,
    _vfield_and_jacobian,
    critical_values,
    find_critical_points,
    local_model_check,
)
from symloc.hamspace import HamiltonianSpace, catalog, catalog_names_for_validation
from symloc.liealg import InputError, NonConvergenceError, NotRegularError


def _residual_norms(space, pts):
    comps = space.v_mu_star_exprs()
    cache = {}
    cols = [
        np.broadcast_to(np.asarray(c.eval(pts, cache), float), (len(pts),))
        for c in comps
    ]
    return np.sqrt(np.sum(np.stack(cols, axis=1) ** 2, axis=1))


def _grad_mu2_norms(space, pts):
    mu2 = space.mu_norm2_expr()
    cache = {}
    cols = [
        np.broadcast_to(
            np.asarray(mu2.diff(i).eval(pts, cache), float), (len(pts),)
        )
        for i in range(space.ambient_dim)
    ]
    return np.sqrt(np.sum(np.stack(cols, axis=1) ** 2, axis=1))


def test_annulus_two_components():
    sp = catalog("cn_u1", n=1, a=1.0)
    comps = find_critical_points(sp, 0.4)
    assert len(comps) == 2
    level, origin = comps
    assert level.critical_value == pytest.approx(0.0, abs=1e-9)
    assert origin.critical_value == pytest.approx(0.25, abs=1e-9)
    # the value-0 component is the circle |z|^2 = 1
    rho = np.sum(level.representative_points ** 2, axis=1)
    assert np.max(np.abs(rho - 1.0)) < 1e-7
    # the other is the fixed point z = 0 with beta = mu*(0) = -a/2
    assert np.max(np.abs(origin.representative_points)) < 1e-7
    assert origin.beta_star == pytest.approx([-0.5], abs=1e-9)
    assert origin.moment_norm == pytest.approx(0.5, abs=1e-9)
    # defining invariant: representatives are zeros of V mu* within tolerance
    for c in comps:
        res = _residual_norms(sp, c.representative_points)
        assert np.max(res) <= c.tolerance


def test_su2_origin_component():
    sp = catalog("c2_su2")
    comps = find_critical_points(sp, 0.04)
    assert len(comps) == 1
    (comp,) = comps
    assert comp.critical_value == 0.0
    # the field vanishes cubically at the origin, so the residual target
    # alone only bounds the points by its cube root
    assert np.max(np.linalg.norm(comp.representative_points, axis=1)) < 1e-2
    assert comp.beta_star == pytest.approx([0.0, 0.0, 0.0], abs=1e-6)


def test_two_planes_restricted_to_first_value():
    # r_max = 0.2 excludes the z = 0 component at value 0.25
    sp = catalog("cn_u1", n=2, a=1.0)
    comps = find_critical_points(sp, 0.2)
    assert len(comps) == 1
    assert comps[0].critical_value == pytest.approx(0.0, abs=1e-9)


def test_r_max_below_first_positive_value():
    sp = catalog("cn_u1", n=1, a=1.0)
    comps = find_critical_points(sp, 0.1)
    assert [c.critical_value for c in comps] == pytest.approx([0.0], abs=1e-9)


def test_r_max_near_critical_value_rejected():
    sp = catalog("cn_u1", n=1, a=1.0)
    with pytest.raises(NotRegularError):
        find_critical_points(sp, 0.2505)
    with pytest.raises(InputError):
        find_critical_points(sp, -1.0)


def test_no_seeds_in_region_warns_and_returns_empty():
    sp = catalog("cn_u1", n=1, a=1.0)
    displaced = HamiltonianSpace(
        name=sp.name,
        algebra=sp.algebra,
        chart_id=sp.chart_id,
        ambient_dim=sp.ambient_dim,
        omega=sp.omega,
        omega_matrix=sp.omega_matrix,
        action=sp.action,
        moment_star=sp.moment_star,
        metric=sp.metric,
        sample_box=np.array([[2.0, 3.0], [2.0, 3.0]]),
        chart_radius=sp.chart_radius,
        action_sampler=sp.action_sampler,
    )
    with pytest.warns(UserWarning):
        assert find_critical_points(displaced, 0.1) == []


def test_determinism():
    sp = catalog("cn_u1", n=1, a=1.0)
    a = find_critical_points(sp, 0.4)
    b = find_critical_points(sp, 0.4)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.critical_value == y.critical_value
        assert np.array_equal(x.representative_points, y.representative_points)
        assert np.array_equal(x.beta_star, y.beta_star)
        assert x.tolerance == y.tolerance


@pytest.mark.parametrize(
    "name,kw,r_max",
    [
        ("cn_u1", dict(n=1, a=1.0), 0.4),
        ("c2_su2", {}, 0.04),
        ("cn_u1", dict(n=2, a=1.0), 0.2),
    ],
)
def test_zero_field_iff_critical(name, kw, r_max):
    # zeros of lambda are critical points of |mu|^2: d|mu|^2 stays within
    # an order of magnitude of the component tolerance
    sp = catalog(name, **kw)
    for c in find_critical_points(sp, r_max):
        grads = _grad_mu2_norms(sp, c.representative_points)
        assert np.max(grads) < 10.0 * c.tolerance


def test_first_descent_step_strictly_decreases():
    sp = catalog("cn_u1", n=1, a=1.0)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.5, 1.5, size=(40, 2))
    pts = pts[_grad_mu2_norms(sp, pts) > 0.1]
    assert len(pts) > 10
    f_eval, j_eval = _vfield_and_jacobian(sp)
    f0 = np.sum(f_eval(pts) ** 2, axis=1)
    _, f1 = _descend(f_eval, j_eval, pts.copy(), max_gd=1, max_newton=0)
    assert np.all(f1 < f0)


@pytest.mark.parametrize(
    "name,kw",
    [("cn_u1", dict(n=2, a=1.0)), ("c2_su2", {})],
    ids=["cn_u1(2,1)", "c2_su2"],
)
def test_descent_skips_converged_seeds(name, kw):
    # the Jacobian is evaluated only at seeds still short of the
    # Gauss-Newton target f = 1e-28
    sp = catalog(name, **kw)
    f_eval, j_eval = _vfield_and_jacobian(sp)
    seen = []

    def j_watched(pts):
        seen.append(np.sum(f_eval(pts) ** 2, axis=1))
        return j_eval(pts)

    starts = _sobol_seeds(sp, 1.0, 256 * sp.ambient_dim, 0)
    _, f = _descend(f_eval, j_watched, starts)
    assert np.min(np.concatenate(seen)) >= 1e-28
    assert np.all(f < 1e-16)


def test_degenerate_origin_reaches_the_newton_target():
    # V mu* is cubic at the c2_su2 origin; the damping scaled by J^T J
    # still takes Newton-like steps there
    (comp,) = find_critical_points(catalog("c2_su2"), 1.0)
    assert comp.critical_value == 0.0
    assert comp.tolerance <= 1e-13


def _descend_plain(f_eval, j_eval, x, max_gd=120, max_newton=50):
    """Reference: _descend with plain Levenberg-Marquardt steps only, as it
    was before the multiplicity steps."""
    x = np.array(x, dtype=float)
    F = f_eval(x)
    f = np.sum(F * F, axis=1)

    alpha = np.full(len(x), 0.1)
    active = np.nonzero(f >= 1e-18)[0]
    for _ in range(max_gd):
        if len(active) == 0:
            break
        J = j_eval(x[active])
        grad = 2.0 * np.einsum("nji,nj->ni", J, F[active])
        g2 = np.sum(grad * grad, axis=1)
        move = g2 > 1e-30
        rows, grad, g2 = active[move], grad[move], g2[move]
        f_before = f[rows]
        accepted = np.zeros(len(rows), dtype=bool)
        for _ in range(30):
            todo = np.nonzero(~accepted)[0]
            if len(todo) == 0:
                break
            idx = rows[todo]
            trial = x[idx] - alpha[idx, None] * grad[todo]
            Ft = f_eval(trial)
            ft = np.sum(Ft * Ft, axis=1)
            ok = ft <= f[idx] - 1e-4 * alpha[idx] * g2[todo]
            new = idx[ok]
            x[new] = trial[ok]
            f[new] = ft[ok]
            F[new] = Ft[ok]
            accepted[todo[ok]] = True
            alpha[idx[~ok]] *= 0.5
        moved = rows[accepted]
        alpha[moved] = np.minimum(alpha[moved] * 1.5, 1.0)
        fast = f[moved] <= critical.GD_HANDOFF * f_before[accepted]
        active = moved[fast & (f[moved] >= 1e-18)]

    lam = np.full(len(x), 1e-6)
    eye = np.eye(x.shape[1])
    for _ in range(max_newton):
        active = np.nonzero(f >= 1e-28)[0]
        if len(active) == 0:
            break
        J = j_eval(x[active])
        jtj = np.einsum("nji,njk->nik", J, J)
        rhs = -np.einsum("nji,nj->ni", J, F[active])
        scale = np.max(np.diagonal(jtj, axis1=1, axis2=2), axis=1)
        scale[scale == 0.0] = 1.0
        pending = np.arange(len(active))
        for _ in range(12):
            idx = active[pending]
            damp = (lam[idx] * scale[pending])[:, None, None] * eye
            try:
                dx = np.linalg.solve(
                    jtj[pending] + damp, rhs[pending][..., None]
                )[..., 0]
            except np.linalg.LinAlgError:
                lam[idx] *= 10.0
                continue
            trial = x[idx] + dx
            Ft = f_eval(trial)
            ft = np.sum(Ft * Ft, axis=1)
            ok = ft <= f[idx]
            new = idx[ok]
            x[new] = trial[ok]
            f[new] = ft[ok]
            F[new] = Ft[ok]
            lam[new] = np.maximum(lam[new] / 3.0, 1e-14)
            lam[idx[~ok]] *= 10.0
            pending = pending[~ok]
            if len(pending) == 0:
                break
    return x, f


# Sobol seed 5 holds a cn_u1(1,1) start whose steps shrink by a steady
# ratio although its zero is simple: without the drop-of-f gate it takes a
# multiplicity step
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("r_max", [0.5, 1.0, 2.0])
@pytest.mark.parametrize(
    "name,kw",
    [("cn_u1", dict(n=1, a=1.0)), ("cn_u1", dict(n=2, a=1.0)),
     ("weighted_cn_u1", dict(n=2, weights=(1, 2), a=1.0))],
    ids=["cn_u1(1,1)", "cn_u1(2,1)", "weighted_cn_u1(2,(1,2),1)"],
)
def test_descent_at_simple_zeros_matches_plain_reference(name, kw, r_max, seed):
    # no seed qualifies for a multiplicity step, so every bit is the plain
    # Levenberg-Marquardt one
    sp = catalog(name, **kw)
    f_eval, j_eval = _vfield_and_jacobian(sp)
    starts = _sobol_seeds(sp, r_max, 256 * sp.ambient_dim, seed)
    stats = {}
    pts, f = _descend(f_eval, j_eval, starts, stats=stats)
    ref_pts, ref_f = _descend_plain(f_eval, j_eval, starts)
    assert stats["boosted_seeds"] == 0
    assert np.array_equal(pts, ref_pts) and np.array_equal(f, ref_f)


def _newton_phase_jacobians(descend, f_eval, j_eval, starts):
    """Jacobian calls of the Gauss-Newton phase alone: the gradient phase
    runs first, and the second call starts where it handed off (the
    Gauss-Newton state starts afresh either way)."""
    handoff, _ = descend(f_eval, j_eval, starts, max_newton=0)
    calls = []

    def j_counted(pts):
        calls.append(len(pts))
        return j_eval(pts)

    _, f = descend(f_eval, j_counted, handoff, max_gd=0)
    return len(calls), f


def test_degenerate_origin_takes_multiplicity_steps():
    # V mu* is a homogeneous cubic at the c2_su2 origin: plain steps shrink
    # the point by 2/3 each, the multiplicity step x + 3 dx lands on it
    sp = catalog("c2_su2")
    f_eval, j_eval = _vfield_and_jacobian(sp)
    starts = _sobol_seeds(sp, 1.0, 256 * sp.ambient_dim, 0)
    n_plain, _ = _newton_phase_jacobians(_descend_plain, f_eval, j_eval, starts)
    n_boost, f = _newton_phase_jacobians(_descend, f_eval, j_eval, starts)
    assert n_plain > 20
    assert n_boost <= 8
    assert np.all(f < 1e-28)


def _cubic(x):
    return np.sum(x * x, axis=1)[:, None] * x


def _cubic_jacobian(x):
    r2 = np.sum(x * x, axis=1)
    return r2[:, None, None] * np.eye(2) + 2.0 * x[:, :, None] * x[:, None, :]


def test_multiplicity_steps_on_a_triple_zero():
    # F(x) = |x|^2 x in R^2 vanishes to order p = 3 at the origin
    starts = np.random.default_rng(4).uniform(-1.0, 1.0, (64, 2))
    stats = {}
    _, f = _descend(_cubic, _cubic_jacobian, starts, stats=stats)
    assert stats["boosted_seeds"] == 64 and stats["orders"] == [3]
    assert stats["newton_iterations"] <= 8
    assert np.all(f < 1e-28)
    _, f_plain = _descend_plain(_cubic, _cubic_jacobian, starts)
    assert np.all(f_plain < 1e-28)


def test_no_multiplicity_steps_on_a_linear_field(monkeypatch):
    # F(x) = A x - b with a singular value of 1e-7: once lam reaches its
    # floor the damped steps shrink by a steady ratio of about 1/2, yet f
    # drops like rho^2, not rho^4, so the zero is simple and no seed
    # qualifies
    a = np.diag([1.0, 1e-7])
    b = a @ np.array([0.3, -0.2])

    def f_eval(x):
        return x @ a.T - b

    def j_eval(x):
        return np.broadcast_to(a, (len(x), 2, 2)).copy()

    starts = np.random.default_rng(4).uniform(-1.0, 1.0, (64, 2))
    stats = {}
    pts, f = _descend(f_eval, j_eval, starts, stats=stats)
    assert stats["boosted_seeds"] == 0
    ref_pts, ref_f = _descend_plain(f_eval, j_eval, starts)
    assert np.array_equal(pts, ref_pts) and np.array_equal(f, ref_f)
    # the steady ratio alone would qualify them: the drop of f decides
    monkeypatch.setattr(critical, "BOOST_F_FIT", np.inf)
    stats = {}
    _descend(f_eval, j_eval, starts, stats=stats)
    assert stats["boosted_seeds"] > 0


def test_search_logs_its_multiplicity_steps(caplog):
    with caplog.at_level(logging.DEBUG, logger="symloc.critical"):
        find_critical_points(catalog("c2_su2"), 1.0)
    (rec,) = [r for r in caplog.records if r.name == "symloc.critical"]
    assert rec.levelno == logging.DEBUG
    msg = rec.getMessage()
    assert "4 Gauss-Newton iterations" in msg
    assert "1024 seeds took multiplicity steps (p in [3])" in msg


# (critical values, number of components) on every validation space; the
# count is None for the three continuum sets, which today split into one
# component per seed (pinned by test_continuum_critical_set_is_one_component)
_VALIDATION_COMPONENTS = {
    "cn_u1(1,1)": ([0.0, 0.25], 2),
    "cn_u1(2,1)": ([0.0, 0.25], 2),
    "weighted_cn_u1(2,(1,2),1)": ([0.0, 0.25], 2),
    "c2_su2": ([0.0], 1),
    "standard_model(u1_w1,G)": ([0.0], None),
    "standard_model(u1_w1,H)": ([0.0], 1),
    "standard_model(u1_beta,G)": ([0.0], 1),
    "standard_model(su2_hopf,G)": ([0.0], None),
    "standard_model(su2_hopf,H)": ([0.0], None),
}


@pytest.mark.parametrize(
    "name,build",
    [pytest.param(name, build, id=name)
     for name, build in catalog_names_for_validation()],
)
def test_validation_spaces_components(name, build):
    values, count = _VALIDATION_COMPONENTS[name]
    sp = build()
    for r_max in (0.5, 1.0, 2.0):
        comps = find_critical_points(sp, r_max)
        assert sorted({c.critical_value for c in comps}) == values, r_max
        if count is not None:
            assert len(comps) == count, r_max


@pytest.mark.xfail(strict=True, reason="every MST edge of the sparse sample "
                   "exceeds 4 * cluster_radius, so the cut fires at the first")
def test_continuum_critical_set_is_one_component():
    sp = catalog("standard_model", preset="u1_w1", which="G")
    assert len(find_critical_points(sp, 1.0)) == 1


def _prim_clusters(pts, cluster_radius, jump=4.0):
    """Reference: Prim's MST on the dense distance matrix, the same
    scale-jump cut, and union-find over the edges below it."""
    n = len(pts)
    if n == 1:
        return [[0]], None
    diffs = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diffs * diffs, axis=2))
    best = dist[0].copy()
    best_from = np.zeros(n, dtype=int)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best[0] = np.inf
    edges = []
    for _ in range(n - 1):
        j = int(np.argmin(best))
        edges.append((float(best[j]), int(best_from[j]), j))
        in_tree[j] = True
        closer = dist[j] < best
        best_from[closer] = j
        best = np.where(closer, dist[j], best)
        best[in_tree] = np.inf
    cut_at = None
    prev = cluster_radius
    for ln in sorted(e[0] for e in edges):
        if ln > cluster_radius and ln > jump * prev:
            cut_at = ln
            break
        prev = max(prev, ln)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for ln, i, j in edges:
        if cut_at is not None and ln >= cut_at:
            continue
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[k] for k in sorted(groups)], cut_at


def _clustering_cases():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 120))
        d, k = (int(v) for v in rng.integers(1, 5, size=2))
        centers = rng.uniform(-3.0, 3.0, (k, d))
        spread = 10.0 ** rng.uniform(-4.0, -0.5)
        pts = centers[rng.integers(0, k, n)] + spread * rng.uniform(0.0, 1.0, (n, d))
        yield pts, 10.0 ** rng.uniform(-3.0, -1.0)
    yield np.array([[0.3, -0.2]]), 1e-2
    # integer lattices: every MST edge ties with many others
    for shape in [(6,), (4, 4), (3, 3, 3)]:
        grid = np.stack(np.meshgrid(*[np.arange(m, dtype=float) for m in shape],
                                    indexing="ij"), axis=-1).reshape(-1, len(shape))
        for pts in (grid, np.concatenate([grid, grid + 20.0])):
            for radius in (0.1, 0.3, 1.0, 2.0):
                yield pts, radius


def test_single_linkage_matches_prim_reference():
    n_cut = 0
    for pts, radius in _clustering_cases():
        groups, cut_at = _mst_clusters(pts, radius)
        assert (groups, cut_at) == _prim_clusters(pts, radius)
        n_cut += cut_at is not None
    assert n_cut > 20  # the cut path is exercised, not only the no-cut one


def _dedupe_loop(pts, f, resolution=1e-7):
    """The point-by-point _dedupe, kept as the reference."""
    keys = np.round(pts / resolution).astype(np.int64)
    seen, keep, mult = {}, [], []
    for i in range(len(pts)):
        k = tuple(keys[i])
        j = seen.get(k)
        if j is None:
            seen[k] = len(keep)
            keep.append(i)
            mult.append(1)
        else:
            mult[j] += 1
            if f[i] < f[keep[j]]:
                keep[j] = i
    idx = np.array(keep)
    return pts[idx], f[idx], np.array(mult)


def test_dedupe_matches_the_loop():
    rng = np.random.default_rng(8)
    n_tied = 0
    for d in (1, 2, 4):
        for n in (1, 7, 200):
            # few distinct cells, jittered below the resolution, and
            # residuals drawn from a few values so that ties occur
            cells = rng.integers(-3, 4, size=(n, d)) * 1e-6
            pts = cells + rng.uniform(-2e-8, 2e-8, size=(n, d))
            f = rng.choice([1e-20, 2e-20, 3e-20], size=n)
            got, want = _dedupe(pts, f), _dedupe_loop(pts, f)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
            keys = np.round(pts / 1e-7).astype(np.int64)
            n_tied += n - len({(tuple(k), x) for k, x in zip(keys, f)})
    assert n_tied > 100  # tied residuals inside a cell are exercised


def test_values_and_probes_annulus():
    sp = catalog("cn_u1", n=1, a=1.0)
    vals, probes = critical_values(find_critical_points(sp, 0.4))
    assert vals == pytest.approx([0.0, 0.25], abs=1e-9)
    assert probes[0][0] is None
    assert probes[0][1] == pytest.approx(0.1, abs=1e-9)
    assert probes[1][0] == pytest.approx(0.15, abs=1e-9)
    assert probes[1][1] == pytest.approx(0.4, abs=1e-9)
    # distinct values are separated at desk scale
    assert vals[1] - vals[0] > 1e-4


def _component(value, pts=((0.3, 0.0),), beta=(0.0,)):
    return CriticalComponent(
        representative_points=np.array(pts, dtype=float),
        critical_value=value,
        moment_norm=float(np.sqrt(max(value, 0.0))),
        beta_star=np.array(beta),
        tolerance=1e-12,
    )


def test_values_single_and_empty():
    assert critical_values([]) == ([], [])
    vals, probes = critical_values([_component(0.09)])
    assert vals == [0.09]
    lo, hi = probes[0]
    # with no neighbor below, the gap defaults to the value itself
    assert lo == pytest.approx(0.054) and hi == pytest.approx(0.144)
    assert lo < 0.09 < hi


def test_values_overlap_is_an_error():
    with pytest.raises(NonConvergenceError):
        critical_values([_component(0.1), _component(0.10005)])


def test_component_validation_and_json():
    c = _component(-1e-13)  # solver noise clamps to zero
    assert c.critical_value == 0.0
    with pytest.raises(InputError):
        _component(-0.1)
    rec = json.loads(_component(0.25).to_json())
    assert rec["critical_value"] == 0.25
    assert rec["representative_points"] == [[0.3, 0.0]]


def test_local_model_fixed_point():
    # at z = 0, beta = -1/2 acts invertibly on the slice C: Z = {0}, the
    # smallest weight is 1/2, and the other solutions of (beta + Q_x)x = 0
    # (the circle |x|^2 = 1) achieve |Q_x| = 1/2 exactly
    sp = catalog("cn_u1", n=1, a=1.0)
    comps = find_critical_points(sp, 0.4)
    rep = local_model_check(sp, comps[1])
    assert rep["ok"]
    assert rep["h_dim"] == 1
    assert rep["slice_dim"] == 2
    sep = rep["separation"]
    assert sep is not None
    assert sep["min_weight"] == pytest.approx(0.5, abs=1e-9)
    assert sep["n_other"] > 0
    assert sep["min_qx_on_other"] >= 0.5 - 1e-7
    assert sep["ok"]


def test_local_model_free_level_set():
    # on the free mu = 0 sphere the stabilizer is trivial: Q vanishes
    # identically and Z is the whole slice
    sp = catalog("cn_u1", n=2, a=1.0)
    (comp,) = find_critical_points(sp, 0.2)
    rep = local_model_check(sp, comp)
    assert rep["ok"]
    assert rep["h_dim"] == 0
    assert rep["slice_dim"] == 2
    assert rep["z_min_q_on_kernel_sphere"] == 0.0
    assert rep["separation"] is None


def test_local_model_su2_cone_is_trivial():
    # beta = 0 at the origin; Z = {Q_x = 0} = mu^{-1}(0), and the moment's
    # Bloch identity keeps |Q_x| = 1/4 on the unit sphere: the cone is {0}
    sp = catalog("c2_su2")
    (comp,) = find_critical_points(sp, 0.04)
    rep = local_model_check(sp, comp)
    assert rep["ok"]
    assert rep["h_dim"] == 3
    assert rep["slice_dim"] == 4
    assert rep["z_min_q_on_kernel_sphere"] == pytest.approx(0.25, abs=1e-6)
    assert rep["separation"] is None


def test_local_model_requires_representatives():
    sp = catalog("cn_u1", n=1, a=1.0)
    empty = CriticalComponent(
        representative_points=np.empty((0, 2)),
        critical_value=0.0,
        moment_norm=0.0,
        beta_star=np.array([0.0]),
        tolerance=1e-12,
    )
    with pytest.raises(InputError):
        local_model_check(sp, empty)


def test_scipy_stats_is_imported_only_by_the_seed_sampler():
    src = os.path.dirname(os.path.dirname(os.path.abspath(symloc.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, symloc.analysis, symloc.reduced; "
        "print('scipy.stats' in sys.modules, 'scipy.cluster' in sys.modules, "
        "'scipy.linalg' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.strip() == "False False False"
