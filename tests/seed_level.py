"""The einsum level connection and the own-parametrization surfaces,
kept as references.

Before the zero level was built from its constant structure, every node
evaluated the generator derivatives into an (ambient_dim, ambient_dim, N)
array, formed the Gram derivative and dA by per-node einsums, and pulled
Omega and dA back through the chart Jacobian with two einsums each.  The
build from the constant structure (reduced._checked_level, which reads D,
g, S = Dg - (Dg)^T and Omega once) must give every level array bit for
bit, except dA's pullback, whose rank-2 form may move by roundoff.

Before the surfaces {s = s0} were built on the zero level's chart
(integrate._LevelChart), they had their own cos/sin/meshgrid
parametrization (seed_build_surface).  The chart must give its nodes,
Jacobians, weights and orientation bit for bit wherever the angle count is
a power of two.
"""

import math

import numpy as np

from symloc.fields import column


def seed_embed_nodes(chart):
    """The chart's mesh points and Jacobian, node axis last, from cos and
    sin on each axis broadcast over the tensor mesh."""
    if chart.n == 1:
        r0, th = chart.radii[0], chart.param_nodes[:, 0]
        x = np.stack([r0 * np.cos(th), r0 * np.sin(th)])
        jac = np.empty((2, 1, len(th)))
        jac[0, 0] = -r0 * np.sin(th)
        jac[1, 0] = x[0]
        return x, jac
    eta, x1, x2 = chart.axes
    ce, se = np.cos(eta)[:, None, None], np.sin(eta)[:, None, None]
    c1, s1 = np.cos(x1)[None, :, None], np.sin(x1)[None, :, None]
    c2, s2 = np.cos(x2)[None, None, :], np.sin(x2)[None, None, :]
    r1, r2 = chart.radii[0] * ce, chart.radii[1] * se
    dr1, dr2 = -chart.radii[0] * se, chart.radii[1] * ce
    x = np.empty((4,) + chart.grid_shape)
    x[0], x[1], x[2], x[3] = r1 * c1, r1 * s1, r2 * c2, r2 * s2
    jac = np.zeros((4, 3) + chart.grid_shape)
    jac[0, 0], jac[1, 0] = dr1 * c1, dr1 * s1
    jac[2, 0], jac[3, 0] = dr2 * c2, dr2 * s2
    jac[0, 1], jac[1, 1] = -x[1], x[0]
    jac[2, 2], jac[3, 2] = -x[3], x[2]
    return x.reshape(4, -1), jac.reshape(4, 3, -1)


def seed_metric_connection(space, x, cache):
    """V, the metric, g V, 1 / G and A at the (N, ambient_dim) points."""
    metric = space.metric.value
    v_field = np.empty((space.ambient_dim, len(x)))
    for i, comp in enumerate(space.action.components[0]):
        v_field[i] = column(comp, x, cache)
    vg = np.einsum("jn,jl->ln", v_field, metric)
    gram_inv = 1.0 / np.einsum("ln,ln->n", vg, v_field)
    return v_field, metric, vg, gram_inv, gram_inv * vg


def seed_connection_at(space, x):
    """V, A and dA (= F) at the (N, ambient_dim) points, dA from the
    per-node generator derivatives."""
    cache: dict = {}
    amb = space.ambient_dim
    v_field, metric, vg, gram_inv, conn = seed_metric_connection(space, x, cache)
    dv_field = np.empty((amb, amb, len(x)))
    for i, comp in enumerate(space.action.components[0]):
        for k in range(amb):
            dv_field[k, i] = column(comp.diff(k), x, cache)
    dvg = np.einsum("kjn,jl->kln", dv_field, metric)
    dgram = np.einsum("kln,ln->kn", dvg, v_field) + np.einsum(
        "ln,kln->kn", vg, dv_field
    )
    d_conn = dvg
    d_conn -= dgram[:, None] * conn
    d_conn *= gram_inv
    return v_field, conn, d_conn - d_conn.transpose(1, 0, 2)


def seed_gram_det_adjugate(jtj):
    """Determinant and adjugate of a (k, k, N) stack, k = 1 or 3."""
    if len(jtj) == 1:
        return jtj[0, 0], np.ones_like(jtj)
    (a, b, c), (_, d, e), (_, _, f) = jtj
    c00, c01, c02 = d * f - e * e, c * e - b * f, b * e - c * d
    c11, c12, c22 = a * f - c * c, b * c - a * e, a * d - b * b
    adj = np.array([[c00, c01, c02], [c01, c11, c12], [c02, c12, c22]])
    return a * c00 + b * c01 + c * c02, adj


def seed_pull_back_matrix(jac, mat):
    """J^T M J for node-last (amb, k, N) J and (amb, amb, N) M."""
    return np.einsum("kjn,jln->kln", np.einsum("ikn,ijn->kjn", jac, mat), jac)


def seed_level_arrays(space, chart):
    """The ZeroLevelData arrays of ``space`` on ``chart``'s mesh, node
    axis first as the level stores them."""
    x, jac = seed_embed_nodes(chart)
    v_field, conn, da = seed_connection_at(space, x.T)
    omega_amb = np.moveaxis(
        np.asarray(space.omega_matrix.eval(x.T, {}), dtype=float), 0, -1
    )
    jtj = np.einsum("ikn,iln->kln", jac, jac)
    jtj_det, adj = seed_gram_det_adjugate(jtj)
    jtv = np.einsum("ikn,in->kn", jac, v_field)
    da_u = seed_pull_back_matrix(jac, da)[None]
    first = lambda arr: np.moveaxis(arr, -1, 0)  # noqa: E731
    return {
        "param_nodes": chart.param_nodes,
        "param_weights": chart.param_weights,
        "nodes": first(x),
        "jacobians": first(jac),
        "riemann_weights": chart.param_weights * np.sqrt(jtj_det),
        "connection_ambient": first(conn[None]),
        "connection_param": first(np.einsum("in,ikn->kn", conn, jac)[None]),
        "vertical_param": first((np.einsum("kln,ln->kn", adj, jtv) / jtj_det)[None]),
        "omega_param": first(seed_pull_back_matrix(jac, omega_amb)),
        "f_param": first(da_u),
    }



def seed_build_surface(info, s_value, level, scheme, outward):
    """(nodes, jac, weights, orient_sign) of {s = s_value} at refinement
    ``level`` of ``scheme``, oriented as the outer (``outward`` = +1) or
    inner (-1) shell of a boundary: one plane, a circle in theta; two planes,
    (psi, theta1, theta2) with rho1 = s cos^2 psi / w1,
    rho2 = s sin^2 psi / w2."""
    n_psi = scheme.base_radial * (1 << level)
    n_ang = scheme.base_angular * (1 << min(level, 2))
    ang = 2.0 * np.pi * np.arange(n_ang) / n_ang
    ang_w = 2.0 * np.pi / n_ang
    if info.planes == 1:
        (w1,) = info.weights
        rad = math.sqrt(s_value / w1)
        cos, sin = np.cos(ang), np.sin(ang)
        nodes = np.stack([rad * cos, rad * sin], axis=1)
        jac = np.zeros((n_ang, 2, 1))
        jac[:, 0, 0] = -rad * sin
        jac[:, 1, 0] = rad * cos
        weights = np.full(n_ang, ang_w)
    else:
        w1, w2 = info.weights
        r1 = math.sqrt(s_value / w1)
        r2 = math.sqrt(s_value / w2)
        gl_x, gl_w = np.polynomial.legendre.leggauss(n_psi)
        half = 0.5 * (0.5 * np.pi)
        psi, psi_w = half * (gl_x + 1.0), half * gl_w
        grid = np.meshgrid(psi, ang, ang, indexing="ij")
        ps, t1, t2 = (g.ravel() for g in grid)
        wts = np.meshgrid(psi_w, np.full(n_ang, ang_w), np.full(n_ang, ang_w),
                          indexing="ij")
        weights = (wts[0] * wts[1] * wts[2]).ravel()
        cp, sp = np.cos(ps), np.sin(ps)
        c1, s1 = np.cos(t1), np.sin(t1)
        c2, s2 = np.cos(t2), np.sin(t2)
        nodes = np.stack(
            [r1 * cp * c1, r1 * cp * s1, r2 * sp * c2, r2 * sp * s2], axis=1
        )
        jac = np.zeros((nodes.shape[0], 4, 3))
        jac[:, 0, 0] = -r1 * sp * c1
        jac[:, 1, 0] = -r1 * sp * s1
        jac[:, 2, 0] = r2 * cp * c2
        jac[:, 3, 0] = r2 * cp * s2
        jac[:, 0, 1] = -r1 * cp * s1
        jac[:, 1, 1] = r1 * cp * c1
        jac[:, 2, 2] = -r2 * sp * s2
        jac[:, 3, 2] = r2 * sp * c2
    w_full = np.repeat(info.weights, 2)
    signs = set()
    for idx in range(0, nodes.shape[0], max(1, nodes.shape[0] // 7)):
        normal = outward * 2.0 * w_full * nodes[idx]
        det = np.linalg.det(np.column_stack([normal, jac[idx]]))
        if abs(det) > 1e-12:
            signs.add(1.0 if det > 0 else -1.0)
    assert len(signs) == 1
    return nodes, jac, weights, signs.pop()
