"""The einsum level connection, kept as a reference.

Before the zero level was built from its constant structure, every node
evaluated the generator derivatives into an (ambient_dim, ambient_dim, N)
array, formed the Gram derivative and dA by per-node einsums, and pulled
Omega and dA back through the chart Jacobian with two einsums each.  The
row-arithmetic build (reduced._chart_conn_last) must give every level array
bit for bit, except dA and its pullback, which may move by roundoff.
"""

import numpy as np

from symloc.fields import column


def seed_embed_nodes(chart):
    """The chart's mesh points and Jacobian, node axis last."""
    if chart.n == 1:
        r0, th = chart.radii[0], chart.param_nodes[:, 0]
        x = np.stack([r0 * np.cos(th), r0 * np.sin(th)])
        jac = np.empty((2, 1, len(th)))
        jac[0, 0] = -r0 * np.sin(th)
        jac[1, 0] = x[0]
        return x, jac
    eta, x1, x2 = chart.axes
    m = eta.size
    ce, se = np.cos(eta)[:, None, None], np.sin(eta)[:, None, None]
    c1, s1 = np.cos(x1)[None, :, None], np.sin(x1)[None, :, None]
    c2, s2 = np.cos(x2)[None, None, :], np.sin(x2)[None, None, :]
    r1, r2 = chart.radii[0] * ce, chart.radii[1] * se
    dr1, dr2 = -chart.radii[0] * se, chart.radii[1] * ce
    x = np.empty((4, m, m, m))
    x[0], x[1], x[2], x[3] = r1 * c1, r1 * s1, r2 * c2, r2 * s2
    jac = np.zeros((4, 3, m, m, m))
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
        "da_param": first(da_u),
        "f_ambient": first(da[None]),
        "f_param": first(da_u),
    }

