"""The zero moment level, its connection, and reduced-space integrals.

When the symmetry group acts with finite stabilizers on mu^{-1}(0), the
level set is a compact manifold carrying an orbifold principal bundle
pi: mu^{-1}(0) -> M_red.  For the catalog families with a closed-form
level parametrization (the u(1) circle and Hopf-sphere families) this
module realizes:

* ``zero_level``        -- mesh + induced measure + the metric connection
                           A = G(p)^{-1} <V ., .>  with  G_ab = <V e_a, V e_b>,
                           the unique connection whose horizontal space is the
                           metric orthogonal complement of the orbit; it is
                           normalized so that A(V phi) = phi pointwise.
                           The level keeps A, dA, F, omega and the vertical
                           generators pulled back to parameter coordinates;
                           ``cartan_map`` and ``kirwan_integral`` read them
                           from it instead of recomputing them.
* ``curvature``         -- F_A = dA + (1/2)[A, A], horizontal by construction.
* ``cartan_map``        -- restrict an equivariant form to the level set,
                           substitute phi -> i F_A, and project horizontally;
                           the output is basic (invariant + horizontal) and
                           descends to M_red.
* ``kirwan_integral``   -- int_{M_red} kappa(alpha) exp(omega_0 + (eps/2)|F_A|^2)
                           computed upstairs: wedge with the vertical volume
                           form A^1 ^ ... ^ A^d (which kills every non-horizontal
                           component), integrate over mu^{-1}(0), divide by
                           vol(G).  Because each orbit carries vertical volume
                           vol(G)/|Gamma| in the A-normalized measure, this is
                           the *orbifold* integral over M_red -- the quantity the
                           small-eps limit of the Basic Integral actually
                           produces (for the weight-2 circle it is 1/2, not 1).
                           The result is an explicit polynomial in eps of degree
                           <= dim(M_red)/4, returned with its coefficient vector.
* ``normal_form_check`` -- the collar model on mu^{-1}(0) x g with
                           omega~ = pi* omega_0 + d<nu, A> and mu~ = nu,
                           verified closed, nondegenerate out to a scanned
                           collar radius, and satisfying the moment condition
                           iota_{V phi} omega~ = -d<nu, phi> at sampled points.

Orientation convention: the level set is oriented so that the reduced
Liouville volume int_{M_red} exp(omega_0) comes out positive; every reduced
integral is reported in that orientation.  Chern numbers follow the complex
convention: the u(1) generator acts as multiplication by i, so the
anti-Hermitian curvature is i F and c_1 integrates -F/(2 pi).

c2_su2 deliberately fails here: its zero level is the single point at the
origin, where d mu has rank zero, so ``zero_level`` raises NotRegularError.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .fields import Expr, MatConst, column  # noqa: F401  (Expr is re-exported for annotations)
from .forms import EquivariantForm, _merge_sign, invariance_residual
from .hamspace import HamiltonianSpace, sample_points
from .integrate import _leggauss, check_alpha
from .liealg import AccuracyError, InputError, NotRegularError

__all__ = [
    "ZeroLevelData",
    "CurvatureData",
    "LevelForm",
    "KirwanResult",
    "zero_level",
    "curvature",
    "cartan_map",
    "cartan_d_residual",
    "basic_residual",
    "kirwan_integral",
    "chern_numbers",
    "normal_form_check",
]


# ---------------------------------------------------------------------------
# pointwise exterior algebra on the parametrized level set
#
# A form is a dict {strictly increasing index tuple: (N,) complex array} over
# the parametrization coordinates; the empty tuple holds the scalar part.
# ---------------------------------------------------------------------------


def _wedge(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            merged, sign = _merge_sign(ka, kb)
            if merged is None:
                continue
            term = va * vb
            if sign < 0:
                term = -term
            out[merged] = out[merged] + term if merged in out else term
    return out


def _scale_parts(a: dict, c) -> dict:
    return {k: c * v for k, v in a.items()}


def _add_parts(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] + v if k in out else v
    return out


def _pullback(parts: dict, mats: np.ndarray, out_dim: int) -> dict:
    """Pull a pointwise form back under the linear maps ``mats``.

    ``mats`` has shape (N, rows, cols); a p-form over row indices becomes a
    p-form over column indices via the minor determinants
    (beta_*)_U = sum_W beta_W det(mats[W, U]).
    """
    out: dict = {}
    for w_idx, coeff in parts.items():
        p = len(w_idx)
        if p == 0:
            out[()] = out[()] + coeff if () in out else coeff
            continue
        rows = mats[:, list(w_idx), :]
        for u_idx in itertools.combinations(range(out_dim), p):
            sub = rows[:, :, list(u_idx)]
            det = sub[:, 0, 0] if p == 1 else np.linalg.det(sub)
            term = coeff * det
            out[u_idx] = out[u_idx] + term if u_idx in out else term
    return out


def _contract_parts(parts: dict, vec: np.ndarray) -> dict:
    """Interior product with a pointwise vector field (N, dim)."""
    out: dict = {}
    for idx, coeff in parts.items():
        for pos, i in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1 :]
            term = coeff * vec[:, i]
            if pos % 2:
                term = -term
            out[rest] = out[rest] + term if rest in out else term
    return out


def _matrix_to_parts(mat: np.ndarray) -> dict:
    """Antisymmetric (N, k, k) matrix -> two-form dict."""
    k = mat.shape[-1]
    out = {}
    for i in range(k):
        for j in range(i + 1, k):
            col = np.ascontiguousarray(mat[:, i, j]).astype(complex)
            if np.any(col):
                out[(i, j)] = col
    return out


def _max_abs(parts: dict) -> float:
    return max((float(np.max(np.abs(v))) for v in parts.values()), default=0.0)


class LevelForm:
    """An ordinary differential form on the zero level set, stored pointwise
    on the level mesh in parametrization coordinates."""

    __slots__ = ("param_dim", "n_nodes", "parts")

    def __init__(self, param_dim: int, n_nodes: int, parts: dict):
        object.__setattr__(self, "param_dim", int(param_dim))
        object.__setattr__(self, "n_nodes", int(n_nodes))
        clean = {}
        for idx, coeff in parts.items():
            idx = tuple(int(i) for i in idx)
            if any(b <= a for a, b in zip(idx, idx[1:])):
                raise InputError("form index tuples must be strictly increasing")
            coeff = np.asarray(coeff, dtype=complex)
            if coeff.shape != (n_nodes,):
                coeff = np.broadcast_to(coeff, (n_nodes,)).copy()
            clean[idx] = coeff
        object.__setattr__(self, "parts", clean)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def degrees(self) -> set:
        return {len(idx) for idx in self.parts}

    def coefficient(self, idx) -> np.ndarray:
        idx = tuple(int(i) for i in idx)
        if idx in self.parts:
            return self.parts[idx]
        return np.zeros(self.n_nodes, dtype=complex)

    def max_abs(self) -> float:
        return _max_abs(self.parts)


# ---------------------------------------------------------------------------
# closed-form parametrizations of the u(1) zero levels
# ---------------------------------------------------------------------------


class _U1LevelChart:
    """Parametrization of {sum_j w_j |z_j|^2 = a} for one or two planes.

    One plane: the circle of radius sqrt(a/w), angle theta in [0, 2 pi).
    Two planes: Hopf-style coordinates (eta, xi1, xi2) with
    |z_1| = sqrt(a/w_1) cos eta, |z_2| = sqrt(a/w_2) sin eta,
    eta in (0, pi/2) sampled at Gauss-Legendre nodes (the open interval
    avoids the coordinate degeneracy at the poles), angles on uniform
    periodic grids.
    """

    __slots__ = (
        "n",
        "weights",
        "level_a",
        "radii",
        "param_dim",
        "grid_shape",
        "param_nodes",
        "param_weights",
        "angle_axes",
        "angle_steps",
    )

    def __init__(self, weights, a: float, mesh_density: int):
        n = len(weights)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", tuple(int(w) for w in weights))
        object.__setattr__(self, "level_a", float(a))
        object.__setattr__(
            self, "radii", tuple(math.sqrt(a / w) for w in weights)
        )
        m = int(mesh_density)
        if n == 1:
            theta = np.arange(m) * (2.0 * math.pi / m)
            object.__setattr__(self, "param_dim", 1)
            object.__setattr__(self, "grid_shape", (m,))
            object.__setattr__(self, "param_nodes", theta[:, None].copy())
            object.__setattr__(
                self, "param_weights", np.full(m, 2.0 * math.pi / m)
            )
            # the generator advances theta by w per unit time; one angular
            # grid step corresponds to the group element exp((2 pi / (m w)) e)
            object.__setattr__(self, "angle_axes", (0,))
            object.__setattr__(self, "angle_steps", (self.weights[0],))
            return
        # two planes
        gl_x, gl_w = _leggauss(m)
        eta = 0.25 * math.pi * (gl_x + 1.0)
        eta_w = 0.25 * math.pi * gl_w
        ang = np.arange(m) * (2.0 * math.pi / m)
        ang_w = 2.0 * math.pi / m
        grids = np.meshgrid(eta, ang, ang, indexing="ij")
        nodes = np.stack([g.reshape(-1) for g in grids], axis=1)
        wts = (eta_w[:, None, None] * ang_w * ang_w) * np.ones((m, m, m))
        object.__setattr__(self, "param_dim", 3)
        object.__setattr__(self, "grid_shape", (m, m, m))
        object.__setattr__(self, "param_nodes", nodes)
        object.__setattr__(self, "param_weights", wts.reshape(-1))
        object.__setattr__(self, "angle_axes", (1, 2))
        object.__setattr__(self, "angle_steps", tuple(self.weights))

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def embed(self, u: np.ndarray):
        """The ambient points x and the Jacobian dx/du at the (N,
        param_dim) parameter points ``u``, node axis last: x is
        (ambient_dim, N) and the Jacobian (ambient_dim, param_dim, N)."""
        u = np.asarray(u, dtype=float)
        if self.n == 1:
            r0 = self.radii[0]
            th = u[:, 0]
            x = np.stack([r0 * np.cos(th), r0 * np.sin(th)])
            jac = np.empty((2, 1, len(u)))
            jac[0, 0] = -r0 * np.sin(th)
            jac[1, 0] = x[0]
            return x, jac
        eta, x1, x2 = u[:, 0], u[:, 1], u[:, 2]
        c1, s1 = np.cos(x1), np.sin(x1)
        c2, s2 = np.cos(x2), np.sin(x2)
        r1 = self.radii[0] * np.cos(eta)
        r2 = self.radii[1] * np.sin(eta)
        dr1 = -self.radii[0] * np.sin(eta)
        dr2 = self.radii[1] * np.cos(eta)
        x = np.stack([r1 * c1, r1 * s1, r2 * c2, r2 * s2])
        jac = np.zeros((4, 3, len(u)))
        jac[0, 0] = dr1 * c1
        jac[1, 0] = dr1 * s1
        jac[2, 0] = dr2 * c2
        jac[3, 0] = dr2 * s2
        jac[0, 1] = -x[1]
        jac[1, 1] = x[0]
        jac[2, 2] = -x[3]
        jac[3, 2] = x[2]
        return x, jac


# ---------------------------------------------------------------------------
# the metric connection and its derivatives, from exact field expressions
#
# The level families are U(1) with a constant metric.  Inside this section
# every per-node array has the node axis last and no generator axis (there
# is one generator): V and A are (ambient_dim, N), dA is (ambient_dim,
# ambient_dim, N), so each small-matrix product is a few vector operations
# over the nodes.  _chart_conn_at and zero_level hand the data on in the
# (N, dim g, ...) layout of ZeroLevelData.
# ---------------------------------------------------------------------------


def _metric_connection(space: HamiltonianSpace, x: np.ndarray, cache: dict) -> dict:
    """The generator field V, the constant metric g, Vg, the reciprocal of
    the 1 x 1 Gram G = <V e, V e>, and A = G^{-1} Vg at the (N, ambient_dim)
    points ``x``, node axis last.

    Refuses more than one generator (a g x g Gram needs an inverse, not a
    reciprocal) and a metric that is not a constant matrix field (its
    derivatives would enter dA)."""
    gdim = space.algebra.dim
    if gdim != 1:
        raise InputError(
            f"the level connection is implemented for one generator, got {gdim}"
        )
    if not isinstance(space.metric, MatConst):
        raise InputError(
            "the level connection is implemented for a constant metric, got "
            f"{type(space.metric).__name__}"
        )
    metric = space.metric.value
    v_field = np.empty((space.ambient_dim, len(x)))
    for i, comp in enumerate(space.action.components[0]):
        v_field[i] = column(comp, x, cache)
    vg = np.einsum("jn,jl->ln", v_field, metric)
    gram_inv = 1.0 / np.einsum("ln,ln->n", vg, v_field)
    return {
        "V": v_field,
        "metric": metric,
        "vg": vg,
        "gram_inv": gram_inv,
        "A": gram_inv * vg,
    }


def _connection_at(space: HamiltonianSpace, x: np.ndarray) -> dict:
    """A, dA, and the curvature F at ambient points, from symbolic
    derivatives of the action (no finite differences; the metric is
    constant).  u(1) is abelian, so F = dA: the same array."""
    cache: dict = {}
    amb = space.ambient_dim
    base = _metric_connection(space, x, cache)
    v_field, metric, vg = base["V"], base["metric"], base["vg"]
    gram_inv, conn = base["gram_inv"], base["A"]
    # dv_field[k, i] = d_k V^i
    dv_field = np.empty((amb, amb, len(x)))
    for i, comp in enumerate(space.action.components[0]):
        for k in range(amb):
            dv_field[k, i] = column(comp.diff(k), x, cache)
    dvg = np.einsum("kjn,jl->kln", dv_field, metric)
    dgram = np.einsum("kln,ln->kn", dvg, v_field) + np.einsum(
        "ln,kln->kn", vg, dv_field
    )
    # d_k A = G^{-1} (d_k Vg - (d_k G) A), in place over dvg, and
    # (dA)_ij = d_i A_j - d_j A_i
    d_conn = dvg
    d_conn -= dgram[:, None] * conn
    d_conn *= gram_inv
    da = d_conn - d_conn.transpose(1, 0, 2)
    return {
        "V": v_field,
        "A": conn,
        "dA": da,
        "F": da,
    }


def _gram_det_adjugate(jtj: np.ndarray):
    """Determinant and adjugate of a stack of symmetric 1 x 1 or 3 x 3
    Gram matrices (k, k, N), by cofactors rather than per-node LAPACK."""
    if len(jtj) == 1:
        return jtj[0, 0], np.ones_like(jtj)
    (a, b, c), (_, d, e), (_, _, f) = jtj
    c00, c01, c02 = d * f - e * e, c * e - b * f, b * e - c * d
    c11, c12, c22 = a * f - c * c, b * c - a * e, a * d - b * b
    adj = np.array([[c00, c01, c02], [c01, c11, c12], [c02, c12, c22]])
    return a * c00 + b * c01 + c * c02, adj


def _pull_back_matrix(jac: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """J^T M J for node-last (amb, k, N) Jacobians and (amb, amb, N) M."""
    return np.einsum(
        "kjn,jln->kln", np.einsum("ikn,ijn->kjn", jac, mat), jac
    )


def _chart_conn_last(space: HamiltonianSpace, chart: _U1LevelChart, u: np.ndarray):
    """Connection data pulled back to parametrization coordinates at
    arbitrary parameter points, node axis last, with det J^T J."""
    x, jac = chart.embed(u)
    conn = _connection_at(space, x.T)
    omega_amb = np.moveaxis(
        np.asarray(space.omega_matrix.eval(x.T, {}), dtype=float), 0, -1
    )
    # vertical generators in parameter coordinates: J^T J v_u = J^T V e
    jtj = np.einsum("ikn,iln->kln", jac, jac)
    jtj_det, adj = _gram_det_adjugate(jtj)
    jtv = np.einsum("ikn,in->kn", jac, conn["V"])
    return {
        "x": x,
        "jac": jac,
        "omega_u": _pull_back_matrix(jac, omega_amb),
        "a_u": np.einsum("in,ikn->kn", conn["A"], jac),
        "da_u": _pull_back_matrix(jac, conn["dA"]),
        "vert_u": np.einsum("kln,ln->kn", adj, jtv) / jtj_det,
        "jtj_det": jtj_det,
        "conn": conn,
    }


def _nodes_first(arr: np.ndarray) -> np.ndarray:
    """A view with the node axis moved first (no copy)."""
    return np.moveaxis(arr, -1, 0)


def _pulled_back_first(data: dict) -> dict:
    """_chart_conn_last's pullbacks as views in the (N, dim g, ...) shapes
    that ZeroLevelData stores and the Cartan map reads."""
    da_u = _nodes_first(data["da_u"][None])
    return {
        "x": _nodes_first(data["x"]),
        "jac": _nodes_first(data["jac"]),
        "omega_u": _nodes_first(data["omega_u"]),
        "a_u": _nodes_first(data["a_u"][None]),
        "da_u": da_u,
        "f_u": da_u,  # F = dA
        "vert_u": _nodes_first(data["vert_u"][None]),
    }


def _chart_conn_at(space: HamiltonianSpace, chart: _U1LevelChart, u: np.ndarray):
    """Connection data pulled back to parametrization coordinates at
    arbitrary parameter points, in the (N, ...) layout."""
    return _pulled_back_first(_chart_conn_last(space, chart, u))


# ---------------------------------------------------------------------------
# the zero level set
# ---------------------------------------------------------------------------


class ZeroLevelData:
    """mu^{-1}(0) with induced measure, metric connection, and curvature.

    Besides the ambient connection it carries the data pulled back to
    parameter coordinates on the mesh (``connection_param``,
    ``vertical_param``, ``omega_param``, ``da_param``, ``f_param``);
    ``cartan_map`` and ``kirwan_integral`` reuse them rather than rebuild
    the connection at ``param_nodes``.

    Every stored array is read-only: some share memory (u(1) is abelian,
    so ``f_param`` is ``da_param``; ``param_nodes`` is the chart's), so a
    write through one would silently change another.  The arrays that
    ``zero_level`` builds are (N, ...) views of node-last arrays, so their
    node axis has the smallest stride: a per-node column such as
    ``omega_param[:, i, j]`` is contiguous."""

    __slots__ = (
        "space",
        "chart",
        "mesh_density",
        "param_nodes",
        "param_weights",
        "grid_shape",
        "nodes",
        "jacobians",
        "riemann_weights",
        "connection_ambient",
        "connection_param",
        "vertical_param",
        "omega_param",
        "da_param",
        "f_ambient",
        "f_param",
        "regularity_report",
        "stabilizer_order",
        "orient_sign",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            value = kw.pop(name)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        if kw:
            raise InputError(f"unknown ZeroLevelData fields {sorted(kw)}")

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def param_dim(self) -> int:
        return self.chart.param_dim

    @property
    def horizontal_dim(self) -> int:
        return self.chart.param_dim - self.space.algebra.dim

    def vertical_volume_parts(self) -> dict:
        """The vertical volume form A^1 ^ ... ^ A^d as a pointwise form."""
        parts = {(): np.ones(self.n_nodes, dtype=complex)}
        for a in range(self.space.algebra.dim):
            one_form = {
                (j,): self.connection_param[:, a, j].astype(complex)
                for j in range(self.param_dim)
            }
            parts = _wedge(parts, one_form)
        return parts

    def omega_parts(self) -> dict:
        return _matrix_to_parts(self.omega_param)

    def _pulled_back(self) -> dict:
        """The stored connection data on the mesh, keyed as _chart_conn_at
        keys it, so the Cartan map reads it instead of recomputing it."""
        return {
            "x": self.nodes,
            "jac": self.jacobians,
            "a_u": self.connection_param,
            "vert_u": self.vertical_param,
            "f_u": self.f_param,
        }

    def to_json_dict(self, stride: int = 1, include_mesh: bool = True) -> dict:
        out = {
            "space": self.space.name,
            "n_nodes": self.n_nodes,
            "param_dim": self.param_dim,
            "grid_shape": list(self.grid_shape),
            "mesh_density": self.mesh_density,
            "stabilizer_order": self.stabilizer_order,
            "orient_sign": self.orient_sign,
            "regularity_report": {
                k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                for k, v in self.regularity_report.items()
            },
        }
        if include_mesh:
            sl = slice(None, None, max(1, int(stride)))
            out["mesh"] = {
                "nodes": self.nodes[sl].tolist(),
                "weights": self.riemann_weights[sl].tolist(),
                "param_nodes": self.param_nodes[sl].tolist(),
                "connection": self.connection_ambient[sl].tolist(),
            }
        return out

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_json_dict(**kw), sort_keys=True)


def _validate_level_family(space: HamiltonianSpace) -> None:
    fam = space.meta.get("family")
    if fam == "c2_su2":
        raise NotRegularError(
            "the zero level of c2_su2 is the single point at the origin, "
            "where d mu has rank zero: 0 is not a regular value"
        )
    if fam != "weighted_cn_u1":
        raise InputError(
            f"no closed-form zero-level parametrization registered for "
            f"{space.name!r}"
        )
    weights = space.meta["weights"]
    if all(w < 0 for w in weights):
        raise InputError("the zero level set is empty for negative weights")
    if len(weights) > 2:
        raise InputError(
            "zero-level parametrization is registered for one or two planes"
        )


def zero_level(space: HamiltonianSpace, mesh_density: int = 32) -> ZeroLevelData:
    """Mesh mu^{-1}(0), build the metric connection, and verify regularity.

    ``mesh_density`` is the node count per parameter axis (the circle gets
    ``mesh_density`` nodes; the three-sphere ``mesh_density**3``).

    The connection is implemented for the catalog level families: one
    generator (u(1)) and a constant metric (``MatConst``); anything else
    raises InputError.  It is built with the node axis last, so each
    small-matrix product and the 1 x 1 / 3 x 3 Gram algebra (cofactor
    determinant and adjugate solve) is a few vector operations over the
    nodes; ``ZeroLevelData`` stores node-first (N, ...) views of those
    arrays, in the shapes it has always had.

    Checks, each over the whole mesh:

    * regularity: d mu is onto at every node.  With one generator d mu is
      a single row, whose only singular value is its norm (the root of the
      1 x 1 Gram d mu d mu^T); it must exceed 1e-6, else NotRegularError;
    * the moment residual max |mu| on the nodes (reported);
    * the normalization A(V e) = 1, to 1e-10;
    * with an action sampler, equivariance g*A = A (u(1) is abelian) at
      four group elements, to 1e-8;
    * orientation: the sign that makes the reduced Liouville volume
      positive (AccuracyError when that volume is ~0).

    The residuals land in ``regularity_report``.
    """
    _validate_level_family(space)
    if int(mesh_density) < 4:
        raise InputError("mesh_density must be at least 4")
    weights = space.meta["weights"]
    a_level = space.meta["a"]
    chart = _U1LevelChart(weights, a_level, int(mesh_density))
    data = _chart_conn_last(space, chart, chart.param_nodes)
    conn = data["conn"]
    pulled = _pulled_back_first(data)
    nodes = pulled["x"]
    riemann = chart.param_weights * np.sqrt(data["jtj_det"])

    # regularity: d mu must be onto at every node; with one generator the
    # singular value of the row d mu is its norm
    cache: dict = {}
    (pairing,) = space.mu_pairing_exprs()
    dmu = np.empty((space.ambient_dim, len(nodes)))
    for k in range(space.ambient_dim):
        dmu[k] = column(pairing.diff(k), nodes, cache)
    min_sigma = math.sqrt(float(np.min(np.einsum("kn,kn->n", dmu, dmu))))
    if min_sigma <= 1e-6:
        raise NotRegularError(
            f"d mu is rank-deficient on the zero level "
            f"(min singular value {min_sigma:.3e}): 0 is not a regular value"
        )

    # moment residual: the level really is mu = 0
    mu_vals = space.eval_moment(nodes)
    level_residual = float(np.max(np.abs(mu_vals)))

    # the defining normalization A(V e) = 1
    pair = np.einsum("in,in->n", conn["A"], conn["V"])
    reproduce = float(np.max(np.abs(pair - 1.0)))
    if reproduce > 1e-10:
        raise AccuracyError(
            f"connection normalization A(V phi) = phi fails "
            f"(residual {reproduce:.3e})"
        )

    # equivariance of A under sampled group elements (abelian: g*A = A)
    equiv = 0.0
    if space.action_sampler is not None:
        for t in (0.37, 1.19, 2.83, -0.61):
            moved, jac_g = space.action_sampler(t, nodes)
            a_moved = _metric_connection(space, moved, {})["A"]
            a_back = np.einsum("in,ijn->jn", a_moved, np.moveaxis(jac_g, 0, -1))
            equiv = max(equiv, float(np.max(np.abs(a_back - conn["A"]))))
        if equiv > 1e-8:
            raise AccuracyError(
                f"connection equivariance residual {equiv:.3e} exceeds 1e-8"
            )

    # orientation: fix the sign making the reduced Liouville volume positive
    n_pts = len(nodes)
    omega_parts = _matrix_to_parts(pulled["omega_u"])
    vert_parts = {
        (j,): pulled["a_u"][:, 0, j].astype(complex) for j in range(chart.param_dim)
    }
    liouville = _wedge(
        _exp_parts(omega_parts, chart.param_dim, n_pts), vert_parts
    )
    top = tuple(range(chart.param_dim))
    raw = complex(np.sum(chart.param_weights * liouville.get(top, 0.0)))
    if abs(raw.real) < 1e-12:
        raise AccuracyError("could not orient the level set: Liouville ~ 0")
    orient = 1.0 if raw.real > 0 else -1.0

    report = {
        "min_dmu_singular": min_sigma,
        "level_moment_residual": level_residual,
        "connection_reproduces_generators": reproduce,
        "equivariance_residual": equiv,
        "stratum_orders": sorted(
            {math.gcd(*(abs(w) for w in weights))}
            | {abs(w) for w in weights if len(weights) > 1}
        ),
    }
    return ZeroLevelData(
        space=space,
        chart=chart,
        mesh_density=int(mesh_density),
        param_nodes=chart.param_nodes,
        param_weights=chart.param_weights,
        grid_shape=chart.grid_shape,
        nodes=nodes,
        jacobians=pulled["jac"],
        riemann_weights=riemann,
        connection_ambient=_nodes_first(conn["A"][None]),
        connection_param=pulled["a_u"],
        vertical_param=pulled["vert_u"],
        omega_param=pulled["omega_u"],
        da_param=pulled["da_u"],
        f_ambient=_nodes_first(conn["F"][None]),
        f_param=pulled["f_u"],
        regularity_report=report,
        stabilizer_order=math.gcd(*(abs(w) for w in weights)),
        orient_sign=orient,
    )


def _exp_parts(two_form: dict, top_dim: int, n_nodes: int | None = None) -> dict:
    """exp of a pointwise two-form, truncated at the top degree."""
    if n_nodes is None:
        if not two_form:
            raise InputError("cannot exponentiate an empty form of unknown size")
        n_nodes = next(iter(two_form.values())).shape[0]
    out = {(): np.ones(n_nodes, dtype=complex)}
    power = dict(out)
    k = 0
    while two_form and (k + 1) * 2 <= top_dim:
        k += 1
        power = _scale_parts(_wedge(power, two_form), 1.0 / k)
        if not power:
            break
        out = _add_parts(out, power)
    return out


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


class CurvatureData:
    """F_A = dA + (1/2)[A, A] on the level mesh, with residual diagnostics."""

    __slots__ = (
        "values_param",
        "values_ambient",
        "horizontality_residual",
        "invariance_residual",
    )

    def __init__(self, values_param, values_ambient, horizontality_residual,
                 invariance_residual):
        object.__setattr__(self, "values_param", values_param)
        object.__setattr__(self, "values_ambient", values_ambient)
        object.__setattr__(
            self, "horizontality_residual", float(horizontality_residual)
        )
        object.__setattr__(
            self, "invariance_residual", float(invariance_residual)
        )

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def component_parts(self, a: int) -> dict:
        return _matrix_to_parts(self.values_param[:, a])


def curvature(level: ZeroLevelData) -> CurvatureData:
    """The g-valued curvature two-form of the metric connection.

    Horizontal by construction: the contraction with every generator field
    is reported (and must stay below 1e-8); invariance is checked by moving
    the mesh one angular grid step, which is an exact symmetry of the node
    set."""
    f_param = level.f_param
    f_amb = level.f_ambient
    scale = max(1.0, float(np.max(np.abs(f_amb))))
    # contraction with the vertical generators, in parameter coordinates
    contr = np.einsum("nakl,nbk->nabl", f_param, level.vertical_param)
    horiz = float(np.max(np.abs(contr))) / scale if contr.size else 0.0
    inv = _grid_roll_residual(level, f_param)
    return CurvatureData(
        values_param=f_param,
        values_ambient=f_amb,
        horizontality_residual=horiz,
        invariance_residual=inv,
    )


def _grid_roll_residual(level: ZeroLevelData, values: np.ndarray) -> float:
    """Residual of invariance under the group element that advances every
    angular coordinate by one grid step (an exact permutation of nodes)."""
    chart = level.chart
    grid = values.reshape(level.grid_shape + values.shape[1:])
    rolled = grid
    for axis, step in zip(chart.angle_axes, chart.angle_steps):
        rolled = np.roll(rolled, -int(step), axis=axis)
    return float(np.max(np.abs(rolled - grid)))


def chern_numbers(level: ZeroLevelData) -> np.ndarray:
    """First Chern numbers of the orbifold bundle over the reduced surface.

    Defined when M_red is two-dimensional: the generator acts as
    multiplication by i in the complex picture, so the anti-Hermitian
    curvature is i F_real and c_1 integrates to -(1/2 pi) int_{M_red} F^a."""
    if level.horizontal_dim != 2:
        raise InputError(
            "Chern numbers are defined for a two-dimensional reduced space"
        )
    vol_g = level.space.algebra.group_volume
    vert = level.vertical_volume_parts()
    top = tuple(range(level.param_dim))
    out = []
    for a in range(level.space.algebra.dim):
        f_parts = _matrix_to_parts(level.f_param[:, a])
        integrand = _wedge(f_parts, vert).get(top)
        raw = (
            complex(np.sum(level.param_weights * integrand))
            if integrand is not None
            else 0.0
        )
        pushed = level.orient_sign * raw / vol_g
        out.append(-pushed / (2.0 * math.pi))
    arr = np.asarray(out, dtype=complex)
    if np.max(np.abs(arr.imag)) > 1e-10:
        raise AccuracyError("Chern integrals came out non-real")
    return arr.real


# ---------------------------------------------------------------------------
# the Cartan map
# ---------------------------------------------------------------------------


def _kappa_parts(
    space: HamiltonianSpace, alpha: EquivariantForm, data: dict
) -> dict:
    """kappa(alpha) = P_A^* (alpha|_{level}, phi -> i F_A) as a pointwise
    form dict, from pulled-back connection data: _chart_conn_at at chosen
    parameter points, or ZeroLevelData._pulled_back() on the level mesh."""
    n_pts, k_dim = data["jac"].shape[0], data["jac"].shape[2]
    gdim = space.algebra.dim
    # horizontal projection in parameter coordinates
    proj = np.broadcast_to(np.eye(k_dim), (n_pts, k_dim, k_dim)).copy()
    proj -= np.einsum("nak,nal->nkl", data["vert_u"], data["a_u"])
    f_parts = [
        _matrix_to_parts(data["f_u"][:, a]) for a in range(gdim)
    ]
    cache: dict = {}
    total: dict = {}
    for fmi, coeff, phi_poly in alpha.terms:
        coeff_vals = np.broadcast_to(
            np.asarray(coeff.eval(data["x"], cache), dtype=complex), (n_pts,)
        )
        ((nu, unit),) = phi_poly.terms.items()
        coeff_vals = coeff_vals * unit
        # pull the form part back to the level and project horizontally
        base = {tuple(fmi): coeff_vals}
        base = _pullback(base, data["jac"], k_dim)
        base = _pullback(base, proj, k_dim)
        # substitute phi^a -> i F^a
        for a, power in enumerate(nu):
            for _ in range(power):
                base = _wedge(_scale_parts(f_parts[a], 1j), base)
                if not base:
                    break
        total = _add_parts(total, base)
    return total


def cartan_map(alpha: EquivariantForm, level: ZeroLevelData) -> LevelForm:
    """Restrict, substitute phi -> i F_A, and project horizontally.

    The output is basic: it contracts to zero against the generator fields
    and is invariant, so it descends to the reduced space."""
    space = level.space
    if alpha.ambient_dim != space.ambient_dim or alpha.gdim != space.algebra.dim:
        raise InputError("alpha does not live on this space")
    pts = sample_points(space, 40, seed=11)
    phis = np.random.default_rng(12).standard_normal((4, space.algebra.dim))
    inv = invariance_residual(alpha, space.action, space.algebra, pts, phis)
    if inv > 1e-8:
        raise InputError(
            f"cartan_map requires an invariant form "
            f"(invariance residual {inv:.3e})"
        )
    parts = _kappa_parts(space, alpha, level._pulled_back())
    return LevelForm(level.param_dim, level.n_nodes, parts)


def basic_residual(level: ZeroLevelData, form: LevelForm) -> dict:
    """How far a level form is from being basic: max contraction against
    the generator fields, and the exact grid-step invariance residual."""
    scale = max(1.0, form.max_abs())
    contr = 0.0
    for a in range(level.space.algebra.dim):
        c = _contract_parts(form.parts, level.vertical_param[:, a])
        contr = max(contr, _max_abs(c))
    inv = 0.0
    for idx, coeff in form.parts.items():
        inv = max(inv, _grid_roll_residual(level, coeff[:, None]))
    return {
        "contraction_residual": contr / scale,
        "invariance_residual": inv / scale,
    }


def cartan_d_residual(
    alpha: EquivariantForm,
    level: ZeroLevelData,
    n_samples: int = 120,
    seed: int = 0,
    h: float = 1e-5,
) -> float:
    """Residual of d(kappa(alpha)) at random interior parameter points,
    by central differences along each parameter axis.

    For closed invariant alpha the Cartan image is closed (it represents a
    class on the reduced space), so this must vanish to finite-difference
    accuracy."""
    rng = np.random.default_rng(seed)
    chart = level.chart
    k_dim = chart.param_dim
    if chart.n == 1:
        u0 = rng.uniform(0.0, 2.0 * math.pi, size=(n_samples, 1))
    else:
        u0 = np.stack(
            [
                rng.uniform(0.2, math.pi / 2 - 0.2, size=n_samples),
                rng.uniform(0.0, 2.0 * math.pi, size=n_samples),
                rng.uniform(0.0, 2.0 * math.pi, size=n_samples),
            ],
            axis=1,
        )
    space = level.space
    plus: list = []
    minus: list = []
    for j in range(k_dim):
        shift = np.zeros(k_dim)
        shift[j] = h
        for u, out in ((u0 + shift, plus), (u0 - shift, minus)):
            out.append(_kappa_parts(space, alpha, _chart_conn_at(space, chart, u)))
    scale = max(1.0, max((_max_abs(p) for p in plus), default=1.0))
    keys: set = set()
    for p in plus + minus:
        keys |= set(p.keys())
    d_acc: dict = {}
    zero = np.zeros(n_samples, dtype=complex)
    for idx in keys:
        for j in range(k_dim):
            merged, sign = _merge_sign((j,), idx)
            if merged is None:
                continue
            deriv = (plus[j].get(idx, zero) - minus[j].get(idx, zero)) / (
                2.0 * h
            )
            term = sign * deriv
            d_acc[merged] = d_acc[merged] + term if merged in d_acc else term
    residual = max(
        (float(np.max(np.abs(v))) for v in d_acc.values()), default=0.0
    )
    return residual / scale


# ---------------------------------------------------------------------------
# the reduced-space integral
# ---------------------------------------------------------------------------


class KirwanResult:
    """Polynomial-in-eps reduced integral with its coefficient vector."""

    __slots__ = ("value", "coefficients", "epsilon", "meta")

    def __init__(self, value, coefficients, epsilon, meta):
        object.__setattr__(self, "value", complex(value))
        object.__setattr__(
            self, "coefficients", tuple(complex(c) for c in coefficients)
        )
        object.__setattr__(self, "epsilon", float(epsilon))
        object.__setattr__(self, "meta", dict(meta))

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def __complex__(self):
        return self.value

    def to_json_dict(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "coefficients": [[c.real, c.imag] for c in self.coefficients],
            "epsilon": self.epsilon,
            "meta": self.meta,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def kirwan_integral(
    alpha: EquivariantForm, level: ZeroLevelData, eps: float
) -> KirwanResult:
    """int_{M_red} kappa(alpha) exp(omega_0 + (eps/2)|F_A|^2), upstairs.

    Realized on mu^{-1}(0) by wedging with the vertical volume form
    A^1 ^ ... ^ A^d (which annihilates all non-horizontal components),
    integrating the top parameter form, and dividing by vol(G).  The orbit
    volume in the A-normalized vertical measure is vol(G)/|Gamma|, so the
    generic-stabilizer orbifold weight is carried automatically and the
    result is the orbifold integral over M_red -- the normalization under
    which the small-eps limit of the Basic Integral is reproduced.  The
    eps-dependence enters only through wedge powers of the four-form
    <F_A ^ F_A>_g, so the result is the polynomial  sum_k c_k eps^k  with
    4k <= dim(M_red); the coefficient vector is returned alongside the
    evaluation."""
    if eps <= 0:
        raise InputError("eps must be positive")
    space = level.space
    gate = check_alpha(space, alpha)
    if not gate["ok"]:
        raise InputError(
            "kirwan_integral requires a closed invariant alpha "
            f"(D residual {gate['d_residual']:.3e}, "
            f"invariance residual {gate['invariance_residual']:.3e})"
        )
    kappa = _kappa_parts(space, alpha, level._pulled_back())
    omega_parts = level.omega_parts()
    exp_omega = _exp_parts(omega_parts, level.param_dim, level.n_nodes)
    vert = level.vertical_volume_parts()
    gdim = space.algebra.dim
    # <F ^ F>_g with the algebra inner product
    q_mat = space.algebra.inner_product
    f_parts = [
        _matrix_to_parts(level.f_param[:, a]) for a in range(gdim)
    ]
    s_parts: dict = {}
    for a in range(gdim):
        for b in range(gdim):
            if q_mat[a, b] == 0:
                continue
            s_parts = _add_parts(
                s_parts, _scale_parts(_wedge(f_parts[a], f_parts[b]), q_mat[a, b])
            )
    top = tuple(range(level.param_dim))
    max_k = max(0, level.horizontal_dim // 4)
    vol_g = space.algebra.group_volume
    push = level.orient_sign / vol_g
    base = _wedge(kappa, exp_omega)
    coeffs = []
    s_power = {(): np.ones(level.n_nodes, dtype=complex)}
    factor = 1.0
    for k in range(max_k + 1):
        integrand = _wedge(_wedge(base, s_power), vert).get(top)
        raw = (
            complex(np.sum(level.param_weights * integrand))
            if integrand is not None
            else 0.0 + 0.0j
        )
        coeffs.append(push * factor * raw)
        if k < max_k:
            s_power = _wedge(s_power, s_parts)
            factor /= 2.0 * (k + 1)
            if not s_power:
                coeffs.extend([0.0 + 0.0j] * (max_k - k))
                break
    value = sum(c * eps**k for k, c in enumerate(coeffs))
    return KirwanResult(
        value=value,
        coefficients=coeffs,
        epsilon=eps,
        meta={
            "space": space.name,
            "n_nodes": level.n_nodes,
            "stabilizer_order": level.stabilizer_order,
            "group_volume": vol_g,
            "max_degree": max_k,
        },
    )


# ---------------------------------------------------------------------------
# the collar normal form
# ---------------------------------------------------------------------------


def normal_form_check(
    space: HamiltonianSpace,
    level: ZeroLevelData,
    collar_radius: float = 0.2,
    n_samples: int = 500,
    seed: int = 0,
    scan_cap: float = 1.0,
    scan_step: float = 0.0025,
) -> dict:
    """Verify the collar model omega~ = pi* omega_0 + d<nu, A>, mu~ = nu
    on mu^{-1}(0) x g near nu = 0.

    Checks, pointwise at sampled (node, nu):
      * the moment condition  iota_{V phi} omega~ = -d<nu, phi>;
      * closedness of omega~ (via central differences of the pulled-back
        connection data along the parameter axes);
      * nondegeneracy of omega~ inside |nu| <= collar_radius, plus an
        outward scan reporting the largest radius at which omega~ stays
        nondegenerate (capped at ``scan_cap``);
      * omega~ pulled back to the slice nu = 0 equals pi* omega_0.
    """
    gdim = space.algebra.dim
    if gdim != 1:
        raise InputError(
            f"the collar model is implemented for one generator, got {gdim}"
        )
    if collar_radius <= 0:
        raise InputError("collar_radius must be positive")
    rng = np.random.default_rng(seed)
    k_dim = level.param_dim
    n_nodes = level.n_nodes
    idx = rng.integers(0, n_nodes, size=n_samples)
    nu = rng.standard_normal((n_samples, gdim))
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    nu *= (rng.uniform(0.0, 1.0, size=n_samples) ** (1.0 / gdim))[:, None]
    nu *= collar_radius

    omega_u = level.omega_param[idx]
    a_u = level.connection_param[idx]
    da_u = level.da_param[idx]
    vert_u = level.vertical_param[idx]

    def tilde_matrix(nu_arr, om, conn):
        n = len(nu_arr)
        mat = np.zeros((n, k_dim + gdim, k_dim + gdim))
        mat[:, :k_dim, :k_dim] = om + np.einsum("na,nakl->nkl", nu_arr, da_u)
        mat[:, :k_dim, k_dim:] = -np.einsum("nak->nka", conn)
        mat[:, k_dim:, :k_dim] = np.einsum("nak->nak", conn)
        return mat

    omega_tilde = tilde_matrix(nu, omega_u, a_u)

    # moment condition residual over the basis of g
    moment_res = 0.0
    u_block = omega_tilde[:, :k_dim, :k_dim]
    for b in range(gdim):
        v_b = vert_u[:, b]
        r_u = np.einsum("nk,nkl->nl", v_b, u_block)
        r_nu = np.einsum("nk,nka->na", v_b, omega_tilde[:, :k_dim, k_dim:])
        unit = np.zeros(gdim)
        unit[b] = 1.0
        moment_res = max(
            moment_res,
            float(np.max(np.abs(r_u))),
            float(np.max(np.abs(r_nu + unit[None, :]))),
        )

    # nondegeneracy inside the declared collar
    sigma = np.linalg.svd(omega_tilde, compute_uv=False)
    min_sigma_within = float(np.min(sigma[:, -1]))
    nondegenerate_within = bool(min_sigma_within > 1e-10)

    # restriction to nu = 0 equals the pulled-back reduced form
    at_zero = tilde_matrix(np.zeros_like(nu), omega_u, a_u)
    restrict_res = float(
        np.max(np.abs(at_zero[:, :k_dim, :k_dim] - omega_u))
    )

    # closedness via central differences at a smaller sample
    n_fd = min(48, n_samples)
    fd_idx = rng.integers(0, n_nodes, size=n_fd)
    u0 = level.param_nodes[fd_idx]
    h = 1e-5
    base = _chart_conn_at(space, level.chart, u0)
    d_omega = np.zeros((n_fd, k_dim, k_dim, k_dim))
    d_da = np.zeros((n_fd, gdim, k_dim, k_dim, k_dim))
    d_a = np.zeros((n_fd, gdim, k_dim, k_dim))
    for j in range(k_dim):
        shift = np.zeros(k_dim)
        shift[j] = h
        up = _chart_conn_at(space, level.chart, u0 + shift)
        dn = _chart_conn_at(space, level.chart, u0 - shift)
        d_omega[:, j] = (up["omega_u"] - dn["omega_u"]) / (2 * h)
        d_da[:, :, j] = (up["da_u"] - dn["da_u"]) / (2 * h)
        d_a[:, :, j] = (up["a_u"] - dn["a_u"]) / (2 * h)
    # (d beta)_{jkl} = cyclic sum of partial_j beta_{kl}
    def _three_form_residual(partials):
        res = 0.0
        for j in range(k_dim):
            for k in range(j + 1, k_dim):
                for l in range(k + 1, k_dim):
                    val = (
                        partials[:, j, k, l]
                        + partials[:, k, l, j]
                        + partials[:, l, j, k]
                    )
                    res = max(res, float(np.max(np.abs(val))))
        return res

    closed_res = _three_form_residual(d_omega.transpose(0, 1, 2, 3))
    for a in range(gdim):
        closed_res = max(
            closed_res, _three_form_residual(d_da[:, a])
        )
        # pullback commutes with d: dA_u must equal d_u(A_u)
        exact = base["da_u"][:, a]
        fd_da = np.einsum("njk->njk", d_a[:, a]) - np.einsum(
            "nkj->njk", d_a[:, a]
        )
        closed_res = max(closed_res, float(np.max(np.abs(exact - fd_da))))

    # outward scan for the largest nondegenerate radius
    scan_nodes = rng.integers(0, n_nodes, size=48)
    om_s = level.omega_param[scan_nodes]
    a_s = level.connection_param[scan_nodes]
    da_s = level.da_param[scan_nodes]
    directions = np.array([[1.0], [-1.0]])
    radii = np.arange(scan_step, scan_cap + 0.5 * scan_step, scan_step)
    max_valid = float(scan_cap)
    scale_tol = 1e-8
    done = False
    for r in radii:
        for direction in directions:
            nu_r = np.broadcast_to(r * direction, (48, gdim))
            mat = np.zeros((48, k_dim + gdim, k_dim + gdim))
            mat[:, :k_dim, :k_dim] = om_s + np.einsum(
                "na,nakl->nkl", nu_r, da_s
            )
            mat[:, :k_dim, k_dim:] = -np.einsum("nak->nka", a_s)
            mat[:, k_dim:, :k_dim] = a_s
            sig = np.linalg.svd(mat, compute_uv=False)
            if float(np.min(sig[:, -1])) <= scale_tol * (1.0 + r):
                max_valid = float(r - scan_step)
                done = True
                break
        if done:
            break

    ok = bool(
        moment_res < 1e-10
        and nondegenerate_within
        and restrict_res < 1e-12
        and closed_res < 1e-6
        and max_valid >= collar_radius
    )
    return {
        "ok": ok,
        "moment_residual": moment_res,
        "closedness_residual": closed_res,
        "restriction_residual": restrict_res,
        "nondegenerate_within": nondegenerate_within,
        "min_sigma_within": min_sigma_within,
        "declared_radius": float(collar_radius),
        "max_valid_radius": max_valid,
        "n_samples": int(n_samples),
    }
