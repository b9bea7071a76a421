"""The zero moment level, its connection, and reduced-space integrals.

When the symmetry group acts with finite stabilizers on mu^{-1}(0), the
level set is a compact manifold carrying an orbifold principal bundle
pi: mu^{-1}(0) -> M_red.  For the catalog families with a radial moment
(the u(1) circle and Hopf-sphere families) the zero level is the level
set {c s = a} of s = sum_j w_j |z_j|^2, and it is parametrized by the
same chart (integrate._LevelChart) as the boundary surfaces {s = s_pm} of
the deformation's boundary term.  On these torus-symmetric levels the
Kirwan integrand does not depend on the phase angles, so the level is
meshed on its eta line at angle 0 (weight 2 pi per plane), with seeded
probe nodes at random angles that check this, by the radial driver's
torus-invariance rule, before any sum is trusted: a failed probe puts
that level or that integral on the full (eta, xi1, xi2) tensor mesh.  The
Kirwan side of Witten's formula is two ops on it:

* ``zero_level``        -- mesh + induced measure + the metric connection
                           A = G(p)^{-1} <V ., .>  with  G_ab = <V e_a, V e_b>,
                           the unique connection whose horizontal space is the
                           metric orthogonal complement of the orbit; it is
                           normalized so that A(V phi) = phi pointwise.
                           The level keeps A, its curvature F = dA (u(1) is
                           abelian), omega and the vertical generators pulled
                           back to parameter coordinates; ``kirwan_integral``
                           reads them from it instead of recomputing them.
* ``kirwan_integral``   -- int_{M_red} kappa(alpha) exp(omega_0 + (eps/2)|F_A|^2)
                           computed upstairs.  The Cartan map kappa restricts
                           alpha to the level set, substitutes phi -> i F_A and
                           projects horizontally; the result is wedged with the
                           vertical volume form A^1 ^ ... ^ A^d (which kills
                           every non-horizontal component), integrated over
                           mu^{-1}(0) and divided by vol(G).  Because each orbit
                           carries vertical volume vol(G)/|Gamma| in the
                           A-normalized measure, this is the *orbifold* integral
                           over M_red -- the quantity the small-eps limit of
                           the Basic Integral actually produces (for the
                           weight-2 circle it is 1/2, not 1).  The result is an
                           explicit polynomial in eps of degree
                           <= dim(M_red)/4, returned with its coefficient vector.

Orientation convention: the level set is oriented so that the reduced
Liouville volume int_{M_red} exp(omega_0) comes out positive; every reduced
integral is reported in that orientation.

c2_su2 deliberately fails here: its zero level is the single point at the
origin, where d mu has rank zero, so ``zero_level`` raises NotRegularError.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import Const, Expr, MatConst, _Frozen, column  # noqa: F401  (Expr is re-exported for annotations)
from .forms import EquivariantForm, _merge_sign, _pullback
from .hamspace import HamiltonianSpace
from .integrate import _check_planes, _gate_alpha, _LevelChart
from .liealg import (
    AccuracyError,
    InputError,
    NotRegularError,
    _check_count,
    _check_real,
    _check_type,
)

__all__ = [
    "ZeroLevelData",
    "KirwanResult",
    "zero_level",
    "kirwan_integral",
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


def _matrix_to_parts(mat: np.ndarray, dtype=complex) -> dict:
    """Antisymmetric (N, k, k) matrix -> two-form dict of ``dtype`` columns."""
    k = mat.shape[-1]
    out = {}
    for i in range(k):
        for j in range(i + 1, k):
            col = np.ascontiguousarray(mat[:, i, j]).astype(dtype, copy=False)
            if np.any(col):
                out[(i, j)] = col
    return out


def _vertical_volume(conn: np.ndarray) -> dict:
    """The vertical volume form A^1 ^ ... ^ A^d as a pointwise form, from
    the (N, dim g, param_dim) connection in parameter coordinates."""
    parts = {(): np.ones(len(conn), dtype=conn.dtype)}
    for a in range(conn.shape[1]):
        parts = _wedge(parts, {(j,): conn[:, a, j] for j in range(conn.shape[2])})
    return parts


def _top_part(parts: dict, vert: dict, dim: int):
    """The integrand of parts ^ vert over the level: its top coefficient in
    the ``dim`` parameter coordinates at every node (None when parts ^ vert
    has no top part, which integrates to 0 on any mesh)."""
    return _wedge(parts, vert).get(tuple(range(dim)))


# ---------------------------------------------------------------------------
# the metric connection and its derivatives, from the constant structure
#
# The level families are U(1) acting linearly on flat space: the generator
# Jacobian D[k, i] = d_k V^i, the metric g and the symplectic matrix Omega
# are constant matrices, read once from the exact field expressions.  Then
# V = D^T x, G = <V, V>_g and A = G^{-1} g V, and dA has the rank-2 form
#
#     dA_kl = G^{-1} (S_kl - dG_k A_l + A_k dG_l),   S = Dg - (Dg)^T,
#
# with dG = 2 D g V.  Only its pullback through the chart Jacobian J is
# formed: J^T dA J = G^{-1} (J^T S J - p a^T + a p^T), p = J^T dG, a = J^T A.
#
# Each is an einsum with the node axis last and no generator axis (there
# is one generator): V, A and dG are (ambient_dim, N), J is
# (ambient_dim, param_dim, N) and J^T dA J is (param_dim, param_dim, N).
# zero_level stores node-first views of them, in the (N, dim g, ...)
# layout of ZeroLevelData.
# ---------------------------------------------------------------------------


def _constant_structure(space: HamiltonianSpace) -> dict:
    """The constant matrices the level connection is built from: the
    metric g, the generator Jacobian D[k, i] = d_k V^i, S = Dg - (Dg)^T
    and Omega.

    Refuses more than one generator (the 1 x 1 Gram is inverted by a
    reciprocal), a metric or an omega_matrix that is not constant, and an
    action that is not linear (V = D^T x needs a constant D and V(0) = 0):
    no derivative of any of them enters dA or the pullbacks."""
    gdim = space.algebra.dim
    if gdim != 1:
        raise InputError(
            f"the level connection is implemented for one generator, got {gdim}"
        )
    for what, field in (("metric", space.metric), ("omega_matrix", space.omega_matrix)):
        if not isinstance(field, MatConst):
            raise InputError(
                f"the level connection is implemented for a constant {what}, "
                f"got {type(field).__name__}"
            )
    amb = space.ambient_dim
    comps = space.action.components[0]
    d_jac = np.empty((amb, amb))
    for i, comp in enumerate(comps):
        for k in range(amb):
            d_ki = comp.diff(k)
            if not isinstance(d_ki, Const):
                raise InputError(
                    "the level connection is implemented for a linear action, "
                    f"got a non-constant generator Jacobian: d_{k} V^{i} = "
                    f"{type(d_ki).__name__}"
                )
            d_jac[k, i] = d_ki.value
    origin = np.zeros((1, amb))
    offset = [float(column(comp, origin, {})[0]) for comp in comps]
    if any(offset):
        raise InputError(
            "the level connection is implemented for a linear action, "
            f"got V(0) = {offset}"
        )
    metric = space.metric.value
    dg = np.einsum("ki,il->kl", d_jac, metric)
    return {
        "metric": metric,
        "D": d_jac,
        "S": dg - dg.T,
        "omega": space.omega_matrix.value,
    }


def _metric_connection(struct: dict, x: np.ndarray) -> dict:
    """V = D^T x, g V, 1 / G for the 1 x 1 Gram G = <V, V>_g and
    A = G^{-1} g V at the node-last (ambient_dim, N) points ``x``."""
    v_field = np.einsum("jl,jn->ln", struct["D"], x)
    vg = np.einsum("jl,jn->ln", struct["metric"], v_field)
    gram_inv = 1.0 / np.einsum("ln,ln->n", vg, v_field)
    return {"V": v_field, "vg": vg, "gram_inv": gram_inv, "A": vg * gram_inv}


def _pull_back_matrix(jac: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """J^T M J for the node-last (ambient_dim, param_dim, N) Jacobian J and
    a constant M, as two two-operand einsums: on the full mesh they take
    less than half the time of one three-operand einsum, to the same
    bits."""
    return np.einsum("kin,iln->kln", np.einsum("jkn,ji->kin", jac, mat), jac)


def _vertical_solve(jtj: np.ndarray, jtv: np.ndarray) -> tuple:
    """The solution v of J^T J v = J^T V and det J^T J, from the node-last
    (k, k, N) J^T J with k = 1 or 3, by cofactors and the adjugate rather
    than per-node LAPACK."""
    if len(jtj) == 1:
        det = jtj[0, 0]
        return jtv / det, det
    (a, b, c), (_, d, e), (_, _, f) = jtj
    c00, c01, c02 = d * f - e * e, c * e - b * f, b * e - c * d
    c11, c12, c22 = a * f - c * c, b * c - a * e, a * d - b * b
    adj = np.array([[c00, c01, c02], [c01, c11, c12], [c02, c12, c22]])
    det = a * c00 + b * c01 + c * c02
    return np.einsum("kln,ln->kn", adj, jtv) / det, det


# ---------------------------------------------------------------------------
# the zero level set
# ---------------------------------------------------------------------------


class ZeroLevelData(_Frozen):
    """mu^{-1}(0) with induced measure, metric connection, and curvature.

    The mesh is that of ``chart``: the eta line at phase angle 0 (grid
    shape (mesh_density, 1, 1), a circle's (1,)) followed by
    ``chart.n_probe`` probe nodes of weight 0, or, when the phase probe
    failed, the full tensor mesh of ``mesh_density`` nodes per axis with
    no probe nodes (see zero_level).  Every per-node array covers all of
    them; ``n_nodes`` counts the probe nodes too.

    Besides the ambient connection it carries the data pulled back to
    parameter coordinates on the mesh (``connection_param``,
    ``vertical_param``, ``omega_param``, and ``f_param``, which is dA since
    u(1) is abelian); ``kirwan_integral`` reads them rather than rebuild
    the connection at ``param_nodes``.

    Every stored array is read-only: some share memory (``param_nodes`` is
    the chart's), so a write through one would silently change another.
    The arrays that ``zero_level`` builds are (N, ...) views of node-last
    arrays, so their node axis has the smallest stride: a per-node column
    such as ``omega_param[:, i, j]`` is contiguous."""

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

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def param_dim(self) -> int:
        return self.chart.param_dim

    @property
    def horizontal_dim(self) -> int:
        return self.chart.param_dim - self.space.algebra.dim

    def omega_parts(self) -> dict:
        return _matrix_to_parts(self.omega_param)

    def to_json_dict(self, stride: int = 1) -> dict:
        """The level as JSON values, the mesh at every ``stride``-th node.
        InputError unless ``stride`` is an integer >= 1."""
        _check_count("stride", stride, 1)
        sl = slice(None, None, stride)
        return {
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
            "mesh": {
                "nodes": self.nodes[sl].tolist(),
                "weights": self.riemann_weights[sl].tolist(),
                "param_nodes": self.param_nodes[sl].tolist(),
                "connection": self.connection_ambient[sl].tolist(),
            },
        }


def _min_dmu_norm(space: HamiltonianSpace, nodes: np.ndarray) -> float:
    """The smallest singular value of d mu over the (N, ambient_dim) nodes:
    with one generator d mu is a single row, whose only singular value is
    its norm."""
    cache: dict = {}
    (pairing,) = space.mu_pairing_exprs()
    rows = np.array([column(pairing.diff(k), nodes, cache) for k in range(space.ambient_dim)])
    return math.sqrt(float(np.min(np.einsum("kn,kn->n", rows, rows))))


def _equivariance_residual(
    space: HamiltonianSpace, struct: dict, nodes: np.ndarray, conn: np.ndarray
) -> float:
    """max |g*A - A| over the (N, ambient_dim) nodes at four sampled group
    elements (u(1) is abelian, so g*A = A), for the node-last A ``conn``.
    A linear action moves every point by one constant matrix, so the
    pullback is one einsum with the sampler's first Jacobian."""
    residual = 0.0
    for t in (0.37, 1.19, 2.83, -0.61):
        moved, jac_g = space.action_sampler(t, nodes)
        a_moved = _metric_connection(struct, moved.T)["A"]
        back = np.einsum("jl,jn->ln", jac_g[0], a_moved)
        residual = max(residual, float(np.max(np.abs(back - conn))))
    return residual


def zero_level(space: HamiltonianSpace, mesh_density: int = 32) -> ZeroLevelData:
    """Mesh mu^{-1}(0), build the metric connection, and verify regularity.

    The level is {c s = a} of the space's RadialMoment, parametrized by
    the level chart the surfaces {s = s0} also use (integrate._LevelChart,
    at s = a/c).  One or two planes, as for every radial grid.

    The mesh is the eta line: ``mesh_density`` Gauss-Legendre nodes in eta
    at phase angle 0, each with weight 2 pi per plane's angle (a circle
    has the one node at angle 0), then ``mesh_density`` probe nodes of
    weight 0 at the same eta values with every plane turned by its own
    seeded random angle.  The line is kept when the probe finds the
    orientation (Liouville) integrand and the connection A in parameter
    coordinates the same at the probe nodes as at their line nodes, by the
    radial driver's torus-invariance rule (to 1e-12 relative; a zero scale
    or a NaN fails it).  A is probed because the Liouville integrand does
    not see it: a metric that u(1) preserves but the phase torus does not
    moves A and F_A with the angles.  Otherwise the level is built again
    on the full (eta, xi1, xi2) tensor mesh of
    ``mesh_density`` nodes per axis (a circle: ``mesh_density`` angles).
    ``kirwan_integral`` probes each integrand it sums the same way and
    falls back to that full mesh as well.

    The connection is implemented for the catalog level families: one
    generator (u(1)) acting with a constant generator Jacobian D, a
    constant metric g and a constant omega_matrix (``MatConst``); anything
    else raises InputError.  These constants are read once, and the rest
    is einsums over the nodes with the node axis last: V = D^T x,
    A = G^{-1} g V, dA in its rank-2 form G^{-1} (S - dG A^T + A dG^T)
    with S = Dg - (Dg)^T, its pullback G^{-1} (J^T S J - p a^T + a p^T),
    and the 1 x 1 / 3 x 3 Gram algebra by cofactors, so no per-node stack
    reaches LAPACK.  ``ZeroLevelData`` stores node-first (N, ...) views
    of these arrays, in the shapes it has always had.

    Checks, each over every stored node (the probe nodes included):

    * regularity: d mu is onto at every node.  With one generator d mu is
      a single row, whose only singular value is its norm (the root of the
      1 x 1 Gram d mu d mu^T); it must exceed 1e-6, else NotRegularError;
    * the moment residual max |mu| on the nodes (reported);
    * the normalization A(V e) = 1, to 1e-10;
    * with an action sampler, equivariance g*A = A (u(1) is abelian) at
      four group elements, to 1e-8;
    * orientation: the sign that makes the reduced Liouville volume
      positive (AccuracyError when that volume is ~0).

    The residuals land in ``regularity_report``, with the phase probe's
    larger relative residual (``phase_probe_residual``).
    """
    _check_type("space", space, HamiltonianSpace)
    return _zero_level(space, mesh_density, collapse=True)


def _zero_level(space: HamiltonianSpace, mesh_density, collapse: bool) -> ZeroLevelData:
    """zero_level on the eta line when ``collapse`` and its phase probe
    passes, else on the full tensor mesh (with no probe nodes; its
    ``phase_probe_residual`` is that of the failed probe, or None when no
    line was tried)."""
    radial = space.radial
    if radial is None:
        raise InputError(
            f"no closed-form zero-level parametrization registered for "
            f"{space.name!r}"
        )
    radial.check_zero_level(space.name)
    _check_planes(radial)
    _check_count("mesh_density", mesh_density, 4)
    m = int(mesh_density)
    struct = _constant_structure(space)
    s_value = radial.a / radial.c
    probe, passed = None, False
    if collapse:
        level, liouville = _checked_level(space, struct, _LevelChart(radial.weights, s_value, m, 1, m))
        if liouville is not None:
            # the Liouville integrand does not see the connection (omega is
            # basic on the level and A(V) = 1): A is probed on its own
            verdicts = [level["chart"].phase_probe(v)
                        for v in (liouville, level["connection_param"])]
            passed = all(ok for ok, _ in verdicts)
            probe = float(np.max([res for _, res in verdicts]))
    if not passed:
        level, liouville = _checked_level(space, struct, _LevelChart(radial.weights, s_value, m, m))

    # orientation: fix the sign making the reduced Liouville volume positive
    raw = 0.0 if liouville is None else float(np.sum(level["param_weights"] * liouville))
    if abs(raw) < 1e-12:
        raise AccuracyError("could not orient the level set: Liouville ~ 0")
    level["regularity_report"]["phase_probe_residual"] = probe
    return ZeroLevelData(mesh_density=m, orient_sign=1.0 if raw > 0 else -1.0, **level)


def _checked_level(space: HamiltonianSpace, struct: dict, chart: _LevelChart) -> tuple:
    """The level on the mesh of ``chart`` after the regularity, moment,
    normalization and equivariance checks over every node: its
    ZeroLevelData fields but the mesh density and the orientation, and the
    Liouville integrand exp(omega) ^ A at every node (None without a top
    part)."""
    x, jac = chart.embed(chart.param_nodes)
    conn = _metric_connection(struct, x)
    # dG = 2 D g V (g is symmetric), a = J^T A, p = J^T dG and
    # J^T dA J = G^{-1} (J^T S J - p a^T + a p^T)
    dgram = np.einsum("kl,ln->kn", 2.0 * struct["D"], conn["vg"])
    a_u = np.einsum("in,ikn->kn", conn["A"], jac)
    p_u = np.einsum("in,ikn->kn", dgram, jac)
    da_u = _pull_back_matrix(jac, struct["S"])
    da_u -= p_u[:, None] * a_u
    da_u += a_u[:, None] * p_u
    da_u *= conn["gram_inv"]
    # the vertical generator in parameter coordinates: J^T J v = J^T V
    vert_u, jtj_det = _vertical_solve(
        np.einsum("ikn,iln->kln", jac, jac), np.einsum("ikn,in->kn", jac, conn["V"])
    )
    # ZeroLevelData stores (N, dim g, ...) views with the node axis first
    first = lambda arr: np.moveaxis(arr, -1, 0)  # noqa: E731
    arrays = dict(
        nodes=x.T,
        jacobians=first(jac),
        riemann_weights=np.sqrt(jtj_det) * chart.param_weights,
        connection_ambient=first(conn["A"][None]),
        connection_param=first(a_u[None]),
        vertical_param=first(vert_u[None]),
        omega_param=first(_pull_back_matrix(jac, struct["omega"])),
        f_param=first(da_u[None]),  # F = dA: u(1) is abelian
    )
    nodes = arrays["nodes"]

    # regularity: d mu must be onto at every node
    min_sigma = _min_dmu_norm(space, nodes)
    if min_sigma <= 1e-6:
        raise NotRegularError(
            f"d mu is rank-deficient on the zero level "
            f"(min singular value {min_sigma:.3e}): 0 is not a regular value"
        )

    # moment residual: the level really is mu = 0
    level_residual = float(np.max(np.abs(space.eval_moment(nodes))))

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
        equiv = _equivariance_residual(space, struct, nodes, conn["A"])
        if equiv > 1e-8:
            raise AccuracyError(
                f"connection equivariance residual {equiv:.3e} exceeds 1e-8"
            )

    dim = chart.param_dim
    liouville = _top_part(
        _exp_parts(_matrix_to_parts(arrays["omega_param"], float), dim, len(nodes)),
        _vertical_volume(arrays["connection_param"]), dim,
    )
    weights = space.radial.weights
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
    level = dict(
        space=space,
        chart=chart,
        param_nodes=chart.param_nodes,
        param_weights=chart.param_weights,
        grid_shape=chart.grid_shape,
        **arrays,
        regularity_report=report,
        stabilizer_order=math.gcd(*(abs(w) for w in weights)),
    )
    return level, liouville


def _exp_parts(two_form: dict, top_dim: int, n_nodes: int) -> dict:
    """exp of a pointwise two-form on ``n_nodes`` nodes, truncated at the
    top degree."""
    out = {(): np.ones(n_nodes)}
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
# the Cartan map
# ---------------------------------------------------------------------------


def _kappa_parts(alpha: EquivariantForm, level: ZeroLevelData) -> dict:
    """kappa(alpha) = P_A^* (alpha|_{level}, phi -> i F_A) as a pointwise
    form dict, from the connection data ``level`` stores on its mesh.  For
    closed invariant alpha the output is basic (invariant and horizontal),
    so it descends to M_red."""
    n_pts, k_dim = level.n_nodes, level.param_dim
    # horizontal projection in parameter coordinates
    proj = np.broadcast_to(np.eye(k_dim), (n_pts, k_dim, k_dim)).copy()
    proj -= np.einsum("nak,nal->nkl", level.vertical_param, level.connection_param)
    f_parts = [
        _matrix_to_parts(level.f_param[:, a]) for a in range(level.space.algebra.dim)
    ]
    cache: dict = {}
    total: dict = {}
    for fmi, coeff, phi_poly in alpha.terms:
        coeff_vals = np.broadcast_to(
            np.asarray(coeff.eval(level.nodes, cache), dtype=complex), (n_pts,)
        )
        ((nu, unit),) = phi_poly.terms.items()
        coeff_vals = coeff_vals * unit
        # pull the form part back to the level and project horizontally
        base = {tuple(fmi): coeff_vals}
        base = _pullback(base, level.jacobians, k_dim)
        base = _pullback(base, proj, k_dim)
        # substitute phi^a -> i F^a
        for a, power in enumerate(nu):
            for _ in range(power):
                base = _wedge(_scale_parts(f_parts[a], 1j), base)
                if not base:
                    break
        total = _add_parts(total, base)
    return total


# ---------------------------------------------------------------------------
# the reduced-space integral
# ---------------------------------------------------------------------------


class KirwanResult(_Frozen):
    """Polynomial-in-eps reduced integral with its coefficient vector."""

    __slots__ = ("value", "coefficients", "epsilon", "meta")

    def __init__(self, value, coefficients, epsilon, meta):
        object.__setattr__(self, "value", complex(value))
        object.__setattr__(
            self, "coefficients", tuple(complex(c) for c in coefficients)
        )
        object.__setattr__(self, "epsilon", float(epsilon))
        object.__setattr__(self, "meta", dict(meta))

    def __complex__(self):
        return self.value

    def to_json_dict(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "coefficients": [[c.real, c.imag] for c in self.coefficients],
            "epsilon": self.epsilon,
            "meta": self.meta,
        }


def _kirwan_tops(alpha: EquivariantForm, level: ZeroLevelData) -> list:
    """The integrands of the eps^k coefficients of kirwan_integral, k = 0,
    1, ..., as top coefficients at every node of the level (None for one
    without a top part), before the push-forward factor: kappa(alpha) ^
    exp(omega) ^ <F ^ F>_g^k ^ A^1 ^ ... ^ A^d.  The list stops early
    when the power of <F ^ F>_g vanishes."""
    space = level.space
    kappa = _kappa_parts(alpha, level)
    exp_omega = _exp_parts(level.omega_parts(), level.param_dim, level.n_nodes)
    vert = _vertical_volume(level.connection_param)
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
    max_k = max(0, level.horizontal_dim // 4)
    base = _wedge(kappa, exp_omega)
    tops = []
    s_power = {(): np.ones(level.n_nodes, dtype=complex)}
    for k in range(max_k + 1):
        tops.append(_top_part(_wedge(base, s_power), vert, level.param_dim))
        if k < max_k:
            s_power = _wedge(s_power, s_parts)
            if not s_power:
                break
    return tops


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
    evaluation.

    On a level meshed on its eta line (zero_level) each coefficient's
    integrand is probed at the level's probe nodes; when one depends on
    the phase angles, the level is rebuilt on the full tensor mesh and
    every coefficient is summed there (``meta["n_nodes"]`` counts the
    nodes of the mesh summed)."""
    _check_type("level", level, ZeroLevelData)
    _check_real("eps", eps)
    if not 0 < eps < math.inf:
        raise InputError("eps must be positive and finite")
    space = level.space
    _gate_alpha(space, alpha)
    tops = _kirwan_tops(alpha, level)
    chart = level.chart
    if chart.n_probe and not all(chart.phase_probe(t)[0] for t in tops if t is not None):
        level = _zero_level(space, level.mesh_density, collapse=False)
        tops = _kirwan_tops(alpha, level)
    max_k = max(0, level.horizontal_dim // 4)
    vol_g = space.algebra.group_volume
    push = level.orient_sign / vol_g
    coeffs = []
    factor = 1.0
    for k, top in enumerate(tops):
        raw = 0j if top is None else complex(np.sum(level.param_weights * top))
        coeffs.append(push * factor * raw)
        factor /= 2.0 * (k + 1)
    coeffs.extend([0.0 + 0.0j] * (max_k + 1 - len(coeffs)))
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

