"""Hamiltonian G-spaces on global coordinate charts, and a catalog of
explicit noncompact examples.

A ``HamiltonianSpace`` packages the symplectic form (both as an
equivariant form and as a matrix field), the fundamental vector fields,
the algebra-valued moment map mu* (so that <mu*, phi> is the moment
pairing), and a compatible metric.  Construction validates, at sampled
points, closedness and nondegeneracy of omega, the moment condition

    iota_{V phi} omega + d<mu*, phi> = 0,

and metric compatibility via J = -Omega^{-1} g with J^2 = -1.

Sign conventions, fixed here and used consistently everywhere:
U(1)-type rotations are counterclockwise in each (x_j, y_j) plane with
integer weights, and mu* = (sum_j w_j |z_j|^2 - a)/2, which satisfies
the moment condition above for omega = sum_j dx_j ^ dy_j.  Critical
values of |mu*|^2 for these spaces are {0, a^2/4} and all derived
constants follow from this normalization.

The catalog also builds the standard local-model spaces on
G x (k + X) with exponential coordinates theta on G: the two-form

    <d nu - 1/2 [beta + nu, g^{-1} dg], g^{-1} dg>_G + 1/2 dx _| omega_X _| dx,

the G-moment Ad_g(beta + nu), and the H-moment <nu, .> + 1/2 x _| omega_X _| rho(.) x,
realized through exact matrix-field calculus (Texp(ad_theta) blocks),
with the left G-action and the diagonal H-action (right-inverse on G,
adjoint on k, module action on X).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import (
    Const,
    Expr,
    ExprMatrix,
    Inv,
    MatAffine,
    MatConst,
    MatMul,
    MatScale,
    MatTranspose,
    MatrixField,
    Sqrtm,
    _Frozen,
    add,
    as_expr,
    column,
    const,
    coord,
    mat_entry,
    mul,
    texp,
)
from .forms import (
    EquivariantForm,
    VectorFieldFamily,
    _sampled_sup,
    contract,
    exterior_d,
)
from .liealg import (
    InputError,
    LieAlgebraSpec,
    NotRegularError,
    PhiPolynomial,
    bracket,
    builtin_algebra,
)

__all__ = [
    "HamiltonianSpace",
    "RadialMoment",
    "StandardLocalModel",
    "StandardModelSpaces",
    "check_moment_condition",
    "lambda_form",
    "eta_exprs",
    "build_standard_model",
    "catalog",
    "catalog_from_string",
    "sample_points",
    "validate_space",
    "with_corrupted_moment",
]


# ---------------------------------------------------------------------------
# the space type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialMoment:
    """|mu| = |c s - a| / 2 with s = sum_j w_j |z_j|^2, every w_j > 0.

    M_r = {|mu|^2 <= r} is the slab s_bounds(r).  Off mu^{-1}(0) the only
    critical point of |mu|^2 is the origin, so the critical values are
    a^2/4 and, when a > 0, 0.  mu^{-1}(0) is the level {c s = a} for
    a > 0, the origin for a = 0 and empty for a < 0."""

    weights: tuple
    a: float
    c: float = 1.0

    @classmethod
    def of_weights(cls, weights, a: float) -> "RadialMoment":
        """|mu| = |sum_j w_j |z_j|^2 - a| / 2; negative weights fold into
        |w_j| and the level -a, mixed signs raise InputError."""
        if any(w > 0 for w in weights) and any(w < 0 for w in weights):
            raise InputError(
                f"weights {weights} have mixed signs, so the moment map is not "
                "proper (|mu| stays bounded along an unbounded set); localization "
                "needs a proper moment map"
            )
        if weights[0] < 0:
            return cls(tuple(-w for w in weights), -float(a))
        return cls(weights, float(a))

    @property
    def planes(self) -> int:
        return len(self.weights)

    @property
    def critical_values(self) -> tuple:
        top = self.a * self.a / 4.0
        return (0.0, top) if self.a > 0 else (top,)

    def s_bounds(self, r: float):
        """The slab {|mu|^2 <= r} as (s_lo, s_hi); InputError when it is
        empty (r below a^2/4 with a < 0)."""
        half = 2.0 * math.sqrt(r)
        lo, hi = max(self.a - half, 0.0) / self.c, (self.a + half) / self.c
        if hi <= lo:
            raise InputError(f"{{|mu|^2 <= {r}}} is empty")
        return lo, hi

    def check_zero_level(self, name: str) -> None:
        """Raise unless mu^{-1}(0) is the level {c s = a}: NotRegularError
        when it is the origin, InputError when it is empty."""
        if self.a == 0:
            raise NotRegularError(
                f"the zero level of {name} is the single point at the origin, "
                "where d mu has rank zero: 0 is not a regular value"
            )
        if self.a < 0:
            raise InputError(f"the zero level set of {name} is empty")


class HamiltonianSpace(_Frozen):
    """Immutable bundle of (algebra, chart, omega, action, mu*, metric),
    with ``radial`` the RadialMoment when |mu| depends on the plane radii
    only (None otherwise)."""

    __slots__ = (
        "name",
        "algebra",
        "chart_id",
        "ambient_dim",
        "omega",
        "omega_matrix",
        "action",
        "moment_star",
        "metric",
        "chart_radius",
        "sample_box",
        "action_sampler",
        "radial",
    )

    def __init__(
        self,
        name: str,
        algebra: LieAlgebraSpec,
        chart_id: str,
        ambient_dim: int,
        omega: EquivariantForm,
        omega_matrix: MatrixField,
        action: VectorFieldFamily,
        moment_star,
        metric: MatrixField,
        sample_box,
        chart_radius: float = math.inf,
        action_sampler=None,
        radial: RadialMoment | None = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "chart_id", chart_id)
        object.__setattr__(self, "ambient_dim", int(ambient_dim))
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "omega_matrix", omega_matrix)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "moment_star", tuple(as_expr(m) for m in moment_star))
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "chart_radius", float(chart_radius))
        object.__setattr__(self, "sample_box", np.asarray(sample_box, dtype=float))
        object.__setattr__(self, "action_sampler", action_sampler)
        object.__setattr__(self, "radial", radial)
        if len(self.moment_star) != algebra.dim:
            raise InputError("moment map must have one component per basis element")
        if omega.gdim != algebra.dim or action.gdim != algebra.dim:
            raise InputError("algebra dimension mismatch in omega/action")
        if omega.ambient_dim != ambient_dim or action.ambient_dim != ambient_dim:
            raise InputError("chart dimension mismatch in omega/action")
        if self.sample_box.shape != (ambient_dim, 2):
            raise InputError("sample_box must be (ambient_dim, 2) low/high pairs")

    # -- derived scalar fields ------------------------------------------------
    def mu_pairing_exprs(self):
        """Components p_a of <mu*, phi> = sum_a p_a phi_a, i.e. (Q mu*)_a."""
        q = self.algebra.inner_product
        out = []
        for a in range(self.algebra.dim):
            terms = [
                mul(const(q[a, b]), self.moment_star[b])
                for b in range(self.algebra.dim)
                if q[a, b] != 0
            ]
            out.append(add(*terms))
        return tuple(out)

    def mu_phi_form(self) -> EquivariantForm:
        """<mu*, phi> as a phi-linear 0-form."""
        total = EquivariantForm.zero(self.chart_id, self.ambient_dim, self.algebra.dim)
        for a, p in enumerate(self.mu_pairing_exprs()):
            mono = [0] * self.algebra.dim
            mono[a] = 1
            total = total + EquivariantForm(
                self.chart_id, self.ambient_dim, self.algebra.dim,
                [((), p, tuple(mono))],
            )
        return total

    def mu_norm2_expr(self) -> Expr:
        """|mu*|^2 as a scalar field."""
        q = self.algebra.inner_product
        terms = []
        for a in range(self.algebra.dim):
            for b in range(self.algebra.dim):
                if q[a, b] != 0:
                    terms.append(
                        mul(const(q[a, b]), self.moment_star[a], self.moment_star[b])
                    )
        return add(*terms)

    def v_mu_star_exprs(self):
        """Components of the vector field V mu* (phi = mu*(x) substituted)."""
        comps = []
        for j in range(self.ambient_dim):
            terms = [
                mul(self.moment_star[a], self.action.components[a][j])
                for a in range(self.algebra.dim)
                if not self.action.components[a][j].is_zero
            ]
            comps.append(add(*terms))
        return tuple(comps)

    def eval_moment(self, pts: np.ndarray, cache=None) -> np.ndarray:
        cache = {} if cache is None else cache
        return np.stack([column(m, pts, cache) for m in self.moment_star], axis=1)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def sample_points(space: HamiltonianSpace, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lo = space.sample_box[:, 0]
    hi = space.sample_box[:, 1]
    return lo + (hi - lo) * rng.random((n, space.ambient_dim))


def check_moment_condition(
    space: HamiltonianSpace, n_samples: int, seed: int = 0
) -> dict:
    """Max pointwise norm of iota_{V phi} omega + d<mu*, phi> over sampled
    points and unit phi (algebra basis directions plus random units)."""
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    residual = contract(space.omega, space.action) + exterior_d(space.mu_phi_form())
    pts = sample_points(space, n_samples, seed)
    g = space.algebra.dim
    rng = np.random.default_rng(seed + 1)
    phis = list(np.eye(g))
    for _ in range(4):
        v = rng.standard_normal(g)
        phis.append(v / np.linalg.norm(v))
    worst = _sampled_sup(residual, pts, phis)
    return {
        "max_residual": worst,
        "n_samples": int(n_samples),
        "accepted": bool(worst < 1e-10),
    }


def lambda_form(space: HamiltonianSpace) -> EquivariantForm:
    """The invariant one-form lambda _| v = <V mu*, v>_M (phi-degree 0)."""
    vmu = space.v_mu_star_exprs()
    g = space.metric
    terms = []
    for j in range(space.ambient_dim):
        pieces = []
        for l in range(space.ambient_dim):
            if vmu[l].is_zero:
                continue
            entry = mat_entry(g, j, l)
            if entry.is_zero:
                continue
            pieces.append(mul(entry, vmu[l]))
        coeff = add(*pieces)
        if not coeff.is_zero:
            terms.append(((j,), coeff, PhiPolynomial.constant(space.algebra.dim)))
    return EquivariantForm(space.chart_id, space.ambient_dim, space.algebra.dim, terms)


def eta_exprs(space: HamiltonianSpace):
    """eta_a = <V mu*, V e_a>_M, the phi-linear scalar part of D lambda."""
    vmu = space.v_mu_star_exprs()
    g = space.metric
    out = []
    for a in range(space.algebra.dim):
        va = space.action.components[a]
        pieces = []
        for j in range(space.ambient_dim):
            for l in range(space.ambient_dim):
                if vmu[j].is_zero or va[l].is_zero:
                    continue
                entry = mat_entry(g, j, l)
                if entry.is_zero:
                    continue
                pieces.append(mul(vmu[j], entry, va[l]))
        out.append(add(*pieces))
    return tuple(out)


def validate_space(
    space: HamiltonianSpace, n_samples: int = 300, seed: int = 0
) -> dict:
    """Sampled-point verification of all structural invariants."""
    pts = sample_points(space, n_samples, seed)
    cache: dict = {}
    report: dict = {}

    # closedness of omega (phi-independent: one phi sample)
    report["d_omega"] = _sampled_sup(
        exterior_d(space.omega), pts, [np.zeros(space.algebra.dim)], cache
    )

    # matrix/form consistency
    om = np.asarray(space.omega_matrix.eval(pts, cache), dtype=float)
    assembled = np.zeros_like(om)
    for (fmi, nu), vals in space.omega.eval_terms(pts, cache).items():
        if sum(nu) != 0 or len(fmi) != 2:
            raise InputError("omega must be a phi-independent two-form")
        i, j = fmi
        assembled[:, i, j] += vals.real
        assembled[:, j, i] -= vals.real
    report["omega_matrix_consistency"] = float(np.max(np.abs(om - assembled)))

    # nondegeneracy
    det = np.linalg.det(om)
    report["min_abs_det_omega"] = float(np.min(np.abs(det)))

    # compatibility: J = -Omega^{-1} g, J^2 = -1, g SPD
    gmat = np.asarray(space.metric.eval(pts, cache), dtype=float)
    jmat = -np.linalg.solve(om, gmat)
    eye = np.eye(space.ambient_dim)
    report["j_squared"] = float(np.max(np.abs(jmat @ jmat + eye)))
    report["metric_symmetry"] = float(np.max(np.abs(gmat - np.swapaxes(gmat, 1, 2))))
    report["metric_min_eig"] = float(np.min(np.linalg.eigvalsh(gmat)))

    # moment condition
    mc = check_moment_condition(space, n_samples, seed)
    report["moment_residual"] = mc["max_residual"]

    report["ok"] = bool(
        report["d_omega"] < 1e-10
        and report["omega_matrix_consistency"] < 1e-10
        and report["min_abs_det_omega"] > 1e-8
        and report["j_squared"] < 1e-8
        and report["metric_min_eig"] > 0
        and report["moment_residual"] < 1e-10
    )
    return report


def with_corrupted_moment(space: HamiltonianSpace):
    """Negative control: leak `0.1 * x_0` into the first moment component
    so the moment condition acquires a position-dependent violation (a
    constant shift would die under d and go undetected)."""
    bad = list(space.moment_star)
    bad[0] = add(bad[0], mul(const(0.1), coord(0)))
    return HamiltonianSpace(
        name=space.name + ":corrupted",
        algebra=space.algebra,
        chart_id=space.chart_id,
        ambient_dim=space.ambient_dim,
        omega=space.omega,
        omega_matrix=space.omega_matrix,
        action=space.action,
        moment_star=bad,
        metric=space.metric,
        sample_box=space.sample_box,
        chart_radius=space.chart_radius,
        action_sampler=space.action_sampler,
    )


# ---------------------------------------------------------------------------
# flat U(1)/torus-type and SU(2) catalog spaces
# ---------------------------------------------------------------------------


def _flat_omega_matrix(n: int) -> np.ndarray:
    om = np.zeros((2 * n, 2 * n))
    for j in range(n):
        om[2 * j, 2 * j + 1] = 1.0
        om[2 * j + 1, 2 * j] = -1.0
    return om


def _weighted_cn_space(n: int, weights, a: float, name: str) -> HamiltonianSpace:
    if n < 1:
        raise InputError("n must be >= 1")
    if a <= 0:
        raise InputError("the moment level shift a must be positive")
    weights = tuple(int(w) for w in weights)
    if len(weights) != n or any(w == 0 for w in weights):
        raise InputError("weights must be n nonzero integers")
    radial = RadialMoment.of_weights(weights, a)
    algebra = builtin_algebra("u1")
    chart = name
    dim = 2 * n
    gdim = 1
    # omega = sum dx_j ^ dy_j
    omega = EquivariantForm(
        chart,
        dim,
        gdim,
        [((2 * j, 2 * j + 1), 1.0, PhiPolynomial.constant(gdim)) for j in range(n)],
    )
    # counterclockwise rotation with weight w_j in each plane
    comps = []
    for j in range(n):
        comps.extend(
            [mul(const(-float(weights[j])), coord(2 * j + 1)),
             mul(const(float(weights[j])), coord(2 * j))]
        )
    action = VectorFieldFamily(chart, [comps])
    # mu* = (sum w_j |z_j|^2 - a)/2
    mu = add(
        *[
            mul(const(weights[j] / 2.0), coord(c), coord(c))
            for j in range(n)
            for c in (2 * j, 2 * j + 1)
        ],
        const(-a / 2.0),
    )
    box_half = np.repeat(
        [math.sqrt(max(2.0 * a, 2.0) / abs(w)) for w in weights], 2
    )
    sample_box = np.stack([-box_half, box_half], axis=1)

    def action_sampler(xi, pts):
        t = float(np.asarray(xi).reshape(()))
        jac = np.zeros((dim, dim))
        # rotate plane by plane: an (N, dim) x (dim, dim) gemm is too thin
        # for threaded BLAS, which takes ~100x longer in some processes
        new_pts = np.empty_like(pts, dtype=float)
        for j in range(n):
            cth, sth = math.cos(weights[j] * t), math.sin(weights[j] * t)
            jac[2 * j, 2 * j] = cth
            jac[2 * j, 2 * j + 1] = -sth
            jac[2 * j + 1, 2 * j] = sth
            jac[2 * j + 1, 2 * j + 1] = cth
            x, y = pts[:, 2 * j], pts[:, 2 * j + 1]
            new_pts[:, 2 * j] = cth * x - sth * y
            new_pts[:, 2 * j + 1] = sth * x + cth * y
        return new_pts, np.broadcast_to(jac, (pts.shape[0], dim, dim))

    return HamiltonianSpace(
        name=name,
        algebra=algebra,
        chart_id=chart,
        ambient_dim=dim,
        omega=omega,
        omega_matrix=MatConst(_flat_omega_matrix(n)),
        action=action,
        moment_star=(mu,),
        metric=MatConst(np.eye(dim)),
        sample_box=sample_box,
        action_sampler=action_sampler,
        radial=radial,
    )


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _su2_rep(a: int) -> np.ndarray:
    return -0.5j * _PAULI[a]


def _complex_to_real_4x4(u: np.ndarray) -> np.ndarray:
    """Real matrix of z -> U z on (x1, y1, x2, y2)."""
    out = np.zeros((4, 4))
    for bi in range(2):
        for bj in range(2):
            out[2 * bi, 2 * bj] = u[bi, bj].real
            out[2 * bi, 2 * bj + 1] = -u[bi, bj].imag
            out[2 * bi + 1, 2 * bj] = u[bi, bj].imag
            out[2 * bi + 1, 2 * bj + 1] = u[bi, bj].real
    return out


def _c2_su2_space() -> HamiltonianSpace:
    algebra = builtin_algebra("su2")
    chart = "c2_su2"
    dim, gdim = 4, 3
    omega = EquivariantForm(
        chart,
        dim,
        gdim,
        [
            ((0, 1), 1.0, PhiPolynomial.constant(gdim)),
            ((2, 3), 1.0, PhiPolynomial.constant(gdim)),
        ],
    )
    comp_rows = []
    for a in range(3):
        rmat = _complex_to_real_4x4(_su2_rep(a))
        row = []
        for r in range(4):
            row.append(
                add(
                    *[
                        mul(const(rmat[r, c]), coord(c))
                        for c in range(4)
                        if rmat[r, c] != 0
                    ]
                )
            )
        comp_rows.append(row)
    action = VectorFieldFamily(chart, comp_rows)
    x1, y1, x2, y2 = (coord(j) for j in range(4))
    mu = (
        add(mul(const(-0.5), x1, x2), mul(const(-0.5), y1, y2)),
        add(mul(const(-0.5), x1, y2), mul(const(0.5), y1, x2)),
        add(
            mul(const(-0.25), x1, x1),
            mul(const(-0.25), y1, y1),
            mul(const(0.25), x2, x2),
            mul(const(0.25), y2, y2),
        ),
    )
    sample_box = np.stack([-1.5 * np.ones(4), 1.5 * np.ones(4)], axis=1)

    def action_sampler(xi, pts):
        xi = np.asarray(xi, dtype=float)
        u = _expm_dense(sum(xi[a] * _su2_rep(a) for a in range(3)))
        jac = _complex_to_real_4x4(u)
        return pts @ jac.T, np.broadcast_to(jac, (pts.shape[0], 4, 4))

    return HamiltonianSpace(
        name="c2_su2",
        algebra=algebra,
        chart_id=chart,
        ambient_dim=dim,
        omega=omega,
        omega_matrix=MatConst(_flat_omega_matrix(2)),
        action=action,
        moment_star=mu,
        metric=MatConst(np.eye(dim)),
        sample_box=sample_box,
        action_sampler=action_sampler,
        # |mu| = (|z_1|^2 + |z_2|^2) / 4
        radial=RadialMoment((1, 1), 0.0, 0.5),
    )


# ---------------------------------------------------------------------------
# the standard local model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StandardLocalModel:
    """Data for the model space G x (k + X): subgroup chain h <= k <= g,
    a k-fixed vector beta, and a symplectic h-module X."""

    algebra_G: LieAlgebraSpec
    k_basis: np.ndarray  # rows: basis of k inside g
    h_basis: np.ndarray  # rows: basis of h inside g (possibly 0 rows)
    beta: np.ndarray
    x_dim: int
    omega_X: np.ndarray
    rho: np.ndarray  # (dim_h, x_dim, x_dim) generators of the h-action on X
    name: str = "standard_model"
    group_volume_H: float = field(default=2 * math.pi)

    def __post_init__(self):
        g = self.algebra_G
        kb = np.atleast_2d(np.asarray(self.k_basis, dtype=float))
        hb = np.asarray(self.h_basis, dtype=float).reshape(-1, g.dim)
        beta = np.asarray(self.beta, dtype=float)
        ox = np.asarray(self.omega_X, dtype=float).reshape(self.x_dim, self.x_dim)
        rho_raw = np.asarray(self.rho, dtype=float)
        if self.x_dim:
            rho = rho_raw.reshape(-1, self.x_dim, self.x_dim)
        else:
            n_gen = rho_raw.shape[0] if rho_raw.ndim >= 1 else 0
            rho = rho_raw.reshape(n_gen, 0, 0)
        object.__setattr__(self, "k_basis", kb)
        object.__setattr__(self, "h_basis", hb)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "omega_X", ox)
        object.__setattr__(self, "rho", rho)
        if kb.shape[1] != g.dim or beta.shape != (g.dim,):
            raise InputError("k_basis/beta must live in the algebra of G")
        if rho.shape[0] != hb.shape[0]:
            raise InputError("one rho generator per h basis vector required")
        # beta fixed by k
        for v in kb:
            if np.max(np.abs(bracket(g, v, beta))) > 1e-12:
                raise InputError("beta must be fixed by k ([k, beta] != 0)")
        # h inside k (as subspaces)
        if hb.shape[0]:
            sol, res, *_ = np.linalg.lstsq(kb.T, hb.T, rcond=None)
            recon = kb.T @ sol
            if np.max(np.abs(recon - hb.T)) > 1e-12:
                raise InputError("h must be a subspace of k")
        # k and h are subalgebras
        for basis, tag in ((kb, "k"), (hb, "h")):
            for u in basis:
                for v in basis:
                    br = bracket(g, u, v)
                    if basis.shape[0]:
                        sol, *_ = np.linalg.lstsq(basis.T, br, rcond=None)
                        if np.max(np.abs(basis.T @ sol - br)) > 1e-12:
                            raise InputError(f"{tag} is not a subalgebra")
        # omega_X antisymmetric nondegenerate
        if self.x_dim:
            if np.max(np.abs(ox + ox.T)) > 1e-12:
                raise InputError("omega_X must be antisymmetric")
            if abs(np.linalg.det(ox)) < 1e-12:
                raise InputError("omega_X must be nondegenerate")
        # the h-action preserves omega_X: rho^T omega_X + omega_X rho = 0
        if self.x_dim:
            for r in rho:
                if np.max(np.abs(r.T @ ox + ox @ r)) > 1e-12:
                    raise InputError("the h-action must preserve omega_X")

    @property
    def dim_k(self) -> int:
        return self.k_basis.shape[0]

    @property
    def dim_h(self) -> int:
        return self.h_basis.shape[0]


class StandardModelSpaces(_Frozen):
    """The two Hamiltonian structures on one model space: the (left)
    G-action and the diagonal H-action."""

    __slots__ = ("space_G", "space_H", "model")

    def __init__(self, space_G, space_H, model):
        object.__setattr__(self, "space_G", space_G)
        object.__setattr__(self, "space_H", space_H)
        object.__setattr__(self, "model", model)


def _vec_as_first_column(vec: np.ndarray, k: int) -> np.ndarray:
    m = np.zeros((k, k))
    m[: len(vec), 0] = vec
    return m


def build_standard_model(m: StandardLocalModel) -> StandardModelSpaces:
    g = m.algebra_G
    dg, dk, dx = g.dim, m.dim_k, m.x_dim
    n = dg + dk + dx
    chart = f"stdmodel:{m.name}"
    q = g.inner_product
    kmat = m.k_basis.T  # columns k_i, shape (dg, dk)

    admats = [g.ad_matrix(e) for e in np.eye(dg)]
    ad_theta = MatAffine(
        np.zeros((dg, dg)), {c: admats[c] for c in range(dg)}
    )
    big_t = texp(ad_theta)

    # A = ad_{beta + K nu} as an affine pencil in the nu coordinates
    ad_beta = g.ad_matrix(m.beta)
    a_affine = MatAffine(
        ad_beta,
        {dg + i: g.ad_matrix(kmat[:, i]) for i in range(dk)},
    )
    # theta-theta block: T^T (Q A) T
    p_block = MatMul(MatTranspose(big_t), MatMul(MatMul(MatConst(q), a_affine), big_t))

    # nu-theta block: K^T Q T  (shape dk x dg), entries as scalar fields
    ktq = kmat.T @ q

    def nu_theta_entry(i, b):
        return add(
            *[
                mul(const(ktq[i, a]), mat_entry(big_t, a, b))
                for a in range(dg)
                if ktq[i, a] != 0
            ]
        )

    zero = Const(0.0)
    entries = [[zero for _ in range(n)] for _ in range(n)]
    for c in range(dg):
        for d in range(dg):
            entries[c][d] = mat_entry(p_block, c, d)
    for i in range(dk):
        for b in range(dg):
            e = nu_theta_entry(i, b)
            entries[dg + i][b] = e
            entries[b][dg + i] = mul(const(-1.0), e)
    for p_ in range(dx):
        for q_ in range(dx):
            if m.omega_X[p_, q_] != 0:
                entries[dg + dk + p_][dg + dk + q_] = const(m.omega_X[p_, q_])
    omega_matrix = ExprMatrix(entries)

    def form_from_matrix(gdim):
        terms = []
        for c in range(n):
            for d in range(c + 1, n):
                e = entries[c][d]
                if not (isinstance(e, Const) and e.value == 0):
                    terms.append(((c, d), e, PhiPolynomial.constant(gdim)))
        return EquivariantForm(chart, n, gdim, terms)

    metric = Sqrtm(MatScale(-1.0, MatMul(omega_matrix, omega_matrix)))

    # chart validity: Texp(ad_theta) is invertible while |ad spectrum| < 2 pi
    spectral = max(
        (np.max(np.abs(np.linalg.eigvals(b))) for b in admats), default=0.0
    )
    chart_radius = math.inf if spectral == 0 else 2 * math.pi / spectral

    theta_half = min(0.6, 0.2 * chart_radius) if math.isfinite(chart_radius) else 0.8
    # keep ad_{beta + K nu} away from extra degeneracies when beta twists the
    # theta-theta block (nu must not cancel beta)
    nu_half = 0.3 if np.max(np.abs(ad_beta)) > 0 else 0.7
    box = [(-theta_half, theta_half)] * dg
    box += [(-nu_half, nu_half)] * dk
    box += [(-1.0, 1.0)] * dx
    sample_box = np.asarray(box)

    # ---- G-structure: left action, mu*_G = Ad_{e^theta}(beta + K nu) -------
    inv_texp_neg = Inv(texp(MatScale(-1.0, ad_theta)))
    g_rows = []
    for b in range(dg):
        row = [mat_entry(inv_texp_neg, r, b) for r in range(dg)]
        row += [zero] * (dk + dx)
        g_rows.append(row)
    action_G = VectorFieldFamily(chart, g_rows)

    from .fields import Expm as _Expm

    vec_pencil = MatAffine(
        _vec_as_first_column(m.beta, dg),
        {dg + i: _vec_as_first_column(kmat[:, i], dg) for i in range(dk)},
    )
    mu_g_mat = MatMul(_Expm(ad_theta), vec_pencil)
    mu_G = tuple(mat_entry(mu_g_mat, a, 0) for a in range(dg))

    # group element exp(xi) acting on the left; theta' = log(e^xi e^theta),
    # d theta' = Texp(ad_theta')^{-1} Texp(ad_theta) d theta
    def action_sampler_G(xi, pts):
        xi = np.asarray(xi, dtype=float).reshape(dg)
        new_pts = pts.copy()
        n_pts = pts.shape[0]
        jac = np.zeros((n_pts, n, n))
        jac[:, dg:, dg:] = np.eye(dk + dx)
        for row in range(n_pts):
            theta = pts[row, :dg]
            ad_t = sum(theta[c] * admats[c] for c in range(dg))
            ad_x = sum(xi[c] * admats[c] for c in range(dg))
            if dg == 1:
                theta_new = theta + xi  # abelian chart composition
                jac_t = np.eye(1)
            else:
                gmat = _expm_dense(ad_x) @ _expm_dense(ad_t)
                lmat = np.real(_logm_dense(gmat))
                theta_new = _ad_to_vector(lmat, admats)
                ad_tn = sum(theta_new[c] * admats[c] for c in range(dg))
                jac_t = np.linalg.solve(_texp_dense(ad_tn), _texp_dense(ad_t))
            new_pts[row, :dg] = theta_new
            jac[row, :dg, :dg] = jac_t
        return new_pts, jac

    space_G = HamiltonianSpace(
        name=f"{m.name}:G",
        algebra=g,
        chart_id=chart,
        ambient_dim=n,
        omega=form_from_matrix(dg),
        omega_matrix=omega_matrix,
        action=action_G,
        moment_star=mu_G,
        metric=metric,
        sample_box=sample_box,
        chart_radius=chart_radius,
        action_sampler=action_sampler_G,
    )

    # ---- H-structure: diagonal action --------------------------------------
    # Realized with the right-multiplication flow g -> g exp(t xi) on the
    # group factor (so V^theta = Texp(ad_theta)^{-1} h_i), the module action
    # on X, and the trivial action on k coordinates.  The moment condition
    # for mu_H below holds exactly when h centralizes k, which is validated;
    # this also makes h abelian.
    space_H = None
    if m.dim_h:
        dh = m.dim_h
        hmat = m.h_basis.T  # (dg, dh)
        q_h = m.h_basis @ q @ hmat
        for i in range(dh):
            for j in range(dk):
                if np.max(np.abs(bracket(g, hmat[:, i], kmat[:, j]))) > 1e-12:
                    raise InputError(
                        "the moment structure for the h-action requires h to "
                        "centralize k"
                    )
        algebra_H = LieAlgebraSpec(
            dim=dh,
            basis_labels=tuple(f"h{i+1}" for i in range(dh)),
            structure_constants=np.zeros((dh, dh, dh)),
            inner_product=q_h,
            group_volume=m.group_volume_H,
            name=f"{m.name}:h",
        )
        # rho must be a representation of the (abelian) h
        for i in range(dh):
            for j in range(dh):
                comm = m.rho[i] @ m.rho[j] - m.rho[j] @ m.rho[i]
                if comm.size and np.max(np.abs(comm)) > 1e-10:
                    raise InputError("rho generators must commute for abelian h")

        inv_t = Inv(big_t)
        h_rows = []
        for i in range(dh):
            hcol = MatConst(_vec_as_first_column(hmat[:, i], dg))
            vtheta = MatMul(inv_t, hcol)
            row = [mat_entry(vtheta, r, 0) for r in range(dg)]
            row += [zero] * dk
            for p_ in range(dx):
                row.append(
                    add(
                        *[
                            mul(const(m.rho[i][p_, l]), coord(dg + dk + l))
                            for l in range(dx)
                            if m.rho[i][p_, l] != 0
                        ]
                    )
                )
            h_rows.append(row)
        action_H = VectorFieldFamily(chart, h_rows)

        # mu*_H = Q_H^{-1} [ <K nu, h_i> + 1/2 x^T (omega_X rho_i) x ]_i ;
        # omega_X rho_i is symmetric because rho preserves omega_X
        q_h_inv = np.linalg.inv(q_h)
        raw = []
        for i in range(dh):
            kqh = kmat.T @ q @ hmat[:, i]  # (dk,)
            pieces = [
                mul(const(kqh[j]), coord(dg + j)) for j in range(dk) if kqh[j] != 0
            ]
            wr = m.omega_X @ m.rho[i]
            for p_ in range(dx):
                for l in range(dx):
                    if wr[p_, l] != 0:
                        pieces.append(
                            mul(
                                const(0.5 * wr[p_, l]),
                                coord(dg + dk + p_),
                                coord(dg + dk + l),
                            )
                        )
            raw.append(add(*pieces))
        mu_H = tuple(
            add(
                *[
                    mul(const(q_h_inv[i, j]), raw[j])
                    for j in range(dh)
                    if q_h_inv[i, j] != 0
                ]
            )
            for i in range(dh)
        )

        def action_sampler_H(xi, pts):
            xi = np.asarray(xi, dtype=float).reshape(dh)
            zeta = hmat @ xi  # in g
            ad_z = sum(zeta[c] * admats[c] for c in range(dg))
            x_rot = (
                _expm_dense(sum(xi[i] * m.rho[i] for i in range(dh)))
                if dx
                else np.zeros((0, 0))
            )
            n_pts = pts.shape[0]
            new_pts = pts.copy()
            jac = np.zeros((n_pts, n, n))
            for row in range(n_pts):
                theta = pts[row, :dg]
                ad_t = sum(theta[c] * admats[c] for c in range(dg))
                if dg == 1:
                    theta_new = theta + zeta
                    jac_t = np.eye(1)
                else:
                    gmat = _expm_dense(ad_t) @ _expm_dense(ad_z)
                    theta_new = _ad_to_vector(np.real(_logm_dense(gmat)), admats)
                    ad_tn = sum(theta_new[c] * admats[c] for c in range(dg))
                    jac_t = np.linalg.solve(
                        _texp_dense(ad_tn),
                        _expm_dense(-ad_z) @ _texp_dense(ad_t),
                    )
                new_pts[row, :dg] = theta_new
                jac[row, :dg, :dg] = jac_t
                new_pts[row, dg : dg + dk] = pts[row, dg : dg + dk]
                jac[row, dg : dg + dk, dg : dg + dk] = np.eye(dk)
                if dx:
                    new_pts[row, dg + dk :] = x_rot @ pts[row, dg + dk :]
                    jac[row, dg + dk :, dg + dk :] = x_rot
            return new_pts, jac

        space_H = HamiltonianSpace(
            name=f"{m.name}:H",
            algebra=algebra_H,
            chart_id=chart,
            ambient_dim=n,
            omega=form_from_matrix(dh),
            omega_matrix=omega_matrix,
            action=action_H,
            moment_star=mu_H,
            metric=metric,
            sample_box=sample_box,
            chart_radius=chart_radius,
            action_sampler=action_sampler_H,
        )

    return StandardModelSpaces(space_G, space_H, m)


def _ad_to_vector(lmat: np.ndarray, admats) -> np.ndarray:
    """Solve sum_c v_c admats[c] = lmat for v (least squares, exact for
    points in the chart)."""
    basis = np.stack([b.ravel() for b in admats], axis=1)
    sol, *_ = np.linalg.lstsq(basis, lmat.ravel(), rcond=None)
    return sol


# The dense helpers import scipy.linalg when called, not at module load: it
# is slow to import and only the standard local models and the c2_su2
# action sampler need it.
def _expm_dense(a: np.ndarray) -> np.ndarray:
    from scipy.linalg import expm

    return expm(a)


def _logm_dense(a: np.ndarray) -> np.ndarray:
    from scipy.linalg import logm

    return logm(a)


def _texp_dense(a: np.ndarray) -> np.ndarray:
    """(1 - e^{-A}) / A via the augmented-block identity (dense, pointwise)."""
    k = a.shape[0]
    aug = np.zeros((2 * k, 2 * k))
    aug[:k, :k] = -a
    aug[:k, k:] = np.eye(k)
    return _expm_dense(aug)[:k, k:]


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_STANDARD_PRESETS = {}


def _standard_preset(preset: str) -> StandardLocalModel:
    if preset in _STANDARD_PRESETS:
        return _STANDARD_PRESETS[preset]
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    om_x = np.array([[0.0, 1.0], [-1.0, 0.0]])
    if preset == "u1_w1":
        m = StandardLocalModel(
            algebra_G=builtin_algebra("u1"),
            k_basis=np.array([[1.0]]),
            h_basis=np.array([[1.0]]),
            beta=np.array([0.0]),
            x_dim=2,
            omega_X=om_x,
            rho=rot[None, :, :],
            name="u1_w1",
            group_volume_H=2 * math.pi,
        )
    elif preset == "u1_beta":
        m = StandardLocalModel(
            algebra_G=builtin_algebra("u1"),
            k_basis=np.array([[1.0]]),
            h_basis=np.zeros((0, 1)),
            beta=np.array([0.7]),
            x_dim=0,
            omega_X=np.zeros((0, 0)),
            rho=np.zeros((0, 0, 0)),
            name="u1_beta",
        )
    elif preset == "su2_hopf":
        m = StandardLocalModel(
            algebra_G=builtin_algebra("su2"),
            k_basis=np.array([[0.0, 0.0, 1.0]]),
            h_basis=np.array([[0.0, 0.0, 1.0]]),
            beta=np.array([0.0, 0.0, 0.5]),
            x_dim=2,
            omega_X=om_x,
            rho=rot[None, :, :],
            name="su2_hopf",
            group_volume_H=4 * math.pi,  # the e_3 one-parameter subgroup closes at 4 pi
        )
    else:
        raise InputError(f"unknown standard-model preset {preset!r}")
    _STANDARD_PRESETS[preset] = m
    return m


def catalog(name: str, **params) -> HamiltonianSpace:
    """Named example spaces:
    cn_u1(n, a), weighted_cn_u1(n, weights, a), c2_su2,
    standard_model(preset, which='G'|'H')."""
    if name == "cn_u1":
        n = int(params.get("n", 1))
        a = float(params.get("a", 1.0))
        return _weighted_cn_space(n, (1,) * n, a, f"cn_u1({n},{a:g})")
    if name == "weighted_cn_u1":
        n = int(params.get("n", 2))
        weights = tuple(params.get("weights", (1,) * n))
        a = float(params.get("a", 1.0))
        wtag = ",".join(str(w) for w in weights)
        return _weighted_cn_space(
            n, weights, a, f"weighted_cn_u1({n},({wtag}),{a:g})"
        )
    if name == "c2_su2":
        return _c2_su2_space()
    if name == "standard_model":
        preset = params.get("preset", "u1_w1")
        which = params.get("which", "G").upper()
        spaces = build_standard_model(_standard_preset(preset))
        if which == "G":
            return spaces.space_G
        if which == "H":
            if spaces.space_H is None:
                raise InputError(f"preset {preset!r} has a trivial H")
            return spaces.space_H
        raise InputError("which must be 'G' or 'H'")
    raise InputError(f"unknown catalog space {name!r}")


def catalog_from_string(text: str) -> HamiltonianSpace:
    """Parse forms like cn_u1(2, 1.0), weighted_cn_u1(2, (1,2), 1.0),
    c2_su2, standard_model(u1_w1, G)."""
    text = text.strip()
    if "(" not in text:
        return catalog(text)
    head, _, rest = text.partition("(")
    if not rest.endswith(")"):
        raise InputError(f"malformed catalog name {text!r}")
    body = rest[:-1].strip()
    head = head.strip()
    if head == "cn_u1":
        parts = [p.strip() for p in body.split(",")]
        if len(parts) != 2:
            raise InputError("cn_u1 takes (n, a)")
        return catalog("cn_u1", n=int(parts[0]), a=float(parts[1]))
    if head == "weighted_cn_u1":
        lpar = body.index("(")
        rpar = body.index(")", lpar)
        weights = tuple(
            int(w) for w in body[lpar + 1 : rpar].split(",") if w.strip()
        )
        outer = (body[:lpar] + body[rpar + 1 :]).split(",")
        outer = [p.strip() for p in outer if p.strip()]
        if len(outer) != 2:
            raise InputError("weighted_cn_u1 takes (n, (w1,...), a)")
        return catalog(
            "weighted_cn_u1", n=int(outer[0]), weights=weights, a=float(outer[1])
        )
    if head == "standard_model":
        parts = [p.strip() for p in body.split(",") if p.strip()]
        preset = parts[0] if parts else "u1_w1"
        which = parts[1] if len(parts) > 1 else "G"
        return catalog("standard_model", preset=preset, which=which)
    if head == "c2_su2":
        return catalog("c2_su2")
    raise InputError(f"unknown catalog space {text!r}")


def catalog_names_for_validation():
    """The instances every structural test sweeps over."""
    return [
        ("cn_u1(1,1)", lambda: catalog("cn_u1", n=1, a=1.0)),
        ("cn_u1(2,1)", lambda: catalog("cn_u1", n=2, a=1.0)),
        ("weighted_cn_u1(2,(1,2),1)", lambda: catalog(
            "weighted_cn_u1", n=2, weights=(1, 2), a=1.0
        )),
        ("c2_su2", lambda: catalog("c2_su2")),
        ("standard_model(u1_w1,G)", lambda: catalog(
            "standard_model", preset="u1_w1", which="G"
        )),
        ("standard_model(u1_w1,H)", lambda: catalog(
            "standard_model", preset="u1_w1", which="H"
        )),
        ("standard_model(u1_beta,G)", lambda: catalog(
            "standard_model", preset="u1_beta", which="G"
        )),
        ("standard_model(su2_hopf,G)", lambda: catalog(
            "standard_model", preset="su2_hopf", which="G"
        )),
        ("standard_model(su2_hopf,H)", lambda: catalog(
            "standard_model", preset="su2_hopf", which="H"
        )),
    ]
