"""Hamiltonian G-spaces on global coordinate charts, and a catalog of
explicit noncompact examples.

A ``HamiltonianSpace`` packages the symplectic form (both as an
equivariant form and as a matrix field), the fundamental vector fields,
the algebra-valued moment map mu* (so that <mu*, phi> is the moment
pairing), and a compatible metric.  Its invariants are closedness and
nondegeneracy of omega, the moment condition

    iota_{V phi} omega + d<mu*, phi> = 0,

and metric compatibility via J = -Omega^{-1} g with J^2 = -1; the test
suite checks them at sampled points on every catalog space.

Sign conventions, fixed here and used consistently everywhere: every
non-model catalog space is a linear action on C^n = R^{2n} with
omega = sum_j dx_j ^ dy_j and the flat metric, built from its real
generator matrices X_a (``_linear_space``).  Its moment map is the
quadratic form with

    d mu*_a = -iota_{X_a x} omega,   i.e.  mu*_a = 1/2 x^T S_a x + level_a,
    S_a = -X_a^T Omega,

with the algebra inner product Q = I, so mu* is the moment pairing
itself.  U(1)-type rotations are counterclockwise in each (x_j, y_j)
plane with integer weights, so mu* = (sum_j w_j |z_j|^2 - a)/2.  Critical
values of |mu*|^2 for these spaces are {0, a^2/4} and all derived
constants follow from this normalization.

The catalog also builds the standard local-model spaces on
G x (k + X) with exponential coordinates theta on G: the two-form

    <d nu - 1/2 [beta + nu, g^{-1} dg], g^{-1} dg>_G + 1/2 dx _| omega_X _| dx,

the G-moment Ad_g(beta + nu), and the H-moment <nu, .> + 1/2 x _| omega_X _| rho(.) x,
realized through exact matrix-field calculus (Texp(ad_theta) blocks),
with the left G-action and the diagonal H-action (right-inverse on G,
adjoint on k, module action on X).  Both action samplers are one chart
composition on the group factor, e^theta -> e^L e^theta e^R with
(L, R) = (xi, 0) for G and (0, sum_i xi_i h_i) for H, evaluated for all
points at once through the same Expm and Texp fields as omega and mu*.
The log of the composed e^{ad theta} is the closed-form axis-angle log of
SO(3), the adjoint group of su2; a nonabelian group factor whose ad
matrices are not antisymmetric 3 x 3 is refused.
"""

from __future__ import annotations

import ast
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .fields import (
    Const,
    Expr,
    Expm,
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
    _batched_expm,
    add,
    as_expr,
    column,
    const,
    coord,
    mat_entry,
    mul,
    texp,
)
from .forms import EquivariantForm, VectorFieldFamily
from .liealg import (
    InputError,
    LieAlgebraSpec,
    NotRegularError,
    PhiPolynomial,
    _check_count,
    bracket,
    builtin_algebra,
)

__all__ = [
    "HamiltonianSpace",
    "RadialMoment",
    "StandardLocalModel",
    "StandardModelSpaces",
    "lambda_form",
    "eta_exprs",
    "build_standard_model",
    "catalog",
    "catalog_from_string",
    "sample_points",
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
    _check_count("n", n, 1)
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    lo = space.sample_box[:, 0]
    hi = space.sample_box[:, 1]
    return lo + (hi - lo) * rng.random((n, space.ambient_dim))


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


# ---------------------------------------------------------------------------
# linear catalog spaces
# ---------------------------------------------------------------------------


def _realify(h) -> np.ndarray:
    """Real matrix of z -> h z on (x_1, y_1, ..., x_n, y_n), z_j = x_j + i y_j."""
    h = np.asarray(h, dtype=complex)
    out = np.zeros((2 * len(h), 2 * len(h)))
    out[0::2, 0::2] = out[1::2, 1::2] = h.real
    out[0::2, 1::2] = -h.imag
    out[1::2, 0::2] = h.imag
    return out


def _linear_space(
    name: str, algebra: LieAlgebraSpec, generators, level, radial, sample_box
) -> HamiltonianSpace:
    """The linear action x -> exp(sum_a xi_a X_a) x on C^n = R^{2n} with
    omega = sum_j dx_j ^ dy_j and the flat metric, built from the real
    generator matrices X_a alone: V_a = X_a x and

        mu*_a = 1/2 x^T S_a x + level_a,   S_a = -X_a^T Omega,

    so that d mu*_a = -iota_{X_a x} omega.  InputError unless every X_a
    preserves omega (X^T Omega + Omega X = 0), the X_a represent the
    algebra ([X_a, X_b] = sum_c c_ab^c X_c) and its inner product is the
    identity (then mu* is the pairing)."""
    xs = [np.asarray(x, dtype=float) for x in generators]
    gdim, dim = algebra.dim, len(xs[0])
    om = np.kron(np.eye(dim // 2), [[0.0, 1.0], [-1.0, 0.0]])
    if len(xs) != gdim or len(level) != gdim:
        raise InputError(f"{name}: one generator and one level per basis element")
    if not np.array_equal(algebra.inner_product, np.eye(gdim)):
        raise InputError(f"{name}: the algebra inner product must be the identity")
    for x in xs:
        if x.shape != om.shape or np.max(np.abs(x.T @ om + om @ x)) > 1e-12:
            raise InputError(f"{name}: a generator does not preserve omega")
    for a in range(gdim):
        for b in range(gdim):
            rep = np.tensordot(algebra.structure_constants[a, b], xs, axes=1)
            if np.max(np.abs(xs[a] @ xs[b] - xs[b] @ xs[a] - rep)) > 1e-12:
                raise InputError(f"{name}: the generators do not represent {algebra.name}")
    omega = EquivariantForm(name, dim, gdim, [
        ((i, j), float(om[i, j]), PhiPolynomial.constant(gdim))
        for i in range(dim) for j in range(i + 1, dim) if om[i, j] != 0
    ])
    # one node per coordinate, so that a sweep evaluates each column once
    cs = [coord(i) for i in range(dim)]
    action = VectorFieldFamily(name, [
        [add(*[mul(const(float(x[r, c])), cs[c]) for c in range(dim) if x[r, c] != 0])
         for r in range(dim)]
        for x in xs
    ])
    moment = []
    for x, lv in zip(xs, level):
        s = -x.T @ om
        moment.append(add(*[
            mul(const(float(s[i, j]) * (0.5 if i == j else 1.0)), cs[i], cs[j])
            for i in range(dim) for j in range(i, dim) if s[i, j] != 0
        ], const(lv)))

    flat = np.reshape(xs, (gdim, dim * dim))

    def action_sampler(xi, pts):
        xi = np.asarray(xi, dtype=float).reshape(gdim)
        jac = _batched_expm((xi @ flat).reshape(dim, dim))
        # row arithmetic over the node columns: an (N, dim) x (dim, dim)
        # gemm is too thin for threaded BLAS, which takes ~100x longer in
        # some processes.  The image is the transpose of a (dim, N) array,
        # so its node columns stay contiguous for the caller.
        cols, out, tmp = pts.T, np.empty((dim, len(pts))), np.empty(len(pts))
        for r, row in enumerate(jac):
            first, *rest = np.flatnonzero(row)
            np.multiply(cols[first], row[first], out=out[r])
            for c in rest:
                out[r] += np.multiply(cols[c], row[c], out=tmp)
        return out.T, np.broadcast_to(jac, (len(pts), dim, dim))

    return HamiltonianSpace(
        name=name,
        algebra=algebra,
        chart_id=name,
        ambient_dim=dim,
        omega=omega,
        omega_matrix=MatConst(om),
        action=action,
        moment_star=moment,
        metric=MatConst(np.eye(dim)),
        sample_box=sample_box,
        action_sampler=action_sampler,
        radial=radial,
    )


def _weighted_cn_u1(n: int, weights, a: float, name: str) -> HamiltonianSpace:
    """U(1) on C^n with integer weights w_j: counterclockwise rotation with
    weight w_j in each plane, mu* = (sum_j w_j |z_j|^2 - a)/2."""
    if n < 1:
        raise InputError("n must be >= 1")
    if a <= 0:
        raise InputError("the moment level shift a must be positive")
    if len(weights) != n or any(w == 0 for w in weights):
        raise InputError("weights must be n nonzero integers")
    half = np.repeat([math.sqrt(max(2.0 * a, 2.0) / abs(w)) for w in weights], 2)
    return _linear_space(
        name, builtin_algebra("u1"), [_realify(np.diag(1j * np.array(weights)))],
        (-a / 2.0,), RadialMoment.of_weights(weights, a), np.stack([-half, half], axis=1),
    )


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _c2_su2() -> HamiltonianSpace:
    """SU(2) on C^2 through the generators -i sigma_a / 2."""
    return _linear_space(
        "c2_su2", builtin_algebra("su2"), [_realify(-0.5j * p) for p in _PAULI],
        (0.0,) * 3,
        # |mu| = (|z_1|^2 + |z_2|^2) / 4
        RadialMoment((1, 1), 0.0, 0.5),
        np.stack([-1.5 * np.ones(4), 1.5 * np.ones(4)], axis=1),
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


def _so3_log(rot: np.ndarray) -> np.ndarray:
    """The principal logarithm of each rotation in the (N, 3, 3) stack
    rot, as the axial vector phi n of log R = phi [n]_x (phi in [0, pi]),
    by the axis-angle formula.  With cos phi = (tr R - 1)/2 and a the
    axial vector of (R - R^T)/2, a = sin(phi) n:

    * cos phi > 0: phi n = (phi / sin phi) a, where phi / sin phi =
      asin(s)/s, s = |a|, comes from its series below s = 1e-3;
    * cos phi <= 0: a loses n as phi -> pi, so n comes from the
      symmetric part, (R + R^T)/2 - cos(phi) I = (1 - cos phi) n n^T,
      by its column of largest diagonal entry, signed along a."""
    a = 0.5 * np.stack(
        [rot[:, 2, 1] - rot[:, 1, 2], rot[:, 0, 2] - rot[:, 2, 0],
         rot[:, 1, 0] - rot[:, 0, 1]], axis=1,
    )
    s = np.sqrt(np.sum(a * a, axis=1))
    c = 0.5 * (np.trace(rot, axis1=1, axis2=2) - 1.0)
    phi = np.arctan2(s, c)
    ratio = 1.0 + s * s / 6.0 + 3.0 * s**4 / 40.0
    bulk = s >= 1e-3
    ratio[bulk] = phi[bulk] / s[bulk]
    out = ratio[:, None] * a
    wide = np.flatnonzero(c <= 0.0)
    if len(wide):
        sym = 0.5 * (rot[wide] + np.swapaxes(rot[wide], 1, 2))
        sym -= c[wide, None, None] * np.eye(3)
        k = np.argmax(np.diagonal(sym, axis1=1, axis2=2), axis=1)
        rows = np.arange(len(wide))
        n = sym[rows, :, k] / np.sqrt((1.0 - c[wide]) * sym[rows, k, k])[:, None]
        n[np.sum(n * a[wide], axis=1) < 0.0] *= -1.0
        out[wide] = phi[wide, None] * n
    return out


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

    vec_pencil = MatAffine(
        _vec_as_first_column(m.beta, dg),
        {dg + i: _vec_as_first_column(kmat[:, i], dg) for i in range(dk)},
    )
    exp_ad = Expm(ad_theta)
    mu_g_mat = MatMul(exp_ad, vec_pencil)
    mu_G = tuple(mat_entry(mu_g_mat, a, 0) for a in range(dg))

    # the sampler takes logs on the group factor in closed form, which
    # needs Ad(G) to be abelian or SO(3): a nonabelian ad_c must be
    # antisymmetric 3 x 3, ad_c = [w_c]_x, and theta' = log @ inv(w)
    ad_stack = np.asarray(admats)
    abelian = not ad_stack.any()
    if not abelian:
        if dg != 3 or np.max(np.abs(ad_stack + np.swapaxes(ad_stack, 1, 2))) > 1e-12:
            raise InputError(
                f"{m.name}: a nonabelian group factor must have the adjoint "
                "action of su2 (antisymmetric 3 x 3 ad matrices)"
            )
        axial_to_theta = np.linalg.inv(ad_stack[:, [2, 0, 1], [1, 2, 0]])

    def chart_composition(left, right, rho):
        """The sampler of the action of exp(xi) that moves the group factor
        e^theta -> e^L e^theta e^R, with L = xi @ left and R = xi @ right
        in g, fixes nu and moves x by exp(sum_i xi_i rho_i):

            theta' = log(e^{ad L} e^{ad theta} e^{ad R}),
            d theta' = Texp(ad theta')^{-1} e^{-ad R} Texp(ad theta) d theta."""

        def sampler(xi, pts):
            xi = np.asarray(xi, dtype=float).reshape(len(left))
            lv, rv = xi @ left, xi @ right
            new_pts, jac = pts.copy(), np.zeros((len(pts), n, n))
            jac[:, dg : dg + dk, dg : dg + dk] = np.eye(dk)
            if abelian:
                new_pts[:, :dg] = pts[:, :dg] + lv + rv
                jac[:, :dg, :dg] = np.eye(dg)
            else:
                ad_l, ad_r = np.tensordot([lv, rv], ad_stack, axes=1)
                e_l, e_r, e_neg_r = _batched_expm(np.stack([ad_l, ad_r, -ad_r]))
                cache: dict = {}
                moved = e_l @ exp_ad.eval(pts, cache) @ e_r
                new_pts[:, :dg] = _so3_log(moved) @ axial_to_theta
                jac[:, :dg, :dg] = np.linalg.solve(
                    big_t.eval(new_pts), e_neg_r @ big_t.eval(pts, cache)
                )
            if dx:
                x_rot = _batched_expm(np.tensordot(xi, rho, axes=1))
                new_pts[:, dg + dk :] = pts[:, dg + dk :] @ x_rot.T
                jac[:, dg + dk :, dg + dk :] = x_rot
            return new_pts, jac

        return sampler

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
        action_sampler=chart_composition(
            np.eye(dg), np.zeros((dg, dg)), np.zeros((dg, dx, dx))
        ),
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
            action_sampler=chart_composition(np.zeros((dh, dg)), m.h_basis, m.rho),
        )

    return StandardModelSpaces(space_G, space_H, m)


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


def _weighted_family(n: int, weights, a: float) -> HamiltonianSpace:
    weights = (1,) * n if weights is None else weights
    wtag = ",".join(str(w) for w in weights)
    return _weighted_cn_u1(n, weights, a, f"weighted_cn_u1({n},({wtag}),{a:g})")


def _standard_model(preset: str, which: str) -> HamiltonianSpace:
    spaces = build_standard_model(_standard_preset(preset))
    if which.upper() == "G":
        return spaces.space_G
    if which.upper() == "H":
        if spaces.space_H is None:
            raise InputError(f"preset {preset!r} has a trivial H")
        return spaces.space_H
    raise InputError("which must be 'G' or 'H'")


_KINDS = {int: "an integer", float: "a finite number", tuple: "a tuple of integers",
          str: "a name"}


def _convert(family: str, param: str, kind: type, value):
    """``value`` as a catalog parameter of ``kind`` (a key of _KINDS);
    InputError naming the parameter otherwise."""
    if kind is tuple and isinstance(value, (tuple, list, np.ndarray)):
        return tuple(_convert(family, param, int, v) for v in value)
    if kind is str and isinstance(value, str):
        return value
    if kind in (int, float):
        try:
            x = float(value)
        except (TypeError, ValueError):
            x = math.nan
        if math.isfinite(x) and (kind is float or x == int(x)):
            return kind(x)
    raise InputError(f"{family}: {param} must be {_KINDS[kind]}, got {value!r}")


# family: (builder, its parameters in order as (name, kind, default), the
# instances every structural test sweeps over)
_FAMILIES = {
    "cn_u1": (
        lambda n, a: _weighted_cn_u1(n, (1,) * n, a, f"cn_u1({n},{a:g})"),
        (("n", int, 1), ("a", float, 1.0)),
        ("cn_u1(1,1)", "cn_u1(2,1)"),
    ),
    "weighted_cn_u1": (
        _weighted_family,
        (("n", int, 2), ("weights", tuple, None), ("a", float, 1.0)),
        ("weighted_cn_u1(2,(1,2),1)",),
    ),
    "c2_su2": (_c2_su2, (), ("c2_su2",)),
    "standard_model": (
        _standard_model,
        (("preset", str, "u1_w1"), ("which", str, "G")),
        ("standard_model(u1_w1,G)", "standard_model(u1_w1,H)",
         "standard_model(u1_beta,G)", "standard_model(su2_hopf,G)",
         "standard_model(su2_hopf,H)"),
    ),
}


def catalog(name: str, **params) -> HamiltonianSpace:
    """Named example spaces:
    cn_u1(n, a), weighted_cn_u1(n, weights, a), c2_su2,
    standard_model(preset, which='G'|'H').  A parameter left out takes its
    default; InputError for an unknown name, a parameter the family does
    not take, or a value of the wrong kind."""
    if name not in _FAMILIES:
        raise InputError(f"unknown catalog space {name!r}")
    build, spec, _ = _FAMILIES[name]
    names = [p for p, _, _ in spec]
    for p in params:
        if p not in names:
            raise InputError(f"{name} takes no parameter {p!r}")
    return build(*[
        _convert(name, p, kind, params[p]) if p in params else default
        for p, kind, default in spec
    ])


def catalog_from_string(text: str) -> HamiltonianSpace:
    """Parse forms like cn_u1(2, 1.0), weighted_cn_u1(2, (1,2), 1.0),
    c2_su2, standard_model(u1_w1, G): the family's parameters in order (a
    bare word is a name), trailing ones left out take their defaults."""
    try:
        tree = ast.parse(text.strip(), mode="eval").body
        if isinstance(tree, ast.Call) and isinstance(tree.func, ast.Name) and not tree.keywords:
            args = [a.id if isinstance(a, ast.Name) else ast.literal_eval(a) for a in tree.args]
        elif not isinstance(tree, ast.Name):
            raise ValueError
    except (SyntaxError, ValueError):
        raise InputError(f"malformed catalog name {text!r}") from None
    if isinstance(tree, ast.Name):
        return catalog(tree.id)
    head = tree.func.id
    if head not in _FAMILIES:
        raise InputError(f"unknown catalog space {text!r}")
    spec = _FAMILIES[head][1]
    if len(args) > len(spec):
        raise InputError(
            f"{head} takes ({', '.join(p for p, _, _ in spec)}), got {len(args)} arguments"
        )
    return catalog(head, **{p: v for (p, _, _), v in zip(spec, args)})


def catalog_names_for_validation():
    """The instances every structural test sweeps over, as (name, builder)."""
    return [
        (text, functools.partial(catalog_from_string, text))
        for _, _, instances in _FAMILIES.values()
        for text in instances
    ]
