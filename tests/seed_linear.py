"""The hand-written linear catalog spaces, kept as references.

Before every linear catalog space was derived from its generator matrices
(hamspace._linear_space), cn_u1 and weighted_cn_u1 (_weighted_cn_space)
and c2_su2 (_c2_su2_space) each wrote omega, the action rows, the moment
map and an action sampler out by hand, and the rank-2 test space of
tests/test_integrate.py was written out the same way (seed_torus2_space).
The derived spaces must give the same repr for every Expr, equal matrices,
radial descriptor and sample box, and an action sampler within roundoff.
"""

import math

import numpy as np

from symloc.fields import MatConst, add, const, coord, mul
from symloc.forms import EquivariantForm, VectorFieldFamily
from symloc.hamspace import HamiltonianSpace, RadialMoment
from symloc.liealg import InputError, PhiPolynomial, builtin_algebra


def expr_reprs(space):
    """The repr of every Expr of omega, the action and mu*."""
    return (
        [(key, repr(c)) for key, c in sorted(space.omega.indexed_terms.items())],
        [[repr(c) for c in row] for row in space.action.components],
        [repr(m) for m in space.moment_star],
    )


def _expm_dense(a):
    from scipy.linalg import expm

    return expm(a)


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


def seed_torus2_space():
    """T^2 acting on C^2 by independent rotations; mu_j = (|z_j|^2 - a_j)/2."""
    algebra = builtin_algebra("torus(2)")
    chart = "t2_c2"
    omega = EquivariantForm(
        chart, 4, 2,
        [((0, 1), 1.0, PhiPolynomial.constant(2)),
         ((2, 3), 1.0, PhiPolynomial.constant(2))],
    )
    zero = const(0.0)
    action = VectorFieldFamily(
        chart,
        [
            [mul(const(-1.0), coord(1)), coord(0), zero, zero],
            [zero, zero, mul(const(-1.0), coord(3)), coord(2)],
        ],
    )
    mus = [
        add(mul(const(0.5), coord(0), coord(0)),
            mul(const(0.5), coord(1), coord(1)), const(-0.45)),
        add(mul(const(0.5), coord(2), coord(2)),
            mul(const(0.5), coord(3), coord(3)), const(-0.55)),
    ]
    om = np.zeros((4, 4))
    om[0, 1] = om[2, 3] = 1.0
    om[1, 0] = om[3, 2] = -1.0
    return HamiltonianSpace(
        name="t2_c2",
        algebra=algebra,
        chart_id=chart,
        ambient_dim=4,
        omega=omega,
        omega_matrix=MatConst(om),
        action=action,
        moment_star=mus,
        metric=MatConst(np.eye(4)),
        sample_box=np.array([[-1.2, 1.2]] * 4),
    )
