"""Critical sets of |mu|^2, located as zeros of the vector field V mu*.

d|mu|^2 = 2 <d mu*, mu*> = omega _| V mu*, and omega is nondegenerate, so
the critical points of |mu|^2 are exactly the zeros of V mu* (equivalently
of the one-form lambda).  The minimizer therefore descends
f(p) = ||V_p mu*||^2, whose global minima are precisely the critical set,
instead of tracking saddles of |mu|^2 itself.

Each located component carries a local description around a base point p:
the tangent data splits into orbit directions, the moment-transverse
directions, and the symplectic slice X; with beta = mu*(p) and
<Q_x, phi> = (1/2) omega(x, phi x) for phi in the stabilizer algebra h,
the component coincides near p with the orbit of
Z = {x in X : beta x = 0, Q_x = 0}, and every other solution of
(beta + Q_x) x = 0 keeps |Q_x| >= min_alpha beta_alpha, the smallest
positive singular value of the beta-action on X.  local_model_check
verifies both statements numerically.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fields import column
from .hamspace import HamiltonianSpace
from .liealg import REGULAR_MARGIN, InputError, NonConvergenceError, NotRegularError, _check_real

_log = logging.getLogger(__name__)

__all__ = [
    "CriticalComponent",
    "find_critical_points",
    "critical_probes",
    "critical_values",
    "local_model_check",
]

CONVERGED_F = 1e-16          # ||V mu*||^2 below this counts as critical
VALUE_GROUP_TOL = 1e-6       # critical values closer than this are equal
CLUSTER_RADIUS = 1e-2        # chart distance that chains a component
MAX_REPRESENTATIVES = 16     # representative points kept per component
MIN_VALUE_GAP = 1e-4         # distinct critical values must be this far apart
GD_HANDOFF = 0.5             # a gradient step keeping more of f than this
                             # share hands the seed to Gauss-Newton
BOOST_RATIO_AGREE = 0.02     # a multiplicity step needs two step ratios
BOOST_RATIO_WINDOW = (0.45, 0.95)  # this close, in this window, and a
BOOST_F_FIT = 0.25           # drop of f within this of rho^(2p) in log
LOCAL_RADIUS = 0.2           # local_model_check: representatives this near p
LOCAL_MODEL_TOL = 1e-6       # local_model_check: its residual floor


@dataclass(frozen=True)
class CriticalComponent:
    """One connected component of the critical set of |mu|^2.

    representative_points samples the component (a single point when the
    component is isolated); critical_value is the common |mu|^2 value;
    beta_star is mu* at the base representative (determined up to the
    adjoint orbit); tolerance is the residual bound the representatives
    achieve, max(||V mu*||, value spread / 10)."""

    representative_points: np.ndarray
    critical_value: float
    moment_norm: float
    beta_star: np.ndarray
    tolerance: float
    n_converged: int = 0

    def __post_init__(self):
        if self.critical_value < 0 and self.critical_value > -1e-12:
            object.__setattr__(self, "critical_value", 0.0)
        if self.critical_value < 0:
            raise InputError("critical_value must be nonnegative")

    def to_json_dict(self) -> dict:
        return {
            "critical_value": self.critical_value,
            "moment_norm": self.moment_norm,
            "beta_star": list(self.beta_star),
            "tolerance": self.tolerance,
            "n_converged": self.n_converged,
            "representative_points": self.representative_points.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# field and Jacobian evaluation
# ---------------------------------------------------------------------------


def _eval_grid(grid, pts: np.ndarray) -> np.ndarray:
    """The R x C nested sequence of Exprs ``grid`` at the (N, d) points,
    as an (N, R, C) array, with one evaluation cache."""
    cache: dict = {}
    out = np.empty((len(pts), len(grid), len(grid[0])))
    for r, row in enumerate(grid):
        for c, expr in enumerate(row):
            out[:, r, c] = column(expr, pts, cache)
    return out


def _vfield_and_jacobian(space: HamiltonianSpace):
    comps = space.v_mu_star_exprs()
    d = space.ambient_dim
    jac = [[comps[j].diff(i) for i in range(d)] for j in range(d)]

    def f_eval(pts):
        return _eval_grid((comps,), pts)[:, 0]

    def j_eval(pts):
        return _eval_grid(jac, pts)

    return f_eval, j_eval


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


def _descend(f_eval, j_eval, x, max_gd=120, max_newton=50, stats=None):
    """Vectorized descent of f = ||F||^2 from the rows of x.  Returns
    (points, f values).

    Every seed runs two phases, and each phase evaluates F and its
    Jacobian only at the seeds still in it.

    Gradient phase: steepest descent with Armijo backtracking, at most
    max_gd steps.  A seed leaves it once f < 1e-18, when it cannot move
    (its gradient vanishes, or 30 halvings of its step find no Armijo
    decrease), or when its accepted step keeps more than GD_HANDOFF of f
    (the descent has slowed down).

    Gauss-Newton phase: at most max_newton Levenberg-Marquardt steps for
    every seed with f >= 1e-28, solving
    (J^T J + lam * max diag(J^T J) * I) dx = -J^T F.  Scaling the damping
    by J^T J keeps lam dimensionless, so the steps stay Newton-like at a
    degenerate zero, where J^T J shrinks like a power of the distance.  lam
    starts at 1e-6, falls 3x after a step that does not raise f (floor
    1e-14) and grows 10x after one that does; a step is retried up to 12
    times per Jacobian.

    Multiplicity steps.  Near a zero where F is homogeneous of degree p,
    the Gauss-Newton step is -(x - x*)/p, so the accepted steps shrink by
    the constant ratio rho = (p - 1)/p and f drops by rho^(2p) per step:
    linear convergence.  A seed whose last two step ratios agree within
    BOOST_RATIO_AGREE, lie in BOOST_RATIO_WINDOW, and whose last drop of f
    fits rho^(2p) (log ratio within BOOST_F_FIT of 2p, p = round(1/(1 -
    rho))) first tries Schroeder's step x + p dx with the same dx.  It
    keeps that step when f does not rise (and resets its ratio history);
    otherwise the plain step runs under the rules above.  Seeds that never
    qualify take exactly the plain steps.

    When ``stats`` is a dict, it receives "newton_iterations" (Jacobians
    evaluated in the Gauss-Newton phase), "boosted_seeds" (seeds that kept
    a multiplicity step) and "orders" (the sorted distinct p of those
    steps)."""
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
        fast = f[moved] <= GD_HANDOFF * f_before[accepted]
        active = moved[fast & (f[moved] >= 1e-18)]

    lam = np.full(len(x), 1e-6)
    eye = np.eye(x.shape[1])
    # per seed: norm of the last accepted plain step, the ratio of the
    # last two, and the order p of a qualifying seed (0: plain steps only)
    step = np.full(len(x), np.nan)
    ratio = np.full(len(x), np.nan)
    order = np.zeros(len(x), dtype=int)
    boosted = np.zeros(len(x), dtype=bool)
    orders_kept: set[int] = set()
    n_newton = 0
    for _ in range(max_newton):
        active = np.nonzero(f >= 1e-28)[0]
        if len(active) == 0:
            break
        n_newton += 1
        J = j_eval(x[active])
        jtj = np.einsum("nji,njk->nik", J, J)
        rhs = -np.einsum("nji,nj->ni", J, F[active])
        scale = np.max(np.diagonal(jtj, axis1=1, axis2=2), axis=1)
        scale[scale == 0.0] = 1.0  # J = 0: keep the damped system regular
        pending = np.arange(len(active))
        for attempt in range(12):
            idx = active[pending]
            damp = (lam[idx] * scale[pending])[:, None, None] * eye
            try:
                dx = np.linalg.solve(
                    jtj[pending] + damp, rhs[pending][..., None]
                )[..., 0]
            except np.linalg.LinAlgError:
                lam[idx] *= 10.0
                continue
            boost = np.flatnonzero(order[idx]) if attempt == 0 else ()
            if len(boost):
                rows = idx[boost]
                trial = x[rows] + order[rows, None] * dx[boost]
                Ft = f_eval(trial)
                ft = np.sum(Ft * Ft, axis=1)
                ok = ft <= f[rows]
                new = rows[ok]
                x[new] = trial[ok]
                f[new] = ft[ok]
                F[new] = Ft[ok]
                lam[new] = np.maximum(lam[new] / 3.0, 1e-14)
                orders_kept.update(order[new].tolist())
                boosted[new] = True
                step[new] = ratio[new] = np.nan
                order[new] = 0
                plain = np.ones(len(idx), dtype=bool)
                plain[boost[ok]] = False
                pending, idx, dx = pending[plain], idx[plain], dx[plain]
                if len(pending) == 0:
                    break
            trial = x[idx] + dx
            Ft = f_eval(trial)
            ft = np.sum(Ft * Ft, axis=1)
            ok = ft <= f[idx]
            new = idx[ok]
            norm = np.sqrt(np.sum(dx[ok] ** 2, axis=1))
            rho, order[new] = _multiplicity(norm, step[new], ratio[new],
                                            f[new], ft[ok])
            step[new], ratio[new] = norm, rho
            x[new] = trial[ok]
            f[new] = ft[ok]
            F[new] = Ft[ok]
            lam[new] = np.maximum(lam[new] / 3.0, 1e-14)
            lam[idx[~ok]] *= 10.0
            pending = pending[~ok]
            if len(pending) == 0:
                break
    if stats is not None:
        stats.update(newton_iterations=n_newton,
                     boosted_seeds=int(np.sum(boosted)),
                     orders=sorted(orders_kept))
    return x, f


def _multiplicity(norm, prev_norm, prev_ratio, f_old, f_new):
    """For accepted plain steps of the given norms (the previous ones had
    prev_norm and ratio prev_ratio, nan when unknown) that took f from
    f_old > 0 to f_new: the step ratios rho (nan where undefined) and the
    multiplicity p of each seed that now qualifies for a multiplicity
    step, 0 elsewhere (see _descend).  Divides by no zero and takes no log
    of zero."""
    valid = (prev_norm > 0.0) & (f_new > 0.0)  # False where nan
    rho = np.full(len(norm), np.nan)
    rho[valid] = norm[valid] / prev_norm[valid]
    lo, hi = BOOST_RATIO_WINDOW
    steady = np.nonzero(
        (np.abs(rho - prev_ratio) <= BOOST_RATIO_AGREE)
        & (rho >= lo) & (rho <= hi)
    )[0]
    p = np.rint(1.0 / (1.0 - rho[steady]))
    fit = np.log(f_new[steady] / f_old[steady]) / np.log(rho[steady])
    fits = np.abs(fit - 2.0 * p) <= BOOST_F_FIT
    order = np.zeros(len(norm), dtype=int)
    order[steady[fits]] = p[fits]
    return rho, order


# ---------------------------------------------------------------------------
# Sobol' seeds
# ---------------------------------------------------------------------------

# Joe-Kuo direction numbers (new-joe-kuo-6.21201, the table SciPy's
# scipy.stats.qmc.Sobol reads) for dimensions 2..32: the primitive
# polynomial as a bit mask, leading and trailing coefficients included
# (degree s = bit length - 1), and the initial numbers m_1..m_s.  The
# first dimension is van der Corput's: every m_j is 1.
_SOBOL_TABLE = (
    (3, (1,)),
    (7, (1, 3)),
    (11, (1, 3, 1)),
    (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)),
    (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)),
    (47, (1, 1, 7, 11, 19)),
    (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)),
    (61, (1, 3, 5, 5, 31)),
    (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)),
    (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)),
    (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)),
    (143, (1, 1, 3, 13, 7, 35, 63)),
    (145, (1, 3, 5, 9, 1, 25, 53)),
    (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)),
    (171, (1, 1, 5, 11, 19, 41, 61)),
    (185, (1, 3, 5, 3, 3, 13, 69)),
    (191, (1, 1, 7, 13, 1, 19, 1)),
    (193, (1, 3, 7, 5, 13, 19, 59)),
    (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)),
    (213, (1, 3, 7, 3, 13, 59, 17)),
)
SOBOL_MAX_DIM = len(_SOBOL_TABLE) + 1
_SOBOL_BITS = 30


@functools.lru_cache(maxsize=None)
def _sobol_directions(d: int) -> np.ndarray:
    """The (d, 30) direction numbers v_j = m_j 2^(30 - j), j = 1..30, of
    the first d dimensions (Bratley-Fox recurrence).  Read-only."""
    bits = _SOBOL_BITS
    m = np.ones((d, bits), dtype=np.int64)
    for k, (poly, init) in enumerate(_SOBOL_TABLE[: d - 1], start=1):
        s = len(init)
        m[k, :s] = init
        for j in range(s, bits):
            new = m[k, j - s]
            for i in range(1, s + 1):
                if (poly >> (s - i)) & 1:
                    new ^= m[k, j - i] << i
            m[k, j] = new
    v = m << (bits - 1 - np.arange(bits))
    v.flags.writeable = False
    return v


class _Sobol:
    """Scrambled Sobol' points in [0, 1)^d, bit for bit those of SciPy's
    ``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed)`` drawn with
    ``random_base2``: 30-bit Joe-Kuo directions, a random lower-triangular
    linear matrix scramble of each dimension's direction numbers and a
    random digital shift, drawn from ``np.random.default_rng(seed)`` in
    SciPy's order (shift bits first).  Successive draws continue the
    sequence in Gray-code order."""

    def __init__(self, d: int, seed: int):
        if not 1 <= d <= SOBOL_MAX_DIM:
            raise InputError(
                f"Sobol' seeds need 1 <= dimension <= {SOBOL_MAX_DIM}, got {d}"
            )
        bits = _SOBOL_BITS
        rng = np.random.default_rng(seed)
        shift = rng.integers(2, size=(d, bits), dtype=np.uint32)
        ltm = np.tril(rng.integers(2, size=(d, bits, bits), dtype=np.uint32))
        ltm[:, np.arange(bits), np.arange(bits)] = 1
        # one GF(2) product: bit p (from the top) of each scrambled
        # direction number is sum_i ltm[p, i] * bit i of the direction
        top = bits - 1 - np.arange(bits)
        vbits = (_sobol_directions(d)[:, None, :] >> top[:, None]) & 1
        sbits = (ltm.astype(np.int64) @ vbits) & 1
        self._v = np.sum(sbits << top[:, None], axis=1)          # (d, bits)
        self._point = shift.astype(np.int64) @ (1 << np.arange(bits))
        self._n = 0

    def random_base2(self, m: int) -> np.ndarray:
        """The next 2^m points, (2^m, d)."""
        n = 1 << m
        if self._n + n > 1 << _SOBOL_BITS:
            raise InputError(f"at most 2^{_SOBOL_BITS} Sobol' points")
        # point k is point k - 1 xor the direction of the lowest set bit of
        # k; a fresh sequence starts at the shift (point 0)
        k = np.arange(max(self._n, 1), self._n + n)
        low = np.frexp(k & -k)[1] - 1
        steps = np.concatenate([self._point[None, :], self._v[:, low].T])
        pts = np.bitwise_xor.accumulate(steps, axis=0)
        if self._n:
            pts = pts[1:]
        self._point = pts[-1]
        self._n += n
        return pts * 2.0 ** -_SOBOL_BITS


def _sobol_seeds(space: HamiltonianSpace, r_max: float, n_seeds: int, seed: int):
    """Low-discrepancy starts inside M_{r_max}: scrambled Sobol' points of
    the sample box (_Sobol, SciPy's sequence; at most SOBOL_MAX_DIM = 32
    dimensions), kept where |mu|^2 <= r_max."""
    d = space.ambient_dim
    lo, hi = space.sample_box[:, 0], space.sample_box[:, 1]
    sampler = _Sobol(d, seed)
    mu2 = space.mu_norm2_expr()
    kept = []
    n_kept = 0
    # Sobol' points keep their balance only in power-of-2 totals, so the
    # first draw is the next power of 2 >= max(2 n_seeds, 64) and each
    # later draw doubles the total, up to 16 times the first draw.
    m = (max(2 * n_seeds, 64) - 1).bit_length()
    for k in range(5):
        draw = lo + (hi - lo) * sampler.random_base2(m + max(k - 1, 0))
        cache: dict = {}
        vals = column(mu2, draw, cache)
        inside = draw[vals <= r_max]
        if space.chart_radius < math.inf:
            inside = inside[
                np.linalg.norm(inside, axis=1) < space.chart_radius
            ]
        kept.append(inside)
        n_kept += len(inside)
        if n_kept >= n_seeds:
            break
    pts = np.concatenate(kept) if kept else np.empty((0, d))
    return pts[:n_seeds]


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------


def _dedupe(pts: np.ndarray, f: np.ndarray, resolution: float = 1e-7):
    """Collapse near-identical converged points (many seeds land on the
    same zero to machine precision), keeping the best residual of each
    cell (the earliest point on ties) and its multiplicity.  Returns the
    kept rows of pts and f, their multiplicities and their indices into
    pts.  Cells come in the order of their first point."""
    keys = np.round(pts / resolution).astype(np.int64)
    _, first, cell, mult = np.unique(
        keys, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    cell = cell.reshape(-1)
    # within each cell: smallest f, then smallest index
    ranked = np.lexsort((np.arange(len(pts)), f, cell))
    heads = np.flatnonzero(np.diff(cell[ranked], prepend=-1))
    by_first = np.argsort(first)
    idx = ranked[heads][by_first]
    return pts[idx], f[idx], mult[by_first], idx


_BLOCK_ENTRIES = 1 << 15     # distance-matrix entries built per row block


def _distance_matrix(pts: np.ndarray) -> np.ndarray:
    """The (n, n) Euclidean distances between the rows of pts, with
    SciPy pdist's arithmetic (the square root of the per-coordinate
    squares summed in coordinate order).  Built in row blocks of about
    _BLOCK_ENTRIES entries, each from the diagonal rightwards and copied
    below the diagonal: (x_i - x_j)^2 = (x_j - x_i)^2 bit for bit."""
    n, d = pts.shape
    cols = np.ascontiguousarray(pts.T)
    dist = np.empty((n, n))
    rows = max(1, _BLOCK_ENTRIES // n)
    tmp = np.empty(rows * n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        block = dist[lo:hi, lo:]
        t = tmp[: block.size].reshape(block.shape)
        for k in range(d):
            np.subtract(cols[k, lo:hi, None], cols[k, None, lo:], out=t)
            if k == 0:
                np.multiply(t, t, out=block)
            else:
                np.multiply(t, t, out=t)
                block += t
        np.sqrt(block, out=block)
        dist[lo:, lo:hi] = block.T
    return dist


def _mst_lengths(dist: np.ndarray) -> np.ndarray:
    """The edge lengths of a minimum spanning tree of the complete graph
    with edge lengths dist, ascending: Prim's algorithm, which keeps the
    vertices not yet in the tree in the first m slots of ``rest`` and
    their distances to the tree in ``best``."""
    n = len(dist)
    rest = np.arange(1, n)
    best = dist[0, 1:].copy()
    lengths = np.empty(n - 1)
    for m in range(n - 2, -1, -1):
        j = best[: m + 1].argmin()
        lengths[m] = best[j]
        v = rest[j]
        rest[j] = rest[m]   # the last slot fills the one that leaves
        best[j] = best[m]
        np.minimum(best[:m], dist[v].take(rest[:m]), out=best[:m])
    lengths.sort()
    return lengths


def _mst_clusters(pts: np.ndarray, cluster_radius: float, jump: float = 4.0):
    """Single-linkage clustering with a scale-jump cut.

    Edges of the minimum spanning tree are sorted; the tree is cut at the
    first edge that exceeds cluster_radius AND jumps by more than
    ``jump``x over the previous scale (seeded at cluster_radius), and at
    every longer edge.  A continuum component sampled at finite density
    has a smoothly varying edge spectrum and survives intact; genuinely
    separate components are bridged by an edge an order of magnitude
    longer and get cut.  Groups come in ascending order of their smallest
    index.

    The single-linkage merge heights are the MST edge lengths, and every
    MST has the same lengths and the same components below any cut, so
    ties between distances do not change the groups: a group is a
    connected component of the graph of the distances below the cut."""
    n = len(pts)
    if n == 1:
        return [[0]], None
    dist = _distance_matrix(pts)
    lengths = _mst_lengths(dist)
    # sorted lengths: the previous scale is the last length below, or the radius
    prev = np.maximum(np.concatenate([[cluster_radius], lengths[:-1]]), cluster_radius)
    fires = np.flatnonzero((lengths > cluster_radius) & (lengths > jump * prev))
    if len(fires) == 0:
        return [list(range(n))], None
    cut_at = float(lengths[fires[0]])
    group = np.full(n, -1)
    groups = []
    while (free := np.flatnonzero(group < 0)).size:
        frontier = free[:1]
        group[frontier] = len(groups)
        while frontier.size:
            near = (dist[frontier] < cut_at).any(axis=0) & (group < 0)
            frontier = np.flatnonzero(near)
            group[frontier] = len(groups)
        groups.append(np.flatnonzero(group == len(groups)).tolist())
    return groups, cut_at


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def find_critical_points(space: HamiltonianSpace, r_max: float) -> list[CriticalComponent]:
    """Locate the critical components of |mu|^2 inside M_{r_max}.

    256 quasi-random starts per chart coordinate descend f = ||V mu*||^2
    in two per-seed phases: backtracking gradient steps until a step no
    longer halves f, then Levenberg-Marquardt steps on V mu* = 0 with the
    damping scaled by the largest diagonal entry of J^T J, until
    f < 1e-28 (see _descend).  A seed whose steps shrink by a steady
    ratio rho, with f dropping as a degree-p zero predicts
    (rho = (p - 1)/p), first tries the multiplicity-scaled step x + p dx,
    so the degenerate c2_su2 origin needs 4 Gauss-Newton iterations.  A seed stops being evaluated as soon
    as it leaves a phase, so converged seeds cost nothing.  Points with
    f < 1e-16 are grouped by critical value, chained by chart distance
    (single linkage with a scale-jump cut) into components, and sorted by
    critical value.

    Raises InputError unless r_max is positive and finite, and when the
    chart has more than SOBOL_MAX_DIM = 32 coordinates.  Raises
    NotRegularError when a seed converges to a critical value within
    REGULAR_MARGIN of r_max, below or above it (r_max must be regular).
    Returns [] with a warning when no seed converges.  One DEBUG record
    on the "symloc.critical" logger gives the Gauss-Newton iterations,
    the seeds that kept a multiplicity step and their orders p."""
    _check_real("r_max", r_max)
    if not 0 < r_max < math.inf:
        raise InputError("r_max must be positive and finite")
    starts = _sobol_seeds(space, r_max, 256 * space.ambient_dim, 0)
    if len(starts) == 0:
        warnings.warn(
            f"no seeds landed in M_r(r_max={r_max:g}) of {space.name}; "
            "is the sample box compatible with r_max?"
        )
        return []

    f_eval, j_eval = _vfield_and_jacobian(space)
    stats: dict = {}
    pts, f = _descend(f_eval, j_eval, starts, stats=stats)
    _log.debug(
        "critical search on %s (r_max=%g): %d seeds, %d Gauss-Newton "
        "iterations, %d seeds took multiplicity steps (p in %s)",
        space.name, r_max, len(starts), stats["newton_iterations"],
        stats["boosted_seeds"], stats["orders"],
    )
    conv = f < CONVERGED_F
    if not np.any(conv):
        warnings.warn(
            f"no seed converged to a zero of V mu* on {space.name} "
            f"(best residual^2 {np.min(f):.3g})"
        )
        return []
    pts, f = pts[conv], f[conv]

    cache: dict = {}
    mu2 = column(space.mu_norm2_expr(), pts, cache)
    # r_max must be regular on both sides: the margin is checked before the
    # points above r_max leave
    near = np.abs(mu2 - r_max) < REGULAR_MARGIN
    if np.any(near):
        value = float(np.min(mu2[near]))
        raise NotRegularError(
            f"critical value {value if value >= 1e-9 else 0.0:.6g} lies within "
            f"{REGULAR_MARGIN:g} of r_max = {r_max:g}; choose a regular r_max"
        )
    inside = mu2 <= r_max + 1e-9
    pts, f, mu2 = pts[inside], f[inside], mu2[inside]
    if len(pts) == 0:
        warnings.warn(f"all converged points left M_r(r_max={r_max:g})")
        return []

    # group by critical value, then chain by chart distance
    order = np.lexsort((pts[:, 0] if pts.shape[1] else mu2, mu2))
    pts, f, mu2 = pts[order], f[order], mu2[order]
    breaks = np.nonzero(np.diff(mu2) > VALUE_GROUP_TOL)[0] + 1
    components = []
    for chunk in np.split(np.arange(len(pts)), breaks):
        sub, subf, mult, kept = _dedupe(pts[chunk], f[chunk])
        subv = mu2[chunk][kept]
        clusters, _ = _mst_clusters(sub, CLUSTER_RADIUS)
        for idx in clusters:
            idx = np.array(idx)
            cpts, cf, cv = sub[idx], subf[idx], subv[idx]
            # deterministic representatives: best residual first, then a
            # lexicographic, evenly thinned spread of the cluster
            best = int(np.argmin(cf))
            lex = np.lexsort(tuple(cpts[:, k] for k in range(cpts.shape[1])))
            lex = lex[lex != best]
            take = [best]
            if len(lex):
                thin = np.unique(
                    np.linspace(
                        0, len(lex) - 1,
                        min(MAX_REPRESENTATIVES - 1, len(lex)),
                    ).astype(int)
                )
                take += lex[thin].tolist()
            beta = space.eval_moment(cpts[best].reshape(1, -1))[0]
            value = float(np.median(cv))
            if value < 1e-9:  # zero value located to solver precision
                value = 0.0
            resid = float(np.sqrt(np.max(cf)))
            spread = float(np.max(cv) - np.min(cv))
            components.append(
                CriticalComponent(
                    representative_points=cpts[take],
                    critical_value=max(value, 0.0),
                    moment_norm=math.sqrt(max(value, 0.0)),
                    beta_star=beta,
                    tolerance=max(resid, spread / 10.0, 1e-14),
                    n_converged=int(np.sum(mult[idx])),
                )
            )

    components.sort(key=lambda c: c.critical_value)
    return components


def critical_values(components):
    """Deduplicated ascending critical values with suggested regular
    probes.

    Returns (values, probes) with the probes of critical_probes(values).
    Raises NonConvergenceError when two clusters sit closer than
    MIN_VALUE_GAP but are not identical within 1e-6."""
    vals = sorted(c.critical_value for c in components)
    dedup: list[float] = []
    for v in vals:
        if not dedup or v - dedup[-1] > VALUE_GROUP_TOL:
            dedup.append(v)
        # identical within grouping tolerance: merged silently
    for lo, hi in zip(dedup, dedup[1:]):
        if hi - lo < MIN_VALUE_GAP:
            raise NonConvergenceError(
                f"critical values {lo:.8g} and {hi:.8g} are closer than "
                f"{MIN_VALUE_GAP:g}; refine the clustering tolerance",
                report={"values": dedup},
            )
    return dedup, critical_probes(dedup)


def critical_probes(values) -> list:
    """Regular probe radii (below_i, above_i) straddling each of the
    distinct ascending critical values ``values`` at 0.4 of the
    neighboring gaps: below_0 is None when the smallest value is 0, and
    the last upper probe extends to 1.6x the top value (0.1 above a top
    value of 0)."""
    probes = []
    for i, v in enumerate(values):
        gap_below = v - values[i - 1] if i > 0 else v
        below = v - 0.4 * gap_below if gap_below > 0 else None
        if i + 1 < len(values):
            above = v + 0.4 * (values[i + 1] - v)
        else:
            above = 1.6 * v if v > 0 else 0.1
        probes.append((below, above))
    return probes


# ---------------------------------------------------------------------------
# local model
# ---------------------------------------------------------------------------


def _orthonormal_null(mat: np.ndarray, dim: int, cutoff: float = 1e-8):
    """Orthonormal basis of the null space of mat (rows act on R^dim),
    with singular values below the absolute cutoff treated as zero."""
    if mat.size == 0 or not np.any(mat):
        return np.eye(dim)
    _, s, vt = np.linalg.svd(mat)
    rank = int(np.sum(s > max(cutoff, 1e-12 * s[0])))
    return vt[rank:].T  # (dim, null_dim)


def _position_uncertainty(space, pts: np.ndarray, f_eval, j_eval) -> float:
    """First-order distance from the points to the true zero set of
    V mu*: the norm of the pseudo-inverse Newton step.  Degenerate
    critical points (cubic vanishing of the field) make this much larger
    than the residual itself."""
    F = f_eval(pts)
    J = j_eval(pts)
    worst = 0.0
    for k in range(len(pts)):
        step = np.linalg.lstsq(J[k], -F[k], rcond=1e-6)[0]
        worst = max(worst, float(np.linalg.norm(step)))
    return worst


def local_model_check(space: HamiltonianSpace, component: CriticalComponent) -> dict:
    """Verify the local description of a critical component around its
    base representative.

    Checks, at the base point p with beta = mu*(p) and stabilizer
    algebra h = {phi : V_phi(p) = 0}:

    * beta lies in h (V_beta(p) = 0);
    * representatives within LOCAL_RADIUS of p project into
      Z = {x in slice : beta x = 0, Q_x = 0};
    * every sampled other solution of (beta + Q_x) x = 0 on the slice
      keeps |Q_x| >= min_alpha beta_alpha, the smallest positive singular
      value of the beta-action (skipped when beta acts trivially), over
      64 sampled Newton solves.

    A residual passes below LOCAL_MODEL_TOL, or below a bound scaled by
    the representatives' position uncertainty when that is larger.
    """
    reps = np.asarray(component.representative_points, dtype=float)
    if reps.size == 0:
        raise InputError("component has no representative points")
    d = space.ambient_dim
    g = space.algebra.dim
    q = space.algebra.inner_product

    # Representatives carry a position uncertainty: at a degenerate
    # critical point the field vanishes to higher order, so a residual
    # ||V|| < 1e-8 may leave the point ~1e-3 from the true set.  Rank
    # decisions below must not mistake that offset for genuine structure.
    f_eval, j_eval = _vfield_and_jacobian(space)
    f_reps = np.sum(f_eval(reps) ** 2, axis=1)
    p0 = reps[int(np.argmin(f_reps))]
    pos_unc = _position_uncertainty(space, reps, f_eval, j_eval)
    rank_cut = max(1e-8, 50.0 * pos_unc)

    # the action, its Jacobians and d mu at p
    g_rows = space.action.components
    p_pt = p0.reshape(1, -1)
    S = _eval_grid(g_rows, p_pt)[0].T                  # (d, g): columns V_{e_a}(p)
    h_basis = _orthonormal_null(S, g, rank_cut)        # (g, h_dim)
    h_dim = h_basis.shape[1]
    beta = np.asarray(component.beta_star, dtype=float)
    beta_in_h = float(np.linalg.norm(S @ beta))

    # symplectic slice: kernel of d mu, orthogonal to the orbit directions
    dM = _eval_grid([[m.diff(i) for i in range(d)]
                     for m in space.mu_pairing_exprs()], p_pt)[0]  # (g, d)
    stack = np.vstack([dM, S.T])                       # null of both
    X = _orthonormal_null(stack, d, rank_cut)          # (d, slice_dim)
    slice_dim = X.shape[1]

    A = _eval_grid([[cj.diff(i) for i in range(d)] for row in g_rows for cj in row],
                   p_pt)[0].reshape(g, d, d)           # A[a, j, i] = d_i V_{e_a}^j
    A_h = np.einsum("ga,gjk->ajk", h_basis, A)         # (h_dim, d, d)
    omega_p = space.omega_matrix.eval(p_pt)[0]

    # does the h-action preserve the slice?
    proj = X @ X.T
    inv_resid = 0.0
    for k in range(h_dim):
        leak = (np.eye(d) - proj) @ A_h[k] @ X
        inv_resid = max(inv_resid, float(np.linalg.norm(leak)))

    b_action = np.einsum("a,ajk->jk", beta, A)         # beta on the ambient
    B = X.T @ b_action @ X                             # beta on the slice
    gram_h = h_basis.T @ q @ h_basis                   # inner product on h

    def q_components(x_slice):
        """q_b(x) = (1/2) omega(x, A_{h_b} x) in ambient coordinates."""
        xa = X @ x_slice
        return np.array(
            [0.5 * xa @ omega_p @ (A_h[b] @ xa) for b in range(h_dim)]
        )

    def q_norm(x_slice):
        if h_dim == 0:
            return 0.0
        qc = q_components(x_slice)
        return float(np.sqrt(max(qc @ np.linalg.solve(gram_h, qc), 0.0)))

    # membership of nearby representatives in Z, with tolerances scaled
    # by the position uncertainty (beta x is linear in the offset, Q_x
    # quadratic)
    n_checked = 0
    max_beta_x = 0.0
    max_qx = 0.0
    x_max = 0.0
    for rep in reps:
        delta = rep - p0
        if np.linalg.norm(delta) > LOCAL_RADIUS:
            continue
        x = X.T @ delta
        n_checked += 1
        x_max = max(x_max, float(np.linalg.norm(x)))
        max_beta_x = max(max_beta_x, float(np.linalg.norm(B @ x)))
        max_qx = max(max_qx, q_norm(x))
    b_scale = float(np.linalg.norm(B)) if slice_dim else 0.0
    beta_x_tol = max(LOCAL_MODEL_TOL, 10.0 * b_scale * pos_unc)
    qx_tol = max(LOCAL_MODEL_TOL, 10.0 * pos_unc * (pos_unc + x_max))

    # dimension probe of Z = {beta x = 0, Q_x = 0}: on the unit sphere of
    # ker(beta action), the smallest |Q_x| is 0 exactly when Z extends
    # beyond the origin
    z_min_q = None
    if slice_dim:
        kerB = _orthonormal_null(B, slice_dim, rank_cut)
        if kerB.shape[1] and h_dim:
            rng_probe = np.random.default_rng(7)
            probe = rng_probe.standard_normal((64, kerB.shape[1]))
            probe /= np.linalg.norm(probe, axis=1, keepdims=True)
            z_min_q = min(q_norm(kerB @ v) for v in probe)
        elif kerB.shape[1]:
            z_min_q = 0.0  # no stabilizer: Q vanishes identically on X

    # separation of all other solutions of (beta + Q_x) x = 0; only
    # meaningful when beta acts on the slice above the noise floor
    beta_norm_val = float(np.sqrt(beta @ q @ beta))
    sv = np.linalg.svd(B, compute_uv=False) if slice_dim else np.array([])
    positive = sv[sv > max(1e-10, rank_cut)]
    separation = None
    if len(positive) and h_dim and beta_norm_val > max(1e-8, 10.0 * pos_unc):
        min_weight = float(np.min(positive))
        A_h_slice = np.array([X.T @ A_h[b] @ X for b in range(h_dim)])

        def residual(x):
            qc = q_components(x)
            coeff = np.linalg.solve(gram_h, qc)
            act = B + np.einsum("b,bjk->jk", coeff, A_h_slice)
            return act @ x

        rng = np.random.default_rng(0)
        scale = float(np.max(np.abs(space.sample_box)))
        found = []
        for _ in range(64):
            x = rng.standard_normal(slice_dim)
            x *= scale * rng.random() / max(np.linalg.norm(x), 1e-12)
            for _ in range(60):
                F = residual(x)
                if np.linalg.norm(F) < 1e-12:
                    break
                J = np.empty((slice_dim, slice_dim))
                h = 1e-7 * max(1.0, np.linalg.norm(x))
                for i in range(slice_dim):
                    e = np.zeros(slice_dim)
                    e[i] = h
                    J[:, i] = (residual(x + e) - residual(x - e)) / (2 * h)
                try:
                    dx = np.linalg.lstsq(
                        J + 1e-9 * np.eye(slice_dim), -F, rcond=None
                    )[0]
                except np.linalg.LinAlgError:
                    break
                if np.linalg.norm(dx) > scale:
                    dx *= scale / np.linalg.norm(dx)
                x = x + dx
            if np.linalg.norm(residual(x)) < 1e-10:
                found.append(x)
        others = [
            x for x in found
            if np.linalg.norm(B @ x) > 1e-6 * max(np.linalg.norm(x), 1e-12)
            and np.linalg.norm(x) > 1e-8
        ]
        qx_vals = [q_norm(x) for x in others]
        separation = {
            "min_weight": min_weight,
            "n_solutions": len(found),
            "n_other": len(others),
            "min_qx_on_other": min(qx_vals) if qx_vals else None,
            "ok": all(v >= min_weight - 1e-7 for v in qx_vals),
        }

    ok = (
        beta_in_h < max(LOCAL_MODEL_TOL, 10.0 * pos_unc)
        and inv_resid < LOCAL_MODEL_TOL
        and max_beta_x < beta_x_tol
        and max_qx < qx_tol
        and (separation is None or separation["ok"])
    )
    return {
        "h_dim": h_dim,
        "slice_dim": slice_dim,
        "beta_norm": beta_norm_val,
        "beta_in_h_residual": beta_in_h,
        "slice_invariance_residual": inv_resid,
        "position_uncertainty": pos_unc,
        "z_membership": {
            "n_checked": n_checked,
            "max_beta_x_residual": max_beta_x,
            "max_qx_norm": max_qx,
            "beta_x_tol": beta_x_tol,
            "qx_tol": qx_tol,
        },
        "z_min_q_on_kernel_sphere": z_min_q,
        "separation": separation,
        "ok": bool(ok),
    }
