"""Basic-integral evaluation: exact Gaussian reduction in the algebra
variable, adaptive quadrature over the moment sublevel region M_r.

The object computed here is

    BI(alpha, r, t) = (1/K) * int_{M_r} int_g  alpha
                      * exp(omega + i mu.phi - eps/2 |phi|^2 + t D lambda) dphi,

K = group_volume * (2 pi)^{dim g}, over the region M_r = {|mu|^2 <= r}.
The phi-integral is never sampled: the exponent splits into a nilpotent
form part (omega + t d lambda), a phi-linear scalar part
i<mu* + t V*Vmu*, phi>, and the Gaussian -eps/2 |phi|^2, so each term of
alpha * exp(form part) reduces to a shifted Gaussian moment evaluated in
closed form through the Wick table.  Only the manifold integral is
numerical.

Quadrature over M_r is radial: it needs a space with a RadialMoment
(space.radial: |mu| depends only on the plane radii, through
s = sum_j w_j |z_j|^2), and refuses any other space with InputError.
The region is a slab in s; tensor Gauss-Legendre in the slab/simplex
coordinates times uniform angular grids (trapezoid is spectrally
accurate on periodic directions), with the order escalated until
consecutive refinements agree.  When the integrand's top-degree
coefficient is verified invariant under the torus of plane rotations
(see _torus_invariance), every angular grid collapses to the angle-0 ray
weighted by 2 pi per plane (Duistermaat-Heckman push-forward to the
moment image).

Each refinement level is one pass over a stream of pieces: blocks of
whole member grids, or the fixed-size chunks of a grid too large for one
block (_level_sums).  Each piece is evaluated once and reduced per member
with an exactly rounded math.fsum, and a member's piece sums are added in
order.

Basic Integrals of one (space, alpha) at many (r, eps, t) -- a t plateau,
a contribution's probes, an eps sweep -- share one integrand plan
(_IntegrandPlan: the form part is a polynomial in t, the shift affine in
t, and only the Gaussian moments depend on eps) and run as the members of
one radial quadrature (basic_integral_batch): each keeps its own support
panels, torus verdict, grids and stopping rule, while the work runs per
block of members: one support scan per distinct r, one torus probe for
all members, and per level one stacked grid, one Expr pass and one
contraction (with per-node t and eps) per block.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .fields import _Frozen, add, column, const, mul
from .forms import (
    EquivariantForm,
    _pullback,
    _sampled_sup,
    equivariant_D,
    exp_form_part,
    exterior_d,
    invariance_residual,
    wedge,
)
from .hamspace import HamiltonianSpace, RadialMoment, eta_exprs, lambda_form, sample_points
from .liealg import (
    REGULAR_MARGIN,
    WICK_DEGREE_CAP,
    AccuracyError,
    InputError,
    LieAlgebraSpec,
    NotRegularError,
    PhiPolynomial,
    _check_count,
    _check_real,
    _check_type,
    _logdet,
    _wick_table,
)

_log = logging.getLogger(__name__)

__all__ = [
    "QuadratureScheme",
    "SurfaceGrid",
    "IntegralResult",
    "BasicIntegralRequest",
    "BasicIntegralResult",
    "known_critical_values",
    "check_regular_radius",
    "boundary_surfaces",
    "integrate_form_on_surface",
    "boundary_integral",
    "sgi_values",
    "pairing_alpha",
    "check_alpha",
    "basic_integral",
    "basic_integral_batch",
]


# ---------------------------------------------------------------------------
# schemes and result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureScheme:
    """Descriptor for the radial M_r quadrature and the surface rules.

    Refinement runs levels 0..max_level and stops when consecutive levels
    differ by less than max(rel_tol * |value|, abs_tol).  base_radial and
    base_angular are the level-0 orders of the radial and the angular
    rules, which later levels raise.  A grid of more than _CHUNK_NODES
    nodes is evaluated chunk by chunk, which bounds the memory a level
    takes and changes no value.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    base_radial: int = 12
    base_angular: int = 16
    max_level: int = 3

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise InputError("tolerances must be positive and finite")
        _check_count("base_radial", self.base_radial, 2)
        _check_count("base_angular", self.base_angular, 4)
        # at least two refinement levels
        _check_count("max_level", self.max_level, 1)

    def to_json_dict(self) -> dict:
        return {
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "base_radial": self.base_radial,
            "base_angular": self.base_angular,
            "max_level": self.max_level,
        }


@dataclass(frozen=True)
class SurfaceGrid:
    """Quadrature on one connected component of a level set {s = s0} of
    the radial coordinate s = sum_j w_j |z_j|^2, in the level chart the
    zero level also uses (_LevelChart).

    ``jac`` holds the chart Jacobian (d x (d-1)) per node; ``weights`` are
    the chart's parameter-space weights.  ``orient_sign`` converts the
    parametrization orientation to outward-normal-first (Stokes) on the
    boundary component the grid was built as."""

    nodes: np.ndarray
    jac: np.ndarray
    weights: np.ndarray
    orient_sign: float
    s_value: float
    level: int

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    error: float
    n_nodes: int
    level: int
    wall_time: float
    scheme: QuadratureScheme

    def to_json_dict(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "error": self.error,
            "n_nodes": self.n_nodes,
            "level": self.level,
            "wall_time": self.wall_time,
            "scheme": self.scheme.to_json_dict(),
        }


@dataclass(frozen=True)
class BasicIntegralRequest:
    """One Basic Integral evaluation: region radius r, deformation t,
    Gaussian width eps, and the closed invariant integrand alpha."""

    space: HamiltonianSpace
    alpha: EquivariantForm
    r: float
    epsilon: float
    t: float = 0.0
    quadrature: QuadratureScheme = QuadratureScheme()

    def __post_init__(self):
        _check_request(self.space, self.alpha, self.r, self.epsilon, self.t)

    def to_json_dict(self) -> dict:
        return {
            "space": self.space.name,
            "alpha": repr(self.alpha),
            "r": self.r,
            "epsilon": self.epsilon,
            "t": self.t,
            "quadrature": self.quadrature.to_json_dict(),
        }


def _check_request(space, alpha, r, epsilon, t):
    """The invariants of one Basic Integral evaluation."""
    _check_objects(space, alpha)
    for name, value in (("r", r), ("epsilon", epsilon), ("t", t)):
        _check_real(name, value)
    if not 0 < r < math.inf:
        raise InputError("region radius r must be positive and finite")
    if not 0 < epsilon < math.inf:
        raise InputError("epsilon must be positive and finite")
    if not 0 <= t < math.inf:
        raise InputError("deformation parameter t must be nonnegative and finite")
    if not _lives_on(alpha, space):
        raise InputError("alpha does not live on the request's space")


def _check_objects(space, alpha):
    """InputError unless space is a HamiltonianSpace and alpha an
    EquivariantForm."""
    _check_type("space", space, HamiltonianSpace)
    _check_type("alpha", alpha, EquivariantForm)


def _lives_on(alpha: EquivariantForm, space: HamiltonianSpace) -> bool:
    return (
        alpha.chart_id == space.chart_id
        and alpha.ambient_dim == space.ambient_dim
        and alpha.gdim == space.algebra.dim
    )


@dataclass(frozen=True)
class BasicIntegralResult:
    value: complex
    error: float
    epsilon: float
    t: float
    r: float
    n_nodes: int
    level: int
    wall_time: float
    checks: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "error": self.error,
            "epsilon": self.epsilon,
            "t": self.t,
            "r": self.r,
            "n_nodes": self.n_nodes,
            "level": self.level,
            "wall_time": self.wall_time,
            "checks": self.checks,
        }


# ---------------------------------------------------------------------------
# critical values and regular radii
# ---------------------------------------------------------------------------


def known_critical_values(space: HamiltonianSpace):
    """Critical values of |mu|^2 from the space's RadialMoment, or None
    without one (the critical-point search can still find them)."""
    _check_type("space", space, HamiltonianSpace)
    return None if space.radial is None else space.radial.critical_values


def check_regular_radius(space: HamiltonianSpace, r: float):
    """Raise NotRegularError when r sits within REGULAR_MARGIN of a known
    critical value of |mu|^2 (known_critical_values).  Silent for spaces
    without a RadialMoment."""
    _check_real("r", r)
    if not 0 < r < math.inf:
        raise InputError("region radius r must be positive and finite")
    crit = known_critical_values(space)
    if crit is None:
        return
    for c in crit:
        if abs(r - c) <= REGULAR_MARGIN:
            raise NotRegularError(
                f"r = {r} is within {REGULAR_MARGIN} of the critical value {c} "
                f"of |mu|^2 on {space.name}"
            )


# ---------------------------------------------------------------------------
# radial grids
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _leggauss(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1], computed once per n.

    Every caller shares the cached arrays, so they are read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_legendre(n: int, lo: float, hi: float):
    x, w = _leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _level_counts(scheme: QuadratureScheme, level: int, torus_invariant=False):
    """Node counts (s, v, angle per plane) of one radial refinement level.

    A torus-invariant integrand (verified by _torus_invariance, never
    assumed) takes a single angle per plane: on a constant-in-angle
    integrand the one-node trapezoid rule is exact, so only the s and v
    orders refine."""
    n_s = scheme.base_radial * (1 << level)
    if torus_invariant:
        return n_s, n_s, 1
    n_ang = scheme.base_angular * (1 << min(level, 1))
    return n_s, n_s, n_ang


def _points_on_ray(info, s_arr, v) -> np.ndarray:
    """Chart points on the zero-angle ray at cross-section position v."""
    if info.planes == 1:
        (w1,) = info.weights
        rad = np.sqrt(s_arr / w1)
        return np.stack([rad, np.zeros_like(rad)], axis=1)
    w1, w2 = info.weights
    r1 = np.sqrt(s_arr * (1.0 - v) / w1)
    r2 = np.sqrt(s_arr * v / w2)
    zero = np.zeros_like(r1)
    return np.stack([r1, zero, r2, zero], axis=1)


def _scan_points(info, r):
    """The dense s-scan of the slab {|mu|^2 <= r}: 2049 values of s, and
    the chart points at them on two cross-section positions, v = 0.25
    then v = 0.75, stacked."""
    s_lo, s_hi = info.s_bounds(r)
    scan = np.linspace(s_lo, s_hi, 2049)
    return scan, np.concatenate([_points_on_ray(info, scan, v) for v in (0.25, 0.75)])


def _support_intervals(info, r, scan, damp):
    """Restrict the s-slab to the effective support of the integrand's
    Gaussian damping factor (it narrows -- and can disconnect -- as t
    grows, and Gauss-Legendre wastes its nodes on exponentially dead
    stretches otherwise).  ``damp`` holds, one row per member, the factor
    at the points of _scan_points.  Support is read off the scan as the
    runs where the upper envelope of the two cross-sections (|m| depends
    only on s for a RadialMoment; both are probed anyway) exceeds 1e-18
    of its peak (discarded mass is orders of magnitude under the
    quadrature tolerance); each padded run becomes its own panel, and a
    row that keeps all of the scan or none of it gets the whole slab.
    Returns one panel list per row."""
    s_lo, s_hi = info.s_bounds(r)
    n = scan.size
    keep = np.maximum(damp[:, :n], damp[:, n:]) >= 1e-18
    whole = ~keep.any(axis=1) | keep.all(axis=1)
    out = [[(s_lo, s_hi)] if w else [] for w in whole.tolist()]
    # one index line for all rows, each row past a gap no run bridges
    stride = n + 9
    keep &= ~whole[:, None]
    idx = np.flatnonzero(keep)
    idx += idx // n * (stride - n)
    if idx.size:
        pad = 3
        starts, ends = _index_runs(idx)
        lo = scan[np.maximum(starts % stride - pad, 0)]
        hi = scan[np.minimum(ends % stride + pad, n - 1)]
        for row, a, b in zip((starts // stride).tolist(), lo.tolist(), hi.tolist()):
            out[row].append((a, b))
    return out


def _index_runs(idx: np.ndarray):
    """First and last entry of each run of the sorted, nonempty index
    array ``idx``; runs separated by at most 8 missing indices merge
    (sub-resolution gaps)."""
    breaks = np.nonzero(np.diff(idx) > 8)[0]
    return np.append(idx[0], idx[breaks + 1]), np.append(idx[breaks], idx[-1])


def _radial(space: HamiltonianSpace) -> RadialMoment:
    """The space's RadialMoment, checked by _check_planes; InputError for
    a space without one.  Every radial grid, surface and integral over
    M_r starts here."""
    _check_type("space", space, HamiltonianSpace)
    if space.radial is None:
        raise InputError(f"{space.name} does not advertise a radial moment norm")
    _check_planes(space.radial)
    return space.radial


def _check_planes(info: RadialMoment) -> None:
    """The radial grids and the level chart cover one or two planes (the
    support scan unpacks two plane weights at most)."""
    if info.planes > 2:
        raise InputError(
            "radial grids and level charts are implemented for 1 or 2 planes, "
            f"got {info.planes}"
        )


def _grid_size(info, scheme, level, s_intervals, torus_invariant) -> int:
    """Node count of one member's level-``level`` grid (_stacked_grids)."""
    n_s, n_v, n_ang = _level_counts(scheme, level, torus_invariant)
    if info.planes == 1:
        return len(s_intervals) * n_s * n_ang
    return len(s_intervals) * n_s * n_v * n_ang * n_ang


def _stacked_grids(info, scheme, level, supports, invariant, span=None):
    """(nodes, weights) of the level-``level`` grids of several members,
    given their support panels and torus verdicts, stacked in member
    order.  A member's grid is the tensor product of Gauss-Legendre
    panels in s (and, on two planes, a Gauss-Legendre rule in the
    cross-section position v) with uniform angle grids, in C order;
    Lebesgue measure is prod_j (1/2) drho_j dtheta_j with rho = s / w1 on
    one plane and rho1 = s (1 - v)/w1, rho2 = s v / w2 on two.  A member
    that passed _torus_invariance has the single angle 0 with weight
    2 pi per plane: the grid is the angle-0 rays times (2 pi)^planes.

    All members are built by one set of array operations: the panels by
    broadcasting, each radial row (an s, or an (s, v) pair) once,
    repeated over its angle nodes, whose cosines and sines come from one
    table of the level's angles.  With ``span`` = (start, stop) there is
    one member and only its nodes start..stop-1 are built: one chunk of a
    grid too large to stack."""
    n_s, n_v, n_ang = _level_counts(scheme, level)
    panels = np.array([p for s in supports for p in s], dtype=float)
    lo, hi = panels[:, 0], panels[:, 1]
    if np.any(hi <= lo):
        raise InputError("empty integration region")
    x, w = _leggauss(n_s)
    half = 0.5 * (hi - lo)
    s = (lo[:, None] + half[:, None] * (x + 1.0)).ravel()
    s_w = (half[:, None] * w).ravel()
    angles = np.where(invariant, 1, n_ang)  # per member
    ang_w = np.repeat(2.0 * np.pi / angles, [len(p) * n_s for p in supports])  # per s
    n_v = n_v if info.planes == 2 else 1  # radial rows per s
    rows = [len(p) * n_s * n_v for p in supports]
    if span is not None:  # one member: the s values whose rows meet the span
        per_row = int(angles[0]) ** info.planes
        first, last = span[0] // per_row, -(-span[1] // per_row)
        s0, s1 = first // n_v, -(-last // n_v)
        s, s_w, ang_w = s[s0:s1], s_w[s0:s1], ang_w[s0:s1]
    if info.planes == 1:
        (w1,) = info.weights
        radii = [np.sqrt(s / w1)]
        row_w = s_w / (2.0 * w1) * ang_w
    else:
        w1, w2 = info.weights
        v, v_w = _gauss_legendre(n_v, 0.0, 1.0)
        sv = s[:, None]
        # rho1 = s (1 - v)/w1, rho2 = s v / w2: d(rho1, rho2) = s/(w1 w2) ds dv
        radii = [np.sqrt(sv * (1.0 - v) / w1).ravel(), np.sqrt(sv * v / w2).ravel()]
        row_w = (s_w[:, None] * v_w * (ang_w * ang_w)[:, None] * sv / (4.0 * w1 * w2)).ravel()
    if span is not None:
        keep = slice(first - s0 * n_v, last - s0 * n_v)
        radii, row_w, rows = [r[keep] for r in radii], row_w[keep], [last - first]
    ang = 2.0 * np.pi * np.arange(n_ang) / n_ang
    cos, sin = np.cos(ang), np.sin(ang)
    if all(invariant):  # one node per row, at angle 0
        cols = [c for rad in radii for c in (rad * cos[0], rad * sin[0])]
        pts = np.stack(cols, axis=1)
    else:
        # angle nodes per row, and each node's place among its row's nodes
        row_ang = np.repeat(angles, rows)
        per_row = row_ang ** info.planes
        local = np.arange(int(per_row.sum())) - np.repeat(np.cumsum(per_row) - per_row, per_row)
        if info.planes == 1:
            ang_idx = [local]
        else:
            node_ang = np.repeat(row_ang, per_row)
            ang_idx = [local // node_ang, local % node_ang]
        cols = []
        for rad, i in zip(radii, ang_idx):
            rad = np.repeat(rad, per_row)
            cols += [rad * cos[i], rad * sin[i]]
        pts, row_w = np.stack(cols, axis=1), np.repeat(row_w, per_row)
    if span is None:
        return pts, row_w
    skip = span[0] - first * int(angles[0]) ** info.planes
    keep = slice(skip, skip + span[1] - span[0])
    return pts[keep], row_w[keep]


def _product_chunks(info, scheme, level, supports, invariant):
    """The level-``level`` grids of the members with ``supports`` and
    ``invariant`` as (nodes, weights) chunks (_stacked_grids): all of
    them as one stacked chunk, or, for a single grid of more than
    _CHUNK_NODES nodes, that grid in consecutive chunks of _CHUNK_NODES
    nodes."""
    total = sum(_grid_size(info, scheme, level, s, inv) for s, inv in zip(supports, invariant))
    if len(supports) > 1 or total <= _CHUNK_NODES:
        yield _stacked_grids(info, scheme, level, supports, invariant)
        return
    for start in range(0, total, _CHUNK_NODES):
        span = (start, min(start + _CHUNK_NODES, total))
        yield _stacked_grids(info, scheme, level, supports, invariant, span)


# ---------------------------------------------------------------------------
# integrand plumbing
# ---------------------------------------------------------------------------


def _as_integrand(space: HamiltonianSpace, form_field):
    """Normalize a form field to ``f(pts, cache) -> {fmi: complex array}``.

    Accepts an EquivariantForm (phi substituted at 0 -- appropriate for
    ordinary differential forms, which is what reaches the quadrature
    after phi-reduction) or any callable with the same signature."""
    _check_type("space", space, HamiltonianSpace)
    if isinstance(form_field, EquivariantForm):
        if (
            form_field.chart_id != space.chart_id
            or form_field.ambient_dim != space.ambient_dim
        ):
            raise InputError("form field does not live on the space's chart")
        zero_phi = np.zeros(form_field.gdim)

        def f(pts, cache=None):
            return form_field.eval_at_phi(pts, zero_phi, cache)

        return f
    if callable(form_field):
        return form_field
    raise InputError("form_field must be an EquivariantForm or a callable")


def _check_orientation(space: HamiltonianSpace) -> None:
    """Assert the symplectic orientation agrees with the chart coordinate
    order: [exp(omega)]_top > 0 at the box center."""
    d = space.ambient_dim
    center = np.mean(space.sample_box, axis=1).reshape(1, d)
    top = tuple(range(d))
    vals = exp_form_part(space.omega).eval_at_phi(center, np.zeros(space.algebra.dim))
    coeff = vals.get(top)
    if coeff is None or not coeff.real[0] > 0:
        raise InputError(
            f"omega^n/n! is not positive on the chart coordinate order of "
            f"{space.name}; the symplectic orientation convention is violated"
        )


def _wsum(values, weights) -> complex:
    """sum_n values[n] * weights[n], with the real and imaginary sums of
    the products each exactly rounded (math.fsum), so the result does not
    depend on the order of the nodes."""
    (total,) = _wsums(values, weights, [len(weights)])
    return total


def _wsums(values, weights, counts) -> list:
    """_wsum over each of the consecutive slices of ``counts`` nodes."""
    values = np.asarray(values, dtype=np.complex128)
    weights = np.asarray(weights, dtype=np.float64)
    re = (values.real * weights).tolist()
    im = (values.imag * weights).tolist()
    out, start = [], 0
    for n in counts:
        out.append(complex(math.fsum(re[start : start + n]), math.fsum(im[start : start + n])))
        start += n
    return out


class _Refinement:
    """The stopping rule of one integral, fed one level at a time: it
    settles at the first level whose value is within
    max(rel_tol * |value|, abs_tol) of the previous level's."""

    def __init__(self, scheme: QuadratureScheme):
        self.scheme = scheme
        self.prev = None
        self.value = 0j
        self.err = math.inf
        self.nodes = 0
        self.level = None  # the level it settled at

    def add(self, level, value, nodes) -> bool:
        """Take one level's value and node count; True once settled."""
        self.value = value
        self.nodes += nodes
        if self.prev is not None:
            self.err = abs(value - self.prev)
            if self.err <= max(self.scheme.rel_tol * abs(value), self.scheme.abs_tol):
                self.level = level
                return True
        self.prev = value
        return False

    def outcome(self, wall_time, failure):
        """The IntegralResult of the settled level, or the AccuracyError
        carrying the last value and error estimate, with the message
        ``failure`` followed by the estimate."""
        if self.level is None:
            return AccuracyError(
                f"{failure} (last error estimate {self.err:g})",
                partial=self.value,
                estimate=self.err,
            )
        return IntegralResult(
            value=self.value,
            error=self.err,
            n_nodes=self.nodes,
            level=self.level,
            wall_time=wall_time,
            scheme=self.scheme,
        )


def _refine(level_value, scheme, t0, failure):
    """Evaluate ``level_value(level) -> (value, nodes)`` over the levels
    0..scheme.max_level until the _Refinement rule settles; ``t0`` is the
    perf_counter reading the result's wall_time counts from.  Raises the
    AccuracyError of _Refinement.outcome when the levels run out."""
    step = _Refinement(scheme)
    for level in range(scheme.max_level + 1):
        if step.add(level, *level_value(level)):
            break
    out = step.outcome(time.perf_counter() - t0, failure)
    if isinstance(out, AccuracyError):
        raise out
    return out


# ---------------------------------------------------------------------------
# the radial driver over M_r
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Member:
    """One integral of a radial batch: region radius r, and the (t, eps)
    the plan is contracted at."""

    r: float
    t: float
    eps: float


_INVARIANCE_SAMPLES = 8  # per support interval
_INVARIANCE_RTOL = 1e-12
# Nodes evaluated in one go across members: about one support scan
# (2 x 2049 points), raised to the largest member grid of a level.
_BLOCK_NODES = 4096
# A grid larger than this is evaluated in chunks of this many nodes;
# smaller chunks defeat vectorization.  Read at call time, so it can be
# lowered to run the chunked path on small grids.
_CHUNK_NODES = 131072


def _probe_points(info, supports):
    """Sample nodes of the torus-invariance probe of every member, given
    its support intervals: (base, rotated, counts), the members' nodes
    stacked in member order, counts[i] of them for member i.

    A member's base nodes are _INVARIANCE_SAMPLES per support interval on
    the angle-0 rays (s and v inside the interval); its rotated nodes are
    the same with every plane rotated by its own random angle.  Each
    member draws from its own generator seeded 0 -- the s, v and angle
    draws of every member with as many intervals are the same uniforms,
    so they are drawn once per interval count.  Rotations preserve
    Lebesgue measure, so when the integrand agrees on both halves to
    roundoff the angular integrals are exactly (2 pi)^planes times the
    angle-0 value."""
    n = _INVARIANCE_SAMPLES
    counts = [n * len(s) for s in supports]
    offsets = np.cumsum([0] + counts)
    base = np.empty((offsets[-1], 2 * info.planes))
    rotated = np.empty_like(base)
    for p in sorted({len(s) for s in supports}):
        idx = [i for i, s in enumerate(supports) if len(s) == p]
        u = np.random.default_rng(0).random(n * p * (2 + info.planes))
        draws = u[: 2 * n * p].reshape(p, 2, n)  # per interval: n of s, n of v
        lo, hi = np.array([supports[i] for i in idx], dtype=float).transpose(2, 0, 1)
        s = lo[..., None] + (hi - lo)[..., None] * draws[:, 0]
        v = np.broadcast_to(draws[:, 1], s.shape)
        pts = _points_on_ray(info, s.ravel(), v.ravel()).reshape(len(idx), n * p, -1)
        angles = 2.0 * np.pi * u[2 * n * p :].reshape(n * p, info.planes)
        rot = np.empty_like(pts)
        rot[..., 0::2] = pts[..., 0::2] * np.cos(angles)  # y_j = 0 on the rays
        rot[..., 1::2] = pts[..., 0::2] * np.sin(angles)
        rows = (offsets[idx][:, None] + np.arange(n * p)).ravel()
        base[rows] = pts.reshape(rows.size, -1)
        rotated[rows] = rot.reshape(rows.size, -1)
    return base, rotated, counts


def _blocks(sizes, bound):
    """Consecutive runs of indices whose sizes add up to at most
    ``bound`` (an index larger than that is a run of its own)."""
    block, total = [], 0
    for i, n in enumerate(sizes):
        if block and total + n > bound:
            yield block
            block, total = [], 0
        block.append(i)
        total += n
    if block:
        yield block


def _supports(info, plan, members):
    """The support panels of every member: one scan per distinct radius,
    the damping factors of all its members taken from one evaluation."""
    by_r: dict = {}
    for i, m in enumerate(members):
        by_r.setdefault(m.r, []).append(i)
    out = [None] * len(members)
    for r, idx in by_r.items():
        scan, pts = _scan_points(info, r)
        damps = plan.damps(pts, [members[i] for i in idx])
        for i, panels in zip(idx, _support_intervals(info, r, scan, damps)):
            out[i] = panels
    return out


def _invariant(residual: float, scale: float) -> bool:
    """The torus-invariance rule: the probe's largest move under rotation,
    ``residual``, is within _INVARIANCE_RTOL of its largest base value,
    ``scale``.  A zero scale proves nothing (the probe saw no integrand),
    and a NaN fails the comparison: both keep the full angular grid."""
    return scale > 0.0 and residual <= _INVARIANCE_RTOL * scale


def _torus_invariance(space, info, plan, members, supports):
    """Whether each member's top-degree integrand passed the
    torus-invariance probe on its own support (see _probe_points).  The
    probes of all members are evaluated together, _BLOCK_NODES at a time."""
    base, rotated, counts = _probe_points(info, supports)
    offsets = np.cumsum([0] + counts)
    out = []
    for block in _blocks([2 * c for c in counts], _BLOCK_NODES):
        a, b = offsets[block[0]], offsets[block[-1] + 1]
        part = [members[i] for i in block]
        cnt = [counts[i] for i in block]
        vals = plan.tops(np.concatenate([base[a:b], rotated[a:b]]), part + part, cnt + cnt)
        ref, rot = vals[: b - a], vals[b - a :]
        starts = offsets[block] - a
        residuals = np.maximum.reduceat(np.abs(rot - ref), starts).tolist()
        scales = np.maximum.reduceat(np.abs(ref), starts).tolist()
        for residual, scale, n in zip(residuals, scales, cnt):
            out.append(_invariant(residual, scale))
            _log.debug(
                "radial quadrature on %s: torus invariance residual %.3g (scale %.3g, "
                "%d sample nodes) -> %s",
                space.name, residual, scale, n,
                "angles collapsed" if out[-1] else "full angular grid",
            )
    return out


def _level_sums(info, plan, members, supports, invariant, level, scheme):
    """(value, nodes) of every member on its grid of one refinement level.

    The level runs as a stream of pieces: the blocks of consecutive
    members whose grids add up to at most max(largest grid of at most
    _CHUNK_NODES nodes, _BLOCK_NODES) nodes (_blocks), each expanded by
    _product_chunks into one stacked grid of its members, or, for a
    single grid of more than _CHUNK_NODES nodes, that grid's chunks.
    Each piece makes one plan.tops call and one exact sum per member
    over its own slice (_wsums).  A member's value is the exact sum of
    its pieces' sums in order, which for a grid in one piece is that
    piece's sum (math.fsum never returns -0.0), so it does not depend on
    the blocking."""
    sizes = [_grid_size(info, scheme, level, s, inv) for s, inv in zip(supports, invariant)]
    # at most _CHUNK_NODES, so a grid larger than that is a block of its own
    bound = max([min(_BLOCK_NODES, _CHUNK_NODES)] + [n for n in sizes if n <= _CHUNK_NODES])
    parts = [[] for _ in members]
    for block in _blocks(sizes, bound):
        for pts, wts in _product_chunks(info, scheme, level, [supports[i] for i in block],
                                        [invariant[i] for i in block]):
            counts = [sizes[i] for i in block] if len(block) > 1 else [len(wts)]
            vals = plan.tops(pts, [members[i] for i in block], counts)
            for i, value, n in zip(block, _wsums(vals, wts, counts), counts):
                parts[i].append((value, n))
    return [(complex(math.fsum(v.real for v, _ in p), math.fsum(v.imag for v, _ in p)),
             sum(n for _, n in p)) for p in parts]


def _integrate_radial(space, plan, members, info, scheme) -> list:
    """Integrate the top-degree integrand of the _IntegrandPlan ``plan``
    over {|mu|^2 <= r} for every member, each at its own (t, eps), on the
    radial grids, all members in step.  Returns one IntegralResult or
    AccuracyError per member.

    Each member keeps what makes its result: its support panels
    (_support_intervals), its torus-invariance verdict (_probe_points),
    its own grid per level with the chunk boundaries of that grid, and its
    own _Refinement rule, so every result is the one a batch of one
    gives.  The work is shared: one support scan per distinct r, one
    probe evaluation for all members, and per level one stacked grid per
    block of members.  ``plan.damps`` takes a scan and the members at
    that r; ``plan.tops`` takes the stacked nodes of several members
    with the node count of each, so the plan runs one Expr pass and one
    contraction, at per-node t and eps, per block.  Members
    that settled drop out of the later levels.  Every result's wall_time
    is the wall time of the whole batch."""
    t0 = time.perf_counter()
    supports = _supports(info, plan, members)
    invariant = _torus_invariance(space, info, plan, members, supports)
    steps = [_Refinement(scheme) for _ in members]
    live = list(range(len(members)))
    for level in range(scheme.max_level + 1):
        sums = _level_sums(info, plan, [members[i] for i in live],
                           [supports[i] for i in live], [invariant[i] for i in live],
                           level, scheme)
        live = [i for i, (value, n) in zip(live, sums) if not steps[i].add(level, value, n)]
        if not live:
            break
    failure = (
        f"radial quadrature on {space.name} did not reach tolerance "
        f"{scheme.rel_tol:g} within {scheme.max_level + 1} levels"
    )
    wall = time.perf_counter() - t0
    return [step.outcome(wall, failure) for step in steps]


# ---------------------------------------------------------------------------
# level sets of s: one chart for the zero level and the boundary surfaces
# ---------------------------------------------------------------------------


class _LevelChart(_Frozen):
    """Parametrization of the level set {sum_j w_j |z_j|^2 = s} for one or
    two planes, shared by the zero level (s = a/c, reduced.zero_level) and
    the boundary surfaces {s = s0} (boundary_surfaces).

    One plane: the circle of radius sqrt(s/w), angle theta in [0, 2 pi).
    Two planes: Hopf-style coordinates (eta, xi1, xi2) with
    |z_1| = sqrt(s/w_1) cos eta, |z_2| = sqrt(s/w_2) sin eta,
    eta in (0, pi/2) at ``n_eta`` Gauss-Legendre nodes (the open interval
    avoids the coordinate degeneracy at the poles), angles on uniform
    periodic grids of ``n_angle`` nodes.  One plane has no eta axis.
    ``n_angle`` = 1 is the angle-0 line (the single angle 0, weight 2 pi
    per plane).

    ``n_probe`` probe nodes follow the tensor mesh, with weight 0: probe k
    sits at the k-th eta node (cycling; on one plane, on the circle) with
    every plane turned by its own random angle, seeded 0.  Its base node,
    ``probe_base[k]``, is the mesh node at the same eta and angle 0, so
    comparing an integrand at the two (phase_probe) tells whether it
    depends on the angles.
    """

    __slots__ = (
        "n",
        "weights",
        "radii",
        "param_dim",
        "grid_shape",
        "param_nodes",
        "param_weights",
        "axes",
        "n_probe",
        "probe_base",
    )

    def __init__(self, weights, s_value: float, n_eta: int, n_angle: int, n_probe: int = 0):
        if not 0 < s_value < math.inf:
            raise InputError(
                f"a level set of s needs s positive and finite, got {s_value}"
            )
        n = len(weights)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", tuple(int(w) for w in weights))
        object.__setattr__(
            self, "radii", tuple(math.sqrt(s_value / w) for w in weights)
        )
        ang = np.arange(n_angle) * (2.0 * math.pi / n_angle)
        ang_w = 2.0 * math.pi / n_angle
        turns = np.empty((0, n))
        if n_probe:
            turns = 2.0 * math.pi * np.random.default_rng(0).random((n_probe, n))
        if n == 1:
            shape, axes = (n_angle,), (ang,)
            nodes, wts = ang[:, None], np.full(n_angle, ang_w)
            probes, base = turns, np.zeros(n_probe, dtype=int)
        else:
            gl_x, gl_w = _leggauss(n_eta)
            eta = 0.25 * math.pi * (gl_x + 1.0)
            eta_w = 0.25 * math.pi * gl_w
            shape, axes = (n_eta, n_angle, n_angle), (eta, ang, ang)
            grids = np.meshgrid(eta, ang, ang, indexing="ij")
            nodes = np.stack([g.reshape(-1) for g in grids], axis=1)
            wts = ((eta_w[:, None, None] * ang_w * ang_w) * np.ones(shape)).reshape(-1)
            row = np.arange(n_probe) % n_eta
            probes = np.column_stack([eta[row], turns])
            base = row * (n_angle * n_angle)
        object.__setattr__(self, "param_dim", 1 if n == 1 else 3)
        object.__setattr__(self, "grid_shape", shape)
        object.__setattr__(self, "param_nodes", np.concatenate([nodes, probes]))
        object.__setattr__(self, "param_weights", np.concatenate([wts, np.zeros(n_probe)]))
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "n_probe", n_probe)
        object.__setattr__(self, "probe_base", base)

    def phase_probe(self, values: np.ndarray) -> tuple:
        """Whether per-node ``values`` on this mesh (the probe nodes
        included) do not depend on the phase angles: their values at the
        probe nodes against those at the base nodes, by the radial driver's
        torus-invariance rule (_invariant).  Returns the verdict and the
        residual relative to the largest base value (inf when that is 0 or
        NaN)."""
        ref = values[self.probe_base]
        residual = float(np.max(np.abs(values[len(values) - self.n_probe :] - ref)))
        scale = float(np.max(np.abs(ref)))
        return _invariant(residual, scale), residual / scale if scale > 0.0 else math.inf

    def embed(self, u: np.ndarray):
        """The ambient points x and the Jacobian dx/du at the (N,
        param_dim) parameter points ``u``, node axis last: x is
        (ambient_dim, N) and the Jacobian (ambient_dim, param_dim, N).
        On two planes the Jacobian's columns are d/d eta, then the two
        angle generators, each zero off its own plane."""
        u = np.asarray(u, dtype=float)
        if self.n == 1:
            r0, th = self.radii[0], u[:, 0]
            x = np.stack([r0 * np.cos(th), r0 * np.sin(th)])
            jac = np.empty((2, 1, len(u)))
            jac[0, 0], jac[1, 0] = -r0 * np.sin(th), x[0]
            return x, jac
        eta, x1, x2 = u[:, 0], u[:, 1], u[:, 2]
        c1, s1 = np.cos(x1), np.sin(x1)
        c2, s2 = np.cos(x2), np.sin(x2)
        r1, r2 = self.radii[0] * np.cos(eta), self.radii[1] * np.sin(eta)
        dr1, dr2 = -self.radii[0] * np.sin(eta), self.radii[1] * np.cos(eta)
        x = np.stack([r1 * c1, r1 * s1, r2 * c2, r2 * s2])
        jac = np.zeros((4, 3, len(u)))
        jac[0, 0], jac[1, 0], jac[2, 0], jac[3, 0] = dr1 * c1, dr1 * s1, dr2 * c2, dr2 * s2
        jac[0, 1], jac[1, 1] = -x[1], x[0]
        jac[2, 2], jac[3, 2] = -x[3], x[2]
        return x, jac


def _surface_counts(scheme: QuadratureScheme, level: int):
    """The (eta, angle) node counts of a level-``level`` surface chart.
    InputError unless ``level`` is an integer >= 0."""
    _check_count("level", level, 0)
    n_eta = scheme.base_radial * (1 << level)
    n_ang = scheme.base_angular * (1 << min(level, 2))
    return n_eta, n_ang


def _build_surface(info, s_value, level, scheme, outward) -> SurfaceGrid:
    """The SurfaceGrid of {s = s_value} on the level chart at the counts of
    ``level``, oriented as the outer (``outward`` = +1) or inner (-1) shell
    of a boundary."""
    chart = _LevelChart(info.weights, s_value, *_surface_counts(scheme, level))
    x, jac = chart.embed(chart.param_nodes)
    nodes, jac = x.T, np.moveaxis(jac, -1, 0)
    # Outward normal is +grad(s) at the outer shell, -grad(s) at the
    # inner one; the Stokes orientation of the surface parametrization
    # is the sign of det[normal | jacobian].  Constant over these
    # product parametrizations -- probe a few nodes and insist on it.
    w_full = np.repeat(info.weights, 2)
    signs = set()
    for idx in range(0, nodes.shape[0], max(1, nodes.shape[0] // 7)):
        normal = outward * 2.0 * w_full * nodes[idx]
        frame = np.column_stack([normal, jac[idx]])
        det = np.linalg.det(frame)
        if abs(det) > 1e-12:
            signs.add(1.0 if det > 0 else -1.0)
    if len(signs) != 1:
        raise InputError("surface parametrization orientation is not constant")
    orient_sign = signs.pop()
    return SurfaceGrid(
        nodes=nodes, jac=jac, weights=chart.param_weights,
        orient_sign=orient_sign, s_value=s_value, level=level,
    )


def boundary_surfaces(
    space: HamiltonianSpace,
    r: float,
    level: int = 0,
    scheme: QuadratureScheme = None,
):
    """Oriented components of the boundary of {|mu|^2 <= r}, in the level
    chart: the outer shell always, the inner shell when the region is an
    annulus."""
    scheme = scheme or QuadratureScheme()
    info = _radial(space)
    check_regular_radius(space, r)
    s_lo, s_hi = info.s_bounds(r)
    return [
        _build_surface(info, s_value, level, scheme, outward)
        for s_value, outward in ((s_hi, +1), (s_lo, -1))
        if s_value > 0
    ]


def integrate_form_on_surface(grid: SurfaceGrid, fmi_values: dict) -> complex:
    """Integrate a (d-1)-form given as {form multi-index: values at the
    grid nodes} via pullback: each component contributes
    coeff * det(J[rows fmi]) against the parameter weights, each summed
    on its own."""
    _check_type("grid", grid, SurfaceGrid)
    d = grid.nodes.shape[1]
    total = 0j
    for fmi, vals in sorted(fmi_values.items()):
        if len(fmi) != d - 1:
            continue
        (pulled,) = _pullback({fmi: np.asarray(vals)}, grid.jac, d - 1).values()
        total += _wsum(pulled, grid.weights)
    return grid.orient_sign * total


def boundary_integral(
    space: HamiltonianSpace,
    form_field,
    r: float,
    quadrature: QuadratureScheme = None,
) -> IntegralResult:
    """Integrate the (d-1)-degree part of ``form_field`` over the oriented
    boundary of {|mu|^2 <= r}, refining the surface charts until
    consecutive levels agree to the scheme tolerance (_refine)."""
    scheme = quadrature or QuadratureScheme()
    f = _as_integrand(space, form_field)
    t0 = time.perf_counter()

    def level_value(level):
        value = 0j
        nodes = 0
        for s in boundary_surfaces(space, r, level, scheme):
            value += integrate_form_on_surface(s, f(s.nodes, {}))
            nodes += s.n_nodes
        return value, nodes

    return _refine(
        level_value, scheme, t0,
        f"boundary quadrature on {space.name} did not reach tolerance "
        f"{scheme.rel_tol:g} within {scheme.max_level + 1} levels",
    )


# ---------------------------------------------------------------------------
# closed-form phi reduction
# ---------------------------------------------------------------------------


def sgi_values(
    algebra: LieAlgebraSpec, nu: tuple, m_arr: np.ndarray, eps
) -> np.ndarray:
    """Vectorized shifted Gaussian integral of the monomial phi^nu:

        int phi^nu exp(i<m, phi> - eps/2 |phi|^2) dphi

    per row of ``m_arr`` (shape (N, dim)), at one eps or at the row's own
    entry of an (N,) eps array.  Completing the square sends
    phi -> phi + i m / eps and leaves the damping exp(-|m|^2 / (2 eps))
    outside; the binomial expansion of (phi + i m/eps)^nu is evaluated
    against the Wick table (Isserlis recursion, exact) once per exponent
    pattern instead of once per point.  The factors that depend on eps
    alone are computed once per distinct eps with scalar arithmetic, so
    each row is bit-identical to a call at that row's eps."""
    _check_type("algebra", algebra, LieAlgebraSpec)
    eps_arr = np.asarray(eps)
    if eps_arr.ndim == 0:
        _check_real("eps", eps)
    elif eps_arr.dtype.kind not in "iuf":
        raise InputError(f"eps must be a real number per row, got dtype {eps_arr.dtype}")
    if not np.all((eps_arr > 0) & (eps_arr < np.inf)):
        raise InputError("eps must be positive and finite")
    nu = tuple(int(e) for e in nu)
    g = algebra.dim
    if len(nu) != g:
        raise InputError("phi multi-index length does not match algebra dim")
    if sum(nu) > WICK_DEGREE_CAP:
        raise InputError(
            f"phi-degree {sum(nu)} exceeds the Wick cap {WICK_DEGREE_CAP}"
        )
    m_arr = np.asarray(m_arr, dtype=float)
    if m_arr.ndim != 2 or m_arr.shape[1] != g:
        raise InputError("shift array must have shape (n_points, dim)")
    if np.ndim(eps) != 0 and np.shape(eps) != m_arr.shape[:1]:
        raise InputError("eps must be a scalar or have shape (n_points,)")
    q = algebra.inner_product
    table = _wick_table(algebra)
    logdet = _logdet(q.tobytes(), g)
    at = _per_row(eps)
    z = at(lambda e: (2.0 * np.pi / e) ** (g / 2.0) * math.exp(-0.5 * logdet))
    norm2 = np.einsum("ng,gh,nh->n", m_arr, q, m_arr)
    damp = np.exp(-norm2 / at(lambda e: 2.0 * e))
    c = at(lambda e: 1j / e)  # the completed-square shift
    c = c * m_arr if np.ndim(c) == 0 else c[:, None] * m_arr
    acc = np.zeros(m_arr.shape[0], dtype=complex)
    for kappa in itertools.product(*(range(e + 1) for e in nu)):
        k_tot = sum(kappa)
        if k_tot % 2 == 1:
            continue
        mom = table.moment(kappa)
        if mom == 0.0:
            continue
        comb = 1.0
        for e, k in zip(nu, kappa):
            comb *= math.comb(e, k)
        mono = np.ones(m_arr.shape[0], dtype=complex)
        for b, (e, k) in enumerate(zip(nu, kappa)):
            p = e - k
            if p:
                mono = mono * c[:, b] ** p
        acc += at(lambda e: comb * mom * e ** (-k_tot / 2.0)) * mono
    return z * damp * acc


def _per_row(param):
    """For a scalar ``param``, the map f -> f(param); for an (N,) array,
    f -> the (N,) array of f at each row's value, with f evaluated once
    per distinct value (scalar arithmetic)."""
    if np.ndim(param) == 0:
        return lambda f: f(param)
    values, rows = np.unique(param, return_inverse=True)
    values = values.tolist()
    return lambda f: np.asarray([f(v) for v in values])[rows]


def _lincomb(coeffs, exprs):
    total = None
    for c, e in zip(coeffs, exprs):
        if c == 0.0:
            continue
        piece = mul(const(float(c)), e)
        total = piece if total is None else add(total, piece)
    return total if total is not None else const(0.0)


def _term_order(forms) -> dict:
    """{fmi: [nu, ...]} over the union of the forms' terms, sorted: the
    order the contraction sums the Gaussian moments in."""
    by_fmi: dict = {}
    for fmi, nu in sorted(set().union(*(f.indexed_terms for f in forms))):
        by_fmi.setdefault(fmi, []).append(nu)
    return by_fmi


class _IntegrandPlan:
    """The phi-reduced integrand of one (space, alpha) with t and eps left
    open.

    omega and d lambda are 2-forms, so they commute and
    exp(omega + t d lambda) = sum_k t^k exp(omega) (d lambda)^k / k!: the
    form part is sum_k t^k P_k with P_k = alpha exp(omega) (d lambda)^k / k!
    (k <= dim/2), and the Gaussian shift m(t) = m0 + t m1, with m0 = mu*
    and m1 = Q^{-1} eta, is affine in t.  Only the Gaussian moments
    (sgi_values) depend on eps.  So one Expr pass over a set of nodes
    (``evaluate``) serves every (t, eps), and ``contract`` turns it into
    the integrand at one (t, eps), or at each node's own (t, eps).

    Without ``deformed`` the plan holds P_0 = wedge(alpha,
    exp_form_part(omega)) and m0 only; at t = 0 only those enter, so a
    t = 0 contraction is the integrand the undeformed trees give."""

    def __init__(self, space: HamiltonianSpace, alpha: EquivariantForm, deformed: bool):
        if not _lives_on(alpha, space):
            raise InputError("alpha does not live on the given space")
        self.algebra = space.algebra
        form = wedge(alpha, exp_form_part(space.omega))
        self.forms = [form]
        self.shift = [tuple(space.moment_star)]
        if deformed:
            d_lambda = exterior_d(lambda_form(space))
            for k in range(1, space.ambient_dim // 2 + 1):
                form = wedge(form, d_lambda).scale(1.0 / k)
                if form.is_zero:
                    break
                self.forms.append(form)
            qinv = np.linalg.inv(space.algebra.inner_product)
            eta = eta_exprs(space)
            self.shift.append(
                tuple(_lincomb(qinv[a], eta) for a in range(space.algebra.dim))
            )
        degree = max(f.max_phi_degree() for f in self.forms)
        if degree > WICK_DEGREE_CAP:
            raise InputError(
                f"phi-degree {degree} after expansion exceeds "
                f"the Wick cap {WICK_DEGREE_CAP}"
            )
        self.top = tuple(range(space.ambient_dim))
        self.top_forms = [f.select_form_degree(space.ambient_dim) for f in self.forms]
        # term orders keyed (top_only, deformed): P_0 alone at t = 0
        self.order = {}
        for deformed in (False, True):
            by_fmi = _term_order(self.forms[: len(self.forms) if deformed else 1])
            self.order[False, deformed] = list(by_fmi.items())
            self.order[True, deformed] = [(self.top, by_fmi.get(self.top, []))]

    def evaluate(self, pts, deformed, top_only, cache=None):
        """The Expr pass at ``pts``: the term values of every P_k (P_0
        only without ``deformed``), all form degrees or the top one, and
        the shift parts as (N, dim g) arrays."""
        cache = {} if cache is None else cache
        shifts = self.shifts(pts, deformed, cache)
        forms = self.top_forms if top_only else self.forms
        terms = [f.eval_terms(pts, cache) for f in forms[: len(forms) if deformed else 1]]
        return terms, shifts

    def shifts(self, pts, deformed, cache=None):
        cache = {} if cache is None else cache
        parts = self.shift if deformed else self.shift[:1]
        return [np.stack([column(e, pts, cache) for e in part], axis=1) for part in parts]

    @staticmethod
    def shift_at(shifts, t):
        """m(t) = m0 + t m1, t a scalar or one value per row; m0 itself
        when t = 0 on every row."""
        if not np.any(t != 0.0):
            return shifts[0]
        return shifts[0] + (t if np.ndim(t) == 0 else t[:, None]) * shifts[1]

    def damping(self, pts, ts, epss):
        """The Gaussian damping factors exp(-|m(t)|^2 / (2 eps)) at ``pts``,
        one row per (t, eps) of ``ts`` and ``epss``: where the integrand's
        mass is."""
        shifts = self.shifts(pts, any(t != 0.0 for t in ts))
        q = self.algebra.inner_product
        times = list(dict.fromkeys(ts))  # |m(t)|^2 once per distinct t
        norm2 = []
        for t in times:
            m = shifts[0] if t == 0.0 else shifts[0] + t * shifts[1]
            norm2.append(np.einsum("ng,gh,nh->n", m, q, m))
        # one (members, N) array, worked in place: -|m|^2 / (2 eps), then exp
        x = np.stack(norm2)[[times.index(t) for t in ts]]
        np.divide(x, np.array([-2.0 * e for e in epss])[:, None], out=x)
        # exp(x) is exactly 0.0 for x <= -750 (below half the least
        # subnormal), and those arguments take the vector exp's slow path
        dead = x <= -750.0
        np.exp(x, out=x, where=~dead)
        x[dead] = 0.0
        return x

    def contract(self, evaluated, t, eps, top_only):
        """{fmi: values} of the integrand on the rows of an ``evaluate``
        pass, at one (t, eps) or at per-row arrays of them: sum over phi
        monomials nu of the coefficient sum_k t^k P_k[fmi, nu] times the
        Gaussian moment of nu.  Every row takes the same rule: on a row
        at t = 0 of a deformed contraction, t^k P_k (k >= 1) and t m1 are
        exact zeros, so the row can differ from a contraction at t = 0
        alone only in the sign of an exact zero."""
        terms, shifts = evaluated
        deformed = bool(np.any(t != 0.0))
        m = self.shift_at(shifts, t)
        powers = None
        if deformed:
            at = _per_row(t)
            powers = [None] + [at(lambda x, k=k: x**k) for k in range(1, len(terms))]
        gauss: dict = {}
        out: dict = {}
        for fmi, nus in self.order[top_only, deformed]:
            acc = np.zeros(m.shape[0], dtype=complex)
            for nu in nus:
                if nu not in gauss:
                    gauss[nu] = sgi_values(self.algebra, nu, m, eps)
                acc += _coefficient(terms, (fmi, nu), powers) * gauss[nu]
            out[fmi] = acc
        return out

    # -- as the integrand of the radial driver (_integrate_radial) ---------

    def tops(self, pts, members, counts):
        """Top-degree values at the stacked nodes ``pts`` of ``members``
        (counts[i] consecutive nodes each, at that member's (t, eps)): one
        Expr pass and one contraction."""
        ev = self.evaluate(pts, any(m.t != 0.0 for m in members), top_only=True)
        if len({(m.t, m.eps) for m in members}) == 1:
            t, eps = members[0].t, members[0].eps
        else:
            t = np.repeat([m.t for m in members], counts)
            eps = np.repeat([m.eps for m in members], counts)
        return self.contract(ev, t, eps, top_only=True)[self.top]

    def damps(self, pts, members):
        return self.damping(pts, [m.t for m in members], [m.eps for m in members])


def _coefficient(terms, key, powers):
    """sum_k t^k (values of P_k at ``key``), with powers[k] = t^k (a
    scalar, or one value per row); P_0's values themselves without
    ``powers`` (t = 0)."""
    if powers is None:
        return terms[0][key]
    total = None
    for k, vals in enumerate(terms):
        v = vals.get(key)
        if v is None:
            continue
        piece = v if k == 0 else powers[k] * v
        total = piece if total is None else total + piece
    return total


def pairing_alpha(space: HamiltonianSpace, vec) -> EquivariantForm:
    """The phi-linear scalar <phi, vec> (inner-product pairing) as an
    equivariant form -- closed, and invariant when vec is central."""
    _check_type("space", space, HamiltonianSpace)
    g = space.algebra.dim
    if np.shape(vec) != (g,):
        raise InputError("pairing vector length must match the algebra dimension")
    for v in vec:
        _check_real("pairing vector entry", v)
    vec = np.asarray(vec, dtype=float)
    if not np.all(np.isfinite(vec)):
        raise InputError("pairing vector entries must be finite")
    coeffs = space.algebra.inner_product @ vec
    terms = {}
    for a in range(g):
        if coeffs[a] != 0.0:
            mono = tuple(1 if b == a else 0 for b in range(g))
            terms[mono] = complex(coeffs[a])
    pp = PhiPolynomial(g, terms)
    return EquivariantForm.scalar(
        space.chart_id, space.ambient_dim, g, 1.0, pp
    )


def check_alpha(space: HamiltonianSpace, alpha: EquivariantForm) -> dict:
    """Verify the Basic Integral's standing hypotheses on alpha:
    equivariant closedness (D alpha = 0) and invariance, both pointwise
    at 40 samples, each residual below 1e-8."""
    _check_objects(space, alpha)
    pts = sample_points(space, 40, 0)
    rng = np.random.default_rng(1)
    phis = rng.standard_normal((4, space.algebra.dim))
    closed = _sampled_sup(equivariant_D(alpha, space.action), pts, phis)
    inv = invariance_residual(alpha, space.action, space.algebra, pts, phis)
    return {
        "d_residual": closed,
        "invariance_residual": inv,
        "ok": bool(closed < 1e-8 and inv < 1e-8),
    }


def _gate_alpha(space: HamiltonianSpace, alpha: EquivariantForm) -> dict:
    """check_alpha's record, or InputError naming both residuals when
    alpha is not closed and invariant (or not an EquivariantForm)."""
    checks = check_alpha(space, alpha)
    if not checks["ok"]:
        raise InputError(
            "alpha is not an admissible integrand: "
            f"D-residual {checks['d_residual']:.3g}, "
            f"invariance residual {checks['invariance_residual']:.3g}"
        )
    return checks


# ---------------------------------------------------------------------------
# the Basic Integral
# ---------------------------------------------------------------------------


def basic_integral(
    req: BasicIntegralRequest, validate: bool = True
) -> BasicIntegralResult:
    """BI(alpha, r, t) at one (epsilon, t): phi-reduce, integrate over
    M_r, divide by K = group_volume * (2 pi)^{dim g}.  A batch of one
    (basic_integral_batch); raises its AccuracyError.

    ``validate`` runs the request invariants (regular r, closed and
    invariant alpha) and records alpha's residuals in ``checks``; False
    skips them for a request whose r and alpha were checked before.  The
    sweeps do not come here: they check r and alpha once and call
    basic_integral_batch."""
    _check_type("req", req, BasicIntegralRequest)
    t0 = time.perf_counter()
    space = req.space
    checks: dict = {}
    if validate:
        check_regular_radius(space, req.r)
        checks.update(_gate_alpha(space, req.alpha))
    (out,) = basic_integral_batch(
        space, req.alpha, [(req.r, req.epsilon, req.t)], req.quadrature
    )
    if isinstance(out, AccuracyError):
        raise out
    return replace(out, wall_time=time.perf_counter() - t0, checks=checks)


def basic_integral_batch(
    space: HamiltonianSpace,
    alpha: EquivariantForm,
    points,
    quadrature: QuadratureScheme = None,
) -> list:
    """BI(alpha, r, t) at every (r, epsilon, t) of ``points``, one
    integrand plan for them all (no validation of r or alpha; see
    basic_integral).

    Returns, per point and in order, its BasicIntegralResult or the
    AccuracyError its refinement ended with; the caller decides which to
    raise.  Every point is a member of one _integrate_radial run, so each
    result's wall_time is the wall time of the whole batch.  Raises
    InputError for a space whose chart order is anti-symplectic or that
    has no RadialMoment."""
    t0 = time.perf_counter()
    scheme = quadrature or QuadratureScheme()
    members = []
    for r, eps, t in points:
        _check_request(space, alpha, r, eps, t)
        members.append(_Member(float(r), float(t), float(eps)))
    plan = _IntegrandPlan(space, alpha, deformed=any(m.t != 0.0 for m in members))
    _check_orientation(space)
    outs = _integrate_radial(space, plan, members, _radial(space), scheme)
    wall = time.perf_counter() - t0
    k_norm = space.algebra.group_volume * (2.0 * np.pi) ** space.algebra.dim
    return [
        out if isinstance(out, AccuracyError) else BasicIntegralResult(
            value=out.value / k_norm,
            error=out.error / k_norm,
            epsilon=m.eps,
            t=m.t,
            r=m.r,
            n_nodes=out.n_nodes,
            level=out.level,
            wall_time=wall,
        )
        for m, out in zip(members, outs)
    ]
