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

Quadrature over M_r comes in two flavours, chosen per space:

* radial: for catalog families whose |mu| depends only on the plane radii
  through s = sum_j w_j |z_j|^2, the region is a slab in s; tensor
  Gauss-Legendre in the slab/simplex coordinates times uniform angular
  grids (trapezoid is spectrally accurate on periodic directions), with
  the order escalated until consecutive refinements agree.  When the
  integrand's top-degree coefficient is verified invariant under the
  torus of plane rotations (see _torus_invariance), every angular grid
  collapses to the angle-0 ray weighted by 2 pi per plane
  (Duistermaat-Heckman push-forward to the moment image).
* rejection-refined: for other spaces, dyadic subdivision of the sample
  box where cells straddling the cut {|mu|^2 = r} are refined and their
  leaf nodes indicator-weighted.  First-order accurate at the cut; meant
  for smoke checks, not tight tolerances.

Node evaluation is chunked (fixed chunk size, fixed order); each chunk
is reduced with an exactly rounded math.fsum, and the chunk sums with
another, so results are bit-identical across worker counts.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .fields import add, const, mul
from .forms import (
    EquivariantForm,
    equivariant_D,
    exp_form_part,
    exterior_d,
    invariance_residual,
    wedge,
)
from .hamspace import HamiltonianSpace, eta_exprs, lambda_form, sample_points
from .liealg import (
    WICK_DEGREE_CAP,
    AccuracyError,
    InputError,
    LieAlgebraSpec,
    NotRegularError,
    PhiPolynomial,
    _logdet,
    _wick_table,
)

_log = logging.getLogger(__name__)

__all__ = [
    "QuadratureScheme",
    "QuadratureGrid",
    "SurfaceGrid",
    "IntegralResult",
    "BasicIntegralRequest",
    "BasicIntegralResult",
    "known_critical_values",
    "check_regular_radius",
    "radial_grid",
    "integrate_over_Mr",
    "boundary_surfaces",
    "level_surface",
    "surface_measure",
    "integrate_form_on_surface",
    "boundary_integral",
    "sgi_values",
    "phi_reduced_integrand",
    "integrand_phi_reduce",
    "pairing_alpha",
    "check_alpha",
    "basic_integral",
]


# ---------------------------------------------------------------------------
# schemes and result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureScheme:
    """Descriptor for the M_r quadrature.

    ``kind`` is "auto" (radial when the space advertises a radial moment
    norm, rejection otherwise), "radial", or "rejection".  Refinement
    stops when consecutive levels differ by less than
    max(rel_tol * |value|, abs_tol).
    """

    kind: str = "auto"
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    base_radial: int = 12
    base_angular: int = 16
    max_level: int = 3
    chunk: int = 131072
    workers: int = 1
    min_depth: int | None = None  # rejection path only
    max_depth: int | None = None

    def __post_init__(self):
        if self.kind not in ("auto", "radial", "rejection"):
            raise InputError(f"unknown quadrature kind {self.kind!r}")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise InputError("tolerances must be positive")
        if self.base_radial < 2 or self.base_angular < 4:
            raise InputError("quadrature base orders too small")
        if self.max_level < 1:
            raise InputError("need at least two refinement levels (max_level >= 1)")
        if self.chunk < 1024:
            raise InputError("chunk size below 1024 defeats vectorization")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "base_radial": self.base_radial,
            "base_angular": self.base_angular,
            "max_level": self.max_level,
            "chunk": self.chunk,
            "workers": self.workers,
            "min_depth": self.min_depth,
            "max_depth": self.max_depth,
        }


@dataclass(frozen=True)
class QuadratureGrid:
    """Materialized nodes/weights for one refinement level over
    {|mu|^2 <= r}.  Weights are in units of chart Lebesgue measure, so
    sum(weights) is the Lebesgue volume of the region (up to quadrature
    error in the simplex/slab directions, which is exact here because the
    volume integrand is polynomial)."""

    nodes: np.ndarray
    weights: np.ndarray
    region: str
    level: int
    meta: dict = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True)
class SurfaceGrid:
    """Quadrature on one connected component of a level set {s = s0} of
    the radial coordinate s = sum_j w_j |z_j|^2.

    ``jac`` holds the parametrization Jacobian (d x (d-1)) per node;
    ``weights`` are parameter-space weights.  ``orient_sign`` converts the
    parametrization orientation to outward-normal-first (Stokes) when the
    grid was built as a boundary component."""

    nodes: np.ndarray
    jac: np.ndarray
    weights: np.ndarray
    orient_sign: float
    s_value: float
    level: int
    meta: dict = field(default_factory=dict)

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
    alpha_label: str = ""

    def __post_init__(self):
        if self.r <= 0:
            raise InputError("region radius r must be positive")
        if self.epsilon <= 0:
            raise InputError("epsilon must be positive")
        if self.t < 0:
            raise InputError("deformation parameter t must be nonnegative")
        a = self.alpha
        if (
            a.chart_id != self.space.chart_id
            or a.ambient_dim != self.space.ambient_dim
            or a.gdim != self.space.algebra.dim
        ):
            raise InputError("alpha does not live on the request's space")

    def to_json_dict(self) -> dict:
        return {
            "space": self.space.name,
            "alpha": self.alpha_label or repr(self.alpha),
            "r": self.r,
            "epsilon": self.epsilon,
            "t": self.t,
            "quadrature": self.quadrature.to_json_dict(),
        }


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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# radial geometry of the catalog families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RadialInfo:
    """|mu| is a function of s = sum_j w_j rho_j alone; M_r is the slab
    s in [s_lo(r), s_hi(r)]."""

    weights: np.ndarray
    planes: int
    s_zero: float  # s-value of the mu = 0 level (0.0 when absent)

    def s_bounds(self, r: float):
        raise NotImplementedError


@dataclass(frozen=True)
class _WeightedRadial(_RadialInfo):
    a: float = 0.0

    def s_bounds(self, r: float):
        # |mu| = |s - a| / 2  =>  |mu|^2 <= r  <=>  |s - a| <= 2 sqrt(r)
        half = 2.0 * math.sqrt(r)
        return (max(self.a - half, 0.0), self.a + half)


@dataclass(frozen=True)
class _QuarticRadial(_RadialInfo):
    def s_bounds(self, r: float):
        # |mu| = s / 4  =>  s <= 4 sqrt(r)
        return (0.0, 4.0 * math.sqrt(r))


def _radial_info(space: HamiltonianSpace):
    family = space.meta.get("family")
    if family == "weighted_cn_u1":
        w = np.asarray(space.meta["weights"], dtype=float)
        return _WeightedRadial(
            weights=w, planes=len(w), s_zero=float(space.meta["a"]),
            a=float(space.meta["a"]),
        )
    if family == "c2_su2":
        return _QuarticRadial(weights=np.array([1.0, 1.0]), planes=2, s_zero=0.0)
    return None


def known_critical_values(space: HamiltonianSpace):
    """Critical values of |mu|^2 for the catalog families, or None when
    the family is not recognized (the critical-point search can still
    find them numerically)."""
    family = space.meta.get("family")
    if family == "weighted_cn_u1":
        a = float(space.meta["a"])
        return (0.0, a * a / 4.0)
    if family == "c2_su2":
        return (0.0,)
    return None


def check_regular_radius(space: HamiltonianSpace, r: float, margin: float = 1e-3):
    """Raise NotRegularError when r sits within ``margin`` of a known
    critical value of |mu|^2.  Silent for spaces without a catalog of
    critical values."""
    if r <= 0:
        raise InputError("region radius r must be positive")
    crit = known_critical_values(space)
    if crit is None:
        return
    for c in crit:
        if abs(r - c) <= margin:
            raise NotRegularError(
                f"r = {r} is within {margin} of the critical value {c} "
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


def _support_intervals(info, r, damp_profile):
    """Restrict the s-slab to the effective support of the integrand's
    Gaussian damping factor (it narrows -- and can disconnect -- as t
    grows, and Gauss-Legendre wastes its nodes on exponentially dead
    stretches otherwise).  Support is read off a dense scan as the runs
    where the profile exceeds 1e-18 of its peak (discarded mass is orders
    of magnitude under the quadrature tolerance); each padded run becomes
    its own panel."""
    s_lo, s_hi = info.s_bounds(r)
    if damp_profile is None:
        return [(s_lo, s_hi)]
    scan = np.linspace(s_lo, s_hi, 2049)
    prof = np.zeros_like(scan)
    # |m| depends only on s for the radial catalog families; probe two
    # cross-section positions anyway and keep the upper envelope.
    for v in (0.25, 0.75):
        pts = _points_on_ray(info, scan, v)
        prof = np.maximum(prof, np.asarray(damp_profile(pts), dtype=float))
    keep = prof >= 1e-18
    if not keep.any() or keep.all():
        return [(s_lo, s_hi)]
    pad = 3
    idx = np.nonzero(keep)[0]
    runs = []
    start = prev = idx[0]
    for i in idx[1:]:
        if i > prev + 8:  # merge runs separated by sub-resolution gaps
            runs.append((start, prev))
            start = i
        prev = i
    runs.append((start, prev))
    out = []
    for i0, i1 in runs:
        lo = float(scan[max(i0 - pad, 0)])
        hi = float(scan[min(i1 + pad, scan.size - 1)])
        out.append((lo, hi))
    return out


def _radial_axes(
    info: _RadialInfo,
    r: float,
    level: int,
    scheme: QuadratureScheme,
    s_intervals=None,
    torus_invariant=False,
):
    """1-D node/weight arrays whose product grid covers the slab
    {s_lo <= s <= s_hi} in polar coordinates.  Lebesgue measure is
    prod_j (1/2) drho_j dtheta_j.

    With ``torus_invariant`` (only for an integrand that passed
    _torus_invariance) each angle axis is the single node 0 with weight
    2 pi, so the grid is the angle-0 rays times (2 pi)^planes."""
    if s_intervals is None:
        s_intervals = [info.s_bounds(r)]
    if any(hi <= lo for lo, hi in s_intervals):
        raise InputError("empty integration region")
    n_s, n_v, n_ang = _level_counts(scheme, level, torus_invariant)
    s_parts = [_gauss_legendre(n_s, lo, hi) for lo, hi in s_intervals]
    s_nodes = np.concatenate([x for x, _ in s_parts])
    s_w = np.concatenate([w for _, w in s_parts])
    ang = 2.0 * np.pi * np.arange(n_ang) / n_ang
    ang_w = 2.0 * np.pi / n_ang
    if info.planes == 1:
        axes = (s_nodes, ang)
        (w1,) = info.weights
        jac = s_w / (2.0 * w1)  # (1/2) drho dtheta, rho = s / w1

        def build(idx):
            i_s, i_t = idx
            s = s_nodes[i_s]
            rad = np.sqrt(s / w1)
            th = ang[i_t]
            pts = np.stack([rad * np.cos(th), rad * np.sin(th)], axis=1)
            return pts, jac[i_s] * ang_w

        return axes, build
    if info.planes == 2:
        v_nodes, v_w = _gauss_legendre(n_v, 0.0, 1.0)
        axes = (s_nodes, v_nodes, ang, ang)
        w1, w2 = info.weights
        # rho1 = s (1 - v)/w1, rho2 = s v / w2: d(rho1, rho2) = s/(w1 w2) ds dv
        def build(idx):
            i_s, i_v, i_t1, i_t2 = idx
            s = s_nodes[i_s]
            v = v_nodes[i_v]
            r1 = np.sqrt(s * (1.0 - v) / w1)
            r2 = np.sqrt(s * v / w2)
            t1 = ang[i_t1]
            t2 = ang[i_t2]
            pts = np.stack(
                [r1 * np.cos(t1), r1 * np.sin(t1), r2 * np.cos(t2), r2 * np.sin(t2)],
                axis=1,
            )
            wts = (
                s_w[i_s] * v_w[i_v] * (ang_w * ang_w)
                * s / (4.0 * w1 * w2)
            )
            return pts, wts

        return axes, build
    raise InputError(
        f"radial quadrature implemented for 1 or 2 planes, got {info.planes}"
    )


def _product_chunks(axes, build, chunk: int):
    """Deterministic chunked traversal of a product grid, C order."""
    sizes = tuple(len(a) for a in axes)
    total = int(np.prod(sizes))
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total))
        yield build(np.unravel_index(flat, sizes))


def radial_grid(
    space: HamiltonianSpace, r: float, level: int = 0, scheme: QuadratureScheme = None
) -> QuadratureGrid:
    """Materialize one refinement level of the radial M_r grid."""
    scheme = scheme or QuadratureScheme()
    info = _radial_info(space)
    if info is None:
        raise InputError(
            f"{space.name} does not advertise a radial moment norm; "
            "use the rejection scheme"
        )
    check_regular_radius(space, r)
    axes, build = _radial_axes(info, r, level, scheme)
    total = int(np.prod([len(a) for a in axes]))
    if total > 4_000_000:
        raise InputError(
            f"level-{level} grid has {total} nodes; too large to materialize"
        )
    pts_list, wts_list = [], []
    for pts, wts in _product_chunks(axes, build, scheme.chunk):
        pts_list.append(pts)
        wts_list.append(wts)
    nodes = np.concatenate(pts_list, axis=0)
    weights = np.concatenate(wts_list, axis=0)
    s_lo, s_hi = info.s_bounds(r)
    return QuadratureGrid(
        nodes=nodes,
        weights=weights,
        region=f"{{|mu|^2 <= {r}}} on {space.name}",
        level=level,
        meta={"s_bounds": (s_lo, s_hi), "counts": _level_counts(scheme, level)},
    )


# ---------------------------------------------------------------------------
# integrand plumbing
# ---------------------------------------------------------------------------


def _as_integrand(space: HamiltonianSpace, form_field):
    """Normalize a form field to ``f(pts, cache) -> {fmi: complex array}``.

    Accepts an EquivariantForm (phi substituted at 0 -- appropriate for
    ordinary differential forms, which is what reaches the quadrature
    after phi-reduction) or any callable with the same signature."""
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


def _orientation_factor(space: HamiltonianSpace) -> float:
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
    return 1.0


def _eval_top(f, pts, top):
    vals = f(pts, {})
    arr = vals.get(top)
    if arr is None:
        return np.zeros(pts.shape[0], dtype=complex)
    return arr


def _wsum(values, weights) -> complex:
    """sum_n values[n] * weights[n], with the real and imaginary sums of
    the products each exactly rounded (math.fsum), so the result does not
    depend on the order of the nodes."""
    values = np.asarray(values, dtype=np.complex128)
    weights = np.asarray(weights, dtype=np.float64)
    re = math.fsum((values.real * weights).tolist())
    im = math.fsum((values.imag * weights).tolist())
    return complex(re, im)


def _chunk_sums(f, chunks, top, workers: int):
    """Per-chunk exact sums, reduced in chunk order with exact
    accumulation.  Chunk boundaries are fixed by the scheme, so the
    result is bit-identical for any worker count."""

    def one(args):
        pts, wts = args
        return _wsum(_eval_top(f, pts, top), wts), pts.shape[0]

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, chunks))
    else:
        results = [one(c) for c in chunks]
    re = math.fsum(v.real for v, _ in results)
    im = math.fsum(v.imag for v, _ in results)
    return complex(re, im), sum(n for _, n in results)


def _refine(levels, level_value, scheme, t0, failure, hint=""):
    """Evaluate ``level_value(level) -> (value, nodes)`` over ``levels``
    until two consecutive values differ by at most
    max(rel_tol * |value|, abs_tol).

    Returns the IntegralResult of the first level that meets the scheme
    tolerance; ``t0`` is the perf_counter reading its wall_time counts
    from.  Raises AccuracyError carrying the last value and error
    estimate when the levels run out, with the message ``failure``
    followed by the estimate and ``hint``."""
    prev = None
    value = 0j
    err = math.inf
    nodes_total = 0
    for level in levels:
        value, n = level_value(level)
        nodes_total += n
        if prev is not None:
            err = abs(value - prev)
            if err <= max(scheme.rel_tol * abs(value), scheme.abs_tol):
                return IntegralResult(
                    value=value,
                    error=err,
                    n_nodes=nodes_total,
                    level=level,
                    wall_time=time.perf_counter() - t0,
                    scheme=scheme,
                )
        prev = value
    raise AccuracyError(
        f"{failure} (last error estimate {err:g}){hint}",
        partial=value,
        estimate=err,
    )


# ---------------------------------------------------------------------------
# integrate over M_r
# ---------------------------------------------------------------------------


def integrate_over_Mr(
    space: HamiltonianSpace,
    form_field,
    r: float,
    quadrature: QuadratureScheme = None,
) -> IntegralResult:
    """Integrate the top-degree component of ``form_field`` over
    {|mu|^2 <= r} with the symplectic orientation, escalating the
    quadrature until the consecutive-level error estimate meets the
    scheme tolerance.

    Raises AccuracyError (carrying the partial value) when refinement is
    exhausted first."""
    scheme = quadrature or QuadratureScheme()
    if r <= 0:
        raise InputError("region radius r must be positive")
    f = _as_integrand(space, form_field)
    _orientation_factor(space)
    info = _radial_info(space)
    kind = scheme.kind
    if kind == "auto":
        kind = "radial" if info is not None else "rejection"
    if kind == "radial":
        if info is None:
            raise InputError(
                f"{space.name} does not advertise a radial moment norm; "
                "use kind='rejection'"
            )
        return _integrate_radial(space, f, r, info, scheme)
    return _integrate_rejection(space, f, r, scheme)


_INVARIANCE_SAMPLES = 8  # per support interval
_INVARIANCE_RTOL = 1e-12


def _torus_invariance(f, info, s_intervals, top):
    """Probe whether the top-degree coefficient of ``f`` is invariant
    under independent rotations of each plane.

    Draws _INVARIANCE_SAMPLES nodes per support interval on the angle-0
    rays (fixed seed, s and v inside the interval) and rotates every plane
    of each node by its own random angle; both sets go through ``f`` in
    one call.  Returns (max |f(rotated) - f(base)|, max |f(base)|, number
    of base nodes).  Rotations preserve Lebesgue measure, so when the
    residual is at roundoff the angular integrals are exactly (2 pi)^planes
    times the angle-0 value."""
    rng = np.random.default_rng(0)
    n = _INVARIANCE_SAMPLES
    base = np.concatenate([
        _points_on_ray(info, rng.uniform(lo, hi, n), rng.uniform(0.0, 1.0, n))
        for lo, hi in s_intervals
    ])
    angles = rng.uniform(0.0, 2.0 * np.pi, (base.shape[0], info.planes))
    rotated = np.empty_like(base)
    rotated[:, 0::2] = base[:, 0::2] * np.cos(angles)  # y_j = 0 on the rays
    rotated[:, 1::2] = base[:, 0::2] * np.sin(angles)
    vals = _eval_top(f, np.concatenate([base, rotated]), top)
    ref, rot = vals[: base.shape[0]], vals[base.shape[0]:]
    return (
        float(np.max(np.abs(rot - ref))),
        float(np.max(np.abs(ref))),
        base.shape[0],
    )


def _integrate_radial(space, f, r, info, scheme) -> IntegralResult:
    t0 = time.perf_counter()
    top = tuple(range(space.ambient_dim))
    profile = getattr(f, "_damp_profile", None)
    s_intervals = _support_intervals(info, r, profile)
    residual, scale, n_samples = _torus_invariance(f, info, s_intervals, top)
    # A zero scale proves nothing (the probe saw no integrand); a NaN
    # residual fails the comparison and keeps the full grid.
    invariant = scale > 0.0 and residual <= _INVARIANCE_RTOL * scale
    _log.debug(
        "radial quadrature on %s: torus invariance residual %.3g (scale %.3g, "
        "%d sample nodes) -> %s",
        space.name, residual, scale, n_samples,
        "angles collapsed" if invariant else "full angular grid",
    )

    def level_value(level):
        axes, build = _radial_axes(
            info, r, level, scheme, s_intervals=s_intervals, torus_invariant=invariant
        )
        chunks = _product_chunks(axes, build, scheme.chunk)
        return _chunk_sums(f, chunks, top, scheme.workers)

    return _refine(
        range(scheme.max_level + 1), level_value, scheme, t0,
        f"radial quadrature on {space.name} did not reach tolerance "
        f"{scheme.rel_tol:g} within {scheme.max_level + 1} levels",
    )


# -- rejection-refined fallback ---------------------------------------------


def _mu_norm2_values(space, pts, cache):
    mom = space.eval_moment(pts, cache)
    q = space.algebra.inner_product
    return np.einsum("ng,gh,nh->n", mom, q, mom)


def _rejection_depth_value(space, f, r, depth, min_depth):
    """One full rejection pass: dyadic descent, interior cells integrated
    with a fixed-order tensor rule, straddling cells refined to ``depth``
    and then indicator-weighted.  Deterministic DFS order."""
    d = space.ambient_dim
    if d > 4:
        raise InputError(
            f"rejection quadrature limited to ambient dimension <= 4, got {d}"
        )
    box = np.asarray(space.sample_box, dtype=float)
    p = 4  # leaf tensor order
    x1, w1 = _leggauss(p)
    x1 = 0.5 * (x1 + 1.0)  # on [0, 1]
    w1 = 0.5 * w1
    grids = np.meshgrid(*([x1] * d), indexing="ij")
    unit_nodes = np.stack([g.ravel() for g in grids], axis=1)  # (p^d, d)
    unit_w = np.ones(p**d)
    for axis in range(d):
        wg = np.meshgrid(*([w1] * d), indexing="ij")[axis].ravel()
        unit_w *= wg

    re_parts, im_parts = [], []
    n_evals = 0
    top = tuple(range(d))
    # LIFO stack, children pushed in reverse lexicographic order -> the
    # traversal visits cells lexicographically (deterministic).
    stack = [(box[:, 0].copy(), box[:, 1].copy(), 0)]
    budget = 2_000_000
    while stack:
        lo, hi, lvl = stack.pop()
        pts = lo + unit_nodes * (hi - lo)
        cache: dict = {}
        inside = _mu_norm2_values(space, pts, cache) <= r
        if not inside.any() and lvl >= min_depth:
            continue
        vol = float(np.prod(hi - lo))
        if lvl >= depth or (inside.all() and lvl >= min_depth):
            vals = _eval_top(f, pts, top)
            n_evals += pts.shape[0]
            if n_evals > budget:
                raise AccuracyError(
                    "rejection quadrature exceeded its node budget",
                    partial=None,
                    estimate=math.inf,
                )
            wts = unit_w * vol
            if not inside.all():
                wts = wts * inside
            s = _wsum(vals, wts)
            re_parts.append(s.real)
            im_parts.append(s.imag)
            continue
        mid = 0.5 * (lo + hi)
        for corner in reversed(list(itertools.product((0, 1), repeat=d))):
            c_lo = np.where(np.array(corner, dtype=bool), mid, lo)
            c_hi = np.where(np.array(corner, dtype=bool), hi, mid)
            stack.append((c_lo, c_hi, lvl + 1))
    return complex(math.fsum(re_parts), math.fsum(im_parts)), n_evals


def _integrate_rejection(space, f, r, scheme) -> IntegralResult:
    t0 = time.perf_counter()
    d = space.ambient_dim
    min_depth = scheme.min_depth if scheme.min_depth is not None else (4 if d <= 2 else 2)
    max_depth = scheme.max_depth if scheme.max_depth is not None else (12 if d <= 2 else 6)
    return _refine(
        range(min_depth + 2, max_depth + 1),
        lambda depth: _rejection_depth_value(space, f, r, depth, min_depth),
        scheme, t0,
        f"rejection quadrature on {space.name} did not reach tolerance "
        f"{scheme.rel_tol:g} by depth {max_depth}",
        hint="; the cut handling is first-order -- loosen the tolerance",
    )


# ---------------------------------------------------------------------------
# boundary and level surfaces (radial families)
# ---------------------------------------------------------------------------


def _surface_counts(scheme: QuadratureScheme, level: int):
    n_psi = scheme.base_radial * (1 << level)
    n_ang = scheme.base_angular * (1 << min(level, 2))
    return n_psi, n_ang


def _build_surface(info, s_value, level, scheme, outward):
    """Parametrize {s = s_value}.  One plane: a circle in theta.  Two
    planes: Hopf-style (psi, theta1, theta2) with rho1 = s cos^2 psi / w1,
    rho2 = s sin^2 psi / w2 -- smooth through the rho_j = 0 circles."""
    if s_value <= 0:
        raise InputError("level surfaces require s > 0")
    n_psi, n_ang = _surface_counts(scheme, level)
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
    elif info.planes == 2:
        w1, w2 = info.weights
        r1 = math.sqrt(s_value / w1)
        r2 = math.sqrt(s_value / w2)
        psi, psi_w = _gauss_legendre(n_psi, 0.0, 0.5 * np.pi)
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
        n = nodes.shape[0]
        jac = np.zeros((n, 4, 3))
        # d/d psi
        jac[:, 0, 0] = -r1 * sp * c1
        jac[:, 1, 0] = -r1 * sp * s1
        jac[:, 2, 0] = r2 * cp * c2
        jac[:, 3, 0] = r2 * cp * s2
        # d/d theta1
        jac[:, 0, 1] = -r1 * cp * s1
        jac[:, 1, 1] = r1 * cp * c1
        # d/d theta2
        jac[:, 2, 2] = -r2 * sp * s2
        jac[:, 3, 2] = r2 * sp * c2
    else:
        raise InputError("surfaces implemented for 1 or 2 planes")

    orient_sign = 1.0
    if outward != 0:
        # Outward normal is +grad(s) at the outer shell, -grad(s) at the
        # inner one; the Stokes orientation of the surface parametrization
        # is the sign of det[normal | jacobian].  Constant over these
        # product parametrizations -- probe a few nodes and insist on it.
        d = nodes.shape[1]
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
    return nodes, jac, weights, orient_sign


def level_surface(
    space: HamiltonianSpace,
    s_value: float,
    level: int = 0,
    scheme: QuadratureScheme = None,
) -> SurfaceGrid:
    """Quadrature grid on {s = s_value} with no boundary orientation
    attached (orient_sign fixed to +1)."""
    scheme = scheme or QuadratureScheme()
    info = _radial_info(space)
    if info is None:
        raise InputError(f"{space.name} does not advertise a radial moment norm")
    nodes, jac, weights, _ = _build_surface(info, s_value, level, scheme, outward=0)
    return SurfaceGrid(
        nodes=nodes, jac=jac, weights=weights, orient_sign=1.0,
        s_value=s_value, level=level, meta={"space": space.name},
    )


def boundary_surfaces(
    space: HamiltonianSpace,
    r: float,
    level: int = 0,
    scheme: QuadratureScheme = None,
):
    """Oriented components of the boundary of {|mu|^2 <= r}: the outer
    shell always, the inner shell when the region is an annulus."""
    scheme = scheme or QuadratureScheme()
    info = _radial_info(space)
    if info is None:
        raise InputError(f"{space.name} does not advertise a radial moment norm")
    check_regular_radius(space, r)
    s_lo, s_hi = info.s_bounds(r)
    out = []
    for s_value, outward in ((s_hi, +1), (s_lo, -1)):
        if s_value <= 0:
            continue
        nodes, jac, weights, sign = _build_surface(
            info, s_value, level, scheme, outward
        )
        out.append(
            SurfaceGrid(
                nodes=nodes, jac=jac, weights=weights, orient_sign=sign,
                s_value=s_value, level=level,
                meta={"space": space.name, "outward": outward},
            )
        )
    return out


def surface_measure(grid: SurfaceGrid) -> np.ndarray:
    """Per-node induced Riemannian measure (flat ambient metric):
    sqrt(det J^T J) times the parameter weight."""
    jtj = np.einsum("nij,nik->njk", grid.jac, grid.jac)
    return np.sqrt(np.linalg.det(jtj)) * grid.weights


def integrate_form_on_surface(grid: SurfaceGrid, fmi_values: dict) -> complex:
    """Integrate a (d-1)-form given as {form multi-index: values at the
    grid nodes} via pullback: each component contributes
    coeff * det(J[rows fmi]) against the parameter weights."""
    d = grid.nodes.shape[1]
    total = 0j
    for fmi, vals in sorted(fmi_values.items()):
        if len(fmi) != d - 1:
            continue
        minors = np.linalg.det(grid.jac[:, list(fmi), :])
        total += _wsum(np.asarray(vals) * minors, grid.weights)
    return grid.orient_sign * total


def boundary_integral(
    space: HamiltonianSpace,
    form_field,
    r: float,
    quadrature: QuadratureScheme = None,
) -> IntegralResult:
    """Integrate the (d-1)-degree part of ``form_field`` over the oriented
    boundary of {|mu|^2 <= r}, escalating as in integrate_over_Mr."""
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
        range(scheme.max_level + 1), level_value, scheme, t0,
        f"boundary quadrature on {space.name} did not reach tolerance "
        f"{scheme.rel_tol:g} within {scheme.max_level + 1} levels",
    )


# ---------------------------------------------------------------------------
# closed-form phi reduction
# ---------------------------------------------------------------------------


def sgi_values(
    algebra: LieAlgebraSpec, nu: tuple, m_arr: np.ndarray, eps: float
) -> np.ndarray:
    """Vectorized shifted Gaussian integral of the monomial phi^nu:

        int phi^nu exp(i<m, phi> - eps/2 |phi|^2) dphi

    per row of ``m_arr`` (shape (N, dim)).  Same completing-the-square
    reduction as shifted_gaussian_integral, with the binomial expansion
    of (phi + i m/eps)^nu evaluated against the Wick table once per
    exponent pattern instead of once per point."""
    if eps <= 0:
        raise InputError("eps must be positive")
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
    q = algebra.inner_product
    table = _wick_table(algebra)
    logdet = _logdet(q.tobytes(), g)
    z = (2.0 * np.pi / eps) ** (g / 2.0) * math.exp(-0.5 * logdet)
    norm2 = np.einsum("ng,gh,nh->n", m_arr, q, m_arr)
    damp = np.exp(-norm2 / (2.0 * eps))
    c = (1j / eps) * m_arr  # the completed-square shift
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
        acc += (comb * mom * eps ** (-k_tot / 2.0)) * mono
    return z * damp * acc


def _shift_exprs(space: HamiltonianSpace, t: float):
    """Coefficient expressions of the Gaussian shift m = mu* + t V*Vmu*
    (the lambda-contraction dual, so that <m, phi> reproduces
    i mu.phi + i t lambda(V_phi))."""
    m_exprs = list(space.moment_star)
    if t != 0.0:
        qinv = np.linalg.inv(space.algebra.inner_product)
        eta = eta_exprs(space)
        g = space.algebra.dim
        m_exprs = [
            add(
                m_exprs[a],
                mul(
                    const(t),
                    _lincomb(qinv[a], eta),
                ),
            )
            for a in range(g)
        ]
    return m_exprs


def _lincomb(coeffs, exprs):
    total = None
    for c, e in zip(coeffs, exprs):
        if c == 0.0:
            continue
        piece = mul(const(float(c)), e)
        total = piece if total is None else add(total, piece)
    return total if total is not None else const(0.0)


def phi_reduced_integrand(
    space: HamiltonianSpace,
    alpha: EquivariantForm,
    t: float,
    eps: float,
):
    """Build the vectorized phi-reduced integrand of the Basic Integral:
    a callable ``f(pts, cache=None) -> {fmi: complex array}`` giving, at
    each point, the ordinary form

        int_g alpha exp(omega + i mu.phi - eps/2 |phi|^2 + t D lambda) dphi

    with every form degree retained (the top one feeds integrate_over_Mr,
    the (d-1)-degree ones feed boundary integrals)."""
    if eps <= 0:
        raise InputError("eps must be positive")
    if (
        alpha.chart_id != space.chart_id
        or alpha.ambient_dim != space.ambient_dim
        or alpha.gdim != space.algebra.dim
    ):
        raise InputError("alpha does not live on the given space")
    nil = space.omega
    if t != 0.0:
        nil = nil + exterior_d(lambda_form(space)).scale(t)
    total = wedge(alpha, exp_form_part(nil))
    if total.max_phi_degree() > WICK_DEGREE_CAP:
        raise InputError(
            f"phi-degree {total.max_phi_degree()} after expansion exceeds "
            f"the Wick cap {WICK_DEGREE_CAP}"
        )
    m_exprs = _shift_exprs(space, t)
    algebra = space.algebra
    # Per form multi-index, the phi-exponents of its terms, in term order:
    # the form is sum_nu (coefficient of phi^nu) * (Gaussian moment of nu).
    by_fmi: dict = {}
    for (fmi, nu), _ in sorted(total.indexed_terms.items()):
        by_fmi.setdefault(fmi, []).append(nu)

    def shift_values(pts, cache):
        return np.stack(
            [np.asarray(e.eval(pts, cache), dtype=float) for e in m_exprs], axis=1
        )

    def integrand(pts, cache=None):
        cache = {} if cache is None else cache
        m_arr = shift_values(pts, cache)
        term_vals = total.eval_terms(pts, cache)
        gauss: dict = {}
        out: dict = {}
        for fmi, nus in by_fmi.items():
            acc = np.zeros(pts.shape[0], dtype=complex)
            for nu in nus:
                if nu not in gauss:
                    gauss[nu] = sgi_values(algebra, nu, m_arr, eps)
                acc += term_vals[(fmi, nu)] * gauss[nu]
            out[fmi] = acc
        return out

    q = algebra.inner_product

    def damp_profile(pts):
        m_arr = shift_values(pts, {})
        return np.exp(-np.einsum("ng,gh,nh->n", m_arr, q, m_arr) / (2.0 * eps))

    # The quadrature driver uses this to place radial panels where the
    # Gaussian mass is (it narrows as t grows).
    integrand._damp_profile = damp_profile
    return integrand


def integrand_phi_reduce(
    space: HamiltonianSpace,
    alpha: EquivariantForm,
    t: float,
    eps: float,
    point,
) -> dict:
    """Exact phi-integral of the Basic Integral's integrand at one chart
    point: {form multi-index: complex}.  No sampling over the algebra."""
    pts = np.asarray(point, dtype=float).reshape(1, space.ambient_dim)
    f = phi_reduced_integrand(space, alpha, t, eps)
    return {fmi: complex(v[0]) for fmi, v in f(pts).items()}


def pairing_alpha(space: HamiltonianSpace, vec) -> EquivariantForm:
    """The phi-linear scalar <phi, vec> (inner-product pairing) as an
    equivariant form -- closed, and invariant when vec is central."""
    g = space.algebra.dim
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (g,):
        raise InputError("pairing vector length must match the algebra dimension")
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


def check_alpha(
    space: HamiltonianSpace,
    alpha: EquivariantForm,
    n_samples: int = 40,
    seed: int = 0,
    tol: float = 1e-8,
) -> dict:
    """Verify the Basic Integral's standing hypotheses on alpha:
    equivariant closedness (D alpha = 0) and invariance, both pointwise
    at samples."""
    pts = sample_points(space, n_samples, seed)
    rng = np.random.default_rng(seed + 1)
    phis = rng.standard_normal((4, space.algebra.dim))
    d_alpha = equivariant_D(alpha, space.action)
    closed = 0.0
    cache: dict = {}
    for phi in phis:
        for vals in d_alpha.eval_at_phi(pts, phi, cache).values():
            if vals.size:
                closed = max(closed, float(np.max(np.abs(vals))))
    inv = invariance_residual(alpha, space.action, space.algebra, pts, phis)
    return {
        "d_residual": closed,
        "invariance_residual": inv,
        "ok": bool(closed < tol and inv < tol),
    }


# ---------------------------------------------------------------------------
# the Basic Integral
# ---------------------------------------------------------------------------


def basic_integral(
    req: BasicIntegralRequest, validate: bool = True
) -> BasicIntegralResult:
    """BI(alpha, r, t) at one (epsilon, t): phi-reduce, integrate over
    M_r, divide by K = group_volume * (2 pi)^{dim g}.

    ``validate`` runs the request invariants (regular r, closed and
    invariant alpha); sweeps that hold alpha fixed can validate once and
    pass False afterwards."""
    t0 = time.perf_counter()
    space = req.space
    checks: dict = {}
    if validate:
        check_regular_radius(space, req.r)
        a_checks = check_alpha(space, req.alpha)
        checks.update(a_checks)
        if not a_checks["ok"]:
            raise InputError(
                "alpha is not an admissible integrand: "
                f"D-residual {a_checks['d_residual']:.3g}, "
                f"invariance residual {a_checks['invariance_residual']:.3g}"
            )
    f = phi_reduced_integrand(space, req.alpha, req.t, req.epsilon)
    res = integrate_over_Mr(space, f, req.r, req.quadrature)
    k_norm = space.algebra.group_volume * (2.0 * np.pi) ** space.algebra.dim
    return BasicIntegralResult(
        value=res.value / k_norm,
        error=res.error / k_norm,
        epsilon=req.epsilon,
        t=req.t,
        r=req.r,
        n_nodes=res.n_nodes,
        level=res.level,
        wall_time=time.perf_counter() - t0,
        checks=checks,
    )
