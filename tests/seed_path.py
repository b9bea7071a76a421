"""The one-request-at-a-time Basic Integral, kept as a reference.

Each (r, eps, t) builds its own phi-reduced integrand, with t folded into
the expression trees of the form part and of the Gaussian shift, and runs
its own radial quadrature: support scan, torus-invariance probe and
refinement.  The batched evaluation (basic_integral_batch) must give the
same node counts and levels member by member, bit-identical values at
t = 0, and values within roundoff otherwise.
"""

import math

import numpy as np

from symloc.fields import add, column, const, mul
from symloc.forms import exp_form_part, exterior_d, wedge
from symloc.hamspace import eta_exprs, lambda_form
from symloc.integrate import (
    IntegralResult,
    _check_planes,
    _gauss_legendre,
    _index_runs,
    _level_counts,
    _points_on_ray,
    _wsum,
    sgi_values,
)
from symloc.liealg import AccuracyError


def seed_integrand(space, alpha, t, eps):
    """f(pts, cache=None) -> {fmi: values} with its _damp_profile: the form
    part wedge(alpha, exp_form_part(omega + t d lambda)) and the shift
    mu* + t Q^{-1} eta, each one expression tree."""
    nil = space.omega
    if t != 0.0:
        nil = nil + exterior_d(lambda_form(space)).scale(t)
    total = wedge(alpha, exp_form_part(nil))
    m_exprs = list(space.moment_star)
    if t != 0.0:
        qinv = np.linalg.inv(space.algebra.inner_product)
        eta = eta_exprs(space)
        for a in range(space.algebra.dim):
            pieces = [mul(const(float(c)), e) for c, e in zip(qinv[a], eta) if c != 0.0]
            m_exprs[a] = add(m_exprs[a], mul(const(t), add(*pieces)))
    algebra = space.algebra
    by_fmi: dict = {}
    for (fmi, nu), _ in sorted(total.indexed_terms.items()):
        by_fmi.setdefault(fmi, []).append(nu)

    def shift_values(pts, cache):
        return np.stack([column(e, pts, cache) for e in m_exprs], axis=1)

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

    integrand._damp_profile = damp_profile
    return integrand


def _top(f, pts, top):
    arr = f(pts, {}).get(top)
    return np.zeros(pts.shape[0], dtype=complex) if arr is None else arr


def _support(info, r, profile):
    s_lo, s_hi = info.s_bounds(r)
    scan = np.linspace(s_lo, s_hi, 2049)
    prof = np.zeros_like(scan)
    for v in (0.25, 0.75):
        prof = np.maximum(prof, np.asarray(profile(_points_on_ray(info, scan, v)), float))
    keep = prof >= 1e-18
    if not keep.any() or keep.all():
        return [(s_lo, s_hi)]
    starts, ends = _index_runs(np.nonzero(keep)[0])
    lo = scan[np.maximum(starts - 3, 0)]
    hi = scan[np.minimum(ends + 3, scan.size - 1)]
    return list(zip(lo.tolist(), hi.tolist()))


def _torus_invariant(f, info, s_intervals, top):
    rng = np.random.default_rng(0)
    n = 8
    base = np.concatenate([
        _points_on_ray(info, rng.uniform(lo, hi, n), rng.uniform(0.0, 1.0, n))
        for lo, hi in s_intervals
    ])
    angles = rng.uniform(0.0, 2.0 * np.pi, (base.shape[0], info.planes))
    rotated = np.empty_like(base)
    rotated[:, 0::2] = base[:, 0::2] * np.cos(angles)
    rotated[:, 1::2] = base[:, 0::2] * np.sin(angles)
    vals = _top(f, np.concatenate([base, rotated]), top)
    ref, rot = vals[: base.shape[0]], vals[base.shape[0]:]
    scale = float(np.max(np.abs(ref)))
    return scale > 0.0 and float(np.max(np.abs(rot - ref))) <= 1e-12 * scale


def radial_chunks(info, level, scheme, s_intervals, torus_invariant, chunk):
    """One member's level grid, chunk by chunk in C order, every node
    built from its unravelled (s, [v,] angle, [angle]) index: the
    per-member construction the stacked grids replaced."""
    n_s, n_v, n_ang = _level_counts(scheme, level, torus_invariant)
    s_parts = [_gauss_legendre(n_s, lo, hi) for lo, hi in s_intervals]
    s_nodes = np.concatenate([x for x, _ in s_parts])
    s_w = np.concatenate([w for _, w in s_parts])
    ang = 2.0 * np.pi * np.arange(n_ang) / n_ang
    ang_w = 2.0 * np.pi / n_ang
    if info.planes == 1:
        (w1,) = info.weights
        sizes = (s_nodes.size, n_ang)
    else:
        w1, w2 = info.weights
        v_nodes, v_w = _gauss_legendre(n_v, 0.0, 1.0)
        sizes = (s_nodes.size, n_v, n_ang, n_ang)
    total = int(np.prod(sizes))
    for start in range(0, total, chunk):
        idx = np.unravel_index(np.arange(start, min(start + chunk, total)), sizes)
        s = s_nodes[idx[0]]
        if info.planes == 1:
            rad, th = np.sqrt(s / w1), ang[idx[1]]
            yield (np.stack([rad * np.cos(th), rad * np.sin(th)], axis=1),
                   s_w[idx[0]] / (2.0 * w1) * ang_w)
            continue
        v, t1, t2 = v_nodes[idx[1]], ang[idx[2]], ang[idx[3]]
        r1, r2 = np.sqrt(s * (1.0 - v) / w1), np.sqrt(s * v / w2)
        pts = np.stack([r1 * np.cos(t1), r1 * np.sin(t1), r2 * np.cos(t2), r2 * np.sin(t2)],
                       axis=1)
        yield pts, s_w[idx[0]] * v_w[idx[1]] * (ang_w * ang_w) * s / (4.0 * w1 * w2)


def seed_radial(space, f, r, scheme):
    """The radial quadrature of one integrand: IntegralResult or the
    AccuracyError it ends with (returned, not raised)."""
    info = space.radial
    _check_planes(info)
    top = tuple(range(space.ambient_dim))
    s_intervals = _support(info, r, f._damp_profile)
    invariant = _torus_invariant(f, info, s_intervals, top)
    prev, value, err, nodes = None, 0j, math.inf, 0
    for level in range(scheme.max_level + 1):
        sums = [(_wsum(_top(f, pts, top), wts), len(pts))
                for pts, wts in radial_chunks(info, level, scheme, s_intervals, invariant,
                                              scheme.chunk)]
        value = complex(math.fsum(v.real for v, _ in sums),
                        math.fsum(v.imag for v, _ in sums))
        nodes += sum(n for _, n in sums)
        if prev is not None:
            err = abs(value - prev)
            if err <= max(scheme.rel_tol * abs(value), scheme.abs_tol):
                return IntegralResult(value, err, nodes, level, 0.0, scheme)
        prev = value
    return AccuracyError(
        f"radial quadrature on {space.name} did not reach tolerance "
        f"{scheme.rel_tol:g} within {scheme.max_level + 1} levels "
        f"(last error estimate {err:g})",
        partial=value,
        estimate=err,
    )


def seed_basic_integrals(space, alpha, points, scheme):
    """One seed_radial per (r, eps, t), in order, normalized by K as
    basic_integral normalizes: IntegralResult or AccuracyError each."""
    k_norm = space.algebra.group_volume * (2.0 * np.pi) ** space.algebra.dim
    out = []
    for r, eps, t in points:
        res = seed_radial(space, seed_integrand(space, alpha, t, eps), r, scheme)
        if not isinstance(res, AccuracyError):
            res = IntegralResult(res.value / k_norm, res.error / k_norm, res.n_nodes,
                                 res.level, 0.0, scheme)
        out.append(res)
    return out
