"""The eps-split of the Basic Integral: polynomial part + exp(-c/eps) tail.

Oracles are closed forms.  At t = 0 on cn_u1(2,1),
BI(1, r, 0) = pi * erf(sqrt(r / (2 eps))), so the polynomial part is pi,
the Kirwan integral of the reduced space; the weighted plane
weighted_cn_u1(2,(1,2),1) gives exactly half of that, and on cn_u1(1,1)
the polynomial part is 1.  On c2_su2 the level mu = 0 is the origin, not
a regular level, so no polynomial + tail split exists and the fitter must
refuse.  The r -> infinity check and the damping check are pinned on
cn_u1 by the same Gaussian closed forms.
"""

import json
import math
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import symloc.analysis as A
from seed_path import seed_basic_integrals
from symloc.analysis import (
    DEFAULT_FIT_TOL,
    _lstsq,
    _split_poly_tail,
    contribution,
    damping_check,
    default_poly_degree,
    epsilon_sweep,
    fit_poly_plus_tail,
    global_convergence_check,
    large_t_limit,
)
from symloc.critical import critical_values, find_critical_points
from symloc.forms import EquivariantForm
from symloc.hamspace import catalog, catalog_from_string
from symloc.integrate import QuadratureScheme
from symloc.liealg import AccuracyError, DecompositionError, InputError, NonConvergenceError

_SWEEPS: dict = {}


def _sweep(name, r, t, degree=0):
    """epsilon_sweep of alpha = 1 on the default grid, once per module."""
    key = (name, r, t, degree)
    if key not in _SWEEPS:
        space = catalog_from_string(name)
        one = EquivariantForm.scalar(
            space.chart_id, space.ambient_dim, space.algebra.dim, 1.0
        )
        _SWEEPS[key] = epsilon_sweep(space, one, r=r, t_policy=t, poly_degree_max=degree)
    return _SWEEPS[key]


@pytest.mark.parametrize(
    "name,r,t,poly_part",
    [
        ("cn_u1(2,1)", 0.16, 0.0, math.pi),
        ("weighted_cn_u1(2,(1,2),1)", 0.16, 0.0, math.pi / 2),
        ("cn_u1(1,1)", 0.16, 4.0, 1.0),
    ],
)
def test_degree_zero_poly_part_is_the_reduced_integral(name, r, t, poly_part):
    sweep = _sweep(name, r, t)
    (c0,) = sweep.poly_coeffs
    assert abs(c0 - poly_part) <= DEFAULT_FIT_TOL * poly_part
    split = sweep.provenance["fit"]["split_stage"]
    assert split["converged"] and split["iterations"] <= 60


@pytest.mark.parametrize("name,factor", [("cn_u1(2,1)", 1.0),
                                         ("weighted_cn_u1(2,(1,2),1)", 0.5)])
def test_sweep_points_match_the_closed_form(name, factor):
    sweep = _sweep(name, 0.16, 0.0)
    exact = [factor * math.pi * math.erf(math.sqrt(0.16 / (2.0 * e)))
             for e in sweep.epsilon_grid]
    np.testing.assert_allclose(np.real(sweep.values), exact, rtol=0, atol=1e-9)


def test_non_regular_zero_level_is_refused():
    with pytest.raises(DecompositionError):
        _sweep("c2_su2", 0.04, 0.0)


@pytest.mark.xfail(
    strict=True,
    raises=DecompositionError,
    reason="known defect: at default_poly_degree (1 here) the polynomial "
    "coefficients drift by 5.49e-3 when the largest-eps points are dropped",
)
def test_default_degree_fit_recovers_the_reduced_integral():
    sweep = _sweep("cn_u1(2,1)", 0.16, 0.0)
    degree = default_poly_degree(catalog_from_string("cn_u1(2,1)"))
    poly, _, _ = fit_poly_plus_tail(sweep, degree)
    assert abs(poly[0] - math.pi) <= DEFAULT_FIT_TOL * math.pi


@pytest.mark.xfail(
    strict=True,
    raises=DecompositionError,
    reason="known defect: at r = 0.09 the tail decays at rate ~0.05, so "
    "exp(-c/eps) is still ~0.8 at eps = 0.2 and the degree-0 coefficient "
    "drifts by 2.94e-4 > fit_tol when the largest-eps points are dropped",
)
def test_degree_zero_split_at_a_narrow_region():
    sweep = _sweep("cn_u1(2,1)", 0.09, 0.0)
    (c0,) = sweep.poly_coeffs
    assert abs(c0 - math.pi) <= DEFAULT_FIT_TOL * math.pi


def _damped_split(eps, vals, dmax, tail0, n_iter, relax=0.5):
    """The plain damped alternation the accelerated split replaced, kept
    as the reference: same map, same stop rule, any iteration cap."""
    n = len(eps)
    n_small = max(dmax + 3, n // 3)
    v_small = np.vander(eps[:n_small], dmax + 1, increasing=True)

    def poly_on_block(v):
        coef, *_ = np.linalg.lstsq(v_small, v[:n_small], rcond=None)
        return coef

    def polyval(coeffs, e):
        return sum(c * e**k for k, c in enumerate(coeffs))

    tail = tail0.copy()
    poly = poly_on_block(vals - tail)
    c = q = 0.0
    use_eps_col = n >= 12
    it = 0
    for it in range(n_iter):
        resid = vals - polyval(poly, eps)
        mag = np.abs(resid)
        floor = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
        sel = mag > floor
        if np.sum(sel) < 5:
            tail_new = np.zeros(n, complex)
            c = q = 0.0
        else:
            w = mag[sel]
            cols = [np.ones(np.sum(sel)), 1.0 / eps[sel], np.log(eps[sel])]
            if use_eps_col:
                cols.append(eps[sel])
            x = np.column_stack(cols) * w[:, None]
            y = np.log(mag[sel]) * w
            b, *_ = np.linalg.lstsq(x, y, rcond=None)
            c = min(max(-b[1], 0.0), 50.0)
            q = min(max(b[2], -4.0), 4.0)
            logshape = b[0] + q * np.log(eps) - c / eps
            if use_eps_col:
                logshape = logshape + b[3] * eps
            shape = np.exp(logshape)
            num = np.sum(np.conj(shape[sel]) * resid[sel] * w)
            den = np.sum(shape[sel] ** 2 * w)
            ph = num / den
            ph /= max(abs(ph), 1e-300)
            tail_new = ph * shape
        tail = relax * tail_new + (1 - relax) * tail
        poly_new = poly_on_block(vals - tail)
        d = np.max(np.abs(poly_new - poly))
        poly = poly_new
        if d < 1e-14 and it > 10:
            break
    return c, q, it + 1


@pytest.mark.parametrize("n_drop", [0, 4], ids=["full", "dropped"])
def test_accelerated_split_reaches_the_damped_fixed_point(n_drop):
    # the pi sweep, on the full grid and on the grid of the stability refit
    sweep = _sweep("cn_u1(2,1)", 0.16, 0.0)
    eps = np.asarray(sweep.epsilon_grid)[: len(sweep.epsilon_grid) - n_drop]
    vals = np.asarray(sweep.values, complex)[: len(eps)]
    c_ref, q_ref, ref_iters = _damped_split(eps, vals, 0, np.zeros(len(eps), complex), 5000)
    assert ref_iters < 5000  # the reference itself converged
    _, _, c, q, _, iterations, converged = _split_poly_tail(
        eps, vals, 0, np.zeros(len(eps), complex)
    )
    assert converged and iterations <= 60
    assert c == pytest.approx(c_ref, rel=1e-9)
    assert q == pytest.approx(q_ref, rel=1e-9)


def test_batched_lstsq_matches_numpy_per_design():
    # the refinement's designs [eps^k | exp(-c/eps) eps^(j/2)] on the pi
    # sweep, scored as one stack against np.linalg.lstsq one at a time
    sweep = _sweep("cn_u1(2,1)", 0.16, 0.0)
    eps = np.asarray(sweep.epsilon_grid)
    vals = np.asarray(sweep.values, complex)
    rates = np.geomspace(0.05, 0.14, 25)
    x = np.stack([
        np.column_stack([np.ones_like(eps)]
                        + [np.exp(-c / eps) * eps ** (j / 2.0) for j in range(0, 4)])
        for c in rates
    ])
    sol, resid = _lstsq(x, vals)
    for k in range(len(rates)):
        norms = np.linalg.norm(x[k], axis=0)
        ref, *_ = np.linalg.lstsq(x[k] / norms, vals, rcond=None)
        ref_resid = np.linalg.norm(vals - (x[k] / norms) @ ref)
        assert resid[k] == pytest.approx(ref_resid, rel=1e-6)
        assert sol[k, 0] == pytest.approx(ref[0] / norms[0], rel=1e-9)


def _unit(space):
    return EquivariantForm.scalar(
        space.chart_id, space.ambient_dim, space.algebra.dim, 1.0
    )


def _Phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _phi(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def test_global_convergence_matches_the_closed_form():
    # cn_u1(2,1), t = 0: with m = |mu| signed along the level (m = (s - 1)/2,
    # s = |z|^2), BI(1, r, 0) = pi [Phi(m+/sig) - Phi(m-/sig)]
    # + 2 pi sig [phi(m-/sig) - phi(m+/sig)], sig = sqrt(eps), on
    # m+ = sqrt(r), m- = max(-sqrt(r), -1/2) (s >= 0 cuts the slab at -1/2)
    eps = 0.05
    sig = math.sqrt(eps)
    sp = catalog("cn_u1", n=2, a=1.0)
    rep = global_convergence_check(sp, _unit(sp), (0.36, 0.64, 1.0, 1.44), eps)
    for r, (re, im) in zip(rep["r_grid"], rep["values"]):
        hi, lo = math.sqrt(r) / sig, max(-math.sqrt(r), -0.5) / sig
        exact = math.pi * (_Phi(hi) - _Phi(lo)) + 2 * math.pi * sig * (_phi(lo) - _phi(hi))
        assert abs(re - exact) <= 1e-8 and im == 0.0
    assert rep["divergent"] is False and rep["within_bound"] is True
    # r -> infinity: m+ -> infinity
    h = 0.5 / sig
    limit = math.pi * (_Phi(h) + 2 * sig * _phi(h))
    assert abs(rep["limit"][0] - limit) <= rep["limit_error"]


def test_damping_check_meets_its_bound():
    sp = catalog("cn_u1", n=1, a=1.0)
    rep = damping_check(sp, _unit(sp), 0.36, 0.1)
    assert rep["ok"] is True and rep["inconclusive"] is False
    assert rep["slope"] <= rep["bound"] == -0.5 * 0.1 * (1.0 - rep["slack"])


# ---------------------------------------------------------------------------
# batched Basic Integrals: the values and errors of a one-at-a-time loop
# ---------------------------------------------------------------------------


def test_fixed_t_sweep_points_are_the_one_at_a_time_values():
    sweep = _sweep("cn_u1(2,1)", 0.16, 0.0)
    sp = catalog("cn_u1", n=2, a=1.0)
    ref = seed_basic_integrals(sp, _unit(sp), [(0.16, e, 0.0) for e in sweep.epsilon_grid],
                               QuadratureScheme())
    assert [complex(v) for v in sweep.values] == [r.value for r in ref]
    assert sweep.provenance["point_errors"] == [r.error for r in ref]


def _first_failure(outs):
    return next(o for o in outs if isinstance(o, AccuracyError))


def _same_carried_data(got, want):
    """The partial values of two AccuracyErrors agree as a batch member
    agrees with its one-at-a-time evaluation at t > 0, to 1e-15 relative,
    and their estimates, the gap between two such values, to twice that."""
    scale = abs(want.partial)
    assert abs(got.partial - want.partial) <= 1e-15 * scale
    assert abs(got.estimate - want.estimate) <= 2e-15 * scale


_SHALLOW = QuadratureScheme(max_level=1)
# on cn_u1(1,1) at r = 0.36 this settles BI at each sized t* but not at
# 1.5 t*; max_level does not move the boundary pairing, so the same
# scheme at max_level 3 reports the sized t this one evaluates
_SETTLES_T_STAR = QuadratureScheme(rel_tol=1e-4, base_radial=16, max_level=1)


def test_large_t_limit_raises_the_first_failing_point():
    sp = catalog("cn_u1", n=1, a=1.0)
    _, diag = large_t_limit(sp, _unit(sp), 0.36, 0.1, replace(_SETTLES_T_STAR, max_level=3))
    ref = seed_basic_integrals(sp, _unit(sp), [(0.36, 0.1, t) for t in diag["t_values"]],
                               _SETTLES_T_STAR)
    assert not isinstance(ref[0], AccuracyError)  # the failure is not the first point
    with pytest.raises(AccuracyError) as exc:
        large_t_limit(sp, _unit(sp), 0.36, 0.1, quadrature=_SETTLES_T_STAR)
    want = _first_failure(ref)
    assert str(exc.value) == str(want)
    _same_carried_data(exc.value, want)


@pytest.mark.parametrize("index", [0, 1])
def test_contribution_raises_the_first_failing_point(index):
    # t-major at the first epsilon, the upper probe before the lower one;
    # max_level does not move the boundary pairing, so the default scheme
    # reports the sized t a max_level 1 run evaluates
    sp = catalog("cn_u1", n=1, a=1.0)
    comps = find_critical_points(sp, 1.0)
    below, above = critical_values(comps)[1][index]
    sized = contribution(sp, _unit(sp), index, [0.05, 0.1], components=comps)
    points = [(rad, 0.05, t) for t in sized.diagnostics["limits"][0]["t_values"]
              for rad in (above, below) if rad is not None]
    want = _first_failure(seed_basic_integrals(sp, _unit(sp), points, _SHALLOW))
    with pytest.raises(AccuracyError) as exc:
        contribution(sp, _unit(sp), index, [0.05, 0.1], components=comps,
                     quadrature=_SHALLOW)
    assert str(exc.value) == str(want)


# ---------------------------------------------------------------------------
# where a contribution takes its critical values from
# ---------------------------------------------------------------------------

_CONTRIBUTION_SPACES = ["cn_u1(1,1)", "cn_u1(2,1)", "weighted_cn_u1(2,(1,2),1)"]
_SHORT_T = (0.0, 1.0, 4.0, 16.0, 64.0)


def _outcome(call):
    """What a contribution call ended with, exactly: the record's numbers
    and diagnostics, or the error's type, message and carried data."""
    import json

    from symloc.liealg import NonConvergenceError

    try:
        rec = call()
    except (AccuracyError, NonConvergenceError) as exc:
        data = getattr(exc, "report", None) or [getattr(exc, "partial", None),
                                                getattr(exc, "estimate", None)]
        return type(exc).__name__, str(exc), repr(data)
    return (
        [(complex(v).real.hex(), complex(v).imag.hex()) for v in rec.values],
        rec.critical_value, rec.probes,
        json.dumps(rec.diagnostics, sort_keys=True, default=repr),
        json.dumps(rec.provenance, sort_keys=True),
    )


def _counted_search(monkeypatch):
    import symloc.analysis as A

    calls = []
    search = A.find_critical_points

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(A, "find_critical_points", counted)
    return calls


@pytest.mark.parametrize("name", _CONTRIBUTION_SPACES)
def test_default_contribution_takes_the_catalog_values(name, monkeypatch):
    # no search, and the same outcome, bit for bit, as the search's values
    sp = catalog_from_string(name)
    calls = _counted_search(monkeypatch)
    got = _outcome(lambda: contribution(sp, _unit(sp), 0, [0.05, 0.1], t_grid=_SHORT_T))
    assert calls == []
    comps = find_critical_points(sp, 1.0)
    assert got == _outcome(lambda: contribution(sp, _unit(sp), 0, [0.05, 0.1],
                                                t_grid=_SHORT_T, components=comps))


def test_contribution_with_r_max_runs_the_search(monkeypatch):
    sp = catalog_from_string("cn_u1(1,1)")
    calls = _counted_search(monkeypatch)
    rec = contribution(sp, _unit(sp), 0, [0.05, 0.1], t_grid=_SHORT_T, r_max=1.0)
    assert len(calls) == 1
    assert rec.provenance["r_max"] == 1.0
    assert rec.provenance["critical_values"] == [0.0, 0.25]


# ---------------------------------------------------------------------------
# the lockstep refinement against one rate window at a time
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _window_at_a_time(eps, vals, dmax):
    """The fit with one golden-section search per tail window, each rate
    scored in its own solve, and the wide window tried only when the
    residual floor is missed: the refinement the lockstep replaced, kept
    as the reference."""
    eps = np.asarray(eps, float)
    vals = np.asarray(vals, complex)
    scale = max(1.0, float(np.max(np.abs(vals))))
    base = A._split_hierarchy(eps, vals, dmax)
    stages = dict(c_init=base["c"], q_init=base["q"],
                  split=dict(iterations=base["iterations"], converged=base["converged"]))
    powers = np.vander(eps, dmax + 1, increasing=True)
    if base["c"] <= 0 or float(np.max(np.abs(base["tail"]))) < 1e-12 * scale:
        poly, *_ = np.linalg.lstsq(powers, vals, rcond=None)
        return dict(poly=poly, c=0.0, jpow=(), amps=np.zeros(0, complex), **stages)
    j0 = min(max(int(round(2 * base["q"])), -1), 3)
    c_lo, c_hi = base["c"] / 1.6, base["c"] * 1.6

    def solve_window(jpow):
        half = np.column_stack([eps ** (j / 2.0) for j in jpow])

        def design(c):
            tail = np.exp(-np.divide.outer(c, eps))[..., None] * half
            poly = np.broadcast_to(powers, tail.shape[:-1] + powers.shape[-1:])
            return np.concatenate([poly, tail], axis=-1)

        def resid(c):
            return float(_lstsq(design(c), vals)[1])

        cands = np.geomspace(c_lo, c_hi, 25)
        best = cands[int(np.argmin(_lstsq(design(cands), vals)[1]))]
        lo, hi = max(best / 1.2, c_lo), min(best * 1.2, c_hi)
        m1, m2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
        r1, r2 = resid(m1), resid(m2)
        for _ in range(35):
            if r1 < r2:
                hi, m2, r2 = m2, m1, r1
                m1 = hi - _GOLDEN * (hi - lo)
                r1 = resid(m1)
            else:
                lo, m1, r1 = m1, m2, r2
                m2 = lo + _GOLDEN * (hi - lo)
                r2 = resid(m2)
        if r1 < r2:
            hi = m2
        else:
            lo = m1
        c = 0.5 * (lo + hi)
        sol, r = _lstsq(design(c), vals)
        return c, sol, float(r)

    windows = []
    for lo_j in (j0, max(j0 - 1, -1)):
        w = tuple(range(lo_j, lo_j + 4))
        if w not in windows:
            windows.append(w)
    picked = None
    for w in windows:
        c, sol, r = solve_window(w)
        if picked is None or r < picked[3]:
            picked = (w, c, sol, r)
    wide = tuple(range(max(j0 - 1, -1), j0 + 4))
    if len(wide) > 4 and picked[3] > 25 * len(eps) * 1e-15 * scale:
        c, sol, r = solve_window(wide)
        if r < picked[3] / 3.0:
            picked = (wide, c, sol, r)
    jpow, c, sol, _ = picked
    return dict(poly=sol[: dmax + 1], c=c, jpow=jpow, amps=sol[dmax + 1 :], **stages)


class _Captured(Exception):
    pass


def _points(name, r, t, grid=None):
    """The unfitted sweep epsilon_sweep hands to fit_poly_plus_tail,
    captured at that call, once per module."""
    key = ("points", name, r, t, grid)
    if key not in _SWEEPS:
        seen = []

        def capture(sweep, *args):
            seen.append(sweep)
            raise _Captured

        space = catalog_from_string(name)
        with mock.patch.object(A, "fit_poly_plus_tail", capture), pytest.raises(_Captured):
            epsilon_sweep(space, _unit(space), r=r, t_policy=t, grid=grid, poly_degree_max=0)
        _SWEEPS[key] = seen[0]
    return _SWEEPS[key]


def _benchmark_inputs(seed):
    """(r, eps grid) of the benchmark's eps_sweep: seed 0 is r = 0.16 on
    the default grid; any other seed scales r and the grid each by an
    independent factor in [0.95, 1.05], drawn in that order."""
    rng = random.Random(seed)
    r, scale = (0.16 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0)),
                1.0 + 0.05 * rng.uniform(-1.0, 1.0)) if seed else (0.16, 1.0)
    return r, tuple(float(e) * scale for e in A.DEFAULT_EPSILON_GRID)


# (space, r, t, grid, degree): the degree-0 oracle sweeps, both strict
# xfails (r = 0.09; degree 1), the c2_su2 refusal, r = 0.2, and the
# benchmark's eps_sweep at seeds 0 and 5
_REFERENCE_SWEEPS = [
    ("cn_u1(2,1)", 0.16, 0.0, None, 0),
    ("cn_u1(2,1)", 0.2, 0.0, None, 0),
    ("cn_u1(2,1)", 0.09, 0.0, None, 0),
    ("cn_u1(2,1)", 0.16, 0.0, None, 1),
    ("cn_u1(1,1)", 0.16, 4.0, None, 0),
    ("weighted_cn_u1(2,(1,2),1)", 0.16, 0.0, None, 0),
    ("c2_su2", 0.04, 0.0, None, 0),
    ("cn_u1(2,1)", _benchmark_inputs(0)[0], 0.0, _benchmark_inputs(0)[1], 0),
    ("cn_u1(2,1)", _benchmark_inputs(5)[0], 0.0, _benchmark_inputs(5)[1], 0),
]
_REFERENCE_IDS = ["pi", "r0.2", "r0.09", "degree1", "single-plane-t4", "weighted",
                  "c2_su2", "benchmark-seed0", "benchmark-seed5"]


def _fit_outcome(sweep, degree):
    try:
        poly, _, report = fit_poly_plus_tail(sweep, degree)
    except DecompositionError as exc:
        return type(exc).__name__, str(exc), exc.report
    return "fitted", poly, report


@pytest.mark.parametrize("case", _REFERENCE_SWEEPS, ids=_REFERENCE_IDS)
def test_lockstep_refinement_matches_one_window_at_a_time(case):
    # Zero padding changes the solves at roundoff, and near its minimum the
    # residual is flat to roundoff over a few final golden brackets
    # (~1e-8 c wide), so each rate is pinned to 1e-7 relative.  What the
    # fit reports is pinned tighter: the returned polynomial, the drift and
    # every refusal's message.
    name, r, t, grid, degree = case
    sweep = _points(name, r, t, grid)
    eps = np.asarray(sweep.epsilon_grid)
    vals = np.asarray(sweep.values, complex)
    scale = max(1.0, float(np.max(np.abs(vals))))
    n_drop = max(2, eps.size // 6)
    datasets = [(eps, vals), (eps[:-n_drop], vals[:-n_drop])]
    fits, _ = A._fit_decompositions(datasets, degree)
    for fit, (e, v) in zip(fits, datasets):
        ref = _window_at_a_time(e, v, degree)
        assert fit["jpow"] == ref["jpow"]
        assert fit["c"] == pytest.approx(ref["c"], rel=1e-7)

    got = _fit_outcome(sweep, degree)
    with mock.patch.object(A, "_fit_decompositions", lambda data, dmax: (
            [_window_at_a_time(e, v, dmax) for e, v in data], None)):
        want = _fit_outcome(sweep, degree)
    assert got[0] == want[0]
    if got[0] == "fitted":
        assert np.max(np.abs(got[1] - want[1])) <= 1e-10 * scale
        assert got[2]["tail_powers"] == want[2]["tail_powers"]
        drift = got[2]["stability"]["coefficient_drift"]
        assert drift == pytest.approx(want[2]["stability"]["coefficient_drift"], abs=1e-10)
    else:
        assert got[1] == want[1]


def test_lstsq_ignores_zero_padding():
    # a design of the pi sweep with too few tail columns to fit to roundoff,
    # padded with zero rows (design and vals) and zero columns
    sweep = _sweep("cn_u1(2,1)", 0.16, 0.0)
    eps = np.asarray(sweep.epsilon_grid)
    vals = np.asarray(sweep.values, complex)
    x = np.column_stack([np.ones_like(eps), np.exp(-0.08 / eps), np.exp(-0.08 / eps) * eps])
    sol, resid = _lstsq(x, vals)
    assert resid > 1e-6  # a residual well above roundoff, so a relative check means something
    padded = np.zeros((eps.size + 4, 5))
    padded[: eps.size, :3] = x
    padded_vals = np.concatenate([vals, np.zeros(4, complex)])
    stack = np.stack([padded, padded])  # and as members of a stack
    for got, got_resid in [_lstsq(padded, padded_vals), _lstsq(stack, padded_vals)]:
        got, got_resid = np.reshape(got, (-1, 5)), np.ravel(got_resid)
        np.testing.assert_allclose(got[:, :3], np.broadcast_to(sol, (len(got), 3)),
                                   rtol=1e-10, atol=0)
        assert np.all(got[:, 3:] == 0.0)
        np.testing.assert_allclose(got_resid, resid, rtol=1e-13, atol=0)


def test_refinement_is_38_stacked_solves_for_any_number_of_searches():
    # a tail with prefactor eps^(-1/2) has a single 4-power window; the pi
    # sweep has two centered windows and the wide one, per dataset
    eps = np.asarray(A.DEFAULT_EPSILON_GRID)
    lone = 2.0 + 0.3 * np.exp(-0.1 / eps) / np.sqrt(eps) + 0j
    pi = np.asarray(_sweep("cn_u1(2,1)", 0.16, 0.0).values, complex)
    flat = np.full(eps.size, 2.0 + 0j)  # no tail: no search
    counts = {}
    for label, data in [("lone", [lone]), ("pi", [pi]), ("pi+lone", [pi, lone]),
                        ("pi+refit", [pi, pi[:-4]]), ("flat", [flat])]:
        _, refinement = A._fit_decompositions([(eps[: len(v)], v) for v in data], 0)
        counts[label] = refinement["searches"], refinement["stacked_solves"]
    assert counts == {"lone": (1, 38), "pi": (3, 38), "pi+lone": (4, 38),
                      "pi+refit": (6, 38), "flat": (0, 0)}
    report = _sweep("cn_u1(2,1)", 0.16, 0.0).provenance["fit"]
    assert json.loads(json.dumps(report))["refinement"] == {"searches": 6, "stacked_solves": 38}


# ---------------------------------------------------------------------------
# the extrapolated sweep's t grid
# ---------------------------------------------------------------------------

_DEEP = QuadratureScheme(max_level=6)
_LONG_T = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def _annulus_limit(eps):
    """lim_t BI(1, 0.36, t) on cn_u1(1,1): the region reaches the origin,
    so the limit is the Gaussian mass of mu = (|z|^2 - 1)/2 above -1/2."""
    return 0.5 * (1.0 + math.erf(1.0 / (2.0 * math.sqrt(2.0 * eps))))


@pytest.mark.parametrize("t_grid", [np.array([0.0, 1.0]), (), [0.0, 2.0, 1.0], [-1.0, 0.0, 1.0]],
                         ids=["too-short", "empty", "descending", "negative"])
def test_contribution_refuses_a_bad_t_grid_before_integrating(t_grid):
    sp = catalog_from_string("cn_u1(1,1)")
    with mock.patch.object(A, "basic_integral_batch") as batch, pytest.raises(InputError):
        contribution(sp, _unit(sp), 0, [0.05, 0.1], t_grid=t_grid)
    assert batch.call_count == 0


# ---------------------------------------------------------------------------
# the localization terms of cn_u1(1,1) against their closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_annulus_large_t_limit_is_the_closed_form(eps):
    sp = catalog_from_string("cn_u1(1,1)")
    limit, _ = large_t_limit(sp, _unit(sp), 0.36, eps, _DEEP)
    assert abs(complex(limit) - _annulus_limit(eps)) <= 1e-10


@pytest.mark.parametrize("index, kwargs", [
    pytest.param(0, {"t_grid": _LONG_T, "quadrature": _DEEP}, id="0"),
    pytest.param(1, {"t_grid": _LONG_T, "quadrature": _DEEP}, id="1"),
    pytest.param(0, {}, id="default-0"),
    pytest.param(1, {}, id="default-1"),
])
def test_annulus_contributions_are_the_closed_forms(index, kwargs):
    # C_0 = 1 (the Kirwan integral of the point M_red), and the critical
    # value 1/4 (the origin) contributes C_1 = -erfc(1/(2 sqrt(2 eps)))/2,
    # so C_0 + C_1 is the large-t limit; the default arguments size each
    # row's t from its own rate bound
    sp = catalog_from_string("cn_u1(1,1)")
    eps = [0.05, 0.1]
    rec = contribution(sp, _unit(sp), index, eps, **kwargs)
    exact = [1.0 if index == 0 else -0.5 * math.erfc(1.0 / (2.0 * math.sqrt(2.0 * e)))
             for e in eps]
    assert len(rec.values) == 2
    for v, x in zip(rec.values, exact):
        assert abs(complex(v) - x) <= 1e-10


def _whole_region_limit(name, eps):
    """lim_t BI(1, r, t) for r above the critical value 1/4, where the
    region reaches the origin: on cn_u1(1,1) the Gaussian mass of mu
    above -1/2; on cn_u1(2,1) pi (Phi(1/sigma) + sigma phi(1/sigma)) with
    sigma = 2 sqrt(eps); half of that on weighted_cn_u1(2,(1,2),1)."""
    if name == "cn_u1(1,1)":
        return _annulus_limit(eps)
    sigma = 2.0 * math.sqrt(eps)
    phi = math.exp(-0.5 / sigma**2) / math.sqrt(2.0 * math.pi)
    full = math.pi * (0.5 * math.erfc(-1.0 / (sigma * math.sqrt(2.0))) + sigma * phi)
    return full if name == "cn_u1(2,1)" else full / 2.0


def _sized_limit_exact(name, r, eps):
    """The closed form of lim_t BI(1, r, t): below the first positive
    critical value 1/4 the reduced integral, 1, pi or pi/2; above it the
    whole-region forms; on c2_su2, where mu^{-1}(0) is the origin and the
    only critical value is 0, (2 pi)^{-3/2} eps^{-1/2} at every r."""
    if name == "c2_su2":
        return (2.0 * math.pi) ** -1.5 / math.sqrt(eps)
    if r > 0.25:
        return _whole_region_limit(name, eps)
    return {"cn_u1(1,1)": 1.0, "cn_u1(2,1)": math.pi,
            "weighted_cn_u1(2,(1,2),1)": math.pi / 2.0}[name]


_SIZED_CASES = [(name, r, eps)
                for name, radii in [("cn_u1(1,1)", (0.16, 0.36)), ("cn_u1(2,1)", (0.16, 0.36)),
                                    ("weighted_cn_u1(2,(1,2),1)", (0.16, 0.36)),
                                    ("c2_su2", (0.04, 0.36))]
                for r in radii for eps in (0.05, 0.1)]


@pytest.mark.parametrize("name, r, eps", _SIZED_CASES)
def test_sized_large_t_limit_is_the_closed_form(name, r, eps):
    # evaluated at t* = sqrt(37 / rho) from the measured rate bound rho
    # and confirmed at 1.5 t*; the parent's default t grid stopped at 16
    sp = catalog_from_string(name)
    limit, diag = large_t_limit(sp, _unit(sp), r, eps)
    t_star = math.sqrt(37.0 / diag["rate_bound"])
    assert diag["t_values"] == [t_star, 1.5 * t_star]
    assert diag["plateau_gap"] < diag["tolerance"]
    assert abs(complex(limit) - _sized_limit_exact(name, r, eps)) <= 1e-10


@pytest.mark.parametrize("name", _CONTRIBUTION_SPACES)
def test_extrapolated_sweep_below_the_first_critical_value_is_the_kirwan_value(name):
    # at r = 0.16 only the critical value 0 lies inside, so every sized
    # large-t limit is the reduced integral, at every eps of the default grid
    from symloc.reduced import kirwan_integral, zero_level

    sp = catalog_from_string(name)
    exact = {"cn_u1(1,1)": 1.0, "cn_u1(2,1)": math.pi,
             "weighted_cn_u1(2,(1,2),1)": math.pi / 2.0}[name]
    sweep = epsilon_sweep(sp, _unit(sp), 0.16, "extrapolated")
    level = zero_level(sp)
    for e, v in zip(sweep.epsilon_grid, sweep.values):
        kirwan = kirwan_integral(_unit(sp), level, e).value
        assert abs(complex(v) - kirwan) <= 1e-10
        assert abs(complex(v) - exact) <= 1e-10
    assert abs(sweep.poly_coeffs[0] - exact) <= 1e-10


# ---------------------------------------------------------------------------
# every large-t limit is one batch under one plateau rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("call,passes", [
    (lambda sp: large_t_limit(sp, _unit(sp), 0.36, 0.1), 1),
    (lambda sp: contribution(sp, _unit(sp), 0, [0.05, 0.1]), 2),
    (lambda sp: contribution(sp, _unit(sp), 1, [0.05, 0.1]), 4),
    (lambda sp: epsilon_sweep(sp, _unit(sp), 0.36, "extrapolated"), 1),
], ids=["large_t_limit", "contribution-0", "contribution-1", "extrapolated-sweep"])
def test_each_large_t_call_is_one_batch(call, passes):
    # one boundary-pairing pass per distinct probe radius, the perturbed
    # probes of a contribution included, whatever the number of epsilons
    sp = catalog_from_string("cn_u1(1,1)")
    batch = mock.patch.object(A, "basic_integral_batch", wraps=A.basic_integral_batch)
    pairing = mock.patch.object(A, "_boundary_gauge_pairing", wraps=A._boundary_gauge_pairing)
    with batch as batches, pairing as pairings:
        call(sp)
    assert (batches.call_count, pairings.call_count) == (1, passes)


def test_extrapolated_sweep_points_are_the_large_t_limits():
    sp = catalog_from_string("cn_u1(1,1)")
    sweep = epsilon_sweep(sp, _unit(sp), 0.36, "extrapolated")
    assert len(sweep.epsilon_grid) == len(A.DEFAULT_EPSILON_GRID)
    for e, v, err, diag in zip(sweep.epsilon_grid, sweep.values,
                               sweep.provenance["point_errors"],
                               sweep.provenance["t_diagnostics"]):
        limit, want = large_t_limit(sp, _unit(sp), 0.36, e)
        assert (complex(v).real.hex(), complex(v).imag.hex()) == (
            complex(limit).real.hex(), complex(limit).imag.hex())
        assert err == want["plateau_gap"] + max(want["point_errors"])
        assert json.dumps(diag, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_extrapolated_sweep_raises_the_first_failing_point():
    # eps-major, t-major: the order of a one-eps-at-a-time loop
    sp = catalog_from_string("cn_u1(1,1)")
    grid = (0.1, 0.15, 0.2)
    with pytest.warns(UserWarning, match="fit skipped"):
        sized = epsilon_sweep(sp, _unit(sp), 0.36, "extrapolated", grid=grid,
                              quadrature=replace(_SETTLES_T_STAR, max_level=3))
    points = [(0.36, d["epsilon"], t) for d in sized.provenance["t_diagnostics"]
              for t in d["t_values"]]
    ref = seed_basic_integrals(sp, _unit(sp), points, _SETTLES_T_STAR)
    assert not isinstance(ref[0], AccuracyError)  # the failure is not the first point
    with pytest.raises(AccuracyError) as exc:
        epsilon_sweep(sp, _unit(sp), 0.36, "extrapolated", grid=grid,
                      quadrature=_SETTLES_T_STAR)
    want = _first_failure(ref)
    assert str(exc.value) == str(want)
    _same_carried_data(exc.value, want)


_LIMIT_REPORT_KEYS = {"t_values", "values", "point_errors", "plateau_gap", "tolerance",
                      "epsilon", "rate_bound", "gauge_pairing", "shift_magnitude"}


_MISSING_PLATEAUS = {
    "contribution": (
        lambda sp: contribution(sp, _unit(sp), 0, [0.05, 0.1],
                                t_grid=(0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)),
        "contribution 0 has not reached its large-t plateau at eps=0.1: "),
    "perturbed-probes": (
        lambda sp: contribution(sp, _unit(sp), 1, [0.05, 0.1], t_grid=_SHORT_T, quadrature=_DEEP),
        "contribution 1 at the perturbed probes r=0.175, r=0.3625 has not reached "
        "its large-t plateau at eps=0.1: "),
}


@pytest.mark.parametrize("case", list(_MISSING_PLATEAUS))
def test_every_missing_plateau_raises_one_error_format(case):
    # only an explicit t grid can stop short of the plateau
    call, prefix = _MISSING_PLATEAUS[case]
    with pytest.raises(NonConvergenceError) as exc:
        call(catalog_from_string("cn_u1(1,1)"))
    report = exc.value.report
    assert set(report) == _LIMIT_REPORT_KEYS
    t_prev, t_last = report["t_values"][-2:]
    assert str(exc.value) == (
        f"{prefix}it moved by {report['plateau_gap']:.3g} from t={t_prev:g} to "
        f"t={t_last:g}, tolerance {report['tolerance']:.3g}. The boundary term "
        f"decays like exp(-t^2 {report['rate_bound']:.3g})")
    last, prev = (complex(*v) for v in report["values"][:-3:-1])
    assert report["plateau_gap"] == abs(last - prev) >= report["tolerance"]
    assert report["epsilon"] == 0.1


# ---------------------------------------------------------------------------
# JSON export
# ---------------------------------------------------------------------------


def _round_trip(record):
    """The record's JSON text read back, after checking it is the record's
    dict, and its values and eps grid back as the record holds them."""
    rec = json.loads(json.dumps(record.to_json_dict(), sort_keys=True))
    assert rec == record.to_json_dict()
    assert [complex(re, im) for re, im in rec["values"]] == [complex(v) for v in record.values]
    assert rec["epsilon_grid"] == list(record.epsilon_grid)
    return rec


def test_fixed_t_sweep_json_round_trips():
    sweep = _sweep("cn_u1(2,1)", 0.16, 0.0)
    rec = _round_trip(sweep)
    assert rec["provenance"]["t_policy"] == {"kind": "fixed", "t": 0.0}
    assert rec["tail_rate"] == sweep.tail_rate
    assert [complex(*c) for c in rec["poly_coeffs"]] == list(sweep.poly_coeffs)
    assert [complex(*c) for c in rec["residuals"]] == list(sweep.residuals)


def test_extrapolated_sweep_json_round_trips():
    sp = catalog_from_string("cn_u1(1,1)")
    grid = (0.05, 0.1)
    with pytest.warns(UserWarning, match="fit skipped"):
        sweep = epsilon_sweep(sp, _unit(sp), 0.36, "extrapolated", grid=grid)
    rec = _round_trip(sweep)
    assert rec["epsilon_grid"] == list(grid)
    assert rec["poly_coeffs"] is None and rec["residuals"] is None
    assert rec["provenance"]["t_policy"] == {"kind": "extrapolated"}
    assert [d["epsilon"] for d in rec["provenance"]["t_diagnostics"]] == list(grid)


def test_contribution_json_round_trips():
    sp = catalog_from_string("cn_u1(1,1)")
    rec = contribution(sp, _unit(sp), 1, [0.05, 0.1], t_grid=_LONG_T, quadrature=_DEEP)
    out = _round_trip(rec)
    assert out["probes"] == list(rec.probes)
    assert out["critical_value"] == rec.critical_value == 0.25
    # each limit is the last difference of its t table
    limits = out["diagnostics"]["limits"]
    assert len(limits) == len(rec.epsilon_grid)
    for limit, v in zip(limits, rec.values):
        assert limit["t_values"] == list(_LONG_T)
        assert len(limit["values"]) == len(_LONG_T)
        assert limit["values"][-1] == A._reim(v)


def test_integral_result_json_round_trips():
    from symloc.fields import coord
    from symloc.integrate import boundary_integral

    sp = catalog_from_string("cn_u1(1,1)")
    beta = EquivariantForm.dx(sp.chart_id, 2, 1, 1, coord(0))  # x dy
    res = boundary_integral(sp, beta, 0.16)
    rec = res.to_json_dict()
    assert json.loads(json.dumps(rec)) == rec
    assert complex(*rec["value"]) == res.value
    assert (rec["error"], rec["n_nodes"], rec["level"]) == (res.error, res.n_nodes, res.level)
    assert rec["scheme"] == QuadratureScheme().to_json_dict()


# ---------------------------------------------------------------------------
# non-finite inputs
# ---------------------------------------------------------------------------


def _non_finite_calls():
    from symloc.integrate import (
        BasicIntegralRequest,
        basic_integral,
        _LevelChart,
        check_regular_radius,
        pairing_alpha,
        sgi_values,
    )
    from symloc.reduced import kirwan_integral, zero_level

    nan, inf = math.nan, math.inf
    sp = catalog_from_string("cn_u1(1,1)")
    one = _unit(sp)

    def bi(r=0.36, epsilon=0.05, t=0.0):
        return lambda: basic_integral(BasicIntegralRequest(space=sp, alpha=one, r=r,
                                                           epsilon=epsilon, t=t))

    return {
        "basic_integral r=nan": bi(r=nan),
        "basic_integral r=inf": bi(r=inf),
        "basic_integral eps=nan": bi(epsilon=nan),
        "basic_integral eps=inf": bi(epsilon=inf),
        "basic_integral t=nan": bi(t=nan),
        "basic_integral t=inf": bi(t=inf),
        "check_regular_radius nan": lambda: check_regular_radius(sp, nan),
        "level chart s=nan": lambda: _LevelChart((1,), nan, 4, 16),
        "level chart s=inf": lambda: _LevelChart((1,), inf, 4, 16),
        "sgi_values eps=nan": lambda: sgi_values(sp.algebra, (0,), np.zeros((2, 1)), nan),
        "sgi_values eps row inf": lambda: sgi_values(sp.algebra, (0,), np.zeros((2, 1)),
                                                     np.array([0.1, inf])),
        "kirwan_integral eps=nan": lambda: kirwan_integral(one, zero_level(sp), nan),
        "contribution eps=inf": lambda: contribution(sp, one, 0, [0.05, inf]),
        "find_critical_points nan": lambda: find_critical_points(sp, nan),
        "plateau t grid nan": lambda: A._plateau_t_grid([0.0, nan, 1.0]),
        "plateau t grid inf": lambda: A._plateau_t_grid([0.0, 1.0, inf]),
        "ascending grid nan": lambda: A._ascending_grid([0.02, nan, 0.1], "epsilon grid"),
        "fixed-t sweep t=nan": lambda: epsilon_sweep(sp, one, 0.36, nan),
        "fixed-t sweep t=inf": lambda: epsilon_sweep(sp, one, 0.36, inf),
        "SweepResult eps=nan": lambda: A.SweepResult(epsilon_grid=(nan,), values=[1.0]),
        "SweepResult eps=inf": lambda: A.SweepResult(epsilon_grid=(0.05, inf),
                                                     values=[1.0, 1.0]),
        "ContributionRecord probe inf": lambda: A.ContributionRecord(
            index=0, critical_value=0.0, probes=(None, inf), epsilon_grid=(0.05,),
            values=[1.0]),
        "ContributionRecord critical value nan": lambda: A.ContributionRecord(
            index=0, critical_value=nan, probes=(None, 0.1), epsilon_grid=(0.05,),
            values=[1.0]),
        "ContributionRecord eps=nan": lambda: A.ContributionRecord(
            index=0, critical_value=0.0, probes=(None, 0.1), epsilon_grid=(nan,),
            values=[1.0]),
        "pairing_alpha nan": lambda: pairing_alpha(sp, [nan]),
        "pairing_alpha inf": lambda: pairing_alpha(sp, np.array([-inf])),
    }


@pytest.mark.parametrize("case", list(_non_finite_calls()))
def test_non_finite_inputs_are_refused(case):
    with pytest.raises(InputError, match="finite"):
        _non_finite_calls()[case]()


def _non_real_calls():
    """Scalars and grids that are not real numbers (kirwan_integral's eps:
    tests/test_reduced.py).  A string or None raised an untyped TypeError
    from the range check, an array a ValueError, and True ran as 1.0; a
    grid entry that is not a real raised ValueError or TypeError from the
    float conversion, or passed as the number a string spells, and a
    nested grid ran or failed untyped."""
    from symloc.integrate import (
        BasicIntegralRequest,
        basic_integral_batch,
        boundary_integral,
        boundary_surfaces,
        check_regular_radius,
        pairing_alpha,
        sgi_values,
    )

    sp = catalog_from_string("cn_u1(1,1)")
    one = _unit(sp)
    calls = {}
    for v in ("0.1", None, np.array([0.1]), True):
        for name in ("r", "epsilon", "t"):
            kw = {"r": 0.36, "epsilon": 0.05, "t": 0.0, name: v}
            calls[f"BasicIntegralRequest {name}={v!r}"] = (
                lambda kw=kw: BasicIntegralRequest(space=sp, alpha=one, **kw))
            point = (kw["r"], kw["epsilon"], kw["t"])
            calls[f"basic_integral_batch {name}={v!r}"] = (
                lambda point=point: basic_integral_batch(sp, one, [point]))
    for v in ("0.36", None, True):
        calls.update({
            f"check_regular_radius r={v!r}": lambda v=v: check_regular_radius(sp, v),
            f"find_critical_points r_max={v!r}": lambda v=v: find_critical_points(sp, v),
            f"boundary_surfaces r={v!r}": lambda v=v: boundary_surfaces(sp, v),
        })
    grids = {"'a' entry": ["a"], "string entry": [0.05, "0.1"], "nested": [[0.05, 0.1]],
             "bool entry": [0.05, True], "2-D array": np.array([[0.05, 0.1]])}
    t_grids = {"'a' entry": [0.0, 1.0, "a"], "nested": [[0.0, 1.0, 2.0]],
               "2-D array": np.array([[0.0, 1.0, 2.0]])}
    calls.update({
        "boundary_integral r=None": lambda: boundary_integral(sp, sp.omega, None),
        "large_t_limit r='0.36'": lambda: large_t_limit(sp, one, "0.36", 0.1),
        "epsilon_sweep r='0.36'": lambda: epsilon_sweep(sp, one, "0.36"),
        "epsilon_sweep t_policy=True": lambda: epsilon_sweep(sp, one, 0.36, True),
        "epsilon_sweep t_policy=None": lambda: epsilon_sweep(sp, one, 0.36, None),
        "contribution epsilon='0.1'": lambda: contribution(sp, one, 0, "0.1"),
        "contribution r_max='1.0'": lambda: contribution(sp, one, 0, 0.05, r_max="1.0"),
        "damping_check s='0.1'": lambda: damping_check(sp, one, 0.36, "0.1"),
        "damping_check r=None": lambda: damping_check(sp, one, None, 0.1),
        "global_convergence_check epsilon='0.05'": lambda: global_convergence_check(
            sp, one, (0.36, 0.64, 1.0), "0.05"),
        "sgi_values eps=True": lambda: sgi_values(sp.algebra, (0,), np.zeros((2, 1)), True),
        "sgi_values eps rows bool": lambda: sgi_values(
            sp.algebra, (0,), np.zeros((2, 1)), np.array([True, True])),
        "SweepResult nested grid": lambda: A.SweepResult(
            epsilon_grid=[[0.05], [0.1, 0.2]], values=[1.0, 1.0]),
        "ContributionRecord eps='0.05'": lambda: A.ContributionRecord(
            index=0, critical_value=0.0, probes=(None, 0.1), epsilon_grid=("0.05",),
            values=[1.0]),
        "ContributionRecord critical value None": lambda: A.ContributionRecord(
            index=0, critical_value=None, probes=(None, 0.1), epsilon_grid=(0.05,),
            values=[1.0]),
        "ContributionRecord probe '0.1'": lambda: A.ContributionRecord(
            index=0, critical_value=0.0, probes=(None, "0.1"), epsilon_grid=(0.05,),
            values=[1.0]),
        "pairing_alpha ['a']": lambda: pairing_alpha(sp, ["a"]),
        "pairing_alpha [True]": lambda: pairing_alpha(sp, [True]),
    })
    for label, grid in grids.items():
        calls[f"epsilon_sweep grid {label}"] = (
            lambda grid=grid: epsilon_sweep(sp, one, 0.36, grid=grid))
        calls[f"contribution epsilon {label}"] = (
            lambda grid=grid: contribution(sp, one, 0, grid))
    for label, t_grid in t_grids.items():
        calls[f"contribution t_grid {label}"] = (
            lambda t_grid=t_grid: contribution(sp, one, 0, [0.05, 0.1], t_grid=t_grid))
    return calls


@pytest.mark.parametrize("case", list(_non_real_calls()))
def test_non_real_inputs_are_refused(case):
    with pytest.raises(InputError, match="must be a real number"):
        _non_real_calls()[case]()


def _wrong_object_calls():
    """Object arguments of the wrong type, each of which raised an untyped
    AttributeError (or, for a None that was iterated, TypeError) from deep
    inside the op: (the argument and type the refusal names, the call)."""
    from symloc.critical import critical_probes, local_model_check
    from symloc.forms import wedge
    from symloc.hamspace import (
        build_standard_model, eta_exprs, lambda_form, sample_points,
    )
    from symloc.integrate import (
        BasicIntegralRequest,
        basic_integral,
        basic_integral_batch,
        boundary_integral,
        boundary_surfaces,
        check_alpha,
        check_regular_radius,
        integrate_form_on_surface,
        known_critical_values,
        pairing_alpha,
        sgi_values,
    )
    from symloc.reduced import kirwan_integral, zero_level

    sp = catalog_from_string("cn_u1(1,1)")
    one = _unit(sp)
    alpha = ("alpha", "EquivariantForm", "int")
    space = ("space", "HamiltonianSpace", "NoneType")
    no_space = {
        "large_t_limit": lambda: large_t_limit(None, one, 0.36, 0.1),
        "epsilon_sweep": lambda: epsilon_sweep(None, one, 0.36),
        "damping_check": lambda: damping_check(None, one, 0.36, 0.1),
        "global_convergence_check": lambda: global_convergence_check(
            None, one, (0.36, 0.64, 1.0), 0.05),
        "check_regular_radius": lambda: check_regular_radius(None, 0.36),
        "known_critical_values": lambda: known_critical_values(None),
        "boundary_surfaces": lambda: boundary_surfaces(None, 0.36),
        "boundary_integral": lambda: boundary_integral(None, one, 0.36),
        "pairing_alpha": lambda: pairing_alpha(None, [1.0]),
        "check_alpha": lambda: check_alpha(None, one),
        "sample_points": lambda: sample_points(None, 4),
        "lambda_form": lambda: lambda_form(None),
        "eta_exprs": lambda: eta_exprs(None),
        "local_model_check": lambda: local_model_check(None, None),
    }
    return {
        **{f"{op} space=None": (space, call) for op, call in no_space.items()},
        "check_alpha alpha=1": (alpha, lambda: check_alpha(sp, 1)),
        "local_model_check component=None": (
            ("component", "CriticalComponent", "NoneType"), lambda: local_model_check(sp, None)),
        "fit_poly_plus_tail sweep=None": (("sweep", "SweepResult", "NoneType"),
                                          lambda: fit_poly_plus_tail(None)),
        "fit_poly_plus_tail sweep=1": (("sweep", "SweepResult", "int"),
                                       lambda: fit_poly_plus_tail(1, 0)),
        "basic_integral req=None": (("req", "BasicIntegralRequest", "NoneType"),
                                    lambda: basic_integral(None)),
        "critical_values components=[1]": (
            ("component", "CriticalComponent", "int"), lambda: critical_values([1])),
        "integrate_form_on_surface grid=None": (
            ("grid", "SurfaceGrid", "NoneType"), lambda: integrate_form_on_surface(None, {})),
        "sgi_values algebra=None": (("algebra", "LieAlgebraSpec", "NoneType"),
                                    lambda: sgi_values(None, (0,), [[0.0]], 0.1)),
        "wedge alpha=None": (("alpha", "EquivariantForm", "NoneType"), lambda: wedge(None, one)),
        "wedge beta=None": (("beta", "EquivariantForm", "NoneType"), lambda: wedge(one, None)),
        "catalog_from_string text=None": (("text", "str", "NoneType"),
                                          lambda: catalog_from_string(None)),
        "build_standard_model m=None": (("m", "StandardLocalModel", "NoneType"),
                                        lambda: build_standard_model(None)),
        "basic_integral alpha=1": (alpha, lambda: basic_integral(
            BasicIntegralRequest(space=sp, alpha=1, r=0.36, epsilon=0.05, t=0.0))),
        "basic_integral_batch alpha=1": (
            alpha, lambda: basic_integral_batch(sp, 1, [(0.36, 0.05, 0.0)])),
        "kirwan_integral alpha=1": (alpha, lambda: kirwan_integral(1, zero_level(sp), 0.05)),
        "kirwan_integral level=None": (("level", "ZeroLevelData", "NoneType"),
                                       lambda: kirwan_integral(_unit(sp), None, 0.05)),
        "large_t_limit alpha=1": (alpha, lambda: large_t_limit(sp, 1, 0.36, 0.1)),
        "epsilon_sweep alpha=1": (alpha, lambda: epsilon_sweep(sp, 1, 0.36)),
        "contribution alpha=1": (alpha, lambda: contribution(sp, 1, 0, 0.05)),
        "damping_check alpha=1": (alpha, lambda: damping_check(sp, 1, 0.36, 0.1)),
        "zero_level space=None": (("space", "HamiltonianSpace", "NoneType"),
                                  lambda: zero_level(None)),
        "find_critical_points space=None": (("space", "HamiltonianSpace", "NoneType"),
                                            lambda: find_critical_points(None, 1.0)),
    }


@pytest.mark.parametrize("case", list(_wrong_object_calls()))
def test_wrong_object_arguments_are_refused(case):
    (name, kind, got), call = _wrong_object_calls()[case]
    with mock.patch.object(A, "basic_integral_batch") as batch, pytest.raises(
            InputError, match=f"^{name} must be of type {kind}, got {got}$"):
        call()
    assert batch.call_count == 0


def test_critical_values_and_probes_take_any_iterable():
    """critical_values and critical_probes refuse what cannot be iterated
    (None raised TypeError from the loop) and a probe value that is not a
    real number; an array or a generator is as good as a list."""
    from symloc.critical import critical_probes

    for call in (lambda: critical_values(None), lambda: critical_probes(None)):
        with pytest.raises(InputError, match="^(components|values) must be an iterable, got NoneType$"):
            call()
    with pytest.raises(InputError, match="^values entry must be a real number, got 'a'$"):
        critical_probes([0.0, "a"])
    want = critical_probes([0.0, 0.25])
    assert want == [(None, 0.1), (0.15, 0.4)]
    assert critical_probes(np.array([0.0, 0.25])) == want
    assert critical_probes(v for v in (0.0, 0.25)) == want
    assert critical_values(c for c in ()) == ([], [])


def _bad_count_calls():
    """Counts that are checked before any Basic Integral runs: a float
    index raised a bare TypeError from a list lookup and True ran as
    index 1; a float poly_degree_max raised TypeError from np.vander only
    after every Basic Integral of the sweep had run."""
    sp = catalog_from_string("cn_u1(2,1)")
    one = _unit(sp)
    sweep = A.SweepResult(epsilon_grid=(0.05,), values=[1.0])
    return {
        **{f"contribution index={v}": (
            "index", lambda v=v: contribution(sp, one, v, 0.05))
           for v in (1.5, True, -1)},
        **{f"ContributionRecord index={v}": (
            "index", lambda v=v: A.ContributionRecord(
                index=v, critical_value=0.0, probes=(None, 0.1), epsilon_grid=(0.05,),
                values=[1.0]))
           for v in (1.5, True)},
        **{f"epsilon_sweep poly_degree_max={v}": (
            "poly_degree_max", lambda v=v: epsilon_sweep(sp, one, 0.16, poly_degree_max=v))
           for v in (1.5, True, -1)},
        **{f"fit_poly_plus_tail poly_degree_max={v}": (
            "poly_degree_max", lambda v=v: fit_poly_plus_tail(sweep, v))
           for v in (1.5, True, -1)},
    }


@pytest.mark.parametrize("case", list(_bad_count_calls()))
def test_bad_counts_are_refused_before_integrating(case):
    name, call = _bad_count_calls()[case]
    with mock.patch.object(A, "basic_integral_batch") as batch, \
            pytest.raises(InputError, match=name):
        call()
    assert batch.call_count == 0
