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

import math

import numpy as np
import pytest

from seed_path import seed_basic_integrals
from symloc.analysis import (
    DEFAULT_FIT_TOL,
    DEFAULT_T_GRID,
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
from symloc.liealg import AccuracyError, DecompositionError

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


_SHALLOW = QuadratureScheme(max_level=1)


def test_large_t_limit_raises_the_first_failing_point():
    sp = catalog("cn_u1", n=1, a=1.0)
    ref = seed_basic_integrals(sp, _unit(sp), [(0.36, 0.1, t) for t in DEFAULT_T_GRID],
                               _SHALLOW)
    assert not isinstance(ref[0], AccuracyError)  # the failure is not the first point
    with pytest.raises(AccuracyError) as exc:
        large_t_limit(sp, _unit(sp), 0.36, 0.1, quadrature=_SHALLOW)
    want = _first_failure(ref)
    assert str(exc.value) == str(want)
    assert (exc.value.partial, exc.value.estimate) == (want.partial, want.estimate)


@pytest.mark.parametrize("index", [0, 1])
def test_contribution_raises_the_first_failing_point(index):
    # t-major at the first epsilon, the upper probe before the lower one
    sp = catalog("cn_u1", n=1, a=1.0)
    comps = find_critical_points(sp, 1.0)
    below, above = critical_values(comps)[1][index]
    points = [(rad, 0.05, t) for t in DEFAULT_T_GRID for rad in (above, below)
              if rad is not None]
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
