"""Workload inputs, operations and closed-form output checks.

A workload is a list of timed operations plus a list of untimed check-phase
probes.  Every operation is a call into symloc's public API on inputs made
here from the seed; its check compares the output with a closed form.

Seed 0 gives the reference inputs (alpha = 1, eps = 0.05 unless noted).
Any other seed scales every region radius and every eps by an independent
factor in [1 - JITTER, 1 + JITTER].  For the cn_u1 family that keeps each
radius inside its regular interval (critical values 0 and 0.25, kept more
than the 1e-3 regularity margin away), and the closed forms follow the
jittered inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

JITTER = 0.05
REGULAR_MARGIN = 1e-3

# Check tolerances: the same ones the repository's oracle tests use.
BI_ABS_TOL = 1e-10          # cn_u1(1,1) Basic Integral against its erf form
SWEEP_ABS_TOL = 1e-9        # cn_u1(2,1) sweep points against pi * erf(...)
KIRWAN_ABS_TOL = 1e-10      # reduced integrals against pi and pi/2
LEVEL_RESIDUAL_TOL = 1e-12  # |mu| on the zero-level mesh
PLATEAU_REL_TOL = 1e-6      # large-t plateaus against their closed limits
CRITICAL_TOL = 1e-6         # located critical values against the known ones


@dataclass
class Op:
    """One operation: ``run(inputs)`` calls symloc, ``check(output)``
    returns (ok, detail), ``fingerprint(output)`` gives the exact numbers
    that must repeat between passes and between traced and untraced runs."""

    name: str
    run: Callable
    check: Callable
    fingerprint: Callable | None = None  # timed operations only


@dataclass
class Workload:
    name: str
    params: dict
    build: Callable        # () -> inputs dict (spaces and alpha forms)
    ops: list
    probes: list = field(default_factory=list)  # check phase, untimed


def _jittered(rng, value, critical=()):
    if rng is None:
        return value
    out = value * (1.0 + JITTER * rng.uniform(-1.0, 1.0))
    for c in critical:
        if abs(out - c) <= REGULAR_MARGIN or (value - c) * (out - c) < 0:
            raise ValueError(f"jittered radius {out} left its regular interval")
    return out


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def bi_single_plane(r, t, eps):
    """BI(1, r, t) on cn_u1(1,1): (erf(h(s_hi)/sqrt(2 eps)) -
    erf(h(s_lo)/sqrt(2 eps))) / 2 with h(s) = (s - 1)(1 + t s) / 2."""
    s_hi = 1.0 + 2.0 * math.sqrt(r)
    s_lo = max(1.0 - 2.0 * math.sqrt(r), 0.0)

    def h(s):
        return 0.5 * (s - 1.0) * (1.0 + t * s)

    c = math.sqrt(2.0 * eps)
    return 0.5 * (math.erf(h(s_hi) / c) - math.erf(h(s_lo) / c))


def bi_two_planes_t0(r, eps):
    """BI(1, r, 0) on cn_u1(2,1): pi * erf(sqrt(r / (2 eps)))."""
    return math.pi * math.erf(math.sqrt(r / (2.0 * eps)))


def annulus_large_t_limit(eps):
    """lim_t BI(1, r, t) on cn_u1(1,1) for r > 0.25 (the region reaches
    the origin, so h(s_lo) = -1/2 for every t)."""
    return 0.5 * (1.0 + math.erf(0.5 / math.sqrt(2.0 * eps)))


def annulus_contribution(index, eps):
    """Contribution of the critical value 0 (index 0) and 0.25 (index 1)
    of |mu|^2 on cn_u1(1,1) to BI(1, ., t -> inf)."""
    if index == 0:
        return 1.0
    return -0.5 * math.erfc(0.5 / math.sqrt(2.0 * eps))


# ---------------------------------------------------------------------------
# checks and fingerprints
# ---------------------------------------------------------------------------


def _close(value, expected, tol):
    dev = abs(complex(value) - expected)
    return dev <= tol, {"value": _reim(value), "expected": _reim(expected),
                        "deviation": dev, "tolerance": tol}


def _reim(z):
    z = complex(z)
    return [z.real, z.imag]


def _bi_print(res):
    v = complex(res.value)
    return (v.real, v.imag, float(res.error), int(res.n_nodes), int(res.level))


def _check_finite_real(res):
    v = complex(res.value)
    bound = max(float(res.error), 1e-12)
    ok = math.isfinite(v.real) and math.isfinite(v.imag) and abs(v.imag) <= bound
    return ok, {"value": _reim(v), "imag_bound": bound}


def _check_bi_closed(expected):
    def check(res):
        return _close(res.value, expected, BI_ABS_TOL)

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _catalog_inputs(names):
    """The catalog spaces ``names`` (keys of _SPACES) and alpha = 1 on each."""
    from symloc.forms import EquivariantForm
    from symloc.hamspace import catalog

    inputs = {}
    for key in names:
        name, kw = _SPACES[key]
        space = catalog(name, **kw)
        one = EquivariantForm.scalar(
            space.chart_id, space.ambient_dim, space.algebra.dim, 1.0
        )
        inputs[key] = (space, one)
    return inputs


_SPACES = {
    "cn_u1(1,1)": ("cn_u1", {"n": 1, "a": 1.0}),
    "cn_u1(2,1)": ("cn_u1", {"n": 2, "a": 1.0}),
    "weighted_cn_u1(2,(1,2),1)": ("weighted_cn_u1", {"n": 2, "weights": (1, 2), "a": 1.0}),
    "c2_su2": ("c2_su2", {}),
}
_CN_CRITICAL = (0.0, 0.25)


def bi_deformed(rng) -> Workload:
    from symloc import integrate

    requests = [
        ("cn_u1(2,1)", _jittered(rng, 0.16, _CN_CRITICAL), 4.0),
        ("c2_su2", _jittered(rng, 0.04, (0.0,)), 4.0),
        ("cn_u1(1,1)", _jittered(rng, 0.16, _CN_CRITICAL), 4.0),
        ("cn_u1(1,1)", _jittered(rng, 0.36, _CN_CRITICAL), 16.0),
    ]
    eps = [_jittered(rng, 0.05) for _ in requests]
    params = {"requests": [
        {"space": k, "r": r, "t": t, "epsilon": e}
        for (k, r, t), e in zip(requests, eps)
    ]}

    def op(key, r, t, e):
        def run(inp):
            space, alpha = inp[key]
            return integrate.basic_integral(
                integrate.BasicIntegralRequest(space=space, alpha=alpha, r=r, epsilon=e, t=t),
                validate=True,
            )

        if key == "cn_u1(1,1)":
            check = _check_bi_closed(bi_single_plane(r, t, e))
        else:
            check = _check_finite_real
        return Op(f"basic_integral {key} r={r:.6g} t={t:g} eps={e:.6g}",
                  run, check, _bi_print)

    return Workload(
        name="bi_deformed",
        params=params,
        build=lambda: _catalog_inputs(["cn_u1(2,1)", "c2_su2", "cn_u1(1,1)"]),
        ops=[op(k, r, t, e) for (k, r, t), e in zip(requests, eps)],
    )


def eps_sweep(rng) -> Workload:
    from symloc import analysis
    from symloc.analysis import DEFAULT_EPSILON_GRID, DEFAULT_FIT_TOL

    r = _jittered(rng, 0.16, _CN_CRITICAL)
    scale = _jittered(rng, 1.0)
    grid = tuple(float(e) * scale for e in DEFAULT_EPSILON_GRID)
    params = {"space": "cn_u1(2,1)", "r": r, "t": 0.0, "poly_degree_max": 0,
              "epsilon_grid_scale": scale, "epsilon_points": len(grid)}
    last = {}

    def run(inp):
        space, alpha = inp["cn_u1(2,1)"]
        sweep = analysis.epsilon_sweep(space, alpha, r=r, t_policy=0.0,
                                       grid=grid, poly_degree_max=0)
        last["sweep"] = sweep
        return sweep

    def check(sweep):
        worst = max(abs(complex(v) - bi_two_planes_t0(r, e))
                    for e, v in zip(sweep.epsilon_grid, sweep.values))
        poly_dev = abs(complex(sweep.poly_coeffs[0]) - math.pi) / math.pi
        ok = worst <= SWEEP_ABS_TOL and poly_dev <= DEFAULT_FIT_TOL
        return ok, {"points": len(sweep.values), "worst_point_deviation": worst,
                    "point_tolerance": SWEEP_ABS_TOL,
                    "poly_part": _reim(sweep.poly_coeffs[0]),
                    "poly_relative_deviation_from_pi": poly_dev,
                    "poly_tolerance": DEFAULT_FIT_TOL}

    def fingerprint(sweep):
        return tuple(x for v in (*sweep.values, *sweep.poly_coeffs) for x in _reim(v))

    def probe_run(inp):
        space, _ = inp["cn_u1(2,1)"]
        return analysis.fit_poly_plus_tail(last["sweep"],
                                          analysis.default_poly_degree(space))

    def probe_check(out):
        # the polynomial part must be the reduced integral, pi, on the grid
        poly, _, _ = out
        worst = max(abs(sum(c * e**k for k, c in enumerate(poly)) - math.pi)
                    for e in grid)
        tol = DEFAULT_FIT_TOL * math.pi
        return worst <= tol, {"poly": [_reim(c) for c in poly],
                              "worst_deviation_from_pi": worst, "tolerance": tol}

    return Workload(
        name="eps_sweep",
        params=params,
        build=lambda: _catalog_inputs(["cn_u1(2,1)"]),
        ops=[Op("epsilon_sweep cn_u1(2,1) degree 0", run, check, fingerprint)],
        probes=[Op("fit_poly_plus_tail at default_poly_degree", probe_run,
                   probe_check)],
    )


def localization(rng) -> Workload:
    from symloc import analysis, critical, reduced
    from symloc.integrate import QuadratureScheme

    r_max = {k: _jittered(rng, 1.0, _CN_CRITICAL) for k in ("cn_u1(2,1)", "c2_su2")}
    eps_kirwan = {k: _jittered(rng, 0.05)
                  for k in ("cn_u1(2,1)", "weighted_cn_u1(2,(1,2),1)")}
    r_limit = _jittered(rng, 0.36, _CN_CRITICAL)
    eps_limit = _jittered(rng, 0.1)
    eps_contrib = [_jittered(rng, 0.05), _jittered(rng, 0.1)]
    r_extrap = _jittered(rng, 0.36, _CN_CRITICAL)
    t_grid = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    deep = QuadratureScheme(max_level=6)
    params = {"r_max": r_max, "kirwan_epsilon": eps_kirwan,
              "large_t": {"r": r_limit, "epsilon": eps_limit},
              "contribution": {"epsilon": eps_contrib, "t_grid": list(t_grid),
                               "max_level": 6},
              "extrapolated_sweep_r": r_extrap}
    levels = {}
    ops = []

    for key, expected in (("cn_u1(2,1)", (0.0, 0.25)), ("c2_su2", (0.0,))):
        def run(inp, key=key):
            return critical.find_critical_points(inp[key][0], r_max[key])

        def check(comps, expected=expected):
            values, _ = critical.critical_values(comps)
            ok = len(values) == len(expected) and all(
                abs(v - x) <= CRITICAL_TOL for v, x in zip(values, expected))
            return ok, {"values": values, "expected": list(expected),
                        "tolerance": CRITICAL_TOL}

        def fingerprint(comps):
            return tuple((c.critical_value, c.n_converged) for c in comps)

        ops.append(Op(f"find_critical_points {key} r_max={r_max[key]:.6g}",
                      run, check, fingerprint))

    for key, expected in (("cn_u1(2,1)", math.pi),
                          ("weighted_cn_u1(2,(1,2),1)", math.pi / 2)):
        def run_level(inp, key=key):
            levels.pop(key, None)  # free the previous pass's level first
            levels[key] = reduced.zero_level(inp[key][0])
            return levels[key]

        def check_level(lv):
            res = lv.regularity_report["level_moment_residual"]
            return res < LEVEL_RESIDUAL_TOL, {"level_moment_residual": res,
                                              "tolerance": LEVEL_RESIDUAL_TOL}

        def run_kirwan(inp, key=key):
            return reduced.kirwan_integral(inp[key][1], levels[key], eps_kirwan[key])

        def check_kirwan(res, expected=expected):
            return _close(res.value, expected, KIRWAN_ABS_TOL)

        ops.append(Op(f"zero_level {key}", run_level, check_level,
                      lambda lv: (lv.n_nodes, float(lv.riemann_weights.sum()))))
        ops.append(Op(f"kirwan_integral {key} eps={eps_kirwan[key]:.6g}",
                      run_kirwan, check_kirwan, lambda res: tuple(_reim(res.value))))

    def run_limit(inp):
        space, alpha = inp["cn_u1(1,1)"]
        return analysis.large_t_limit(space, alpha, r_limit, eps_limit)

    def check_limit(out):
        expected = annulus_large_t_limit(eps_limit)
        return _close(out[0], expected, PLATEAU_REL_TOL * abs(expected))

    ops.append(Op(f"large_t_limit cn_u1(1,1) r={r_limit:.6g} eps={eps_limit:.6g}",
                  run_limit, check_limit, lambda out: tuple(_reim(out[0]))))

    def contribution_op(index, **kwargs):
        def run(inp):
            space, alpha = inp["cn_u1(1,1)"]
            return analysis.contribution(space, alpha, index, eps_contrib, **kwargs)

        def check(rec):
            expected = [annulus_contribution(index, e) for e in eps_contrib]
            devs = [abs(complex(v) - x) for v, x in zip(rec.values, expected)]
            tols = [PLATEAU_REL_TOL * max(abs(x), 1e-3) for x in expected]
            ok = len(devs) == len(expected) and all(
                d <= t for d, t in zip(devs, tols))
            return ok, {"values": [_reim(v) for v in rec.values],
                        "expected": expected, "deviations": devs,
                        "tolerances": tols}

        def fingerprint(rec):
            return tuple(x for v in rec.values for x in _reim(v))

        return run, check, fingerprint

    for index in (0, 1):
        ops.append(Op(f"contribution cn_u1(1,1) index {index} t<=64 max_level=6",
                      *contribution_op(index, t_grid=t_grid, quadrature=deep)))

    probes = [Op(f"contribution cn_u1(1,1) index {index} default arguments",
                 *contribution_op(index)[:2]) for index in (0, 1)]

    def run_extrap(inp):
        space, alpha = inp["cn_u1(1,1)"]
        return analysis.epsilon_sweep(space, alpha, r_extrap, "extrapolated")

    def check_extrap(sweep):
        worst = max(abs(complex(v) - annulus_large_t_limit(e))
                    for e, v in zip(sweep.epsilon_grid, sweep.values))
        return worst <= PLATEAU_REL_TOL, {"worst_point_deviation": worst}

    probes.append(Op(f"epsilon_sweep cn_u1(1,1) r={r_extrap:.6g} extrapolated",
                     run_extrap, check_extrap))

    return Workload(
        name="localization",
        params=params,
        build=lambda: _catalog_inputs(
            ["cn_u1(2,1)", "c2_su2", "weighted_cn_u1(2,(1,2),1)", "cn_u1(1,1)"]),
        ops=ops,
        probes=probes,
    )


WORKLOADS = {"bi_deformed": bi_deformed, "eps_sweep": eps_sweep,
             "localization": localization}


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed`` (0: reference)."""
    return WORKLOADS[name](None if seed == 0 else random.Random(seed))
