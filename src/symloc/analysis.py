"""Epsilon sweeps, large-t plateaus, per-component contributions, and the
polynomial-plus-damped-tail decomposition of the Basic Integral.

As a function of the Gaussian width eps, BI(alpha, r, t) splits into a
polynomial in eps -- the reduced-space piece attached to mu^{-1}(0) --
plus a remainder bounded by exp(-c/eps), with c controlled by the first
positive critical value of |mu|^2 inside the region.  This module samples
the integral on an eps grid, recovers both pieces by least squares,
isolates what each critical component contributes by differencing the
integral across the component's value and driving the deformation t to
its plateau, and verifies the damping bounds the split rests on.

Everything here is plain least squares plus reported residual profiles;
nothing certifies a-posteriori error bounds.  The reports carry the
numbers, judging them is the caller's business.

Every large-t limit -- large_t_limit, the extrapolated epsilon_sweep and
contribution -- runs as one Basic Integral batch per call, t-major per
epsilon, and takes its t from a rate it measures.  The boundary term the
deformation kills decays like exp(-rho t^2), rho = q / (2 eps) with q the
smallest squared pairing <V_a, V_mustar> on the probe boundaries, so each
limit is evaluated at t* = sqrt(37 / rho), where that factor is e^-37 ~
1e-16, and confirmed at 1.5 t*.  One plateau rule accepts it: the two
values must differ by less than max(PLATEAU_REL_TOL * the larger value,
PLATEAU_ABS_TOL, 10 * the larger point error).  Otherwise the operation
refuses (NonConvergenceError, its report carrying rho, both t and the
gap) rather than extrapolating.  contribution also takes an explicit t
grid, whose last two points face the same rule.  The Gaussian shift
t * |pairing| / eps the closed-form moment evaluation absorbs is reported.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .critical import critical_probes, critical_values, find_critical_points
from .fields import column
from .forms import EquivariantForm
from .hamspace import HamiltonianSpace, eta_exprs
from .integrate import (
    QuadratureScheme,
    _gate_alpha,
    basic_integral_batch,
    boundary_surfaces,
    check_regular_radius,
    known_critical_values,
)
from .liealg import (
    AccuracyError,
    DecompositionError,
    InputError,
    NonConvergenceError,
    NotRegularError,
    _check_count,
    _check_real,
    _check_type,
)

__all__ = [
    "DEFAULT_EPSILON_GRID",
    "DEFAULT_FIT_TOL",
    "PLATEAU_REL_TOL",
    "PLATEAU_ABS_TOL",
    "SweepResult",
    "ContributionRecord",
    "epsilon_sweep",
    "fit_poly_plus_tail",
    "large_t_limit",
    "contribution",
    "damping_check",
    "global_convergence_check",
]

# 25 logarithmic points: wide enough to expose both the polynomial part
# (small eps) and the tail (large eps) without leaving the window where
# the Gaussian shifts stay conditioned.
DEFAULT_EPSILON_GRID = tuple(np.geomspace(0.02, 0.2, 25))

# The plateau tolerance of every large-t limit: relative to the largest
# value a limit evaluates, absolute, and never below 10x the largest point
# error.
PLATEAU_REL_TOL = 1e-7
PLATEAU_ABS_TOL = 1e-11
# A limit runs at the t where its boundary factor exp(-rho t^2) is e^-37
# (~1e-16), and is confirmed at 1.5 times that t.
_DECAY_EXPONENT = 37.0
_CONFIRM_FACTOR = 1.5

# Declared combined-fit tolerance, relative to the sweep's value scale
# (absolute once the whole sweep sits below 1e-8).  The fitter lands
# around 5e-7 relative on erf-type data, so this carries ~200x margin.
DEFAULT_FIT_TOL = 1e-4

# damping_check: the fitted decay rate may fall this share short of s/2.
DAMPING_SLACK = 0.15
# global_convergence_check: c in the shell bound exp(-r/(2 eps) + 2 c sqrt(r)).
GROWTH_CONSTANT = 1.0

def _reim(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    """Basic-Integral values on an ascending epsilon grid, plus -- once
    fitted -- the decomposition polynomial and tail rate.

    ``poly_coeffs`` are ascending powers of eps.  ``residuals`` are the
    per-point complex misfits of the combined model; the constructor
    holds them to the bound declared in provenance["fit"]["residual_bound"].
    """

    epsilon_grid: tuple
    values: np.ndarray
    poly_coeffs: np.ndarray | None = None
    tail_rate: float | None = None
    residuals: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        eps = _ascending_grid(self.epsilon_grid, "epsilon grid")
        if np.ndim(self.epsilon_grid) != 1:
            raise InputError("epsilon grid must be a flat list of reals")
        if len(self.values) != eps.size:
            raise InputError("need exactly one value per epsilon grid point")
        if self.poly_coeffs is None:
            return
        if self.tail_rate is None or self.tail_rate < 0:
            raise InputError("a fitted sweep carries a nonnegative tail rate")
        if self.residuals is None or len(self.residuals) != eps.size:
            raise InputError("a fitted sweep carries per-point residuals")
        bound = self.provenance.get("fit", {}).get("residual_bound")
        if bound is not None:
            worst = float(np.max(np.abs(self.residuals)))
            if worst > bound:
                raise DecompositionError(
                    f"combined fit misses the declared tolerance: max residual "
                    f"{worst:.3g} > {bound:.3g}",
                    report=self.provenance.get("fit", {}),
                )

    def to_json_dict(self) -> dict:
        out = {
            "epsilon_grid": [float(e) for e in self.epsilon_grid],
            "values": [_reim(v) for v in self.values],
            "poly_coeffs": None,
            "tail_rate": self.tail_rate,
            "residuals": None,
            "provenance": self.provenance,
        }
        if self.poly_coeffs is not None:
            out["poly_coeffs"] = [_reim(c) for c in self.poly_coeffs]
            out["residuals"] = [_reim(v) for v in self.residuals]
        return out


@dataclass(frozen=True)
class ContributionRecord:
    """What one critical component adds to the Basic Integral: the
    large-t limit of BI(alpha, above, t) - BI(alpha, below, t) across the
    component's critical value, per epsilon.

    ``probes`` is the (below, above) pair of regular radii straddling the
    value (below is None for the bottom value 0, where the lower region
    is empty).  ``diagnostics`` carries the limit report of each epsilon
    (large_t_limit's) and the probe-independence check, all JSON-safe.
    """

    index: int
    critical_value: float
    probes: tuple
    epsilon_grid: tuple
    values: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_count("index", self.index, 0)
        _check_real("critical value", self.critical_value)
        if not 0 <= self.critical_value < math.inf:
            raise InputError(
                "critical values are squares, hence nonnegative and finite"
            )
        below, above = self.probes
        for probe in (above,) if below is None else (below, above):
            _check_real("probe radius", probe)
        if not all(p is None or 0 <= p < math.inf for p in (below, above)):
            raise InputError("probe radii must be nonnegative and finite")
        if above <= self.critical_value:
            raise InputError("upper probe must exceed the critical value")
        if below is not None and not (0 <= below < self.critical_value):
            raise InputError("lower probe must sit below the critical value")
        eps = _real_grid(self.epsilon_grid, "epsilon grid")
        if eps.size == 0 or not np.all((eps > 0) & (eps < math.inf)):
            raise InputError("epsilon grid must be positive and finite")
        if len(self.values) != eps.size:
            raise InputError("need exactly one contribution value per epsilon")

    def to_json_dict(self) -> dict:
        below, above = self.probes
        return {
            "index": self.index,
            "critical_value": self.critical_value,
            "probes": [below, above],
            "epsilon_grid": [float(e) for e in self.epsilon_grid],
            "values": [_reim(v) for v in self.values],
            "diagnostics": self.diagnostics,
            "provenance": self.provenance,
        }


# ---------------------------------------------------------------------------
# the poly + exp(-c/eps) fitter
# ---------------------------------------------------------------------------
#
# Two stages, mirroring the structure of the decomposition itself.
#
# The split stage looks for a fixed point of one map G on the tail values:
# fit the polynomial to vals - tail on the small-eps block, then fit a
# log-linear model to what that polynomial leaves (columns 1, 1/eps,
# log eps, eps -- the last two absorb the half-integer prefactor powers
# the tail picks up from the Gaussian).  The plain damped step
# tail + (G(tail) - tail)/2 contracts at ~0.93 per step on erf-type data;
# Anderson mixing over the last few steps (Walker & Ni, SIAM J. Numer.
# Anal. 49, 2011) reaches the same fixed point in a few dozen, and a
# mixed step that grows |G(tail) - tail| is replaced by the damped one.
# The stop rule is on the polynomial: successive iterates within 1e-14.
#
# The refinement stage re-solves jointly: polynomial columns plus
# exp(-c/eps) * eps^(j/2) for a small window of half-integer powers j,
# with c tuned on the least-squares residual.  The windows are the two
# 4-power ones around the prefactor power the split stage saw, plus the
# 5-power wide one; the wide one is picked only when the best centered
# window misses the residual floor (25n eps_mach) and it cuts that
# residual 3x.  Every (dataset, window) search -- the full grid and the
# stability refit, fitted together -- runs in lockstep on designs
# zero-padded to one shape: one stacked solve scores 25 rates per search,
# one the two first golden points, one per golden step the new interior
# point of every search, and one the final rates -- 38 solves for any
# number of searches.


def _polyval(coeffs, e):
    return sum(c * e**k for k, c in enumerate(coeffs))


def _split_poly_tail(eps, vals, dmax, tail0, n_iter=400, relax=0.5):
    """Poly on the small-eps block vs log-linear tail model of the
    remainder, driven to a fixed point of the tail by safeguarded Anderson
    mixing over the damped step.  Returns (poly, tail values, c, q, resid,
    iterations, converged)."""
    n = len(eps)
    n_small = max(dmax + 3, n // 3)
    vander = np.vander(eps, dmax + 1, increasing=True)
    block_solve = np.linalg.pinv(vander[:n_small])
    log_eps = np.log(eps)
    n_cols = 4 if n >= 12 else 3
    regressors = np.column_stack([np.ones(n), 1.0 / eps, log_eps, eps][:n_cols])
    floor = 1e-12 * max(1.0, float(np.max(np.abs(vals))))

    def tail_map(poly):
        """The tail model of vals - poly: (tail values, c, q)."""
        resid = vals - vander @ poly
        mag = np.abs(resid)
        sel = mag > floor
        if np.count_nonzero(sel) < 5:
            return np.zeros(n, complex), 0.0, 0.0
        w = mag[sel]
        b, *_ = np.linalg.lstsq(regressors[sel] * w[:, None], np.log(w) * w, rcond=None)
        c = min(max(-b[1], 0.0), 50.0)
        q = min(max(b[2], -4.0), 4.0)
        logshape = b[0] + q * log_eps - c / eps
        if n_cols == 4:
            logshape = logshape + b[3] * eps
        shape = np.exp(logshape)
        ph = np.sum(np.conj(shape[sel]) * resid[sel] * w) / np.sum(shape[sel] ** 2 * w)
        ph /= max(abs(ph), 1e-300)
        return ph * shape, c, q

    def evaluate(tail):
        """(poly, fixed-point residual G(tail) - tail, c, q) at one iterate."""
        poly = block_solve @ (vals - tail)[:n_small]
        tail_new, c, q = tail_map(poly)
        return poly, tail_new - tail, c, q

    def re_im(z):
        return np.concatenate([z.real, z.imag])

    tail = tail0.astype(complex)
    poly, f, c, q = evaluate(tail)
    memory = 5  # enough past steps to span the slow modes of the damped map
    d_tails, d_fs = [], []  # the last `memory` steps of the iterate and of f
    converged = False
    it = 0
    for it in range(n_iter):
        damped = tail + relax * f
        step = damped
        if d_tails:
            dx, df = np.column_stack(d_tails), np.column_stack(d_fs)
            gamma, *_ = np.linalg.lstsq(re_im(df), re_im(f), rcond=None)
            step = damped - (dx + relax * df) @ gamma
        nxt = evaluate(step)
        if step is not damped and np.linalg.norm(nxt[1]) > np.linalg.norm(f):
            step = damped  # safeguard: the mixed step grew the residual
            nxt = evaluate(step)
        d_tails = (d_tails + [step - tail])[-memory:]
        d_fs = (d_fs + [nxt[1] - f])[-memory:]
        d = np.max(np.abs(nxt[0] - poly))
        tail = step
        poly, f, c, q = nxt
        if d < 1e-14 and it > 10:
            converged = True
            break
    resid = vals - vander @ poly - tail
    return poly, tail, c, q, float(np.max(np.abs(resid))), it + 1, converged


def _split_hierarchy(eps, vals, dmax):
    """Run the split at each degree 0..dmax, warm-starting the tail."""
    tail = np.zeros(len(eps), complex)
    iterations, converged = 0, True
    for d in range(0, dmax + 1):
        poly, tail, c, q, resid, it, ok = _split_poly_tail(eps, vals, d, tail)
        iterations += it
        converged = converged and ok
    return dict(poly=poly, c=c, q=q, tail=tail, resid=resid,
                iterations=iterations, converged=converged)


def _lstsq(x, vals):
    """Least squares of vals against each design in the (..., n, p) stack
    (vals (..., n), broadcast against the stack), columns scaled to unit
    norm, singular values cut as np.linalg.lstsq cuts them.  An all-zero
    column is cut and gets coefficient 0, and all-zero rows in x and vals
    add nothing to the residual, so designs of different shapes share one
    stack when zero-padded; the solutions then agree with the unpadded
    ones to roundoff.  Returns (solutions (..., p), residual norms (...))."""
    norms = np.linalg.norm(x, axis=-2, keepdims=True)
    norms[norms == 0] = 1.0
    xn = x / norms
    u, s, vt = np.linalg.svd(xn, full_matrices=False)
    keep = s > np.finfo(float).eps * max(x.shape[-2:]) * s[..., :1]
    coef = (np.swapaxes(u, -1, -2) @ vals[..., None])[..., 0] * keep / np.where(keep, s, 1.0)
    sol = (np.swapaxes(vt, -1, -2) @ coef[..., None])[..., 0]
    resid = vals - (xn @ sol[..., None])[..., 0]
    return sol / norms[..., 0, :], np.linalg.norm(resid, axis=-1)


def _log_linear_fit(x, values) -> tuple:
    """Least-squares (intercept, slope) of log(values) against x."""
    design = np.column_stack([np.ones(x.size), x])
    sol, *_ = np.linalg.lstsq(design, np.log(values), rcond=None)
    return float(sol[0]), float(sol[1])


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _refine_in_lockstep(searches, dmax):
    """Golden-section refinement of the rate c for every search at once.

    Each search is (eps, vals, jpow, c_init): minimize over c the residual
    of vals against [eps^k | exp(-c/eps) eps^(j/2), j in jpow], the design
    zero-padded to the largest (rows, cols) of all searches.  Returns
    ([(c, solution, residual)] per search, the number of stacked solves)."""
    n_rows = max(len(eps) for eps, *_ in searches)
    n_tail = max(len(jpow) for _, _, jpow, _ in searches)
    n_s = len(searches)
    eps_pad = np.ones((n_s, n_rows))  # any positive value: its rows are zero
    powers = np.zeros((n_s, n_rows, dmax + 1))
    half = np.zeros((n_s, n_rows, n_tail))
    vals_pad = np.zeros((n_s, 1, n_rows), complex)
    c_init = np.empty(n_s)
    for s, (eps, vals, jpow, c0) in enumerate(searches):
        n = len(eps)
        eps_pad[s, :n] = eps
        powers[s, :n] = np.vander(eps, dmax + 1, increasing=True)
        half[s, :n, : len(jpow)] = np.column_stack([eps ** (j / 2.0) for j in jpow])
        vals_pad[s, 0, :n] = vals
        c_init[s] = c0
    solves = 0

    def solve(c):
        """The (n_s, k) rates c scored in one stacked solve."""
        nonlocal solves
        solves += 1
        tail = np.exp(-c[..., None] / eps_pad[:, None, :])[..., None] * half[:, None]
        poly = np.broadcast_to(powers[:, None], tail.shape[:-1] + (dmax + 1,))
        return _lstsq(np.concatenate([poly, tail], axis=-1), vals_pad)

    c_lo, c_hi = c_init / 1.6, c_init * 1.6
    cands = np.geomspace(c_lo, c_hi, 25, axis=-1)
    best = cands[np.arange(n_s), np.argmin(solve(cands)[1], axis=-1)]
    lo, hi = np.maximum(best / 1.2, c_lo), np.minimum(best * 1.2, c_hi)
    # golden section: each step keeps one interior point and its value
    m1, m2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    r1, r2 = solve(np.stack([m1, m2], axis=-1))[1].T
    for _ in range(35):
        left = r1 < r2  # the minimum lies in [lo, m2]
        hi, lo = np.where(left, m2, hi), np.where(left, lo, m1)
        new = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
        m1, m2 = np.where(left, new, m2), np.where(left, m1, new)
        r_new = solve(new[:, None])[1][:, 0]
        r1, r2 = np.where(left, r_new, r2), np.where(left, r1, r_new)
    # the last shrink needs no new interior point
    left = r1 < r2
    c = 0.5 * (np.where(left, lo, m1) + np.where(left, m2, hi))
    sol, r = solve(c[:, None])
    return [(float(c[s]), sol[s, 0], float(r[s, 0])) for s in range(n_s)], solves


def _fit_decompositions(datasets, dmax):
    """Fit polynomial + tail to each (eps, vals) dataset: the split stage
    per dataset for an initial (c, prefactor power), then the golden-section
    refinements of all datasets and all tail windows in lockstep.  Returns
    (one fit dict per dataset, {"searches", "stacked_solves"})."""
    fits, searches, plans = [], [], []
    for eps, vals in datasets:
        eps = np.asarray(eps, float)
        vals = np.asarray(vals, complex)
        base = _split_hierarchy(eps, vals, dmax)
        fit = dict(c_init=base["c"], q_init=base["q"],
                   split=dict(iterations=base["iterations"], converged=base["converged"]))
        fits.append(fit)
        scale = max(1.0, float(np.max(np.abs(vals))))
        if base["c"] <= 0 or float(np.max(np.abs(base["tail"]))) < 1e-12 * scale:
            # no discernible tail: plain polynomial fit on everything
            powers = np.vander(eps, dmax + 1, increasing=True)
            poly, *_ = np.linalg.lstsq(powers, vals, rcond=None)
            fit.update(poly=poly, c=0.0, jpow=(), amps=np.zeros(0, complex))
            plans.append(None)
            continue
        j0 = min(max(int(round(2 * base["q"])), -1), 3)
        windows = list(dict.fromkeys(tuple(range(lo_j, lo_j + 4))
                                     for lo_j in (j0, max(j0 - 1, -1))))
        wide = tuple(range(max(j0 - 1, -1), j0 + 4))
        if len(wide) > 4:
            windows.append(wide)
        first = len(searches)
        searches += [(eps, vals, w, base["c"]) for w in windows]
        plans.append((first, windows, 25 * len(eps) * 1e-15 * scale))

    refined, solves = _refine_in_lockstep(searches, dmax) if searches else ([], 0)
    for fit, plan in zip(fits, plans):
        if plan is None:
            continue
        first, windows, floor = plan
        # the centered windows compete on the residual; the wide one is
        # taken only when the floor is missed and it cuts the residual 3x
        picked = None
        for k, w in enumerate(windows):
            c, sol, r = refined[first + k]
            if len(w) > 4:
                if picked[3] > floor and r < picked[3] / 3.0:
                    picked = (w, c, sol, r)
            elif picked is None or r < picked[3]:
                picked = (w, c, sol, r)
        jpow, c, sol, _ = picked
        fit.update(poly=sol[: dmax + 1], c=c, jpow=jpow, amps=sol[dmax + 1 : dmax + 1 + len(jpow)])
    return fits, {"searches": len(searches), "stacked_solves": solves}


def _tail_values(fit, eps):
    if not len(fit["jpow"]):
        return np.zeros(len(eps), complex)
    damp = np.exp(-fit["c"] / eps)
    cols = np.column_stack([damp * eps ** (j / 2.0) for j in fit["jpow"]])
    return cols @ fit["amps"]


def default_poly_degree(space: HamiltonianSpace) -> int:
    """Half the reduced dimension, rounded up: the eps-polynomial of the
    reduced integral truncates at dim/4, the slack absorbs half-integer
    bookkeeping differences."""
    red = max(space.ambient_dim - 2 * space.algebra.dim, 0)
    return math.ceil(red / 2)


def fit_poly_plus_tail(sweep: SweepResult, poly_degree_max: int | None = None):
    """Split sweep values into polynomial + exp(-c/eps) tail, to
    DEFAULT_FIT_TOL relative to the sweep's value scale.

    Returns (poly_coeffs, tail_rate, report).  poly_coeffs are ascending
    complex coefficients, tail_rate is c >= 0.  The report carries the
    residual profile, the declared bound, the stability drift under
    dropping the largest-eps points, the damping guard data, and the
    refinement's size: {"searches", "stacked_solves"}.

    The full grid and the grid without its largest-eps points are fitted
    in one pass: the split stage runs per grid, then the rate searches of
    both grids and all their tail windows refine in lockstep, one stacked
    least-squares solve per golden-section step.

    Raises DecompositionError when the combined model misses the declared
    tolerance, when the polynomial coefficients are not stable under
    shrinking the grid (the split is unique, so instability means the fit
    did not resolve it), or when the fitted "tail" is significant but its
    rate is below 1.5 * min(eps) -- an exponential that slow is
    indistinguishable from a power of eps on the grid, which is exactly
    the signature of a non-regular zero level (fractional powers the
    polynomial cannot absorb).
    """
    _check_type("sweep", sweep, SweepResult)
    if poly_degree_max is None:
        poly_degree_max = int(sweep.provenance.get("poly_degree_max", 0))
    _check_count("poly_degree_max", poly_degree_max, 0)
    eps = np.asarray(sweep.epsilon_grid, float)
    vals = np.asarray(sweep.values, complex)
    if eps.size < poly_degree_max + 4:
        raise InputError(
            f"{eps.size} grid points cannot pin a degree-{poly_degree_max} "
            f"polynomial plus tail; need at least {poly_degree_max + 4}"
        )
    scale = float(np.max(np.abs(vals)))
    point_errors = sweep.provenance.get("point_errors") or [0.0]
    noise_floor = max(1e-13 * max(scale, 1.0), 10.0 * max(point_errors))
    residual_bound = DEFAULT_FIT_TOL * scale if scale > 1e-8 else DEFAULT_FIT_TOL

    n_drop = max(2, eps.size // 6)
    (fit, refit), refinement = _fit_decompositions(
        [(eps, vals), (eps[:-n_drop], vals[:-n_drop])], poly_degree_max
    )
    model = _polyval(fit["poly"], eps) + _tail_values(fit, eps)
    residuals = vals - model
    worst = float(np.max(np.abs(residuals)))

    tail_max = float(np.max(np.abs(_tail_values(fit, eps)))) if len(fit["jpow"]) else 0.0
    tail_significant = tail_max > max(residual_bound, noise_floor)
    rate_floor = 1.5 * float(eps[0])

    drift = float(np.max(np.abs(refit["poly"] - fit["poly"]))) / max(scale, 1e-8)

    report = {
        "degree": poly_degree_max,
        "tolerance": DEFAULT_FIT_TOL,
        "residual_bound": residual_bound,
        "residual_max": worst,
        "residual_profile": [float(abs(r)) for r in residuals],
        "noise_floor": noise_floor,
        "tail_rate": float(fit["c"]),
        "tail_powers": [int(j) for j in fit["jpow"]],
        "tail_amplitudes": [_reim(a) for a in fit["amps"]],
        "tail_max": tail_max,
        "tail_significant": bool(tail_significant),
        "rate_floor": rate_floor,
        "split_stage": {
            "c": float(fit["c_init"]),
            "prefactor_power": float(fit["q_init"]),
            "iterations": int(fit["split"]["iterations"]),
            "converged": bool(fit["split"]["converged"]),
        },
        "stability": {
            "dropped_points": n_drop,
            "coefficient_drift": drift,
            "refit_poly": [_reim(c) for c in refit["poly"]],
        },
        "refinement": refinement,
    }

    if worst > residual_bound:
        raise DecompositionError(
            f"combined fit misses the declared tolerance: max residual "
            f"{worst:.3g} > {residual_bound:.3g}",
            report=report,
        )
    if tail_significant and fit["c"] < rate_floor:
        raise DecompositionError(
            f"the remainder after the polynomial is significant "
            f"(max {tail_max:.3g}) but its fitted rate c = {fit['c']:.3g} is "
            f"below 1.5 * min(eps) = {rate_floor:.3g}: on this grid it varies "
            "like a power of eps, not an exponential -- a non-regular zero "
            "level, or a grid that needs to extend to smaller eps",
            report=report,
        )
    if drift > DEFAULT_FIT_TOL:
        raise DecompositionError(
            f"polynomial coefficients drift by {drift:.3g} (relative) when the "
            f"{n_drop} largest-eps points are dropped; the split is unique, so "
            "the fit has not resolved it on this grid",
            report=report,
        )
    return np.asarray(fit["poly"], complex), float(fit["c"]), report


# ---------------------------------------------------------------------------
# evaluation helpers
# ---------------------------------------------------------------------------


def _settled(out):
    """(value, error) of one basic_integral_batch member; raises the
    AccuracyError it ended with.  Callers take the members in the order a
    one-point-at-a-time loop would have run them, so the error raised is
    the one that loop raised first."""
    if isinstance(out, AccuracyError):
        raise out
    return out.value, out.error


def _real_grid(grid, what) -> np.ndarray:
    """A real number, or a flat list, tuple or 1-D array of them, as a 1-D
    float array; InputError for anything else (a string or a bool is not a
    real number, a nested grid is not flat)."""
    flat = isinstance(grid, (list, tuple)) or (isinstance(grid, np.ndarray) and grid.ndim == 1)
    entries = list(grid) if flat else [grid]
    for value in entries:
        _check_real(f"{what} entry", value)
    return np.array(entries, dtype=float)


def _ascending_grid(grid, what) -> np.ndarray:
    arr = _real_grid(grid, what)
    if arr.size == 0 or not np.all((arr > 0) & (arr < np.inf)):
        raise InputError(f"{what} must be positive and finite")
    if arr.size > 1 and np.any(np.diff(arr) <= 0):
        raise InputError(f"{what} must be strictly ascending")
    return arr


def _plateau_t_grid(t_grid) -> np.ndarray:
    """An explicit t grid of a large-t limit: at least three values,
    nonnegative, finite and strictly ascending."""
    t_arr = _real_grid(t_grid, "t grid")
    if t_arr.size < 3:
        raise InputError("plateau detection needs at least three t values")
    if not np.all((t_arr >= 0) & (t_arr < np.inf)) or np.any(np.diff(t_arr) <= 0):
        raise InputError("t grid must be nonnegative, finite and strictly ascending")
    return t_arr


def _boundary_gauge_pairing(space, r, scheme):
    """(min, max) over the boundary of M_r of |<V_a, V_mustar>|: the
    squared min divided by 2 eps is the t^2 rate at which the deformation
    kills the boundary term; t * max / eps is the Gaussian shift the
    closed-form moment evaluation has to absorb."""
    eta = eta_exprs(space)
    lo, hi = math.inf, 0.0
    for grid in boundary_surfaces(space, r, scheme=scheme):
        cache: dict = {}
        pair = np.stack([column(e, grid.nodes, cache) for e in eta], axis=1)
        norm = np.sqrt(np.einsum("ng,ng->n", pair, pair))
        lo = min(lo, float(norm.min()))
        hi = max(hi, float(norm.max()))
    if not math.isfinite(lo):  # no boundary shells (region reaches the origin)
        lo = 0.0
    return lo, hi


def _limits(space, alpha, rows, scheme, t_arr=None):
    """lim_{t->inf} of BI(alpha, above, t) - BI(alpha, below, t) for each
    row (name, epsilon, below, above) of ``rows``; below is None for the
    empty region, whose integral is exactly 0.

    The boundary pairing is measured once per distinct probe radius.  A
    row's rate bound rho is min pairing^2 / (2 eps) over its probes, and
    without ``t_arr`` the row is evaluated at t* = sqrt(_DECAY_EXPONENT /
    rho) and at _CONFIRM_FACTOR * t*; with it, at every t of ``t_arr``.
    Every row runs in one basic_integral_batch, t-major per row with the
    upper probe first.  Rows settle in order, so the error raised is the
    one a row-by-row loop raised first: a member's AccuracyError, or a
    NonConvergenceError naming the row when its last two values differ by
    max(PLATEAU_REL_TOL * max|value|, PLATEAU_ABS_TOL, 10 * largest point
    error) or more.  The decay is super-exponential, so that gap bounds
    the truncation.  Returns per row (limit, diagnostics); the
    diagnostics are the NonConvergenceError report."""
    radii = dict.fromkeys(rad for *_, lo, hi in rows for rad in (hi, lo) if rad is not None)
    pairing = {rad: _boundary_gauge_pairing(space, rad, scheme) for rad in radii}
    sized = []
    for _, e, lo, hi in rows:
        pair_lo = min(pairing[rad][0] for rad in (hi, lo) if rad is not None)
        pair_hi = max(pairing[rad][1] for rad in (hi, lo) if rad is not None)
        rate = pair_lo**2 / (2.0 * e)
        t_row = t_arr
        if t_row is None:
            t_star = math.sqrt(_DECAY_EXPONENT / rate)
            t_row = np.array([t_star, _CONFIRM_FACTOR * t_star])
        sized.append((t_row, pair_lo, pair_hi, rate))
    points = [(rad, e, float(t)) for (_, e, lo, hi), (t_row, *_) in zip(rows, sized)
              for t in t_row for rad in (hi, lo) if rad is not None]
    outs = iter(basic_integral_batch(space, alpha, points, scheme))
    results = []
    for (name, e, lo, _), (t_row, pair_lo, pair_hi, rate) in zip(rows, sized):
        vals = np.empty(t_row.size, complex)
        errs = np.empty(t_row.size)
        for k in range(t_row.size):
            va, ea = _settled(next(outs))
            vb, eb = (0.0 + 0.0j, 0.0) if lo is None else _settled(next(outs))
            vals[k], errs[k] = va - vb, ea + eb
        gap = float(abs(vals[-1] - vals[-2]))
        tol = max(PLATEAU_REL_TOL * float(np.max(np.abs(vals))), PLATEAU_ABS_TOL,
                  10.0 * float(errs.max()))
        diag = {
            "epsilon": float(e),
            "t_values": [float(t) for t in t_row],
            "values": [_reim(v) for v in vals],
            "point_errors": [float(x) for x in errs],
            "plateau_gap": gap,
            "tolerance": tol,
            "rate_bound": rate,
            "gauge_pairing": {"min": pair_lo, "max": pair_hi},
            "shift_magnitude": float(t_row[-1]) * pair_hi / float(e),
        }
        if not gap < tol:
            raise NonConvergenceError(
                f"{name} has not reached its large-t plateau at eps={e:g}: it moved "
                f"by {gap:.3g} from t={t_row[-2]:g} to t={t_row[-1]:g}, tolerance "
                f"{tol:.3g}. The boundary term decays like exp(-t^2 {rate:.3g})",
                report=diag,
            )
        results.append((vals[-1], diag))
    return results


def large_t_limit(
    space: HamiltonianSpace,
    alpha: EquivariantForm,
    r: float,
    epsilon: float,
    quadrature: QuadratureScheme | None = None,
):
    """lim_{t->inf} BI(alpha, r, t) at one epsilon.  The boundary pairing
    on the boundary of M_r gives the rate bound rho of the boundary term
    exp(-rho t^2); BI is evaluated at t* = sqrt(37 / rho) and at 1.5 t*,
    in one batch, and the value at 1.5 t* is the limit once the two
    differ by less than the plateau tolerance (PLATEAU_REL_TOL relative,
    PLATEAU_ABS_TOL absolute, 10x the larger point error).  Returns
    (limit, diagnostics).

    Raises NonConvergenceError when they do not; the report carries the
    rate bound, both t, the gap, the boundary pairing bounds and the
    Gaussian shift magnitude."""
    scheme = quadrature or QuadratureScheme()
    check_regular_radius(space, r)
    _gate_alpha(space, alpha)
    ((limit, diag),) = _limits(space, alpha, [(f"BI(r={r:g})", epsilon, None, r)], scheme)
    return limit, {**diag, "r": float(r)}


# ---------------------------------------------------------------------------
# epsilon sweeps
# ---------------------------------------------------------------------------


def epsilon_sweep(
    space: HamiltonianSpace,
    alpha: EquivariantForm,
    r: float,
    t_policy=0.0,
    grid=None,
    quadrature: QuadratureScheme | None = None,
    poly_degree_max: int | None = None,
) -> SweepResult:
    """Evaluate BI(alpha, r, .) on an ascending epsilon grid and fit the
    polynomial + tail decomposition.

    ``t_policy`` is either a finite number (BI evaluated at that fixed t)
    or the string "extrapolated": each grid point is then large_t_limit
    at that eps, at its own sized t, value, diagnostics and all, with the
    plateau gap plus the larger point error as its error.  Either way
    every eps runs in one Basic Integral batch, and a failing point raises
    what a one-eps-at-a-time loop raised first.  The fit is skipped, with a
    warning, when the grid is shorter than poly_degree_max + 4 points.
    """
    _check_type("space", space, HamiltonianSpace)
    scheme = quadrature or QuadratureScheme()
    if poly_degree_max is None:
        poly_degree_max = default_poly_degree(space)
    _check_count("poly_degree_max", poly_degree_max, 0)
    eps = _ascending_grid(DEFAULT_EPSILON_GRID if grid is None else grid, "epsilon grid")
    check_regular_radius(space, r)
    _gate_alpha(space, alpha)

    if isinstance(t_policy, str):
        if t_policy != "extrapolated":
            raise InputError(
                f"unknown t policy {t_policy!r}: pass a number or 'extrapolated'"
            )
        policy = {"kind": "extrapolated"}
    else:
        _check_real("t_policy", t_policy)
        policy = {"kind": "fixed", "t": float(t_policy)}
        if not 0 <= policy["t"] < math.inf:
            raise InputError("fixed t must be nonnegative and finite")

    values = np.empty(eps.size, complex)
    errors = np.empty(eps.size, float)
    t_diagnostics = []
    if policy["kind"] == "fixed":
        outs = basic_integral_batch(
            space, alpha, [(r, float(e), policy["t"]) for e in eps], scheme
        )
        for i, out in enumerate(outs):
            values[i], errors[i] = _settled(out)
    else:
        rows = [(f"BI(r={r:g})", float(e), None, r) for e in eps]
        for i, (limit, diag) in enumerate(_limits(space, alpha, rows, scheme)):
            values[i] = limit
            errors[i] = diag["plateau_gap"] + max(diag["point_errors"])
            t_diagnostics.append({**diag, "r": float(r)})

    provenance = {
        "space": space.name,
        "alpha": repr(alpha),
        "r": float(r),
        "t_policy": policy,
        "quadrature": scheme.to_json_dict(),
        "point_errors": [float(x) for x in errors],
        "poly_degree_max": int(poly_degree_max),
    }
    if t_diagnostics:
        provenance["t_diagnostics"] = t_diagnostics
    base = SweepResult(
        epsilon_grid=tuple(float(e) for e in eps),
        values=values,
        provenance=provenance,
    )
    if eps.size < poly_degree_max + 4:
        warnings.warn(
            f"{eps.size} grid points cannot pin a degree-{poly_degree_max} "
            "polynomial plus tail; decomposition fit skipped",
            stacklevel=2,
        )
        return base
    poly, rate, report = fit_poly_plus_tail(base, poly_degree_max)
    residuals = values - _polyval(poly, eps) - _tail_values(
        {"poly": poly, "c": rate,
         "jpow": tuple(report["tail_powers"]),
         "amps": np.array([complex(a, b) for a, b in report["tail_amplitudes"]])},
        eps,
    )
    return replace(
        base,
        poly_coeffs=poly,
        tail_rate=rate,
        residuals=residuals,
        provenance={**provenance, "fit": report},
    )


# ---------------------------------------------------------------------------
# per-component contributions
# ---------------------------------------------------------------------------


def contribution(
    space: HamiltonianSpace,
    alpha: EquivariantForm,
    index: int,
    epsilon,
    t_grid=None,
    components=None,
    r_max: float | None = None,
    quadrature: QuadratureScheme | None = None,
) -> ContributionRecord:
    """The contribution of the ``index``-th critical value (ascending,
    0-based) at each epsilon: the large-t limit of
    BI(alpha, above, t) - BI(alpha, below, t) across the value.

    ``epsilon`` may be a scalar or an ascending sequence.  The critical
    values come from ``components`` (critical_values), or, with
    ``r_max``, from a find_critical_points search inside M_{r_max}; with
    neither they are the space's catalog values (known_critical_values,
    InputError for a space without them) and no search runs.  The probes
    straddle them by critical_probes either way.  The result is checked
    for independence of the probe choice by recomputing at perturbed
    probes (both offsets shrunk to 3/4) for the largest epsilon;
    disagreement raises AccuracyError.  Every epsilon and the perturbed
    probes run in one Basic Integral batch under the plateau rule of
    large_t_limit, each row at the t* its own probes' rate bound sizes,
    or, with ``t_grid``, at every t of that grid, its last two values
    facing the rule; a missing plateau raises NonConvergenceError naming
    the epsilon (and the perturbed probes, for the check) with the
    conditioning data.  ``diagnostics`` holds the limit report of each
    epsilon and the probe-independence check.
    """
    _check_count("index", index, 0)
    scheme = quadrature or QuadratureScheme()
    eps_arr = _ascending_grid(epsilon, "epsilon")
    t_arr = None if t_grid is None else _plateau_t_grid(t_grid)
    _gate_alpha(space, alpha)

    if components is None and r_max is None:
        known = known_critical_values(space)
        if known is None:
            raise InputError(
                f"{space.name} has no catalog critical values; pass r_max or "
                "precomputed components"
            )
        values_list = sorted(float(v) for v in known)
        probes_list = critical_probes(values_list)
    else:
        if components is None:
            components = find_critical_points(space, r_max)
        if not components:
            raise InputError("no critical components to take contributions from")
        values_list, probes_list = critical_values(components)
    if index >= len(values_list):
        raise InputError(
            f"component index {index} out of range: {len(values_list)} "
            "critical values located"
        )
    crit_value = values_list[index]
    below, above = probes_list[index]
    check_regular_radius(space, above)
    if below is not None:
        check_regular_radius(space, below)

    # the probes for the independence check at the largest epsilon
    # (slowest plateau, largest magnitude): both probe offsets shrunk to
    # 3/4.  Their Basic Integrals join the batch below; a non-regular
    # perturbed probe is raised where the check would have run.
    e_chk = float(eps_arr[-1])
    below_alt = (
        None if below is None else crit_value - 0.75 * (crit_value - below)
    )
    above_alt = crit_value + 0.75 * (above - crit_value)
    try:
        check_regular_radius(space, above_alt)
        if below_alt is not None:
            check_regular_radius(space, below_alt)
        alt_refused = None
    except NotRegularError as exc:
        alt_refused = exc

    rows = [(f"contribution {index}", float(e), below, above) for e in eps_arr]
    if alt_refused is None:
        probes_alt = ", ".join(f"r={p:g}" for p in (below_alt, above_alt) if p is not None)
        rows.append((f"contribution {index} at the perturbed probes {probes_alt}",
                     e_chk, below_alt, above_alt))
    limits = _limits(space, alpha, rows, scheme, t_arr)
    if alt_refused is not None:
        raise alt_refused
    limit_alt, diag_alt = limits.pop()
    values = np.array([lim for lim, _ in limits])
    diags = [diag for _, diag in limits]

    ref = values[-1]
    scale_chk = max(abs(ref), abs(limit_alt), 1.0)
    tol_ind = max(
        50.0 * (diags[-1]["point_errors"][-1] + diag_alt["point_errors"][-1]),
        10.0 * (diags[-1]["plateau_gap"] + diag_alt["plateau_gap"]),
        1e-8 * scale_chk,
        PLATEAU_ABS_TOL,
    )
    probe_shift = abs(limit_alt - ref)
    if probe_shift > tol_ind:
        raise AccuracyError(
            f"contribution {index} moved by {probe_shift:.3g} when the probes "
            f"shifted within their regular intervals (tolerance {tol_ind:.3g}); "
            "the probe radii are not in the same regular interval or the "
            "plateau is under-resolved",
            partial=ref,
            estimate=probe_shift,
        )

    diagnostics = {
        "limits": diags,
        "probe_independence": {
            "epsilon": e_chk,
            "perturbed_probes": [below_alt, above_alt],
            "limit": diag_alt,
            "difference": float(probe_shift),
            "tolerance": float(tol_ind),
        },
    }
    provenance = {
        "space": space.name,
        "alpha": repr(alpha),
        "quadrature": scheme.to_json_dict(),
        "r_max": None if r_max is None else float(r_max),
        "critical_values": [float(v) for v in values_list],
    }
    return ContributionRecord(
        index=int(index),
        critical_value=float(crit_value),
        probes=(None if below is None else float(below), float(above)),
        epsilon_grid=tuple(float(e) for e in eps_arr),
        values=values,
        diagnostics=diagnostics,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# damping bounds
# ---------------------------------------------------------------------------


def damping_check(
    space: HamiltonianSpace,
    alpha: EquivariantForm,
    r: float,
    s: float,
    epsilon_grid=None,
    quadrature: QuadratureScheme | None = None,
) -> dict:
    """Verify that enlarging the region from s to r changes BI(alpha, ., 0)
    only by an exponentially damped amount: the fitted slope of
    log|BI(r) - BI(s)| against 1/eps must be <= -s/2 * (1 - DAMPING_SLACK).

    Returns the rate report.  When every difference sits below the
    quadrature noise floor the check is inconclusive (reported, not an
    error); a live slope missing the bound raises AccuracyError.
    """
    _check_real("r", r)
    _check_real("s", s)
    if not 0 < s < r:
        raise InputError("need radii 0 < s < r")
    scheme = quadrature or QuadratureScheme()
    check_regular_radius(space, r)
    check_regular_radius(space, s)
    _gate_alpha(space, alpha)
    eps = _ascending_grid(
        DEFAULT_EPSILON_GRID if epsilon_grid is None else epsilon_grid,
        "epsilon grid",
    )

    diffs = np.empty(eps.size, float)
    floors = np.empty(eps.size, float)
    outs = iter(basic_integral_batch(
        space, alpha, [(rad, float(e), 0.0) for e in eps for rad in (r, s)], scheme
    ))
    for i in range(eps.size):
        v_r, err_r = _settled(next(outs))
        v_s, err_s = _settled(next(outs))
        diffs[i] = abs(v_r - v_s)
        floors[i] = 10.0 * (err_r + err_s) + 1e-15 * max(abs(v_r), abs(v_s))
    live = diffs > floors
    report = {
        "r": float(r),
        "s": float(s),
        "epsilon_grid": [float(e) for e in eps],
        "differences": [float(d) for d in diffs],
        "noise_floor": [float(f) for f in floors],
        "n_used": int(np.sum(live)),
        "slack": DAMPING_SLACK,
        "bound": -0.5 * s * (1.0 - DAMPING_SLACK),
    }
    if int(np.sum(live)) < 3:
        report.update(
            inconclusive=True, ok=None, slope=None, intercept=None, rate=None,
            reason="differences sit at the quadrature noise floor; the "
                   "damping is too strong to measure on this grid",
        )
        return report
    intercept, slope = _log_linear_fit(1.0 / eps[live], diffs[live])
    report.update(
        inconclusive=False,
        slope=slope,
        intercept=intercept,
        rate=-slope,
        ok=bool(slope <= report["bound"]),
    )
    if not report["ok"]:
        raise AccuracyError(
            f"damping slope {slope:.4g} misses the bound {report['bound']:.4g} "
            f"(-s/2 with {DAMPING_SLACK:.0%} slack): the tail beyond radius s is not "
            "exponentially damped at the guaranteed rate",
            partial=slope,
            estimate=slope - report["bound"],
        )
    return report


# ---------------------------------------------------------------------------
# the r -> infinity limit
# ---------------------------------------------------------------------------


def global_convergence_check(
    space: HamiltonianSpace,
    alpha: EquivariantForm,
    r_grid,
    epsilon: float,
    quadrature: QuadratureScheme | None = None,
) -> dict:
    """Check that BI(alpha, r, 0) settles as r grows: increments between
    consecutive radii must decay, staying under the shell bound
    exp(-r/(2 eps) + 2 c sqrt(r)) (c = GROWTH_CONSTANT, the sqrt term
    paying for the polynomial volume growth of the shells).

    Returns a report with the extrapolated limit (the last value, its
    error bounded by the final increment) -- or, when increments grow,
    a divergence report with limit None.  Growing increments mean alpha's
    norm outruns the Gaussian, so the infinite-region integral does not
    exist; that is a finding, not an error.
    """
    _check_type("space", space, HamiltonianSpace)
    _check_real("epsilon", epsilon)
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    if space.radial is None:
        raise InputError(
            f"{space.name} does not document its radial volume growth; the "
            "global limit check needs the radial geometry"
        )
    scheme = quadrature or QuadratureScheme()
    r_arr = _ascending_grid(r_grid, "r grid")
    if r_arr.size < 3:
        raise InputError("need at least three radii to judge the increments")
    for r in r_arr:
        check_regular_radius(space, float(r))
    _gate_alpha(space, alpha)

    outs = basic_integral_batch(
        space, alpha, [(float(r), float(epsilon), 0.0) for r in r_arr], scheme
    )
    values, errors = zip(*map(_settled, outs))
    values = np.asarray(values, complex)
    inc = np.abs(np.diff(values))
    floors = 10.0 * (np.asarray(errors[:-1]) + np.asarray(errors[1:]))
    bounds = np.exp(
        -r_arr[:-1] / (2.0 * epsilon)
        + 2.0 * GROWTH_CONSTANT * np.sqrt(r_arr[:-1])
    )
    ratios = inc / bounds
    live = inc > floors

    divergent = any(
        live[k + 1] and inc[k + 1] > inc[k] for k in range(inc.size - 1)
    )
    live_ratios = ratios[live]
    within_bound = bool(
        live_ratios.size == 0
        or np.all(live_ratios <= live_ratios[0] * 1.2)
    )

    report = {
        "epsilon": float(epsilon),
        "growth_constant": GROWTH_CONSTANT,
        "r_grid": [float(r) for r in r_arr],
        "values": [_reim(v) for v in values],
        "point_errors": [float(e) for e in errors],
        "increments": [float(d) for d in inc],
        "noise_floor": [float(f) for f in floors],
        "shell_bounds": [float(b) for b in bounds],
        "bound_ratios": [float(x) for x in ratios],
        "divergent": bool(divergent),
        "within_bound": within_bound and not divergent,
    }
    if divergent:
        report.update(limit=None, limit_error=None)
    else:
        report.update(
            limit=_reim(values[-1]),
            limit_error=float(inc[-1] + errors[-1]),
        )
    return report
