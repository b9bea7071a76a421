"""Sampled-point checks of a Hamiltonian space's structure, and a space
that fails them: the oracles the catalog tests of tests/test_hamspace.py
run, and scripts/check_reports.py records.

check_moment_condition samples iota_{V phi} omega + d<mu*, phi>;
validate_space adds closedness, nondegeneracy and matrix/form consistency
of omega and the compatibility of the metric (J = -Omega^{-1} g,
J^2 = -1); with_corrupted_moment is their negative control.
"""

import numpy as np

from symloc.fields import add, const, coord, mul
from symloc.forms import _sampled_sup, contract, exterior_d
from symloc.hamspace import HamiltonianSpace, sample_points
from symloc.liealg import InputError, _check_count


def check_moment_condition(
    space: HamiltonianSpace, n_samples: int, seed: int = 0
) -> dict:
    """Max pointwise norm of iota_{V phi} omega + d<mu*, phi> over sampled
    points and unit phi (algebra basis directions plus random units)."""
    _check_count("n_samples", n_samples, 1)
    _check_count("seed", seed, 0)
    residual = contract(space.omega, space.action) + exterior_d(space.mu_phi_form())
    pts = sample_points(space, n_samples, seed)
    g = space.algebra.dim
    rng = np.random.default_rng(seed + 1)
    phis = list(np.eye(g))
    for _ in range(4):
        v = rng.standard_normal(g)
        phis.append(v / np.linalg.norm(v))
    worst = _sampled_sup(residual, pts, phis)
    return {
        "max_residual": worst,
        "n_samples": int(n_samples),
        "accepted": bool(worst < 1e-10),
    }


def validate_space(
    space: HamiltonianSpace, n_samples: int = 300, seed: int = 0
) -> dict:
    """Sampled-point verification of all structural invariants."""
    _check_count("n_samples", n_samples, 1)
    _check_count("seed", seed, 0)
    pts = sample_points(space, n_samples, seed)
    cache: dict = {}
    report: dict = {}

    # closedness of omega (phi-independent: one phi sample)
    report["d_omega"] = _sampled_sup(
        exterior_d(space.omega), pts, [np.zeros(space.algebra.dim)], cache
    )

    # matrix/form consistency
    om = np.asarray(space.omega_matrix.eval(pts, cache), dtype=float)
    assembled = np.zeros_like(om)
    for (fmi, nu), vals in space.omega.eval_terms(pts, cache).items():
        if sum(nu) != 0 or len(fmi) != 2:
            raise InputError("omega must be a phi-independent two-form")
        i, j = fmi
        assembled[:, i, j] += vals.real
        assembled[:, j, i] -= vals.real
    report["omega_matrix_consistency"] = float(np.max(np.abs(om - assembled)))

    # nondegeneracy
    det = np.linalg.det(om)
    report["min_abs_det_omega"] = float(np.min(np.abs(det)))

    # compatibility: J = -Omega^{-1} g, J^2 = -1, g SPD
    gmat = np.asarray(space.metric.eval(pts, cache), dtype=float)
    jmat = -np.linalg.solve(om, gmat)
    eye = np.eye(space.ambient_dim)
    report["j_squared"] = float(np.max(np.abs(jmat @ jmat + eye)))
    report["metric_symmetry"] = float(np.max(np.abs(gmat - np.swapaxes(gmat, 1, 2))))
    report["metric_min_eig"] = float(np.min(np.linalg.eigvalsh(gmat)))

    # moment condition
    mc = check_moment_condition(space, n_samples, seed)
    report["moment_residual"] = mc["max_residual"]

    report["ok"] = bool(
        report["d_omega"] < 1e-10
        and report["omega_matrix_consistency"] < 1e-10
        and report["min_abs_det_omega"] > 1e-8
        and report["j_squared"] < 1e-8
        and report["metric_min_eig"] > 0
        and report["moment_residual"] < 1e-10
    )
    return report


def with_corrupted_moment(space: HamiltonianSpace):
    """Negative control: leak `0.1 * x_0` into the first moment component
    so the moment condition acquires a position-dependent violation (a
    constant shift would die under d and go undetected)."""
    bad = list(space.moment_star)
    bad[0] = add(bad[0], mul(const(0.1), coord(0)))
    return HamiltonianSpace(
        name=space.name + ":corrupted",
        algebra=space.algebra,
        chart_id=space.chart_id,
        ambient_dim=space.ambient_dim,
        omega=space.omega,
        omega_matrix=space.omega_matrix,
        action=space.action,
        moment_star=bad,
        metric=space.metric,
        sample_box=space.sample_box,
        chart_radius=space.chart_radius,
        action_sampler=space.action_sampler,
    )
