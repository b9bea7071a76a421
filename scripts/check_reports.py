"""Record or compare the reports of the public check ops.

Record (one JSON object on stdout) with the tree under test on the path:

    PYTHONPATH=<tree>/src python scripts/check_reports.py

On cn_u1(1,1), cn_u1(2,1), weighted_cn_u1(2,(1,2),1) and c2_su2 it keeps
the space's definition: the repr of every Expr of omega, the action and
mu*, omega_matrix and the metric at the origin, the radial descriptor, the
sample box, and the action sampler's image of 8 fixed points at a fixed
xi.  Then it runs each public check op once and keeps every field of its
report, or the error it raised (type and message):

    check_alpha, invariance_residual, find_critical_points +
    local_model_check (and the search at c -/+ REGULAR_MARGIN/2 for the
    top critical value c), zero_level's regularity report (with its phase
    probe residual), grid shape and node count, damping_check and
    global_convergence_check;

and the reports of the space oracles of tests/space_checks.py (this
checkout's copy, run on the tree under test): check_moment_condition, on
the space and on with_corrupted_moment of it, and validate_space.

On the five standard_model(...) spaces it keeps only the definition, by
value (their Exprs reach MatrixField nodes, which have no repr): every
Expr of omega, the action and mu*, omega_matrix and the metric at the 8
sample points, and the sampler's image of them with all 8 Jacobians.

Compare two records and print every field that differs, with the size of
a numeric move:

    python scripts/check_reports.py --compare BASE.json HEAD.json

The comparison only reports; it exits 0 either way.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

TESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests")

SPACES = ("cn_u1(1,1)", "cn_u1(2,1)", "weighted_cn_u1(2,(1,2),1)", "c2_su2")
MODELS = ("standard_model(u1_w1,G)", "standard_model(u1_w1,H)", "standard_model(u1_beta,G)",
          "standard_model(su2_hopf,G)", "standard_model(su2_hopf,H)")
R_MAX = 1.0                       # the critical search radius
DAMPING_RADII = (0.36, 0.1)       # damping_check(r, s)
GLOBAL_RADII = (0.36, 0.64, 1.0, 1.44)
EPSILON = 0.05


def _plain(value):
    """A JSON value for a report field: numbers stay exact (a complex is
    [re, im]), arrays and containers recurse."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _flatten(prefix: str, value, out: dict):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}", v, out)
    else:
        out[prefix] = value


def _run(out: dict, key: str, thunk, view=lambda res: res):
    """Keep every field of view(thunk()) under ``key``, or the error
    thunk() raised; return thunk()'s result (None on an error)."""
    try:
        res = thunk()
    except Exception as exc:  # an op's refusal is part of its record
        out[key] = f"{type(exc).__name__}: {exc}"
        return None
    _flatten(key, _plain(view(res)), out)
    return res


def _alphas(space):
    from symloc.forms import EquivariantForm
    from symloc.integrate import pairing_alpha

    g = space.algebra.dim
    alphas = {
        "1": EquivariantForm.scalar(space.chart_id, space.ambient_dim, g, 1.0),
        "omega+i<mu,phi>": space.omega + space.mu_phi_form().scale(1j),
        "dx0": EquivariantForm.dx(space.chart_id, space.ambient_dim, g, 0),
    }
    if g == 1:
        alphas["<phi,e>"] = pairing_alpha(space, [1.0])
    return alphas


def _definition(space) -> dict:
    from symloc.hamspace import sample_points

    origin = np.zeros((1, space.ambient_dim))
    xi = np.linspace(-0.61, 0.37, space.algebra.dim)
    image, jac = space.action_sampler(xi, sample_points(space, 8, 2))
    return {
        "omega": {f"{fmi} {nu}": repr(c)
                  for (fmi, nu), c in sorted(space.omega.indexed_terms.items())},
        "action": [[repr(c) for c in row] for row in space.action.components],
        "moment_star": [repr(m) for m in space.moment_star],
        "omega_matrix": space.omega_matrix.eval(origin)[0],
        "metric": space.metric.eval(origin)[0],
        "radial": dataclasses.asdict(space.radial) if space.radial else None,
        "sample_box": space.sample_box,
        "sampler": {"image": image, "jacobian": jac[0]},
    }


def _model_definition(space) -> dict:
    from symloc.fields import column
    from symloc.hamspace import sample_points

    pts = sample_points(space, 8, 2)
    xi = np.linspace(-0.61, 0.37, space.algebra.dim)
    image, jac = space.action_sampler(xi, pts)
    cache: dict = {}

    def values(exprs):
        return [column(e, pts, cache) for e in exprs]

    return {
        "omega": {f"{fmi} {nu}": column(c, pts, cache)
                  for (fmi, nu), c in sorted(space.omega.indexed_terms.items())},
        "action": [values(row) for row in space.action.components],
        "moment_star": values(space.moment_star),
        "omega_matrix": space.omega_matrix.eval(pts, cache),
        "metric": space.metric.eval(pts, cache),
        "sample_box": space.sample_box,
        "sampler": {"image": image, "jacobian": jac},
    }


def _space_checks():
    """tests/space_checks.py of this checkout."""
    if TESTS not in sys.path:
        sys.path.insert(0, TESTS)
    import space_checks

    return space_checks


def record_space(name: str) -> dict:
    from symloc import analysis, critical, hamspace, integrate, reduced
    from symloc.forms import invariance_residual
    from symloc.liealg import REGULAR_MARGIN

    space_checks = _space_checks()
    space = hamspace.catalog_from_string(name)
    alphas = _alphas(space)
    out: dict = {}
    _run(out, "definition", lambda: _definition(space))
    pts = hamspace.sample_points(space, 40, 0)
    phis = np.random.default_rng(1).standard_normal((4, space.algebra.dim))
    for label, alpha in alphas.items():
        _run(out, f"check_alpha({label})", lambda: integrate.check_alpha(space, alpha))
        _run(out, f"invariance_residual({label})", lambda: invariance_residual(
            alpha, space.action, space.algebra, pts, phis))
    _run(out, "check_moment_condition", lambda: space_checks.check_moment_condition(space, 200))
    _run(out, "check_moment_condition(corrupted)", lambda: space_checks.check_moment_condition(
        space_checks.with_corrupted_moment(space), 200))
    _run(out, "validate_space", lambda: space_checks.validate_space(space))

    found = _run(out, "find_critical_points", lambda: critical.find_critical_points(
        space, R_MAX), view=lambda comps: [c.to_json_dict() for c in comps])
    for i, comp in enumerate(found or ()):
        _run(out, f"local_model_check[{i}]", lambda: critical.local_model_check(space, comp))
    if found:
        top = found[-1].critical_value
        for side in (-0.5, 0.5):
            r = top + side * REGULAR_MARGIN
            _run(out, f"find_critical_points(c{side:+g}*margin)", lambda: [
                c.critical_value for c in critical.find_critical_points(space, r)])

    _run(out, "zero_level", lambda: reduced.zero_level(space),
         view=lambda lv: {**lv.regularity_report, "grid_shape": lv.grid_shape,
                          "n_nodes": lv.n_nodes})

    unit = alphas["1"]
    _run(out, "damping_check", lambda: analysis.damping_check(space, unit, *DAMPING_RADII))
    _run(out, "global_convergence_check", lambda: analysis.global_convergence_check(
        space, unit, GLOBAL_RADII, EPSILON))
    return out


def record(spaces=SPACES, models=MODELS) -> dict:
    from symloc.hamspace import catalog_from_string

    out = {}
    for name in spaces:
        for key, value in record_space(name).items():
            out[f"{name} {key}"] = value
    for name in models:
        _run(out, f"{name} definition", lambda: _model_definition(catalog_from_string(name)))
    return out


def _move(base, head) -> str:
    """The size of a numeric move: absolute, and in units in the last place
    of the base value."""
    try:
        b, h = np.asarray(base, dtype=float), np.asarray(head, dtype=float)
    except (TypeError, ValueError):
        return ""
    if b.shape != h.shape or not (np.all(np.isfinite(b)) and np.all(np.isfinite(h))):
        return ""
    diff = np.abs(h - b)
    ulps = diff / np.spacing(np.maximum(np.abs(b), np.finfo(float).tiny))
    return f"  |move| {float(np.max(diff)):.3g} ({float(np.max(ulps)):.3g} ulp)"


def compare(base_path, head_path) -> list:
    with open(base_path) as f:
        base = json.load(f)
    with open(head_path) as f:
        head = json.load(f)
    lines = []
    for key in sorted(set(base) | set(head)):
        b, h = base.get(key), head.get(key)
        if b != h:
            lines.append(f"DIFFERS {key}\n  base: {b}\n  head: {h}{_move(b, h)}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = p.parse_args(argv)
    if args.compare:
        lines = compare(*args.compare)
        print("\n".join(lines) if lines else "every check report is the same")
        return
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
