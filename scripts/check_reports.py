"""Record or compare the reports of the public check ops.

Record (one JSON object on stdout) with the tree under test on the path:

    PYTHONPATH=<tree>/src python scripts/check_reports.py

On cn_u1(1,1), cn_u1(2,1), weighted_cn_u1(2,(1,2),1) and c2_su2 it runs
each public check op once and keeps every field of its report, or the
error it raised (type and message):

    check_alpha, invariance_residual, check_moment_condition,
    validate_space, find_critical_points + local_model_check (and the
    search at c -/+ REGULAR_MARGIN/2 for the top critical value c),
    curvature, basic_residual of cartan_map, cartan_d_residual,
    normal_form_check, chern_numbers, damping_check and
    global_convergence_check.

The level ops run on zero_level(space) and are skipped where it raises.

Compare two records and print every field that differs, with the size of
a numeric move:

    python scripts/check_reports.py --compare BASE.json HEAD.json

The comparison only reports; it exits 0 either way.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

SPACES = ("cn_u1(1,1)", "cn_u1(2,1)", "weighted_cn_u1(2,(1,2),1)", "c2_su2")
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


def record_space(name: str) -> dict:
    from symloc import analysis, critical, hamspace, integrate, reduced
    from symloc.forms import invariance_residual
    from symloc.liealg import REGULAR_MARGIN

    space = hamspace.catalog_from_string(name)
    alphas = _alphas(space)
    out: dict = {}
    pts = hamspace.sample_points(space, 40, 0)
    phis = np.random.default_rng(1).standard_normal((4, space.algebra.dim))
    for label, alpha in alphas.items():
        _run(out, f"check_alpha({label})", lambda: integrate.check_alpha(space, alpha))
        _run(out, f"invariance_residual({label})", lambda: invariance_residual(
            alpha, space.action, space.algebra, pts, phis))
    _run(out, "check_moment_condition", lambda: hamspace.check_moment_condition(space, 200))
    _run(out, "check_moment_condition(corrupted)", lambda: hamspace.check_moment_condition(
        hamspace.with_corrupted_moment(space), 200))
    _run(out, "validate_space", lambda: hamspace.validate_space(space))

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

    level = _run(out, "zero_level", lambda: reduced.zero_level(space),
                 view=lambda lv: lv.regularity_report)
    if level is not None:
        _run(out, "curvature", lambda: reduced.curvature(level), view=lambda cv: {
            "horizontality_residual": cv.horizontality_residual,
            "invariance_residual": cv.invariance_residual,
        })
        for label, alpha in alphas.items():
            _run(out, f"basic_residual(cartan_map({label}))", lambda: reduced.basic_residual(
                level, reduced.cartan_map(alpha, level)))
            _run(out, f"cartan_d_residual({label})", lambda: reduced.cartan_d_residual(
                alpha, level))
        _run(out, "normal_form_check", lambda: reduced.normal_form_check(space, level))
        _run(out, "chern_numbers", lambda: reduced.chern_numbers(level))

    unit = alphas["1"]
    _run(out, "damping_check", lambda: analysis.damping_check(space, unit, *DAMPING_RADII))
    _run(out, "global_convergence_check", lambda: analysis.global_convergence_check(
        space, unit, GLOBAL_RADII, EPSILON))
    return out


def record(spaces=SPACES) -> dict:
    out = {}
    for name in spaces:
        for key, value in record_space(name).items():
            out[f"{name} {key}"] = value
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
