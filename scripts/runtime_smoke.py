"""Run one call of each runtime op family and report what the process loaded.

    PYTHONPATH=src python scripts/runtime_smoke.py

Runs, on the catalog spaces the benchmark uses:

* the critical search on cn_u1(2,1) and on c2_su2 (critical);
* zero_level + kirwan_integral on cn_u1(2,1) (reduced);
* one t > 0 Basic Integral on cn_u1(1,1) (integrate);
* the degree-0 epsilon sweep on cn_u1(2,1), one large_t_limit on
  cn_u1(1,1), with the t* its rate bound sizes and its confirming gap,
  and one default contribution on cn_u1(1,1) (analysis);
* the G and H action samplers of the su2_hopf standard model (hamspace);
* zero_level + kirwan_integral on cn_u1(2,1) again, with a metric the
  phase torus moves, so the level is built on the full 32^3 mesh its
  failed phase probe falls back to.  No benchmark workload runs that
  path, so its wall time is printed.

Prints one line per op, then the peak RSS and the scipy modules loaded.
symloc needs only NumPy at runtime, so the list must be empty: the script
exits 1 when it is not.
"""

from __future__ import annotations

import resource
import sys
import time

import numpy as np


def main() -> int:
    from symloc import analysis, critical, integrate, reduced
    from symloc.fields import MatConst
    from symloc.forms import EquivariantForm
    from symloc.hamspace import HamiltonianSpace, catalog, catalog_from_string, sample_points

    def space_and_one(text):
        space = catalog_from_string(text)
        return space, EquivariantForm.scalar(
            space.chart_id, space.ambient_dim, space.algebra.dim, 1.0
        )

    cn2, one2 = space_and_one("cn_u1(2,1)")
    cn1, one1 = space_and_one("cn_u1(1,1)")
    for space in (cn2, catalog_from_string("c2_su2")):
        comps = critical.find_critical_points(space, 1.0)
        print(f"find_critical_points {space.name}: n_converged",
              [c.n_converged for c in comps])
    level = reduced.zero_level(cn2)
    print(f"zero_level + kirwan_integral {cn2.name}: "
          f"{reduced.kirwan_integral(one2, level, 0.05).value.real:.12f}")
    bi = integrate.basic_integral(
        integrate.BasicIntegralRequest(space=cn1, alpha=one1, r=0.16, epsilon=0.05, t=4.0)
    )
    print(f"basic_integral {cn1.name} t=4: {bi.value.real:.12f}")
    sweep = analysis.epsilon_sweep(cn2, one2, r=0.16, t_policy=0.0, poly_degree_max=0)
    print(f"epsilon_sweep {cn2.name} degree 0: poly part {sweep.poly_coeffs[0].real:.9f}")
    limit, diag = analysis.large_t_limit(cn1, one1, 0.36, 0.1)
    print(f"large_t_limit {cn1.name}: {limit.real:.12f} at t* = {diag['t_values'][0]:.4g}, "
          f"gap {diag['plateau_gap']:.2g}")
    rec = analysis.contribution(cn1, one1, 1, [0.05, 0.1])
    print(f"contribution {cn1.name} index 1:",
          ", ".join(f"{v.real:.12f}" for v in rec.values))
    for which in "GH":
        space = catalog("standard_model", preset="su2_hopf", which=which)
        pts = sample_points(space, 64, 0)
        new_pts, jac = space.action_sampler(np.full(space.algebra.dim, 0.3), pts)
        print(f"action_sampler {space.name}: finite", bool(
            np.all(np.isfinite(new_pts)) and np.all(np.isfinite(jac))))

    # the realified Hermitian metric [[1, 0.3], [0.3, 1]]: u(1) preserves
    # it, the phase torus does not, so A moves with the angles
    tilted = HamiltonianSpace(**{
        **{name: getattr(cn2, name) for name in HamiltonianSpace.__slots__},
        "name": "cn_u1(2,1) tilted",
        "metric": MatConst(np.kron([[1.0, 0.3], [0.3, 1.0]], np.eye(2))),
    })
    t0 = time.perf_counter()
    level = reduced.zero_level(tilted)
    value = reduced.kirwan_integral(one2, level, 0.05).value.real
    print(f"zero_level + kirwan_integral {tilted.name} on the full mesh "
          f"{level.grid_shape}: {value:.12f} in {time.perf_counter() - t0:.3f} s")

    print("ru_maxrss: %.1f MB" % (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print("scipy modules:", loaded)
    return 1 if loaded else 0


if __name__ == "__main__":
    sys.exit(main())
