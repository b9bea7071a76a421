"""One workload in a fresh process; started by run.py, prints one JSON record.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --t0 MONOTONIC [--setup-only]

``--t0`` is the parent's time.monotonic() just before it started this
process (the clock is system-wide), so the set-up time covers interpreter
start, the symloc import and building the workload's inputs.  With
``--setup-only`` the worker stops there.

Otherwise it repeats the workload's timed pass while the next pass is
predicted to end within ``--seconds`` (at least one pass).  With
``--trace 1`` the budget is split: untraced passes first, then passes with
the tracer installed; the difference of the two median pass times is the
tracing overhead.  After each pass, untimed, every output is checked
against its closed form and must repeat exactly across passes, traced or
not.  The check phase at the end runs the workload's probes once.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time


def _args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _setup(args):
    t_import = time.perf_counter()
    import symloc.analysis  # noqa: F401  (pulls in the other modules)
    import symloc.critical  # noqa: F401
    import symloc.reduced  # noqa: F401
    import_s = time.perf_counter() - t_import

    import workloads

    t_catalog = time.perf_counter()
    wl = workloads.make(args.workload, args.seed)
    inputs = wl.build()
    catalog_s = time.perf_counter() - t_catalog
    setup = {"setup_s": time.monotonic() - args.t0, "import_s": import_s,
             "catalog_s": catalog_s}
    return wl, inputs, setup


def _one_pass(wl, inputs):
    """Time one pass over the operations, then check its outputs (untimed).

    Only the check results and fingerprints are kept, so the outputs of
    earlier passes do not add to the peak memory of later ones."""
    outputs, op_walls, op_cpus = [], [], []
    for op in wl.ops:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            outputs.append((op.run(inputs), None))
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        op_walls.append(time.perf_counter() - wall0)
        op_cpus.append(time.process_time() - cpu0)
    checked = []
    for op, (out, err) in zip(wl.ops, outputs):
        if err is None:
            ok, detail = op.check(out)
            checked.append({"ok": ok, "error": None, "detail": detail,
                            "fingerprint": op.fingerprint(out)})
        else:
            checked.append({"ok": False, "error": err, "detail": None,
                            "fingerprint": None})
    return op_walls, op_cpus, checked


def _passes(wl, inputs, budget, before=None, after=None):
    """Timed passes while the next one is predicted to end within budget."""
    walls, cpus, runs = [], [], []
    start = time.perf_counter()
    while True:
        if before:
            before()
        op_walls, op_cpus, checked = _one_pass(wl, inputs)
        walls.append(op_walls)
        cpus.append(op_cpus)
        runs.append((checked, after() if after else None))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(sum(w) for w in walls) > budget:
            return walls, cpus, runs


def _fastest(per_pass):
    """Sum over operations of each operation's fastest pass: one pass's
    time with the host's slow-downs filtered out."""
    return sum(min(col) for col in zip(*per_pass))


def _check_ops(ops, runs_by_label):
    """Merge the per-pass checks; every output must repeat exactly."""
    records = []
    for i, op in enumerate(ops):
        rec = {"name": op.name, "ok": True, "error": None, "detail": None,
               "repeats_exactly": True}
        reference = None
        for label, runs in runs_by_label.items():
            for checked, _ in runs:
                c = checked[i]
                rec["ok"] = rec["ok"] and c["ok"]
                rec["error"] = rec["error"] or c["error"]
                rec["detail"] = c["detail"] or rec["detail"]
                if c["fingerprint"] is None:
                    continue
                if reference is None:
                    reference = c["fingerprint"]
                elif c["fingerprint"] != reference:
                    rec.update(ok=False, repeats_exactly=False,
                               mismatch=f"a {label} pass differs from the first pass")
        records.append(rec)
    return records


def _probe(op, inputs):
    rec = {"name": op.name, "ok": False, "error": None, "detail": None}
    try:
        out = op.run(inputs)
    except Exception as exc:  # the probe's expected outcome on known defects
        rec["error"] = type(exc).__name__
        rec["message"] = str(exc)[:300]
        return rec
    rec["ok"], rec["detail"] = op.check(out)
    return rec


def _git_commit():
    head = os.path.join(".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = os.path.join(".git", name)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    return None


def _openblas_threads():
    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _provenance():
    import numpy
    import scipy

    import symloc

    try:
        from symloc._kernels import IMPLEMENTATION as kernels
    except ImportError:
        kernels = None
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "kernels_implementation": kernels,
        "symloc_path": os.path.dirname(symloc.__file__),
        "machine": platform.machine(),
    }


def main(argv=None):
    args = _args(argv)
    wl, inputs, setup = _setup(args)
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    record = {"workload": wl.name, "seed": args.seed, "params": wl.params,
              "setup": setup}
    if args.trace:
        from tracing import Tracer

        half = args.seconds / 2.0
        walls, cpus, runs = _passes(wl, inputs, half)
        tracer = Tracer()
        tracer.install()
        try:
            t_walls, _, t_runs = _passes(
                wl, inputs, half, before=tracer.reset,
                after=lambda: (tracer.metrics(), tracer.spans()))
        finally:
            tracer.uninstall()
        per_pass = [m for _, (m, _) in t_runs]
        layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        layers["trace.overhead_s"] = _fastest(t_walls) - _fastest(walls)
        layers["symloc.import_s"] = setup["import_s"]
        layers["hamspace.catalog_s"] = setup["catalog_s"]
        record["traced"] = {"walls": t_walls, "layers": layers,
                            "spans_last_pass": t_runs[-1][1][1],
                            "absent_hooks": tracer.absent,
                            "absent_metrics": sorted(tracer.absent_metrics)}
        runs_by_label = {"untraced": runs, "traced": t_runs}
    else:
        walls, cpus, runs = _passes(wl, inputs, args.seconds)
        runs_by_label = {"untraced": runs}
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_walls = [sum(w) for w in walls]
    record["passes"] = {"wall_s": _fastest(walls), "cpu_s": _fastest(cpus),
                        "n": len(walls), "median_pass_s": statistics.median(pass_walls),
                        "max_pass_s": max(pass_walls),
                        "op_walls": walls, "op_cpus": cpus}

    # Check phase: untimed.
    record["ops"] = _check_ops(wl.ops, runs_by_label)
    record["probes"] = [_probe(op, inputs) for op in wl.probes]
    record["provenance"] = _provenance()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
