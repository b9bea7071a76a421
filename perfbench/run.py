"""Benchmark entry point.

    python3 perfbench/run.py --workload bi_deformed|eps_sweep|localization \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in a fresh
worker process (worker.py) that drives symloc from ./src through its
public calls.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb, ok_share); with ``--trace 1`` it carries the per-layer
metrics of a traced run.  The full record, with every check, the
check-phase probes and the provenance, is written to
perfbench/out/BENCH_<workload>_seed<N>_trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bi_deformed", "eps_sweep", "localization")
SETUP_PROBES = 2        # extra fresh processes that only set up (trace 0)
RUN_LIMIT_S = 170.0     # the whole run ends well inside 180 s


def _metric_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def _worker(args, deadline, setup_only=False):
    """Run worker.py in a fresh interpreter; return its JSON record."""
    src = os.path.abspath("src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(rec, setups, units):
    """The JSON result line and the full record's derived fields."""
    ops, probes = rec["ops"], rec["probes"]
    failed_ops = sum(not o["ok"] for o in ops)
    failed_probes = sum(not p["ok"] for p in probes)
    attempted_all = len(ops) + len(probes)
    fail_share = (failed_ops + failed_probes) / attempted_all
    correct = failed_ops == 0 and not any(
        p["error"] is None and not p["ok"] for p in probes)
    rec["derived"] = {"fail_share": fail_share, "failed_ops": failed_ops,
                      "failed_probes": failed_probes, "attempted": attempted_all,
                      "setup_samples": setups, "correct": correct}
    if "traced" in rec:
        layers = rec["traced"]["layers"]
    else:
        layers = {
            "wall_s": rec["passes"]["wall_s"],
            "cpu_s": rec["passes"]["cpu_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rec["peak_rss_mb"],
            "ok_share": 1.0 - fail_share,
        }
    if set(layers) != set(units):
        raise RuntimeError(f"metrics {sorted(set(layers) ^ set(units))} do not "
                           "match BENCHMARK.json")
    metrics = {k: {"value": layers[k], "unit": u} for k, u in units.items()}
    # The result line's operation counts cover the timed operations; the probes
    # of known defects are reported through ok_share and fail_share.
    return {"correct": correct, "attempted": len(ops), "failed": failed_ops,
            "metrics": metrics}


def main():
    args = _args()
    if not os.path.isfile(os.path.join("src", "symloc", "__init__.py")):
        sys.stderr.write("perfbench: no symloc sources under ./src; run from the "
                         "root of a source checkout\n")
        return 2
    units = _metric_units(args.trace)
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(_worker(args, deadline, setup_only=True)["setup"]["setup_s"])
    rec = _worker(args, deadline)
    setups.append(rec["setup"]["setup_s"])
    result = _summary(rec, setups, units)

    out_dir = os.path.join(HERE, "out")
    path = os.path.join(
        out_dir, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(rec, fh, indent=1, sort_keys=True)
    except OSError as exc:  # the record is a by-product; the result line is not
        sys.stderr.write(f"perfbench: record not written: {exc}\n")

    d = rec["derived"]
    for o in rec["ops"]:
        print(f"op    {'ok  ' if o['ok'] else 'FAIL'} {o['name']}"
              + (f"  [{o['error']}]" if o["error"] else ""))
    for p in rec["probes"]:
        print(f"probe {'ok  ' if p['ok'] else 'FAIL'} {p['name']}"
              + (f"  [{p['error']}]" if p["error"] else ""))
    print(f"fail_share {d['fail_share']:.6g} ratio "
          f"({d['failed_ops'] + d['failed_probes']}/{d['attempted']})")
    for k, m in result["metrics"].items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    if rec.get("traced", {}).get("absent_metrics"):
        print("absent (hook target gone, reported as 0): "
              + ", ".join(rec["traced"]["absent_metrics"]))
    print(f"record {os.path.relpath(path)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
