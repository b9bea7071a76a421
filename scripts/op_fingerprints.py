"""Record or compare the exact outputs of the benchmark workloads.

Record (one JSON object on stdout) with the tree under test on the path:

    PYTHONPATH=<tree>/src python scripts/op_fingerprints.py [--seeds 0 5]

For every workload of perfbench/workloads.py (always this checkout's copy,
imported read-only) and every seed it runs each operation once and keeps
its fingerprint, or the error it raised, then each probe once and keeps its
outcome: the check's verdict and detail, or the exception's type and
message.

Compare two records and print every operation or probe that differs:

    python scripts/op_fingerprints.py --compare BASE.json HEAD.json

The comparison only reports; it exits 0 either way.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def _outcome(run, inputs):
    try:
        return run(inputs), None
    except Exception as exc:  # an op's failure is part of its record
        return None, f"{type(exc).__name__}: {exc}"


def record(seeds) -> dict:
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, PERFBENCH)
    import workloads

    out = {}
    for name in workloads.WORKLOADS:
        for seed in seeds:
            wl = workloads.make(name, seed)
            inputs = wl.build()
            for op in wl.ops:
                res, err = _outcome(op.run, inputs)
                out[f"{name} seed {seed} op: {op.name}"] = (
                    err if err is not None else repr(op.fingerprint(res)))
            for op in wl.probes:
                res, err = _outcome(op.run, inputs)
                out[f"{name} seed {seed} probe: {op.name}"] = (
                    err if err is not None else repr(op.check(res)))
    return out


def compare(base_path, head_path) -> list:
    with open(base_path) as f:
        base = json.load(f)
    with open(head_path) as f:
        head = json.load(f)
    lines = []
    for key in sorted(set(base) | set(head)):
        if base.get(key) != head.get(key):
            lines.append(f"DIFFERS {key}\n  base: {base.get(key)}\n  head: {head.get(key)}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 5])
    p.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = p.parse_args(argv)
    if args.compare:
        lines = compare(*args.compare)
        print("\n".join(lines) if lines else "every op fingerprint and probe outcome is the same")
        return
    json.dump(record(args.seeds), sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
