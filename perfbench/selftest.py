#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. A corrupted golden entry must make the run report a failed op, and a
   corrupted CLI corpus entry a CLI mismatch.
2. Two traced runs of the same seed must produce identical call and yield
   counts.

Uses census_grid, the workload with the cheapest full pass (about a minute
in all).  Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys

import run


def main():
    run.import_library()
    sys.path.insert(0, str(run.HERE))
    import workloads

    wl = workloads.WORKLOADS["census_grid"]
    golden = json.loads(run.GOLDEN.read_text())
    args = argparse.Namespace(workload=wl.name, seed=7, seconds=0.0, trace=0)
    failures = []

    bad = copy.deepcopy(golden)
    # every P of the first shape, since a pass may draw any of them
    victims = [op.key for op in wl.setup(args.seed)["slots"][0]]
    for key in victims:
        bad[wl.name][key] = "0" * len(bad[wl.name][key])
    bad["cli"][0]["stdout"] += " "
    attempted, failed, _, _ = run.timed_run(wl, args, bad[wl.name])
    if not failed:
        failures.append("corrupted golden entries %s were not counted as failed" % victims)
    print("corrupted golden: %d/%d ops failed" % (failed, attempted))
    if run.run_cli_corpus(bad["cli"]) != 1:
        failures.append("corrupted CLI corpus entry was not reported")

    attempted, failed, _, _ = run.timed_run(wl, args, golden[wl.name])
    if failed or run.run_cli_corpus(golden["cli"]):
        failures.append("clean golden: %d/%d ops failed" % (failed, attempted))

    args.trace = 1
    counts = []
    for _ in range(2):
        *_, extra, _ = run.traced_run(wl, args, golden[wl.name])
        counts.append((extra["counts"], extra["yields"]))
    if counts[0] != counts[1]:
        diff = sorted(k for k in set(counts[0][0]) | set(counts[1][0])
                      if counts[0][0].get(k) != counts[1][0].get(k))
        failures.append("traced call counts differ between runs: %s" % diff[:10])
    print("traced runs: %d counters, identical=%s" % (len(counts[0][0]), counts[0] == counts[1]))

    for line in failures:
        print("FAIL:", line)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
