#!/usr/bin/env python3
"""Write perfbench/golden.json: the expected output of every op any seed can
produce, and the README CLI examples with their exact stdout and exit code.

    python3 perfbench/make_golden.py

Run it only on a commit whose outputs are trusted; the benchmark counts every
later difference from this file as a failed op.  Takes a few minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from run import GOLDEN, HERE, import_library

README_CLI_EXAMPLES = (
    "charpoly --p 3 --n 1 --gamma-T 0 --g 1 --delta 1",
    "classify --p 3 --n 2 --gamma-T 0 --g 0 --delta 1 --output plain",
    "endring --p 3 --n 1 --gamma-T 0 --g 1 --delta 1",
    "census --p 3 --P T --m 1 --output csv",
    "chi --p 3 --d 1 --m 1",
    "realize --p 3 --P T --m 2 --strict",
)


def family_golden(wl):
    out = {}
    for q, d, m in wl.shapes:
        for P in workloads.p_pool(workloads.base_field(q), d):
            op = workloads.Op((q, d, m), workloads.family_key(q, P, m), 0, (P, m))
            out[op.key] = workloads.digest(wl.canon(wl.call(op)))
        print(wl.name, (q, d, m), file=sys.stderr)
    return out


def query_golden():
    wl = workloads.WORKLOADS["module_queries"]
    out = []
    for op in wl.setup(0)["ops"]:
        text, dm, cp = wl.call(op)
        if not workloads.frobenius.verify(dm, cp):
            raise SystemExit("charpoly failed verify() for query %d" % op.key)
        out.append(workloads.digest(text))
    return out


def cli_golden():
    from drinfeld2 import cli

    cases = []
    for line in README_CLI_EXAMPLES:
        argv = line.split()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        cases.append({"argv": argv, "exit": code, "stdout": buf.getvalue()})
    return cases


if __name__ == "__main__":
    import_library()
    sys.path.insert(0, str(HERE))
    import workloads

    W = workloads.WORKLOADS
    golden = {
        "realize_sweep": family_golden(W["realize_sweep"]),
        "census_grid": family_golden(W["census_grid"]),
        "module_queries": query_golden(),
        "cli": cli_golden(),
    }
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
