"""Show the spread of a set of benchmark runs, or compare two sets.

    python3 perfbench/compare.py RUN.json...
    python3 perfbench/compare.py BASE.json... --against NEW.json...

RUN files are the records ``run.py`` writes to ``perfbench/out/``.  For
every workload and metric this prints the median over runs, the
quartiles and the spread, (q3 - q1) / median.  With ``--against`` it also
prints the change of the median and a verdict from the metric's bound in
``BENCHMARK.json``: ``worse`` past the bound, ``unresolved`` when the
base spread is wider than the bound and the two sets overlap, ``ok``
otherwise.  A gain is not claimed here; that needs paired runs.

Runs are compared only when they agree on the workload's mode (trace,
smoke, seconds), the Python version and the canonicalization backend;
anything else is refused with exit status 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUST_MATCH = (("trace", lambda r: r["trace"]),
              ("smoke", lambda r: r["smoke"]),
              ("seconds", lambda r: r["seconds"]),
              ("python version", lambda r: r["env"]["python"]),
              ("canon backend", lambda r: r["env"]["canon_backend"]))


def stats(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="+", type=Path)
    parser.add_argument("--against", nargs="+", type=Path, default=[])
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in
              spec["end_to_end"] + spec["per_layer"]}
    better = {m["name"]: m["better"] for m in
              spec["end_to_end"] + spec["per_layer"]}
    base = [json.loads(p.read_text()) for p in args.base]
    new = [json.loads(p.read_text()) for p in args.against]
    records = base + new
    for label, key in MUST_MATCH:
        seen = {str(key(r)) for r in records}
        if len(seen) > 1:
            print("refusing to compare: runs differ in %s (%s)"
                  % (label, ", ".join(sorted(seen))), file=sys.stderr)
            return 2
    names = [m["name"] for m in
             spec["per_layer" if records[0]["trace"] else "end_to_end"]]
    status = 0
    for workload in sorted({r["workload"] for r in records}):
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        print("%s: %d base runs%s" % (workload, len(b), ", %d new" % len(n)
                                      if new else ""))
        for name in names:
            bv = [r["metrics"][name]["value"] for r in b]
            if not bv:
                continue
            med, q1, q3, spread = stats(bv)
            line = "  %-44s %12.6g  q1 %10.6g  q3 %10.6g  spread %.4f" % (
                name, med, q1, q3, spread)
            bound = bounds.get(name)
            if bound is not None:
                line += " (bound %.2f)" % bound
            nv = [r["metrics"][name]["value"] for r in n]
            if nv:
                nmed = statistics.median(nv)
                change = (nmed - med) / med if med else 0.0
                line += "  new %12.6g  change %+.4f" % (nmed, change)
                if bound is not None:
                    worse = change if better[name] == "lower" else -change
                    apart = (max(nv) < min(bv) or min(nv) > max(bv))
                    if worse > bound:
                        verdict = "worse"
                        status = 1
                    elif spread > bound and not apart:
                        verdict = "unresolved"
                    else:
                        verdict = "ok"
                    line += "  " + verdict
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
