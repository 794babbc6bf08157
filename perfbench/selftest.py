"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Every workload, at smoke size for one second, with ``--trace 0`` and
   ``--trace 1``: the run exits 0 and its last line holds exactly the keys
   ``correct``, ``attempted``, ``failed`` and ``metrics``, no failure, and
   every metric ``BENCHMARK.json`` names for that mode.
2. The same run against a reference with one digest altered exits 1,
   reports the command as failed and records a nonzero ``fail_ratio``.
3. ``run.py`` in a directory that holds only ``BENCHMARK.json`` and the
   benchmark's files exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import BENCH, OUT, ROOT
from workloads import WORKLOADS


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "3",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", proc


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in sorted(WORKLOADS):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            rc, last, proc = bench("--workload", workload, "--trace",
                                   str(trace), "--smoke")
            what = "%s --trace %d" % (workload, trace)
            try:
                result = json.loads(last)
            except ValueError:
                problems.append("%s: no result line\n%s" % (what, proc.stderr))
                continue
            if rc != 0 or result.get("failed") != 0 or not result["correct"]:
                problems.append("%s: exit %d, %s\n%s"
                                % (what, rc, last[:200], proc.stderr))
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: keys %s" % (what, sorted(result)))
            want = sorted(m["name"] for m in spec[kind])
            if sorted(result["metrics"]) != want:
                problems.append("%s: metrics %s, expected %s"
                                % (what, sorted(result["metrics"]), want))
            print("ok  %s: %d commands" % (what, result["attempted"]))

    reference = json.loads((BENCH / "reference.json").read_text())
    tampered = OUT / "tampered-reference.json"
    key = WORKLOADS["relations_all"].smoke[0].key
    reference["commands"][key] = "0" * 64
    tampered.write_text(json.dumps(reference))
    rc, last, proc = bench("--workload", "relations_all", "--trace", "0",
                           "--smoke", "--reference", str(tampered))
    record = json.loads(
        (OUT / "relations_all-seed3-trace0-smoke.json").read_text())
    result = json.loads(last)
    if rc != 1 or result["correct"] or not result["failed"] \
            or not record["fail_ratio"] or key not in proc.stderr:
        problems.append("tampered digest was not caught: exit %d, %s"
                        % (rc, last[:200]))
    else:
        print("ok  tampered digest: exit 1, %d/%d failed"
              % (result["failed"], result["attempted"]))

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, last, proc = bench("--workload", "dims_sweep", "--trace", "0",
                           cwd=bare)
    shutil.rmtree(bare)
    if rc == 0 or last.startswith("{"):
        problems.append("without sources: exit %d, %r" % (rc, last))
    else:
        print("ok  without sources: exit %d, no result" % rc)

    if problems:
        print("\n".join(["FAILED"] + problems), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
