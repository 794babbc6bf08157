"""Record the stdout digests that the benchmark's correctness gate uses.

    python3 perfbench/record_reference.py

Runs every command of every workload, at full and smoke size, twice with
different ``PYTHONHASHSEED`` values, and the canonicalization probe once.
It refuses to write ``perfbench/reference.json`` unless every command
exits 0, passes its independent check and prints the same bytes under
both hash seeds.  The digests in the repository were recorded on the
commit that introduced the benchmark; re-recording them is a change to
the benchmark and belongs in a change of its own.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import BENCH, OUT, Spawner
from workloads import WORKLOADS


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    with Spawner() as spawner:
        reference, problems = record(spawner)
    if problems:
        sys.exit("not recorded:\n" + "\n".join(problems))
    (BENCH / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")


def record(spawner):
    digests, problems = {}, []
    commands = {c.key: c for w in WORKLOADS.values()
                for c in w.commands + w.smoke}
    for key, cmd in sorted(commands.items()):
        seen = set()
        for hash_seed in (1, 2):
            outcome = spawner.run(["-m", "grt2.cli"] + list(cmd.argv),
                                  hash_seed, 600)
            if outcome.rc != 0:
                problems.append("%s: exit status %d" % (key, outcome.rc))
            problems += ["%s: %s" % (key, p) for p in
                         cmd.check(outcome.stdout.decode("utf-8", "replace"))]
            seen.add(hashlib.sha256(outcome.stdout).hexdigest())
        if len(seen) != 1:
            problems.append("%s: output depends on the hash seed" % key)
        digests[key] = min(seen)
        print("%s  %s" % (digests[key], key), flush=True)
    outcome = spawner.run([str(BENCH / "canon_probe.py"), "1"], 1, 600)
    if outcome.rc != 0:
        problems.append("canon probe: exit status %d" % outcome.rc)
    probe = json.loads(outcome.stdout or "{}")
    return {"commands": digests,
            "canon_probe": {k: probe.get(k)
                            for k in ("graphs", "classes", "zeros")}}, problems


if __name__ == "__main__":
    main()
