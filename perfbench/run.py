"""The grt2 benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; grt2 is used from its ``src``
directory.  The only build step is byte-compiling ``src`` before anything
is timed; the optional compiled canonicalization kernel is not built, and
the backend in use is recorded as ``canon_backend``.

One process drives a closed loop with one client: the workload's
commands (see ``workloads.py``) run one at a time, each in a fresh
interpreter, in an order drawn from the seed.  Each child gets an
environment that inherits nothing: ``PYTHONPATH`` set to this checkout's
``src``, ``GRT2_THREADS=1`` and a ``PYTHONHASHSEED`` drawn from the seed.
Passes repeat until the next one would end after ``--seconds``.

With ``--trace 0`` the end-to-end metrics are reported:

* ``setup_s``: median wall time of a fresh interpreter that only imports
  what the workload's commands load;
* ``pass_s``: median over passes of the summed wall time of one pass;
* ``peak_rss_mb``: median over passes of the largest ``ru_maxrss`` among
  the pass's children.

With ``--trace 1`` untraced and traced passes alternate (same order and
hash seeds within a pair); traced commands run under ``tracer.py``, and
the per-layer metrics are medians over traced passes.  The fixed-input
canonicalization probe (``canon_probe.py``) runs once at the start.

Every command must exit 0, print stdout whose sha256 equals the digest
in ``reference.json`` and pass its independent check.  Traced commands
are held to the same digests, so tracing leaves stdout unchanged.  A
miss counts as a failed command; any failure makes the run exit 1.  The
last stdout line is the JSON result; the full record (quartiles, sample
counts, per-command times, failures and the comparability data read by
``compare.py``) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 11
PROBE_REPEATS = 5
HARD_LIMIT_S = 150.0  # a run must end well inside three minutes

CANON = "graphs.canon.canonicalize"
SPLIT = "graphs.ops.split_terms"


def ratio(num, den):
    return num / den if den else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def summary(values):
    """Median, quartiles and sample count, as recorded in the run file."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median(values)
    return {"value": median(values), "q1": q1, "q3": q3,
            "samples": len(values)}


# -- children ---------------------------------------------------------------


@dataclass
class Outcome:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: str


def child_env(hash_seed):
    return {"PYTHONPATH": str(SRC), "GRT2_THREADS": "1",
            "PYTHONHASHSEED": str(hash_seed)}


class Spawner:
    """The helper process (``spawner.py``) that runs and measures every
    child, so that no child inherits the runner's memory high-water mark.
    """

    def __init__(self):
        self.out = OUT / ("child-%d.out" % os.getpid())
        self.err = OUT / ("child-%d.err" % os.getpid())
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "spawner.py")],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.out.unlink(missing_ok=True)
        self.err.unlink(missing_ok=True)

    def run(self, argv, hash_seed, timeout):
        request = {"argv": [sys.executable] + argv,
                   "env": child_env(hash_seed), "stdout": str(self.out),
                   "stderr": str(self.err), "timeout": max(timeout, 1.0)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        reply = json.loads(line)
        return Outcome(reply["rc"], reply["wall"], reply["cpu"],
                       reply["maxrss_kb"] / 1024.0, self.out.read_bytes(),
                       self.err.read_text("utf-8", "replace"))


class Run:
    def __init__(self, args, commands, reference, spawner):
        self.args = args
        self.spawner = spawner
        self.commands = commands
        self.reference = reference
        self.rng = random.Random(args.seed)
        self.t_start = perf_counter()
        self.attempted = 0
        self.failures = []
        self.stopped = False

    def remaining(self):
        return HARD_LIMIT_S - (perf_counter() - self.t_start)

    def fail(self, what, problems):
        self.failures.append({"command": what, "problems": problems[:5]})

    def gate(self, cmd, outcome):
        """Count one command and record why it failed, if it did."""
        self.attempted += 1
        problems = []
        if outcome.rc != 0:
            problems.append("exit status %d: %s"
                            % (outcome.rc, outcome.stderr.strip()[-300:]))
        digest = hashlib.sha256(outcome.stdout).hexdigest()
        if self.reference["commands"].get(cmd.key) != digest:
            problems.append("stdout sha256 %s differs from the reference"
                            % digest)
        problems += cmd.check(outcome.stdout.decode("utf-8", "replace"))
        if problems:
            self.fail(cmd.key, problems)

    def draw_pass(self):
        order = self.rng.sample(range(len(self.commands)), len(self.commands))
        return [(i, self.rng.randrange(2 ** 32)) for i in order]

    def run_pass(self, plan, traced):
        record = {"traced": traced, "wall": 0.0, "cpu": 0.0, "rss_mb": 0.0,
                  "commands": {}, "traces": []}
        for i, hash_seed in plan:
            if self.stopped:
                break
            cmd = self.commands[i]
            if traced:
                trace_path = OUT / "trace" / ("%s-%d.json"
                                              % (self.args.workload, i))
                argv = [str(BENCH / "tracer.py"), str(trace_path)]
            else:
                argv = ["-m", "grt2.cli"]
            outcome = self.spawner.run(argv + list(cmd.argv), hash_seed,
                                       self.remaining())
            self.gate(cmd, outcome)
            self.stopped = self.remaining() <= 1.0
            record["wall"] += outcome.wall
            record["cpu"] += outcome.cpu
            record["rss_mb"] = max(record["rss_mb"], outcome.rss_mb)
            record["commands"][cmd.key] = outcome.wall
            if traced and outcome.rc == 0:
                with open(trace_path, encoding="utf-8") as fh:
                    record["traces"].append(json.load(fh))
        return record

    def measure_setup(self, imports):
        code = "import " + ", ".join(imports)
        walls = []
        for _ in range(SETUP_SAMPLES):
            outcome = self.spawner.run(["-c", code],
                                       self.rng.randrange(2 ** 32),
                                       self.remaining())
            self.attempted += 1
            if outcome.rc != 0:
                self.fail("setup: " + code, [outcome.stderr.strip()[-300:]])
            walls.append(outcome.wall)
        return walls

    def probe_canon(self):
        outcome = self.spawner.run(
            [str(BENCH / "canon_probe.py"), str(PROBE_REPEATS)],
            self.rng.randrange(2 ** 32), self.remaining())
        self.attempted += 1
        want = self.reference["canon_probe"]
        if outcome.rc != 0:
            self.fail("canon probe", [outcome.stderr.strip()[-300:]])
            return None
        got = json.loads(outcome.stdout)
        problems = ["%s %s, expected %s" % (k, got[k], want[k])
                    for k in want if got[k] != want[k]]
        if problems:
            self.fail("canon probe", problems)
        return got


# -- metrics ----------------------------------------------------------------


def layer_metrics(traces):
    """Per-layer metrics of one traced pass from its commands' spans.

    A span's self time is its inside time minus its children's; busy
    time counts only the outermost span of a name, so recursion is not
    counted twice.  Top-level layer spans are spans of a non-cli layer
    whose parent is a cli span; their share of the root span is the
    trace coverage.
    """
    calls, busy, self_s, counters = Counter(), Counter(), Counter(), Counter()
    covered = wall = 0.0
    useful = 0
    for trace in traces:
        names, spans = trace["names"], trace["spans"]
        counters.update(trace["counters"])
        inner = [0.0] * len(spans)
        for parent, _, _, _, inside, _ in spans:
            if parent >= 0:
                inner[parent] += inside
        for i, (parent, ni, _, _, inside, nested) in enumerate(spans):
            name = names[ni]
            calls[name] += 1
            self_s[name] += inside - inner[i]
            if not nested:
                busy[name] += inside
            if parent < 0:
                wall += inside
                continue
            parent_name = names[spans[parent][1]]
            if parent_name.startswith("cli.") and not name.startswith("cli."):
                covered += inside
            if name == CANON and parent_name == \
                    "graphs.ops.icg_differential_raw":
                useful += 1
    # Every wrapped function, called or not, gives "<span>.calls",
    # ".busy_s" and ".self_s"; the canonicalize span is named by its layer.
    metrics = dict(counters)
    for name in {n for trace in traces for n in trace["names"]}:
        prefix = "graphs.canon" if name == CANON else name
        metrics[prefix + ".calls"] = calls[name]
        metrics[prefix + ".busy_s"] = busy[name]
        metrics[prefix + ".self_s"] = self_s[name]
    metrics["graphs.canon.us_per_call"] = ratio(1e6 * busy[CANON],
                                                calls[CANON])
    metrics["graphs.canon.distinct_ratio"] = ratio(
        counters["graphs.canon.distinct"], calls[CANON])
    metrics["graphs.canon.zero_ratio"] = ratio(counters["graphs.canon.zero"],
                                               calls[CANON])
    metrics["graphs.ops.split_terms.useful_ratio"] = ratio(
        useful, counters[SPLIT + ".yielded"])
    metrics["theta.psi_cache.hit_ratio"] = ratio(
        counters["theta.psi_cache.hits"],
        counters["theta.psi_cache.hits"] + counters["theta.psi_cache.misses"])
    metrics["trace.coverage_ratio"] = ratio(covered, wall)
    return metrics


# -- the run ----------------------------------------------------------------


def environment(run):
    """Byte-compile ``src`` (the only build step, so that no timed child
    compiles), then return what a comparison between two runs must hold
    equal or note.
    """
    build = run.spawner.run(["-m", "compileall", "-q", str(SRC)], 0,
                            run.remaining())
    if build.rc != 0:
        sys.exit("error: cannot compile %s:\n%s%s"
                 % (SRC, build.stdout.decode(errors="replace"), build.stderr))
    outcome = run.spawner.run(
        ["-c", "import grt2, grt2.graphs, sys; print(grt2.__file__); "
               "print(getattr(grt2.graphs, 'CANON_BACKEND', 'python'))"],
        0, run.remaining())
    if outcome.rc != 0:
        sys.exit("error: cannot import grt2 from %s:\n%s"
                 % (SRC, outcome.stderr))
    grt2_file, backend = outcome.stdout.decode().split()
    if not Path(grt2_file).resolve().is_relative_to(SRC):
        sys.exit("error: grt2 was imported from %s, not %s"
                 % (grt2_file, SRC))
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "git_revision": revision,
            "src_sha256": digest.hexdigest(), "canon_backend": backend}


def measure(args, run):
    """Run passes until the next would end after ``--seconds``."""
    t0 = perf_counter()
    probe = run.probe_canon() if args.trace else None
    plain, traced = [], []
    while not run.stopped:
        plan = run.draw_pass()
        plain.append(run.run_pass(plan, traced=False))
        if args.trace and not run.stopped:
            traced.append(run.run_pass(plan, traced=True))
        step = median([p["wall"] for p in plain]) + median(
            [p["wall"] for p in traced])
        if perf_counter() - t0 + step > args.seconds:
            break
    return probe, plain, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    parser.add_argument("--reference", type=Path,
                        default=BENCH / "reference.json")
    args = parser.parse_args(argv)
    if not (SRC / "grt2" / "cli.py").is_file():
        sys.exit("error: no grt2 sources under %s" % SRC)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    reference = json.loads(args.reference.read_text())
    workload = WORKLOADS[args.workload]
    commands = workload.smoke if args.smoke else workload.commands
    (OUT / "trace").mkdir(parents=True, exist_ok=True)

    load_start = os.getloadavg()
    with Spawner() as spawner:
        run = Run(args, commands, reference, spawner)
        env = environment(run)
        setup = run.measure_setup(workload.imports)
        probe, plain, traced = measure(args, run)

    values = {
        "setup_s": summary(setup),
        "pass_s": summary([p["wall"] for p in plain]),
        "peak_rss_mb": summary([p["rss_mb"] for p in plain]),
        "proc.cpu_s": summary([p["cpu"] for p in plain]),
    }
    if traced:
        per_pass = [layer_metrics(p["traces"]) for p in traced]
        for name in set().union(*per_pass):
            values[name] = summary([m.get(name, 0) for m in per_pass])
        values["trace.overhead_ratio"] = summary([ratio(
            median([p["wall"] for p in traced]), values["pass_s"]["value"])])
    if probe is not None:
        values["graphs.canon.fixed_us_per_graph"] = summary(
            probe["us_per_graph"])

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            value = values[m["name"]]["value"]
        elif run.failures:
            value = 0  # left unmeasured by a failed command
        else:
            sys.exit("error: metric %s is not measured" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    failed = len(run.failures)
    correct = failed == 0
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "env": dict(env, loadavg_start=load_start,
                    loadavg_end=os.getloadavg()),
        "correct": correct, "attempted": run.attempted, "failed": failed,
        "fail_ratio": ratio(failed, run.attempted),
        "failures": run.failures,
        "metrics": {name: dict(v, unit=units.get(name, ""))
                    for name, v in values.items()},
        "setup_samples": setup,
        "passes": [{k: p[k] for k in ("traced", "wall", "cpu", "rss_mb",
                                      "commands")} for p in plain + traced],
        "probe": probe,
        "missing_spans": sorted({n for p in traced for t in p["traces"]
                                 for n in t["missing"]}),
    }
    path = OUT / ("%s-seed%d-trace%d%s.json" % (
        args.workload, args.seed, args.trace, "-smoke" if args.smoke else ""))
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for failure in run.failures:
        print("FAILED %s: %s" % (failure["command"],
                                 "; ".join(failure["problems"])),
              file=sys.stderr)
    p = values["pass_s"]
    print("%s: %d passes, pass_s median %.4f (q1 %.4f, q3 %.4f), "
          "setup_s %.4f, %d/%d failed; record in %s"
          % (args.workload, p["samples"], p["value"], p["q1"], p["q3"],
             values["setup_s"]["value"], failed, run.attempted,
             path.relative_to(ROOT)))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
