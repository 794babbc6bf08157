"""Check that every mutation listed in mutants.json fails its test.

Each entry names a file of the checkout, a snippet that occurs in it
exactly once, the snippet to put in its place, and the pytest node id
of the test that must fail once it is put there.  The script copies
src/, tests/ and pyproject.toml into a temporary directory and runs the
named tests there unmutated, which must pass.  Then it applies each
mutation in turn to that copy, runs its test and restores the file.  A
mutant is killed when pytest reports a failed test (exit status 1); an
import or collection error does not count.  The checkout is only read.

    python3 tools/mutants.py

needs pytest and hypothesis, and exits with status 1 when a mutant
survives or its snippet no longer occurs exactly once.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_tests(tree, tests):
    """The exit status of pytest on the node ids, run in the tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, capture_output=True, timeout=600,
    ).returncode


def main():
    mutants = json.loads(Path(__file__).with_name("mutants.json").read_text())
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        tests = sorted({m["test"] for m in mutants})
        if run_tests(tree, tests) != 0:
            print("unmutated, one of these tests fails: %s" % ", ".join(tests))
            return 1
        for m in mutants:
            path = tree / m["file"]
            text = path.read_text()
            count = text.count(m["old"])
            if count != 1:
                verdict = "snippet occurs %d times" % count
            else:
                path.write_text(text.replace(m["old"], m["new"]))
                try:
                    code = run_tests(tree, [m["test"]])
                finally:
                    path.write_text(text)
                verdict = {0: "SURVIVED", 1: "killed"}.get(
                    code, "pytest exit status %d" % code)
            failed += verdict != "killed"
            print("%-8s %s (%s) by %s" % (verdict, m["file"], m["why"],
                                          m["test"]))
    print("%d of %d mutants not killed" % (failed, len(mutants)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
