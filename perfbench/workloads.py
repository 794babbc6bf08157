"""The benchmark's workloads and the independent checks on their output.

A workload is a fixed list of ``python -m grt2.cli`` command lines.  One
pass runs every command once, each in a fresh interpreter.  Each command
carries a check written here from closed forms, so the gate does not
rely on the code under test:

* a ``dims`` row of weight k is floor(k/6) in the degree's parity (odd k
  for degree 1, even k for degree 2) and 0 elsewhere;
* a ``relations`` weight k prints (k-4)//4 - (k-2)//6 vectors of length
  (k-4)//4 for each oracle, then its "oracles agree" line;
* a ``graphs`` check prints only ``pass`` lines, as many as it has cases.

Why each workload exists.  Sizes are scaled so that one pass takes one
to three seconds on one core (Xeon at 2.0 GHz, Python 3.11, pure-Python
canonicalization) and a 30-second run holds 7-20 passes: single passes
vary by 15-40% there, so a run needs many of them for a steady median.  The larger sizes (dims through 60, relations through 32, graph
size cap 11) take 6-12 seconds per pass.

* ``dims_sweep``: the sparse rank ``linalg.rank_of_columns`` on very
  sparse, tall matrices; no canonicalization, no Lie algebra.
* ``relations_all``: the three relation oracles and the symmetry check;
  ``linalg`` as small dense kernels, ``liealg`` as repeated ``Poly3``
  products.
* ``graphs_insertion``: the wheel bracket, i.e. operadic insertion,
  where canonicalization dominates and most calls repeat a class.
* ``graphs_splitting``: vertex splitting on small haired graphs, where
  the connectivity and loop-count filter dominates and few terms reach
  canonicalization.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Command:
    argv: tuple
    check: Callable  # stdout text -> list of problems, empty when correct

    @property
    def key(self):
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    imports: tuple  # what the commands load, timed as set-up
    commands: tuple
    smoke: tuple  # tiny sizes of the same commands, for the self-test


# -- independent checks -----------------------------------------------------


def expected_dim(degree, k):
    if degree == 0:
        return 0
    in_parity = (k % 2 == 1) if degree == 1 else (k % 2 == 0)
    return k // 6 if in_parity else 0


def check_dims(degree, max_weight, text):
    lines = text.splitlines()
    if not lines or lines[0].split() != ["weight", "degree", "dim",
                                         "closed_form", "match"]:
        return ["dims: missing header"]
    rows = lines[1:]
    if len(rows) != max_weight:
        return ["dims: %d rows, expected %d" % (len(rows), max_weight)]
    problems = []
    for k, line in enumerate(rows, start=1):
        want = expected_dim(degree, k)
        fields = line.split()
        if fields != [str(k), str(degree), str(want), str(want), "ok"]:
            problems.append("dims degree %d weight %d: %r, expected dim %d"
                            % (degree, k, line, want))
    return problems


def relation_count(k):
    return (k - 4) // 4 - (k - 2) // 6


def _vectors(body):
    if body == "(none)":
        return []
    return [ast.literal_eval(v) for v in body.split("; ")]


def check_relations(max_weight, text):
    lines = text.splitlines()
    weights = list(range(8, max_weight + 1, 2))
    if len(lines) != 4 * len(weights):
        return ["relations: %d lines, expected %d"
                % (len(lines), 4 * len(weights))]
    problems = []
    for i, k in enumerate(weights):
        block = lines[4 * i: 4 * i + 4]
        for line, oracle in zip(block, ("ihara", "psi", "rank")):
            prefix = "weight %d  %-5s  " % (k, oracle)
            if not line.startswith(prefix):
                problems.append("relations: %r, expected %r..."
                                % (line, prefix))
                continue
            vecs = _vectors(line[len(prefix):])
            if len(vecs) != relation_count(k):
                problems.append("relations weight %d %s: %d vectors, "
                                "expected %d" % (k, oracle, len(vecs),
                                                 relation_count(k)))
            if any(len(v) != (k - 4) // 4 for v in vecs):
                problems.append("relations weight %d %s: vector length, "
                                "expected %d" % (k, oracle, (k - 4) // 4))
        agree = "weight %d  oracles agree, symmetry criterion passed" % k
        if block[3] != agree:
            problems.append("relations: %r, expected %r" % (block[3], agree))
    return problems


def theta_shape_count(size_cap):
    """Cases of the d-squared and encoding checks: hair-count triples
    c1 >= c2 >= c3 >= 0 with at most one zero and total between 1 and
    size_cap - 2 + grade, for grades 0 and 1.
    """
    count = 0
    for grade in (0, 1):
        top = size_cap - 2 + grade
        for c1 in range(top + 1):
            for c2 in range(c1 + 1):
                for c3 in range(c2 + 1):
                    total = c1 + c2 + c3
                    if 1 <= total <= top and (c2, c3).count(0) < 2:
                        count += 1
    return count


def check_graphs(cases, text):
    lines = text.splitlines()
    problems = ["graphs: %r" % ln for ln in lines
                if not ln.startswith("pass  ")]
    if len(lines) != cases:
        problems.append("graphs: %d lines, expected %d" % (len(lines), cases))
    return problems


# -- command lines ----------------------------------------------------------


def dims(degree, max_weight):
    argv = ("dims", "--degree", str(degree), "--max-weight", str(max_weight))
    return Command(argv, lambda text: check_dims(degree, max_weight, text))


def relations(max_weight):
    argv = ("relations", "--max-weight", str(max_weight), "--oracle", "all")
    return Command(argv, lambda text: check_relations(max_weight, text))


def graphs(check, size_cap=None):
    argv = ("graphs", "--check", check)
    if size_cap is not None:
        argv += ("--size-cap", str(size_cap))
    if check in ("d-squared", "encoding"):
        cases = theta_shape_count(size_cap)
    elif check == "filtration":
        cases = 3 + (2 if size_cap >= 11 else 1)
    else:
        cases = {"bowtie": 2, "theta-identity": 3}[check]
    return Command(argv, lambda text: check_graphs(cases, text))


GRAPH_IMPORTS = ("grt2.cli", "grt2.graphs.ops")

WORKLOADS = {
    "dims_sweep": Workload(
        imports=("grt2.cli",),
        commands=tuple(dims(d, 48) for d in (0, 1, 2)),
        smoke=tuple(dims(d, 14) for d in (0, 1, 2)),
    ),
    "relations_all": Workload(
        imports=("grt2.cli",),
        commands=(relations(24),),
        smoke=(relations(12),),
    ),
    "graphs_insertion": Workload(
        imports=GRAPH_IMPORTS,
        commands=(graphs("filtration", 9), graphs("bowtie")),
        smoke=(graphs("bowtie"),),
    ),
    "graphs_splitting": Workload(
        imports=GRAPH_IMPORTS,
        commands=(graphs("d-squared", 9), graphs("encoding", 9),
                  graphs("theta-identity")),
        smoke=(graphs("d-squared", 5), graphs("encoding", 5),
               graphs("theta-identity")),
    ),
}
