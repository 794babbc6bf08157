"""Canonical-labeling speed on a fixed graph set.

    python perfbench/canon_probe.py REPEATS

The set is every insertion term of the two pre-Lie products of the 3- and
5-spoke wheels plus the splitting terms of a haired theta graph (the
graph set of ``benchmarks/bench_canon.py``), built once and then timed
through the public ``canonicalize``.  Unlike the canonicalize time of a
workload, this number does not move when enumeration changes alter the
mix of graphs that reach the kernel.

Prints one JSON object: the graph count, the per-repeat microseconds per
graph, and the number of distinct nonzero classes and of zero classes,
which do not depend on the choice of canonical representative.
"""

from __future__ import annotations

import json
import sys
from itertools import product
from time import perf_counter

from grt2.graphs.build import theta_graph, wheel
from grt2.graphs.canon import canonicalize
from grt2.graphs.ops import insert_at, split_terms


def graph_set():
    graphs = []
    for g1, g2 in ((wheel(3), wheel(5)), (wheel(5), wheel(3))):
        for j in range(g1.n):
            loose = g1.incident_edges(j)
            for assignment in product(range(g2.n), repeat=len(loose)):
                graphs.append(insert_at(g1, j, g2, assignment))
    seed = theta_graph(0, (3, 2, 1))
    for v in range(seed.n):
        graphs.extend(split_terms(seed, v))
    return graphs


def main():
    repeats = int(sys.argv[1])
    graphs = graph_set()
    us_per_graph = []
    for _ in range(repeats):
        t0 = perf_counter()
        results = [canonicalize(g, check=False) for g in graphs]
        us_per_graph.append(1e6 * (perf_counter() - t0) / len(graphs))
    classes = {cls for cls, _ in results if cls is not None}
    zeros = sum(1 for cls, _ in results if cls is None)
    print(json.dumps({"graphs": len(graphs), "us_per_graph": us_per_graph,
                      "classes": len(classes), "zeros": zeros}))


if __name__ == "__main__":
    main()
