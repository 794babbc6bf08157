"""Command line front end.

Four subcommands: ``dims`` tabulates cohomology dimensions against the
closed form, ``relations`` computes relation vectors by one or all of
the three oracles, ``graphs`` runs the graph-identity suites, ``export``
writes machine-readable files.  Exit status is 0 exactly when every
asserted identity passed, 1 when one failed, and 2 for a usage error,
which includes arguments that leave no work to do.  Output is
deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .liealg import bracket_kernel, schneps_check
from .linalg import Echelon, span_equal
from .theta import (
    closed_form_dim,
    cohomology_dim,
    relation_space,
    relation_space_psi,
)

SCHEMA_VERSION = 1


class UsageError(Exception):
    """Arguments that name no valid work; the command exits with status 2."""


ORACLES = {
    "psi": relation_space_psi,
    "rank": relation_space,
    "ihara": bracket_kernel,
}


# -- dims --------------------------------------------------------------------


def dims_rows(max_weight, degree):
    rows = []
    for k in range(1, max_weight + 1):
        dim = cohomology_dim(degree, k)
        closed = closed_form_dim(degree, k)
        rows.append({
            "weight": k,
            "degree": degree,
            "dim": dim,
            "closed_form": closed,
            "match": dim == closed,
        })
    return rows


def format_dims(rows, fmt):
    """The dimension table as text, csv or json."""
    if fmt == "json":
        return json.dumps({"schema": SCHEMA_VERSION, "rows": rows},
                          indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = ["weight,degree,dim,closed_form,match"]
        lines.extend("%d,%d,%d,%d,%s" % (
            r["weight"], r["degree"], r["dim"], r["closed_form"],
            str(r["match"]).lower()) for r in rows)
    else:
        lines = ["weight  degree  dim  closed_form  match"]
        lines.extend("%6d  %6d  %3d  %11d  %s" % (
            r["weight"], r["degree"], r["dim"], r["closed_form"],
            "ok" if r["match"] else "MISMATCH") for r in rows)
    return "\n".join(lines) + "\n"


def _require_max_weight(max_weight):
    if max_weight < 1:
        raise UsageError("--max-weight must be >= 1, got %d" % max_weight)


def cmd_dims(args):
    _require_max_weight(args.max_weight)
    rows = dims_rows(args.max_weight, args.degree)
    sys.stdout.write(format_dims(rows, args.format))
    return 0 if all(r["match"] for r in rows) else 1


# -- relations ---------------------------------------------------------------


def _outside_span(vectors, candidates):
    """The first candidate outside the span of the vectors, or None."""
    ech = Echelon(vectors)
    return next((v for v in candidates if ech.add(v) is None), None)


def relations_report(weight, oracle):
    """Relation vectors for one weight; with oracle 'all' the three
    derivations are cross-checked for span equality and every vector is
    run through the symmetry criterion.  Each failed check adds one
    line to the report's failures, with a vector that witnesses it.
    """
    report = {"weight": weight, "vectors": {}, "failures": []}
    names = list(ORACLES) if oracle == "all" else [oracle]
    spaces = {name: ORACLES[name](weight) for name in names}
    for name, vecs in spaces.items():
        report["vectors"][name] = [list(v.coeffs) for v in vecs]
    if oracle == "all":
        base = [v.coeffs for v in spaces["rank"]]
        for name in ("psi", "ihara"):
            other = [v.coeffs for v in spaces[name]]
            if span_equal(base, other):
                continue
            witness = _outside_span(base, other)
            inside, outside = name, "rank"
            if witness is None:
                witness = _outside_span(other, base)
                inside, outside = "rank", name
            report["failures"].append(
                "oracles rank and %s disagree: %s lies in the %s span, "
                "not in the %s span" % (name, witness, inside, outside))
        for name, vecs in spaces.items():
            for v in vecs:
                if not schneps_check(v):
                    report["failures"].append(
                        "symmetry criterion fails for %s vector %s"
                        % (name, v.coeffs))
    return report


def _require_relation_weight(k):
    if k % 2 != 0 or k < 8:
        raise UsageError("relation weights are even and >= 8, got %d" % k)


def cmd_relations(args):
    if args.weight is not None:
        _require_relation_weight(args.weight)
        weights = [args.weight]
    else:
        weights = list(range(8, args.max_weight + 1, 2))
        if not weights:
            raise UsageError("--max-weight %d leaves no relation weight; "
                             "the smallest is 8" % args.max_weight)
    failed = False
    for k in weights:
        rep = relations_report(k, args.oracle)
        shown = sorted(rep["vectors"])
        for name in shown:
            vecs = rep["vectors"][name]
            if vecs:
                body = "; ".join(str(tuple(v)) for v in vecs)
            else:
                body = "(none)"
            print("weight %d  %-5s  %s" % (rep["weight"], name, body))
        for failure in rep["failures"]:
            print("weight %d  FAIL: %s" % (rep["weight"], failure))
        if rep["failures"]:
            failed = True
        elif args.oracle == "all":
            print("weight %d  oracles agree, symmetry criterion passed"
                  % rep["weight"])
    return 1 if failed else 0


# -- graphs ------------------------------------------------------------------


def _theta_cases(weight_cap):
    """(grade, counts) of every grade-0 and grade-1 theta shape within
    the weight cap; a cap that leaves none is a usage error.
    """
    from .graphs.build import theta_shapes

    cases = [(grade, counts) for grade in (0, 1)
             for counts in theta_shapes(grade, weight_cap)]
    if not cases:
        raise UsageError("--size-cap %d leaves no theta shape; the "
                         "smallest cap with one is 3" % weight_cap)
    return cases


def check_d_squared(weight_cap):
    from .graphs.build import theta_graph
    from .graphs.ops import icg_differential, icg_differential_raw

    results = []
    for grade, counts in _theta_cases(weight_cap):
        d1 = icg_differential_raw(theta_graph(grade, counts))
        ok = icg_differential(d1).is_zero()
        results.append(("d0^2 theta grade %d %s" % (grade, counts), ok))
    return results


def check_encoding(weight_cap):
    from .graphs.build import theta_graph
    from .graphs.ops import (icg_differential_raw, theta_graph_encode,
                             theta_sum_encode)
    from .poly import Poly3
    from .theta import ThetaElement, d0_theta

    results = []
    for grade, counts in _theta_cases(weight_cap):
        g = theta_graph(grade, counts)
        image = theta_sum_encode(icg_differential_raw(g))
        lhs = image.get(grade + 1, ThetaElement(grade + 1, Poly3.zero()))
        rhs = d0_theta(theta_graph_encode(g))
        results.append(
            ("encode d0 = d0 encode, grade %d %s" % (grade, counts),
             lhs.value == rhs.value))
    return results


def check_bowtie(_cap):
    from .graphs.ops import (bowtie_difference, filtration_value,
                             gc2_bracket, wheel_class)

    results = []
    br = gc2_bracket(wheel_class(3), wheel_class(5))
    results.append(
        ("[w3,w5] every term at filtration level >= 2",
         all(filtration_value(c.graph) >= 2 for c in br.terms)))
    level2 = br.restrict(lambda c: filtration_value(c.graph) == 2)
    diff = bowtie_difference(3, 5)
    ok = set(level2.terms) == set(diff.terms)
    if ok:
        ratios = {Fraction(level2.terms[c], diff.terms[c])
                  for c in diff.terms}
        ok = len(ratios) == 1 and 0 not in ratios
    results.append(
        ("level-2 part of [w3,w5] is a nonzero multiple of the "
         "bowtie difference", ok))
    return results


def check_filtration(size_cap):
    from .graphs.build import wheel
    from .graphs.ops import filtration_value, gc2_bracket, wheel_class

    if size_cap < 9:
        raise UsageError("--size-cap %d is below 9, the vertex count of "
                         "the [w3,w5] bracket's graphs" % size_cap)
    results = []
    for s in (3, 5, 7):
        results.append(("wheel(%d) at filtration level 1" % s,
                        filtration_value(wheel(s)) == 1))
    pairs = [(3, 5)]
    if size_cap >= 11:
        pairs.append((3, 7))
    for a, b in pairs:
        br = gc2_bracket(wheel_class(a), wheel_class(b))
        results.append(
            ("[w%d,w%d] every term at filtration level >= 2" % (a, b),
             all(filtration_value(c.graph) >= 2 for c in br.terms)))
    return results


def check_theta_identity(_cap):
    from .graphs.build import figure_eight, theta_graph
    from .graphs.canon import canonicalize
    from .graphs.core import GraphSum
    from .graphs.ops import (bowtie_difference, icg_differential_raw,
                             mark_one_external, two_loop_part)

    results = []
    for i2, j2 in ((2, 4), (2, 6), (4, 6)):
        image = icg_differential_raw(figure_eight(i2, j2))
        cls, sign = canonicalize(theta_graph(1, (i2, j2, 0)))
        marked = two_loop_part(
            mark_one_external(bowtie_difference(i2 + 1, j2 + 1)))
        ok = image == marked + GraphSum({cls: 4 * sign})
        results.append(
            ("d0 E(%d,%d) = D(%d,%d) + 4 theta(%d,%d)"
             % (i2, j2, i2 + 1, j2 + 1, i2, j2), ok))
    return results


GRAPH_CHECKS = {
    "d-squared": check_d_squared,
    "encoding": check_encoding,
    "bowtie": check_bowtie,
    "filtration": check_filtration,
    "theta-identity": check_theta_identity,
}
# Checks on fixed graphs, which a size cap cannot change.
FIXED_GRAPH_CHECKS = ("bowtie", "theta-identity")


def cmd_graphs(args):
    size_cap = 12 if args.size_cap is None else args.size_cap
    if size_cap > 12:
        raise UsageError("--size-cap is limited to 12")
    if args.size_cap is not None and args.check in FIXED_GRAPH_CHECKS:
        raise UsageError("graphs --check %s builds fixed graphs and takes "
                         "no --size-cap" % args.check)
    results = GRAPH_CHECKS[args.check](size_cap)
    ok = True
    for name, passed in results:
        print("%s  %s" % ("pass" if passed else "FAIL", name))
        ok = ok and passed
    return 0 if ok else 1


# -- export ------------------------------------------------------------------


def _write_atomic(path, text):
    tmp = path + ".partial"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _graph_from_spec(spec):
    """The graph a ``--graph`` spec names; a spec that names none is a
    usage error.
    """
    from .graphs.build import figure_eight, theta_graph, wheel

    kind, _, rest = spec.partition(":")
    try:
        if kind == "wheel":
            return wheel(int(rest))
        if kind == "theta":
            grade_s, _, counts_s = rest.partition(":")
            counts = tuple(int(c) for c in counts_s.split(","))
            if len(counts) != 3:
                raise ValueError("theta takes three hair counts")
            return theta_graph(int(grade_s), counts)
        if kind == "figure-eight":
            counts = tuple(int(c) for c in rest.split(","))
            if len(counts) != 2:
                raise ValueError("figure-eight takes two loop lengths")
            return figure_eight(*counts)
    except ValueError as exc:
        raise UsageError("bad graph spec %r: %s" % (spec, exc)) from None
    raise UsageError(
        "bad graph spec %r: it must be wheel:<spokes>, "
        "theta:<grade>:<k1>,<k2>,<k3> or figure-eight:<c1>,<c2>" % spec)


# The formats each export writes; the first is the default.
EXPORT_FORMATS = {
    "relations": ("json",),
    "dims": ("json", "csv"),
    "graph": ("graphtext",),
}
# The options each export reads besides --out and --format.
EXPORT_OPTIONS = {
    "relations": ("weight",),
    "dims": ("max_weight", "degree"),
    "graph": ("graph",),
}


def cmd_export(args):
    from .graphs.core import graph_to_text

    for what, options in EXPORT_OPTIONS.items():
        given = [dest for dest in options if getattr(args, dest) is not None]
        if what != args.what and given:
            raise UsageError("export --what %s takes no --%s"
                             % (args.what, given[0].replace("_", "-")))
    formats = EXPORT_FORMATS[args.what]
    fmt = args.format or formats[0]
    if fmt not in formats:
        raise UsageError("export --what %s writes %s, not %s"
                         % (args.what, " or ".join(formats), fmt))
    try:
        if args.what == "relations":
            if args.weight is None:
                raise UsageError("export relations needs --weight")
            _require_relation_weight(args.weight)
            vectors = relation_space(args.weight)
            payload = {
                "schema": SCHEMA_VERSION,
                "weight": args.weight,
                "vectors": [[[int(c), 1] for c in v.coeffs]
                            for v in vectors],
            }
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        elif args.what == "dims":
            if args.max_weight is None:
                raise UsageError("export dims needs --max-weight")
            _require_max_weight(args.max_weight)
            degrees = [args.degree] if args.degree is not None else [0, 1, 2]
            rows = []
            for deg in degrees:
                rows.extend(dims_rows(args.max_weight, deg))
            rows.sort(key=lambda r: (r["weight"], r["degree"]))
            text = format_dims(rows, fmt)
        else:
            if args.graph is None:
                raise UsageError("export graph needs --graph")
            text = graph_to_text(_graph_from_spec(args.graph))
        _write_atomic(args.out, text)
    except (OSError, ValueError) as exc:
        print("error: export to %s failed: %s" % (args.out, exc),
              file=sys.stderr)
        return 1
    print("wrote %s" % args.out)
    return 0


# -- parser ------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="grt2",
        description="Exact two-loop graph cohomology and depth-2 bracket "
                    "relations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="cohomology dimension table")
    p.add_argument("--max-weight", type=int, default=51)
    p.add_argument("--degree", type=int, choices=(0, 1, 2), required=True)
    p.add_argument("--format", choices=("text", "csv", "json"),
                   default="text")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("relations", help="relation vectors per weight")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--weight", type=int)
    group.add_argument("--max-weight", type=int, default=28)
    p.add_argument("--oracle", choices=("psi", "rank", "ihara", "all"),
                   default="all")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("graphs", help="graph-complex property suites")
    p.add_argument("--check", choices=sorted(GRAPH_CHECKS), required=True)
    p.add_argument("--size-cap", type=int,
                   help="default 12: the weight cap of d-squared and "
                        "encoding, the vertex cap of filtration (at "
                        "least 9); bowtie and theta-identity take none")
    p.set_defaults(func=cmd_graphs)

    p = sub.add_parser("export", help="write machine-readable files")
    p.add_argument("--what", choices=("relations", "dims", "graph"),
                   required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv", "graphtext"),
                   help="default: json for relations and dims, graphtext "
                        "for graph")
    p.add_argument("--weight", type=int)
    p.add_argument("--max-weight", type=int)
    p.add_argument("--degree", type=int, choices=(0, 1, 2))
    p.add_argument("--graph",
                   help="wheel:<s> | theta:<grade>:<k1>,<k2>,<k3> | "
                        "figure-eight:<c1>,<c2>")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
