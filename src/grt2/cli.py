"""Command line front end.

Four subcommands: ``dims`` tabulates cohomology dimensions against the
closed form, ``relations`` computes relation vectors by one or all of
the three oracles, ``graphs`` runs the graph-identity suites, ``export``
writes machine-readable files.  Exit status is 0 exactly when every
asserted identity passed, 1 when one failed, and 2 for a usage error,
which includes arguments that leave no work to do and prints one
``error:`` line.  The options of each command, and the help, come from
one table, ``COMMANDS``.  Output is deterministic for fixed inputs.
"""

from __future__ import annotations

import os
import stat
import sys
from types import SimpleNamespace

from . import __version__
from .liealg import bracket_kernel
from .linalg import Echelon
from .theta import (
    _parse_int,
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


def _json_text(payload):
    # json is imported here, not at start-up: only two outputs use it
    import json

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def format_dims(rows, fmt):
    """The dimension table as text, csv or json."""
    if fmt == "json":
        return _json_text({"schema": SCHEMA_VERSION, "rows": rows})
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
    """Relation vectors for one weight; with oracle 'all' the psi and
    Ihara oracles are each checked for span equality with the rank
    oracle.  The Ihara kernel is the solution space of the symmetry
    criterion (see :mod:`grt2.liealg`), so that check covers the
    criterion both ways.  Each failed check adds one line to the
    report's failures, with a vector witnessing it.
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
            witness = _outside_span(base, other)
            inside, outside = name, "rank"
            if witness is None:
                witness = _outside_span(other, base)
                inside, outside = "rank", name
            if witness is not None:
                report["failures"].append(
                    "oracles rank and %s disagree: %s lies in the %s span, "
                    "not in the %s span" % (name, witness, inside, outside))
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
    from .graphs.canon import canonical_sum
    from .graphs.core import GraphSum
    from .graphs.ops import icg_differential_raw, theta_graph_encode
    from .theta import _d0_columns, weight_slice_basis

    results = []
    for grade, counts in _theta_cases(weight_cap):
        g = theta_graph(grade, counts)
        # differentiating first stores the search on g, which the
        # encoding then reads instead of searching g again
        diff = icg_differential_raw(g)
        code = theta_graph_encode(g)
        weight = sum(counts) + 2 - grade
        if code is None:
            # a zero class: its slice must lack the monomial too
            ok = (diff.is_zero()
                  and counts not in weight_slice_basis(grade, weight))
        else:
            # a reference graph whose class is zero fails the case
            _, _, index, sign = code
            targets = weight_slice_basis(grade + 1, weight)
            column = _d0_columns(grade, weight)[index]
            terms = {}
            zeros = canonical_sum(
                ((theta_graph(grade + 1, targets[i]), sign * c)
                 for i, c in column.items()), terms)
            ok = not zeros and diff == GraphSum(terms)
        results.append(
            ("encode d0 = d0 encode, grade %d %s" % (grade, counts), ok))
    return results


def _lowest_levels(a, b):
    """The filtration-level line of [w_a, w_b] and its level-2 part.

    The bracket lies at level >= 2 when its level-1 part is zero and its
    level-2 part is not; a zero bracket fails.  Level 0 cannot occur: no
    vertex of a simple graph has valence n.
    """
    from .graphs.ops import level_bracket, wheel_class

    wa, wb = wheel_class(a), wheel_class(b)
    level2 = level_bracket(wa, wb, 2)
    ok = level_bracket(wa, wb, 1).is_zero() and not level2.is_zero()
    return ("[w%d,w%d] every term at filtration level >= 2" % (a, b),
            ok), level2


def check_bowtie(_cap):
    from .graphs.ops import bowtie_difference

    line, level2 = _lowest_levels(3, 5)
    results = [line]
    diff = bowtie_difference(3, 5)
    ok = False
    if diff:
        c, d = next(iter(diff.terms.items()))
        # level2 = (a/d) * diff, decided in ints
        a = level2.terms.get(c, 0)
        ok = a != 0 and level2.scale(d) == diff.scale(a)
    results.append(
        ("level-2 part of [w3,w5] is a nonzero multiple of the "
         "bowtie difference", ok))
    return results


def check_filtration(size_cap):
    from .graphs.build import wheel
    from .graphs.ops import filtration_value

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
        results.append(_lowest_levels(a, b)[0])
    return results


def check_theta_identity(_cap):
    from .graphs.build import figure_eight, theta_graph
    from .graphs.canon import canonicalize
    from .graphs.core import GraphSum
    from .graphs.ops import (bowtie_difference, icg_differential_raw,
                             two_loop_marking)

    results = []
    for i2, j2 in ((2, 4), (2, 6), (4, 6)):
        image = icg_differential_raw(figure_eight(i2, j2))
        cls, sign = canonicalize(theta_graph(1, (i2, j2, 0)))
        marked = two_loop_marking(bowtie_difference(i2 + 1, j2 + 1))
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


def _regular_target(path):
    """The file an ``--out`` path names, the path itself unless it is a
    link.  An empty path is a usage error, and so is one that exists and
    is this process's standard output or error (``/dev/stdout``, or the
    file a stream is redirected to) or no regular file (a FIFO, a
    device, a directory), so none of them is ever replaced.
    """
    if not path:
        raise UsageError("--out is empty; it must name a file")
    target = os.path.realpath(path) if os.path.islink(path) else path
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return target       # nothing there yet, or a link to nothing
    for fd, stream in ((1, "output"), (2, "error")):
        try:
            own = os.path.samestat(st, os.fstat(fd))
        except OSError:
            own = False     # the stream is closed
        if own:
            raise UsageError("--out %s is this command's standard %s"
                             % (path, stream))
    if not stat.S_ISREG(st.st_mode):
        raise UsageError("--out %s names no regular file" % path)
    return target


def _write_atomic(path, text):
    """Write text to ``<path>.partial`` and rename it onto path.

    The partial file is created exclusively, so whatever already has its
    name (a link, a stale file) fails the export and is neither followed
    nor removed.  Only the partial file this call created is removed
    when the write or the rename fails, or the run is interrupted.
    """
    tmp = path + ".partial"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
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
            return wheel(_parse_int(rest))
        if kind == "theta":
            grade_s, _, counts_s = rest.partition(":")
            counts = tuple(_parse_int(c) for c in counts_s.split(","))
            if len(counts) != 3:
                raise ValueError("theta takes three hair counts")
            return theta_graph(_parse_int(grade_s), counts)
        if kind == "figure-eight":
            counts = tuple(_parse_int(c) for c in rest.split(","))
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
# The options each export reads besides --out and --format; the first
# is required.
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
    needed = EXPORT_OPTIONS[args.what][0]
    if getattr(args, needed) is None:
        raise UsageError("export %s needs --%s"
                         % (args.what, needed.replace("_", "-")))
    try:
        target = _regular_target(args.out)
        if args.what == "relations":
            _require_relation_weight(args.weight)
            vectors = relation_space(args.weight)
            payload = {
                "schema": SCHEMA_VERSION,
                "weight": args.weight,
                "vectors": [[[int(c), 1] for c in v.coeffs]
                            for v in vectors],
            }
            text = _json_text(payload)
        elif args.what == "dims":
            _require_max_weight(args.max_weight)
            degrees = [args.degree] if args.degree is not None else [0, 1, 2]
            rows = []
            for deg in degrees:
                rows.extend(dims_rows(args.max_weight, deg))
            rows.sort(key=lambda r: (r["weight"], r["degree"]))
            text = format_dims(rows, fmt)
        else:
            text = graph_to_text(_graph_from_spec(args.graph))
        _write_atomic(target, text)
    except (OSError, ValueError) as exc:
        print("error: export to %s failed: %s" % (args.out, exc),
              file=sys.stderr)
        return 1
    print("wrote %s" % args.out)
    return 0


# -- parser ------------------------------------------------------------------


REQUIRED = object()
# Each command's handler, help line and options.  An option maps to its
# type (int or str), its choices (None for any value), its default or
# REQUIRED, and a note for the help, which shows the default when the
# note is empty.
COMMANDS = {
    "dims": (cmd_dims, "cohomology dimension table", {
        "--max-weight": (int, None, 51, ""),
        "--degree": (int, (0, 1, 2), REQUIRED, ""),
        "--format": (str, ("text", "csv", "json"), "text", ""),
    }),
    "relations": (cmd_relations, "relation vectors per weight", {
        "--weight": (int, None, None, "one weight, not with --max-weight"),
        "--max-weight": (int, None, 28, ""),
        "--oracle": (str, (*ORACLES, "all"), "all", ""),
    }),
    "graphs": (cmd_graphs, "graph-complex property suites", {
        "--check": (str, tuple(sorted(GRAPH_CHECKS)), REQUIRED, ""),
        "--size-cap": (int, None, None,
                       "default 12: the weight cap of d-squared and "
                       "encoding, the vertex cap of filtration (at least "
                       "9); bowtie and theta-identity take none"),
    }),
    "export": (cmd_export, "write machine-readable files", {
        "--what": (str, tuple(EXPORT_FORMATS), REQUIRED, ""),
        "--out": (str, None, REQUIRED, ""),
        "--format": (str, ("json", "csv", "graphtext"), None,
                     "default: json for relations and dims, graphtext "
                     "for graph"),
        "--weight": (int, None, None, "with --what relations"),
        "--max-weight": (int, None, None, "with --what dims"),
        "--degree": (int, (0, 1, 2), None,
                     "with --what dims; default all three"),
        "--graph": (str, None, None,
                    "with --what graph: wheel:<s> | "
                    "theta:<grade>:<k1>,<k2>,<k3> | figure-eight:<c1>,<c2>"),
    }),
}
# The pair of options of a command that may not be given together.
EXCLUSIVE = {"relations": ("--weight", "--max-weight")}
HELP = ("-h", "--help")


def _command_help(name):
    _, about, options = COMMANDS[name]
    lines = ["grt2 %s: %s" % (name, about)]
    for option, (kind, choices, default, note) in options.items():
        if choices is not None:
            shape = "{%s}" % ",".join(map(str, choices))
        else:
            shape = "INT" if kind is int else "TEXT"
        if not note:
            note = ("required" if default is REQUIRED
                    else "default %s" % default)
        lines += ["  %s %s" % (option, shape), "      " + note]
    return "\n".join(lines) + "\n"


def _help():
    return "".join(
        ["usage: grt2 COMMAND [--option VALUE | --option=VALUE]...\n"
         "Exact two-loop graph cohomology and depth-2 bracket relations.\n"
         "  -h, --help   this text; grt2 COMMAND --help for one command\n"
         "  --version    the version\n"]
        + ["\n" + _command_help(name) for name in COMMANDS])


def _value(option, kind, choices, text):
    if kind is int:
        try:
            value = _parse_int(text)
        except ValueError:
            raise UsageError("%s takes an int, got %r" % (option, text)) \
                from None
    else:
        value = text
    if choices is not None and value not in choices:
        raise UsageError("%s must be one of %s, got %r"
                         % (option, ", ".join(map(str, choices)), text))
    return value


def parse_args(argv):
    """The command and option values of a command line as attributes,
    ``--max-weight`` as ``max_weight``, each option checked against its
    command's table; every rejection is a UsageError.  For a help or
    version request the command is None and ``text`` is what to print.
    """
    if not argv:
        raise UsageError("no command; the commands are %s"
                         % ", ".join(COMMANDS))
    command = argv[0]
    if command in HELP:
        return SimpleNamespace(command=None, text=_help())
    if command == "--version":
        return SimpleNamespace(command=None, text=__version__ + "\n")
    if command not in COMMANDS:
        raise UsageError("unknown command %r; the commands are %s"
                         % (command, ", ".join(COMMANDS)))
    options = COMMANDS[command][2]
    given = {}
    rest = iter(argv[1:])
    for arg in rest:
        if arg in HELP:
            return SimpleNamespace(command=None, text=_command_help(command))
        option, eq, text = arg.partition("=")
        if option not in options:
            raise UsageError("%s takes no %s; its options are %s"
                             % (command, arg, ", ".join(options)))
        if option in given:
            raise UsageError("%s is given twice" % option)
        if not eq:
            text = next(rest, None)
            if text is None or text.startswith("--"):
                raise UsageError("%s needs a value" % option)
        kind, choices, _, _ = options[option]
        given[option] = _value(option, kind, choices, text)
    pair = EXCLUSIVE.get(command)
    if pair and all(option in given for option in pair):
        raise UsageError("%s takes %s or %s, not both"
                         % ((command,) + pair))
    for option, (_, _, default, _) in options.items():
        if option not in given:
            if default is REQUIRED:
                raise UsageError("%s needs %s" % (command, option))
            given[option] = default
    return SimpleNamespace(command=command, **{
        opt[2:].replace("-", "_"): value for opt, value in given.items()})


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        if args.command is None:
            sys.stdout.write(args.text)
            return 0
        return COMMANDS[args.command][0](args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
