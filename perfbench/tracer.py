"""Run one grt2 command with the public functions of every layer wrapped.

    python perfbench/tracer.py OUT.json ARG...

behaves like ``python -m grt2.cli ARG...`` (same stdout, same exit
status) but records, in memory, one span per call of a wrapped function:
its parent span, name, start, end and the time spent inside it (for a
generator, the sum of its resumptions, so consumer time is not charged
to it).  Counters are kept at the same boundaries.  Everything is written
to OUT.json when the command ends.

The grt2 code is not edited.  Every binding of a wrapped function is
replaced: the defining module, every module that imported the name, and
module-level dicts that hold the function (``cli.ORACLES``,
``cli.GRAPH_CHECKS``).  A module-level list or tuple holding one cannot
be rewritten, and makes the command fail rather than go untraced.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
from collections import Counter
from time import perf_counter

# Functions wrapped per layer; the span name is "<layer>.<function>".
FUNCTIONS = {
    "cli": ("main", "dims_rows", "relations_report", "check_d_squared",
            "check_encoding", "check_bowtie", "check_filtration",
            "check_theta_identity"),
    "theta": ("cohomology_dim", "d0_theta", "relation_space",
              "relation_space_psi", "psi"),
    "linalg": ("rank_of_columns", "rref", "nullspace", "row_space_basis",
               "kernel_mod_image", "span_equal"),
    "liealg": ("schneps_check", "symmetry_polynomial", "bracket_kernel",
               "ihara_bracket"),
    "perms": ("sign_coinvariant_normal_form",),
    "graphs.canon": ("canonicalize",),
    "graphs.ops": ("insert_at", "pre_lie_raw", "gc2_bracket", "split_terms",
                   "icg_differential_raw", "icg_differential",
                   "mark_one_external_raw", "theta_graph_encode"),
}
# Methods wrapped in place on their class: span name -> (layer, class, method).
METHODS = {
    "poly.mul": ("poly", "_SparsePoly", "__mul__"),
    "graphs.core.GraphSum.add": ("graphs.core", "GraphSum", "__add__"),
}
# Counters kept at the layer boundaries, reported even when they stay 0.
COUNTERS = (
    "graphs.canon.zero", "graphs.canon.distinct",
    "graphs.ops.split_terms.yielded",
    "linalg.rank_of_columns.columns", "linalg.rank_of_columns.nnz_in",
    "linalg.rank_of_columns.rank", "linalg.rref.cells_in",
    "poly.mul.term_products",
    "theta.psi_cache.size", "theta.psi_cache.hits", "theta.psi_cache.misses",
)


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # [parent, name index, start, end, inside, nested]
        self.stack = []
        self.active = Counter()
        self.counters = Counter(dict.fromkeys(COUNTERS, 0))
        self.classes = set()

    def _open(self, name_index):
        rec = [self.stack[-1] if self.stack else -1, name_index, 0.0, 0.0,
               0.0, 1 if self.active[name_index] else 0]
        self.spans.append(rec)
        return rec, len(self.spans) - 1

    def wrap(self, name, fn, before=None, after=None):
        """Wrap a plain function; ``before(args)`` may return replacement
        arguments, ``after(args, result)`` updates counters.
        """
        ni = len(self.names)
        self.names.append(name)
        stack, active = self.stack, self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            rec, idx = self._open(ni)
            stack.append(idx)
            active[ni] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[ni] -= 1
                stack.pop()
                rec[2], rec[3], rec[4] = t0, t1, t1 - t0
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap_generator(self, name, fn):
        ni = len(self.names)
        self.names.append(name)
        stack, counters = self.stack, self.counters
        yielded = name + ".yielded"

        def drive(gen, rec, idx):
            while True:
                stack.append(idx)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    if rec[4] == 0.0:
                        rec[2] = t0
                    rec[3] = t1
                    rec[4] += t1 - t0
                counters[yielded] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec, idx = self._open(ni)
            return drive(fn(*args, **kwargs), rec, idx)

        return wrapper

    # -- counters at layer boundaries --------------------------------------

    def canon_result(self, _args, result):
        cls = result[0]
        if cls is None:
            self.counters["graphs.canon.zero"] += 1
        else:
            self.classes.add(cls)

    def rank_args(self, args):
        columns = list(args[0])
        self.counters["linalg.rank_of_columns.columns"] += len(columns)
        self.counters["linalg.rank_of_columns.nnz_in"] += sum(
            1 for col in columns for v in col.values() if v != 0)
        return (columns,) + args[1:]

    def rank_result(self, _args, result):
        self.counters["linalg.rank_of_columns.rank"] += result

    def rref_args(self, args):
        rows = [list(row) for row in args[0]]
        if rows:
            self.counters["linalg.rref.cells_in"] += len(rows) * len(rows[0])
        return (rows,) + args[1:]

    def mul_args(self, args):
        a, b = args[0], args[1]
        if hasattr(b, "terms"):
            self.counters["poly.mul.term_products"] += (
                len(a.terms) * len(b.terms))
        return args


def _modules():
    import grt2

    mods = [grt2]
    for info in pkgutil.walk_packages(grt2.__path__, "grt2."):
        try:
            mods.append(importlib.import_module(info.name))
        except ImportError:
            continue  # the optional compiled kernel when it is not built
    return mods


def install(tracer):
    """Wrap every binding of the traced functions; returns the names that
    the grt2 code does not define, so their metrics read zero.
    """
    mods = _modules()
    by_name = {m.__name__: m for m in mods}
    hooks = {
        "graphs.canon.canonicalize": (None, tracer.canon_result),
        "linalg.rank_of_columns": (tracer.rank_args, tracer.rank_result),
        "linalg.rref": (tracer.rref_args, None),
        "poly.mul": (tracer.mul_args, None),
    }
    missing = []
    replace = {}
    for layer, names in FUNCTIONS.items():
        module = by_name["grt2." + layer]
        for fname in names:
            fn = getattr(module, fname, None)
            span = "%s.%s" % (layer, fname)
            if fn is None:
                missing.append(span)
            elif span == "graphs.ops.split_terms":
                replace[id(fn)] = (fn, tracer.wrap_generator(span, fn))
            else:
                replace[id(fn)] = (fn, tracer.wrap(span, fn, *hooks.get(
                    span, (None, None))))
    for span, (layer, cname, mname) in METHODS.items():
        cls = getattr(by_name["grt2." + layer], cname, None)
        fn = cls.__dict__.get(mname) if cls is not None else None
        if fn is None:
            missing.append(span)
            continue
        setattr(cls, mname, tracer.wrap(span, fn, *hooks.get(
            span, (None, None))))

    # ``replace`` holds every original, so no other object shares its id.
    for module in mods:
        for attr, value in list(vars(module).items()):
            if id(value) in replace:
                setattr(module, attr, replace[id(value)][1])
            elif isinstance(value, dict):
                for key, item in value.items():
                    if id(item) in replace:
                        value[key] = replace[id(item)][1]
    for module in mods:
        for attr, value in vars(module).items():
            if isinstance(value, dict):
                held = value.values()
            elif isinstance(value, (list, tuple)):
                held = value
            else:
                held = (value,)
            if any(id(v) in replace for v in held):
                raise RuntimeError("unwrapped binding %s.%s"
                                   % (module.__name__, attr))
    return missing


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    missing = install(tracer)
    import grt2.cli
    import grt2.theta

    try:
        rc = grt2.cli.main(argv)
    finally:
        sys.stdout.flush()
    cache = getattr(grt2.theta, "_psi_monomial", None)
    info = cache.cache_info() if hasattr(cache, "cache_info") else None
    counters = dict(tracer.counters)
    counters["graphs.canon.distinct"] = len(tracer.classes)
    if info is not None:
        counters["theta.psi_cache.size"] = info.currsize
        counters["theta.psi_cache.hits"] = info.hits
        counters["theta.psi_cache.misses"] = info.misses
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"missing": missing, "names": tracer.names,
                   "spans": tracer.spans, "counters": counters}, fh,
                  separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
