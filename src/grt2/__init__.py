"""Exact arithmetic for two-loop graph cohomology and depth-2 Lie relations.

Everything is computed over the rationals with arbitrary precision; no
floating point is used anywhere.  The main entry points are:

* :mod:`grt2.poly` -- sparse polynomial rings (commutative in two and
  three variables, noncommutative in two letters).
* :mod:`grt2.perms` -- the symmetric group on three letters and the
  coinvariant normal form of its sign action.
* :mod:`grt2.theta` -- the three-term complex of hairy theta graphs in
  polynomial form, its cohomology and the relation tables.
* :mod:`grt2.liealg` -- Ihara brackets of adjoint powers, the depth-2
  encoding and the Schneps symmetry criterion.
* :mod:`grt2.graphs` -- the small-graph engine (internally connected
  graphs with one external vertex, and the connected graph complex with
  ordered edges modulo sign).
* :mod:`grt2.cli` -- the ``grt2`` command line front end.
"""

__version__ = "0.1.0"
