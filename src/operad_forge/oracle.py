"""Brute-force dimensions of nonsymmetric operads given by arity-3 relations.

The degree-n component of the operadic ideal generated by the relations is
spanned by all graftings: inner trees into the three slots of a relation,
and the result into one leaf of an outer context tree.  Each relation is
cleared of its denominators once, so every row has int entries and no
Fraction is built per row.  The span's rank is computed by incremental
fraction-free sparse elimination over the integers, on the package's one
exact kernel, exactlin.SparseEliminator.  The free trees come from
treeterm.generate and the graftings from treeterm.graft; nothing here uses
treeterm's rewriting.
This module is deliberately unclever; it is the trust anchor for the
Groebner-basis claims.
"""

from __future__ import annotations

import os
from functools import lru_cache
from math import comb, lcm
from typing import Iterable, Sequence

from .exactlin import SparseEliminator
from .treeterm import LEAF, NsElement, Tree, generate, graft

DEFAULT_CAP = 7


def oracle_cap() -> int:
    """The largest arity the oracle computes, from OPERAD_FORGE_ORACLE_CAP."""
    text = os.environ.get("OPERAD_FORGE_ORACLE_CAP", str(DEFAULT_CAP))
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(
            f"OPERAD_FORGE_ORACLE_CAP must be a positive integer, got {text!r}")
    return cap


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


@lru_cache(maxsize=None)
def free_trees(n: int, ops: tuple[str, ...] = ("x", "y")) -> tuple[Tree, ...]:
    """All planar binary trees of arity n with node labels from ops.

    The order (op first, then the left arity) fixes the oracle's columns.
    """
    if n < 1:
        raise ValueError("arity must be at least 1")
    grammar = (("F", ("leaf",) + tuple((op, "F", "F") for op in ops)),)
    return generate(grammar, "F", n)


def free_dim(n: int, ops: Sequence[str] = ("x", "y")) -> int:
    return len(ops) ** (n - 1) * catalan(n - 1)


def _compositions3(m: int):
    for a in range(1, m - 1):
        for b in range(1, m - a):
            yield a, b, m - a - b


def consequences(rels: Iterable[NsElement], n: int,
                 ops: tuple[str, ...] = ("x", "y")) -> list[dict[int, int]]:
    """Sparse int vectors spanning the degree-n component of the ideal,
    sorted by descending leading column, sparsest first among equals."""
    if n < 3:
        raise ValueError("relations live in arity 3")
    index = {t: i for i, t in enumerate(free_trees(n, ops))}
    out = []
    for rel in rels:
        den = lcm(*(c.denominator for c in rel.values()))
        terms = [(s, c.numerator * (den // c.denominator)) for s, c in rel.items()]
        for m in range(3, n + 1):
            inner_elems = []
            for a, b, c in _compositions3(m):
                for t1 in free_trees(a, ops):
                    for t2 in free_trees(b, ops):
                        for t3 in free_trees(c, ops):
                            subs = (t1, t2, t3)
                            elem = [(graft(s, subs), coeff)
                                    for s, coeff in terms]
                            inner_elems.append(elem)
            k = n - m + 1
            for context in free_trees(k, ops):
                for leaf_i in range(k):
                    before, after = [LEAF] * leaf_i, [LEAF] * (k - 1 - leaf_i)
                    for elem in inner_elems:
                        row = {}
                        for t, coeff in elem:
                            j = index[graft(context, before + [t] + after)]
                            row[j] = row.get(j, 0) + coeff
                        row = {j: c for j, c in row.items() if c}
                        if row:
                            out.append(row)
    # largest leading column first: the same span, far less fill-in; among
    # equal leading columns the sparsest first (the second sort is stable),
    # so that the fill-in does not depend on the order or the basis of the
    # relations
    out.sort(key=len)
    out.sort(key=min, reverse=True)
    return out


def ideal_rank(rels: Iterable[NsElement], n: int,
               ops: tuple[str, ...] = ("x", "y")) -> int:
    elim = SparseEliminator()
    for row in consequences(rels, n, ops):
        elim.add(row)
    return elim.rank


def bruteforce_dim(rels: Iterable[NsElement], n: int,
                   ops: tuple[str, ...] = ("x", "y"),
                   cap: int | None = None) -> int:
    """dim of the arity-n component of the quotient by the ideal of rels."""
    if n < 1:
        raise ValueError("arity must be at least 1")
    cap = oracle_cap() if cap is None else cap
    if n > cap:
        raise ValueError(f"arity {n} exceeds the oracle cap {cap}")
    if n < 3:
        return free_dim(n, ops)
    return free_dim(n, ops) - ideal_rank(rels, n, ops)
