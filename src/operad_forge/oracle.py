"""Brute-force dimensions of nonsymmetric operads given by arity-3 relations.

The degree-n component of the operadic ideal generated by the relations is
spanned by all graftings: inner trees into the three slots of a relation,
and the result into one leaf of an outer context tree.  No grafted tree is
built: the free trees of arity n are listed in a fixed order, in which the
position of a grafting is an affine function of the positions of its parts,
so each column is computed from the context and the inner trees.  Each
relation is cleared of its denominators once, so every row has int entries
and no Fraction is built per row.  The span's rank is computed by incremental
fraction-free sparse elimination over the integers, on the package's one
exact kernel, exactlin.SparseEliminator: each fresh row goes straight to
its absorb, which reduces it in place with no copy and no denominator
clearing (add, the rational entry, clears denominators on a copy).  The
free trees come from treeterm.generate; nothing here uses treeterm's
grafting or rewriting.
This module is deliberately unclever; it is the trust anchor for the
Groebner-basis claims.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb, lcm
from typing import Iterable, Sequence

from .exactlin import SparseEliminator
from .treeterm import LEAF, NsElement, Tree, generate

DEFAULT_CAP = 7


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def _distinct(ops: Sequence[str]) -> None:
    if len(set(ops)) != len(ops):
        raise ValueError(f"ops {tuple(ops)} repeat a label")


def free_trees(n: int, ops: tuple[str, ...] = ("x", "y")) -> tuple[Tree, ...]:
    """All planar binary trees of arity n with node labels from ops.

    The order (op first, then the left arity, the left tree and the right
    tree) fixes the oracle's columns; position() computes it.
    """
    if n < 1:
        raise ValueError("arity must be at least 1")
    _distinct(ops)
    grammar = (("F", ("leaf",) + tuple((op, "F", "F") for op in ops)),)
    return generate(grammar, "F", n)


def free_dim(n: int, ops: Sequence[str] = ("x", "y")) -> int:
    if n < 1:
        raise ValueError("arity must be at least 1")
    _distinct(ops)
    return len(ops) ** (n - 1) * catalan(n - 1)


@lru_cache(maxsize=None)
def _layout(n: int, ops: tuple[str, ...]) -> tuple[int, tuple[int, ...]]:
    """free_dim(n, ops) and, by left arity, where the trees with that left
    arity start within one label's block of free_trees(n, ops)."""
    sizes = [free_dim(k, ops) * free_dim(n - k, ops) for k in range(1, n - 1)]
    return free_dim(n, ops), (0,) + tuple(accumulate(sizes, initial=0))


def position(pattern: Tree, arities: Sequence[int],
             ops: tuple[str, ...] = ("x", "y")) -> tuple[int, tuple[int, ...]]:
    """(c, w) such that, for any trees t_j of the given arities, tree number
    c + sum(w_j * i_j) of free_trees(sum(arities), ops) is
    graft(pattern, [t_1, ...]), where t_j is tree number i_j of
    free_trees(arities[j], ops)."""
    _distinct(ops)
    try:
        _, c, w = _walk(pattern, iter(arities), ops)
        if len(w) == len(arities):
            return c, w
    except (StopIteration, ValueError):
        pass
    raise ValueError(f"{pattern!r} is not a tree over {ops} "
                     f"with {len(arities)} leaves")


def _walk(t: Tree, leaves, ops: tuple[str, ...]):
    """(arity, c, w) of position() for the subtree t, whose leaves take the
    next arities from the iterator leaves; ValueError if t is no tree over
    ops, StopIteration if the arities run out."""
    if t == LEAF:
        return next(leaves), 0, (1,)
    if type(t) is not tuple or len(t) != 3 or t[0] not in ops:
        raise ValueError
    nl, cl, wl = _walk(t[1], leaves, ops)
    nr, cr, wr = _walk(t[2], leaves, ops)
    dim, starts = _layout(nl + nr, ops)
    dr = _layout(nr, ops)[0]
    c = ops.index(t[0]) * (dim // len(ops)) + starts[nl] + cl * dr + cr
    return nl + nr, c, tuple(x * dr for x in wl) + wr


def _slots(n: int, m: int, ops: tuple[str, ...]) -> list[tuple[int, int]]:
    """(A, B) for each context of arity n - m + 1, in free_trees order, and
    each of its leaves: the context with tree number j of arity m in that
    leaf, and bare leaves elsewhere, is tree number A + B*j of arity n."""
    by_arity = [[], [[(0, 1)]]]  # [k][t]: context t of arity k, leaf by leaf
    for k in range(2, n - m + 2):
        trees = []
        for op in ops:
            node = (op, LEAF, LEAF)
            for kl in range(1, k):
                cl, (ul, vl) = position(node, (kl - 1 + m, k - kl), ops)
                cr, (ur, vr) = position(node, (kl, k - kl - 1 + m), ops)
                for l, left in enumerate(by_arity[kl]):
                    for r, right in enumerate(by_arity[k - kl]):
                        trees.append([(cl + ul * a + vl * r, ul * b) for a, b in left]
                                     + [(cr + ur * l + vr * a, vr * b) for a, b in right])
        by_arity.append(trees)
    return [slot for t in by_arity[n - m + 1] for slot in t]


def _compositions3(m: int):
    for a in range(1, m - 1):
        for b in range(1, m - a):
            yield a, b, m - a - b


def consequences(rels: Iterable[NsElement], n: int,
                 ops: tuple[str, ...] = ("x", "y")) -> list[dict[int, int]]:
    """Sparse int vectors spanning the degree-n component of the ideal,
    sorted by descending leading column, sparsest first among equals.

    Columns are computed, not looked up: relation term s with trees number
    r1, r2, r3 in its leaves is tree j = K + w1*r1 + w2*r2 + w3*r3 of arity
    m (position), and that in a context's leaf is tree A + B*j (_slots)."""
    if n < 3:
        raise ValueError("relations live in arity 3")
    slots = {m: _slots(n, m, ops) for m in range(3, n + 1)}
    # one int object per column: the eliminator's dict lookups then match
    # equal columns by identity, several per cent faster than by value
    column = list(range(free_dim(n, ops)))
    # the inner trees' index ranges by arity, checked and counted once
    trees = [range(0)] + [range(free_dim(k, ops)) for k in range(1, n - 1)]
    out = []
    for rel in rels:
        den = lcm(*(c.denominator for c in rel.values()))
        terms = [(s, c.numerator * (den // c.denominator)) for s, c in rel.items()]
        for m in range(3, n + 1):
            inner = []
            for a, b, c in _compositions3(m):
                places = [(position(s, (a, b, c), ops), coeff)
                          for s, coeff in terms]
                for r1 in trees[a]:
                    for r2 in trees[b]:
                        for r3 in trees[c]:
                            elem = {}
                            for (k, (w1, w2, w3)), coeff in places:
                                j = k + w1 * r1 + w2 * r2 + w3 * r3
                                elem[j] = elem.get(j, 0) + coeff
                            elem = [(j, x) for j, x in elem.items() if x]
                            if elem:
                                inner.append(elem)
            # j -> A + B*j is one to one, so no two columns of a row merge
            for a, b in slots[m]:
                out.extend({column[a + b * j]: x for j, x in elem}
                           for elem in inner)
    # largest leading column first: the same span, far less fill-in; among
    # equal leading columns the sparsest first (the second sort is stable),
    # so that the fill-in does not depend on the order or the basis of the
    # relations
    out.sort(key=len)
    out.sort(key=min, reverse=True)
    return out


def ideal_rank(rels: Iterable[NsElement], n: int,
               ops: tuple[str, ...] = ("x", "y")) -> int:
    rows = consequences(rels, n, ops)
    rows.reverse()
    elim = SparseEliminator()
    while rows:
        # popped, so that a row absorb reduced to zero is freed at once: its
        # dict keeps the table its fill-in grew
        elim.absorb(rows.pop())
    return elim.rank


def bruteforce_dim(rels: Iterable[NsElement], n: int,
                   ops: tuple[str, ...] = ("x", "y"),
                   cap: int = DEFAULT_CAP) -> int:
    """dim of the arity-n component of the quotient by the ideal of rels;
    arities above cap are refused."""
    if n < 1:
        raise ValueError("arity must be at least 1")
    if n > cap:
        raise ValueError(f"arity {n} exceeds the oracle cap {cap}")
    if n < 3:
        return free_dim(n, ops)
    return free_dim(n, ops) - ideal_rank(rels, n, ops)
