"""Brute-force dimensions of nonsymmetric operads given by arity-3 relations.

F(k) is the free component of arity k and I(k) the ideal's part in it; the
dimension is dim F(n) - dim I(n).  I(3), ..., I(n) are built in turn, one
elimination per arity, on three elementary facts (Bremner-Dotsenko,
Algebraic Operads, 2016), where N(k) is spanned by the trees whose column
is no pivot of I(k)'s echelon rows:

1. I(m) = sum of op(I(k), F) + op(F, I(m-k)) + r(F, F, F) over labels op,
   splits k and relations r.  I(m) is spanned by graftings of a relation
   into a context with inner trees in its leaves, and the relation either
   contains the root or lies inside one child.
2. F(k) = I(k) (+) N(k), as the echelon rows have distinct smallest
   columns.  So op(I(k), F) + op(F, I(m-k)) = op(I(k), F) (+) op(N(k),
   I(m-k)), op(I(k), I(m-k)) lying in the first summand.  It is spanned
   by op(p, e_j) and op(e_i, q) for echelon rows p, q, trees e_j
   and normal trees e_i.  Their leading columns (pivot of p, j) and (i,
   pivot of q) are pairwise distinct, and as copies of primitive rows
   they are primitive: these grafted rows are pivot rows as they stand.
   So column (op, k, i, j) leads one iff i is a pivot of I(k), or i is
   normal and j is a pivot of I(m-k), and the pivot indicator of F(m), a
   bytearray, is one slice per (op, k, i): all ones, or I(m-k)'s
   indicator.  No grafted row is built ahead: I(m)'s table is a dict of
   pivot rows whose __contains__ reads the indicator and whose
   __missing__ builds a grafted row, so absorb reads one only when a root
   row reaches its column; it is copied from I(k)'s row p or I(m-k)'s
   row q, themselves built on demand, and kept.  The rank is the
   indicator's count once the root pivots are marked in it.
   The filled indicator is counted against the rows placed in it, so two
   rows at one leading column raise an error instead of losing a row.
3. If an inner tree t_i lies in I, every term s(t1, t2, t3) of r(t1, t2,
   t3) is op(X, Y) with t_i grafted into X or Y, so it lies in the grafted
   part.  As r is linear in each inner tree, the root rows need only run
   over normal inner trees.

The root rows go to absorb by descending leading column, and among equal
leading columns by descending last column (consequences).  The first row
at a column becomes its pivot; a pivot whose tail lies far right leaves
the rows it reduces fewer further steps, and they reach fewer grafted
rows, which the table would build and keep.  Against the order by length
among equals, through arity 8 this takes NcNov from 252,876 calls of
exactlin._cancel to 175,962 and NcBicom from 14,265 to 11,145, and builds
6,133 grafted rows of NcBicom's arity 8 instead of 8,405, in the label
order (x, y); the other catalog presentations, and these two in the
order (y, x), do the same work under either key.  No row and no rank
changes.

No tree is grafted: in the fixed order of the free trees the position of a
grafting is affine in the positions of its parts (position).  Every row
has int entries; the root rows of fact 3 go straight to absorb of the one
exact kernel.  ideal_ranks yields dim I(3), ..., dim I(n) from one
recursion on the arity, and ideal_rank is its last value.  The free trees
come from treeterm.generate; nothing here uses treeterm's rewriting.
The module stays unclever: it rests on its own lower eliminations alone,
and spans each I(m) by every grafting the three facts keep; it is the
trust anchor for the Groebner-basis claims.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import Iterable, Iterator, Sequence

from .exactlin import _integral, absorb
from .treeterm import LEAF, NsElement, Tree, generate

DEFAULT_CAP = 8


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
             ops: Sequence[str] = ("x", "y")) -> tuple[int, tuple[int, ...]]:
    """(c, w) such that, for any trees t_j of the given arities, tree number
    c + sum(w_j * i_j) of free_trees(sum(arities), ops) is pattern with
    t_1, t_2, ... in its leaves, left to right, where t_j is tree number
    i_j of free_trees(arities[j], ops)."""
    ops = tuple(ops)
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


def _compositions3(m: int):
    for a in range(1, m - 1):
        for b in range(1, m - a):
            yield a, b, m - a - b


def _normal(bases: Sequence[dict[int, dict[int, int]]], k: int,
            ops: tuple[str, ...]) -> list[int]:
    """The normal trees of arity k: the columns of F(k) that are no pivot
    of I(k)'s echelon rows bases[k]."""
    return [i for i in range(free_dim(k, ops)) if i not in bases[k]]


class _Ideal(dict):
    """I(m)'s echelon rows by pivot column, built on bases[k] = I(k) for
    k < m: the pivot mapping ideal_ranks absorbs the root rows into.

    lead is the pivot indicator of F(m), a bytearray with 1 at each column
    that leads a grafted row of fact 2 and, once the root rows are in
    (settle), at each root pivot.  p in table reads it; the table holds
    the root pivots absorb finds, and table[p] builds a grafted row the
    first time it is read (__missing__) and keeps it.  The slices of lead
    are filled from the lower indicators alone, and counted against the
    rows placed in them, so two grafted rows at one leading column raise
    an error instead of losing a row."""

    def __init__(self, m: int, bases: list, ops: tuple[str, ...]):
        super().__init__()
        self.m = m
        # I(0), ..., I(m-1), a copy: the table refers to no higher one, so
        # no reference cycle keeps the tables of a finished call alive
        self.bases = bases[:m]
        self.roots: dict[int, dict[int, int]] = {}  # filled by settle
        lead = self.lead = bytearray(free_dim(m, ops))
        # label-major, then left arity: free_trees' own order, so the
        # blocks come in increasing start column, as bisect needs
        blocks = []
        placed = 0
        for op in ops:
            for k in range(1, m):
                # op(F(k), F(m - k)): the column of op(e_i, e_j) is c + w*i + j
                c, (w, _) = position((op, LEAF, LEAF), (k, m - k), ops)
                inner, outer = bases[k].lead, bases[m - k].lead
                ones = b"\1" * w
                a = c
                for x in inner:
                    lead[a:a + w] = ones if x else outer
                    a += w
                rank = inner.count(1)
                placed += rank * w + (len(inner) - rank) * outer.count(1)
                blocks.append((c, w, k))
        if lead.count(1) != placed:
            raise RuntimeError(f"{placed - lead.count(1)} grafted rows of "
                               f"arity {m} share a leading column")
        self._blocks = blocks
        self._starts = [c for c, _, _ in blocks]

    def __missing__(self, p: int) -> dict[int, int]:
        """The grafted row leading at column p, now kept in the table.
        op(p_i, e_j) is a copy of I(k)'s row at i, op(e_i, q_j) of I(m-k)'s
        row at j, both primitive."""
        if not self.lead[p]:
            raise KeyError(p)
        c, w, k = self._blocks[bisect_right(self._starts, p) - 1]
        i, j = divmod(p - c, w)
        inner = self.bases[k]
        if inner.lead[i]:
            row = {c + w * a + j: x for a, x in inner[i].items()}
        else:
            c += w * i
            row = {c + b: x for b, x in self.bases[self.m - k][j].items()}
        self[p] = row
        return row

    def __contains__(self, p: object) -> bool:
        """Whether p is a pivot column, its row built yet or not."""
        return dict.__contains__(self, p) or self.lead[p] == 1

    def settle(self) -> None:
        """Once absorb has had every root row: keep the root pivot rows, the
        rows at unmarked columns, in roots, and mark them in lead."""
        lead = self.lead
        self.roots = {p: row for p, row in self.items() if not lead[p]}
        for p in self.roots:
            lead[p] = 1

    def _roots(self) -> Iterator[dict[int, int]]:
        """The root pivot rows of arities up to m, the rows every other row
        is a grafted copy of."""
        for table in (*self.bases[1:], self):
            yield from table.roots.values()

    @property
    def rank(self) -> int:
        """dim I(m), once settled: the grafted rows, built or not, and the
        root pivots."""
        return self.lead.count(1)

    @property
    def nonzeros(self) -> int:
        """The nonzero entries of the root pivot rows of arities up to m."""
        return sum(map(len, self._roots()))

    @property
    def max_bits(self) -> int:
        """The bit length of the largest absolute entry of a root pivot row
        of arity up to m, and so of any pivot row of I(m)."""
        return max((x.bit_length() for row in self._roots()
                    for x in row.values()), default=0)


def consequences(rels: Sequence[NsElement], m: int,
                 bases: Sequence[dict[int, dict[int, int]]],
                 ops: Sequence[str] = ("x", "y")) -> list[dict[int, int]]:
    """The root rows of fact 3 for arity m, sparse int rows that span I(m)
    together with the grafted rows, given bases[k], the echelon rows of
    I(k) by pivot column, for 0 < k < m.  s(r1, r2, r3) is tree
    K + w1*r1 + w2*r2 + w3*r3 (position)."""
    ops = tuple(ops)
    normal = [None] + [_normal(bases, k, ops) for k in range(1, m - 1)]
    root = []
    for rel in rels:
        terms = _integral(rel).items()
        for a, b, c in _compositions3(m):
            places = [(position(s, (a, b, c), ops), x) for s, x in terms]
            for r1 in normal[a]:
                for r2 in normal[b]:
                    for r3 in normal[c]:
                        row = {}
                        for (k, (w1, w2, w3)), x in places:
                            j = k + w1 * r1 + w2 * r2 + w3 * r3
                            row[j] = row.get(j, 0) + x
                        row = {j: x for j, x in row.items() if x}
                        if row:
                            root.append(row)
    # largest leading column first, less fill-in; among equals (a stable
    # sort) the largest last column first, as the first one becomes the
    # pivot the others are reduced by.  The order and the signs of the
    # relations leave the fill-in as it is, a change of their basis need not
    root.sort(key=max, reverse=True)
    root.sort(key=min, reverse=True)
    return root


def ideal_ranks(rels: Iterable[NsElement], n: int,
                ops: Sequence[str] = ("x", "y")) -> Iterator[int]:
    """dim I(3), ..., dim I(n), by one elimination for each arity: it
    absorbs the root rows into I(m)'s table, which builds a grafted row
    when absorb first reaches its column.  A generator: ValueError for
    n < 3 comes with the first value."""
    if n < 3:
        raise ValueError("relations live in arity 3")
    ops = tuple(ops)
    rels = list(rels)  # read once per arity
    bases = [None]
    for m in range(1, n + 1):
        table = _Ideal(m, bases, ops)
        if m >= 3:
            rows = consequences(rels, m, bases, ops)
            rows.reverse()
            while rows:
                # popped, so that a row absorb reduced to zero is freed at
                # once: its dict keeps the table its fill-in grew
                absorb(table, rows.pop())
            table.settle()
            yield table.rank
        bases.append(table)


def ideal_rank(rels: Iterable[NsElement], n: int,
               ops: Sequence[str] = ("x", "y")) -> int:
    """dim I(n), the last value of ideal_ranks."""
    *_, rank = ideal_ranks(rels, n, ops)
    return rank


def bruteforce_dim(rels: Iterable[NsElement], n: int,
                   ops: Sequence[str] = ("x", "y"),
                   cap: int = DEFAULT_CAP) -> int:
    """dim of the arity-n component of the quotient by the ideal of rels;
    arities above cap are refused."""
    ops = tuple(ops)
    if n < 1:
        raise ValueError("arity must be at least 1")
    if n > cap:
        raise ValueError(f"arity {n} exceeds the oracle cap {cap}")
    if n < 3:
        return free_dim(n, ops)
    return free_dim(n, ops) - ideal_rank(rels, n, ops)
