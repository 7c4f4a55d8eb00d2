"""Exact linear algebra on one sparse, fraction-free elimination kernel.

SparseEliminator does incremental Gaussian elimination over the integers on
sparse rows (dicts column -> nonzero int).  A rational row is cleared of its
denominators once on entry, and every stored pivot row is primitive: the gcd
of its entries is 1 and its leading entry is positive.  Each step clears one
column with a gcd-scaled integer combination (Bareiss, Math. Comp. 22, 1968),
so no Fraction is built while rows are reduced; only rref() goes back to
the rationals, for the canonical reduced row-echelon form.  The brute-force
oracle feeds the eliminator directly, and rref, span, intersect and
nullspace run on it.  They take each row dense, a sequence of ints or
Fractions, or sparse, a Mapping column -> entry such as arity3.s3_closure
builds, and return the rows of rref(): dicts column -> Fraction whose pivot
is the smallest column.  A Subspace is stored as this reduced row-echelon
basis, so two subspaces are equal iff their canonical bases are equal as
sequences.  Subspaces are immutable and the functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

IntRow = dict[int, int]
SparseRow = dict[int, Fraction]


def _integral(row: Mapping) -> IntRow:
    """A copy of a rational sparse row times the lcm of its denominators,
    with int entries and no zeros."""
    den = lcm(*(c.denominator for c in row.values()))
    return {j: c.numerator * (den // c.denominator)
            for j, c in row.items() if c}


def _primitive(row: IntRow) -> IntRow:
    """row divided by the gcd of its entries, with a positive leading entry."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {j: c // g for j, c in row.items()}


def _cancel(row: IntRow, p: int, piv: IntRow) -> None:
    """Clear column p of row, in place, with the pivot row piv (piv[p] > 0):
    row := (a/g)*row - (f/g)*piv with a = piv[p], f = row[p], g = gcd(a, f)."""
    f = row[p]
    a = piv[p]
    if a != 1:
        g = gcd(a, f)
        if g != a:
            s = a // g
            for j in row:
                row[j] *= s
        f //= g
    for j, c in piv.items():
        v = row.get(j, 0) - f * c
        if v:
            row[j] = v
        else:
            del row[j]


class SparseEliminator:
    """Incremental fraction-free sparse Gaussian elimination.

    pivots maps each pivot column to its primitive int row, whose smallest
    column is the pivot."""

    def __init__(self):
        self.pivots: dict[int, IntRow] = {}

    def reduce(self, row: Mapping) -> IntRow:
        """The residual of row after elimination by the pivot rows, as a
        primitive int row (a nonzero rational multiple of the true residual),
        or {} if row lies in their span."""
        row = _integral(row)
        while row:
            p = min(row)
            piv = self.pivots.get(p)
            if piv is None:
                return _primitive(row)
            _cancel(row, p, piv)
        return row

    def add(self, row: Mapping) -> bool:
        """Reduce and absorb; returns True if the rank grew."""
        row = self.reduce(row)
        if not row:
            return False
        self.pivots[min(row)] = row
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def nonzeros(self) -> int:
        """The total number of nonzero entries in the pivot rows."""
        return sum(map(len, self.pivots.values()))

    @property
    def max_bits(self) -> int:
        """The bit length of the largest absolute pivot-row entry."""
        return max((c.bit_length() for row in self.pivots.values()
                    for c in row.values()), default=0)

    def rref(self) -> list[SparseRow]:
        """The pivot rows back-substituted into reduced row-echelon form over
        Q, in increasing pivot order."""
        done: dict[int, IntRow] = {}
        for p in sorted(self.pivots, reverse=True):
            row = dict(self.pivots[p])
            # a finished row is zero on every other pivot column, so one
            # pass over the pivot columns present in row clears them all
            for q in [q for q in row if q != p and q in done]:
                _cancel(row, q, done[q])
            done[p] = _primitive(row)
        out = []
        for p in sorted(done):
            row = done[p]
            lead = row[p]
            out.append({j: Fraction(c, lead) for j, c in row.items()})
        return out


def _sparse(v: Sequence | Mapping, ncols: int) -> Mapping:
    """The nonzero entries of a row of width ncols.  A Mapping (column ->
    int or Fraction) is taken as it is, once its columns are checked to lie
    in range(ncols).  In a dense row, ints and Fractions are kept as they
    are and anything else goes through Fraction."""
    if isinstance(v, Mapping):
        cols = range(ncols)
        if not all(j in cols for j in v):
            raise ValueError(f"sparse row has a column outside range({ncols})")
        return v
    if len(v) != ncols:
        raise ValueError("ambient dimension mismatch")
    return {j: x if isinstance(x, (int, Fraction)) else Fraction(x)
            for j, x in enumerate(v) if x}


def rref(rows: Iterable[Sequence | Mapping], ncols: int) -> list[SparseRow]:
    """Reduced row-echelon form of rows of ints or Fractions, each dense (a
    sequence of length ncols) or sparse (a Mapping column -> entry), as
    sparse rows in increasing pivot order; zero rows are dropped."""
    elim = SparseEliminator()
    for r in rows:
        elim.add(_sparse(r, ncols))
    return elim.rref()


@dataclass(frozen=True)
class Subspace:
    """Canonical subspace of Q^ambient_dim: its RREF basis as sparse rows,
    pivots increasing, each row's pivot its smallest column."""

    ambient_dim: int
    basis: tuple[SparseRow, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence | Mapping) -> bool:
        return not self.reduce(v)

    def reduce(self, v: Sequence | Mapping) -> dict:
        """The residual of v after elimination by the basis rows, as a
        sparse row (column -> nonzero entry)."""
        v = {j: x for j, x in _sparse(v, self.ambient_dim).items() if x}
        for row in self.basis:
            f = v.get(min(row))
            if f:
                for j, b in row.items():
                    x = v.get(j, 0) - f * b
                    if x:
                        v[j] = x
                    else:
                        del v[j]
        return v


def span(vectors: Iterable[Sequence | Mapping], ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, tuple(rref(vectors, ambient_dim)))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return span(a.basis + b.basis, a.ambient_dim)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: RREF of [A|A; B|0], rows with zero left block span a cap b."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    elim = SparseEliminator()
    for row in a.basis:
        elim.add({**row, **{j + n: c for j, c in row.items()}})
    for row in b.basis:
        elim.add(row)
    # the rows with pivot >= n are already reduced among themselves
    return Subspace(n, tuple({j - n: c for j, c in row.items()}
                             for row in elim.rref() if min(row) >= n))


def nullspace(rows: Iterable[Sequence | Mapping], cols: int) -> Subspace:
    """Right null space {v : M v = 0} of the rows of M, a subspace of Q^cols."""
    reduced = {min(r): r for r in rref(rows, cols)}
    basis = []
    for free in range(cols):
        if free not in reduced:
            v = {free: 1}
            for p, r in reduced.items():
                if free in r:
                    v[p] = -r[free]
            basis.append(v)
    return span(basis, cols)
