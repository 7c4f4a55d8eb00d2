"""Exact linear algebra on one sparse, fraction-free elimination kernel.

SparseEliminator does incremental Gaussian elimination over the integers on
sparse rows (dicts column -> nonzero int).  absorb takes such an int row
over and reduces it in place; add clears a rational row of its
denominators on a copy and absorbs that, so the row it is given is left as
it is.  Every stored pivot row is primitive: the gcd of its entries is 1
and its leading entry is positive.  Each step clears one column with a
gcd-scaled integer combination (Bareiss, Math. Comp. 22, 1968), so no
Fraction is built while rows are reduced; only rref() goes back to the
rationals, for the canonical reduced row-echelon form.  The brute-force
oracle gives the eliminator a graft source, which stands for its grafted
rows, pivot rows as they stand, and builds each only when absorb first
reaches its column; it absorbs only the root rows it has just built.
rref, span, intersect and nullspace run on add.  The criterion and the white
products need only rref and span: manin reads R cap (two-outside cosets)
off one rref with the two-outside columns last and builds As o P by
permuting rows, so intersect (Zassenhaus) and nullspace are no longer on
that path; they stay as general tools and as the references the tests
compare against.  All four take each row dense, a sequence of ints or
Fractions, or sparse, a Mapping column -> entry such as the row of an
arity3 element, and return the rows of rref(), which arity3 takes as
elements: dicts column -> Fraction whose pivot is the smallest column.  A
Subspace is stored as this reduced row-echelon basis, so two subspaces are
equal iff their canonical bases are equal as sequences, and a row lies in
a subspace iff adding it leaves the rank unchanged; SparseEliminator.absorb
is the one reduction loop.  Subspaces are immutable and the functions are
pure.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

IntRow = dict[int, int]
SparseRow = dict[int, Fraction]


def _integral(row: Mapping) -> IntRow:
    """A copy of a rational sparse row times the lcm of its denominators,
    with int entries and no zeros."""
    den = lcm(*(c.denominator for c in row.values()))
    return {j: c.numerator * (den // c.denominator)
            for j, c in row.items() if c}


def _primitive(row: IntRow, lead: int) -> IntRow:
    """row divided by the gcd of its entries, with a positive entry in its
    smallest column lead."""
    g = gcd(*row.values())
    if row[lead] < 0:
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
    column is the pivot.  The eliminator takes over the table it is given,
    if any, as its starting pivots, unchecked: the caller vouches that each
    row is such a pivot row, and must not use the table afterwards.

    graft, if given, stands for further pivot rows that pivots does not
    hold yet.  graft.row(p), for a column p that pivots lacks, returns the
    pivot row of column p and stores it in pivots, or returns None if p is
    no pivot column.  rank, nonzeros and max_bits are then graft's own,
    which count the rows not built as well; rref is refused."""

    def __init__(self, pivots: dict[int, IntRow] | None = None, graft=None):
        self.pivots: dict[int, IntRow] = {} if pivots is None else pivots
        self.graft = graft

    def absorb(self, row: IntRow) -> bool:
        """Reduce row, a dict column -> nonzero int, by the pivot rows, in
        place; if a residual is left, keep it, made primitive, as the pivot
        row of its smallest column.  Returns True if the rank grew.  row
        belongs to the eliminator afterwards: the caller must not use it."""
        pivots = self.pivots
        graft = self.graft
        while row:
            p = min(row)
            piv = pivots.get(p)
            if piv is None:
                if graft is not None:
                    piv = graft.row(p)
                if piv is None:
                    pivots[p] = _primitive(row, p)
                    return True
            _cancel(row, p, piv)
        return False

    def add(self, row: Mapping) -> bool:
        """absorb a copy of row, a Mapping column -> int or Fraction, cleared
        of its denominators; row itself is left as it is."""
        return self.absorb(_integral(row))

    @property
    def rank(self) -> int:
        return len(self.pivots) if self.graft is None else self.graft.rank

    @property
    def nonzeros(self) -> int:
        """The total number of nonzero entries in the pivot rows."""
        if self.graft is not None:
            return self.graft.nonzeros
        return sum(map(len, self.pivots.values()))

    @property
    def max_bits(self) -> int:
        """The bit length of the largest absolute pivot-row entry."""
        if self.graft is not None:
            return self.graft.max_bits
        return max((c.bit_length() for row in self.pivots.values()
                    for c in row.values()), default=0)

    def rref(self) -> list[SparseRow]:
        """The pivot rows back-substituted into reduced row-echelon form over
        Q, in increasing pivot order."""
        if self.graft is not None:
            raise ValueError("rref needs every pivot row stored, "
                             "and a graft source builds them on demand")
        done: dict[int, IntRow] = {}
        for p in sorted(self.pivots, reverse=True):
            row = dict(self.pivots[p])
            # a finished row is zero on every other pivot column, so one
            # pass over the pivot columns present in row clears them all
            for q in [q for q in row if q != p and q in done]:
                _cancel(row, q, done[q])
            done[p] = _primitive(row, p)
        out = []
        for p in sorted(done):
            row = done[p]
            lead = row[p]
            out.append({j: Fraction(c, lead) for j, c in row.items()})
        return out


def _sparse(v: Sequence | Mapping, ncols: int) -> Mapping:
    """The entries of a row of width ncols: a Mapping column -> entry as it
    is, a dense row (a sequence of length ncols) by column.  Either way its
    columns must lie in range(ncols) and its entries be ints or Fractions.
    A plain dict is tested by type first: the Mapping ABC check costs
    several times more, once per row."""
    if type(v) is not dict and not isinstance(v, Mapping):
        if len(v) != ncols:
            raise ValueError("ambient dimension mismatch")
        v = dict(enumerate(v))
    cols = range(ncols)
    for j, x in v.items():
        if j not in cols:
            raise ValueError(f"sparse row has a column outside range({ncols})")
        if not isinstance(x, (int, Fraction)):
            raise ValueError(f"sparse row entry {x!r} is not an int or a Fraction")
    return v


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
        return span((*self.basis, v), self.ambient_dim).dim == self.dim


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
