"""Exact linear algebra on one sparse, fraction-free elimination kernel.

absorb(pivots, row) is the one reduction loop.  It reduces a sparse int
row (a dict column -> nonzero int) in place by the pivot rows of pivots, a
mapping pivot column -> pivot row, and keeps a nonzero residual, made
primitive, as the pivot row of its smallest column.  Every pivot row is
primitive: the gcd of its entries is 1 and its leading entry is positive.
Each step clears one column with a gcd-scaled integer combination
(Bareiss, Math. Comp. 22, 1968), so no Fraction is built while rows are
reduced.  absorb looks a column up with pivots.get(p) and, only when that
is None, asks p in pivots and then reads pivots[p]: a plain dict serves,
and so does a mapping that builds a pivot row the first time it is read,
as the brute-force oracle's I(m) table builds its grafted rows.
rref clears each rational row of its denominators on a copy, so the row
it is given is left as it is, and intersect copies its int basis rows;
both absorb the copies into a plain dict of pivots and back-substitute
it (_back_substitute) for the canonical reduced row-echelon form, still
in primitive int rows: reduced rows are unique up to scale, which gcd 1
and a positive pivot fix.  span and nullspace run on rref; manin reads
R cap (two-outside cosets) off one rref, and intersect (Zassenhaus) and
nullspace stay as general tools and as the references the tests compare
against.  rref, span and nullspace take each row dense, a sequence of
ints or Fractions, or sparse, a Mapping column -> entry such as the row
of an arity3 element.  All four return such rows, and no Fraction: arity3
takes them as elements.  A Subspace is stored as this reduced row-echelon
basis, so two subspaces are equal iff their canonical bases are equal as
sequences, and a row lies in a subspace iff adding it leaves the rank
unchanged.  Subspaces are immutable and the functions are pure.
_exact is the package's one coefficient rule: every coefficient kept is an
int, or a Fraction that is not integral, and a float or a str is refused.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

IntRow = dict[int, int]


def _exact(c):
    """The package's one coefficient rule: c as an int when it is integral,
    else the Fraction c; a ValueError unless c is an int or a Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise ValueError(f"coefficient {c!r} is not an int or a Fraction")


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


def absorb(pivots, row: IntRow) -> bool:
    """Reduce row, a dict column -> nonzero int, by the pivot rows of
    pivots, in place; if a residual is left, keep it, made primitive, as
    the pivot row of its smallest column.  Returns True if the rank grew.
    row belongs to pivots afterwards: the caller must not use it.

    pivots maps each pivot column to its primitive int row, whose smallest
    column is the pivot.  A column is looked up by pivots.get(p) and, only
    when that is None, by p in pivots and pivots[p], so a mapping may hold
    pivot rows it builds only when they are first read (a dict subclass
    with __contains__ and __missing__)."""
    while row:
        p = min(row)
        piv = pivots.get(p)
        if piv is None:
            if p not in pivots:
                pivots[p] = _primitive(row, p)
                return True
            piv = pivots[p]
        _cancel(row, p, piv)
    return False


def _back_substitute(pivots: dict[int, IntRow]) -> list[IntRow]:
    """The pivot rows of pivots back-substituted into reduced row-echelon
    form, primitive, in increasing pivot order; pivots is left as it is."""
    done: dict[int, IntRow] = {}
    for p in sorted(pivots, reverse=True):
        row = dict(pivots[p])
        # a finished row is zero on every other pivot column, so one
        # pass over the pivot columns present in row clears them all
        for q in [q for q in row if q != p and q in done]:
            _cancel(row, q, done[q])
        done[p] = _primitive(row, p)
    return [done[p] for p in sorted(done)]


def _sparse(v: Sequence | Mapping, ncols: int) -> Mapping:
    """The entries of a row of width ncols: a Mapping column -> entry as it
    is, a dense row (a sequence of length ncols) by column.  Either way its
    columns must lie in range(ncols) and its entries be ints or Fractions
    (not _exact: rref keeps no entry).  A plain dict is tested by type
    first: the Mapping ABC check costs several times more, once per row."""
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


def rref(rows: Iterable[Sequence | Mapping], ncols: int) -> list[IntRow]:
    """Reduced row-echelon form of rows of ints or Fractions, each dense (a
    sequence of length ncols) or sparse (a Mapping column -> entry), as
    primitive int rows in increasing pivot order; zero rows are dropped."""
    pivots: dict[int, IntRow] = {}
    for r in rows:
        absorb(pivots, _integral(_sparse(r, ncols)))
    return _back_substitute(pivots)


@dataclass(frozen=True)
class Subspace:
    """Canonical subspace of Q^ambient_dim: its RREF basis as primitive int
    rows, pivots increasing, each row's pivot its smallest column."""

    ambient_dim: int
    basis: tuple[IntRow, ...]

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
    pivots: dict[int, IntRow] = {}
    for row in a.basis:
        absorb(pivots, {**row, **{j + n: c for j, c in row.items()}})
    for row in b.basis:
        absorb(pivots, dict(row))
    # the rows with pivot >= n are already reduced among themselves
    return Subspace(n, tuple({j - n: c for j, c in row.items()}
                             for row in _back_substitute(pivots) if min(row) >= n))


def nullspace(rows: Iterable[Sequence | Mapping], cols: int) -> Subspace:
    """Right null space {v : M v = 0} of the rows of M, a subspace of Q^cols."""
    reduced = {min(r): r for r in rref(rows, cols)}
    basis = []
    for free in range(cols):
        if free not in reduced:
            v = {free: 1}
            for p, r in reduced.items():
                if free in r:
                    v[p] = Fraction(-r[free], r[p])
            basis.append(v)
    return span(basis, cols)
