"""Exact rational linear algebra on one sparse elimination kernel.

SparseEliminator does incremental Gaussian elimination over Q on sparse rows
(dicts column -> nonzero Fraction); the brute-force oracle feeds it directly,
and rref, span, intersect and nullspace run on it through dense tuples of
Fraction.  A Subspace is stored as its reduced row-echelon basis, so two
subspaces are equal iff their canonical bases are equal as sequences.
Subspaces are immutable and the functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
SparseRow = dict[int, Fraction]


def vec(entries: Iterable) -> Vector:
    return tuple(Fraction(e) for e in entries)


class SparseEliminator:
    """Incremental sparse Gaussian elimination over Q."""

    def __init__(self):
        self.pivots: dict[int, SparseRow] = {}

    def reduce(self, row: SparseRow) -> SparseRow:
        row = dict(row)
        while row:
            p = min(row)
            piv = self.pivots.get(p)
            if piv is None:
                return row
            f = row[p]
            for j, c in piv.items():
                v = row.get(j, Fraction(0)) - f * c
                if v:
                    row[j] = v
                else:
                    row.pop(j, None)
        return row

    def add(self, row: SparseRow) -> bool:
        """Reduce and absorb; returns True if the rank grew."""
        row = self.reduce(row)
        if not row:
            return False
        p = min(row)
        inv = 1 / row[p]
        self.pivots[p] = {j: c * inv for j, c in row.items()}
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def rref(self) -> list[SparseRow]:
        """The pivot rows back-substituted into reduced row-echelon form,
        in increasing pivot order."""
        done: dict[int, SparseRow] = {}
        for p in sorted(self.pivots, reverse=True):
            row = dict(self.pivots[p])
            # a finished row is zero on every other pivot column, so one
            # pass over the pivot columns present in row clears them all
            for q in [q for q in row if q != p and q in done]:
                f = row[q]
                for j, c in done[q].items():
                    v = row.get(j, Fraction(0)) - f * c
                    if v:
                        row[j] = v
                    else:
                        row.pop(j, None)
            done[p] = row
        return [done[p] for p in sorted(done)]


def _sparse(v: Sequence) -> SparseRow:
    return {j: Fraction(x) for j, x in enumerate(v) if x}


def _dense(row: SparseRow, ncols: int) -> Vector:
    out = [Fraction(0)] * ncols
    for j, c in row.items():
        out[j] = c
    return tuple(out)


def rref(rows: Iterable[Sequence], ncols: int) -> list[Vector]:
    """Reduced row-echelon form of dense rows; zero rows are dropped."""
    elim = SparseEliminator()
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ambient dimension mismatch")
        elim.add(_sparse(r))
    return [_dense(row, ncols) for row in elim.rref()]


@dataclass(frozen=True)
class Subspace:
    """Canonical subspace of Q^ambient_dim: RREF basis, pivots increasing."""

    ambient_dim: int
    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence) -> bool:
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return not any(self.reduce(v))

    def reduce(self, v: Sequence) -> Vector:
        """Residual of v after elimination by the basis rows."""
        v = list(vec(v))
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        for row in self.basis:
            p = _pivot(row)
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return tuple(v)


def _pivot(row: Vector) -> int:
    for j, x in enumerate(row):
        if x != 0:
            return j
    raise ValueError("zero row has no pivot")


def span(vectors: Iterable[Sequence], ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, tuple(rref(vectors, ambient_dim)))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return span(list(a.basis) + list(b.basis), a.ambient_dim)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: RREF of [A|A; B|0], rows with zero left block span a cap b."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    elim = SparseEliminator()
    for r in a.basis:
        row = _sparse(r)
        elim.add({**row, **{j + n: c for j, c in row.items()}})
    for r in b.basis:
        elim.add(_sparse(r))
    # the rows with pivot >= n are already reduced among themselves
    inter = [{j - n: c for j, c in row.items()} for row in elim.rref() if min(row) >= n]
    return Subspace(n, tuple(_dense(row, n) for row in inter))


def nullspace(rows: Sequence[Sequence], cols: int) -> Subspace:
    """Right null space {v : M v = 0} of the rows of M, a subspace of Q^cols."""
    reduced = rref(rows, cols)
    piv_cols = [_pivot(r) for r in reduced]
    basis = []
    for fc in (c for c in range(cols) if c not in piv_cols):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in zip(reduced, piv_cols):
            v[pc] = -r[fc]
        basis.append(v)
    return span(basis, cols)
