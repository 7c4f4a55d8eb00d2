"""White product with the associative operad and the nonsymmetric criterion.

The split operations come from  a < b = ab (x) (a.b)  and  a > b = ab (x) (b.a),
so a monomial m over "<" and ">" maps to w(m) (x) var(m) in As(3) (x) P(3):
w(m) is its leaf word in planar order, and var(m) is the Var monomial
obtained by recursively swapping the arguments of every ">" node.

The criterion compares R with the S3-closure F of the part of R lying in
the "two-outside" cosets: monomials whose lone argument is x1 or x3.  That
part is a coordinate subspace, so one elimination of the S3-orbit rows of
the relations, with the two-outside columns last, gives both dim R and the
RREF basis of R cap (two-outside cosets); no intersection is computed.
The elimination runs once per presentation: it is the cached property
OperadPresentation.two_outside_part, which the criterion, nonsymmetric_version
and white_product_as all read, so As o P after the criterion eliminates only
on the 8 planar columns.

var maps the planar block, the 8 monomials whose leaves are 1, 2, 3 in
order, one to one onto the 8 two-outside monomials, so the kernel of
m -> var(m) mod R on the planar block is R cap (two-outside cosets) pulled
back along var.  nonsymmetric_version returns that pullback, and
white_product_as its S3-closure; the map is S3-equivariant and splits by
leaf word, so this is the whole kernel.  The closure needs no elimination:
the images under act of the planar kernel's RREF rows, primitive int rows
as exactlin returns them, lie on disjoint blocks of columns, each in the
planar block's column order, so sorted by pivot they are already its
canonical RREF basis (white_product_as gives the argument).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .arity3 import (DOUBLE, S3, SINGLE, Arity3Element, Monomial3,
                     OperadPresentation, act, basis3, format_element,
                     s3_closure)
from .exactlin import IntRow, _exact, span


@dataclass(frozen=True)
class CriterionReport:
    operad_name: str
    dim_R: int
    dim_F: int
    dim_P3: int
    admits: bool
    F_generators: tuple[Arity3Element, ...]

    def to_json(self) -> str:
        return json.dumps({
            "name": self.operad_name,
            "dim_R": self.dim_R,
            "dim_F": self.dim_F,
            "dim_P3": self.dim_P3,
            "admits": self.admits,
            "F_generators": [format_element(g) for g in self.F_generators],
        }, indent=2)


def _var(m: Monomial3) -> Monomial3:
    """The single-operation monomial of m with the arguments of every ">"
    node swapped."""
    a, b, c = m.leaves
    pair, lone = ((a, b), c) if m.shape == "L" else ((b, c), a)
    if m.inner == ">":
        pair = pair[::-1]
    # a ">" at the root moves the inner product to the other side
    if (m.shape == "L") != (m.outer == ">"):
        return Monomial3("L", (*pair, lone), "*", "*")
    return Monomial3("R", (lone, *pair), "*", "*")


# var by index: basis3(DOUBLE) index -> basis3(SINGLE) index.
_VAR_INDEX = tuple(basis3(SINGLE).index(_var(m)) for m in basis3(DOUBLE))

# the planar block: the indices in basis3(DOUBLE) of the 8 monomials whose
# leaves are 1, 2, 3 in order, and for each the index of its var in
# basis3(SINGLE), the position it takes among the planar columns
_PLANAR = [i for i, m in enumerate(basis3(DOUBLE)) if m.leaves == (1, 2, 3)]
_PLANAR_COLUMN = {_VAR_INDEX[i]: k for k, i in enumerate(_PLANAR)}


def _planar_kernel(p: OperadPresentation) -> list[IntRow]:
    """The RREF rows of the kernel of m -> var(m) mod R on the planar block,
    primitive int rows over the indices of basis3(DOUBLE)."""
    if p.opspace != SINGLE:
        raise ValueError("expected a presentation over a single paired operation")
    _, inter = p.two_outside_part
    ker = span(({_PLANAR_COLUMN[j]: c for j, c in r.items()} for r in inter.basis),
               len(_PLANAR))
    return [{_PLANAR[k]: c for k, c in r.items()} for r in ker.basis]


def nonsymmetric_version(p: OperadPresentation) -> OperadPresentation:
    """The nonsymmetric version Nc P over the split pair of operations <, >.

    Its relations are the kernel of m -> var(m) mod R on the planar block:
    the 8 two-operation monomials whose leaves are 1, 2, 3 in order.  var
    is one to one from this block onto the two-outside monomials, so the
    kernel is R cap (two-outside cosets) read through var.
    """
    rels = tuple(Arity3Element.from_row(DOUBLE, r) for r in _planar_kernel(p))
    return OperadPresentation(f"Nc{p.name}", DOUBLE, rels)


def white_product_as(p: OperadPresentation) -> OperadPresentation:
    """The presentation of As o P over the split pair of operations <, >.

    As o P(3) is the kernel of m -> w(m) (x) var(m) on all 48 two-operation
    monomials.  The six leaf words are a basis of As(3), so the kernel is
    the direct sum, over the words w, of the kernels on the blocks of
    monomials with leaf word w.  The map is S3-equivariant, and a
    permutation sigma carries the planar block (word 123) onto the block of
    the word sigma(1)sigma(2)sigma(3); so the kernel on that block is sigma
    applied to the planar kernel, and As o P(3) is the S3-closure of the
    relations of nonsymmetric_version(p).

    The relations returned are the canonical RREF basis of that closure, and
    no elimination builds it: the planar kernel's RREF rows are moved by
    each sigma through act and sorted by pivot.  act permutes columns, so
    each row stays primitive and keeps its positive pivot.  The six blocks
    have disjoint columns, so a row is zero on the pivot of every row from
    another block.  Within a block sigma changes only the leaves, and
    basis3(DOUBLE) orders by shape, then leaves, then operations, so sigma
    keeps the column order of the block: the image of the planar RREF is the
    RREF of the image.  The sorted union is therefore reduced, with each
    pivot its row's smallest column, which is the one basis exactlin.span
    would return.
    """
    ker = nonsymmetric_version(p).relations
    rels = sorted((act(sigma, r) for sigma in S3 for r in ker),
                  key=lambda e: min(e.row))
    return OperadPresentation(f"As.{p.name}", DOUBLE, tuple(rels))


def symmetrize_quotient(q: OperadPresentation) -> OperadPresentation:
    """Identify a > b with b < a, i.e. map a>b to b.a and a<b to a.b.

    Each relation's row is read through _VAR_INDEX, its coefficients summed
    per image in row order (through _exact, as Arity3Element sums them) and
    the zeros dropped; a relation that vanishes is left out.
    """
    if q.opspace != DOUBLE:
        raise ValueError("symmetrize_quotient expects the two split operations")
    rels = []
    for rel in q.relations:
        acc = {}
        for i, c in rel.row.items():
            j = _VAR_INDEX[i]
            old = acc.get(j)
            acc[j] = c if old is None else _exact(old + c)
        row = {j: c for j, c in acc.items() if c}
        if row:
            rels.append(Arity3Element.from_row(SINGLE, row))
    return OperadPresentation(f"{q.name}/sym", SINGLE, tuple(rels))


def admits_nonsymmetric(p: OperadPresentation) -> CriterionReport:
    """The criterion: dim R against the dimension of F, the S3-closure of
    R cap (two-outside cosets), whose basis rows are the F_generators."""
    dim_R, inter = p.two_outside_part
    # copies, so that no caller can change the rows cached on p
    gens = tuple(Arity3Element.from_row(p.opspace, dict(r)) for r in inter.basis)
    F = s3_closure(gens, p.opspace)
    return CriterionReport(
        operad_name=p.name,
        dim_R=dim_R,
        dim_F=F.dim,
        dim_P3=F.ambient_dim - dim_R,
        admits=F.dim == dim_R,
        F_generators=gens,
    )
