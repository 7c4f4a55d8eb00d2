"""White product with the associative operad and the nonsymmetric criterion.

The split operations come from  a < b = ab (x) (a.b)  and  a > b = ab (x) (b.a),
so a monomial m over "<" and ">" maps to w(m) (x) var(m) in As(3) (x) P(3):
w(m) is its leaf word in planar order, and var(m) is the Var monomial
obtained by recursively swapping the arguments of every ">" node.  VAR
tabulates var on the 48 two-operation monomials.

The criterion compares R with the S3-closure F of the part of R lying in
the "two-outside" cosets: monomials whose lone argument is x1 or x3.

var maps the planar block, the 8 monomials whose leaves are 1, 2, 3 in
order, one to one onto the 8 two-outside monomials, so the kernel of
m -> var(m) mod R on the planar block is R cap (two-outside cosets) pulled
back along var.  nonsymmetric_version returns that pullback, and
white_product_as its S3-closure; the map is S3-equivariant and splits by
leaf word, so this is the whole kernel (its docstring gives the argument).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .arity3 import (DOUBLE, SINGLE, Arity3Element, Monomial3,
                     OperadPresentation, OpSpace, basis3, format_element,
                     from_vector, s3_closure)
from .exactlin import Subspace, intersect, span


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


VAR = {m: _var(m) for m in basis3(DOUBLE)}


def nonsymmetric_version(p: OperadPresentation) -> OperadPresentation:
    """The nonsymmetric version Nc P over the split pair of operations <, >.

    Its relations are the kernel of m -> var(m) mod R on the planar block:
    the 8 two-operation monomials whose leaves are 1, 2, 3 in order.  var
    is one to one from this block onto the two-outside monomials, so the
    kernel is R cap (two-outside cosets) read through var.
    """
    if p.opspace != SINGLE:
        raise ValueError("expected a presentation over a single paired operation")
    _, inter = _two_outside_part(p)
    v_basis = basis3(SINGLE)
    planar = [m for m in basis3(DOUBLE) if m.leaves == (1, 2, 3)]
    column = {v_basis.index(VAR[m]): k for k, m in enumerate(planar)}
    ker = span(({column[j]: c for j, c in r.items()} for r in inter.basis),
               len(planar))
    rels = tuple(from_vector(r, planar, DOUBLE) for r in ker.basis)
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
    relations of nonsymmetric_version(p).  The relations returned are the
    canonical RREF basis of that closure.
    """
    closure = nonsymmetric_version(p).relation_space()
    w_basis = basis3(DOUBLE)
    rels = tuple(from_vector(r, w_basis, DOUBLE) for r in closure.basis)
    return OperadPresentation(f"As.{p.name}", DOUBLE, rels)


def symmetrize_quotient(q: OperadPresentation) -> OperadPresentation:
    """Identify a > b with b < a, i.e. map a>b to b.a and a<b to a.b."""
    if q.opspace != DOUBLE:
        raise ValueError("symmetrize_quotient expects the two split operations")
    rels = (Arity3Element(SINGLE, [(VAR[m], c) for m, c in rel.terms.items()])
            for rel in q.relations)
    rels = [r for r in rels if not r.is_zero()]
    return OperadPresentation(f"{q.name}/sym", SINGLE, tuple(rels))


def two_outside_subspace(v: OpSpace) -> Subspace:
    """Span of the basis monomials whose outside argument is x1 or x3.

    These are the cosets (V (x) V) + (13)(V (x) V): with x3 or x1 as the lone
    argument on either side of the inner product.  Dimension 2 * (dim V)^2.
    """
    basis = basis3(v)
    units = [{i: 1} for i, m in enumerate(basis) if m.outside_leaf in (1, 3)]
    return span(units, len(basis))


def _two_outside_part(p: OperadPresentation) -> tuple[Subspace, Subspace]:
    """R and R cap (two-outside cosets)."""
    R = p.relation_space()
    return R, intersect(R, two_outside_subspace(p.opspace))


def _criterion(p: OperadPresentation):
    """R, a basis of R cap (two-outside cosets) as elements, and F."""
    basis = basis3(p.opspace)
    R, inter = _two_outside_part(p)
    gens = tuple(from_vector(r, basis, p.opspace) for r in inter.basis)
    return R, gens, s3_closure(gens, p.opspace)


def compute_F(p: OperadPresentation) -> Subspace:
    return _criterion(p)[2]


def admits_nonsymmetric(p: OperadPresentation) -> CriterionReport:
    R, gens, F = _criterion(p)
    return CriterionReport(
        operad_name=p.name,
        dim_R=R.dim,
        dim_F=F.dim,
        dim_P3=R.ambient_dim - R.dim,
        admits=F.dim == R.dim,
        F_generators=gens,
    )
