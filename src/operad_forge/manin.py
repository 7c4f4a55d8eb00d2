"""White product with the associative operad and the nonsymmetric criterion.

white_product_as maps the 48-dimensional free arity-3 module over the two
split operations "<" and ">" into As(3) (x) P(3) and takes the kernel: the
split operations come from  a < b = ab (x) (a.b)  and  a > b = ab (x) (b.a),
so the As coordinate of a monomial is its leaf word in planar order and the
Var coordinate is obtained by recursively swapping the arguments of every
">" node.

The criterion compares R with the S3-closure F of the part of R lying in
the "two-outside" cosets: monomials whose lone argument is x1 or x3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .arity3 import (DOUBLE, SINGLE, Arity3Element, Monomial3,
                     OperadPresentation, OpSpace, basis3, format_element,
                     from_vector, monomial_of_tree, s3_closure, to_vector)
from .exactlin import Subspace, intersect, nullspace, span

AS3_WORDS = sorted(permutations((1, 2, 3)))  # basis of As(3): x_a x_b x_c


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


def _leaf_word(t) -> tuple[int, ...]:
    if isinstance(t, int):
        return (t,)
    return _leaf_word(t[1]) + _leaf_word(t[2])


def _to_single_op(t, swap_op: str):
    """Rewrite a two-op monomial tree over <,> to a single-op tree; the
    arguments of every swap_op node are exchanged."""
    if isinstance(t, int):
        return t
    op, l, r = t
    l, r = _to_single_op(l, swap_op), _to_single_op(r, swap_op)
    if op == swap_op:
        l, r = r, l
    return ("*", l, r)


@lru_cache(maxsize=None)
def _split_images() -> tuple[tuple[tuple[Fraction, ...], ...],
                             tuple[tuple[int, int], ...]]:
    """The distinct Var monomials of basis3(DOUBLE) as vectors over
    basis3(SINGLE), and for each two-operation monomial the index of its
    leaf word in AS3_WORDS and the index of its Var monomial."""
    v_basis = basis3(SINGLE)
    word_index = {w: i for i, w in enumerate(AS3_WORDS)}
    var_index: dict[Monomial3, int] = {}
    parts = []
    for m in basis3(DOUBLE):
        t = m.tree()
        var = monomial_of_tree(_to_single_op(t, ">"))
        parts.append((word_index[_leaf_word(t)],
                      var_index.setdefault(var, len(var_index))))
    vectors = tuple(
        to_vector(Arity3Element(SINGLE, [(var, Fraction(1))]), v_basis)
        for var in var_index)
    return vectors, tuple(parts)


def white_product_as(p: OperadPresentation) -> OperadPresentation:
    """The presentation of As o P over the split pair of operations <, >."""
    if p.opspace.ops != SINGLE.ops:
        raise ValueError("white_product_as expects a single paired operation")
    R = p.relation_space()
    nv = R.ambient_dim
    vectors, parts = _split_images()
    reduced = [R.reduce(v) for v in vectors]  # each Var image in P(3), once
    rows = []
    for w, j in parts:
        row = [Fraction(0)] * (len(AS3_WORDS) * nv)
        row[w * nv:(w + 1) * nv] = reduced[j]
        rows.append(row)
    # kernel of v -> sum_m v_m * image(m): null space of the transpose
    ker = nullspace(list(zip(*rows)), len(parts))
    w_basis = basis3(DOUBLE)
    rels = tuple(from_vector(r, w_basis, DOUBLE) for r in ker.basis)
    return OperadPresentation(f"As.{p.name}", DOUBLE, rels)


def symmetrize_quotient(q: OperadPresentation) -> OperadPresentation:
    """Identify a > b with b < a, i.e. map a>b to b.a and a<b to a.b."""
    if q.opspace.ops != DOUBLE.ops:
        raise ValueError("symmetrize_quotient expects the two split operations")
    rels = []
    for rel in q.relations:
        terms = []
        for m, c in rel.terms.items():
            single = monomial_of_tree(_to_single_op(m.tree(), ">"))
            terms.append((single, c))
        rels.append(Arity3Element(SINGLE, terms))
    rels = [r for r in rels if not r.is_zero()]
    return OperadPresentation(f"{q.name}/sym", SINGLE, tuple(rels))


def two_outside_subspace(v: OpSpace) -> Subspace:
    """Span of the basis monomials whose outside argument is x1 or x3.

    These are the cosets (V (x) V) + (13)(V (x) V): with x3 or x1 as the lone
    argument on either side of the inner product.  Dimension 2 * (dim V)^2.
    """
    basis = basis3(v)
    vecs = []
    for i, m in enumerate(basis):
        if m.outside_leaf in (1, 3):
            row = [Fraction(0)] * len(basis)
            row[i] = Fraction(1)
            vecs.append(row)
    return span(vecs, len(basis))


def _criterion(p: OperadPresentation):
    """R, a basis of R cap (two-outside cosets) as elements, and F."""
    basis = basis3(p.opspace)
    R = p.relation_space()
    inter = intersect(R, two_outside_subspace(p.opspace))
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
