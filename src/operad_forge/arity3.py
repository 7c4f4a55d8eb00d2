"""The free arity-3 component of a binary quadratic presentation.

A binary operation space is a list of distinct named operations, none with
a symmetry: an operation and its transpose are independent.  Arity-3
monomials are planar: a left comb (x_a . x_b) . x_c or a right comb
x_a . (x_b . x_c), with leaves a permutation of (1,2,3) and an operation at
each internal node.  The symmetric group S3 acts by relabelling leaves.

An element is a sparse row over basis3(v): basis index -> nonzero int or
non-integral Fraction (exactlin._exact).  The constructor reads Monomial3
terms into such a row; from_row takes a row of exactlin (a primitive int
row) or act as it is.  sigma maps
each basis monomial to another, and this permutation of indices is
tabulated once per OpSpace (_s3_table).  act alone applies it;
s3_orbit_rows reads the rows act gives for the generators of an S3-closure,
which go straight to exactlin.span (s3_closure) or, in another column
order, to exactlin.rref (OperadPresentation.two_outside_part, the
criterion's one elimination, cached on the frozen presentation).

The catalog is one table from each base operad, in the CLI's order, to its
relations in the text format that format_element prints and parse_element reads.

Convention (normative): the tensor g (x) h of two basis operations denotes
the monomial g(h(x1,x2), x3), and permutations act by substituting
x_i -> x_sigma(i).  With e1 = x1.x2 and e2 = x2.x1 this gives
e1(x)e1 = (x1x2)x3, e2(x)e2 = x3(x2x1), (13)(e2(x)e2) = x1(x2x3).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .exactlin import Subspace, _exact, rref, span

# in lexicographic order, the order of basis3's leaves
S3 = [tuple(p) for p in permutations((1, 2, 3))]


@dataclass(frozen=True)
class OpSpace:
    ops: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.ops)) != len(self.ops):
            raise ValueError("operation names must be distinct")


class Monomial3(NamedTuple):
    """shape 'L': (x_a inner x_b) outer x_c;  shape 'R': x_a outer (x_b inner x_c)."""

    shape: str
    leaves: tuple[int, int, int]
    inner: str
    outer: str

    @property
    def outside_leaf(self) -> int:
        """The argument not inside the inner product."""
        return self.leaves[2] if self.shape == "L" else self.leaves[0]


class Arity3Element:
    """A sparse row over basis3(opspace): row maps a basis index to its
    nonzero coefficient, an int or a non-integral Fraction (_exact), and
    terms reads it by monomial."""

    __slots__ = ("opspace", "row")

    def __init__(self, opspace: OpSpace,
                 terms: Iterable[tuple[Monomial3, int | Fraction]] = ()):
        self.opspace = opspace
        index = _index(opspace)
        acc: dict[int, int | Fraction] = {}
        for m, coeff in terms:
            j = index.get(m)
            if j is None:
                raise ValueError(f"not an arity-3 monomial over operations "
                                 f"{opspace.ops} (shape L or R, leaves a "
                                 f"permutation of 1, 2, 3): {m}")
            coeff = _exact(coeff)
            old = acc.get(j)
            acc[j] = coeff if old is None else _exact(old + coeff)
        self.row = {j: c for j, c in acc.items() if c}

    @classmethod
    def from_row(cls, opspace: OpSpace,
                 row: Mapping[int, int | Fraction]) -> "Arity3Element":
        """The element with this row of nonzero coefficients, such as exactlin
        or act returns, taken over without checking it again."""
        e = cls.__new__(cls)
        e.opspace, e.row = opspace, row
        return e

    @property
    def terms(self) -> Mapping[Monomial3, int | Fraction]:
        """The row read by monomial, in the row's order."""
        basis = basis3(self.opspace)
        return MappingProxyType({basis[j]: c for j, c in self.row.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Arity3Element)
                and (self.opspace, self.row) == (other.opspace, other.row))

    def __hash__(self):
        return hash((self.opspace, frozenset(self.row.items())))

    def __repr__(self):
        return f"Arity3Element({format_element(self)!r})"


@lru_cache(maxsize=None)
def basis3(v: OpSpace) -> tuple[Monomial3, ...]:
    """Deterministic basis of the free arity-3 module, 12 * len(v.ops)^2
    monomials: by shape, then leaves (in S3's order), then outer op, then
    inner op."""
    return tuple(Monomial3(shape, leaves, inner, outer)
                 for shape in ("L", "R") for leaves in S3
                 for outer in v.ops for inner in v.ops)


@lru_cache(maxsize=None)
def _index(v: OpSpace) -> dict[Monomial3, int]:
    """The position of each monomial in basis3(v)."""
    return {m: i for i, m in enumerate(basis3(v))}


def _relabel(sigma: tuple[int, int, int], m: Monomial3) -> Monomial3:
    return Monomial3(m.shape, tuple(sigma[l - 1] for l in m.leaves), m.inner, m.outer)


@lru_cache(maxsize=None)
def _s3_table(v: OpSpace) -> dict[tuple[int, int, int], tuple[int, ...]]:
    """For each sigma in S3 (in S3's order), the index j at each basis index
    i, with sigma.basis3(v)[i] = basis3(v)[j]."""
    index = _index(v)
    return {sigma: tuple(index[_relabel(sigma, m)] for m in basis3(v))
            for sigma in S3}


def act(sigma: tuple[int, int, int], e: Arity3Element) -> Arity3Element:
    """Substitute x_i -> x_sigma(i); sigma[i-1] is the image of i."""
    perm = _s3_table(e.opspace).get(tuple(sigma))
    if perm is None:
        raise ValueError(f"{sigma!r} is not a permutation of (1, 2, 3)")
    return Arity3Element.from_row(e.opspace, {perm[i]: c for i, c in e.row.items()})


def s3_orbit_rows(gens: Iterable[Arity3Element],
                  v: OpSpace) -> list[dict[int, int | Fraction]]:
    """The rows of sigma.g over g in gens and sigma in S3 (in S3's order)."""
    rows = []
    for g in gens:
        if g.opspace != v:
            raise ValueError(f"generator over operations {g.opspace.ops} "
                             f"in an S3-closure over {v.ops}")
        rows += (act(sigma, g).row for sigma in S3)
    return rows


def s3_closure(gens: Iterable[Arity3Element], v: OpSpace) -> Subspace:
    """The span of sigma.g over sigma in S3 and g in gens."""
    return span(s3_orbit_rows(gens, v), len(basis3(v)))


@dataclass(frozen=True)
class OperadPresentation:
    name: str
    opspace: OpSpace
    relations: tuple[Arity3Element, ...] = field(default_factory=tuple)

    def relation_space(self) -> Subspace:
        return s3_closure(self.relations, self.opspace)

    @cached_property
    def two_outside_part(self) -> tuple[int, Subspace]:
        """dim R and R cap (two-outside cosets), from one elimination, made
        once per presentation and shared by every reader (manin's criterion
        and white product).  A relation over other operations raises, and
        then nothing is stored.

        The two-outside subspace is spanned by basis vectors, so the S3-orbit
        rows of the relations are reduced once with the other columns first
        and the two-outside columns after them, each group in its basis
        order.  The rank is dim R.  A reduced row with its pivot among the
        two-outside columns is zero on every other column, and a vector of R
        in the two-outside subspace is zero on the pivots of the remaining
        rows, so these rows span R cap (two-outside cosets).  Mapped back
        they keep their relative column order, so they are its canonical
        RREF basis.
        """
        basis = basis3(self.opspace)
        inside = [i for i, m in enumerate(basis) if m.outside_leaf == 2]
        order = inside + [i for i, m in enumerate(basis) if m.outside_leaf != 2]
        position = {i: k for k, i in enumerate(order)}
        reduced = rref(({position[j]: c for j, c in r.items()}
                        for r in s3_orbit_rows(self.relations, self.opspace)),
                       len(basis))
        inter = tuple({order[k]: c for k, c in r.items()}
                      for r in reduced if min(r) >= len(inside))
        return len(reduced), Subspace(len(basis), inter)


# --- text format -----------------------------------------------------------
#
# Elements print as signed sums of terms  <coeff>*<monomial>, where a
# monomial is  (x1*x2)*x3  style for a single operation named "*", and
# (x1<x2)>x3  style for the two-operation spaces over "<" and ">".

def format_monomial(m: Monomial3) -> str:
    a, b, c = m.leaves
    if m.shape == "L":
        return f"(x{a}{m.inner}x{b}){m.outer}x{c}"
    return f"x{a}{m.outer}(x{b}{m.inner}x{c})"


def format_element(e: Arity3Element) -> str:
    if not e.row:
        return "0"
    basis = basis3(e.opspace)
    parts = []
    for j, c in sorted(e.row.items()):
        sign = "+" if c > 0 else "-"
        parts.append(f"{sign}{abs(c)}*{format_monomial(basis[j])}")
    return "".join(parts)


_TERM = re.compile(r"([+-])\s*(\d+(?:/\d+)?)\*")


def parse_element(text: str, opspace: OpSpace) -> Arity3Element:
    text = text.strip()
    if not text:
        raise ValueError("empty element")
    if text == "0":
        return Arity3Element(opspace)
    if text[0] not in "+-":
        text = "+" + text
    terms = []
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m:
            raise ValueError(f"bad term at {text[pos:]!r}")
        end = len(text)
        nxt = _TERM.search(text, m.end())
        if nxt:
            end = nxt.start()
        digits = m.group(2)
        try:
            coeff = Fraction(digits) if "/" in digits else int(digits)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in term {text[pos:end]!r}") from None
        if m.group(1) == "-":
            coeff = -coeff
        terms.append((parse_monomial(text[m.end():end], opspace), coeff))
        pos = end
    return Arity3Element(opspace, terms)


def parse_monomial(text: str, opspace: OpSpace) -> Monomial3:
    text = text.strip()
    ops = "|".join(re.escape(o) for o in opspace.ops)
    left = re.fullmatch(rf"\(x([123])({ops})x([123])\)({ops})x([123])", text)
    if left:
        a, i, b, o, c = left.groups()
        shape = "L"
    else:
        right = re.fullmatch(rf"x([123])({ops})\(x([123])({ops})x([123])\)", text)
        if not right:
            raise ValueError(f"bad monomial {text!r}")
        a, o, b, i, c = right.groups()
        shape = "R"
    if len({a, b, c}) != 3:
        raise ValueError(f"repeated leaf in monomial {text!r}")
    return Monomial3(shape, (int(a), int(b), int(c)), i, o)


# --- catalog ---------------------------------------------------------------

SINGLE = OpSpace(("*",))
DOUBLE = OpSpace(("<", ">"))

_RELATIONS = {
    "As": ("+1*(x1*x2)*x3-1*x1*(x2*x3)",),
    "Nov": ("+1*(x1*x2)*x3-1*x1*(x3*x2)-1*(x3*x2)*x1+1*x3*(x1*x2)",
            "+1*(x2*x1)*x3-1*(x2*x3)*x1"),
    "Zin": ("+1*x1*(x2*x3)-1*(x1*x2)*x3-1*(x2*x1)*x3",),
    "Bicom": ("+1*(x2*x1)*x3-1*(x2*x3)*x1", "+1*x1*(x3*x2)-1*x3*(x1*x2)"),
    # Alt and Assosym relations are the standard linearized identities; the
    # literature source is validated against dim Alt(3) = 7 in the tests.
    "Alt": ("+1*(x1*x2)*x3-1*x1*(x2*x3)+1*(x2*x1)*x3-1*x2*(x1*x3)",
            "+1*(x1*x2)*x3-1*x1*(x2*x3)+1*(x1*x3)*x2-1*x1*(x3*x2)"),
    "Flex": ("+1*(x1*x2)*x3-1*x1*(x2*x3)+1*(x3*x2)*x1-1*x3*(x2*x1)",),
    "AntiFlex": ("+1*(x1*x2)*x3-1*x1*(x2*x3)-1*(x3*x2)*x1+1*x3*(x2*x1)",),
    "Leib": ("+1*(x1*x2)*x3-1*x1*(x2*x3)+1*x2*(x1*x3)",),
    "PreLie": ("+1*(x1*x2)*x3-1*x1*(x2*x3)-1*(x2*x1)*x3+1*x2*(x1*x3)",),
    "Assosym": ("+1*(x1*x2)*x3-1*x1*(x2*x3)-1*(x2*x1)*x3+1*x2*(x1*x3)",
                "+1*(x1*x2)*x3-1*x1*(x2*x3)-1*(x1*x3)*x2+1*x1*(x3*x2)"),
}

_CATALOG = {name: OperadPresentation(name, SINGLE,
                                     tuple(parse_element(r, SINGLE) for r in rels))
            for name, rels in {"Free": (), **_RELATIONS}.items()}

CATALOG_NAMES = (*_RELATIONS, "NcNov", "NcZin", "NcBicom", "NcFlex", "NcAntiFlex")


def catalog(name: str) -> OperadPresentation:
    if name in _CATALOG:
        return _CATALOG[name]
    if name in CATALOG_NAMES:  # an Nc name: the others are in _CATALOG
        from .manin import nonsymmetric_version  # manin imports this module
        return nonsymmetric_version(_CATALOG[name[2:]])
    raise KeyError(f"unknown operad {name!r}")
