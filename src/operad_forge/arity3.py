"""The free arity-3 component of a binary quadratic presentation.

A binary operation space is a list of named operations, each either "paired"
(the operation and its transpose are independent, giving a 2-dimensional
slice) or +/-symmetric (1-dimensional slice).  Arity-3 monomials are planar:
a left comb (x_a . x_b) . x_c or a right comb x_a . (x_b . x_c), with leaves
a permutation of (1,2,3) and an operation at each internal node.  The
symmetric group S3 acts by relabelling leaves.

Basis monomials are canonical under the +/-symmetric identifications
(canonicalize), so sigma maps each basis monomial to a signed basis
monomial: sigma.basis[i] = +/-basis[j].  The action is tabulated once per
OpSpace as this signed permutation of basis indices (_s3_table, built from
canonicalize, which alone fixes the signs of +/-symmetric operations).
act applies it to an element, and s3_closure to sparse index rows that go
straight to exactlin.span.

Convention (normative): the tensor g (x) h of two basis operations denotes
the monomial g(h(x1,x2), x3), and permutations act by substituting
x_i -> x_sigma(i).  With e1 = x1.x2 and e2 = x2.x1 this gives
e1(x)e1 = (x1x2)x3, e2(x)e2 = x3(x2x1), (13)(e2(x)e2) = x1(x2x3).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Mapping, NamedTuple, Sequence

from .exactlin import Subspace, span

PAIRED = "paired"
SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"

_SYM_SIGN = {SYMMETRIC: 1, ANTISYMMETRIC: -1}

S3 = [tuple(p) for p in permutations((1, 2, 3))]
_LEAF_ORDERS = frozenset(S3)


@dataclass(frozen=True)
class OpSpace:
    ops: tuple[str, ...]
    sym: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.ops)) != len(self.ops):
            raise ValueError("operation names must be distinct")
        if len(self.sym) != len(self.ops):
            raise ValueError("one symmetry tag per operation")
        for s in self.sym:
            if s not in (PAIRED, SYMMETRIC, ANTISYMMETRIC):
                raise ValueError(f"unknown symmetry tag {s!r}")

    @classmethod
    def paired(cls, *names: str) -> "OpSpace":
        return cls(tuple(names), (PAIRED,) * len(names))

    @property
    def dim(self) -> int:
        return sum(2 if s == PAIRED else 1 for s in self.sym)

    def tag(self, op: str) -> str:
        return self.sym[self.ops.index(op)]


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

    def tree(self):
        """The planar tree (op, left, right) with the integer leaves."""
        a, b, c = self.leaves
        if self.shape == "L":
            return (self.outer, (self.inner, a, b), c)
        return (self.outer, a, (self.inner, b, c))


def monomial_of_tree(t) -> Monomial3:
    """Inverse of Monomial3.tree: an arity-3 tree with integer leaves."""
    op, l, r = t
    if not isinstance(l, int):
        return Monomial3("L", (l[1], l[2], r), l[0], op)
    return Monomial3("R", (l, r[1], r[2]), r[0], op)


def canonicalize(m: Monomial3, v: OpSpace) -> tuple[Monomial3, int]:
    """Canonical representative and sign under the +/-symmetric identifications.

    At a node carrying a +/-symmetric operation the two planar argument orders
    are identified (with a sign when antisymmetric); the canonical order puts
    the argument with the smaller leftmost leaf first.
    """
    shape, (a, b, c), inner, outer = m
    sign = 1
    itag, otag = v.tag(inner), v.tag(outer)
    if itag != PAIRED:
        if shape == "L" and a > b:
            a, b = b, a
            sign *= _SYM_SIGN[itag]
        elif shape == "R" and b > c:
            b, c = c, b
            sign *= _SYM_SIGN[itag]
    if otag != PAIRED:
        if shape == "L" and a > c:
            # (T)x_c with leftmost(T)=a > c: swap outer args -> x_c(T)
            shape, (a, b, c) = "R", (c, a, b)
            sign *= _SYM_SIGN[otag]
        elif shape == "R" and a > b:
            shape, (a, b, c) = "L", (b, c, a)
            sign *= _SYM_SIGN[otag]
    return Monomial3(shape, (a, b, c), inner, outer), sign


class Arity3Element:
    """Sparse rational combination of canonical arity-3 monomials."""

    __slots__ = ("opspace", "terms")

    def __init__(self, opspace: OpSpace, terms: Iterable[tuple[Monomial3, Fraction]] = ()):
        self.opspace = opspace
        acc: dict[Monomial3, Fraction] = {}
        for m, coeff in terms:
            if m.shape not in ("L", "R") or tuple(m.leaves) not in _LEAF_ORDERS:
                raise ValueError(f"not an arity-3 monomial (shape L or R, leaves "
                                 f"a permutation of 1, 2, 3): {m}")
            if m.inner not in opspace.ops or m.outer not in opspace.ops:
                raise ValueError(f"monomial uses unknown operation: {m}")
            cm, sign = canonicalize(m, opspace)
            if not isinstance(coeff, Fraction):
                coeff = Fraction(coeff)
            if sign < 0:
                coeff = -coeff
            old = acc.get(cm)
            acc[cm] = coeff if old is None else old + coeff
        self.terms = {m: c for m, c in acc.items() if c}

    def __add__(self, other: "Arity3Element") -> "Arity3Element":
        return Arity3Element(self.opspace,
                             list(self.terms.items()) + list(other.terms.items()))

    def __neg__(self) -> "Arity3Element":
        return Arity3Element(self.opspace, [(m, -c) for m, c in self.terms.items()])

    def __sub__(self, other: "Arity3Element") -> "Arity3Element":
        return self + (-other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Arity3Element) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Arity3Element({format_element(self)!r})"

    def is_zero(self) -> bool:
        return not self.terms


@lru_cache(maxsize=None)
def basis3(v: OpSpace) -> tuple[Monomial3, ...]:
    """Deterministic basis of the free arity-3 module: 3*(dim V)^2 canonical
    monomials."""
    out = []
    seen = set()
    for shape in ("L", "R"):
        for leaves in sorted(permutations((1, 2, 3))):
            for oi, outer in enumerate(v.ops):
                for ii, inner in enumerate(v.ops):
                    m = Monomial3(shape, leaves, inner, outer)
                    cm, _ = canonicalize(m, v)
                    if cm not in seen:
                        seen.add(cm)
                        out.append(cm)
    assert len(out) == 3 * v.dim ** 2
    return tuple(out)


@lru_cache(maxsize=None)
def _index(v: OpSpace) -> dict[Monomial3, int]:
    """The position of each monomial in basis3(v)."""
    return {m: i for i, m in enumerate(basis3(v))}


def _relabel(sigma: tuple[int, int, int], m: Monomial3) -> Monomial3:
    return Monomial3(m.shape, tuple(sigma[l - 1] for l in m.leaves), m.inner, m.outer)


@lru_cache(maxsize=None)
def _s3_table(v: OpSpace) -> dict[tuple[int, int, int], tuple[tuple[int, int], ...]]:
    """For each sigma in S3 (in S3's order), the pair (j, sign) at each basis
    index i, with sigma.basis3(v)[i] = sign * basis3(v)[j]."""
    index = _index(v)
    table = {}
    for sigma in S3:
        images = (canonicalize(_relabel(sigma, m), v) for m in basis3(v))
        table[sigma] = tuple((index[cm], sign) for cm, sign in images)
    return table


def to_vector(e: Arity3Element, basis: Sequence[Monomial3]) -> dict[int, Fraction]:
    """e as a sparse row: the position in basis of each term -> its coefficient."""
    index = {m: i for i, m in enumerate(basis)}
    return {index[m]: c for m, c in e.terms.items()}


def from_vector(row: Mapping[int, Fraction], basis: Sequence[Monomial3],
                opspace: OpSpace) -> Arity3Element:
    """The sum of row[j] * basis[j] over a sparse row such as exactlin's."""
    return Arity3Element(opspace, [(basis[j], c) for j, c in row.items()])


def act(sigma: tuple[int, int, int], e: Arity3Element) -> Arity3Element:
    """Substitute x_i -> x_sigma(i); sigma[i-1] is the image of i."""
    perm = _s3_table(e.opspace).get(tuple(sigma))
    if perm is None:
        raise ValueError(f"{sigma!r} is not a permutation of (1, 2, 3)")
    basis, index = basis3(e.opspace), _index(e.opspace)
    terms = []
    for m, c in e.terms.items():
        j, sign = perm[index[m]]
        terms.append((basis[j], c if sign > 0 else -c))
    return Arity3Element(e.opspace, terms)


def s3_closure(gens: Iterable[Arity3Element], v: OpSpace) -> Subspace:
    """The span of sigma.g over sigma in S3 and g in gens, as sparse index rows
    permuted by _s3_table(v)."""
    index, table = _index(v), _s3_table(v)
    rows = []
    for g in gens:
        if g.opspace != v:
            raise ValueError(f"generator over operations {g.opspace.ops} "
                             f"{g.opspace.sym} in an S3-closure over {v.ops} {v.sym}")
        terms = [(index[m], c) for m, c in g.terms.items()]
        for perm in table.values():
            row = {}
            for i, c in terms:
                j, sign = perm[i]
                row[j] = c if sign > 0 else -c
            rows.append(row)
    return span(rows, len(index))


@dataclass(frozen=True)
class OperadPresentation:
    name: str
    opspace: OpSpace
    relations: tuple[Arity3Element, ...] = field(default_factory=tuple)

    def relation_space(self) -> Subspace:
        return s3_closure(self.relations, self.opspace)


def quotient_dim3(p: OperadPresentation) -> int:
    return 3 * p.opspace.dim ** 2 - p.relation_space().dim


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
    if not e.terms:
        return "0"
    parts = []
    for m in sorted(e.terms, key=_index(e.opspace).__getitem__):
        c = e.terms[m]
        sign = "+" if c > 0 else "-"
        parts.append(f"{sign}{abs(c)}*{format_monomial(m)}")
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
        coeff = Fraction(m.group(2))
        if m.group(1) == "-":
            coeff = -coeff
        end = len(text)
        nxt = _TERM.search(text, m.end())
        if nxt:
            end = nxt.start()
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

SINGLE = OpSpace.paired("*")
DOUBLE = OpSpace.paired("<", ">")


def _el(opspace: OpSpace, *terms: tuple[int, str]) -> Arity3Element:
    return Arity3Element(
        opspace, [(parse_monomial(t, opspace), Fraction(c)) for c, t in terms])


def _single(name: str, *rels: Arity3Element) -> OperadPresentation:
    return OperadPresentation(name, SINGLE, tuple(rels))


def _L(a, b, c):
    return f"(x{a}*x{b})*x{c}"


def _R(a, b, c):
    return f"x{a}*(x{b}*x{c})"


def _catalog() -> dict[str, OperadPresentation]:
    E = lambda *terms: _el(SINGLE, *terms)
    cat = {}
    cat["Free"] = _single("Free")
    cat["As"] = _single("As", E((1, _L(1, 2, 3)), (-1, _R(1, 2, 3))))
    cat["Zin"] = _single("Zin", E(
        (1, _R(1, 2, 3)), (-1, _L(1, 2, 3)), (-1, _L(2, 1, 3))))
    cat["Bicom"] = _single(
        "Bicom",
        E((1, _L(2, 1, 3)), (-1, _L(2, 3, 1))),
        E((1, _R(1, 3, 2)), (-1, _R(3, 1, 2))))
    cat["Nov"] = _single(
        "Nov",
        E((1, _L(1, 2, 3)), (-1, _R(1, 3, 2)), (-1, _L(3, 2, 1)), (1, _R(3, 1, 2))),
        E((1, _L(2, 1, 3)), (-1, _L(2, 3, 1))))
    cat["PreLie"] = _single("PreLie", E(
        (1, _L(1, 2, 3)), (-1, _R(1, 2, 3)), (-1, _L(2, 1, 3)), (1, _R(2, 1, 3))))
    cat["Leib"] = _single("Leib", E(
        (1, _L(1, 2, 3)), (-1, _R(1, 2, 3)), (1, _R(2, 1, 3))))
    cat["Flex"] = _single("Flex", E(
        (1, _L(1, 2, 3)), (-1, _R(1, 2, 3)), (1, _L(3, 2, 1)), (-1, _R(3, 2, 1))))
    cat["AntiFlex"] = _single("AntiFlex", E(
        (1, _L(1, 2, 3)), (-1, _R(1, 2, 3)), (-1, _L(3, 2, 1)), (1, _R(3, 2, 1))))
    # Alt and Assosym relations are the standard linearized identities; the
    # literature source is validated against dim Alt(3) = 7 in the tests.
    cat["Alt"] = _single(
        "Alt",
        E((1, _L(1, 2, 3)), (-1, _R(1, 2, 3)), (1, _L(2, 1, 3)), (-1, _R(2, 1, 3))),
        E((1, _L(1, 2, 3)), (-1, _R(1, 2, 3)), (1, _L(1, 3, 2)), (-1, _R(1, 3, 2))))
    cat["Assosym"] = _single(
        "Assosym",
        E((1, _L(1, 2, 3)), (-1, _R(1, 2, 3)), (-1, _L(2, 1, 3)), (1, _R(2, 1, 3))),
        E((1, _L(1, 2, 3)), (-1, _R(1, 2, 3)), (-1, _L(1, 3, 2)), (1, _R(1, 3, 2))))
    return cat


_CATALOG = _catalog()

CATALOG_NAMES = ("As", "Nov", "Zin", "Bicom", "Alt", "Flex", "AntiFlex",
                 "Leib", "PreLie", "Assosym",
                 "NcNov", "NcZin", "NcBicom", "NcFlex", "NcAntiFlex")


def catalog(name: str) -> OperadPresentation:
    if name in _CATALOG:
        return _CATALOG[name]
    if name.startswith("Nc") and name[2:] in _CATALOG:
        from .manin import nonsymmetric_version  # manin imports this module
        return nonsymmetric_version(_CATALOG[name[2:]])
    raise KeyError(f"unknown operad {name!r}")
