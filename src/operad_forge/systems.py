"""The concrete rewriting systems and their normal-form combinatorics.

Systems: "Zin", "Bicom" (an infinite rule family, instantiated up to an
arity cap), "Flex", "AntiFlex" and the auxiliary "L" system over operations
z, t.  One table, _SYSTEMS, keyed by system name, holds all that is known
of each: its rules for a given cap, its default cap (10 for Bicom, None
for the systems that have no cap), its normal-form grammar (a
treeterm.Grammar, enumerated by treeterm.generate) and its closed count
formula.  SYSTEM_NAMES, system(), normal_forms() and dim_formula() all
read that table, and _spec() is its one refusal of an unknown name, a
KeyError.  The module holds no arity-3 presentation: nc_relations reads the
nonsymmetric versions from the catalog, where manin derives them, and
writes them as planar trees (tree labels x = "<" and y = ">").

The second AntiFlex rule is not written down anywhere; it is derived
mechanically from the self-overlap of the first rule (the same computation
that produces the nine-term second Flex rule) and certified downstream by
the brute-force oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .arity3 import catalog
from .treeterm import (LEAF, Grammar, NsElement, RewriteRule, RewriteSystem,
                       Tree, check_confluence, generate, parse_tree, rule)


def _zin_rules() -> tuple[RewriteRule, ...]:
    return (
        rule("zin1", "x(1,y(1,1))", "y(x(1,1),1)"),
        rule("zin2", "x(1,x(1,1))", [(1, "x(y(1,1),1)"), (1, "x(x(1,1),1)")]),
        rule("zin3", "y(1,y(1,1))", [(-1, "y(1,x(1,1))"), (1, "y(y(1,1),1)")]),
    )


def _bicom_rule(n: int, outer: str) -> RewriteRule:
    """Rule family member of arity n+3; outer = "x" gives f_n, "y" gives g_n."""
    inner = "y" if outer == "x" else "x"
    lhs_core: Tree = (inner, LEAF, LEAF)
    rhs_core: Tree = (inner, (outer, LEAF, LEAF), LEAF)
    for _ in range(n):
        lhs_core = (outer, lhs_core, LEAF)
        rhs_core = (outer, rhs_core, LEAF)
    name = f"{'f' if outer == 'x' else 'g'}{n}"
    return RewriteRule(name, (outer, LEAF, lhs_core), ((1, rhs_core),))


def _bicom_rules(cap: int) -> tuple[RewriteRule, ...]:
    """f_n, then g_n, for each n whose rules have arity at most cap."""
    if cap < 3:
        raise ValueError("Bicom needs an arity cap of at least 3")
    return tuple(_bicom_rule(n, outer) for n in range(cap - 2) for outer in "xy")


def _flex_rule1(sign: int) -> RewriteRule:
    # sign +1: flexible; sign -1: anti-flexible (defining identity negated)
    return rule("flex1" if sign > 0 else "aflex1", "y(1,y(1,1))",
                [(sign, "x(1,x(1,1))"), (1, "y(y(1,1),1)"), (-sign, "x(x(1,1),1)")])


def _derive_flex_rule2(rule1: RewriteRule, name: str) -> RewriteRule:
    """Orient the S-polynomial of rule1's self-overlap into a second rule.

    The self-overlap of y(*,y(*,*)) is y(*,y(*,y(*,*))); its two one-step
    reducts are normalized with rule1 alone and the difference is solved for
    the monomial y(*,x(*,x(*,*))), the only non-normal term remaining.
    """
    (check,) = check_confluence(RewriteSystem("partial", (rule1,)), 4).checks
    diff = dict(check.difference)
    lhs = parse_tree("y(1,x(1,x(1,1)))")
    if lhs not in diff:
        raise RuntimeError("expected leading monomial missing from S-polynomial")
    lead = diff.pop(lhs)
    rhs = tuple((Fraction(-c, lead), t) for t, c in diff.items())
    return RewriteRule(name, lhs, rhs)


def _flex_rules(sign: int) -> tuple[RewriteRule, ...]:
    r1 = _flex_rule1(sign)
    return r1, _derive_flex_rule2(r1, "flex2" if sign > 0 else "aflex2")


def _flex_count(n: int) -> int:
    """Flex's count, which AntiFlex and L share."""
    return math.comb(3 * n - 2, n - 1) // n


class _Spec(NamedTuple):
    """One system's row of _SYSTEMS.  grammar is a treeterm.Grammar:
    (class, productions) pairs, the root class first; a production is
    "leaf" or (op, class_left, class_right)."""
    rules: Callable[[int | None], tuple[RewriteRule, ...]]  # for a cap
    default_cap: int | None  # None: the system has no cap
    grammar: Grammar
    count: Callable[[int], int]  # the number of normal forms of arity n


_FLEX_GRAMMAR = (
    ("N", ("leaf", ("x", "N", "N"), ("y", "N", "R"))),
    ("R", ("leaf", ("x", "N", "Q"))),
    ("Q", ("leaf", ("y", "N", "R"))),
)

_SYSTEMS = {
    "Zin": _Spec(
        lambda cap: _zin_rules(), None,
        (("N", ("leaf", ("x", "N", "one"), ("y", "N", "one"), ("y", "N", "X1"))),
         ("X1", (("x", "N", "one"),)),       # x(N, 1)
         ("one", ("leaf",))),                # exactly the leaf, as a subtree
        lambda n: math.comb(2 * n, n) // (n + 1)),
    "Bicom": _Spec(
        _bicom_rules, 10,
        (("N", ("leaf", ("x", "N", "X"), ("y", "N", "Y"))),
         ("X", ("leaf", ("x", "X", "X"))),
         ("Y", ("leaf", ("y", "Y", "Y")))),
        lambda n: math.comb(2 * n - 2, n - 1)),
    "Flex": _Spec(lambda cap: _flex_rules(1), None, _FLEX_GRAMMAR, _flex_count),
    "AntiFlex": _Spec(lambda cap: _flex_rules(-1), None, _FLEX_GRAMMAR, _flex_count),
    "L": _Spec(
        lambda cap: (rule("L", "t(1,z(1,1))", "z(t(1,1),1)"),), None,
        (("S", ("leaf", ("z", "S", "S"), ("t", "S", "U"))),
         ("U", ("leaf", ("t", "S", "U")))),
        _flex_count),
}

SYSTEM_NAMES = tuple(_SYSTEMS)


def _spec(name: str) -> _Spec:
    spec = _SYSTEMS.get(name)
    if spec is None:
        raise KeyError(f"unknown system {name!r}")
    return spec


def system(name: str, max_arity: int | None = None) -> RewriteSystem:
    """One object per (name, cap); only Bicom has a cap (10 by default)."""
    cap = _spec(name).default_cap
    if cap is not None and max_arity is not None:
        cap = max_arity
    return _system(name, cap)


@lru_cache(maxsize=None)
def _system(name: str, cap: int | None) -> RewriteSystem:
    return RewriteSystem(name, _spec(name).rules(cap), arity_cap=cap)


def normal_forms(name: str, n: int) -> tuple[Tree, ...]:
    """All arity-n trees generated by the system's normal-form grammar: the
    enumerator's cached tuple, shared by every call."""
    grammar = _spec(name).grammar
    if n < 1:
        raise ValueError("arity must be at least 1")
    return generate(grammar, grammar[0][0], n)


def dim_formula(name: str, n: int) -> int:
    if n < 1:
        raise ValueError("arity must be at least 1")
    return _spec(name).count(n)


# --- the nonsymmetric versions as planar relations ------------------------

_TREE_LABEL = {"<": "x", ">": "y"}


def nc_relations(name: str) -> list[NsElement]:
    """The relations of catalog(name), a nonsymmetric version such as
    "NcZin", as planar tree elements (x = <, y = >)."""
    if not name.startswith("Nc"):
        raise KeyError(f"unknown nonsymmetric presentation {name!r}")
    out = []
    for rel in catalog(name).relations:
        e = NsElement()
        for m, c in rel.terms.items():
            inner = (_TREE_LABEL[m.inner], LEAF, LEAF)
            outer = _TREE_LABEL[m.outer]
            e.add((outer, inner, LEAF) if m.shape == "L" else (outer, LEAF, inner), c)
        out.append(e)
    return out
