"""The concrete rewriting systems and their normal-form combinatorics.

Systems: "Zin", "Bicom" (an infinite rule family, instantiated up to an
arity cap), "Flex", "AntiFlex" and the auxiliary "L" system over operations
z, t.  For each system the module provides the normal-form grammar (a
treeterm.Grammar, enumerated by treeterm.generate) and closed dimension
formulas.  It holds no arity-3 presentation: nc_relations reads the
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

from .arity3 import catalog
from .treeterm import (LEAF, NsElement, RewriteRule, RewriteSystem, Tree,
                       check_confluence, generate, parse_tree, rule)

SYSTEM_NAMES = ("Zin", "Bicom", "Flex", "AntiFlex", "L")


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


def system(name: str, max_arity: int | None = None) -> RewriteSystem:
    """One object per (name, cap); only Bicom has a cap (10 by default)."""
    cap = (10 if max_arity is None else max_arity) if name == "Bicom" else None
    return _system(name, cap)


@lru_cache(maxsize=None)
def _system(name: str, cap: int | None) -> RewriteSystem:
    if name == "Zin":
        return RewriteSystem("Zin", _zin_rules())
    if name == "Bicom":
        if cap < 3:
            raise ValueError("Bicom needs an arity cap of at least 3")
        rules = []
        for n in range(cap - 2):
            rules.append(_bicom_rule(n, "x"))
            rules.append(_bicom_rule(n, "y"))
        return RewriteSystem("Bicom", tuple(rules), arity_cap=cap)
    if name in ("Flex", "AntiFlex"):
        sign = 1 if name == "Flex" else -1
        r1 = _flex_rule1(sign)
        r2 = _derive_flex_rule2(r1, "flex2" if sign > 0 else "aflex2")
        return RewriteSystem(name, (r1, r2))
    if name == "L":
        return RewriteSystem("L", (rule("L", "t(1,z(1,1))", "z(t(1,1),1)"),))
    raise KeyError(f"unknown system {name!r}")


# --- normal-form grammars --------------------------------------------------

# Each grammar is a treeterm.Grammar: (class, productions) pairs, the root
# class first; a production is "leaf" or (op, class_left, class_right).

_FLEX_GRAMMAR = (
    ("N", ("leaf", ("x", "N", "N"), ("y", "N", "R"))),
    ("R", ("leaf", ("x", "N", "Q"))),
    ("Q", ("leaf", ("y", "N", "R"))),
)

_GRAMMARS = {
    "Zin": (
        ("N", ("leaf", ("x", "N", "one"), ("y", "N", "one"), ("y", "N", "X1"))),
        ("X1", (("x", "N", "one"),)),       # x(N, 1)
        ("one", ("leaf",)),                 # exactly the leaf, as a subtree
    ),
    "Bicom": (
        ("N", ("leaf", ("x", "N", "X"), ("y", "N", "Y"))),
        ("X", ("leaf", ("x", "X", "X"))),
        ("Y", ("leaf", ("y", "Y", "Y"))),
    ),
    "Flex": _FLEX_GRAMMAR,
    "AntiFlex": _FLEX_GRAMMAR,
    "L": (
        ("S", ("leaf", ("z", "S", "S"), ("t", "S", "U"))),
        ("U", ("leaf", ("t", "S", "U"))),
    ),
}


def normal_forms(name: str, n: int) -> tuple[Tree, ...]:
    """All arity-n trees generated by the system's normal-form grammar: the
    enumerator's cached tuple, shared by every call."""
    if name not in _GRAMMARS:
        raise KeyError(f"unknown system {name!r}")
    if n < 1:
        raise ValueError("arity must be at least 1")
    grammar = _GRAMMARS[name]
    return generate(grammar, grammar[0][0], n)


def dim_formula(name: str, n: int) -> int:
    if n < 1:
        raise ValueError("arity must be at least 1")
    if name == "Zin":
        return math.comb(2 * n, n) // (n + 1)
    if name == "Bicom":
        return math.comb(2 * n - 2, n - 1)
    if name in ("Flex", "AntiFlex", "L"):
        return math.comb(3 * n - 2, n - 1) // n
    raise KeyError(f"unknown system {name!r}")


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
