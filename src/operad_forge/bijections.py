"""Explicit bijections from normal forms to classical combinatorial objects.

* Zin normal forms of arity n  <->  planar binary trees with n internal
  vertices (bullet notation; arity 1 maps to the one-vertex tree).
* Bicom normal forms of arity n  <->  lattice words with n-1 E's and N's.
  Pure x-combs map to Dyck words and pure y-combs to reflected Dyck words
  via the comb encodings; mixed monomials peel factors off the root spine.
* Flex normal forms  <->  normal forms of the auxiliary L system over z, t.
"""

from __future__ import annotations

from typing import Union

from .treeterm import LEAF, RewriteSystem, Tree, arity, is_normal
from . import systems

# --- planar binary trees (bullet notation) ---------------------------------

BULLET = "*"
PBT = Union[str, tuple]  # BULLET | (PBT, PBT)


def internal_vertices(b: PBT) -> int:
    if b == BULLET:
        return 0
    return 1 + internal_vertices(b[0]) + internal_vertices(b[1])


def format_pbt(b: PBT) -> str:
    if b == BULLET:
        return "•"
    return f"({format_pbt(b[0])}{format_pbt(b[1])})"


def parse_pbt(text: str) -> PBT:
    b, rest = _parse_pbt(text.replace("•", "*"))
    if rest:
        raise ValueError(f"trailing input {rest!r}")
    return b


def _parse_pbt(s: str) -> tuple[PBT, str]:
    if not s:
        raise ValueError("empty tree")
    if s[0] == "*":
        return BULLET, s[1:]
    if s[0] != "(":
        raise ValueError(f"expected '(' or bullet at {s!r}")
    left, s = _parse_pbt(s[1:])
    right, s = _parse_pbt(s)
    if not s.startswith(")"):
        raise ValueError("expected ')'")
    return (left, right), s[1:]


def _refuse(name: str) -> ValueError:
    return ValueError(f"not a normal {name} monomial")


def _refuse_unless_normal(t: Tree, sys: RewriteSystem) -> None:
    """is_normal finds no redex at a label outside sys; each map refuses such
    a label where its own recursion meets it: _zin_to_pbt outside its normal
    shapes, _bicom_word on the spine, _comb_word in a comb, _relabel_normal
    at the failed table lookup."""
    if not is_normal(t, sys):
        raise _refuse(sys.name)


_ZIN = systems.system("Zin")


def zin_to_pbt(t: Tree) -> PBT:
    """Normal Zin monomial of arity n -> planar binary tree, n internal vertices."""
    _refuse_unless_normal(t, _ZIN)
    return _zin_to_pbt(t)


def _zin_to_pbt(t: Tree) -> PBT:
    """zin_to_pbt on a tree that is_normal passed: a node outside the normal
    shapes x(u,1), y(u,1) and y(u,x(w,1)) carries a foreign label."""
    if t == LEAF:
        return (BULLET, BULLET)
    op, u, v = t
    if op == "x" and v == LEAF:
        return (_zin_to_pbt(u), BULLET)
    if op == "y" and v == LEAF:
        return (BULLET, _zin_to_pbt(u))
    if op == "y" and v[0] == "x" and v[2] == LEAF:
        return (_zin_to_pbt(v[1]), _zin_to_pbt(u))
    raise _refuse("Zin")


def pbt_to_zin(b: PBT) -> Tree:
    if b == BULLET:
        raise ValueError("a bare bullet has no internal vertex")
    if b == (BULLET, BULLET):
        return LEAF
    l, r = b
    if r == BULLET:
        return ("x", pbt_to_zin(l), LEAF)
    if l == BULLET:
        return ("y", pbt_to_zin(r), LEAF)
    return ("y", pbt_to_zin(r), ("x", pbt_to_zin(l), LEAF))


# --- Bicom <-> lattice words ------------------------------------------------


def _is_pure(t: Tree, op: str) -> bool:
    if t == LEAF:
        return True
    return t[0] == op and _is_pure(t[1], op) and _is_pure(t[2], op)


def _comb_word(t: Tree, op: str) -> str:
    """x-combs to Dyck words: E w(left) N w(right); y-combs mirrored."""
    if t == LEAF:
        return ""
    if t[0] != op:
        raise _refuse("Bicom")
    first, second = ("E", "N") if op == "x" else ("N", "E")
    return first + _comb_word(t[1], op) + second + _comb_word(t[2], op)


def _comb_unword(w: str, op: str) -> Tree:
    if not w:
        return LEAF
    first = "E" if op == "x" else "N"
    depth = 0
    for i, ch in enumerate(w):
        depth += 1 if ch == first else -1
        if depth == 0:
            return (op, _comb_unword(w[1:i], op), _comb_unword(w[i + 1:], op))
    raise ValueError(f"not a balanced comb word: {w!r}")


def bicom_to_word(t: Tree) -> str:
    _refuse_unless_normal(t, systems.system("Bicom", max_arity=max(arity(t), 3)))
    return _bicom_word(t)


def _bicom_word(t: Tree) -> str:
    if t == LEAF:
        return ""
    if _is_pure(t, "x"):
        return _comb_word(t, "x")
    if _is_pure(t, "y"):
        return _comb_word(t, "y")
    op, u, a = t
    if op == "x":
        return _bicom_word(u) + "E" + _comb_word(a, "x") + "N"
    if op == "y":
        return _bicom_word(u) + "N" + _comb_word(a, "y") + "E"
    raise _refuse("Bicom")


def word_to_bicom(w: str) -> Tree:
    if w.count("E") != w.count("N") or set(w) - {"E", "N"}:
        raise ValueError(f"not a balanced EN word: {w!r}")
    return _unword(w)


def _unword(w: str) -> Tree:
    if not w:
        return LEAF
    heights = []
    h = 0
    for ch in w:
        h += 1 if ch == "E" else -1
        heights.append(h)
    if min(heights) >= 0:
        return _comb_unword(w, "x")
    if max(heights) <= 0:
        return _comb_unword(w, "y")
    # peel the last first-return factor off the diagonal
    start = max(i for i in range(len(w) - 1) if heights[i] == 0) + 1
    prefix, factor = w[:start], w[start:]
    if factor[0] == "E":
        return ("x", _unword(prefix), _comb_unword(factor[1:-1], "x"))
    return ("y", _unword(prefix), _comb_unword(factor[1:-1], "y"))


# --- Flex <-> L-operad ------------------------------------------------------

_FLEX = systems.system("Flex")
_LSYS = systems.system("L")

# Both directions walk the Flex grammar's classes N, R, Q (R: the right
# child of a y, Q: the right child of an x at an R position).  Each table
# maps (class, op) to (new op, left class, right class); _TO_FLEX inverts _TO_L.
_TO_L = {("N", "x"): ("z", "N", "N"), ("N", "y"): ("t", "N", "R"),
         ("R", "x"): ("t", "N", "Q"), ("Q", "y"): ("t", "N", "R")}
_TO_FLEX = {(cls, new): (op, lc, rc) for (cls, op), (new, lc, rc) in _TO_L.items()}


def _relabel(t: Tree, table: dict, cls: str) -> Tree:
    if t == LEAF:
        return LEAF
    op, lc, rc = table[cls, t[0]]
    return (op, _relabel(t[1], table, lc), _relabel(t[2], table, rc))


def _relabel_normal(t: Tree, sys: RewriteSystem, table: dict) -> Tree:
    """_relabel from class N, refusing t unless it is normal in sys.  The
    tables have a key for every label of sys at every class where a normal
    tree can carry it, so a label outside sys is refused at the lookup."""
    _refuse_unless_normal(t, sys)
    try:
        return _relabel(t, table, "N")
    except KeyError:
        raise _refuse(sys.name) from None


def flex_to_L(t: Tree) -> Tree:
    return _relabel_normal(t, _FLEX, _TO_L)


def L_to_flex(s: Tree) -> Tree:
    return _relabel_normal(s, _LSYS, _TO_FLEX)
