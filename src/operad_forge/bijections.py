"""Explicit bijections from normal forms to classical combinatorial objects.

* Zin normal forms of arity n  <->  planar binary trees with n internal
  vertices (bullet notation; arity 1 maps to the one-vertex tree).
* Bicom normal forms of arity n  <->  lattice words with n-1 E's and N's.
  Pure x-combs map to Dyck words and pure y-combs to reflected Dyck words
  via the comb encodings; mixed monomials peel factors off the root spine.
* Flex normal forms  <->  normal forms of the auxiliary L system over z, t.

Each map is one recursion over its system's normal-form grammar, and that
recursion is its only membership check: it refuses every tree outside the
grammar, and the grammar generates exactly the trees with no redex.

* Zin.  zin1 and zin2 forbid an x-node with an internal right child, and
  zin3 forbids y(., y(., .)).  What remains are the shapes x(u,1), y(u,1)
  and y(u,x(w,1)) that _zin_to_pbt matches.
* Bicom.  f_n matches x(a, v) exactly when v's left spine reaches a
  y-node, for every n >= 0; g_n is the mirror image.  By induction, the
  right child of an x-node is then a pure x-comb, which is what _comb_word
  demands (mirrored for y).
* Flex and L.  flex1, flex2 and L's one rule are the (class, label) keys
  missing from _TO_L and _TO_FLEX.

All six maps refuse what they cannot map in one helper, _map_or_refuse,
with a ValueError that says what the map expects: a normal monomial of its
system, a planar binary tree with an internal vertex (pbt_to_zin) or a str
of as many E's as N's (word_to_bicom).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Union

from .treeterm import LEAF, Tree, _acyclic

# --- planar binary trees (bullet notation) ---------------------------------

BULLET = "*"
PBT = Union[str, tuple]  # BULLET | (PBT, PBT)


def format_pbt(b: PBT) -> str:
    if b == BULLET:
        return "•"
    return f"({format_pbt(b[0])}{format_pbt(b[1])})"


def _map_or_refuse(expected: str, walk, *args):
    """walk(*args), refusing what it cannot map with ValueError("not " +
    expected): a node that is not a tuple (op, left, right) or (left,
    right), a foreign label or step, or a shape outside the grammar ends
    walk with a KeyError, TypeError or ValueError."""
    try:
        return walk(*args)
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"not {expected}") from None


@_acyclic
def zin_to_pbt(t: Tree) -> PBT:
    """Normal Zin monomial of arity n -> planar binary tree, n internal vertices."""
    return _map_or_refuse("a normal Zin monomial", _zin_to_pbt, t)


def _zin_to_pbt(t: Tree) -> PBT:
    if type(t) is not tuple:
        if t == LEAF:
            return (BULLET, BULLET)
        raise TypeError("a node is a tuple")
    op, u, v = t
    if op == "x" and v == LEAF:
        return (_zin_to_pbt(u), BULLET)
    if op == "y" and v == LEAF:
        return (BULLET, _zin_to_pbt(u))
    if op == "y" and type(v) is tuple:
        x, w, one = v
        if x == "x" and one == LEAF:
            return (_zin_to_pbt(w), _zin_to_pbt(u))
    raise ValueError("outside the Zin grammar")


@_acyclic
def pbt_to_zin(b: PBT) -> Tree:
    return _map_or_refuse("a planar binary tree with an internal vertex",
                          _pbt_to_zin, b)


def _pbt_to_zin(b: PBT) -> Tree:
    if type(b) is not tuple:  # a bare bullet has no internal vertex
        raise TypeError("a node is a tuple")
    if b == (BULLET, BULLET):
        return LEAF
    l, r = b
    if r == BULLET:
        return ("x", _pbt_to_zin(l), LEAF)
    if l == BULLET:
        return ("y", _pbt_to_zin(r), LEAF)
    return ("y", _pbt_to_zin(r), ("x", _pbt_to_zin(l), LEAF))


# --- Bicom <-> lattice words ------------------------------------------------

_STEPS = {"x": ("E", "N"), "y": ("N", "E")}


def _comb_word(t: Tree, op: str) -> str:
    """x-combs to Dyck words: E w(left) N w(right); y-combs mirrored."""
    if type(t) is not tuple:
        if t == LEAF:
            return ""
        raise TypeError("a node is a tuple")
    label, left, right = t
    if label != op:
        raise ValueError("not a comb")
    first, second = _STEPS[op]
    return first + _comb_word(left, op) + second + _comb_word(right, op)


def _comb_unword(w: str, op: str) -> Tree:
    if not w:
        return LEAF
    first = _STEPS[op][0]
    depth = 0
    for i, ch in enumerate(w):
        depth += 1 if ch == first else -1
        if depth == 0:
            return (op, _comb_unword(w[1:i], op), _comb_unword(w[i + 1:], op))
    raise ValueError(f"not a balanced comb word: {w!r}")


@_acyclic
def bicom_to_word(t: Tree) -> str:
    return _map_or_refuse("a normal Bicom monomial", _bicom_word, t)[0]


def _bicom_word(t: Tree) -> tuple[str, str]:
    """t's word, and the labels of which t is a pure comb ("xy" for the
    leaf, "" for a mixed tree).  A pure comb maps by _comb_word; a mixed
    op(u, a) maps to u's word, then a's comb word between op's two steps."""
    if type(t) is not tuple:
        if t == LEAF:
            return "", "xy"
        raise TypeError("a node is a tuple")
    op, u, a = t
    first, second = _STEPS[op]
    word, combs = _bicom_word(u)
    tail = _comb_word(a, op)
    if op in combs:
        return first + word + second + tail, op
    return word + first + tail + second, ""


@_acyclic
def word_to_bicom(w: str) -> Tree:
    return _map_or_refuse("a str of as many E's as N's", _balanced_unword, w)


def _balanced_unword(w: str) -> Tree:
    if not isinstance(w, str) or w.count("E") != w.count("N") or set(w) - {"E", "N"}:
        raise ValueError("not a balanced EN word")
    return _unword(w)


def _unword(w: str) -> Tree:
    if not w:
        return LEAF
    heights = list(accumulate(1 if ch == "E" else -1 for ch in w))
    if min(heights) >= 0:
        return _comb_unword(w, "x")
    if max(heights) <= 0:
        return _comb_unword(w, "y")
    # peel the last first-return factor off the diagonal
    start = max(i for i in range(len(w) - 1) if heights[i] == 0) + 1
    op = "x" if w[start] == "E" else "y"
    return (op, _unword(w[:start]), _comb_unword(w[start + 1:-1], op))


# --- Flex <-> L-operad ------------------------------------------------------

# Both directions walk the Flex grammar's classes N, R, Q (R: the right
# child of a y, Q: the right child of an x at an R position).  Each table
# maps (class, op) to (new op, left class, right class); _TO_FLEX inverts _TO_L.
_TO_L = {("N", "x"): ("z", "N", "N"), ("N", "y"): ("t", "N", "R"),
         ("R", "x"): ("t", "N", "Q"), ("Q", "y"): ("t", "N", "R")}
_TO_FLEX = {(cls, new): (op, lc, rc) for (cls, op), (new, lc, rc) in _TO_L.items()}


def _relabel(t: Tree, table: dict, cls: str) -> Tree:
    if type(t) is not tuple:
        if t == LEAF:
            return LEAF
        raise TypeError("a node is a tuple")
    op, left, right = t
    new, lc, rc = table[cls, op]
    return (new, _relabel(left, table, lc), _relabel(right, table, rc))


@_acyclic
def flex_to_L(t: Tree) -> Tree:
    return _map_or_refuse("a normal Flex monomial", _relabel, t, _TO_L, "N")


@_acyclic
def L_to_flex(s: Tree) -> Tree:
    return _map_or_refuse("a normal L monomial", _relabel, s, _TO_FLEX, "N")
