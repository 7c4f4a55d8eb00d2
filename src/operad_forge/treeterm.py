"""Planar tree monomials: grammar enumeration, oriented rewriting, confluence.

generate() is the package's one tree enumerator: it lists the trees of a
regular tree grammar, which gives both the systems' normal forms and the
oracle's free trees (the one-class grammar F := leaf | op(F, F)).

A planar tree is either the leaf (the integer 1) or a tuple (op, left, right)
with op a one-letter label, usually "x" and "y".  Leaves are anonymous: the
argument order is the left-to-right leaf order.  Rule left-hand sides are
trees whose leaves act as wildcards; rules are linear and never permute
arguments, so the wildcards bind positionally.

A rewrite step takes the first rule, at its first preorder position.  Each
RewriteSystem compiles its left-hand sides into a deterministic bottom-up
tree automaton (LhsAutomaton, a cached property of the system): the state of
a subtree is the set of lhs subpatterns it matches, so one post-order pass
tells at which nodes which rules match.  is_normal() leaves that pass at the
first match.  The transition table is filled lazily.  A state is a set of
lhs subpatterns and only lhs labels are stored, so the table is bounded by
the rules alone, whatever trees are fed to it: 6 states for Zin and Flex,
113 for Bicom at cap 9 and 313 at cap 14.

An enumeration of trees shares its subtrees, so is_normal() also keeps the
states of proper subtrees by identity: RewriteSystem.slots, at most _SLOTS
(a tree and its state) per system, where the slot id(u) % _SLOTS is a hit
only if it holds u itself.  The slot's reference keeps u alive, so its id
is never reused while it is stored; the stored value (the state, or the
negative state of a first match below) depends on the tree alone, and a
filled transition never changes, so this is sound for any system.  The
argument itself is never stored.  The root's transition runs in
is_normal()'s own frame, which reads each child's slot: _normal_state()
runs only for a child whose slot misses, so a tree whose children are both
hits costs one call (BENCH_rootstep.json).

rewrite_once() and normalize() rewrite annotated nodes: a subtree carries
its automaton state, so an unchanged subtree is never walked again.  An
annotated node is the tuple (1, op, left, right, state, bits, tree, arity)
with left and right annotated, bits the OR of the rule masks
(LhsAutomaton.masks) over the subtree and tree the plain tree; the leaf is
the one constant (0, "", None, None, 0, 0, LEAF, 1).  A term is normal iff
bits == 0.  A rule is applied at a redex in one place, _apply: the system's
compiled reducts (RewriteSystem.reducts, per rule and rhs term a
coefficient and a builder) build the annotated rhs from the redex's
annotated wildcard subtrees, and the spine above the redex is re-wrapped
around it: only new nodes cost an automaton lookup.  _apply is reached two
ways, which differ only in how they find the redex.  A rewrite step
(_rewrite) takes low = bits & -bits, the first rule that matches somewhere,
and one descent from the root finds its first preorder match;
check_confluence (_rewrite_at) descends by an overlap's address.  Each
builder is one straight-line function generated from source (_compile): the
lhs's child paths read the wildcards, and each rhs node is one _node call,
its label written as a str literal.  The reducts are compiled per system,
not per rule, because a rule can sit in systems whose automata differ.

The trees given to rewrite_once() and normalize() share subtrees as
is_normal()'s do, so _annotate() keeps the annotated nodes of proper
subtrees by identity in the same way: RewriteSystem.nodes, at most _SLOTS
nodes per system, where slot id(u) % _SLOTS is a hit only if the node
there has u itself as its plain tree.  That reference keeps u alive, the
node depends on the tree alone, and the argument itself is never stored.
These nodes are all that is kept across calls: no normal form and no
rewrite result.  The slots and the nodes, like the lazily filled table,
assume one thread.

A system truncated at an arity cap (Bicom) holds a prefix of its family's
rule order, so a redex it finds above the cap is exactly the one the whole
family would pick; only a verdict "normal" above the cap is refused, with a
ValueError.  normalize() rewrites the smallest non-normal term (by tree_key)
first.  Its working set maps every pending plain tree to its coefficient,
since hashing nested annotated nodes costs far more; its heap holds only
the terms to rewrite: a term enters it, when it enters the working set,
only if its bits are nonzero.  The one exception is a normal term above a
capped system's cap: it enters the heap and is refused when popped if it is
still pending.  Popping a normal term at or below the cap would only skip
it, and a pop takes the smallest entry, so leaving those terms out changes
neither which non-normal term is popped next nor when a term above the cap
is refused: the rewrite order, the step counts and the results are those of
a heap that holds every term.  An annotated node is its own heap key: its
first four fields compare exactly like tree_key (a leaf below any node,
then op, then the children), whatever the labels.  Inside the loop a
coefficient is an int or a Fraction; the result, as every NsElement, holds
an int or a non-integral Fraction (exactlin._exact).  More than _STEP_CAP
steps raise StepCapExceeded.  No normal form is kept
across calls: a normal-form memo is sound only for a system already
certified confluent, and check_confluence() runs on this engine.  It
annotates each overlap tree once and applies each of the overlap's two
rules at its address (_rewrite_at): one descent by the address, a
ValueError unless the state there has the rule's mask bit, then _apply,
as in a rewrite step.  Their difference, the S-polynomial, is normalized
once: a step's reducts depend on the term alone, so normalization is
linear.

generate(), normalize(), check_confluence() and the six maps of
bijections build trees in bulk, so each runs with CPython's cyclic garbage
collector paused (_acyclic).  That is sound: all they build is acyclic
(tuples of str, int and tuple, strs, and dicts keyed by them), so
reference counting frees it all, and a collection during the call would
only walk the trees still alive, such as generate's listings, and free
nothing (BENCH_gcpause.json).  _compile keeps it so: its builders leave
no cycle behind.  is_normal() allocates nothing and is not paused.  The
pause switches interpreter-wide state, so like the slots and nodes it
assumes one thread: with two, a pause can lift early or last to the end of
the longer call, but no collection is lost.

The pause defers one walk and removes none.  A tuple is tracked by the
collector when it is built, so what a paused call built waits in the
youngest generation, and the first young collection after the call walks
each new tuple once and untracks it (a tuple of strs, ints and untracked
tuples): after the enumerate benchmark's listings that walk takes
0.15-0.21 s (raw, CPython 3.11, BENCH_product.json "collector"), and
later collections skip the trees.  No pause can avoid it, since only
objects that are never tracked skip it.  gc.freeze() would, but it moves
every object then alive out of the collector's reach, the caller's too,
so a cycle the caller had built would not be freed; it is not used.

Text grammar (bit-exact for golden files):
    tree := "1" | op "(" tree "," tree ")"
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, wraps
from heapq import heapify, heappop, heappush
from itertools import product
from sys import maxsize
from typing import Callable, Iterable, Iterator, Optional

from .exactlin import _exact

Tree = object  # 1 | (op, Tree, Tree)
LEAF: Tree = 1
# (1, op, left, right, state, bits, tree, arity) | the leaf _LEAF
Node = tuple
_LEAF: Node = (0, "", None, None, 0, 0, LEAF, 1)
Addr = tuple[int, ...]
# The number of is_normal's slots per system: a prime, so that tree
# addresses, which are all aligned alike, spread over every slot.
_SLOTS = 65521
# The most rewrite steps one normalization may take.
_STEP_CAP = 10_000


class StepCapExceeded(RuntimeError):
    """Raised when normalization does not reach a fixed point within the cap."""


def _acyclic(f):
    """f, run with the cyclic garbage collector paused: the caller's state
    is restored in finally, and a collector the caller had off stays off.
    The one place in src/ that switches the collector (module docstring)."""
    @wraps(f)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return f(*args, **kwargs)
        gc.disable()
        try:
            return f(*args, **kwargs)
        finally:
            gc.enable()
    return paused


def arity(t: Tree) -> int:
    if t == LEAF:
        return 1
    return arity(t[1]) + arity(t[2])


def tree_key(t: Tree):
    """Total order key: leaves first, then by op and subtrees."""
    if t == LEAF:
        return (0,)
    return (1, t[0], tree_key(t[1]), tree_key(t[2]))


def format_tree(t: Tree) -> str:
    if t == LEAF:
        return "1"
    return f"{t[0]}({format_tree(t[1])},{format_tree(t[2])})"


def parse_tree(text: str) -> Tree:
    t, rest = _parse(text.replace(" ", ""))
    if rest:
        raise ValueError(f"trailing input {rest!r}")
    return t


def _parse(s: str) -> tuple[Tree, str]:
    if not s:
        raise ValueError("empty tree")
    if s[0] == "1":
        return LEAF, s[1:]
    op = s[0]
    if len(s) < 2 or s[1] != "(":
        raise ValueError(f"expected '(' after operation in {s!r}")
    left, s = _parse(s[2:])
    if not s.startswith(","):
        raise ValueError("expected ','")
    right, s = _parse(s[1:])
    if not s.startswith(")"):
        raise ValueError("expected ')'")
    return (op, left, right), s[1:]


# A tree grammar is a tuple of (class, productions) pairs; a production is
# "leaf" (the arity-1 tree) or (op, left class, right class).  Grammars are
# plain hashable values, so one cache serves all of them and equal grammars
# share their enumeration.
Grammar = tuple[tuple[str, tuple], ...]


@_acyclic
def generate(grammar: Grammar, cls: str, n: int) -> tuple[Tree, ...]:
    """All arity-n trees of class cls: productions in order, then left
    arity, left tree and right tree.

    Each production and left arity k is one itertools.product((op,),
    lefts, rights) over the listings of arities k and n - k, so the trees
    are built in C.  product varies its last argument fastest, which is the
    order above, and takes a tuple argument as its pool without copying
    it, so each child is the very tree listed at its class and arity: the
    listings share their subtrees, as is_normal()'s slots and _annotate()'s
    nodes expect.  Every listing stays alive for the life of the process
    (an unbounded lru_cache): that is most of the enumerate benchmark's
    ~200 MB peak, and generate.cache_clear() frees it.  The cache stays
    because equal grammars share it (AntiFlex's normal forms reuse Flex's
    listing) and the larger listings are built from the smaller ones.  The
    first young collection after the call still walks each new tree once
    (module docstring)."""
    return _generate(grammar, cls, n)


@lru_cache(maxsize=None)
def _generate(grammar: Grammar, cls: str, n: int) -> tuple[Tree, ...]:
    out: list[Tree] = []
    for prod in dict(grammar)[cls]:
        if prod == "leaf":
            if n == 1:
                out.append(LEAF)
            continue
        op, lc, rc = prod
        for k in range(1, n):
            out.extend(product((op,), _generate(grammar, lc, k),
                               _generate(grammar, rc, n - k)))
    return tuple(out)


generate.cache_clear = _generate.cache_clear


class NsElement(dict):
    """Rational combination of planar trees: dict Tree -> coefficient, no
    zeros, each coefficient an int or a non-integral Fraction (_exact)."""

    def __init__(self, terms: Iterable[tuple[Tree, int | Fraction]] = ()):
        super().__init__()
        for t, c in terms:
            self.add(t, c)

    def add(self, t: Tree, c) -> None:
        c = _exact(c)
        if t in self:
            c = _exact(self[t] + c)
        if not c:
            self.pop(t, None)
        else:
            self[t] = c

    def __repr__(self):
        return f"NsElement({format_element(self)!r})"


def format_element(e: NsElement) -> str:
    if not e:
        return "0"
    parts = []
    for t in sorted(e, key=tree_key):
        c = e[t]
        sign = "+" if c > 0 else "-"
        parts.append(f"{sign}{abs(c)}*{format_tree(t)}")
    return "".join(parts)


@dataclass(frozen=True)
class RewriteRule:
    name: str
    lhs: Tree
    rhs: tuple[tuple[int | Fraction, Tree], ...]

    def __post_init__(self):
        n = arity(self.lhs)
        if self.lhs == LEAF:
            raise ValueError("left-hand side must be an internal tree")
        object.__setattr__(self, "rhs", tuple((_exact(c), p) for c, p in self.rhs))
        for _, p in self.rhs:
            if arity(p) != n:
                raise ValueError(f"rule {self.name}: rhs arity mismatch")

    @property
    def arity(self) -> int:
        return arity(self.lhs)

    def as_element(self) -> NsElement:
        """lhs - rhs with all wildcards instantiated by leaves."""
        e = NsElement([(self.lhs, 1)])
        for c, p in self.rhs:
            e.add(p, -c)
        return e


def _wildcards(q: Tree, read: str) -> Iterator[str]:
    """Source that reads each wildcard of the lhs q, left to right, off the
    annotated node that read gives (child fields: 2 left, 3 right)."""
    if q == LEAF:
        yield read
    else:
        yield from _wildcards(q[1], read + "[2]")
        yield from _wildcards(q[2], read + "[3]")


def _compile(lhs: Tree, p: Tree, auto: LhsAutomaton) -> Callable[[Node], Node]:
    """The function redex -> the annotated node of p with its leaves, left
    to right, replaced by the annotated redex's wildcard subtrees.

    It is generated as one straight-line function, one _node call per
    internal node of p with its label written as its repr, so a rhs term
    costs one call more than its nodes.  _node stays a call: inlined, it
    made the source of Bicom's 24 builders at cap 14 six times longer, and
    their compiling (13 ms against 3.5 ms) outweighed what check_confluence
    saves on Bicom at arity 14.  Only a str label is written, since its
    repr is a literal."""
    reads, lines = _wildcards(lhs, "u"), ["def build(u):"]
    lines.append(f"    return {_emit(p, reads, lines)}")
    source, namespace = "\n".join(lines), {"auto": auto, "node": _node}
    exec(source, namespace)
    # build's globals are namespace: left in it, build would be a cycle
    return namespace.pop("build")


def _emit(p: Tree, reads: Iterator[str], lines: list[str]) -> str:
    """The source name of p's annotated node, after appending to lines the
    _node calls that build it; each leaf of p takes the next wildcard read
    from reads.  A module-level function, not a closure: a closure that
    calls itself refers to itself through its cell, a cycle per builder."""
    if p == LEAF:
        return next(reads)
    if type(p[0]) is not str:
        raise TypeError(f"label {p[0]!r} is not a str")
    l, r = _emit(p[1], reads, lines), _emit(p[2], reads, lines)
    v = f"v{len(lines)}"
    lines.append(f"    {v} = node(auto, {p[0]!r}, {l}, {r})")
    return v


def rule(name: str, lhs: str, rhs: list[tuple[int, str]] | str) -> RewriteRule:
    if isinstance(rhs, str):
        rhs = [(1, rhs)]
    return RewriteRule(name, parse_tree(lhs),
                       tuple((c, parse_tree(p)) for c, p in rhs))


class LhsAutomaton(dict):
    """Deterministic bottom-up tree automaton over the rules' left-hand sides.

    The state of a subtree is the set of internal lhs subpatterns it
    matches.  A state's id is negative exactly when the lhs of some rule is
    in it, that is, when that rule matches at the subtree's root; masks[id]
    then has bit i set for each such rule i.  State 0 is the empty set: the
    state of the leaf and of every subtree that starts no pattern.

    The automaton is its transition table: self[op, a, b] is the state of
    op(u, v) for u in state a and v in state b, computed the first time it
    is asked for.  A label that starts no pattern always leads to state 0
    and is not stored, so the filled table is part of a closure fixed by
    the rules alone.
    """

    def __init__(self, rules: tuple[RewriteRule, ...]):
        super().__init__()
        self.lhs = [r.lhs for r in rules]
        self.patterns: set[Tree] = set()  # internal lhs subpatterns
        stack = list(self.lhs)
        while stack:
            p = stack.pop()
            if p != LEAF and p not in self.patterns:
                self.patterns.add(p)
                stack += p[1:]
        self.labels = {p[0] for p in self.patterns}
        self.states: dict[int, frozenset] = {0: frozenset()}
        self.masks: dict[int, int] = {}
        self._ids = {frozenset(): 0}

    def __missing__(self, key: tuple[str, int, int]) -> int:
        op, a, b = key
        if op not in self.labels:
            return 0
        left, right = self.states[a], self.states[b]
        s = frozenset(p for p in self.patterns if p[0] == op
                      and (p[1] == LEAF or p[1] in left)
                      and (p[2] == LEAF or p[2] in right))
        sid = self._ids.get(s)
        if sid is None:
            mask = sum(1 << i for i, p in enumerate(self.lhs) if p in s)
            if mask:
                sid = -1 - len(self.masks)
                self.masks[sid] = mask
            else:
                sid = len(self.states) - len(self.masks)
            self._ids[s] = sid
            self.states[sid] = s
        self[key] = sid
        return sid


@dataclass(frozen=True)
class RewriteSystem:
    name: str
    rules: tuple[RewriteRule, ...]
    # Set when an infinite ordered family was truncated: rules holds its
    # members up to this arity, a prefix of the family's order.
    arity_cap: Optional[int] = None

    @cached_property
    def automaton(self) -> LhsAutomaton:
        return LhsAutomaton(self.rules)

    @cached_property
    def reducts(self) -> tuple[tuple[tuple[object, Callable[[Node], Node]], ...], ...]:
        """Per rule, (coefficient, build) per rhs tree, its coefficients
        summed and dropped if that is 0, so the terms built are distinct:
        build(redex) is the annotated rhs term with the annotated redex's
        wildcard subtrees grafted in, read through the lhs's child paths,
        a function generated from source by _compile.  Each coefficient is
        as NsElement keeps it.  Compiled per system, not per rule: the
        builders look up this system's automaton, and one rule can sit in
        systems whose automata differ."""
        return tuple(
            tuple((c, _compile(r.lhs, p, self.automaton))
                  for p, c in NsElement((p, c) for c, p in r.rhs).items())
            for r in self.rules)

    @cached_property
    def slots(self) -> tuple[list, list]:
        """is_normal's cache: slot id(u) % _SLOTS holds a proper subtree u
        in the first list and _normal_state(u) in the second."""
        return [None] * _SLOTS, [0] * _SLOTS

    @cached_property
    def nodes(self) -> list[Node]:
        """_annotate's cache: slot id(u) % _SLOTS holds the annotated node
        of a proper subtree u, whose plain tree is u itself, or the leaf's
        node, whose plain tree is never looked up."""
        return [_LEAF] * _SLOTS

    def __getstate__(self):
        """The fields without the compiled reducts, which do not pickle, and
        without the slots and nodes, which would carry their trees along."""
        return {k: v for k, v in self.__dict__.items()
                if k not in ("reducts", "slots", "nodes")}


def _refuse_above_cap(sys: RewriteSystem, n: int) -> None:
    """A truncated system lacks the rules above its cap, so it cannot call a
    tree of larger arity normal."""
    if sys.arity_cap is not None and n > sys.arity_cap:
        raise ValueError(f"arity {n} exceeds the arity cap "
                         f"{sys.arity_cap} of system {sys.name}")


def _node(auto: LhsAutomaton, op: str, l: Node, r: Node) -> Node:
    """The annotated node op(l, r): one automaton lookup."""
    s = auto[op, l[4], r[4]]
    bits = l[5] | r[5]
    if s < 0:
        bits |= auto.masks[s]
    return (1, op, l, r, s, bits, (op, l[6], r[6]), l[7] + r[7])


def _annotate(t: Tree, sys: RewriteSystem) -> Node:
    """The annotated node of t, built bottom-up; the nodes of its proper
    subtrees are read from and stored in the system's nodes."""
    if t == LEAF:
        return _LEAF
    return _annotated(t, sys.automaton, sys.nodes)


def _annotated(t: Tree, auto: LhsAutomaton, nodes: list) -> Node:
    """The annotated node of the internal tree t, with t itself as its
    plain tree.

    A child's node is read from its slot id(child) % _SLOTS when the node
    there has that very object as its plain tree, else built and stored
    there."""
    op, l, r = t
    if l == LEAF:
        a = _LEAF
    else:
        i = id(l) % _SLOTS
        a = nodes[i]
        if a[6] is not l:
            a = nodes[i] = _annotated(l, auto, nodes)
    if r == LEAF:
        b = _LEAF
    else:
        i = id(r) % _SLOTS
        b = nodes[i]
        if b[6] is not r:
            b = nodes[i] = _annotated(r, auto, nodes)
    s = auto[op, a[4], b[4]]
    bits = a[5] | b[5]
    if s < 0:
        bits |= auto.masks[s]
    return (1, op, a, b, s, bits, t, a[7] + b[7])


def _apply(auto: LhsAutomaton, reducts: tuple, u: Node,
           spine: list[tuple[Node, object]]) -> list[tuple[Node, object]]:
    """(annotated term, coefficient) per rhs term of rule k, given by its
    compiled reducts (RewriteSystem.reducts[k]), at the redex u, found
    below spine: (node, true if the path went left) per node on the path
    from the root to u, which it reverses in place.  Each reduct is built
    from u and re-wrapped with one _node per spine node, innermost first;
    nothing else is built anew.  It takes the automaton and the reducts,
    which both callers look up anyway, not the system: reading
    sys.automaton once more per step read normalize's op_p90_ms 1.0% and
    2.7% above the parent's in two sets of pairs, this form 0.8% above and
    0.3% below (BENCH_oneplace.json)."""
    spine.reverse()
    out = []
    for c, build in reducts:
        v = build(u)
        for w, left in spine:
            v = _node(auto, w[1], v, w[3]) if left else _node(auto, w[1], w[2], v)
        out.append((v, c))
    return out


def _rewrite(u: Node, sys: RewriteSystem) -> list[tuple[Node, object]]:
    """_apply of the first rule that matches in the non-normal annotated
    node u, at its first preorder node.

    low is that rule's bit.  One descent from the root finds the node: it
    stops where the node's own state holds low, else goes left if the left
    subtree's bits hold low, else right.
    """
    auto = sys.automaton
    masks = auto.masks
    low = u[5] & -u[5]
    spine = []
    while u[4] >= 0 or not masks[u[4]] & low:
        left = u[2][5] & low
        spine.append((u, left))
        u = u[2] if left else u[3]
    return _apply(auto, sys.reducts[low.bit_length() - 1], u, spine)


def _rewrite_at(u: Node, sys: RewriteSystem, k: int,
                addr: Addr) -> list[tuple[Node, object]]:
    """_apply of rule k of sys at addr (0 left child, 1 right) in the
    annotated node u; a ValueError naming the rule if the automaton state
    there has no mask bit for it."""
    spine = []
    for step in addr:
        spine.append((u, not step))
        u = u[2 + step]
    auto = sys.automaton
    if u[4] >= 0 or not auto.masks[u[4]] >> k & 1:
        raise ValueError(f"rule {sys.rules[k].name} does not match at {addr}")
    return _apply(auto, sys.reducts[k], u, spine)


def rewrite_once(t: Tree, sys: RewriteSystem) -> Optional[NsElement]:
    """First match in rule order, then preorder position; None iff t is normal."""
    u = _annotate(t, sys)
    if not u[5]:
        _refuse_above_cap(sys, u[7])
        return None
    return NsElement((v[6], c) for v, c in _rewrite(u, sys))


def _normal_state(u: Tree, auto: LhsAutomaton, trees: list, states: list) -> int:
    """The automaton state of u, or a negative one from the first match.

    A child's value is read from its slot id(child) % _SLOTS when the slot
    holds that very object, else computed and stored there."""
    op, l, r = u
    if l == LEAF:
        a = 0
    else:
        i = id(l) % _SLOTS
        if trees[i] is l:
            a = states[i]
        else:
            a = states[i] = _normal_state(l, auto, trees, states)
            trees[i] = l
        if a < 0:
            return a
    if r == LEAF:
        b = 0
    else:
        i = id(r) % _SLOTS
        if trees[i] is r:
            b = states[i]
        else:
            b = states[i] = _normal_state(r, auto, trees, states)
            trees[i] = r
        if b < 0:
            return b
    return auto[op, a, b]


def is_normal(t: Tree, sys: RewriteSystem) -> bool:
    """One post-order pass of the automaton, left at the first match; a
    proper subtree met before is read from the system's slots.

    The root's transition runs in this frame: each internal child is read
    from its slot, and _normal_state runs only for a child whose slot
    misses (BENCH_rootstep.json).  t itself is never stored: roots are
    rarely shared, and storing them would evict the subtrees that are."""
    if t != LEAF:
        # The child-slot block duplicates _normal_state's on purpose: one
        # call fewer per tree is the whole gain.
        op, l, r = t
        trees, states = sys.slots
        if l == LEAF:
            a = 0
        else:
            i = id(l) % _SLOTS
            if trees[i] is l:
                a = states[i]
            else:
                a = states[i] = _normal_state(l, sys.automaton, trees, states)
                trees[i] = l
            if a < 0:
                return False
        if r == LEAF:
            b = 0
        else:
            i = id(r) % _SLOTS
            if trees[i] is r:
                b = states[i]
            else:
                b = states[i] = _normal_state(r, sys.automaton, trees, states)
                trees[i] = r
            if b < 0:
                return False
        if sys.automaton[op, a, b] < 0:
            return False
    if sys.arity_cap is not None:
        _refuse_above_cap(sys, arity(t))
    return True


@_acyclic
def normalize(e: NsElement, sys: RewriteSystem) -> NsElement:
    """Rewrite the smallest non-normal term until none is left.

    e's coefficients are checked as NsElement.add checks them, and its
    zero terms dropped, in the one pass that annotates its terms."""
    work, heap = {}, []
    for t, c in e.items():
        c = _exact(c)
        if c:
            work[t] = c
            heap.append(_annotate(t, sys))
    return _normalize(work, heap, sys)


def _normalize(work: dict, heap: list[Node], sys: RewriteSystem) -> NsElement:
    """normalize from work, which maps each pending plain tree to its
    nonzero coefficient, and heap, their annotated nodes.

    The heap holds annotated nodes, which are their own keys; work is keyed
    by plain trees, so a term that is normal from the start stays the very
    tree it came as.  Only nodes with nonzero bits, and normal nodes above
    a capped system's cap, enter the heap: the initial list is filtered
    here, and each rewrite's new terms in the loop.  Popping a normal node
    at or below the cap would only skip it, and a pop takes the smallest
    entry, so the same non-normal terms are rewritten in the same order as
    with every node in the heap, and a normal one above the cap is refused
    when it is popped while pending.  The ints are returned as they are; a
    Fraction goes through _exact, as a product or sum of Fractions may be
    integral.
    """
    cap = maxsize if sys.arity_cap is None else sys.arity_cap
    heap = [u for u in heap if u[5] or u[7] > cap]
    heapify(heap)
    steps, step_cap = 0, _STEP_CAP
    # a tuple does not cache its hash, so each visit looks a term up once
    while heap:
        u = heappop(heap)
        if not u[5]:  # above the cap
            if u[6] in work:
                _refuse_above_cap(sys, u[7])
            continue
        c = work.pop(u[6], None)
        if c is None:
            continue  # cancelled
        steps += 1
        if steps > step_cap:
            raise StepCapExceeded(
                f"no fixed point within {step_cap} steps in system {sys.name}")
        for v, d in _rewrite(u, sys):
            t = v[6]
            d *= c
            size = len(work)
            old = work.setdefault(t, d)
            # t is new iff work grew: an equal small int is one object, so
            # old is d does not tell
            if len(work) > size:
                if v[5] or v[7] > cap:
                    heappush(heap, v)
                continue
            d += old
            if d:
                work[t] = d
            else:
                del work[t]
    out = NsElement()
    for t, c in work.items():
        out[t] = c if type(c) is int else _exact(c)
    return out


# --- overlaps and confluence ----------------------------------------------


def _unify(p: Tree, q: Tree) -> Optional[tuple[Tree, int]]:
    """Least common refinement of two linear patterns and the number of
    internal nodes they share, or None."""
    if p == LEAF:
        return q, 0
    if q == LEAF:
        return p, 0
    if p[0] != q[0]:
        return None
    l = _unify(p[1], q[1])
    r = _unify(p[2], q[2])
    if l is None or r is None:
        return None
    return (p[0], l[0], r[0]), 1 + l[1] + r[1]


@dataclass(frozen=True)
class Overlap:
    rule_i: RewriteRule  # matches at the root
    rule_j: RewriteRule  # matches at addr
    tree: Tree
    addr: Addr


def _superposed(p: Tree, q: Tree, addr: Addr = ()) -> Iterator[tuple[Addr, Tree, int]]:
    """(addr, p with q unified into its subtree at addr, the number of
    internal nodes the two share), in preorder over the internal nodes of
    p where they unify."""
    if p == LEAF:
        return
    sup = _unify(p, q)
    if sup is not None:
        yield addr, *sup
    for a, w, k in _superposed(p[1], q, addr + (0,)):
        yield a, (p[0], w, p[2]), k
    for a, w, k in _superposed(p[2], q, addr + (1,)):
        yield a, (p[0], p[1], w), k


def overlaps(sys: RewriteSystem, max_arity: int) -> list[Overlap]:
    """All minimal trees of arity <= max_arity where two lhs patterns overlap."""
    if max_arity < 3:
        raise ValueError("max_arity must be at least 3")
    if sys.arity_cap is not None and max_arity > sys.arity_cap:
        raise ValueError(f"max_arity {max_arity} exceeds the arity cap "
                         f"{sys.arity_cap} of system {sys.name}")
    out = []
    arities = [r.arity for r in sys.rules]
    for i, ri in enumerate(sys.rules):
        for j, rj in enumerate(sys.rules):
            # a superposition's internal nodes: both lhs's less the shared
            both = arities[i] + arities[j] - 1
            for addr, w, shared in _superposed(ri.lhs, rj.lhs):
                if addr == () and not (i < j):
                    continue  # same-root pairs once; trivial self-overlap never
                if both - shared <= max_arity:
                    out.append(Overlap(ri, rj, w, addr))
    return out


@dataclass(frozen=True)
class OverlapCheck:
    overlap: Overlap
    difference: tuple  # normalized S-polynomial terms, empty iff joinable

    @property
    def joinable(self) -> bool:
        return not self.difference


@dataclass(frozen=True)
class ConfluenceReport:
    system: str
    max_arity: int
    checks: tuple[OverlapCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.joinable for c in self.checks)


@_acyclic
def check_confluence(sys: RewriteSystem, max_arity: int) -> ConfluenceReport:
    """Normalize the S-polynomial of each overlap: the one-step reducts of
    rule_i at the root less those of rule_j at its address.  The overlap
    tree is annotated once, and each rule is applied by _rewrite_at.  An
    overlap holds the very rules of sys.rules, so their indices are looked
    up by identity: the first occurrence's, as rules.index gives."""
    rules, checks = sys.rules, []
    index = {id(r): rules.index(r) for r in rules}
    for ov in overlaps(sys, max_arity):
        u = _annotate(ov.tree, sys)
        left = _rewrite_at(u, sys, index[id(ov.rule_i)], ())
        right = _rewrite_at(u, sys, index[id(ov.rule_j)], ov.addr)
        # each side's terms are distinct; a tree on both sides enters once
        work = {v[6]: c for v, c in left}
        heap = [v for v, _ in left] + [v for v, _ in right if v[6] not in work]
        for v, c in right:
            d = work.pop(v[6], 0) - c
            if d:
                work[v[6]] = d
        diff = sorted(_normalize(work, heap, sys).items(), key=lambda tc: tree_key(tc[0]))
        checks.append(OverlapCheck(ov, tuple(diff)))
    return ConfluenceReport(sys.name, max_arity, tuple(checks))
