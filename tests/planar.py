"""Plain-tree rewriting, the tests' reference for treeterm's annotated engine.

An address is a tuple of child steps from the root, 0 for the left child
and 1 for the right.  Each function walks the plain trees of treeterm
(the leaf 1, or (op, left, right)) and nothing else: no automaton, no
annotated node, no compiled reduct.
"""

from operad_forge.treeterm import LEAF, NsElement


def positions(t):
    """Preorder addresses of internal nodes."""
    out = []
    stack = [((), t)]
    while stack:
        addr, u = stack.pop()
        if u != LEAF:
            out.append(addr)
            stack.append((addr + (1,), u[2]))
            stack.append((addr + (0,), u[1]))
    return out


def subtree(t, addr):
    for step in addr:
        if t == LEAF:
            raise ValueError(f"invalid address {addr}")
        t = t[1 + step]
    return t


def replace(t, addr, new):
    if not addr:
        return new
    if t == LEAF:
        raise ValueError(f"invalid address {addr}")
    op, l, r = t
    if addr[0] == 0:
        return (op, replace(l, addr[1:], new), r)
    return (op, l, replace(r, addr[1:], new))


def _graft_index(t, subs, i):
    if t == LEAF:
        return subs[i], i + 1
    l, i = _graft_index(t[1], subs, i)
    r, i = _graft_index(t[2], subs, i)
    return (t[0], l, r), i


def graft(pattern, subs):
    """Substitute subs into the leaves of pattern, left to right."""
    out, used = _graft_index(pattern, subs, 0)
    if used != len(subs):
        raise ValueError("wrong number of subtrees")
    return out


def _match(t, pattern):
    if pattern == LEAF:
        return [t]
    if t == LEAF or t[0] != pattern[0]:
        return None
    left = _match(t[1], pattern[1])
    if left is None:
        return None
    right = _match(t[2], pattern[2])
    if right is None:
        return None
    return left + right


def match_at(t, r, addr):
    """Bindings of r.lhs wildcards against the subtree at addr, or None."""
    return _match(subtree(t, addr), r.lhs)


def apply_rule_at(t, r, addr):
    subs = match_at(t, r, addr)
    if subs is None:
        raise ValueError(f"rule {r.name} does not match at {addr}")
    return NsElement((replace(t, addr, graft(p, subs)), c) for c, p in r.rhs)
