"""Planar tree terms, rewriting, overlaps, confluence; the plain-tree
reference in planar.py (match_at, apply_rule_at, ...) is what the annotated
engine is checked against."""

import gc
import heapq
import pickle
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from operad_forge.oracle import free_trees
from operad_forge.treeterm import (LEAF, ConfluenceReport, NsElement,
                                   Overlap, OverlapCheck, RewriteRule,
                                   RewriteSystem,
                                   StepCapExceeded, _annotate, _rewrite_at,
                                   arity, check_confluence, format_element,
                                   format_tree, generate, is_normal,
                                   normalize, overlaps, parse_tree,
                                   rewrite_once, rule, tree_key)
from operad_forge import bijections as bj, systems, treeterm
from planar import (apply_rule_at, graft, match_at, positions, replace,
                    subtree)


def t(s):
    return parse_tree(s)


def _is_exact(c):
    """The one coefficient rule: an int, or a Fraction that is not integral."""
    return type(c) is (int if c.denominator == 1 else Fraction)


def test_parse_format_roundtrip():
    for s in ("1", "x(1,1)", "y(x(1,1),y(1,1))", "x(y(1,x(1,1)),1)"):
        assert format_tree(t(s)) == s


def test_arity():
    assert arity(LEAF) == 1
    assert arity(t("x(y(1,1),1)")) == 3


def test_positions_are_preorder():
    tree = t("x(y(1,1),x(1,1))")
    assert positions(tree) == [(), (0,), (1,)]


def test_subtree_replace():
    tree = t("x(y(1,1),1)")
    assert subtree(tree, (0,)) == t("y(1,1)")
    assert replace(tree, (0,), LEAF) == t("x(1,1)")


def test_graft_substitutes_leaves_left_to_right():
    tree = t("x(1,y(1,1))")
    assert graft(tree, [t("x(1,1)"), LEAF, t("y(1,1)")]) == \
        t("x(x(1,1),y(1,y(1,1)))")


def test_generate_follows_the_classes():
    grammar = (("S", ("leaf", ("a", "S", "T"))), ("T", ("leaf",)))
    assert generate(grammar, "S", 3) == (t("a(a(1,1),1)"),)
    assert generate(grammar, "T", 3) == ()


def test_equal_grammars_share_one_enumeration():
    g1 = (("F", ("leaf", ("x", "F", "F"))),)
    g2 = (("F", tuple(["leaf", ("x", "F", "F")])),)
    assert g1 is not g2
    assert generate(g1, "F", 6) is generate(g2, "F", 6)


def _reference_generate(grammar, cls, n, memo=None):
    """generate by three nested loops over new trees, with its own memo:
    productions in order, then left arity, left tree and right tree."""
    memo = {} if memo is None else memo
    if (cls, n) not in memo:
        out = []
        for prod in dict(grammar)[cls]:
            if prod == "leaf":
                if n == 1:
                    out.append(LEAF)
                continue
            op, lc, rc = prod
            for k in range(1, n):
                rights = _reference_generate(grammar, rc, n - k, memo)
                for left in _reference_generate(grammar, lc, k, memo):
                    for right in rights:
                        out.append((op, left, right))
        memo[cls, n] = tuple(out)
    return memo[cls, n]


def _free_grammar(ops):
    return (("F", ("leaf",) + tuple((op, "F", "F") for op in ops)),)


_LISTING_CASES = (
    [(name, spec.grammar, 9) for name, spec in systems._SYSTEMS.items()]
    + [("free" + "".join(ops), _free_grammar(ops), 7)
       for ops in (("x", "y"), ("y", "x"), ("a", "b", "c"))])


@pytest.mark.parametrize("name,grammar,max_n", _LISTING_CASES,
                         ids=[c[0] for c in _LISTING_CASES])
def test_generate_lists_the_reference_order_and_shares_its_children(
        name, grammar, max_n):
    classes = [c for c, _ in grammar]
    ids = {}
    for n in range(1, max_n + 1):
        for c in classes:
            got = generate(grammar, c, n)
            assert got == _reference_generate(grammar, c, n), (c, n)
            ids[c, n] = {id(u) for u in got}
    # every child is the very object listed at its class and arity
    for (c, n), members in ids.items():
        prods = [p for p in dict(grammar)[c] if p != "leaf"]
        for u in generate(grammar, c, n):
            if u == LEAF:
                continue
            k = arity(u[1])
            assert any(op == u[0] and id(u[1]) in ids[lc, k]
                       and id(u[2]) in ids[rc, n - k]
                       for op, lc, rc in prods), (c, n, format_tree(u))


def test_match_at_binds_leaves():
    r = rule("r", "x(1,y(1,1))", [(1, "y(x(1,1),1)")])
    tree = t("x(y(1,1),y(x(1,1),1))")
    bind = match_at(tree, r, ())
    assert bind == [t("y(1,1)"), t("x(1,1)"), LEAF]
    other = rule("o", "y(1,1)", [(1, "x(1,1)")])
    assert match_at(tree, other, ()) is None


def test_apply_rule_preserves_arity():
    zin = systems.system("Zin")
    tree = t("x(1,y(x(1,1),1))")
    out = apply_rule_at(tree, zin.rules[0], ())
    for term in out:
        assert arity(term) == 4


def test_rewrite_once_uses_first_rule_first_position():
    zin = systems.system("Zin")
    tree = t("x(1,y(1,y(1,1)))")
    # zin1 matches at the root; the single-term reduct is y(x(1,1),y(1,1))
    out = rewrite_once(tree, zin)
    assert out == NsElement([(t("y(x(1,1),y(1,1))"), Fraction(1))])


def test_normalize_zinbiel_square_cube():
    zin = systems.system("Zin")
    e = NsElement([(t("x(1,x(1,1))"), Fraction(1))])
    nf = normalize(e, zin)
    assert nf == NsElement([(t("x(y(1,1),1)"), Fraction(1)),
                            (t("x(x(1,1),1)"), Fraction(1))])


def test_normalize_is_idempotent():
    zin = systems.system("Zin")
    e = NsElement([(t("y(1,y(1,y(1,1)))"), Fraction(1))])
    nf = normalize(e, zin)
    assert normalize(nf, zin) == nf
    assert all(is_normal(term, zin) for term in nf)


# a looping pair of rules never terminates
_LOOP = RewriteSystem("Loop", (rule("ab", "x(1,1)", [(1, "y(1,1)")]),
                               rule("ba", "y(1,1)", [(1, "x(1,1)")])), 10)


def test_step_cap(monkeypatch):
    monkeypatch.setattr(treeterm, "_STEP_CAP", 50)
    with pytest.raises(StepCapExceeded, match="no fixed point within 50 steps"):
        normalize(NsElement([(t("x(1,1)"), Fraction(1))]), _LOOP)


def test_zin_overlap_inventory():
    zin = systems.system("Zin")
    got = {(o.rule_i.name, o.rule_j.name, format_tree(o.tree))
           for o in overlaps(zin, 5)}
    assert got == {
        ("zin1", "zin3", "x(1,y(1,y(1,1)))"),
        ("zin2", "zin1", "x(1,x(1,y(1,1)))"),
        ("zin2", "zin2", "x(1,x(1,x(1,1)))"),
        ("zin3", "zin3", "y(1,y(1,y(1,1)))"),
    }


def test_flex_overlap_inventory():
    flex = systems.system("Flex")
    got = {(o.rule_i.name, o.rule_j.name, format_tree(o.tree))
           for o in overlaps(flex, 7)}
    assert got == {
        ("flex1", "flex1", "y(1,y(1,y(1,1)))"),
        ("flex1", "flex2", "y(1,y(1,x(1,x(1,1))))"),
    }


@pytest.mark.parametrize("name,cap", [("Zin", 6), ("Flex", 6),
                                      ("AntiFlex", 6), ("L", 6)])
def test_confluence(name, cap):
    report = check_confluence(systems.system(name, max_arity=cap), cap)
    assert report.passed
    assert all(c.joinable for c in report.checks)


def test_bicom_confluence_and_generative_overlaps():
    bicom = systems.system("Bicom", max_arity=8)
    report = check_confluence(bicom, 7)
    assert report.passed
    names = {(c.overlap.rule_i.name, c.overlap.rule_j.name)
             for c in report.checks}
    # the overlaps that generate the next rules in the two families
    assert ("g1", "f0") in names or ("g0", "f0") in names
    assert ("f1", "g0") in names or ("f0", "g0") in names


def test_sign_flipped_zin_is_not_confluent():
    zin = systems.system("Zin")
    bad3 = rule("bad3", "y(1,y(1,1))",
                [(1, "y(1,x(1,1))"), (1, "y(y(1,1),1)")])
    bad = RewriteSystem("ZinBad", (zin.rules[0], zin.rules[1], bad3),
                        zin.arity_cap)
    assert not check_confluence(bad, 6).passed


def test_format_element_orders_terms():
    e = NsElement([(t("y(1,1)"), Fraction(-1)), (t("x(1,1)"), Fraction(2))])
    assert format_element(e) == "+2*x(1,1)-1*y(1,1)"


def test_bicom_refuses_trees_above_its_cap():
    # f_9 has arity 12; the default Bicom system keeps the rules up to arity 10
    lhs = systems._bicom_rule(9, "x").lhs
    bicom = systems.system("Bicom")
    assert bicom.arity_cap == 10
    for call in (lambda: is_normal(lhs, bicom),
                 lambda: normalize(NsElement([(lhs, 1)]), bicom),
                 lambda: rewrite_once(lhs, bicom)):
        with pytest.raises(ValueError, match="arity 12 exceeds the arity cap 10"):
            call()
    assert not is_normal(lhs, systems.system("Bicom", max_arity=12))


def test_bicom_accepts_trees_at_its_cap():
    bicom = systems.system("Bicom", max_arity=5)
    assert not is_normal(systems._bicom_rule(2, "y").lhs, bicom)
    assert is_normal(t("x(1,x(1,x(1,x(1,1))))"), bicom)


def _f0_over_g8():
    """An arity-13 tree with f_0 at the root and g_8's lhs as first argument."""
    return graft(systems._bicom_rule(0, "x").lhs,
                 [systems._bicom_rule(8, "y").lhs, LEAF, LEAF])


def test_bicom_rewrites_above_its_cap_like_the_whole_family():
    # the default system lacks g_8, but f_0 comes first in the family's order
    tree = _f0_over_g8()
    assert arity(tree) == 13
    bicom, full = systems.system("Bicom"), systems.system("Bicom", max_arity=13)
    assert not is_normal(tree, bicom)
    assert rewrite_once(tree, bicom) == rewrite_once(tree, full)


def test_bicom_refuses_a_normal_form_above_its_cap():
    e = NsElement([(_f0_over_g8(), 1)])
    assert normalize(e, systems.system("Bicom", max_arity=13))  # keeps a term
    with pytest.raises(ValueError, match="arity 13 exceeds the arity cap 10"):
        normalize(e, systems.system("Bicom"))


# An arity-7 redex of Bicom's f family and its one reduct, both above cap 6.
_B7_REDEX = "x(1,x(1,x(1,x(1,x(1,y(1,1))))))"
_B7_REDUCT = "x(1,x(1,x(1,x(1,y(x(1,1),1)))))"
_CAP_REFUSAL = "arity 7 exceeds the arity cap 6 of system Bicom"


@pytest.mark.parametrize("terms, want", [
    ([("x(1,x(1,x(1,x(1,x(1,x(1,1))))))", 1)], _CAP_REFUSAL),  # normal
    ([(_B7_REDEX, 1)], _CAP_REFUSAL),  # its normal form is above the cap
    ([(_B7_REDEX, 1), ("x(1,x(1,x(1,x(1,1))))", 2),
      ("x(1,x(1,x(1,y(1,1))))", -1)], _CAP_REFUSAL),
    # the arity-7 terms cancel before the pending normal one is popped
    ([(_B7_REDEX, 1), (_B7_REDUCT, -1), ("x(1,x(1,x(1,x(1,1))))", 2),
      ("x(1,x(1,x(1,y(1,1))))", -1)],
     "+2*x(1,x(1,x(1,x(1,1))))-1*y(x(1,x(1,x(1,1))),1)"),
], ids=["normal", "redex", "mixed", "mixed and cancelled"])
def test_a_capped_system_refuses_a_pending_normal_term_above_its_cap(terms, want):
    # a normal term above the cap is the one normal term that enters the
    # heap: it is refused when popped, but only if it is still pending
    e = NsElement([(t(s), c) for s, c in terms])
    try:
        got = format_element(normalize(e, systems.system("Bicom", max_arity=6)))
    except ValueError as err:
        got = str(err)
    assert got == want


def test_overlaps_refuse_arity_above_the_cap():
    bicom = systems.system("Bicom", max_arity=6)
    with pytest.raises(ValueError, match="max_arity 7 exceeds the arity cap 6"):
        overlaps(bicom, 7)
    with pytest.raises(ValueError, match="exceeds the arity cap"):
        check_confluence(bicom, 7)
    assert check_confluence(bicom, 6).passed


def test_add_keeps_fractions_exact():
    c = Fraction(2, 3)
    e = NsElement()
    e.add(t("x(1,1)"), c)
    assert e[t("x(1,1)")] is c
    e.add(t("x(1,1)"), 1)
    e.add(t("y(1,1)"), Fraction(1, 2))
    e.add(t("x(y(1,1),1)"), -4)
    assert e == {t("x(1,1)"): Fraction(5, 3), t("y(1,1)"): Fraction(1, 2),
                 t("x(y(1,1),1)"): -4}
    assert all(_is_exact(v) for v in e.values())
    e.add(t("y(1,1)"), Fraction(-1, 2))
    assert t("y(1,1)") not in e


def test_add_keeps_an_integral_sum_as_an_int():
    e = NsElement()
    e.add(t("x(1,1)"), Fraction(1, 2))
    e.add(t("x(1,1)"), Fraction(1, 2))
    assert type(e[t("x(1,1)")]) is int and e[t("x(1,1)")] == 1
    e.add(t("y(1,1)"), Fraction(4, 2))
    e.add(t("y(1,1)"), True)
    assert type(e[t("y(1,1)")]) is int and e[t("y(1,1)")] == 3


def test_a_rule_refuses_an_inexact_coefficient():
    # 0.1 would be stored as 3602879701896397/36028797018963968
    for c in (0.1, "1/3"):
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            rule("r", "x(1,1)", [(c, "y(1,1)")])
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            RewriteRule("r", t("x(1,1)"), ((c, t("y(1,1)")),))


def test_a_rule_stores_each_coefficient_exactly():
    r = RewriteRule("r", t("x(1,x(1,1))"), ((Fraction(2), t("x(x(1,1),1)")),
                                            (Fraction(1, 2), t("y(1,y(1,1))"))))
    assert [type(c) for c, _ in r.rhs] == [int, Fraction]
    assert r == RewriteRule("r", r.lhs, ((2, r.rhs[0][1]), r.rhs[1]))


def test_ns_element_refuses_a_float_or_a_str_coefficient():
    # a float or a str would be read as some other number (0.1 is not 1/10)
    for c in (0.1, "1/2"):
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            NsElement([(t("x(1,1)"), c)])


def test_normalize_converts_its_input_like_ns_element():
    zin = systems.system("Zin")
    raw = {t("x(1,x(1,1))"): Fraction(1, 2), t("y(1,y(1,1))"): 0,
           t("x(1,y(1,1))"): 2}
    got = normalize(raw, zin)
    assert got == normalize(NsElement(raw.items()), zin)
    assert all(_is_exact(c) for c in got.values())
    for c in ("1/2", 0.1):
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            normalize({t("x(1,x(1,1))"): c}, zin)
    # a zero term is dropped, not rewritten into zero entries
    raw[t("x(1,x(1,1))")] = Fraction(0)
    got = normalize(raw, zin)
    assert got == normalize(NsElement(raw.items()), zin)
    assert got == {t("y(x(1,1),1)"): 2}


# "xy" and "" too: an annotated node sorts like tree_key whatever its labels
_LABELS = ("x", "y", "z", "t", "xy", "")


@st.composite
def _trees(draw, n=None):
    """A planar tree of arity n, drawn from 1-7 if n is None."""
    if n is None:
        n = draw(st.integers(1, 7))
    if n == 1:
        return LEAF
    k = draw(st.integers(1, n - 1))
    return (draw(st.sampled_from(_LABELS)), draw(_trees(k)), draw(_trees(n - k)))


@given(st.lists(_trees(), max_size=20))
@settings(max_examples=200, deadline=None)
def test_heap_key_sorts_like_tree_key(trees):
    zin = systems.system("Zin")
    nodes = sorted(_annotate(u, zin) for u in trees)
    assert [u[6] for u in nodes] == sorted(trees, key=tree_key)


# --- the engine before one-walk matching, kept as a reference ----------------
# It tries every rule at every position through match_at and rescans the whole
# sorted working set on every step.  The engine must take exactly its steps.


def _reference_rewrite_once(tree, sys):
    addrs = positions(tree)
    if sys.arity_cap is not None and len(addrs) >= sys.arity_cap:
        raise ValueError("above the arity cap")
    for r in sys.rules:
        for addr in addrs:
            if match_at(tree, r, addr) is not None:
                return apply_rule_at(tree, r, addr)
    return None


def _reference_normalize(e, sys, step_cap=10_000):
    """The normal form and the number of steps taken to reach it."""
    work = NsElement(e.items())
    steps = 0
    while True:
        pending = None
        for u in sorted(work, key=tree_key):
            step = _reference_rewrite_once(u, sys)
            if step is not None:
                pending = (u, step)
                break
        if pending is None:
            return work, steps
        steps += 1
        if steps > step_cap:
            raise StepCapExceeded(
                f"no fixed point within {step_cap} steps in system {sys.name}")
        u, step = pending
        c = work.pop(u)
        for v, d in step.items():
            work.add(v, c * d)


def _assert_same_normalize(e, sys):
    """Same normal form, reached in exactly the reference's number of steps."""
    want, steps = _reference_normalize(e, sys)
    got = normalize(e, sys)
    assert got == want
    assert all(_is_exact(c) for c in got.values())
    if steps:
        with mock.patch.object(treeterm, "_STEP_CAP", steps):
            assert normalize(e, sys) == want
        with mock.patch.object(treeterm, "_STEP_CAP", steps - 1):
            with pytest.raises(StepCapExceeded):
                normalize(e, sys)


def _zin_bad():
    zin = systems.system("Zin")
    bad3 = rule("bad3", "y(1,y(1,1))",
                [(1, "y(1,x(1,1))"), (1, "y(y(1,1),1)")])
    return RewriteSystem("ZinBad", (zin.rules[0], zin.rules[1], bad3))


def _zin_half():
    """Zin with zin3's coefficients made non-integral."""
    zin = systems.system("Zin")
    half3 = rule("half3", "y(1,y(1,1))", [(Fraction(1, 2), "y(1,x(1,1))"),
                                          (Fraction(-2, 3), "y(y(1,1),1)")])
    return RewriteSystem("ZinHalf", (zin.rules[0], zin.rules[1], half3))


def _zin_repeated():
    """Zin with zin3's rhs written with a repeated tree and a pair of terms
    that cancel: the compiled reducts must merge them."""
    zin = systems.system("Zin")
    rep3 = rule("rep3", "y(1,y(1,1))", [(-1, "y(1,x(1,1))"), (2, "y(y(1,1),1)"),
                                        (1, "x(x(1,1),1)"), (-1, "y(y(1,1),1)"),
                                        (-1, "x(x(1,1),1)")])
    return RewriteSystem("ZinRepeated", (zin.rules[0], zin.rules[1], rep3))


_REFERENCE_SYSTEMS = {
    "Zin": (systems.system("Zin"), ("x", "y")),
    "Flex": (systems.system("Flex"), ("x", "y")),
    "AntiFlex": (systems.system("AntiFlex"), ("x", "y")),
    "L": (systems.system("L"), ("z", "t")),
    "Bicom": (systems.system("Bicom", max_arity=6), ("x", "y")),
    "ZinBad": (_zin_bad(), ("x", "y")),
    "ZinHalf": (_zin_half(), ("x", "y")),
    "ZinRepeated": (_zin_repeated(), ("x", "y")),
    "partialFlex": (RewriteSystem("partial", (systems._flex_rule1(1),)),
                    ("x", "y")),
}


# Labels that repr must escape, or that are two letters long: the compiled
# reducts write each label into their source as a literal.
_QUOTED_LABELS = {"a": "'", "b": '"', "c": "\\", "d": "xy"}


def _quoted(text):
    """parse_tree(text) with the labels a, b, c, d renamed by _QUOTED_LABELS."""
    def relabel(u):
        return u if u == LEAF else (_QUOTED_LABELS[u[0]], relabel(u[1]),
                                    relabel(u[2]))
    return relabel(parse_tree(text))


def _quoted_system():
    """Rules over the quoted labels that each lower the sum, over the
    internal nodes, of the right subtree's arity, so rewriting terminates."""
    rules = [("q1", "a(1,b(1,1))", [(1, "b(a(1,1),1)")]),
             ("q2", "b(1,c(1,1))", [(1, "d(b(1,1),1)"), (-1, "c(c(1,1),1)")]),
             ("q3", "c(1,d(1,1))", [(2, "a(d(1,1),1)")]),
             ("q4", "d(1,a(1,1))", [(Fraction(1, 2), "d(a(1,1),1)")]),
             ("q5", "d(a(1,1),b(1,1))", [(1, "d(d(a(1,1),1),1)")])]
    return RewriteSystem("Quoted", tuple(
        RewriteRule(name, _quoted(lhs),
                    tuple((Fraction(c), _quoted(p)) for c, p in rhs))
        for name, lhs, rhs in rules))


@pytest.mark.parametrize("name", ["Zin", "ZinHalf", "Bicom", "Quoted"])
def test_reducts_graft_the_redex_wildcards_into_the_rhs(name):
    pool = [LEAF, t("x(1,1)"), t("y(1,x(1,1))")]
    sys = (_quoted_system() if name == "Quoted"
           else _REFERENCE_SYSTEMS[name][0])
    for r, reducts in zip(sys.rules, sys.reducts, strict=True):
        assert [c for c, _ in reducts] == [c for c, _ in r.rhs]
        assert all(_is_exact(c) for c, _ in reducts)
        for i in range(3):
            subs = [pool[(i + j) % 3] for j in range(r.arity)]
            redex = _annotate(graft(r.lhs, subs), sys)
            assert [build(redex) for _, build in reducts] == \
                [_annotate(graft(p, subs), sys) for _, p in r.rhs]


def test_quoted_labels_rewrite_like_the_planar_reference():
    sys = _quoted_system()
    for n in range(1, 6):
        for tree in free_trees(n, tuple(_QUOTED_LABELS.values())):
            assert rewrite_once(tree, sys) == _reference_rewrite_once(tree, sys)
            _assert_same_normalize(NsElement([(tree, Fraction(1))]), sys)


def test_a_label_that_is_not_a_str_is_not_compiled():
    sys = RewriteSystem("Int", (RewriteRule("i", (0, 1, (1, 1, 1)),
                                            ((Fraction(1), (1, (0, 1, 1), 1)),)),))
    with pytest.raises(TypeError, match="label 1 is not a str"):
        sys.reducts


def test_reducts_merge_the_repeated_trees_of_an_rhs():
    sys = _zin_repeated()
    assert [c for c, _ in sys.reducts[2]] == [-1, 1]
    assert [c for c, _ in sys.reducts[2]] == \
        [c for c, _ in systems.system("Zin").reducts[2]]
    assert check_confluence(sys, 6).passed


def test_a_system_with_compiled_reducts_still_pickles():
    sys = _zin_half()
    assert sys.reducts
    trees = [tree for n in range(1, 7) for tree in free_trees(n, ("x", "y"))]
    verdicts = [is_normal(tree, sys) for tree in trees]
    forms = [normalize({tree: 1}, sys) for tree in trees]
    assert "slots" in vars(sys) and "nodes" in vars(sys)
    copy = pickle.loads(pickle.dumps(sys))
    assert copy == sys and "reducts" not in vars(copy)
    # no pinned trees travel along
    assert "slots" not in vars(copy) and "nodes" not in vars(copy)
    assert [[c for c, _ in rs] for rs in copy.reducts] == \
        [[c for c, _ in rs] for rs in sys.reducts]
    assert [is_normal(tree, copy) for tree in trees] == verdicts
    assert [normalize({tree: 1}, copy) for tree in trees] == forms


def test_a_rule_shared_by_two_systems_rewrites_by_each_automaton():
    # ZinBad reuses zin1 and zin2, whose builders must read ZinBad's states
    zin, bad = systems.system("Zin"), _zin_bad()
    assert bad.rules[0] is zin.rules[0] and bad.rules[1] is zin.rules[1]
    trees = [tree for n in range(1, 7) for tree in free_trees(n, ("x", "y"))]
    for tree in trees:
        e = NsElement([(tree, Fraction(1))])
        for sys in (bad, zin):
            assert normalize(e, sys) == _reference_normalize(e, sys)[0]
    for sys in (bad, zin):
        copy = pickle.loads(pickle.dumps(sys))
        assert copy == sys and "reducts" not in vars(copy)
        for tree in trees:
            e = NsElement([(tree, Fraction(1))])
            assert normalize(e, copy) == normalize(e, sys)


@pytest.mark.parametrize("name", sorted(_REFERENCE_SYSTEMS))
def test_engine_matches_the_reference_on_every_free_tree(name):
    sys, ops = _REFERENCE_SYSTEMS[name]
    for n in range(1, 7):
        for tree in free_trees(n, ops):
            once = rewrite_once(tree, sys)
            assert once == _reference_rewrite_once(tree, sys), format_tree(tree)
            assert once is None or all(_is_exact(c) for c in once.values())
            assert is_normal(tree, sys) == (once is None)
            _assert_same_normalize(NsElement([(tree, Fraction(1))]), sys)


def test_reference_systems_are_not_all_confluent():
    assert not check_confluence(_REFERENCE_SYSTEMS["ZinBad"][0], 6).passed
    assert not check_confluence(_REFERENCE_SYSTEMS["partialFlex"][0], 4).passed


@pytest.mark.parametrize("name", sorted(_REFERENCE_SYSTEMS))
def test_rewrite_at_is_apply_rule_at_and_refuses_a_rule_that_does_not_match(name):
    # every rule at every position of every free tree: the same reducts,
    # annotated as _annotate would, where the rule matches, else refused
    sys, ops = _REFERENCE_SYSTEMS[name]
    for n in range(2, 6):
        for tree in free_trees(n, ops):
            u = _annotate(tree, sys)
            for k, r in enumerate(sys.rules):
                for addr in positions(tree):
                    if match_at(tree, r, addr) is None:
                        with pytest.raises(ValueError, match=re.escape(
                                f"rule {r.name} does not match at {addr}")):
                            _rewrite_at(u, sys, k, addr)
                        continue
                    got = _rewrite_at(u, sys, k, addr)
                    assert all(v == _annotate(v[6], sys) for v, _ in got)
                    assert NsElement((v[6], c) for v, c in got) \
                        == apply_rule_at(tree, r, addr)


def _reference_unify(p, q):
    """The least common refinement of two linear patterns, or None."""
    if p == LEAF:
        return q
    if q == LEAF:
        return p
    if p[0] != q[0]:
        return None
    l, r = _reference_unify(p[1], q[1]), _reference_unify(p[2], q[2])
    return None if l is None or r is None else (p[0], l, r)


def _reference_overlaps(sys, max_arity):
    """overlaps by plain trees: each lhs unified into each preorder position
    of each lhs, the whole tree measured by arity."""
    out = []
    for i, ri in enumerate(sys.rules):
        for j, rj in enumerate(sys.rules):
            for addr in positions(ri.lhs):
                if addr == () and not i < j:
                    continue
                sup = _reference_unify(subtree(ri.lhs, addr), rj.lhs)
                if sup is None:
                    continue
                w = replace(ri.lhs, addr, sup)
                if arity(w) <= max_arity:
                    out.append(Overlap(ri, rj, w, addr))
    return out


_OVERLAP_CASES = [(name, m) for name in ("Zin", "Flex", "AntiFlex", "L",
                                         "ZinBad", "partialFlex")
                  for m in range(3, 9)] + [("Bicom", m) for m in range(3, 15)]


@pytest.mark.parametrize("name,max_arity", _OVERLAP_CASES)
def test_overlaps_equal_the_plain_tree_reference(name, max_arity):
    if name == "Bicom":
        sys = systems.system(name, max_arity=max_arity)
    else:
        sys = _REFERENCE_SYSTEMS[name][0]
    got = overlaps(sys, max_arity)
    want = _reference_overlaps(sys, max_arity)
    assert [(o.rule_i.name, o.rule_j.name, o.tree, o.addr) for o in got] == \
        [(o.rule_i.name, o.rule_j.name, o.tree, o.addr) for o in want]


def _reference_confluence(sys, max_arity):
    """check_confluence by plain-tree steps: the reference overlaps, each
    rule applied at its address by apply_rule_at and each side normalized
    on its own."""
    checks = []
    for ov in _reference_overlaps(sys, max_arity):
        left = normalize(apply_rule_at(ov.tree, ov.rule_i, ()), sys)
        right = normalize(apply_rule_at(ov.tree, ov.rule_j, ov.addr), sys)
        diff = NsElement(left.items())
        for tree, c in right.items():
            diff.add(tree, -c)
        checks.append(OverlapCheck(ov, tuple(
            sorted(diff.items(), key=lambda tc: tree_key(tc[0])))))
    return ConfluenceReport(sys.name, max_arity, tuple(checks))


@pytest.mark.parametrize("name,max_arity", [
    ("Zin", 6), ("Flex", 6), ("AntiFlex", 6), ("L", 6), ("Bicom", 6),
    ("Bicom", 9), ("ZinBad", 6), ("ZinHalf", 6), ("ZinRepeated", 6),
    ("partialFlex", 6)])
def test_check_confluence_equals_the_plain_tree_reference(name, max_arity):
    if name in _REFERENCE_SYSTEMS and name != "Bicom":
        sys = _REFERENCE_SYSTEMS[name][0]
    else:
        sys = systems.system(name, max_arity=max_arity)
    report = check_confluence(sys, max_arity)
    assert bool(report.checks) == (name != "L")  # t(1,z(1,1)) overlaps nothing
    assert report == _reference_confluence(sys, max_arity)
    assert all(_is_exact(c)
               for check in report.checks for _, c in check.difference)


def test_check_confluence_normalizes_once_per_overlap(monkeypatch):
    calls = []
    real = treeterm._normalize

    def counted(work, heap, sys):
        calls.append(len(work))
        return real(work, heap, sys)

    monkeypatch.setattr(treeterm, "_normalize", counted)
    bicom = systems.system("Bicom", max_arity=9)
    report = check_confluence(bicom, 9)
    assert report.passed and len(calls) == len(report.checks) > 0


def test_check_confluence_applies_an_equal_rule_by_its_first_index(monkeypatch):
    zin = systems.system("Zin")
    again = RewriteRule(zin.rules[0].name, zin.rules[0].lhs, zin.rules[0].rhs)
    assert again == zin.rules[0] and again is not zin.rules[0]
    sys = RewriteSystem("ZinTwice", zin.rules + (again,))
    applied = []
    real = treeterm._rewrite_at

    def recorded(u, sys, k, addr):
        applied.append(k)
        return real(u, sys, k, addr)

    monkeypatch.setattr(treeterm, "_rewrite_at", recorded)
    report = check_confluence(sys, 6)
    assert any(c.overlap.rule_i is again or c.overlap.rule_j is again
               for c in report.checks)
    assert len(sys.rules) - 1 not in applied
    assert report == _reference_confluence(sys, 6)


@pytest.mark.parametrize("name", ["Zin", "Flex", "L", "Bicom", "Bicom confluence"])
def test_the_heap_holds_only_terms_to_rewrite_or_refuse(monkeypatch, name):
    # a normal term at or below the cap would only be popped and skipped;
    # entered records each annotated node given to heapify or heappush
    entered = []

    def heapify(heap):
        entered.extend(heap)
        heapq.heapify(heap)

    def heappush(heap, v):
        entered.append(v)
        heapq.heappush(heap, v)

    monkeypatch.setattr(treeterm, "heapify", heapify)
    monkeypatch.setattr(treeterm, "heappush", heappush)
    if name == "Bicom confluence":
        sys = systems.system("Bicom", max_arity=7)
        assert check_confluence(sys, 7).passed
    else:
        sys, ops = _REFERENCE_SYSTEMS[name]
        for n in range(1, 7):
            for tree in free_trees(n, ops):
                normalize(NsElement([(tree, 1)]), sys)
    cap = sys.arity_cap
    assert entered
    assert not [format_tree(u[6]) for u in entered
                if not u[5] and (cap is None or u[7] <= cap)]


def _random_element(draw_terms, ops):
    e = NsElement()
    for n, i, c in draw_terms:
        trees = free_trees(n, ops)
        e.add(trees[i % len(trees)], c)
    return e


_COEFFS = st.one_of(st.integers(-3, 3), st.sampled_from(
    [Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-2, 3)]))
_TERMS = st.lists(st.tuples(st.integers(1, 5), st.integers(0, 10_000),
                            _COEFFS), min_size=1, max_size=6)


@given(st.sampled_from(sorted(_REFERENCE_SYSTEMS)), _TERMS)
@settings(max_examples=150, deadline=None)
def test_engine_matches_the_reference_on_random_elements(name, terms):
    sys, ops = _REFERENCE_SYSTEMS[name]
    _assert_same_normalize(_random_element(terms, ops), sys)


@given(_TERMS, st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_engine_trips_the_step_cap_like_the_reference(terms, step_cap):
    e = _random_element(terms, ("x", "y"))
    assume(any(u != LEAF for u in e))  # every internal node loops
    with mock.patch.object(treeterm, "_STEP_CAP", step_cap):
        try:
            want, _ = _reference_normalize(e, _LOOP, step_cap)
        except StepCapExceeded as err:
            with pytest.raises(StepCapExceeded) as got:
                normalize(e, _LOOP)
            assert str(got.value) == str(err)
        else:
            # internal terms can cancel: -x(1,1) + y(1,1) is 0 after one step
            assert normalize(e, _LOOP) == want
            assert all(u == LEAF for u in want)


@given(st.sampled_from(sorted(_REFERENCE_SYSTEMS)), _TERMS, _TERMS)
@settings(max_examples=150, deadline=None)
def test_normalize_is_linear(name, terms_a, terms_b):
    # check_confluence normalizes a - b once in place of a and b apart;
    # ZinBad and partialFlex are not confluent
    sys, ops = _REFERENCE_SYSTEMS[name]
    a, b = _random_element(terms_a, ops), _random_element(terms_b, ops)
    a_minus_b = NsElement(a.items())
    want = normalize(a, sys)
    for tree, c in b.items():
        a_minus_b.add(tree, -c)
    for tree, c in normalize(b, sys).items():
        want.add(tree, -c)
    assert normalize(a_minus_b, sys) == want


# --- the matching automaton -----------------------------------------------


@pytest.mark.parametrize("name", ["Zin", "Flex", "AntiFlex", "L", "Bicom"])
def test_is_normal_keeps_exactly_the_grammar_normal_forms(name):
    sys = systems.system(name, max_arity=8)
    ops = ("z", "t") if name == "L" else ("x", "y")
    kept = {tree for tree in free_trees(8, ops) if is_normal(tree, sys)}
    assert kept == set(systems.normal_forms(name, 8))


def _matches_somewhere(tree, sys):
    """Some rule matches at some position: every pair tried, nothing kept."""
    return any(match_at(tree, r, addr) is not None
               for r in sys.rules for addr in positions(tree))


def _uncached_verdict(tree, sys):
    """is_normal's outcome, without the automaton or the slots."""
    if _matches_somewhere(tree, sys):
        return False
    n = arity(tree)
    if sys.arity_cap is not None and n > sys.arity_cap:
        return (f"arity {n} exceeds the arity cap {sys.arity_cap} "
                f"of system {sys.name}")
    return True


def _verdict(tree, sys):
    try:
        return is_normal(tree, sys)
    except ValueError as err:
        return str(err)


def _fresh_system(name):
    cached = systems.system(name, max_arity=6)
    return RewriteSystem(cached.name, cached.rules, cached.arity_cap)


_SLOT_SYSTEMS = ("Zin", "Flex", "Bicom")
_UP_TO_7 = [tree for n in range(1, 8) for tree in free_trees(n, ("x", "y"))]


@pytest.mark.parametrize("slots", [3, 7])
@pytest.mark.parametrize("name", _SLOT_SYSTEMS)
def test_is_normal_with_few_slots_matches_an_uncached_walk(name, slots,
                                                           monkeypatch):
    # evictions and collisions on every call; Bicom is cut at arity 6, so a
    # normal tree of arity 7 must still be refused
    monkeypatch.setattr(treeterm, "_SLOTS", slots)
    sys = _fresh_system(name)
    seen = set()
    reused = False
    for tree in _UP_TO_7:
        want = _uncached_verdict(tree, sys)
        assert _verdict(tree, sys) == want, format_tree(tree)  # shared subtrees
        copy = parse_tree(format_tree(tree))  # shares nothing, dropped below
        assert _verdict(copy, sys) == want, format_tree(tree)
        reused |= id(copy) in seen
        seen.add(id(copy))
    assert reused  # a dropped copy's id came back
    trees, states = sys.slots
    assert len(trees) == len(states) == slots
    for i, u in enumerate(trees):
        if u is not None:
            assert id(u) % slots == i
            assert (states[i] < 0) == _matches_somewhere(u, sys)


@given(st.sampled_from(_SLOT_SYSTEMS),
       st.lists(st.tuples(st.integers(0, len(_UP_TO_7) - 1), st.booleans()),
                max_size=40))
@settings(max_examples=100, deadline=None)
def test_is_normal_on_trees_built_and_dropped_matches_an_uncached_walk(
        name, draws):
    # each tree is built afresh and mostly dropped after one call, so the
    # ids of evicted subtrees are handed to new ones
    with mock.patch.object(treeterm, "_SLOTS", 7):
        sys = _fresh_system(name)
        kept = []
        for i, keep in draws:
            tree = parse_tree(format_tree(_UP_TO_7[i]))
            assert _verdict(tree, sys) == _uncached_verdict(tree, sys)
            if keep:
                kept.append(tree)
        for tree in kept:
            assert _verdict(tree, sys) == _uncached_verdict(tree, sys)


def test_is_normal_walks_only_the_children_whose_slot_misses():
    calls = []
    inner = treeterm._normal_state

    def counting(*args):
        calls.append(args[0])
        return inner(*args)

    sys = _fresh_system("Zin")
    u = ("y", LEAF, LEAF)
    tree = ("x", u, u)
    with mock.patch.object(treeterm, "_normal_state", counting):
        assert not is_normal(tree, sys)  # zin1 matches at the root
        assert calls == [u]  # the right child hits the slot the left filled
        assert not is_normal(tree, sys)
        assert len(calls) == 1
        assert is_normal(("x", LEAF, LEAF), sys)
        assert len(calls) == 1


@pytest.mark.parametrize("name", _SLOT_SYSTEMS)
def test_is_normal_never_stores_its_argument(name):
    # u matches nowhere, so both children of tree are visited; being one
    # object, they share one slot and cannot evict each other
    sys = _fresh_system(name)
    u = parse_tree("x(y(1,1),1)")
    tree = ("y", u, u)
    assert not _matches_somewhere(u, sys)
    assert _verdict(tree, sys) == _uncached_verdict(tree, sys)
    trees, states = sys.slots
    assert trees[id(tree) % treeterm._SLOTS] is not tree
    i = id(u) % treeterm._SLOTS
    assert trees[i] is u
    assert states[i] == _uncached_annotate(u, sys)[4]


def _uncached_annotate(tree, sys):
    """The annotated node of tree, built by _node alone: no table."""
    if tree == LEAF:
        return treeterm._LEAF
    return treeterm._node(sys.automaton, tree[0], _uncached_annotate(tree[1], sys),
                          _uncached_annotate(tree[2], sys))


def _rewrites(tree, sys):
    """rewrite_once's and normalize's results on tree, or the text of the
    ValueError each raises."""
    out = []
    for call in (rewrite_once, lambda u, s: normalize({u: 1}, s)):
        try:
            out.append(call(tree, sys))
        except ValueError as err:
            out.append(str(err))
    return out


def _uncached_rewrites(trees, sys):
    """_rewrites per tree, every annotation built without the system's nodes."""
    with mock.patch.object(treeterm, "_annotate", _uncached_annotate):
        return [_rewrites(tree, sys) for tree in trees]


@pytest.mark.parametrize("slots", [3, 7])
@pytest.mark.parametrize("name", _SLOT_SYSTEMS)
def test_rewriting_with_few_node_slots_matches_an_uncached_annotation(
        name, slots, monkeypatch):
    # evictions and collisions on every call; Bicom is cut at arity 6, so a
    # normal form of arity 7 must still be refused
    monkeypatch.setattr(treeterm, "_SLOTS", slots)
    sys = _fresh_system(name)
    seen = set()
    reused = False
    for tree, want in zip(_UP_TO_7, _uncached_rewrites(_UP_TO_7, sys)):
        assert _rewrites(tree, sys) == want, format_tree(tree)  # shared subtrees
        copy = parse_tree(format_tree(tree))  # shares nothing, dropped below
        assert _rewrites(copy, sys) == want, format_tree(tree)
        reused |= id(copy) in seen
        seen.add(id(copy))
    assert reused  # a dropped copy's id came back
    assert len(sys.nodes) == slots
    for i, v in enumerate(sys.nodes):
        if v is not treeterm._LEAF:
            assert id(v[6]) % slots == i
            assert v == _uncached_annotate(v[6], sys)
            # read back by identity: the plain tree is the caller's subtree
            assert _annotate(("x", v[6], LEAF), sys)[2] is v


@given(st.sampled_from(_SLOT_SYSTEMS),
       st.lists(st.tuples(st.integers(0, len(_UP_TO_7) - 1), st.booleans()),
                max_size=40))
@settings(max_examples=100, deadline=None)
def test_rewriting_trees_built_and_dropped_matches_an_uncached_annotation(
        name, draws):
    # each tree is built afresh and mostly dropped after one call, so the
    # ids of evicted subtrees are handed to new ones
    with mock.patch.object(treeterm, "_SLOTS", 7):
        sys = _fresh_system(name)
        kept = []
        for i, keep in draws:
            tree = parse_tree(format_tree(_UP_TO_7[i]))
            assert [_rewrites(tree, sys)] == _uncached_rewrites([tree], sys)
            if keep:
                kept.append(tree)
        assert [_rewrites(tree, sys) for tree in kept] == \
            _uncached_rewrites(kept, sys)


def _lhs_subpatterns(sys):
    out = set()

    def collect(p):
        if p != LEAF:
            out.add(p)
            collect(p[1])
            collect(p[2])

    for r in sys.rules:
        collect(r.lhs)
    return out


def _eager_closure(sys, ops):
    """Every set of lhs subpatterns matched at the root of some tree."""
    patterns = _lhs_subpatterns(sys)
    states = {frozenset()}
    while True:
        new = {frozenset(p for p in patterns if p[0] == op
                         and (p[1] == LEAF or p[1] in a)
                         and (p[2] == LEAF or p[2] in b))
               for op in ops for a in states for b in states} - states
        if not new:
            return states
        states |= new


def _state_of(tree, auto):
    """The tree's state, read off the filled table without filling it."""
    if tree == LEAF:
        return 0
    return dict.__getitem__(auto, (tree[0], _state_of(tree[1], auto),
                                   _state_of(tree[2], auto)))


def _feed(sys, trees):
    """rewrite_once and is_normal on every tree; a truncated system may
    refuse only trees above its cap."""
    for tree in trees:
        for call in (rewrite_once, is_normal):
            try:
                call(tree, sys)
            except ValueError:
                assert arity(tree) > sys.arity_cap


_CLOSURE_SYSTEMS = {
    "Zin": (systems.system("Zin"), ("x", "y"), 6),
    "Flex": (systems.system("Flex"), ("x", "y"), 6),
    "AntiFlex": (systems.system("AntiFlex"), ("x", "y"), 6),
    "L": (systems.system("L"), ("z", "t"), 3),
    "Bicom": (systems.system("Bicom", max_arity=6), ("x", "y"), 41),
}


@pytest.mark.parametrize("name", sorted(_CLOSURE_SYSTEMS))
def test_automaton_table_stays_inside_the_eager_closure(name):
    cached, ops, size = _CLOSURE_SYSTEMS[name]
    sys = RewriteSystem(cached.name, cached.rules, cached.arity_cap)  # fresh table
    closure = _eager_closure(sys, ops)
    assert len(closure) == size
    trees = [tree for n in range(1, 8) for tree in free_trees(n, ops)]
    _feed(sys, trees)
    auto = sys.automaton
    assert set(auto.states.values()) <= closure
    assert {auto.states[s] for s in auto.values()} <= closure
    patterns = _lhs_subpatterns(sys)
    for tree in trees:  # each state is what matches at the tree's root
        s = _state_of(tree, auto)
        assert auto.states[s] == {p for p in patterns if match_at(
            tree, RewriteRule("p", p, ()), ()) is not None}
        mask = sum(1 << i for i, r in enumerate(sys.rules)
                   if match_at(tree, r, ()) is not None)
        assert auto.masks.get(s, 0) == mask and (s < 0) == (mask != 0)
    filled = dict(auto)
    _feed(sys, trees)
    assert auto == filled
    # a label that no lhs carries acts like a leaf and is never stored
    _feed(sys, [tree for n in range(1, 6) for tree in free_trees(n, ops + ("w",))])
    assert auto == filled


# --- the collector pause ----------------------------------------------------


def _fresh(name, cap=None):
    """systems.system(name, cap) with nothing compiled or filled yet."""
    cached = systems.system(name, max_arity=cap)
    return RewriteSystem(cached.name, cached.rules, cached.arity_cap)


def test_reducts_leave_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        for name, cap in (("Zin", None), ("Flex", None), ("Bicom", 9)):
            _fresh(name, cap).reducts  # compiled, then dropped with the system
        assert gc.collect() == 0
    finally:
        gc.enable()


def _forms(name, fn=None):
    """(tree,) per normal form of arity 6, or (fn(tree),) when fn is given."""
    return [(t if fn is None else fn(t),) for t in systems.normal_forms(name, 6)]


# Each paused entry point, with a function that builds its calls' arguments
# before the collector is switched off.
_PAUSED_CALLS = {
    "generate": (generate, lambda: [
        ((("Fresh", ("leaf", ("v", "Fresh", "Fresh"))),), "Fresh", 7)]),
    "normalize": (normalize, lambda: [
        (NsElement([(tree, 1)]), sys)
        for sys in (_fresh("Zin"), _fresh("Flex"), _fresh("Bicom", 6))
        for tree in free_trees(6)]),
    "check_confluence": (check_confluence, lambda: [
        (_fresh("Zin"), 6), (_fresh("Flex"), 6), (_fresh("Bicom", 7), 7)]),
    "zin_to_pbt": (bj.zin_to_pbt, lambda: _forms("Zin")),
    "pbt_to_zin": (bj.pbt_to_zin, lambda: _forms("Zin", bj.zin_to_pbt)),
    "bicom_to_word": (bj.bicom_to_word, lambda: _forms("Bicom")),
    "word_to_bicom": (bj.word_to_bicom, lambda: _forms("Bicom", bj.bicom_to_word)),
    "flex_to_L": (bj.flex_to_L, lambda: _forms("Flex")),
    "L_to_flex": (bj.L_to_flex, lambda: _forms("Flex", bj.flex_to_L)),
}


@pytest.mark.parametrize("name", sorted(_PAUSED_CALLS))
def test_paused_calls_leave_no_reference_cycle(name):
    # the soundness of the pause: what a paused call builds, reference
    # counting frees, so a collection during the call would find nothing
    fn, make_calls = _PAUSED_CALLS[name]
    calls = make_calls()
    gc.collect()
    gc.disable()
    try:
        results = [fn(*args) for args in calls]
        del calls, results
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("call, raises", [
    (lambda: normalize(NsElement([(t("x(x(1,1),1)"), 1)]), systems.system("Zin")), None),
    (lambda: generate((("N", ("leaf", ("x", "N", "N"))),), "N", 5), None),
    (lambda: normalize(NsElement([(t("x(1,1)"), 1)]), _LOOP), StepCapExceeded),
    (lambda: bj.zin_to_pbt(t("x(1,x(1,1))")), ValueError),  # a redex
], ids=["normalize", "generate", "step cap", "refused tree"])
def test_paused_calls_restore_the_collector(monkeypatch, call, raises, enabled):
    monkeypatch.setattr(treeterm, "_STEP_CAP", 50)
    if not enabled:
        gc.disable()
    try:
        if raises is None:
            call()
        else:
            with pytest.raises(raises):
                call()
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
