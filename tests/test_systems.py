"""The concrete rewriting systems, their grammars, and closed formulas."""

from dataclasses import replace
from math import comb

import pytest

from operad_forge import systems
from operad_forge.exactlin import span
from operad_forge.oracle import free_trees
from operad_forge.treeterm import (NsElement, arity, format_element,
                                   format_tree, is_normal, parse_tree)

ZIN_DIMS = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
BICOM_DIMS = [1, 2, 6, 20, 70, 252, 924, 3432, 12870, 48620]
FLEX_DIMS = [1, 2, 7, 30, 143, 728, 3876, 21318, 120175, 690690]


def _as_element(r):
    """The rule r's lhs - rhs with all wildcards instantiated by leaves."""
    e = NsElement([(r.lhs, 1)])
    for c, p in r.rhs:
        e.add(p, -c)
    return e


def test_zin_rules():
    zin = systems.system("Zin")
    assert [r.name for r in zin.rules] == ["zin1", "zin2", "zin3"]
    assert [len(r.rhs) for r in zin.rules] == [1, 2, 2]


@pytest.mark.parametrize("name", ["Flex", "AntiFlex"])
def test_flex_rules_hold_only_ints(name):
    # the second rule is derived by dividing by a leading coefficient
    rules = systems.system(name).rules
    assert [r.name for r in rules] == (["flex1", "flex2"] if name == "Flex"
                                       else ["aflex1", "aflex2"])
    assert all(type(c) is int for r in rules for c, _ in r.rhs)


def test_bicom_rule_family_instantiation():
    bicom = systems.system("Bicom", max_arity=8)
    names = [r.name for r in bicom.rules]
    assert names[:4] == ["f0", "g0", "f1", "g1"]
    # f_n and g_n rewrite arity-(n+3) trees
    for r in bicom.rules:
        n = int(r.name[1:])
        assert arity(r.lhs) == n + 3


def test_bicom_base_rules():
    bicom = systems.system("Bicom")
    f0, g0 = bicom.rules[0], bicom.rules[1]
    assert format_tree(f0.lhs) == "x(1,y(1,1))"
    assert format_element(_as_element(f0)) == \
        "+1*x(1,y(1,1))-1*y(x(1,1),1)"
    assert format_tree(g0.lhs) == "y(1,x(1,1))"
    assert format_element(_as_element(g0)) == \
        "-1*x(y(1,1),1)+1*y(1,x(1,1))"


def test_flex_rule2_is_derived_and_has_nine_terms():
    flex = systems.system("Flex")
    r2 = flex.rules[1]
    assert format_tree(r2.lhs) == "y(1,x(1,x(1,1)))"
    assert len(r2.rhs) == 9
    # the full identity, in deterministic term order
    assert format_element(_as_element(r2)) == (
        "-1*x(1,x(1,y(1,1)))+1*x(1,x(y(1,1),1))+1*x(x(1,1),y(1,1))"
        "-1*x(x(1,y(1,1)),1)+1*x(x(y(1,1),1),1)-1*x(y(1,1),x(1,1))"
        "+1*y(1,x(1,x(1,1)))-1*y(1,x(x(1,1),1))+1*y(x(1,x(1,1)),1)"
        "-1*y(x(x(1,1),1),1)")


def test_antiflex_rules():
    flex = systems.system("Flex")
    anti = systems.system("AntiFlex")
    # rule 1 flips the sign of the right-hand side; the derived rule 2
    # coincides with the flexible one (the signs cancel in the overlap)
    assert anti.rules[0].lhs == flex.rules[0].lhs
    assert anti.rules[0].rhs != flex.rules[0].rhs
    assert anti.rules[1].lhs == flex.rules[1].lhs
    assert len(anti.rules[1].rhs) == 9


def test_flex_rule2_derivation_refuses_a_missing_leading_monomial(monkeypatch):
    lhs = parse_tree("y(1,x(1,x(1,1)))")
    real = systems.check_confluence

    def without_lhs(sys, max_arity):
        report = real(sys, max_arity)
        (check,) = report.checks
        diff = tuple((t, c) for t, c in check.difference if t != lhs)
        return replace(report, checks=(replace(check, difference=diff),))

    monkeypatch.setattr(systems, "check_confluence", without_lhs)
    with pytest.raises(RuntimeError, match="expected leading monomial missing"):
        systems._derive_flex_rule2(systems._flex_rule1(1), "flex2")


def test_one_system_object_per_name_and_cap():
    assert (systems.system("Flex") is systems.system("Flex", 6)
            is systems.system("Flex", max_arity=6))
    assert (systems.system("Bicom") is systems.system("Bicom", 10)
            is systems.system("Bicom", max_arity=10))
    assert systems.system("Bicom", 8) is not systems.system("Bicom")


@pytest.mark.parametrize("call", [
    lambda: systems.system("Nope"),
    lambda: systems.system("Nope", max_arity=5),
    lambda: systems.normal_forms("Nope", 3),
    lambda: systems.normal_forms("Nope", 0),
    lambda: systems.dim_formula("Nope", 3),
])
def test_unknown_system_names_are_refused(call):
    with pytest.raises(KeyError) as info:
        call()
    assert info.value.args == ("unknown system 'Nope'",)


def test_dim_formula_checks_the_arity_before_the_name():
    with pytest.raises(ValueError, match="arity must be at least 1"):
        systems.dim_formula("Nope", 0)


def test_l_system_single_rule():
    lsys = systems.system("L")
    assert len(lsys.rules) == 1
    assert format_element(_as_element(lsys.rules[0])) == \
        "+1*t(1,z(1,1))-1*z(t(1,1),1)"


@pytest.mark.parametrize("name,dims", [("Zin", ZIN_DIMS),
                                       ("Bicom", BICOM_DIMS),
                                       ("Flex", FLEX_DIMS),
                                       ("AntiFlex", FLEX_DIMS),
                                       ("L", FLEX_DIMS)])
def test_grammar_counts_match_tables(name, dims):
    for n, want in enumerate(dims, start=1):
        assert len(systems.normal_forms(name, n)) == want


def test_closed_formulas():
    for n in range(1, 11):
        assert systems.dim_formula("Zin", n) == comb(2 * n, n) // (n + 1)
        assert systems.dim_formula("Bicom", n) == comb(2 * n - 2, n - 1)
        assert systems.dim_formula("Flex", n) == comb(3 * n - 2, n - 1) // n
        assert systems.dim_formula("AntiFlex", n) == \
            systems.dim_formula("L", n) == systems.dim_formula("Flex", n)


@pytest.mark.parametrize("name", ["Zin", "Bicom", "Flex", "AntiFlex", "L"])
def test_grammar_agrees_with_divisor_free_filter(name):
    """The grammar enumerates exactly the trees with no rule divisor."""
    ops = ("z", "t") if name == "L" else ("x", "y")
    for n in range(1, 7):
        sys_ = systems.system(name, max_arity=max(n, 3))
        brute = {t for t in free_trees(n, ops) if is_normal(t, sys_)}
        assert set(systems.normal_forms(name, n)) == brute


def test_normal_forms_are_sorted_deterministically():
    a = systems.normal_forms("Zin", 5)
    b = systems.normal_forms("Zin", 5)
    assert list(a) == list(b)
    assert len(set(a)) == len(a)


def _ternary_pair_count(n):
    """sum over i+j = n-1 of T_i * T_j, with T_m the ternary tree numbers."""
    T = lambda m: comb(3 * m, m) // (2 * m + 1)
    return sum(T(i) * T(n - 1 - i) for i in range(n))


def test_ternary_pair_count_convolution():
    # sum_{i+j=n-1} T_i T_j of ternary tree numbers equals a(n)
    for n in range(1, 11):
        assert _ternary_pair_count(n) == systems.dim_formula("Flex", n)


def test_nc_relations_shape():
    for name, count in (("NcNov", 2), ("NcZin", 3), ("NcBicom", 2),
                        ("NcFlex", 1), ("NcAntiFlex", 1)):
        rels = systems.nc_relations(name)
        assert len(rels) == count
        for r in rels:
            assert all(arity(t) == 3 for t in r)


def test_nc_flex_relation_is_the_flexible_law():
    (r,) = systems.nc_relations("NcFlex")
    assert format_element(r) == ("-1*x(1,x(1,1))+1*x(x(1,1),1)"
                                 "+1*y(1,y(1,1))-1*y(y(1,1),1)")


def _arity3_span(rels):
    """The span of arity-3 tree elements over the 8 free trees, as an RREF."""
    trees = free_trees(3)
    return span([[r.get(t, 0) for t in trees] for r in rels], len(trees))


@pytest.mark.parametrize("name", ["Zin", "Bicom", "Flex", "AntiFlex"])
def test_arity3_rules_present_the_nonsymmetric_version(name):
    rules = [_as_element(r) for r in systems.system(name).rules if r.arity == 3]
    assert _arity3_span(rules) == _arity3_span(systems.nc_relations("Nc" + name))


def test_former_nc_nov_relations_span_the_derived_ones():
    def el(*terms):
        return NsElement((parse_tree(t), c) for c, t in terms)
    former = [el((1, "y(1,x(1,1))"), (-1, "x(y(1,1),1)")),
              el((1, "y(x(1,1),1)"), (-1, "y(1,y(1,1))"),
                 (-1, "x(1,y(1,1))"), (1, "x(x(1,1),1)"))]
    assert _arity3_span(former) == _arity3_span(systems.nc_relations("NcNov"))


@pytest.mark.parametrize("name", ["Zin", "NcL", "NcNope"])
def test_nc_relations_unknown_name(name):
    with pytest.raises(KeyError):
        systems.nc_relations(name)


@pytest.mark.parametrize("name", ["NcPreLie", "NcLeib"])
def test_nc_relations_refuses_an_nc_name_outside_the_catalog(name):
    with pytest.raises(KeyError) as info:
        systems.nc_relations(name)
    assert info.value.args == (f"unknown operad {name!r}",)
