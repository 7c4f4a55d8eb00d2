"""Free arity-3 module, S3 action, text format, operad catalog."""

from fractions import Fraction

import pytest

from operad_forge.arity3 import (DOUBLE, SINGLE, S3, Arity3Element, Monomial3,
                                 act, basis3, canonicalize, catalog,
                                 format_element, format_monomial,
                                 monomial_of_tree, parse_element,
                                 parse_monomial, s3_closure, quotient_dim3,
                                 to_vector)


def test_basis_sizes():
    # 3 * (dim V)^2 with dim V = 2 per paired operation
    assert len(basis3(SINGLE)) == 12
    assert len(basis3(DOUBLE)) == 48


def test_monomial_text_roundtrip():
    for m in basis3(DOUBLE):
        assert parse_monomial(format_monomial(m), DOUBLE) == m


def test_element_text_roundtrip():
    e = parse_element("+1*(x1*x2)*x3-2*x2*(x1*x3)", SINGLE)
    assert parse_element(format_element(e), SINGLE).terms == e.terms


@pytest.mark.parametrize("text", ["", "   "])
def test_empty_element_is_refused(text):
    with pytest.raises(ValueError, match="empty"):
        parse_element(text, SINGLE)


def test_left_comb_outside_leaf():
    m = parse_monomial("(x1*x2)*x3", SINGLE)
    assert m.shape == "L" and m.outside_leaf == 3


def test_right_comb_outside_leaf():
    m = parse_monomial("x1*(x2*x3)", SINGLE)
    assert m.shape == "R" and m.outside_leaf == 1


def test_monomial_tree_roundtrip():
    for v in (SINGLE, DOUBLE):
        for m in basis3(v):
            assert monomial_of_tree(m.tree()) == m


def test_monomial_tree_shapes():
    assert Monomial3("L", (2, 1, 3), "<", ">").tree() == (">", ("<", 2, 1), 3)
    assert Monomial3("R", (2, 1, 3), "<", ">").tree() == (">", 2, ("<", 1, 3))


def test_s3_action_is_leaf_relabeling():
    e = parse_element("+1*(x1*x2)*x3", SINGLE)
    # (13): x1 <-> x3
    img = act((3, 2, 1), e)
    assert format_element(img) == "+1*(x3*x2)*x1"


def test_s3_action_composes():
    e = parse_element("+1*x1*(x2*x3)-1*(x2*x1)*x3", SINGLE)
    for sigma in S3:
        for tau in S3:
            comp = tuple(sigma[tau[i] - 1] for i in range(3))
            assert act(sigma, act(tau, e)).terms == act(comp, e).terms


def test_canonicalize_orders_by_leftmost_leaf():
    # over a single paired operation nothing is identified, only normalized
    m = Monomial3("L", (2, 1, 3), "*", "*")
    cm, sign = canonicalize(m, SINGLE)
    assert sign == Fraction(1)
    assert cm == m


def test_orbit_of_left_comb_spans_all_left_combs():
    e = parse_element("+1*(x1*x2)*x3", SINGLE)
    assert s3_closure([e], SINGLE).dim == 6


def test_catalog_dimensions():
    expected = {
        "As": (6, 6), "Zin": (6, 6), "Bicom": (6, 6), "Nov": (6, 6),
        "Leib": (6, 6), "PreLie": (3, 9), "Flex": (3, 9), "AntiFlex": (3, 9),
        "Alt": (5, 7), "Assosym": (5, 7),
    }
    for name, (dim_r, dim_p3) in expected.items():
        p = catalog(name)
        assert p.relation_space().dim == dim_r, name
        assert quotient_dim3(p) == dim_p3, name


def test_catalog_nonsymmetric_presentations():
    for name, n_rels in (("NcNov", 2), ("NcZin", 3), ("NcBicom", 2),
                         ("NcFlex", 1), ("NcAntiFlex", 1)):
        p = catalog(name)
        assert len(p.relations) == n_rels, name


def test_catalog_unknown_name():
    for name in ("Nope", "NcNope", "NcNcZin"):
        with pytest.raises(KeyError):
            catalog(name)


def test_relation_space_is_s3_stable():
    for name in ("Zin", "Leib", "Flex", "Alt"):
        p = catalog(name)
        r = p.relation_space()
        b = basis3(p.opspace)
        for rel in p.relations:
            for sigma in S3:
                assert r.contains(to_vector(act(sigma, rel), b))
