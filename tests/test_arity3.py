"""Free arity-3 module, S3 action, text format, operad catalog."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from operad_forge.arity3 import (CATALOG_NAMES, DOUBLE, SINGLE, S3,
                                 Arity3Element, Monomial3, OpSpace, act,
                                 basis3, catalog, format_element,
                                 format_monomial, parse_element,
                                 parse_monomial, s3_closure)
from operad_forge.exactlin import span

TRIPLE = OpSpace(("*", "b", "c"))
SPACES = (SINGLE, DOUBLE, TRIPLE)


def test_basis_sizes():
    # 2 shapes * 6 leaf orders * k^2 operation pairs for k operations
    assert len(basis3(SINGLE)) == 12
    assert len(basis3(DOUBLE)) == 48
    for v in SPACES:
        assert len(basis3(v)) == 12 * len(v.ops) ** 2


def test_operation_names_must_be_distinct():
    with pytest.raises(ValueError, match="distinct"):
        OpSpace(("*", "*"))


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


@pytest.mark.parametrize("text", ["+1/0*(x1*x2)*x3", "+1*x1*(x2*x3)-2/00*(x1*x2)*x3"])
def test_zero_denominator_is_refused(text):
    with pytest.raises(ValueError, match=re.escape("zero denominator in term '")):
        parse_element(text, SINGLE)


def test_elements_over_different_opspaces_differ():
    assert Arity3Element(SINGLE) != Arity3Element(DOUBLE)
    assert len({Arity3Element(SINGLE), Arity3Element(DOUBLE)}) == 2


def test_left_comb_outside_leaf():
    m = parse_monomial("(x1*x2)*x3", SINGLE)
    assert m.shape == "L" and m.outside_leaf == 3


def test_right_comb_outside_leaf():
    m = parse_monomial("x1*(x2*x3)", SINGLE)
    assert m.shape == "R" and m.outside_leaf == 1


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
        assert len(basis3(p.opspace)) - p.relation_space().dim == dim_p3, name


# Each relation's row over basis3(SINGLE), as (basis index, coefficient)
# pairs in row order, so a typo in the catalog's text fails here even where
# dim R happens to agree.
_CATALOG_ROWS = {
    "Free": [],
    "As": [[(0, 1), (6, -1)]],
    "Nov": [[(0, 1), (7, -1), (5, -1), (10, 1)], [(2, 1), (3, -1)]],
    "Zin": [[(6, 1), (0, -1), (2, -1)]],
    "Bicom": [[(2, 1), (3, -1)], [(7, 1), (10, -1)]],
    "Alt": [[(0, 1), (6, -1), (2, 1), (8, -1)], [(0, 1), (6, -1), (1, 1), (7, -1)]],
    "Flex": [[(0, 1), (6, -1), (5, 1), (11, -1)]],
    "AntiFlex": [[(0, 1), (6, -1), (5, -1), (11, 1)]],
    "Leib": [[(0, 1), (6, -1), (8, 1)]],
    "PreLie": [[(0, 1), (6, -1), (2, -1), (8, 1)]],
    "Assosym": [[(0, 1), (6, -1), (2, -1), (8, 1)], [(0, 1), (6, -1), (1, -1), (7, 1)]],
}


def test_catalog_rows_are_pinned():
    assert list(_CATALOG_ROWS) == ["Free"] + [n for n in CATALOG_NAMES
                                              if not n.startswith("Nc")]
    for name, rows in _CATALOG_ROWS.items():
        p = catalog(name)
        assert (p.name, p.opspace) == (name, SINGLE)
        assert [list(r.row.items()) for r in p.relations] == rows, name


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
        for rel in p.relations:
            for sigma in S3:
                assert r.contains(act(sigma, rel).row)


def test_basis3_is_one_cached_tuple():
    b = basis3(DOUBLE)
    assert isinstance(b, tuple)
    assert basis3(DOUBLE) is b
    assert basis3(OpSpace(("<", ">"))) is b


@pytest.mark.parametrize("m", [
    Monomial3("L", (1, 1, 2), "*", "*"),
    Monomial3("R", (1, 2, 4), "*", "*"),
    Monomial3("Q", (1, 2, 3), "*", "*"),
    Monomial3("L", (1, 2, 3), "<", "*"),
])
def test_malformed_monomial_is_refused(m):
    with pytest.raises(ValueError, match=re.escape(str(m))):
        Arity3Element(SINGLE, [(m, 1)])


def test_a_float_or_a_str_coefficient_is_refused():
    # 0.1 would be stored as 3602879701896397/36028797018963968, not 1/10
    m = basis3(SINGLE)[0]
    for c in (0.1, "1/2"):
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            Arity3Element(SINGLE, [(m, c)])
    two = Arity3Element(SINGLE, [(m, 2)])
    assert two.row == {0: 2} and type(two.row[0]) is int
    assert two == Arity3Element(SINGLE, [(m, Fraction(2))])
    assert hash(two) == hash(Arity3Element(SINGLE, [(m, Fraction(2))]))


def test_an_integral_fraction_or_sum_is_stored_as_an_int():
    m, n = basis3(SINGLE)[:2]
    e = Arity3Element(SINGLE, [(m, Fraction(4, 2)), (n, Fraction(1, 2)),
                               (n, Fraction(1, 2))])
    assert e.row == {0: 2, 1: 1}
    assert [type(c) for c in e.row.values()] == [int, int]
    half = Arity3Element(SINGLE, [(m, Fraction(1, 4)), (m, Fraction(1, 4))])
    assert type(half.row[0]) is Fraction and half.row[0] == Fraction(1, 2)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_relations_hold_only_ints(name):
    assert all(type(c) is int
               for rel in catalog(name).relations for c in rel.row.values())


def test_parse_monomial_refuses_repeated_leaves():
    with pytest.raises(ValueError, match="repeated leaf"):
        parse_monomial("(x1*x1)*x2", SINGLE)


@pytest.mark.parametrize("sigma", [(1, 1, 2), (1, 2), (2, 3, 4)])
def test_act_refuses_non_permutation(sigma):
    e = parse_element("+1*(x1*x2)*x3", SINGLE)
    with pytest.raises(ValueError, match="not a permutation"):
        act(sigma, e)


def test_s3_closure_refuses_generator_over_other_opspace():
    e = parse_element("+1*(x1<x2)>x3", DOUBLE)
    with pytest.raises(ValueError, match=re.escape("('<', '>')") + ".*"
                       + re.escape("('*',)")):
        s3_closure([e], SINGLE)


# The S3 action as it was computed before it was tabulated: relabel the
# leaves of every term, close with dense rows.

def _reference_act(sigma, e):
    terms = []
    for m, c in e.terms.items():
        leaves = tuple(sigma[l - 1] for l in m.leaves)
        terms.append((Monomial3(m.shape, leaves, m.inner, m.outer), c))
    return Arity3Element(e.opspace, terms)


def _reference_to_vector(e, basis):
    index = {m: i for i, m in enumerate(basis)}
    row = [Fraction(0)] * len(basis)
    for m, c in e.terms.items():
        row[index[m]] = c
    return tuple(row)


def _reference_s3_closure(gens, v):
    basis = basis3(v)
    vecs = [_reference_to_vector(_reference_act(sigma, g), basis)
            for g in gens for sigma in S3]
    return span(vecs, len(basis))


@st.composite
def _element(draw, v):
    terms = draw(st.lists(st.tuples(
        st.builds(Monomial3, st.sampled_from("LR"), st.sampled_from(S3),
                  st.sampled_from(v.ops), st.sampled_from(v.ops)),
        st.fractions(-3, 3, max_denominator=3)), max_size=5))
    return Arity3Element(v, terms)


@st.composite
def _space_and_elements(draw):
    v = draw(st.sampled_from(SPACES))
    return v, draw(st.lists(_element(v), max_size=3))


@given(_space_and_elements())
@settings(max_examples=150, deadline=None)
def test_s3_closure_matches_reference(case):
    v, gens = case
    assert s3_closure(gens, v) == _reference_s3_closure(gens, v)


@given(st.sampled_from(SPACES).flatmap(_element))
@settings(max_examples=150, deadline=None)
def test_act_matches_reference_and_composes(e):
    for sigma in S3:
        assert act(sigma, e).terms == _reference_act(sigma, e).terms
        for tau in S3:
            comp = tuple(sigma[tau[i] - 1] for i in range(3))
            assert act(sigma, act(tau, e)).terms == act(comp, e).terms


@given(st.sampled_from(SPACES).flatmap(_element))
@settings(max_examples=150, deadline=None)
def test_from_row_round_trip(e):
    back = Arity3Element.from_row(e.opspace, e.row)
    assert back == e
    assert list(back.terms.items()) == list(e.terms.items())
