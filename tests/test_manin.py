"""White product with As, symmetrized quotient, and the admissibility test."""

import json
import random
from fractions import Fraction
from itertools import permutations

import pytest

from operad_forge.arity3 import (ANTISYMMETRIC, CATALOG_NAMES, DOUBLE, SINGLE,
                                 SYMMETRIC, Arity3Element, OperadPresentation,
                                 OpSpace, basis3, catalog, from_vector,
                                 monomial_of_tree, parse_element, s3_closure,
                                 quotient_dim3, to_vector)
from operad_forge.exactlin import intersect, nullspace, span
from operad_forge.manin import (admits_nonsymmetric, compute_F,
                                nonsymmetric_version, symmetrize_quotient,
                                two_outside_subspace, white_product_as)

SINGLE_OPERATION = [catalog(n) for n in ("Free",) + tuple(
    n for n in CATALOG_NAMES if not n.startswith("Nc"))]


def _random_operads(count: int, seed: int = 8) -> list[OperadPresentation]:
    """Seeded random single-operation operads: every other one has its
    relations inside the two-outside cosets, the rest anywhere."""
    rng = random.Random(seed)
    basis = basis3(SINGLE)
    two_outside = [m for m in basis if m.outside_leaf != 2]
    out = []
    for i in range(count):
        pool = two_outside if i % 2 == 0 else basis
        rels = tuple(
            Arity3Element(SINGLE, [(m, Fraction(rng.choice((-2, -1, 1, 2))))
                                   for m in rng.sample(pool, rng.randint(1, 4))])
            for _ in range(rng.randint(1, 3)))
        out.append(OperadPresentation(f"R{i}", SINGLE, rels))
    return out


def _swap_greater(t):
    if isinstance(t, int):
        return t
    op, l, r = t
    l, r = _swap_greater(l), _swap_greater(r)
    return ("*", r, l) if op == ">" else ("*", l, r)


def _leaf_word(t):
    return (t,) if isinstance(t, int) else _leaf_word(t[1]) + _leaf_word(t[2])


def _white_product_reference(p: OperadPresentation):
    """The former construction: the kernel of all 48 two-operation monomials
    m -> w(m) (x) var(m) into As(3) (x) P(3), from the dense transpose."""
    words = sorted(permutations((1, 2, 3)))
    R = p.relation_space()
    nv = R.ambient_dim
    v_basis, w_basis = basis3(SINGLE), basis3(DOUBLE)
    rows = []
    for m in w_basis:
        t = m.tree()
        var = Arity3Element(SINGLE, [(monomial_of_tree(_swap_greater(t)), 1)])
        w = words.index(_leaf_word(t))
        row = [Fraction(0)] * (len(words) * nv)
        for j, c in R.reduce(to_vector(var, v_basis)).items():
            row[w * nv + j] = c
        rows.append(row)
    ker = nullspace(list(zip(*rows)), len(w_basis))
    return tuple(from_vector(r, w_basis, DOUBLE) for r in ker.basis)


def closure(texts):
    return s3_closure([parse_element(t, DOUBLE) for t in texts], DOUBLE)


def test_white_product_zin_matches_transcribed_relations():
    # the three dendriform-style identities of the noncommutative Zinbiel operad
    want = closure([
        "+1*(x1>x2)>x3-1*x1>(x2>x3)-1*x1>(x2<x3)",
        "+1*(x1<x2)>x3-1*x1<(x2>x3)",
        "+1*x1<(x2<x3)-1*(x1>x2)<x3-1*(x1<x2)<x3",
    ])
    got = white_product_as(catalog("Zin")).relation_space()
    assert got.dim == 18
    assert got == want


def test_white_product_nov_matches_transcribed_relations():
    want = closure([
        "+1*x1>(x2<x3)-1*(x1>x2)<x3",
        "+1*(x1<x2)>x3-1*x1>(x2>x3)-1*x1<(x2>x3)+1*(x1<x2)<x3",
    ])
    got = white_product_as(catalog("Nov")).relation_space()
    assert got.dim == 12
    assert got == want


def test_white_product_bicom_matches_transcribed_relations():
    want = closure([
        "+1*x1>(x2<x3)-1*(x1>x2)<x3",
        "+1*x1<(x2>x3)-1*(x1<x2)>x3",
    ])
    got = white_product_as(catalog("Bicom")).relation_space()
    assert got.dim == 12
    assert got == want


@pytest.mark.parametrize("name", ["As", "Zin", "Bicom", "Nov"])
def test_symmetrized_quotient_recovers_operad(name):
    sym = symmetrize_quotient(white_product_as(catalog(name)))
    assert sym.relation_space() == catalog(name).relation_space()


def test_symmetrized_quotient_of_alt_is_flex():
    sym = symmetrize_quotient(white_product_as(catalog("Alt")))
    assert sym.relation_space() == catalog("Flex").relation_space()
    assert quotient_dim3(sym) == 9


def test_alt_arity3_dimension():
    assert quotient_dim3(catalog("Alt")) == 7


def test_two_outside_subspace_contains_both_comb_shapes():
    from operad_forge.arity3 import SINGLE, basis3, to_vector
    u = two_outside_subspace(SINGLE)
    b = basis3(SINGLE)
    left = parse_element("+1*(x1*x2)*x3", SINGLE)
    right = parse_element("+1*x1*(x2*x3)", SINGLE)
    mid = parse_element("+1*(x1*x3)*x2", SINGLE)
    assert u.contains(to_vector(left, b))
    assert u.contains(to_vector(right, b))
    assert not u.contains(to_vector(mid, b))
    assert u.dim == 8


def test_criterion_classification():
    admit = ("Nov", "Zin", "Bicom", "Flex", "AntiFlex")
    reject = ("Alt", "Assosym", "Leib", "PreLie")
    for name in admit:
        assert admits_nonsymmetric(catalog(name)).admits, name
    for name in reject:
        assert not admits_nonsymmetric(catalog(name)).admits, name


def test_criterion_report_fields():
    r = admits_nonsymmetric(catalog("Leib"))
    assert (r.dim_R, r.dim_F) == (6, 3)
    payload = json.loads(r.to_json())
    assert payload["name"] == "Leib"
    assert payload["admits"] is False
    assert len(payload["F_generators"]) == 2


def test_leibniz_internals():
    from operad_forge.arity3 import SINGLE, basis3, to_vector
    leib = catalog("Leib")
    b = basis3(SINGLE)
    assert leib.relation_space().dim == 6
    f = compute_F(leib)
    assert f.dim == 3
    sums = ["+1*(x1*x2)*x3+1*(x2*x1)*x3",
            "+1*(x1*x3)*x2+1*(x3*x1)*x2",
            "+1*(x2*x3)*x1+1*(x3*x2)*x1"]
    vecs = [to_vector(parse_element(s, SINGLE), b) for s in sums]
    assert f == span(vecs, 12)
    inter = intersect(leib.relation_space(), two_outside_subspace(SINGLE))
    assert inter.dim == 2
    assert inter == span([vecs[0], vecs[2]], 12)


def test_white_product_equals_the_former_construction():
    operads = SINGLE_OPERATION + _random_operads(120)
    assert len(SINGLE_OPERATION) == 11
    for p in operads:
        assert white_product_as(p).relations == _white_product_reference(p), p.name


def test_nonsymmetric_version_lives_on_the_planar_block():
    for p in SINGLE_OPERATION:
        nc = nonsymmetric_version(p)
        assert nc.name == "Nc" + p.name and nc.opspace == DOUBLE
        assert all(m.leaves == (1, 2, 3) for r in nc.relations for m in r.terms)
        # its S3-closure is the white product, none of whose relations is lost
        assert nc.relation_space() == white_product_as(p).relation_space()
    # the 8 planar monomials have 8 distinct Var monomials as images
    assert nonsymmetric_version(catalog("Free")).relations == ()
    with pytest.raises(ValueError, match="single paired operation"):
        nonsymmetric_version(catalog("NcZin"))


def test_criterion_agrees_with_the_symmetrized_white_product():
    """Identifying a > b with b < a in As o P gives F, so an operad admits a
    nonsymmetric version exactly when it gives back R.  var maps the 8
    planar monomials one-to-one onto the 8 two-outside monomials, so
    symmetrizing NcP gives R cap (two-outside cosets); symmetrize_quotient
    is S3-equivariant, so symmetrizing its S3-closure As o P gives F."""
    seen = set()
    for p in SINGLE_OPERATION + _random_operads(200):
        admits = admits_nonsymmetric(p).admits
        sym = symmetrize_quotient(white_product_as(p))
        assert sym.relation_space() == compute_F(p), p.name
        assert admits == (sym.relation_space() == p.relation_space()), p.name
        seen.add(admits)
    assert seen == {True, False}


def test_white_product_refuses_a_symmetric_operation():
    commutative = OpSpace(("*",), (SYMMETRIC,))
    rel = parse_element("+1*(x1*x2)*x3-1*x1*(x2*x3)", commutative)
    p = OperadPresentation("Com", commutative, (rel,))
    with pytest.raises(ValueError, match="single paired operation"):
        nonsymmetric_version(p)
    with pytest.raises(ValueError, match="single paired operation"):
        white_product_as(p)


def test_symmetrize_quotient_refuses_antisymmetric_split_operations():
    # named < and >, but not the two paired operations of DOUBLE
    anti = OpSpace(("<", ">"), (ANTISYMMETRIC, ANTISYMMETRIC))
    q = OperadPresentation("Anti", anti, (parse_element("+1*(x1<x2)>x3", anti),))
    with pytest.raises(ValueError, match="two split operations"):
        symmetrize_quotient(q)
