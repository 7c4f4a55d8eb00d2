"""White product with As, symmetrized quotient, and the admissibility test."""

import json
import random
from fractions import Fraction
from itertools import permutations

import pytest

from operad_forge.arity3 import (CATALOG_NAMES, DOUBLE, SINGLE,
                                 Arity3Element, Monomial3,
                                 OperadPresentation, OpSpace, basis3, catalog,
                                 format_element, parse_element, s3_closure)
from operad_forge.exactlin import Subspace, intersect, nullspace, span
from operad_forge.manin import (CriterionReport, _var, admits_nonsymmetric,
                                nonsymmetric_version, symmetrize_quotient,
                                white_product_as)

SINGLE_OPERATION = [catalog(n) for n in ("Free",) + tuple(
    n for n in CATALOG_NAMES if not n.startswith("Nc"))]
NONSYMMETRIC = [catalog(n) for n in CATALOG_NAMES if n.startswith("Nc")]
# a space of three operations, whose 108 columns neither the catalog nor the
# white products reach
TRIPLE = OpSpace(("*", "b", "c"))


def _random_operads(count: int, seed: int = 8,
                    v: OpSpace = SINGLE) -> list[OperadPresentation]:
    """Seeded random operads over v (by default a single operation): every
    other one has its relations inside the two-outside cosets, the rest
    anywhere."""
    rng = random.Random(seed)
    basis = basis3(v)
    two_outside = [m for m in basis if m.outside_leaf != 2]
    out = []
    for i in range(count):
        pool = two_outside if i % 2 == 0 else basis
        size = min(4, len(pool))
        rels = tuple(
            Arity3Element(v, [(m, Fraction(rng.choice((-2, -1, 1, 2))))
                              for m in rng.sample(pool, rng.randint(1, size))])
            for _ in range(rng.randint(1, 3)))
        out.append(OperadPresentation(f"R{i}", v, rels))
    return out


def _tree(m: Monomial3):
    """The planar tree (op, left, right) of m, with the integer leaves."""
    a, b, c = m.leaves
    if m.shape == "L":
        return (m.outer, (m.inner, a, b), c)
    return (m.outer, a, (m.inner, b, c))


def _monomial_of_tree(t) -> Monomial3:
    """Inverse of _tree: an arity-3 tree with integer leaves."""
    op, l, r = t
    if not isinstance(l, int):
        return Monomial3("L", (l[1], l[2], r), l[0], op)
    return Monomial3("R", (l, r[1], r[2]), r[0], op)


def _residual(R, v: dict) -> dict:
    """The sparse row v after elimination by the RREF basis rows of R,
    each scaled to pivot entry 1."""
    v = {j: x for j, x in v.items() if x}
    for row in R.basis:
        p = min(row)
        f = v.get(p)
        if f:
            f = Fraction(f, row[p])
            for j, b in row.items():
                x = v.get(j, 0) - f * b
                if x:
                    v[j] = x
                else:
                    del v[j]
    return v


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
    w_basis = basis3(DOUBLE)
    rows = []
    for m in w_basis:
        t = _tree(m)
        var = Arity3Element(SINGLE, [(_monomial_of_tree(_swap_greater(t)), 1)])
        w = words.index(_leaf_word(t))
        row = [Fraction(0)] * (len(words) * nv)
        for j, c in _residual(R, var.row).items():
            row[w * nv + j] = c
        rows.append(row)
    ker = nullspace(list(zip(*rows)), len(w_basis))
    return tuple(Arity3Element.from_row(DOUBLE, r) for r in ker.basis)


def _nonsymmetric_reference(p: OperadPresentation):
    """The former construction of Nc P: the kernel of m -> var(m) mod R on
    the planar block, as the null space of the transposed residuals."""
    R = p.relation_space()
    v_basis = basis3(SINGLE)
    planar = [m for m in basis3(DOUBLE) if m.leaves == (1, 2, 3)]
    transpose = {}
    for i, m in enumerate(planar):
        var = _monomial_of_tree(_swap_greater(_tree(m)))
        for j, c in _residual(R, {v_basis.index(var): 1}).items():
            transpose.setdefault(j, {})[i] = c
    ker = nullspace(transpose.values(), len(planar))
    return tuple(Arity3Element(DOUBLE, [(planar[j], c) for j, c in r.items()])
                 for r in ker.basis)


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


def test_symmetrized_quotient_sums_to_an_exact_coefficient():
    # x2 < x1 and x1 > x2 both map to x2 . x1, so halves on them sum to 1
    half = Fraction(1, 2)
    lt = Monomial3("L", (2, 1, 3), "<", "<")
    gt = Monomial3("L", (1, 2, 3), ">", "<")
    rel = Arity3Element(DOUBLE, [(lt, half), (gt, half)])
    q = OperadPresentation("q", DOUBLE, (rel,))
    (rel,) = symmetrize_quotient(q).relations
    assert list(rel.terms.items()) == [(Monomial3("L", (2, 1, 3), "*", "*"), 1)]
    assert [type(c) for c in rel.row.values()] == [int]


def test_symmetrized_quotient_of_alt_is_flex():
    sym = symmetrize_quotient(white_product_as(catalog("Alt")))
    assert sym.relation_space() == catalog("Flex").relation_space()
    assert len(basis3(sym.opspace)) - sym.relation_space().dim == 9


def test_alt_arity3_dimension():
    alt = catalog("Alt")
    assert len(basis3(alt.opspace)) - alt.relation_space().dim == 7


def two_outside_subspace(v: OpSpace) -> Subspace:
    """Span of the basis monomials whose outside argument is x1 or x3.

    These are the cosets (V (x) V) + (13)(V (x) V): with x3 or x1 as the lone
    argument on either side of the inner product.  Dimension 8 * k^2 for k
    operations.
    """
    basis = basis3(v)
    units = [{i: 1} for i, m in enumerate(basis) if m.outside_leaf in (1, 3)]
    return span(units, len(basis))


def compute_F(p: OperadPresentation) -> Subspace:
    """F, the S3-closure of R cap (two-outside cosets): the span of the
    criterion's generators and their images under S3."""
    return s3_closure(admits_nonsymmetric(p).F_generators, p.opspace)


def test_two_outside_subspace_contains_both_comb_shapes():
    u = two_outside_subspace(SINGLE)
    left = parse_element("+1*(x1*x2)*x3", SINGLE)
    right = parse_element("+1*x1*(x2*x3)", SINGLE)
    mid = parse_element("+1*(x1*x3)*x2", SINGLE)
    assert u.contains(left.row)
    assert u.contains(right.row)
    assert not u.contains(mid.row)
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
    leib = catalog("Leib")
    assert leib.relation_space().dim == 6
    f = compute_F(leib)
    assert f.dim == 3
    sums = ["+1*(x1*x2)*x3+1*(x2*x1)*x3",
            "+1*(x1*x3)*x2+1*(x3*x1)*x2",
            "+1*(x2*x3)*x1+1*(x3*x2)*x1"]
    vecs = [parse_element(s, SINGLE).row for s in sums]
    assert f == span(vecs, 12)
    inter = intersect(leib.relation_space(), two_outside_subspace(SINGLE))
    assert inter.dim == 2
    assert inter == span([vecs[0], vecs[2]], 12)


def test_one_elimination_equals_the_zassenhaus_intersection():
    """One elimination with the two-outside columns last gives dim R and the
    same canonical basis of R cap (two-outside cosets) as intersect, and so
    the same report as the former criterion: on one operation, on the 48
    columns of the Nc presentations and of random ones over <, >, and on
    the 108 columns of random ones over three operations."""
    assert len(NONSYMMETRIC) == 5
    cases = (SINGLE_OPERATION + NONSYMMETRIC + _random_operads(80)
             + _random_operads(40, seed=9, v=DOUBLE)
             + _random_operads(40, seed=11, v=TRIPLE))
    for p in cases:
        R = p.relation_space()
        inter = intersect(R, two_outside_subspace(p.opspace))
        assert p.two_outside_part == (R.dim, inter), p.name
        gens = tuple(Arity3Element.from_row(p.opspace, r) for r in inter.basis)
        F = s3_closure(gens, p.opspace)
        want = CriterionReport(p.name, R.dim, F.dim, R.ambient_dim - R.dim,
                               F.dim == R.dim, gens)
        assert admits_nonsymmetric(p) == want, p.name
    assert all(admits_nonsymmetric(p).admits for p in NONSYMMETRIC)


def test_criterion_and_white_product_refuse_a_foreign_relation():
    # a relation over <, > in a presentation over the single operation *
    rel = parse_element("+1*(x1<x2)>x3-1*x1<(x2>x3)", DOUBLE)
    p = OperadPresentation("Foreign", SINGLE, (rel,))
    # twice each: a failed elimination leaves nothing cached on p
    for f in (admits_nonsymmetric, white_product_as, nonsymmetric_version) * 2:
        with pytest.raises(ValueError, match="generator over operations"):
            f(p)
    assert "two_outside_part" not in vars(p)


def test_the_cached_elimination_changes_no_result():
    """The criterion's elimination is made once per presentation and shared
    with the white product: either order of the two calls, and a fresh equal
    presentation, give the same report and the same As o P, and a caller
    that changes a report's rows does not change the cached ones."""
    for p in SINGLE_OPERATION + _random_operads(40, seed=12):
        first = OperadPresentation(p.name, p.opspace, p.relations)
        report = admits_nonsymmetric(first)
        product = white_product_as(first)
        assert admits_nonsymmetric(first) == report, p.name
        assert first.two_outside_part is first.two_outside_part
        fresh = OperadPresentation(p.name, p.opspace, p.relations)
        assert fresh == first and "two_outside_part" not in vars(fresh)
        assert white_product_as(fresh) == product, p.name
        assert admits_nonsymmetric(fresh) == report, p.name
        for g in report.F_generators:
            g.row.clear()
        assert admits_nonsymmetric(first) == admits_nonsymmetric(fresh), p.name


def test_white_product_equals_the_former_construction():
    operads = SINGLE_OPERATION + _random_operads(120)
    assert len(SINGLE_OPERATION) == 11
    for p in operads:
        assert white_product_as(p).relations == _white_product_reference(p), p.name


def test_var_agrees_with_the_tree_reference():
    for m in basis3(DOUBLE):
        single = _var(m)
        assert single == _monomial_of_tree(_swap_greater(_tree(m))), m
        assert single in basis3(SINGLE)


def test_var_maps_the_planar_block_onto_the_two_outside_monomials():
    planar = [m for m in basis3(DOUBLE) if m.leaves == (1, 2, 3)]
    images = [_var(m) for m in planar]
    two_outside = [m for m in basis3(SINGLE) if m.outside_leaf in (1, 3)]
    assert len(planar) == len(set(images)) == len(two_outside) == 8
    assert set(images) == set(two_outside)


def test_nonsymmetric_version_equals_the_former_construction():
    for p in SINGLE_OPERATION + _random_operads(120):
        assert nonsymmetric_version(p).relations == _nonsymmetric_reference(p), p.name


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


def test_white_product_refuses_another_operation_space():
    # one operation, but not the operation * of SINGLE
    other = OpSpace(("b",))
    rel = parse_element("+1*(x1bx2)bx3-1*x1b(x2bx3)", other)
    p = OperadPresentation("B", other, (rel,))
    with pytest.raises(ValueError, match="single paired operation"):
        nonsymmetric_version(p)
    with pytest.raises(ValueError, match="single paired operation"):
        white_product_as(p)


def test_symmetrize_quotient_by_index_equals_the_constructor():
    """Reading each relation's row through the index table gives the terms,
    in the same order, that the validating constructor builds from the var
    images; a relation that vanishes is left out by both."""
    for p in SINGLE_OPERATION + _random_operads(150, seed=13):
        q = white_product_as(p)
        want = [Arity3Element(SINGLE, [(_var(m), c) for m, c in rel.terms.items()])
                for rel in q.relations]
        want = [r for r in want if r.row]
        got = symmetrize_quotient(q).relations
        assert ([list(r.terms.items()) for r in got]
                == [list(r.terms.items()) for r in want]), p.name
    # the two terms of the first relation have one image and cancel
    q = OperadPresentation("Q", DOUBLE, (
        parse_element("+1*(x1<x2)<x3-1*x3>(x2>x1)", DOUBLE),
        parse_element("+1*(x1<x2)<x3-1*x3>(x1>x2)", DOUBLE)))
    sym = symmetrize_quotient(q).relations
    assert [format_element(r) for r in sym] == ["+1*(x1*x2)*x3-1*(x2*x1)*x3"]


def test_symmetrize_quotient_refuses_antisymmetric_split_operations():
    # named < and >, but in the other order than DOUBLE's
    swapped = OpSpace((">", "<"))
    q = OperadPresentation("Swapped", swapped,
                           (parse_element("+1*(x1<x2)>x3", swapped),))
    with pytest.raises(ValueError, match="two split operations"):
        symmetrize_quotient(q)
