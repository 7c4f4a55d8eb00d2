"""Exact rational linear algebra: RREF, spans, sums, intersections."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from operad_forge.exactlin import (SparseEliminator, Subspace, intersect,
                                   nullspace, rref, span, subspace_sum)


def F(x):
    return Fraction(x)


def test_rref_identity():
    m = rref([(F(2), F(0)), (F(0), F(3))], 2)
    assert m == [{0: F(1)}, {1: F(1)}]


def test_rref_accepts_what_vec_accepts():
    # dense entries are taken as Fraction() takes them
    assert rref([(0.5, "1/4"), (1, 2)], 2) == [{0: F(1)}, {1: F(1)}]
    assert rref([(0.5, "1/4")], 2) == [{0: F(1), 1: Fraction(1, 2)}]


def test_rref_dependent_rows():
    m = rref([(F(1), F(2)), (F(2), F(4)), (F(3), F(6))], 2)
    assert m == [{0: F(1), 1: F(2)}]


def test_span_dim_and_contains():
    s = span([(F(1), F(0), F(1)), (F(0), F(1), F(1))], 3)
    assert s.dim == 2
    assert s.contains((F(2), F(3), F(5)))
    assert not s.contains((F(0), F(0), F(1)))


def test_reduce_is_canonical():
    s = span([(F(1), F(1), F(0))], 3)
    v = (F(3), F(3), F(1))
    assert s.reduce(v) == {2: F(1)}


def test_subspace_equality_is_basis_free():
    a = span([(F(1), F(1)), (F(1), F(-1))], 2)
    b = span([(F(1), F(0)), (F(0), F(1))], 2)
    assert a == b


def test_intersect_planes():
    # two planes in Q^3 meeting in a line
    a = span([(F(1), F(0), F(0)), (F(0), F(1), F(0))], 3)
    b = span([(F(0), F(1), F(0)), (F(0), F(0), F(1))], 3)
    i = intersect(a, b)
    assert i.dim == 1
    assert i.contains((F(0), F(1), F(0)))


def test_intersect_disjoint():
    a = span([(F(1), F(0))], 2)
    b = span([(F(0), F(1))], 2)
    assert intersect(a, b).dim == 0


def test_nullspace():
    ns = nullspace([(F(1), F(1), F(0)), (F(0), F(0), F(1))], 3)
    assert ns.dim == 1
    assert ns.contains((F(1), F(-1), F(0)))


def test_nullspace_full_rank():
    assert nullspace([(F(1), F(0)), (F(0), F(1))], 2).dim == 0


_vec = st.tuples(*[st.integers(-4, 4).map(Fraction)] * 4)


@given(st.lists(_vec, max_size=4), st.lists(_vec, max_size=4))
@settings(max_examples=60, deadline=None)
def test_dimension_formula(avecs, bvecs):
    """dim(A+B) + dim(A cap B) == dim A + dim B."""
    a = span(avecs, 4)
    b = span(bvecs, 4)
    s = subspace_sum(a, b)
    i = intersect(a, b)
    assert s.dim + i.dim == a.dim + b.dim


@given(st.lists(_vec, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_span_contains_generators(vecs):
    s = span(vecs, 4)
    for v in vecs:
        assert s.contains(v)


@given(st.lists(_vec, max_size=5))
@settings(max_examples=60, deadline=None)
def test_rref_is_reduced_and_idempotent(rows):
    reduced = rref(rows, 4)
    assert all(r and all(r.values()) for r in reduced)
    pivots = [min(r) for r in reduced]
    assert pivots == sorted(set(pivots))
    for r, p in zip(reduced, pivots):
        assert r[p] == 1
        assert all(p not in other for other in reduced if other is not r)
    assert rref(reduced, 4) == reduced
    assert span(reduced, 4) == span(rows, 4)


@given(st.lists(_vec, max_size=5))
@settings(max_examples=60, deadline=None)
def test_nullspace_is_the_kernel(rows):
    ns = nullspace(rows, 4)
    assert ns.dim == 4 - len(rref(rows, 4))
    for v in ns.basis:
        assert all(sum(a * v.get(j, 0) for j, a in enumerate(r)) == 0
                   for r in rows)


def _gauss_jordan(rows, ncols):
    """Reference RREF over Fraction on dense lists; zero rows dropped."""
    m = [[Fraction(x) for x in r] for r in rows]
    out, r = [], 0
    for c in range(ncols):
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return [tuple(row) for row in m[:r]]


def _assert_pivot_rows_primitive(elim):
    for p, row in elim.pivots.items():
        assert min(row) == p
        assert all(type(c) is int and c for c in row.values())
        assert row[p] > 0
        assert gcd(*row.values()) == 1


_entry = st.one_of(st.just(Fraction(0)),
                   st.fractions(min_value=-6, max_value=6, max_denominator=5))


_matrix = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(_entry, min_size=n, max_size=n), max_size=6)))


@given(_matrix)
@settings(max_examples=80, deadline=None)
def test_eliminator_matches_fraction_gauss_jordan(matrix):
    ncols, rows = matrix
    elim = SparseEliminator()
    for r in rows:
        elim.add({j: x for j, x in enumerate(r) if x})
    want = _gauss_jordan(rows, ncols)
    assert elim.rank == len(want)
    got = [tuple(row.get(j, Fraction(0)) for j in range(ncols))
           for row in elim.rref()]
    assert got == want
    assert [{j: x for j, x in enumerate(r) if x} for r in want] \
        == rref(rows, ncols) == elim.rref()
    _assert_pivot_rows_primitive(elim)


def test_pivot_rows_are_primitive_ints():
    elim = SparseEliminator()
    assert elim.add({0: Fraction(2, 3), 1: Fraction(1, 2)})  # cleared to 4, 3
    assert elim.add({0: 2, 2: 5})        # 2*row - piv = (0, -3, 10)
    assert elim.pivots == {0: {0: 4, 1: 3}, 1: {1: 3, 2: -10}}
    assert elim.add({1: 7, 2: 1})        # 3*row - 7*piv = (0, 0, 73)
    assert elim.pivots[2] == {2: 1}
    assert not elim.add({0: Fraction(1, 2), 1: Fraction(3, 8)})
    _assert_pivot_rows_primitive(elim)
    assert elim.rref() == [{0: 1}, {1: 1}, {2: 1}]


def test_eliminator_size_properties():
    elim = SparseEliminator()
    assert (elim.nonzeros, elim.max_bits) == (0, 0)
    elim.add({0: Fraction(2, 3), 1: Fraction(1, 2)})
    elim.add({0: 2, 2: 5})
    assert (elim.nonzeros, elim.max_bits) == (4, 4)   # largest entry -10
    elim.add({1: 7, 2: 1})
    assert (elim.nonzeros, elim.max_bits) == (5, 4)


def test_subspace_reduce_unchanged_by_sparse_rows():
    s = span([(F(2), F(1), F(0), F(3)), (F(0), F(0), F(1), F(-1))], 4)
    v = (F(1), F(2), F(3), F(4))
    # residual by the RREF rows written out dense, as the reduction is defined
    want = list(v)
    for row in s.basis:
        f = want[min(row)]
        want = [a - f * row.get(j, 0) for j, a in enumerate(want)]
    assert s.reduce(v) == {j: x for j, x in enumerate(want) if x}
    assert s.reduce(v) == s.reduce([1, 2, 3, 4]) == s.reduce({0: 1, 1: 2, 2: 3, 3: 4})


@given(st.lists(_vec, max_size=5))
@settings(max_examples=60, deadline=None)
def test_sparse_rows_give_the_dense_rref(rows):
    sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]
    assert rref(sparse, 4) == rref(rows, 4)
    assert span(sparse + rows[:1], 4) == span(rows, 4)


def test_sparse_row_column_out_of_range():
    for row in ({4: F(1)}, {-1: F(1)}, {Fraction(1, 2): F(1)}):
        with pytest.raises(ValueError, match=r"range\(4\)"):
            span([row], 4)
    with pytest.raises(ValueError, match="mismatch"):
        span([(F(1), F(0))], 4)
