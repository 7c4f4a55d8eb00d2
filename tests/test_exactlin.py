"""Exact rational linear algebra: RREF, spans, sums, intersections."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from operad_forge.exactlin import (Subspace, intersect, nullspace, rref, span,
                                   subspace_sum)


def F(x):
    return Fraction(x)


def test_rref_identity():
    m = rref([(F(2), F(0)), (F(0), F(3))], 2)
    assert m == [(F(1), F(0)), (F(0), F(1))]


def test_rref_dependent_rows():
    m = rref([(F(1), F(2)), (F(2), F(4)), (F(3), F(6))], 2)
    assert m == [(F(1), F(2))]


def test_span_dim_and_contains():
    s = span([(F(1), F(0), F(1)), (F(0), F(1), F(1))], 3)
    assert s.dim == 2
    assert s.contains((F(2), F(3), F(5)))
    assert not s.contains((F(0), F(0), F(1)))


def test_reduce_is_canonical():
    s = span([(F(1), F(1), F(0))], 3)
    v = (F(3), F(3), F(1))
    assert s.reduce(v) == (F(0), F(0), F(1))


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
    pivots = [next(j for j, x in enumerate(r) if x) for r in reduced]
    assert pivots == sorted(set(pivots))
    for r, p in zip(reduced, pivots):
        assert r[p] == 1
        assert all(other[p] == 0 for other in reduced if other is not r)
    assert rref(reduced, 4) == reduced
    assert span(reduced, 4) == span(rows, 4)


@given(st.lists(_vec, max_size=5))
@settings(max_examples=60, deadline=None)
def test_nullspace_is_the_kernel(rows):
    ns = nullspace(rows, 4)
    assert ns.dim == 4 - len(rref(rows, 4))
    for v in ns.basis:
        assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)
