"""Exact rational linear algebra: RREF, spans, sums, intersections."""

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from operad_forge.exactlin import (_back_substitute, _exact, _integral,
                                   absorb, intersect, nullspace, rref, span,
                                   subspace_sum)


def F(x):
    return Fraction(x)


def test_rref_identity():
    m = rref([(F(2), F(0)), (F(0), F(3))], 2)
    assert m == [{0: F(1)}, {1: F(1)}]


def test_rref_accepts_what_vec_accepts():
    # a dense entry must be an int or a Fraction, as a sparse one must
    for row in ((0.5, "1/4"), (1, "1/4"), (Fraction(1, 2), 0.25)):
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            rref([row], 2)
    assert rref([(Fraction(1, 2), Fraction(1, 4)), (1, 2)], 2) == [{0: F(1)}, {1: F(1)}]


def test_exact_keeps_an_int_or_a_non_integral_fraction():
    assert type(_exact(Fraction(6, 3))) is int and _exact(Fraction(6, 3)) == 2
    third = Fraction(1, 3)
    assert _exact(third) is third
    assert type(_exact(True)) is int and _exact(True) == 1
    for c in (0.5, "1/2", None):
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            _exact(c)


def test_rref_dependent_rows():
    m = rref([(F(1), F(2)), (F(2), F(4)), (F(3), F(6))], 2)
    assert m == [{0: F(1), 1: F(2)}]


def test_span_dim_and_contains():
    s = span([(F(1), F(0), F(1)), (F(0), F(1), F(1))], 3)
    assert s.dim == 2
    assert s.contains((F(2), F(3), F(5)))
    assert not s.contains((F(0), F(0), F(1)))


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


def _assert_primitive_reduced(rows):
    """rows are reduced row-echelon rows as exactlin returns them: int
    entries, none zero, gcd 1, a positive entry at the smallest column, and
    that column zero in every other row; pivots increasing."""
    pivots = [min(r) for r in rows]
    assert pivots == sorted(set(pivots))
    for r, p in zip(rows, pivots):
        assert all(type(c) is int and c for c in r.values())
        assert gcd(*r.values()) == 1 and r[p] > 0
        assert all(p not in other for other in rows if other is not r)


@given(st.lists(_vec, max_size=5))
@settings(max_examples=60, deadline=None)
def test_rref_is_reduced_and_idempotent(rows):
    reduced = rref(rows, 4)
    _assert_primitive_reduced(reduced)
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


def _primitive_scaling(row):
    """A dense rational row times the one positive rational that makes it
    a primitive int row."""
    den = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _assert_pivot_rows_primitive(pivots):
    for p, row in pivots.items():
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
    pivots = {}
    for r in rows:
        absorb(pivots, _integral({j: x for j, x in enumerate(r) if x}))
    # the Gauss-Jordan rows have leading entry 1 and the eliminator's a
    # positive one, so scaled to primitive int rows they must agree
    want = [_primitive_scaling(r) for r in _gauss_jordan(rows, ncols)]
    assert len(pivots) == len(want)
    got = [tuple(row.get(j, 0) for j in range(ncols))
           for row in _back_substitute(pivots)]
    assert got == want
    assert [{j: x for j, x in enumerate(r) if x} for r in want] \
        == rref(rows, ncols) == _back_substitute(pivots)
    _assert_pivot_rows_primitive(pivots)


@given(_matrix, st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_every_result_row_is_a_primitive_int_row(matrix, cut):
    ncols, rows = matrix
    a, b = span(rows[:cut], ncols), span(rows[cut:], ncols)
    for reduced in (rref(rows, ncols), span(rows, ncols).basis,
                    nullspace(rows, ncols).basis, intersect(a, b).basis,
                    subspace_sum(a, b).basis):
        _assert_primitive_reduced(reduced)


_scale = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


@given(_matrix.flatmap(lambda m: st.tuples(
    st.just(m), st.lists(_scale, min_size=len(m[1]), max_size=len(m[1])))))
@settings(max_examples=80, deadline=None)
def test_span_ignores_the_scale_of_each_row(args):
    (ncols, rows), scales = args
    scaled = [[s * x for x in r] for r, s in zip(rows, scales)]
    assert span(scaled, ncols) == span(rows, ncols)
    assert rref(scaled, ncols) == rref(rows, ncols)


def test_pivot_rows_are_primitive_ints():
    pivots = {}

    def add(row):
        return absorb(pivots, _integral(row))

    assert add({0: Fraction(2, 3), 1: Fraction(1, 2)})  # cleared to 4, 3
    assert add({0: 2, 2: 5})        # 2*row - piv = (0, -3, 10)
    assert pivots == {0: {0: 4, 1: 3}, 1: {1: 3, 2: -10}}
    assert add({1: 7, 2: 1})        # 3*row - 7*piv = (0, 0, 73)
    assert pivots[2] == {2: 1}
    assert not add({0: Fraction(1, 2), 1: Fraction(3, 8)})
    _assert_pivot_rows_primitive(pivots)
    before = {p: dict(r) for p, r in pivots.items()}
    assert _back_substitute(pivots) == [{0: 1}, {1: 1}, {2: 1}]
    assert pivots == before  # back-substitution works on copies


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
    # an entry must be an int or a Fraction, sparse or dense
    for entry in (0.5, "1/2"):
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            rref([{0: entry}], 1)
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        rref([[0.5]], 1)


def test_a_row_is_taken_as_any_mapping_or_as_a_dense_sequence():
    row = {0: F(1), 2: -2}
    want = rref([row], 3)
    for given_row in (MappingProxyType(row), [F(1), 0, -2], (1, F(0), -2)):
        assert rref([given_row], 3) == want
    for bad in ({0: 0.5}, MappingProxyType({0: 0.5}), [0.5, 0, 0], (1, 0, 0.5)):
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            rref([bad], 3)


# int rows as the oracle builds them: no zero entries, mostly +-1, some
# larger, so that pivots with leading entries other than 1 occur
_int_rows = st.lists(st.dictionaries(
    st.integers(0, 7),
    st.one_of(st.sampled_from((-1, 1)), st.integers(-40, 40).filter(bool)),
    min_size=1, max_size=5), max_size=12)


@given(_int_rows)
@settings(max_examples=100, deadline=None)
def test_absorb_is_add_on_integral_rows(rows):
    # rref adds a row as absorb(pivots, _integral(row)); on int rows the
    # cleared copy changes nothing, so absorbing the row itself is the same
    by_add, by_absorb = {}, {}
    assert [absorb(by_add, _integral(r)) for r in rows] \
        == [absorb(by_absorb, dict(r)) for r in rows]
    assert by_absorb == by_add
    assert _back_substitute(by_absorb) == _back_substitute(by_add)
    _assert_pivot_rows_primitive(by_absorb)


def test_add_leaves_its_row_as_it_is():
    # _integral copies the row that rref and intersect add, whatever the
    # Mapping, so absorb takes over the copy and never the row itself
    pivots = {}
    absorb(pivots, {0: 1, 1: 2})
    row = {0: 3, 1: Fraction(1, 2), 2: 5}
    view = MappingProxyType(dict(row))
    for given_row in (row, view):
        snapshot = dict(given_row)
        absorb(pivots, _integral(given_row))
        assert given_row == snapshot
    assert all(row is not p and view is not p for p in pivots.values())
    rows = [{0: 1, 1: 2}, row, view]
    snapshots = [dict(r) for r in rows]
    assert rref(rows, 3) == rref(snapshots, 3)
    assert [dict(r) for r in rows] == snapshots


def test_absorb_takes_over_its_row():
    pivots = {}
    first = {0: 2, 1: 4}
    assert absorb(pivots, first)
    assert pivots == {0: {0: 1, 1: 2}}
    second = {0: 1, 1: 3}
    assert absorb(pivots, second)
    assert second == {1: 1} and pivots[1] is second
    dependent = {0: -1, 1: -5}
    assert not absorb(pivots, dependent)
    assert dependent == {}


def _pivot_rows(rows):
    """The pivot rows absorb makes of rows, by pivot column: each
    primitive, with a positive entry in its smallest column, its key."""
    pivots = {}
    for r in rows:
        absorb(pivots, _integral(r))
    return pivots


@given(_int_rows, _int_rows)
@settings(max_examples=100, deadline=None)
def test_a_starting_pivot_table_is_as_adding_its_rows_first(first, rows):
    table = {p: dict(r) for p, r in _pivot_rows(first).items()}
    by_add = {}
    for r in table.values():
        assert absorb(by_add, _integral(r))
    assert [absorb(table, dict(r)) for r in rows] \
        == [absorb(by_add, _integral(r)) for r in rows]
    assert table == by_add
    _assert_pivot_rows_primitive(by_add)


class _Lazy(dict):
    """A pivot mapping over pivot rows held out of sight, as the oracle's
    table holds its grafted rows: p in it sees them all, and reading one
    that the dict lacks (__missing__) moves it into the dict."""

    def __init__(self, hidden):
        super().__init__()
        self.hidden, self.reads = hidden, []

    def __contains__(self, p):
        return dict.__contains__(self, p) or p in self.hidden

    def __missing__(self, p):
        self.reads.append(p)
        row = self[p] = self.hidden.pop(p)
        return row


@given(_int_rows, _int_rows)
@settings(max_examples=100, deadline=None)
def test_a_lazy_pivot_mapping_is_as_adding_its_rows_first(first, rows):
    # absorb reads a hidden row only when it reaches its column, and once;
    # the results are those of adding the hidden rows first
    hidden = {p: dict(r) for p, r in _pivot_rows(first).items()}
    by_add = {}
    for r in hidden.values():
        assert absorb(by_add, _integral(r))
    lazy = _Lazy(dict(hidden))
    assert [absorb(lazy, dict(r)) for r in rows] \
        == [absorb(by_add, _integral(r)) for r in rows]
    assert {**lazy, **lazy.hidden} == by_add
    assert len(lazy.reads) == len(set(lazy.reads))
    assert all(lazy[p] == hidden[p] for p in lazy.reads)
    _assert_pivot_rows_primitive(by_add)
