"""Brute-force dimension oracle: the trust anchor for the rewriting claims."""

import gc
import re
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from operad_forge import exactlin, oracle, systems
from operad_forge.arity3 import catalog
from operad_forge.exactlin import _integral, absorb
from operad_forge.manin import nonsymmetric_version
from operad_forge.oracle import (bruteforce_dim, catalan, consequences,
                                 free_dim, free_trees, ideal_rank, ideal_ranks,
                                 position)
from operad_forge.treeterm import LEAF, NsElement
from planar import graft

NC_NAMES = ("NcZin", "NcBicom", "NcFlex", "NcAntiFlex", "NcNov")


def test_catalan():
    assert [catalan(m) for m in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_free_tree_counts():
    for n in range(1, 7):
        assert len(free_trees(n)) == free_dim(n) == 2 ** (n - 1) * catalan(n - 1)
    assert len(free_trees(4, ("z", "t"))) == free_dim(4, ("z", "t"))


def _free_trees_reference(n, ops):
    """The oracle's former recursive enumeration: op, left arity, left, right."""
    if n == 1:
        return [1]
    return [(op, l, r) for op in ops for k in range(1, n)
            for l in _free_trees_reference(k, ops)
            for r in _free_trees_reference(n - k, ops)]


@pytest.mark.parametrize("ops", [("x", "y"), ("z", "t")])
def test_free_trees_keep_the_column_order(ops):
    for n in range(1, 7):
        assert list(free_trees(n, ops)) == _free_trees_reference(n, ops)


@pytest.mark.parametrize("ops", [("x", "y"), ("z", "t"), ("a", "b", "c")])
def test_position_is_the_index_in_free_trees(ops):
    for n in range(1, 8):
        for i, tree in enumerate(free_trees(n, ops)):
            assert position(tree, (1,) * n, ops)[0] == i


@pytest.mark.parametrize("ops", [("x", "y"), ("a", "b", "c")])
def test_position_is_affine_in_the_grafted_trees(ops):
    for k in range(1, 4):
        for arities in product(range(1, 5), repeat=k):
            if sum(arities) > 6:
                continue
            index = {t: i for i, t in enumerate(free_trees(sum(arities), ops))}
            for pattern in free_trees(k, ops):
                c, w = position(pattern, arities, ops)
                for subs in product(*(enumerate(free_trees(a, ops))
                                      for a in arities)):
                    tree = graft(pattern, [t for _, t in subs])
                    assert index[tree] == c + sum(
                        wj * i for wj, (i, _) in zip(w, subs))


@pytest.mark.parametrize("pattern, arities", [
    (LEAF, ()),
    ("junk", ()),
    (LEAF, (1, 1)),
    (("q", LEAF, LEAF), (1, 1)),
])
def test_position_refuses_what_is_no_tree_with_those_leaves(pattern, arities):
    with pytest.raises(ValueError, match=re.escape(f"{pattern!r} is not a tree")):
        position(pattern, arities)


def test_position_leaves_no_reference_cycle():
    pattern, arities = free_trees(4)[5], (1, 2, 1, 3)
    position(pattern, arities)  # fills the layout cache
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            position(pattern, arities)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_ideal_rank_leaves_no_reference_cycle():
    # each arity's table refers to the lower ones only, so a finished call
    # frees its tables by reference counting, not at a later collection
    rels = systems.nc_relations("NcZin")
    ideal_rank(rels, 6)  # fills the layout cache
    gc.collect()
    gc.disable()
    try:
        ideal_rank(rels, 6)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_free_trees_are_distinct():
    ts = free_trees(5)
    assert len(set(ts)) == len(ts)


def test_eliminator_rank():
    pivots = {}
    assert absorb(pivots, _integral({0: Fraction(1), 1: Fraction(2)}))
    assert absorb(pivots, _integral({1: Fraction(1)}))
    assert not absorb(pivots, _integral({0: Fraction(2), 1: Fraction(4)}))
    # the 1-pivot absorbs
    assert not absorb(pivots, _integral({0: Fraction(1), 1: Fraction(5)}))
    assert len(pivots) == 2


def _consequences_by_grafting(rels, n, ops=("x", "y")):
    """The flat construction: graft every relation, with every inner tree
    in its leaves, into every leaf of every context, and look up the
    column of each grafted tree.  The rows come in the order consequences
    gives its root rows, by descending leading column and sparsest first
    among equal ones, which keeps the reference's elimination short."""
    index = {t: i for i, t in enumerate(free_trees(n, ops))}
    out = []
    for rel in rels:
        den = lcm(*(c.denominator for c in rel.values()))
        terms = [(s, c.numerator * (den // c.denominator)) for s, c in rel.items()]
        for m in range(3, n + 1):
            inner_elems = []
            for a in range(1, m - 1):
                for b in range(1, m - a):
                    c = m - a - b
                    for t1 in free_trees(a, ops):
                        for t2 in free_trees(b, ops):
                            for t3 in free_trees(c, ops):
                                inner_elems.append(
                                    [(graft(s, (t1, t2, t3)), coeff)
                                     for s, coeff in terms])
            k = n - m + 1
            for context in free_trees(k, ops):
                for leaf_i in range(k):
                    before, after = [LEAF] * leaf_i, [LEAF] * (k - 1 - leaf_i)
                    for elem in inner_elems:
                        row = {}
                        for t, coeff in elem:
                            j = index[graft(context, before + [t] + after)]
                            row[j] = row.get(j, 0) + coeff
                        row = {j: c for j, c in row.items() if c}
                        if row:
                            out.append(row)
    out.sort(key=len)
    out.sort(key=min, reverse=True)
    return out


def _rank(*row_lists):
    pivots = {}
    for rows in row_lists:
        for row in rows:
            absorb(pivots, _integral(row))
    return len(pivots)


def _max_bits(pivots):
    """The bit length of the largest absolute pivot-row entry."""
    return max((c.bit_length() for row in pivots.values() for c in row.values()),
               default=0)


def _recording(call):
    """call() with every I(m) table the oracle builds for m >= 3 recorded:
    its result and the tables in the order they were built, each the pivot
    mapping of one elimination."""
    used = []

    class Recording(oracle._Ideal):
        def __init__(self, m, *args):
            super().__init__(m, *args)
            if m >= 3:
                used.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_Ideal", Recording)
        result = call()
    return result, used


def _eliminations(rels, n, ops=("x", "y")):
    """The tables ideal_rank(rels, n, ops) fills, one per arity from 3 to
    n, keyed by arity."""
    rank, used = _recording(lambda: ideal_rank(rels, n, ops))
    assert len(used) == n - 2 and rank == used[-1].rank
    return dict(zip(range(3, n + 1), used))


def _bases(elims, m):
    """The lower bases consequences(rels, m, ...) takes, as ideal_rank
    built them: I(k) by pivot column for k < m."""
    return elims[m].bases


def _full(table):
    """Every pivot row of a table of ideal_rank's, each read (and so built)
    by its column: a plain dict, as an eager elimination holds it."""
    return {p: table[p] for p in range(len(table.lead)) if p in table}


def _grafted(m, bases, ops=("x", "y")):
    """The grafted rows of fact 2 for arity m by leading column, built in
    full from bases[k], I(k)'s pivot rows as plain dicts: the eager table
    the oracle's eliminator once started from.  op(p, e_j) leads at
    c + w*pivot(p) + j and op(e_i, q) at c + w*i + pivot(q)."""
    table = {}
    placed = 0
    for op in ops:
        for k in range(1, m):
            c, (w, _) = position((op, LEAF, LEAF), (k, m - k), ops)
            for p, row in bases[k].items():
                at = [(c + w * i, x) for i, x in row.items()]
                a = c + w * p
                for j in range(w):
                    table[a + j] = {b + j: x for b, x in at}
            normal = ([i for i in range(free_dim(k, ops)) if i not in bases[k]]
                      if bases[m - k] else ())
            for q, row in bases[m - k].items():
                for i in normal:
                    a = c + w * i
                    table[a + q] = {a + j: x for j, x in row.items()}
            placed += len(bases[k]) * w + len(normal) * len(bases[m - k])
    assert len(table) == placed
    return table


def _reference(rels, n, ops=("x", "y")):
    """The eager recursion, independent of the oracle's tables: for each
    arity m from 3 to n, the full grafted table and the pivot rows absorb
    made of it and the root rows, a plain dict."""
    bases = [{}, {}, {}]
    out = {}
    for m in range(3, n + 1):
        grafted = _grafted(m, bases, ops)
        pivots = dict(grafted)
        for row in consequences(rels, m, bases, ops):
            absorb(pivots, row)
        bases.append(pivots)
        out[m] = grafted, pivots
    return out


def _rows(rels, m, bases, ops=("x", "y")):
    """Every row of arity m: the grafted rows in full, then the root rows."""
    full = [{}] + [_full(t) for t in bases[1:]]
    return [*_grafted(m, full, ops).values(), *consequences(rels, m, bases, ops)]


def _flipped(rels):
    return [NsElement((t, -c) for t, c in r.items()) for r in reversed(rels)]


@pytest.mark.parametrize("name", NC_NAMES)
def test_consequences_match_the_grafting_construction(name):
    # the rows of each arity, built on ideal_rank's own lower eliminations,
    # span exactly what the flat grafting construction spans
    rels = systems.nc_relations(name)
    for given in (rels, _flipped(rels)):
        elims = _eliminations(given, 7)
        for n in range(3, 8):
            got = _rows(given, n, _bases(elims, n))
            want = _consequences_by_grafting(given, n)
            rank = _rank(want)
            assert _rank(got) == rank == _rank(got, want), (name, n)
            assert elims[n].rank == rank, (name, n)


@pytest.mark.parametrize("term", [
    ("x", LEAF, LEAF),                                  # arity 2
    ("x", ("x", LEAF, LEAF), ("y", LEAF, LEAF)),        # arity 4
    ("q", LEAF, ("x", LEAF, LEAF)),                     # foreign label
    ("x", LEAF, ("x", LEAF)),                           # not a binary node
    "x(1,x(1,1))",                                      # not a tree at all
])
def test_malformed_relation_terms_are_refused(term):
    good = systems.nc_relations("NcZin")[0]
    rel = NsElement(list(good.items()) + [(term, Fraction(1))])
    for call in (ideal_rank, bruteforce_dim):
        with pytest.raises(ValueError) as exc:
            call([rel], 4)
        assert repr(term) in str(exc.value)
        assert repr(("x", "y")) in str(exc.value)


def test_terms_over_other_labels_are_refused():
    rels = systems.nc_relations("NcZin")
    for call in (ideal_rank, bruteforce_dim):
        with pytest.raises(ValueError, match=r"\('z', 't'\)"):
            call(rels, 4, ("z", "t"))


@pytest.mark.parametrize("call", [
    lambda ops: free_trees(4, ops),
    lambda ops: free_dim(4, ops),
    lambda ops: bruteforce_dim([], 4, ops=ops),
    lambda ops: bruteforce_dim([], 2, ops=ops),
    lambda ops: position(LEAF, (1,), ops),
])
@pytest.mark.parametrize("ops", [("x", "x"), ("x", "y", "x")])
def test_repeated_labels_are_refused(call, ops):
    with pytest.raises(ValueError, match="repeat a label"):
        call(ops)


def test_relations_themselves_are_consequences():
    rels = systems.nc_relations("NcZin")
    assert _rank(consequences(rels, 3, [{}, {}, {}])) == len(rels)
    assert ideal_rank(rels, 3) == len(rels)


@pytest.mark.parametrize("name,dims", [
    ("NcZin", {3: 5, 4: 14, 5: 42, 6: 132}),
    ("NcBicom", {3: 6, 4: 20, 5: 70, 6: 252}),
    ("NcFlex", {3: 7, 4: 30, 5: 143, 6: 728}),
    ("NcAntiFlex", {3: 7, 4: 30, 5: 143, 6: 728}),
    # no closed formula is asserted elsewhere; these freeze the oracle's own
    # output, the one case whose pivot rows have entries beyond +-1
    ("NcNov", {3: 6, 4: 20, 5: 70, 6: 252}),
])
def test_bruteforce_dims(name, dims):
    rels = systems.nc_relations(name)
    for n, want in dims.items():
        assert bruteforce_dim(rels, n) == want, (name, n)


@pytest.mark.parametrize("name,want", [("NcBicom", 3432), ("NcFlex", 21318)])
def test_bruteforce_arity_8(name, want):
    assert bruteforce_dim(systems.nc_relations(name), 8, cap=8) == want


def test_bruteforce_arity_9():
    assert bruteforce_dim(systems.nc_relations("NcFlex"), 9, cap=9) == 120175


def test_nc_nov_pivots_grow_beyond_one():
    elims = _eliminations(systems.nc_relations("NcNov"), 6)
    assert elims[6].max_bits > 1


def test_rows_come_by_descending_leading_column():
    # the grafted rows lead at pairwise distinct columns, which the pivot
    # indicator marks, and are pivot rows as they stand; the root rows
    # follow by descending leading column, and among equals by descending
    # last column (test_root_row_order_bounds_the_elimination_work), which
    # keeps NcZin's fill-in at arity 7 at 21,212 nonzeros in all pivot rows
    # (in generation order it was 37,200, with the same rank) and at 2,576
    # in the root pivot rows of arities up to 7, of which every other pivot
    # row is a copy (7,861 in generation order)
    rels = systems.nc_relations("NcZin")
    elims = _eliminations(rels, 7)
    bases = _bases(elims, 7)
    ranks = [t.lead.count(1) for t in bases[1:]]
    assert ranks == [0, 0, 3, 26, 182, 1212]
    ranks.insert(0, None)
    # op(I(k), F) and op(N(k), I(7 - k)) for each of the two labels
    grafted = 2 * sum(ranks[k] * free_dim(7 - k)
                      + (free_dim(k) - ranks[k]) * ranks[7 - k]
                      for k in range(1, 7))
    implicit = oracle._Ideal(7, bases, ("x", "y"))
    assert implicit.lead.count(1) == grafted
    assert implicit.rank == grafted and len(implicit) == 0
    table = _grafted(7, [{}] + [_full(t) for t in bases[1:]])
    assert len(table) == grafted
    for lead in range(len(implicit.lead)):
        if implicit.lead[lead]:
            row = implicit[lead]
            assert min(row) == lead and row == table[lead]
            alone = {}
            assert absorb(alone, dict(row)) and alone == {lead: row}
    assert len(implicit) == implicit.lead.count(1) == grafted
    root = consequences(rels, 7, bases)
    assert [(-min(r), -max(r)) for r in root] == sorted((-min(r), -max(r)) for r in root)
    for row in root:
        absorb(table, dict(row))
        absorb(implicit, dict(row))
    implicit.settle()
    assert implicit.rank == len(table) == 8019 == free_dim(7) - catalan(7)
    assert implicit.rank == implicit.lead.count(1) == len(implicit)
    assert sum(map(len, table.values())) <= 21_212
    assert implicit.nonzeros == elims[7].nonzeros <= 2_576


def test_grafted_rows_sharing_a_leading_column_are_refused():
    # were the label y's block reported at the label x's, op(p, e_j) would
    # come twice for each label, at one leading column; the indicator would
    # mark one of each pair, and the rank, its count, would come out too
    # small
    position = oracle.position

    def y_at_x(pattern, arities, ops=("x", "y")):
        if pattern == ("y", LEAF, LEAF):
            pattern = ("x", LEAF, LEAF)
        return position(pattern, arities, ops)

    rels = systems.nc_relations("NcZin")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "position", y_at_x)
        assert ideal_rank(rels, 3) == len(rels)  # nothing grafted yet
        with pytest.raises(RuntimeError, match="grafted rows of arity 4 "
                                               "share a leading column"):
            ideal_rank(rels, 4)


@pytest.mark.parametrize("name", NC_NAMES)
def test_ideal_rank_absorbs_rows_as_add_would(name):
    # ideal_rank starts from the grafted rows, built as absorb reaches them,
    # and hands its freshly built root rows to absorb; absorbing copies of
    # all rows cleared of denominators (_integral, as rref adds a row), the
    # grafted ones in full, into a plain dict must reach the very same
    # pivot rows, and the oracle's statistics count the rows
    # it never built: the rank all of them, nonzeros the root pivot rows of
    # arities up to n, of which every other pivot row is a copy
    rels = systems.nc_relations(name)
    elims = _eliminations(rels, 7)
    roots = 0
    for n in range(3, 8):
        elim = elims[n]
        grafted = _grafted(n, [{}] + [_full(t) for t in _bases(elims, n)[1:]])
        ref = {}
        for row in (*grafted.values(), *consequences(rels, n, _bases(elims, n))):
            absorb(ref, _integral(row))
        roots += sum(len(row) for p, row in ref.items() if p not in grafted)
        assert (ideal_rank(rels, n), elim.rank, elim.lead.count(1),
                elim.nonzeros, elim.max_bits) \
            == (len(ref), len(ref), len(ref), roots, _max_bits(ref)), (name, n)
        full = _full(elim)
        assert full == ref, (name, n)
        assert sum(map(len, full.values())) == sum(map(len, ref.values())), (name, n)
        assert elim.nonzeros == roots, (name, n)  # reading built no root


@pytest.mark.parametrize("name", ["NcZin", "NcNov"])
def test_implicit_grafted_rows_are_the_eager_table(name):
    # the eager recursion builds every grafted row; the oracle marks their
    # leading columns in its indicator and builds a row when it is read
    rels = systems.nc_relations(name)
    elims = _eliminations(rels, 7)
    eager = _reference(rels, 7)
    for m in range(3, 8):
        table, ref = eager[m]
        implicit = oracle._Ideal(m, _bases(elims, m), ("x", "y"))
        assert {p for p, x in enumerate(implicit.lead) if x} == table.keys()
        assert all(implicit[p] == row for p, row in table.items()), (name, m)
        used = elims[m]
        assert used.rank == len(ref) == used.lead.count(1)
        assert {p for p, x in enumerate(used.lead) if x} == ref.keys()
        assert all(used[p] == row for p, row in ref.items()), (name, m)


def _relabelled(t, names):
    return t if t == LEAF else (names[t[0]], _relabelled(t[1], names),
                                _relabelled(t[2], names))


@pytest.mark.parametrize("ops, names", [
    (("x", "y"), {"x": "x", "y": "y"}),
    (("y", "x"), {"x": "x", "y": "y"}),
    (("a", "b", "c"), {"x": "c", "y": "a"}),
])
@pytest.mark.parametrize("name", ["NcZin", "NcNov"])
def test_grafted_blocks_come_in_increasing_start_column(name, ops, names):
    # __missing__ bisects _starts, which _Ideal appends unsorted: by label
    # in ops' order, then by left arity, free_trees' own order
    rels = [NsElement((_relabelled(t, names), c) for t, c in r.items())
            for r in systems.nc_relations(name)]
    n = 7 if len(ops) == 2 else 6
    elims = _eliminations(rels, n, ops)
    for table in (*elims[n].bases[1:], elims[n]):
        starts = table._starts
        assert len(starts) == len(ops) * (table.m - 1)
        assert all(a < b for a, b in zip(starts, starts[1:])), (ops, table.m)


@pytest.mark.parametrize("name,rank,nonzeros", [("NcZin", 8019, 21_212),
                                                ("NcBicom", 7524, 15_048),
                                                ("NcFlex", 4572, 25_308),
                                                ("NcAntiFlex", 4572, 25_308),
                                                ("NcNov", 7524, 26_444)])
def test_fill_in_does_not_depend_on_the_relations_order(name, rank, nonzeros):
    # the relations reversed and negated give the same fill-in; nonzeros
    # counts all pivot rows of I(7), each read; stored counts the root pivot
    # rows of arities up to 7, of which the others are copies.  A change of
    # basis may change both: NcNov given as (r1 + r2, r2) has 34,930
    # nonzeros against 26,444, NcZin given as (r1 + r2 + r3, r2, r3) 32,857
    # against 21,212
    stored = {"NcZin": 2_576, "NcBicom": 2_912, "NcFlex": 8_960,
              "NcAntiFlex": 8_960, "NcNov": 6_794}[name]
    rels = systems.nc_relations(name)
    for given in (rels, _flipped(rels)):
        elim = _eliminations(given, 7)[7]
        assert elim.rank == rank
        assert elim.nonzeros == stored
        assert sum(map(len, _full(elim).values())) == nonzeros


# exactlin._cancel calls of ideal_rank(rels, 7, ops), with the root rows by
# descending last column among equal leading columns, and with them by
# ascending length among equals, the order before
_CANCELS_7 = {
    ("NcAs", ("x", "y")): (2_706, 2_706),
    ("NcAs", ("y", "x")): (2_706, 2_706),
    ("NcZin", ("x", "y")): (10_937, 10_937),
    ("NcZin", ("y", "x")): (11_660, 11_660),
    ("NcAlt", ("x", "y")): (1_787, 1_787),
    ("NcAlt", ("y", "x")): (1_787, 1_787),
    ("NcFlex", ("x", "y")): (1_787, 1_787),
    ("NcFlex", ("y", "x")): (1_787, 1_787),
    ("NcAntiFlex", ("x", "y")): (1_787, 1_787),
    ("NcAntiFlex", ("y", "x")): (1_787, 1_787),
    ("NcLeib", ("x", "y")): (1_884, 1_884),
    ("NcLeib", ("y", "x")): (1_884, 1_884),
    ("NcAssosym", ("x", "y")): (1_787, 1_787),
    ("NcAssosym", ("y", "x")): (1_787, 1_787),
    ("NcNov", ("x", "y")): (14_060, 17_862),
    ("NcNov", ("y", "x")): (9_323, 9_323),
    ("NcBicom", ("x", "y")): (1_894, 2_290),
    ("NcBicom", ("y", "x")): (1_894, 1_894),
}


@pytest.mark.parametrize("name,ops", sorted(_CANCELS_7),
                         ids=[f"{name}-{''.join(ops)}" for name, ops in sorted(_CANCELS_7)])
def test_root_row_order_bounds_the_elimination_work(name, ops, monkeypatch):
    # absorb reads _cancel as a global of exactlin; the relations are built
    # first, so their own eliminations are not counted.  catalog knows only
    # the five Nc names of CATALOG_NAMES, so every presentation here is
    # built from its base operad, NcAs and NcLeib as NcZin
    rels = systems._planar(nonsymmetric_version(catalog(name[2:])))
    calls = 0
    cancel = exactlin._cancel

    def counted(row, p, piv):
        nonlocal calls
        calls += 1
        cancel(row, p, piv)

    monkeypatch.setattr(exactlin, "_cancel", counted)
    ideal_rank(rels, 7, ops)
    now, by_length = _CANCELS_7[name, ops]
    assert calls == now <= by_length
    if ops == ("x", "y") and name in ("NcNov", "NcBicom"):
        assert now < by_length


def test_root_row_order_builds_fewer_grafted_rows():
    # at NcBicom 8 the elimination reads 6,133 of the 46,720 grafted rows
    # (8,405 with the sparsest root row first among equal leading columns);
    # the table holds them and the 4,760 root pivot rows
    elim = _eliminations(systems.nc_relations("NcBicom"), 8)[8]
    assert elim.rank - len(elim.roots) == 46_720
    assert len(elim) - len(elim.roots) == 6_133


_ARITY3 = {ops: free_trees(3, ops) for ops in (("x", "y"), ("z", "t"))}
_COEFFS = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))


@st.composite
def _presentations(draw):
    ops = draw(st.sampled_from(sorted(_ARITY3)))
    rels = draw(st.lists(st.lists(st.tuples(st.sampled_from(_ARITY3[ops]), _COEFFS),
                                  min_size=1, max_size=4),
                         min_size=1, max_size=3))
    return ops, [NsElement(r) for r in rels]


@given(_presentations(), st.integers(3, 6))
@settings(max_examples=40, deadline=None)
def test_ideal_rank_matches_the_grafting_construction(presentation, n):
    ops, rels = presentation
    assert ideal_rank(rels, n, ops) == _rank(_consequences_by_grafting(rels, n, ops))


@pytest.mark.parametrize("name", NC_NAMES)
def test_relations_may_come_as_a_generator(name):
    rels = systems.nc_relations(name)
    for n in range(3, 7):
        assert ideal_rank((r for r in rels), n) == ideal_rank(rels, n)
        assert bruteforce_dim(iter(rels), n) == bruteforce_dim(rels, n)


def test_no_labels():
    # with no label there are no trees above arity 1: no relation, no
    # ideal; a relation's terms are no trees over no labels
    assert bruteforce_dim([], 4, ops=()) == 0
    assert list(ideal_ranks([], 6, ())) == [0, 0, 0, 0]
    rels = systems.nc_relations("NcZin")
    term = next(iter(rels[0]))
    with pytest.raises(ValueError, match=re.escape(f"{term!r} is not a tree over ()")):
        bruteforce_dim(rels, 4, ops=())


def test_low_arity_is_free():
    assert bruteforce_dim([], 1) == 1
    assert bruteforce_dim([], 2) == 2


@pytest.mark.parametrize("n", [0, -1])
def test_arity_below_one_is_refused(n):
    for count in (free_dim, free_trees, lambda n: bruteforce_dim([], n)):
        with pytest.raises(ValueError, match="arity must be at least 1"):
            count(n)


def test_cap_enforced():
    with pytest.raises(ValueError):
        bruteforce_dim(systems.nc_relations("NcZin"), 30)


def test_cap_argument():
    with pytest.raises(ValueError, match="exceeds the oracle cap 3"):
        bruteforce_dim(systems.nc_relations("NcZin"), 4, cap=3)


def test_oracle_uses_the_exactlin_kernel():
    assert oracle.absorb is absorb


@pytest.mark.parametrize("name", NC_NAMES)
def test_ideal_ranks_is_one_recursion(name):
    # the sweep yields what ideal_rank gives at each arity, from one
    # elimination per arity: 5 through arity 7, where five calls make 15
    rels = systems.nc_relations(name)
    ranks, used = _recording(lambda: list(ideal_ranks(rels, 7)))
    calls, restarted = _recording(lambda: [ideal_rank(rels, n) for n in range(3, 8)])
    assert ranks == calls, name
    assert (len(used), len(restarted)) == (5, 15)


@pytest.mark.parametrize("call", [
    lambda rels, ops: bruteforce_dim(rels, 4, ops=ops),
    lambda rels, ops: ideal_rank(rels, 4, ops),
    lambda rels, ops: list(ideal_ranks(rels, 4, ops)),
    lambda rels, ops: consequences(rels, 3, [{}, {}, {}], ops),
    lambda rels, ops: position(("x", LEAF, ("y", LEAF, LEAF)), (1, 2, 1), ops),
    lambda rels, ops: free_trees(3, ops),
    lambda rels, ops: free_dim(3, ops),
])
def test_ops_may_be_a_list(call):
    rels = systems.nc_relations("NcZin")
    assert call(rels, ["x", "y"]) == call(rels, ("x", "y"))
