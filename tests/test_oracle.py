"""Brute-force dimension oracle: the trust anchor for the rewriting claims."""

import gc
import re
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from operad_forge import oracle, systems
from operad_forge.oracle import (SparseEliminator, bruteforce_dim, catalan,
                                 consequences, free_dim, free_trees,
                                 ideal_rank, ideal_ranks, position)
from operad_forge.treeterm import LEAF, NsElement, graft

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


def test_free_trees_are_distinct():
    ts = free_trees(5)
    assert len(set(ts)) == len(ts)


def test_eliminator_rank():
    e = SparseEliminator()
    assert e.add({0: Fraction(1), 1: Fraction(2)})
    assert e.add({1: Fraction(1)})
    assert not e.add({0: Fraction(2), 1: Fraction(4)})
    assert not e.add({0: Fraction(1), 1: Fraction(5)})  # 1-pivot absorbs
    assert e.rank == 2


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
    elim = SparseEliminator()
    for rows in row_lists:
        for row in rows:
            elim.add(row)
    return elim.rank


def _recording(call):
    """call() with every SparseEliminator the oracle builds recorded: its
    result and the eliminators in the order they were built."""
    used = []

    class Recording(SparseEliminator):
        def __init__(self, pivots=None):
            super().__init__(pivots)
            used.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "SparseEliminator", Recording)
        result = call()
    return result, used


def _eliminations(rels, n, ops=("x", "y")):
    """The eliminators ideal_rank(rels, n, ops) fills, one per arity from 3
    to n, keyed by arity."""
    rank, used = _recording(lambda: ideal_rank(rels, n, ops))
    assert len(used) == n - 2 and rank == used[-1].rank
    return dict(zip(range(3, n + 1), used))


def _bases(elims, m):
    """The lower bases consequences(rels, m, ...) takes: I(k) by pivot."""
    return [{}, {}, {}] + [elims[k].pivots for k in range(3, m)]


def _grafted(m, bases, ops=("x", "y")):
    """The grafted rows of arity m by leading column, as ideal_rank's
    eliminator starts from them."""
    return oracle._grafted(m, bases, ops)


def _rows(rels, m, bases, ops=("x", "y")):
    """Every row of arity m: the grafted rows, then the root rows."""
    return [*_grafted(m, bases, ops).values(), *consequences(rels, m, bases, ops)]


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


def test_nc_nov_pivots_grow_beyond_one():
    elims = _eliminations(systems.nc_relations("NcNov"), 6)
    assert elims[6].max_bits > 1


def test_rows_come_by_descending_leading_column():
    # the grafted rows are keyed by their pairwise distinct leading columns
    # and are pivot rows as they stand; the root rows follow by descending
    # leading column, which keeps NcZin's fill-in at arity 7 at 21,212
    # pivot nonzeros (in generation order it was 37,200, with the same rank)
    rels = systems.nc_relations("NcZin")
    elims = _eliminations(rels, 7)
    bases = _bases(elims, 7)
    # op(I(k), F) and op(N(k), I(7 - k)) for each of the two labels
    grafted = 2 * sum(len(bases[k]) * free_dim(7 - k)
                      + (free_dim(k) - len(bases[k])) * len(bases[7 - k])
                      for k in range(1, 7))
    table = _grafted(7, bases)
    assert len(table) == grafted
    for lead, row in table.items():
        assert min(row) == lead
        alone = SparseEliminator()
        assert alone.add(row) and alone.pivots == {lead: row}
    root = consequences(rels, 7, bases)
    assert [(-min(r), len(r)) for r in root] == sorted((-min(r), len(r)) for r in root)
    elim = SparseEliminator(table)
    for row in root:
        elim.add(row)
    assert elim.rank == 8019 == free_dim(7) - catalan(7)
    assert elim.nonzeros == elims[7].nonzeros <= 21_212


def test_grafted_rows_sharing_a_leading_column_are_refused():
    # were the label y's block reported at the label x's, op(p, e_j) would
    # come twice for each label, at one leading column; the table would
    # hold one of each pair and the rank would come out too small
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
    # ideal_rank starts from the grafted rows as its pivot table and hands
    # its freshly built root rows to absorb; add on copies of all rows,
    # which clears denominators, must reach the very same pivot rows
    rels = systems.nc_relations(name)
    elims = _eliminations(rels, 7)
    for n in range(3, 8):
        elim = elims[n]
        ref = SparseEliminator()
        for row in _rows(rels, n, _bases(elims, n)):
            ref.add(dict(row))
        assert (ideal_rank(rels, n), elim.rank, elim.nonzeros, elim.max_bits) \
            == (ref.rank, ref.rank, ref.nonzeros, ref.max_bits), (name, n)
        assert elim.pivots == ref.pivots, (name, n)


@pytest.mark.parametrize("name,rank,nonzeros", [("NcZin", 8019, 21_212),
                                                ("NcNov", 7524, 24_889)])
def test_fill_in_does_not_depend_on_the_relations_order(name, rank, nonzeros):
    rels = systems.nc_relations(name)
    for given in (rels, _flipped(rels)):
        elim = _eliminations(given, 7)[7]
        assert elim.rank == rank
        assert elim.nonzeros == nonzeros


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
    from operad_forge import exactlin
    assert SparseEliminator is exactlin.SparseEliminator


@pytest.mark.parametrize("name", NC_NAMES)
def test_ideal_ranks_is_one_recursion(name):
    # the sweep yields what ideal_rank gives at each arity, from one
    # eliminator per arity: 5 through arity 7, where five calls build 15
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
