"""Golden tables and exhaustive round trips for the three bijections."""

import pytest

from operad_forge import bijections as bj, systems
from operad_forge.oracle import free_trees
from operad_forge.treeterm import LEAF, arity, is_normal, parse_tree


def internal_vertices(b):
    if b == bj.BULLET:
        return 0
    return 1 + internal_vertices(b[0]) + internal_vertices(b[1])


def parse_pbt(text):
    """The planar binary tree of a bullet-notation string ("*" or "•")."""
    b, rest = _parse_pbt(text.replace("•", "*"))
    if rest:
        raise ValueError(f"trailing input {rest!r}")
    return b


def _parse_pbt(s):
    if not s:
        raise ValueError("empty tree")
    if s[0] == "*":
        return bj.BULLET, s[1:]
    if s[0] != "(":
        raise ValueError(f"expected '(' or bullet at {s!r}")
    left, s = _parse_pbt(s[1:])
    right, s = _parse_pbt(s)
    if not s.startswith(")"):
        raise ValueError("expected ')'")
    return (left, right), s[1:]

# --- Zin normal forms <-> planar binary trees ------------------------------

ZIN_PAIRS_3 = [
    ("x(x(1,1),1)", "(((**)*)*)"),
    ("x(y(1,1),1)", "((*(**))*)"),
    ("y(x(1,1),1)", "(*((**)*))"),
    ("y(y(1,1),1)", "(*(*(**)))"),
    ("y(1,x(1,1))", "((**)(**))"),
]

ZIN_PAIRS_4 = [
    ("x(x(x(1,1),1),1)", "((((**)*)*)*)"),
    ("x(x(y(1,1),1),1)", "(((*(**))*)*)"),
    ("x(y(x(1,1),1),1)", "((*((**)*))*)"),
    ("x(y(y(1,1),1),1)", "((*(*(**)))*)"),
    ("x(y(1,x(1,1)),1)", "(((**)(**))*)"),
    ("y(x(x(1,1),1),1)", "(*(((**)*)*))"),
    ("y(x(y(1,1),1),1)", "(*((*(**))*))"),
    ("y(y(x(1,1),1),1)", "(*(*((**)*)))"),
    ("y(y(y(1,1),1),1)", "(*(*(*(**))))"),
    ("y(y(1,x(1,1)),1)", "(*((**)(**)))"),
    ("y(1,x(x(1,1),1))", "(((**)*)(**))"),
    ("y(1,x(y(1,1),1))", "((*(**))(**))"),
    ("y(x(1,1),x(1,1))", "((**)((**)*))"),
    ("y(y(1,1),x(1,1))", "((**)(*(**)))"),
]

ZIN_PAIRS_5_MIXED = [
    ("y(1,x(x(x(1,1),1),1))", "((((**)*)*)(**))"),
    ("y(1,x(x(y(1,1),1),1))", "(((*(**))*)(**))"),
    ("y(1,x(y(x(1,1),1),1))", "((*((**)*))(**))"),
    ("y(1,x(y(y(1,1),1),1))", "((*(*(**)))(**))"),
    ("y(1,x(y(1,x(1,1)),1))", "(((**)(**))(**))"),
    ("y(x(1,1),x(x(1,1),1))", "(((**)*)((**)*))"),
    ("y(x(1,1),x(y(1,1),1))", "((*(**))((**)*))"),
    ("y(y(1,1),x(x(1,1),1))", "(((**)*)(*(**)))"),
    ("y(y(1,1),x(y(1,1),1))", "((*(**))(*(**)))"),
    ("y(x(x(1,1),1),x(1,1))", "((**)(((**)*)*))"),
    ("y(x(y(1,1),1),x(1,1))", "((**)((*(**))*))"),
    ("y(y(x(1,1),1),x(1,1))", "((**)(*((**)*)))"),
    ("y(y(y(1,1),1),x(1,1))", "((**)(*(*(**))))"),
    ("y(y(1,x(1,1)),x(1,1))", "((**)((**)(**)))"),
]


@pytest.mark.parametrize("pairs", [ZIN_PAIRS_3, ZIN_PAIRS_4,
                                   ZIN_PAIRS_5_MIXED])
def test_zin_golden_tables(pairs):
    for mono, pbt in pairs:
        tree = parse_tree(mono)
        b = parse_pbt(pbt)
        assert bj.zin_to_pbt(tree) == b, mono
        assert bj.pbt_to_zin(b) == tree, pbt


def test_zin_arity5_structural_families():
    # x(U,1) appends a right leaf; y(U,1) prepends a left leaf
    for u in systems.normal_forms("Zin", 4):
        b = bj.zin_to_pbt(u)
        assert bj.zin_to_pbt(("x", u, LEAF)) == (b, bj.BULLET)
        assert bj.zin_to_pbt(("y", u, LEAF)) == (bj.BULLET, b)


def test_zin_leaf_maps_to_one_vertex_tree():
    assert bj.zin_to_pbt(LEAF) == (bj.BULLET, bj.BULLET)
    assert bj.pbt_to_zin((bj.BULLET, bj.BULLET)) == LEAF


@pytest.mark.parametrize("n", range(1, 9))
def test_zin_round_trip(n):
    forms = systems.normal_forms("Zin", n)
    images = set()
    for t in forms:
        b = bj.zin_to_pbt(t)
        assert internal_vertices(b) == n
        assert bj.pbt_to_zin(b) == t
        images.add(b)
    assert len(images) == len(forms)


def test_zin_rejects_non_normal():
    with pytest.raises(ValueError):
        bj.zin_to_pbt(parse_tree("x(1,y(1,1))"))


# --- Bicom normal forms <-> lattice words ----------------------------------

BICOM_PAIRS_3 = [
    ("x(1,x(1,1))", "ENEN"), ("x(x(1,1),1)", "EENN"),
    ("y(x(1,1),1)", "ENNE"), ("x(y(1,1),1)", "NEEN"),
    ("y(y(1,1),1)", "NNEE"), ("y(1,y(1,1))", "NENE"),
]

BICOM_PAIRS_4 = [
    ("x(1,x(x(1,1),1))", "ENEENN"), ("x(1,x(1,x(1,1)))", "ENENEN"),
    ("x(x(1,x(1,1)),1)", "EENENN"), ("y(x(1,x(1,1)),1)", "ENENNE"),
    ("x(x(1,1),x(1,1))", "EENNEN"), ("x(x(x(1,1),1),1)", "EEENNN"),
    ("y(x(x(1,1),1),1)", "EENNNE"), ("x(y(x(1,1),1),1)", "ENNEEN"),
    ("y(y(x(1,1),1),1)", "ENNENE"), ("y(x(1,1),y(1,1))", "ENNNEE"),
    ("x(y(1,1),x(1,1))", "NEEENN"), ("x(x(y(1,1),1),1)", "NEENEN"),
    ("y(x(y(1,1),1),1)", "NEENNE"), ("x(y(y(1,1),1),1)", "NNEEEN"),
    ("y(y(y(1,1),1),1)", "NNNEEE"), ("y(y(1,1),y(1,1))", "NNEENE"),
    ("x(y(1,y(1,1)),1)", "NENEEN"), ("y(y(1,y(1,1)),1)", "NNENEE"),
    ("y(1,y(1,y(1,1)))", "NENENE"), ("y(1,y(y(1,1),1))", "NENNEE"),
]


@pytest.mark.parametrize("pairs", [BICOM_PAIRS_3, BICOM_PAIRS_4])
def test_bicom_golden_tables(pairs):
    for mono, word in pairs:
        tree = parse_tree(mono)
        assert bj.bicom_to_word(tree) == word, mono
        assert bj.word_to_bicom(word) == tree, word


def _labels(t):
    return set() if t == LEAF else {t[0]} | _labels(t[1]) | _labels(t[2])


def test_bicom_pure_combs_hit_dyck_words():
    # x-only normal forms map to Dyck words (never dip below the diagonal)
    for t in systems.normal_forms("Bicom", 5):
        w = bj.bicom_to_word(t)
        if _labels(t) == {"x"}:
            h = 0
            for ch in w:
                h += 1 if ch == "E" else -1
                assert h >= 0


@pytest.mark.parametrize("n", range(1, 9))
def test_bicom_round_trip(n):
    forms = systems.normal_forms("Bicom", n)
    words = set()
    for t in forms:
        w = bj.bicom_to_word(t)
        assert len(w) == 2 * (n - 1) and w.count("E") == n - 1
        assert bj.word_to_bicom(w) == t
        words.add(w)
    assert len(words) == len(forms)


def test_bicom_surjective_onto_lattice_words():
    from itertools import combinations
    n = 5
    length = 2 * (n - 1)
    all_words = {"".join("E" if i in pos else "N" for i in range(length))
                 for pos in combinations(range(length), n - 1)}
    got = {bj.bicom_to_word(t) for t in systems.normal_forms("Bicom", n)}
    assert got == all_words


def test_bicom_above_the_default_cap():
    # arity 12 lies above the default Bicom system's cap of 10
    sys12 = systems.system("Bicom", max_arity=12)
    w = "ENNE" * 5 + "EN"
    t = bj.word_to_bicom(w)
    assert arity(t) == 12 and is_normal(t, sys12)
    assert bj.bicom_to_word(t) == w
    (f9,) = [r for r in sys12.rules if r.name == "f9"]
    assert arity(f9.lhs) == 12 and not is_normal(f9.lhs, sys12)
    with pytest.raises(ValueError, match="not a normal Bicom monomial"):
        bj.bicom_to_word(f9.lhs)


def test_word_to_bicom_rejects_unbalanced():
    with pytest.raises(ValueError):
        bj.word_to_bicom("EEN")
    with pytest.raises(ValueError):
        bj.word_to_bicom("EX")


_EXPECTED = {bj.pbt_to_zin: "a planar binary tree with an internal vertex",
             bj.word_to_bicom: "a str of as many E's as N's"}


@pytest.mark.parametrize("convert, value", [
    (bj.pbt_to_zin, 5), (bj.pbt_to_zin, ("*",)),
    (bj.word_to_bicom, 5), (bj.word_to_bicom, ["E", "N"]),
])
def test_reverse_maps_refuse_malformed_input(convert, value):
    with pytest.raises(ValueError, match=f"^not {_EXPECTED[convert]}$"):
        convert(value)


# --- Flex normal forms <-> L normal forms ----------------------------------

@pytest.mark.parametrize("n", range(1, 9))
def test_flex_l_round_trip(n):
    flex_forms = systems.normal_forms("Flex", n)
    l_forms = systems.normal_forms("L", n)
    assert len(flex_forms) == len(l_forms) == systems.dim_formula("Flex", n)
    images = {bj.flex_to_L(t) for t in flex_forms}
    assert images == set(l_forms)
    for t in flex_forms:
        assert bj.L_to_flex(bj.flex_to_L(t)) == t


def test_flex_l_small_cases():
    assert bj.flex_to_L(LEAF) == LEAF
    assert bj.flex_to_L(parse_tree("x(1,1)")) == parse_tree("z(1,1)")
    assert bj.flex_to_L(parse_tree("y(1,1)")) == parse_tree("t(1,1)")
    assert bj.flex_to_L(parse_tree("y(1,x(1,1))")) == parse_tree("t(1,t(1,1))")


def test_flex_to_l_rejects_non_normal():
    with pytest.raises(ValueError):
        bj.flex_to_L(parse_tree("y(1,y(1,y(1,1)))"))


@pytest.mark.parametrize("convert, tree, kind", [
    (bj.bicom_to_word, ("z", 1, 1), "Bicom"),
    (bj.zin_to_pbt, ("y", 1, ("z", 1, 1)), "Zin"),
    (bj.zin_to_pbt, ("z", 1, 1), "Zin"),
    (bj.flex_to_L, ("z", 1, 1), "Flex"),
    (bj.L_to_flex, ("x", 1, 1), "L"),
    # foreign labels below the root, met inside each map's own recursion
    (bj.zin_to_pbt, ("x", 1, ("z", 1, 1)), "Zin"),
    (bj.zin_to_pbt, ("y", 1, ("x", ("z", 1, 1), 1)), "Zin"),
    (bj.bicom_to_word, ("x", 1, ("x", ("z", 1, 1), 1)), "Bicom"),
    (bj.bicom_to_word, ("z", ("x", 1, 1), ("y", 1, 1)), "Bicom"),
    (bj.bicom_to_word, ("x", ("z", 1, 1), ("x", 1, 1)), "Bicom"),
    (bj.flex_to_L, ("x", 1, ("z", 1, 1)), "Flex"),
])
def test_labels_outside_the_system_are_refused(convert, tree, kind):
    with pytest.raises(ValueError, match=f"not a normal {kind} monomial"):
        convert(tree)


def test_pbt_parse_format():
    for s in ("*", "(**)", "((**)(*(**)))"):
        assert bj.format_pbt(parse_pbt(s)).replace("•", "*") == s
    assert bj.format_pbt(parse_pbt("(••)")) == "(••)"


@pytest.mark.parametrize("convert, tree, kind", [
    (convert, tree, kind)
    for convert, kind in ((bj.zin_to_pbt, "Zin"), (bj.bicom_to_word, "Bicom"),
                          (bj.flex_to_L, "Flex"))
    for tree in (("x", 1), ("y", 1, ("x", 1)), ("y", 1, ("x", 1, 1, 1)))
] + [
    (bj.L_to_flex, tree, "L")
    for tree in (("z", 1), ("t", 1, ("z", 1)), ("t", 1, ("z", 1, 1, 1)))
])
def test_malformed_nodes_are_refused(convert, tree, kind):
    with pytest.raises(ValueError, match=f"not a normal {kind} monomial"):
        convert(tree)


@pytest.mark.parametrize("convert, back, kind, labels, accepted", [
    (bj.zin_to_pbt, bj.pbt_to_zin, "Zin", ("x", "y", "xy"), 196),
    (bj.bicom_to_word, bj.word_to_bicom, "Bicom", ("x", "y", "xy"), 351),
    (bj.flex_to_L, bj.L_to_flex, "Flex", ("x", "y", "xy"), 911),
    (bj.L_to_flex, bj.flex_to_L, "L", ("z", "t", "zt"), 911),
])
def test_each_map_accepts_exactly_the_normal_forms(
        convert, back, kind, labels, accepted):
    # every tree through arity 6 over the system's two labels and a foreign
    # one; is_normal meets no redex at the foreign label, the map refuses it
    sys = systems.system(kind)
    own = set(labels[:2])
    seen = 0
    for n in range(1, 7):
        for t in free_trees(n, labels):
            seen += 1
            if _labels(t) <= own and is_normal(t, sys):
                assert back(convert(t)) == t
                accepted -= 1
            else:
                with pytest.raises(ValueError, match=f"not a normal {kind} monomial"):
                    convert(t)
    assert (seen, accepted) == (11_497, 0)
