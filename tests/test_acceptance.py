"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run pytest with
-s or look at captured output).  Runtime budgets are asserted where pinned:
criterion 1 under 1 s, each white product under 1 s, the dimension tables
under 10 s, the arity-6 oracle sweep under 180 s.
"""

import time
from itertools import combinations

import pytest

from operad_forge import bijections as bj, manin, oracle, systems
from operad_forge.arity3 import (SINGLE, DOUBLE, basis3, catalog,
                                 parse_element, s3_closure)
from operad_forge.exactlin import intersect, span
from operad_forge.treeterm import (LEAF, RewriteSystem, check_confluence,
                                   format_tree, parse_tree, rule)

from test_bijections import (BICOM_PAIRS_3, BICOM_PAIRS_4, ZIN_PAIRS_3,
                             ZIN_PAIRS_4, ZIN_PAIRS_5_MIXED, parse_pbt)
from test_manin import compute_F


def report(num, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_1_classification():
    t0 = time.time()
    admit = ("Nov", "Zin", "Bicom", "Flex", "AntiFlex")
    reject = ("Alt", "Assosym", "Leib", "PreLie")
    ok = all(manin.admits_nonsymmetric(catalog(n)).admits for n in admit)
    ok &= not any(manin.admits_nonsymmetric(catalog(n)).admits
                  for n in reject)
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(1, f"admissibility verdicts for 9 operads in {elapsed:.3f}s", ok)


def test_criterion_2_leibniz_internals():
    leib = catalog("Leib")
    sums = ["+1*(x1*x2)*x3+1*(x2*x1)*x3",
            "+1*(x1*x3)*x2+1*(x3*x1)*x2",
            "+1*(x2*x3)*x1+1*(x3*x2)*x1"]
    vecs = [parse_element(s, SINGLE).row for s in sums]
    f = compute_F(leib)
    ok = (leib.relation_space().dim == 6 and f.dim == 3
          and f == span(vecs, 12))
    report(2, "Leibniz orbit dim 6, F dim 3, F = the three displayed sums", ok)


def test_criterion_3_white_products():
    transcribed = {
        "Zin": ["+1*(x1>x2)>x3-1*x1>(x2>x3)-1*x1>(x2<x3)",
                "+1*(x1<x2)>x3-1*x1<(x2>x3)",
                "+1*x1<(x2<x3)-1*(x1>x2)<x3-1*(x1<x2)<x3"],
        "Nov": ["+1*x1>(x2<x3)-1*(x1>x2)<x3",
                "+1*(x1<x2)>x3-1*x1>(x2>x3)-1*x1<(x2>x3)+1*(x1<x2)<x3"],
        "Bicom": ["+1*x1>(x2<x3)-1*(x1>x2)<x3",
                  "+1*x1<(x2>x3)-1*(x1<x2)>x3"],
    }
    ok = True
    times = []
    for name, texts in transcribed.items():
        t0 = time.time()
        kernel = manin.white_product_as(catalog(name)).relation_space()
        times.append(time.time() - t0)
        want = s3_closure([parse_element(t, DOUBLE) for t in texts], DOUBLE)
        ok &= kernel == want
    ok &= max(times) < 1.0
    report(3, "As-product kernels equal the transcribed relation spans", ok)


def test_criterion_4_quotient_identities():
    ok = True
    for name in ("Zin", "Bicom", "Nov"):
        sym = manin.symmetrize_quotient(manin.white_product_as(catalog(name)))
        ok &= sym.relation_space() == catalog(name).relation_space()
    sym_alt = manin.symmetrize_quotient(manin.white_product_as(catalog("Alt")))
    ok &= sym_alt.relation_space() == catalog("Flex").relation_space()
    alt = catalog("Alt")
    ok &= len(basis3(sym_alt.opspace)) - sym_alt.relation_space().dim == 9
    ok &= len(basis3(alt.opspace)) - alt.relation_space().dim == 7
    report(4, "symmetrized quotients recover Zin/Bicom/Nov; Alt gives Flex", ok)


def test_criterion_5_dimension_tables():
    tables = {
        "Zin": [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796],
        "Bicom": [1, 2, 6, 20, 70, 252, 924, 3432, 12870, 48620],
        "Flex": [1, 2, 7, 30, 143, 728, 3876, 21318, 120175, 690690],
    }
    t0 = time.time()
    ok = True
    for name, dims in tables.items():
        for n, want in enumerate(dims, start=1):
            ok &= len(systems.normal_forms(name, n)) == want
            ok &= systems.dim_formula(name, n) == want
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    report(5, f"grammar counts match all three tables, n<=10, {elapsed:.1f}s",
           ok)


def test_criterion_6_oracle_certification():
    t0 = time.time()
    ok = True
    for name in ("Zin", "Bicom", "Flex", "AntiFlex"):
        rels = systems.nc_relations("Nc" + name)
        for n in range(3, 7):
            ok &= oracle.bruteforce_dim(rels, n) == \
                len(systems.normal_forms(name, n))
    nov = [oracle.bruteforce_dim(systems.nc_relations("NcNov"), n)
           for n in range(3, 7)]
    # no table exists for this operad; require internal consistency instead
    ok &= all(d > 0 for d in nov) and nov == sorted(nov)
    elapsed = time.time() - t0
    ok &= elapsed < 180.0
    report(6, f"oracle agrees with grammars for 3<=n<=6 in {elapsed:.1f}s", ok)


def test_criterion_7_confluence():
    zin = systems.system("Zin")
    zin_report = check_confluence(zin, 6)
    ok = zin_report.passed
    ok &= len([c for c in zin_report.checks]) == 4
    flex_report = check_confluence(systems.system("Flex"), 6)
    ok &= flex_report.passed and len(flex_report.checks) == 2
    ok &= check_confluence(systems.system("AntiFlex"), 6).passed
    bicom_report = check_confluence(systems.system("Bicom", max_arity=8), 7)
    ok &= bicom_report.passed
    pairs = {(c.overlap.rule_i.name, c.overlap.rule_j.name)
             for c in bicom_report.checks}
    # the overlaps that generate the f/g families from the base rules
    ok &= any(i.startswith("g") and j == "f0" for i, j in pairs)
    ok &= any(i.startswith("f") and j == "g0" for i, j in pairs)
    bad3 = rule("bad3", "y(1,y(1,1))",
                [(1, "y(1,x(1,1))"), (1, "y(y(1,1),1)")])
    bad = RewriteSystem("ZinBad", (zin.rules[0], zin.rules[1], bad3),
                        zin.arity_cap)
    ok &= not check_confluence(bad, 6).passed
    report(7, "all overlaps joinable; sign-flipped control fails", ok)


def test_criterion_8_bijections():
    ok = True
    for mono, pbt in ZIN_PAIRS_3 + ZIN_PAIRS_4 + ZIN_PAIRS_5_MIXED:
        ok &= bj.zin_to_pbt(parse_tree(mono)) == parse_pbt(pbt)
    for u in systems.normal_forms("Zin", 4):
        b = bj.zin_to_pbt(u)
        ok &= bj.zin_to_pbt(("x", u, LEAF)) == (b, bj.BULLET)
        ok &= bj.zin_to_pbt(("y", u, LEAF)) == (bj.BULLET, b)
    for mono, word in BICOM_PAIRS_3 + BICOM_PAIRS_4:
        ok &= bj.bicom_to_word(parse_tree(mono)) == word
        ok &= bj.word_to_bicom(word) == parse_tree(mono)
    for n in range(1, 9):
        zs = systems.normal_forms("Zin", n)
        ok &= all(bj.pbt_to_zin(bj.zin_to_pbt(t)) == t for t in zs)
        bs = systems.normal_forms("Bicom", n)
        ok &= all(bj.word_to_bicom(bj.bicom_to_word(t)) == t for t in bs)
        fs = systems.normal_forms("Flex", n)
        ls = systems.normal_forms("L", n)
        ok &= len(fs) == len(ls) == systems.dim_formula("Flex", n)
        ok &= {bj.flex_to_L(t) for t in fs} == set(ls)
        ok &= all(bj.L_to_flex(bj.flex_to_L(t)) == t for t in fs)
    report(8, "golden tables entry-for-entry; round trips exhaustive n<=8", ok)
