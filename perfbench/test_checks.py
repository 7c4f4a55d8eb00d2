"""Tests for the benchmark's own checkers: each must pass correct results and
reject a corrupted one.  Run from the repository root with

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import parse  # noqa: E402

NC_NOV = [[(parse("y(1,x(1,1))"), 1), (parse("x(y(1,1),1)"), -1)],
          [(parse("y(x(1,1),1)"), 1), (parse("y(1,y(1,1))"), -1),
           (parse("x(1,y(1,1))"), -1), (parse("x(x(1,1),1)"), 1)]]
NC_ZIN = [[(parse("x(1,y(1,1))"), 1), (parse("y(x(1,1),1)"), -1)],
          [(parse("x(1,x(1,1))"), 1), (parse("x(y(1,1),1)"), -1),
           (parse("x(x(1,1),1)"), -1)],
          [(parse("y(1,y(1,1))"), 1), (parse("y(1,x(1,1))"), 1),
           (parse("y(y(1,1),1)"), -1)]]


def mono(shape, leaves, coeff):
    return ((shape, leaves, "*", "*"), coeff)


LEIB = [[mono("L", (1, 2, 3), 1), mono("R", (1, 2, 3), -1),
         mono("R", (2, 1, 3), 1)]]
AS = [[mono("L", (1, 2, 3), 1), mono("R", (1, 2, 3), -1)]]


class FormulaAndMatcher(unittest.TestCase):
    def test_matcher_counts_equal_formulas(self):
        for system in ("Zin", "Bicom", "Flex", "AntiFlex"):
            for n in range(1, 8):
                normal = [t for t in checks.free_trees(n)
                          if checks.is_normal(t, system)]
                self.assertEqual(len(normal), checks.FORMULA[system](n),
                                 (system, n))

    def test_bicom_matcher_is_not_cut_at_an_arity(self):
        # f_9: x(1, core) with core nine x's around y(1,1); arity 12
        core = ("y", 1, 1)
        for _ in range(9):
            core = ("x", core, 1)
        lhs = ("x", 1, core)
        self.assertEqual(checks.arity(lhs), 12)
        self.assertFalse(checks.is_normal(lhs, "Bicom"))

    def test_rank_mod_p_matches_formula(self):
        for n in range(3, 7):
            self.assertEqual(
                checks.free_count(n) - checks.ideal_rank_mod_p(NC_ZIN, n),
                checks.catalan(n))


class OracleCheck(unittest.TestCase):
    def test_accepts_and_rejects_dimensions(self):
        good = {("NcZin", 5): 42, ("NcFlex", 4): 30, ("NcNov", 5): 70}
        rels = {"NcNov": NC_NOV}
        self.assertEqual(checks.check_oracle(good, rels, good), [])
        for key in good:
            bad = dict(good)
            bad[key] += 1
            self.assertEqual(len(checks.check_oracle(bad, rels, good)), 1, key)

    def test_rejects_a_missing_dimension(self):
        good = {("NcZin", 5): 42, ("NcFlex", 4): 30}
        errors = checks.check_oracle(good, {}, list(good) + [("NcZin", 6)])
        self.assertEqual(errors, ["oracle NcZin n=6: no dimension"])


def true_normal_forms(system, n):
    """Each free monomial's normal form, from the checker's own elimination:
    with the non-normal monomials first in column order the pivots fall on
    them, and reducing a monomial by every pivot leaves its normal form."""
    free = checks.free_trees(n)
    columns = sorted(free, key=lambda t: checks.is_normal(t, system))
    ideal, index = checks.ideal_echelon(checks.NC_RELATIONS[system], n, columns)
    half = checks.PRIME // 2
    forms = {}
    for t in free:
        row = {index[t]: 1}
        while pivots := [j for j in row if j in ideal.pivots]:
            j = pivots[0]
            f = row[j]
            for k, c in ideal.pivots[j].items():
                row[k] = (row.get(k, 0) - f * c) % checks.PRIME
            row = {k: c for k, c in row.items() if c}
        forms[t] = {columns[j]: c if c <= half else c - checks.PRIME
                    for j, c in row.items()}
    return forms


class NormalizeCheck(unittest.TestCase):
    n = 4

    def outputs(self):
        return true_normal_forms("Zin", self.n)

    def test_accepts_normal_outputs(self):
        self.assertEqual(checks.check_normalize("Zin", self.n, self.outputs()), [])

    def test_rejects_a_non_normal_output_tree(self):
        out = self.outputs()
        bad = parse("x(1,y(1,x(1,1)))")
        self.assertFalse(checks.is_normal(bad, "Zin"))
        victim = next(t for t in out if t != bad and out[t] != {t: 1})
        out[victim] = {bad: 1}
        errors = checks.check_normalize("Zin", self.n, out)
        self.assertTrue(any("is not normal" in e for e in errors), errors)

    def test_rejects_a_wrong_normal_form(self):
        out = self.outputs()
        victim = next(t for t in out if out[t] != {t: 1})
        for wrong in ({}, {u: 2 * c for u, c in out[victim].items()}):
            bad = dict(out)
            bad[victim] = wrong
            errors = checks.check_normalize("Zin", self.n, bad)
            self.assertTrue(any("not in the ideal" in e for e in errors), errors)

    def test_rejects_a_moved_normal_monomial(self):
        out = self.outputs()
        t = next(t for t in out if out[t] == {t: 1})
        out[t] = {t: 2}
        self.assertTrue(checks.check_normalize("Zin", self.n, out))

    def test_rejects_a_missing_result(self):
        out = self.outputs()
        out.pop(next(iter(out)))
        self.assertTrue(checks.check_normalize("Zin", self.n, out))

    def test_rejects_a_failed_confluence_report(self):
        self.assertEqual(checks.check_confluence("Bicom", 14, True, 572), [])
        self.assertTrue(checks.check_confluence("Bicom", 14, False, 572))


class EnumerateCheck(unittest.TestCase):
    def test_grammar_counts(self):
        self.assertEqual(checks.check_grammar({("Flex", 5): (143, 143)}), [])
        self.assertTrue(checks.check_grammar({("Flex", 5): (144, 144)}))
        self.assertTrue(checks.check_grammar({("Flex", 5): (143, 142)}))

    def test_filter_survivors_must_be_the_grammar_set(self):
        n = 5
        free = checks.free_trees(n)
        grammar = {t for t in free if checks.is_normal(t, "Bicom")}
        self.assertEqual(checks.check_filter("Bicom", n, len(free), set(grammar),
                                             grammar), [])
        fewer = set(grammar)
        fewer.pop()
        self.assertTrue(checks.check_filter("Bicom", n, len(free), fewer, grammar))
        other = set(fewer) | {parse("x(1,y(1,x(1,x(1,1))))")}
        self.assertTrue(checks.check_filter("Bicom", n, len(free), other, grammar))

    def test_bijection_round_trips_and_images(self):
        pbts = ["*"]
        for _ in range(3):  # all planar binary trees, by internal vertices
            pbts = ["*"] + [(l, r) for l in pbts for r in pbts]
        three = [b for b in pbts if checks.internal_vertices(b) == 3]
        self.assertEqual(checks.check_bijection("Zin", 3, three, 0), [])
        self.assertTrue(checks.check_bijection("Zin", 3, three, 1))
        self.assertTrue(checks.check_bijection("Zin", 3, three[:-1] + ["*"], 0))
        words = ["EENN", "ENEN", "ENNE", "NEEN", "NENE", "NNEE"]
        self.assertEqual(checks.check_bijection("Bicom", 3, words, 0), [])
        self.assertTrue(checks.check_bijection("Bicom", 3, words[:-1] + ["EEEN"], 0))
        ls = [t for t in checks.free_trees(3, ("z", "t")) if checks.is_normal(t, "L")]
        self.assertEqual(checks.check_bijection("Flex", 3, ls, 0), [])
        self.assertTrue(checks.check_bijection("Flex", 3, ls, 2))
        self.assertTrue(checks.check_bijection("Flex", 3, ls[1:] + [parse("t(1,z(1,1))")], 0))


class CriterionCheck(unittest.TestCase):
    def test_own_criterion_matches_known_values(self):
        self.assertEqual(checks.criterion_dims(LEIB, 1), (6, 3, 6, False))
        self.assertEqual(checks.criterion_dims(AS, 1), (6, 6, 6, True))

    def test_rejects_a_wrong_verdict(self):
        self.assertEqual(checks.check_criterion("Leib", LEIB, 1, (6, 3, 6, False)), [])
        errors = checks.check_criterion("Leib", LEIB, 1, (6, 3, 6, True))
        self.assertEqual(len(errors), 2, errors)  # the paper's verdict and own dims
        self.assertTrue(checks.check_criterion("R7", LEIB, 1, (6, 4, 6, False)))

    def test_operad_built_to_admit_must_admit(self):
        rel = [[mono("L", (1, 2, 3), 1), mono("R", (3, 1, 2), 2)]]
        own = checks.criterion_dims(rel, 1)
        self.assertTrue(own[3])
        self.assertEqual(checks.check_criterion("R0", rel, 1, own), [])
        errors = checks.check_criterion("R0", rel, 1, own[:3] + (False,))
        self.assertTrue(any("two-outside" in e for e in errors), errors)

    def test_quotient_must_recover_the_target(self):
        self.assertEqual(checks.check_quotient("Zin", AS, AS + AS), [])
        self.assertTrue(checks.check_quotient("Zin", LEIB, AS))


if __name__ == "__main__":
    unittest.main()
