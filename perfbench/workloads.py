"""The four benchmark workloads.

Each workload has
  setup(seed)            inputs, built before the timed phase
  run(inputs)            the timed phase; returns an Outcome
  check(inputs, outcome) error messages from checks.py; empty when correct

run() calls the program through module attributes (treeterm.normalize, not
a name imported from it), so that the traced run sees every call.  An
operation that raises is counted in Outcome.failed and its result is left
out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from operad_forge import arity3, bijections, manin, oracle, systems, treeterm

import checks
from hostspeed import now


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    op_spans: list = field(default_factory=list)  # (start, end) of each timed operation, by now()
    results: dict = field(default_factory=dict)


def _system(name: str, n: int):
    # Bicom's rule family is cut at an arity cap; build it for the arity in use.
    return systems.system(name, max_arity=n) if name == "Bicom" else systems.system(name)


# --- oracle: brute-force dimensions ------------------------------------------

# Each presentation runs through arities 3 to its top arity.  NcFlex 8
# (9.5 s on an idle host, 41k rows) is left out so that a pass of all runs
# fits its time limit on a busy host; NcZin 7 is also mostly elimination.
ORACLE_CASES = (("NcZin", 7), ("NcBicom", 8), ("NcFlex", 7), ("NcAntiFlex", 7),
                ("NcNov", 7))


class Oracle:
    """oracle.bruteforce_dim for each presentation at every arity from 3 to
    its top arity, 26 calls in a fixed order whatever the seed: the first
    call at each arity builds the oracle's cached table of free trees, so a
    shuffled order would move that cost between operations.

    One timed operation is one presentation through all its arities, as
    `operad-forge dims` runs it.  Single calls below arity 6 take a few
    milliseconds; the five sweeps take 0.6 to 4.5 s each."""

    @staticmethod
    def setup(seed: int):
        return {name: systems.nc_relations(name) for name, _ in ORACLE_CASES}

    @staticmethod
    def run(rels) -> Outcome:
        out = Outcome()
        dims = out.results
        for name, top in ORACLE_CASES:
            t0 = now()
            for n in range(3, top + 1):
                out.attempted += 1
                try:
                    dims[name, n] = oracle.bruteforce_dim(rels[name], n, cap=8)
                except Exception:
                    out.failed += 1
            out.op_spans.append((t0, now()))
        return out

    @staticmethod
    def check(rels, out: Outcome) -> list[str]:
        plain = {name: [list(e.items()) for e in es] for name, es in rels.items()}
        expected = [(name, n) for name, top in ORACLE_CASES
                    for n in range(3, top + 1)]
        return checks.check_oracle(out.results, plain, expected)


# --- normalize: rewriting many trees, then confluence -------------------------

NORMALIZE_SYSTEMS = ("Zin", "Flex", "Bicom")
NORMALIZE_ARITY = 7
CONFLUENCE = ("Bicom", 14)


class Normalize:
    """treeterm.normalize on every free monomial of arity 7, in an order
    shuffled by the seed, then check_confluence for Bicom at arity 14."""

    @staticmethod
    def setup(seed: int):
        rng = random.Random(seed)
        jobs = []
        for name in NORMALIZE_SYSTEMS:
            trees = list(checks.free_trees(NORMALIZE_ARITY))
            rng.shuffle(trees)
            elements = [(t, treeterm.NsElement([(t, Fraction(1))])) for t in trees]
            jobs.append((name, _system(name, NORMALIZE_ARITY), elements))
        name, n = CONFLUENCE
        return jobs, _system(name, n)

    @staticmethod
    def run(inputs) -> Outcome:
        jobs, conf_system = inputs
        out = Outcome()
        normalize = treeterm.normalize
        spans = out.op_spans
        for name, system, elements in jobs:
            forms = out.results[name] = {}
            for t, e in elements:
                t0 = now()
                try:
                    forms[t] = normalize(e, system)
                except Exception:
                    out.failed += 1
                spans.append((t0, now()))
            out.attempted += len(elements)
        out.attempted += 1
        try:
            report = treeterm.check_confluence(conf_system, CONFLUENCE[1])
            out.results["confluence"] = (report.passed, len(report.checks))
        except Exception:
            out.failed += 1
        return out

    @staticmethod
    def check(inputs, out: Outcome) -> list[str]:
        errors = []
        for name in NORMALIZE_SYSTEMS:
            errors += checks.check_normalize(name, NORMALIZE_ARITY,
                                             out.results.get(name, {}))
        passed, overlaps = out.results.get("confluence", (False, 0))
        errors += checks.check_confluence(*CONFLUENCE, passed, overlaps)
        return errors


# --- enumerate: grammars, the is_normal filter, bijections ---------------------

GRAMMAR_SYSTEMS = ("Zin", "Bicom", "Flex", "AntiFlex", "L")
GRAMMAR_MAX = 10
FILTER_CASES = (("Zin", 8), ("Flex", 8), ("Bicom", 8), ("Bicom", 9))
FILTER_BATCH = 1024
ROUNDTRIP_MAX = 8
ROUNDTRIPS = {"Zin": ("zin_to_pbt", "pbt_to_zin"),
              "Bicom": ("bicom_to_word", "word_to_bicom"),
              "Flex": ("flex_to_L", "L_to_flex")}


class Enumerate:
    """Read-only tree work: systems.normal_forms for every system through
    arity 10, treeterm.is_normal over every free tree of the FILTER_CASES in
    an order shuffled by the seed, then every bijection round trip through
    arity 8.  One timed operation is a batch of FILTER_BATCH is_normal calls;
    single calls are too short to time one by one."""

    @staticmethod
    def setup(seed: int):
        rng = random.Random(seed)
        free = {n: checks.free_trees(n) for n in {n for _, n in FILTER_CASES}}
        jobs = []
        for name, n in FILTER_CASES:
            trees = list(free[n])
            rng.shuffle(trees)
            jobs.append((name, n, _system(name, n), trees))
        return jobs

    @staticmethod
    def run(jobs) -> Outcome:
        out = Outcome()
        res = out.results
        normal_forms = systems.normal_forms
        counts = res["grammar"] = {}
        trip_inputs = {}
        for name in GRAMMAR_SYSTEMS:
            for n in range(1, GRAMMAR_MAX + 1):
                out.attempted += 1
                try:
                    forms = normal_forms(name, n)
                except Exception:
                    out.failed += 1
                    continue
                counts[name, n] = len(forms)
                if name in ROUNDTRIPS and n <= ROUNDTRIP_MAX:
                    trip_inputs[name, n] = forms

        is_normal = treeterm.is_normal
        survivors = res["filter"] = {}
        for name, n, system, trees in jobs:
            kept = survivors[name, n] = []
            for i in range(0, len(trees), FILTER_BATCH):
                t0 = now()
                for t in trees[i:i + FILTER_BATCH]:
                    try:
                        if is_normal(t, system):
                            kept.append(t)
                    except Exception:
                        out.failed += 1
                out.op_spans.append((t0, now()))
            out.attempted += len(trees)

        trips = res["bijections"] = {}
        for kind, names in ROUNDTRIPS.items():
            forth, back = (getattr(bijections, f) for f in names)
            for n in range(1, ROUNDTRIP_MAX + 1):
                images, broken = [], 0
                for t in trip_inputs.get((kind, n), ()):
                    out.attempted += 1
                    try:
                        image = forth(t)
                        broken += back(image) != t
                        images.append(image)
                    except Exception:
                        out.failed += 1
                trips[kind, n] = images, broken
        return out

    @staticmethod
    def check(jobs, out: Outcome) -> list[str]:
        res = out.results
        counts = {key: (total, len(set(systems.normal_forms(*key))))
                  for key, total in res["grammar"].items()}
        errors = checks.check_grammar(counts)
        if len(counts) != len(GRAMMAR_SYSTEMS) * GRAMMAR_MAX:
            errors.append(f"normal_forms: {len(counts)} counts returned")
        for name, n, _, trees in jobs:
            errors += checks.check_filter(
                name, n, len(trees), set(res["filter"][name, n]),
                set(systems.normal_forms(name, n)))
        for (kind, n), (images, broken) in res["bijections"].items():
            errors += checks.check_bijection(kind, n, images, broken)
        return errors


# --- criterion: the arity-3 criterion and white products ----------------------

RANDOM_OPERADS = 500
_MONOMIALS = tuple((shape, leaves) for shape in "LR" for leaves in checks.S3)
_TWO_OUTSIDE = tuple(m for m in _MONOMIALS if checks.outside_leaf(m) != 2)


def _random_relations(rng: random.Random, admitting: bool) -> list:
    """Relations as lists of ((shape, leaves, inner, outer), coeff)."""
    pool, count, size = ((_TWO_OUTSIDE, rng.randint(1, 3), (2, 4)) if admitting
                         else (_MONOMIALS, 1, (2, 5)))
    return [[((shape, leaves, "*", "*"), rng.choice((-2, -1, 1, 2)))
             for shape, leaves in rng.sample(pool, rng.randint(*size))]
            for _ in range(count)]


class Criterion:
    """manin.admits_nonsymmetric on the 15 catalog entries and on
    RANDOM_OPERADS operads drawn from the seed, each single-operation operad
    followed by white_product_as and symmetrize_quotient.  Every other random
    operad has relations inside the two-outside cosets, so it must admit; the
    rest have one relation on random monomials."""

    @staticmethod
    def setup(seed: int):
        rng = random.Random(seed)
        cases = []
        for name in arity3.CATALOG_NAMES:
            p = arity3.catalog(name)
            plain = [list(r.terms.items()) for r in p.relations]
            cases.append((p, plain))
        for i in range(RANDOM_OPERADS):
            plain = _random_relations(rng, admitting=i % 2 == 0)
            rels = tuple(arity3.Arity3Element(
                arity3.SINGLE,
                [(arity3.Monomial3(*key), Fraction(c)) for key, c in rel])
                for rel in plain)
            cases.append((arity3.OperadPresentation(f"R{i}", arity3.SINGLE, rels),
                          plain))
        return cases

    @staticmethod
    def run(cases) -> Outcome:
        out = Outcome()
        verdicts = out.results["verdicts"] = {}
        quotients = out.results["quotients"] = {}
        single = arity3.SINGLE.ops
        for p, _ in cases:
            out.attempted += 1
            t0 = now()
            try:
                r = manin.admits_nonsymmetric(p)
                verdicts[p.name] = (r.dim_R, r.dim_F, r.dim_P3, r.admits)
                if p.opspace.ops == single:
                    q = manin.symmetrize_quotient(manin.white_product_as(p))
                    if p.name in checks.QUOTIENT_TARGETS:
                        quotients[p.name] = q
            except Exception:
                out.failed += 1
            out.op_spans.append((t0, now()))
        return out

    @staticmethod
    def check(cases, out: Outcome) -> list[str]:
        verdicts, quotients = out.results["verdicts"], out.results["quotients"]
        errors = []
        for p, plain in cases:
            if p.name not in verdicts:
                errors.append(f"criterion {p.name}: no verdict")
                continue
            errors += checks.check_criterion(p.name, plain, len(p.opspace.ops),
                                             verdicts[p.name])
        plain = {p.name: rels for p, rels in cases}
        for name, target in checks.QUOTIENT_TARGETS.items():
            q = quotients.get(name)
            got = [] if q is None else [list(r.terms.items()) for r in q.relations]
            errors += checks.check_quotient(name, got, plain[target])
        return errors


WORKLOADS = {"oracle": Oracle, "normalize": Normalize, "enumerate": Enumerate,
             "criterion": Criterion}
