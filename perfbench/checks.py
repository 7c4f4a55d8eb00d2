"""Correctness checks made apart from operad_forge.

Every checker returns a list of error messages; an empty list means the
results passed.  The expected values come from closed formulas, from this
module's own free-tree enumeration and rule matcher, and from ranks computed
modulo a large prime over rows this module builds itself.  Nothing here
imports operad_forge, so a fault in the program cannot hide in a check.

Trees use the program's data format: the leaf is the integer 1 and an
internal node is a tuple (op, left, right).  Arity-3 monomials are tuples
(shape, leaves, inner, outer) with shape "L" for (a.b).c and "R" for a.(b.c).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb

LEAF = 1
PRIME = (1 << 61) - 1
S3 = tuple(permutations((1, 2, 3)))


# --- closed formulas ------------------------------------------------------


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def central_binomial(n: int) -> int:
    return comb(2 * n - 2, n - 1)


def ternary_count(n: int) -> int:
    return comb(3 * n - 2, n - 1) // n


FORMULA = {"Zin": catalan, "Bicom": central_binomial, "Flex": ternary_count,
           "AntiFlex": ternary_count, "L": ternary_count}

# Nonsymmetric presentations whose dimensions have a closed formula.
ORACLE_FORMULA = {"NcZin": catalan, "NcBicom": central_binomial,
                  "NcFlex": ternary_count, "NcAntiFlex": ternary_count}


def free_count(n: int, nops: int = 2) -> int:
    return nops ** (n - 1) * catalan(n - 1)


# --- trees and the rule matcher --------------------------------------------


def free_trees(n: int, ops: tuple[str, ...] = ("x", "y")) -> list:
    """All planar binary trees of arity n over ops, built bottom-up."""
    table: list[list] = [[], [LEAF]]
    for m in range(2, n + 1):
        table.append([(op, l, r) for op in ops for k in range(1, m)
                      for l in table[k] for r in table[m - k]])
    return table[n]


def arity(t) -> int:
    return 1 if t == LEAF else arity(t[1]) + arity(t[2])


def fmt(t) -> str:
    return "1" if t == LEAF else f"{t[0]}({fmt(t[1])},{fmt(t[2])})"


def parse(s: str):
    """Inverse of fmt."""
    stack: list = []
    ops: list = []
    for ch in s.replace(" ", ""):
        if ch == "1":
            stack.append(LEAF)
        elif ch == ")":
            right = stack.pop()
            stack.append((ops.pop(), stack.pop(), right))
        elif ch not in "(,":
            ops.append(ch)
    if len(stack) != 1 or ops:
        raise ValueError(f"bad tree text {s!r}")
    return stack[0]


# Rule left-hand sides as the paper states them.  Bicom's two infinite
# families are matched by _bicom_lhs_at instead, at every arity.
LHS = {
    "Zin": tuple(map(parse, ("x(1,y(1,1))", "x(1,x(1,1))", "y(1,y(1,1))"))),
    "Flex": tuple(map(parse, ("y(1,y(1,1))", "y(1,x(1,x(1,1)))"))),
    "AntiFlex": tuple(map(parse, ("y(1,y(1,1))", "y(1,x(1,x(1,1)))"))),
    "L": (parse("t(1,z(1,1))"),),
}


# The arity-3 defining relations of the nonsymmetric operads whose rewriting
# systems the normalize workload uses, as the paper states them.
NC_RELATIONS = {
    name: [[(parse(t), c) for c, t in rel] for rel in rels]
    for name, rels in {
        "Zin": ([(1, "x(1,y(1,1))"), (-1, "y(x(1,1),1)")],
                [(1, "x(1,x(1,1))"), (-1, "x(y(1,1),1)"), (-1, "x(x(1,1),1)")],
                [(1, "y(1,y(1,1))"), (1, "y(1,x(1,1))"), (-1, "y(y(1,1),1)")]),
        "Flex": ([(1, "y(1,y(1,1))"), (-1, "x(1,x(1,1))"),
                  (-1, "y(y(1,1),1)"), (1, "x(x(1,1),1)")],),
        "Bicom": ([(1, "x(1,y(1,1))"), (-1, "y(x(1,1),1)")],
                  [(1, "y(1,x(1,1))"), (-1, "x(y(1,1),1)")]),
    }.items()
}


def _matches(t, pattern) -> bool:
    if pattern == LEAF:
        return True
    return (t != LEAF and t[0] == pattern[0] and _matches(t[1], pattern[1])
            and _matches(t[2], pattern[2]))


def _bicom_lhs_at(t) -> bool:
    """f_n = x(1, x(...x(y(1,1),1)...,1)) with n inner x's, g_n mirrored:
    an o-node whose right child's left spine of o-nodes ends in the other
    operation."""
    o = t[0]
    u = t[2]
    while u != LEAF and u[0] == o:
        u = u[1]
    return u != LEAF


def is_normal(t, system: str) -> bool:
    """No rule left-hand side of the system matches at any node of t."""
    if t == LEAF:
        return True
    if system == "Bicom":
        if _bicom_lhs_at(t):
            return False
    elif any(_matches(t, p) for p in LHS[system]):
        return False
    return is_normal(t[1], system) and is_normal(t[2], system)


# --- linear algebra modulo PRIME --------------------------------------------


def _mod(c) -> int:
    c = Fraction(c)
    return c.numerator * pow(c.denominator, PRIME - 2, PRIME) % PRIME


class Echelon:
    """Incremental elimination modulo PRIME; each stored row has leading
    entry 1 at its smallest column."""

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    def _reduce(self, row: dict[int, int]) -> dict[int, int]:
        """row minus pivot rows until its smallest column has no pivot."""
        row = {j: c % PRIME for j, c in row.items() if c % PRIME}
        while row:
            p = min(row)
            piv = self.pivots.get(p)
            if piv is None:
                break
            f = row[p]
            for j, c in piv.items():
                v = (row.get(j, 0) - f * c) % PRIME
                if v:
                    row[j] = v
                else:
                    row.pop(j, None)
        return row

    def add(self, row: dict[int, int]) -> bool:
        """Store row; False when it is in the span already."""
        row = self._reduce(row)
        if not row:
            return False
        p = min(row)
        inv = pow(row[p], PRIME - 2, PRIME)
        self.pivots[p] = {j: c * inv % PRIME for j, c in row.items()}
        return True

    def __contains__(self, row: dict[int, int]) -> bool:
        return not self._reduce(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _graft3(shape, subs):
    """The leaves of an arity-3 tree replaced by subs, left to right."""
    a, b, c = subs
    op, l, r = shape
    if l != LEAF:
        return (op, (l[0], a, b), c)
    return (op, a, (r[0], b, c))


def ideal_echelon(rels, n: int, columns=None) -> tuple[Echelon, dict]:
    """Echelon modulo PRIME of the arity-n component of the ideal generated
    by rels, and the column of each arity-n monomial.

    rels are lists of (arity-3 tree, coefficient).  The component is spanned
    by a relation with free trees grafted into its leaves, wrapped as
    o(E, U) or o(U, E) with free trees U as often as the arity allows.
    columns lists the arity-n monomials in column order (free_trees order by
    default); pivots fall on the earliest columns.
    """
    ops = ("x", "y")
    free = [[]] + [free_trees(m, ops) for m in range(1, n + 1)]
    gens: dict[int, list] = {}
    for m in range(3, n + 1):
        out = []
        for rel in rels:
            for a in range(1, m - 1):
                for b in range(1, m - a):
                    for subs in ((A, B, C) for A in free[a] for B in free[b]
                                 for C in free[m - a - b]):
                        out.append([(_graft3(s, subs), c) for s, c in rel])
        for k in range(3, m):
            for e in gens[k]:
                for u in free[m - k]:
                    for op in ops:
                        out.append([((op, t, u), c) for t, c in e])
                        out.append([((op, u, t), c) for t, c in e])
        gens[m] = out
    index = {t: i for i, t in enumerate(free[n] if columns is None else columns)}
    ech = Echelon()
    for e in gens[n]:
        row: dict[int, int] = {}
        for t, c in e:
            j = index[t]
            row[j] = row.get(j, 0) + _mod(c)
        ech.add(row)
    return ech, index


def ideal_rank_mod_p(rels, n: int) -> int:
    """Rank of the arity-n component of the ideal generated by rels."""
    return ideal_echelon(rels, n)[0].rank


# --- arity-3 criterion modulo PRIME -----------------------------------------


def outside_leaf(key) -> int:
    shape, leaves = key[0], key[1]
    return leaves[2] if shape == "L" else leaves[0]


def _act(sigma, key):
    shape, leaves, inner, outer = key
    return (shape, tuple(sigma[l - 1] for l in leaves), inner, outer)


def _s3_closure(relations, index: dict) -> Echelon:
    """Elimination of every S3 image of every relation, a list of
    (monomial, coeff); index numbers the monomials as they are met."""
    ech = Echelon()
    for rel in relations:
        for sigma in S3:
            row: dict[int, int] = {}
            for key, c in rel:
                j = index.setdefault(_act(sigma, key), len(index))
                row[j] = row.get(j, 0) + _mod(c)
            ech.add(row)
    return ech


def criterion_dims(relations, nops: int) -> tuple[int, int, int, bool]:
    """(dim R, dim F, dim P(3), admits) for nops paired operations.

    R is the S3-closure of the relations and F the S3-closure of R's part
    in the two-outside cosets (outside argument x1 or x3).  That part is
    found by eliminating rows [middle-outside part | whole vector] with the
    first block first: the rows left with an empty first block span it.
    """
    index: dict = {}
    r_ech = _s3_closure(relations, index)
    keys = {j: k for k, j in index.items()}
    width = len(keys)
    aug = Echelon()
    for row in r_ech.pivots.values():
        wide = {j + width: c for j, c in row.items()}
        wide.update((j, c) for j, c in row.items() if outside_leaf(keys[j]) == 2)
        aug.add(wide)
    inter = [[(keys[j - width], c) for j, c in row.items()]
             for p, row in aug.pivots.items() if p >= width]
    dim_r, dim_f = r_ech.rank, _s3_closure(inter, index).rank
    return dim_r, dim_f, 12 * nops * nops - dim_r, dim_f == dim_r


def same_span(a_relations, b_relations) -> bool:
    """Whether two relation lists have the same S3-closure."""
    index: dict = {}
    ra = _s3_closure(a_relations, index).rank
    rb = _s3_closure(b_relations, index).rank
    both = _s3_closure(list(a_relations) + list(b_relations), index).rank
    return ra == rb == both


# --- checkers ----------------------------------------------------------------

PAPER_VERDICTS = {"As": True, "Nov": True, "Zin": True, "Bicom": True,
                  "Flex": True, "AntiFlex": True, "Alt": False,
                  "Assosym": False, "Leib": False, "PreLie": False}

# Symmetrized quotient of As o P for P on the left, and the operad it gives.
QUOTIENT_TARGETS = {"Zin": "Zin", "Bicom": "Bicom", "Nov": "Nov",
                    "Alt": "Flex"}


def check_oracle(dims: dict, relations: dict, expected) -> list[str]:
    """dims maps (presentation, n) to the oracle's dimension; relations maps
    a presentation to its arity-3 relations as lists of (tree, coeff);
    expected holds every (presentation, n) that must have a dimension."""
    errors = [f"oracle {name} n={n}: no dimension"
              for name, n in sorted(set(expected) - set(dims))]
    for (name, n), got in dims.items():
        formula = ORACLE_FORMULA.get(name)
        if formula is not None:
            want = formula(n)
        else:
            want = free_count(n) - ideal_rank_mod_p(relations[name], n)
        if got != want:
            errors.append(f"oracle {name} n={n}: dim {got}, expected {want}")
    return errors


def check_normalize(system: str, n: int, outputs: dict) -> list[str]:
    """outputs maps each free monomial of arity n to its normal form
    (a mapping tree -> coefficient).

    Besides the counts, every t minus its output must lie in the arity-n
    component of the ideal of NC_RELATIONS[system], whose rank must be the
    free count minus the formula's.  With every output made of normal
    monomials this pins each output down: it is the one combination of
    normal monomials congruent to t."""
    errors = []
    free = free_trees(n)
    normal = {t for t in free if is_normal(t, system)}
    want = FORMULA[system](n)
    if len(normal) != want:
        errors.append(f"{system} n={n}: {len(normal)} normal monomials, "
                      f"formula gives {want}")
    missing = len(set(free) - set(outputs))
    if missing:
        errors.append(f"{system} n={n}: {missing} free monomials not normalized")
    support = set()
    for out in outputs.values():
        support.update(out)
    for t in sorted(support - normal, key=fmt)[:3]:
        errors.append(f"{system} n={n}: output monomial {fmt(t)} is not normal")
    if not support <= normal or len(support) != want:
        errors.append(f"{system} n={n}: output supports hold {len(support)} "
                      f"monomials, formula gives {want}")
    fixed = [t for t in normal if outputs.get(t) != {t: 1}]
    for t in sorted(fixed, key=fmt)[:3]:
        errors.append(f"{system} n={n}: normal monomial {fmt(t)} is moved")

    ideal, index = ideal_echelon(NC_RELATIONS[system], n)
    if ideal.rank != len(free) - want:
        errors.append(f"{system} n={n}: the relations' ideal has rank "
                      f"{ideal.rank}, expected {len(free) - want}")
    wrong = []
    for t, out in outputs.items():
        row = {index.get(t, -1): 1}
        for u, c in out.items():
            j = index.get(u, -1)
            row[j] = row.get(j, 0) - _mod(c)
        if -1 in row or row not in ideal:
            wrong.append(t)
    for t in sorted(wrong, key=fmt)[:3]:
        errors.append(f"{system} n={n}: {fmt(t)} minus its output is not in "
                      f"the ideal of the relations")
    if len(wrong) > 3:
        errors.append(f"{system} n={n}: {len(wrong)} outputs in all are not "
                      f"congruent to their input")
    return errors


def check_confluence(system: str, max_arity: int, passed: bool,
                     overlaps: int) -> list[str]:
    if not passed:
        return [f"confluence {system} to arity {max_arity} failed"]
    if overlaps == 0:
        return [f"confluence {system} to arity {max_arity}: no overlaps"]
    return []


def check_grammar(counts: dict) -> list[str]:
    """counts maps (system, n) to (trees returned, distinct trees)."""
    errors = []
    for (system, n), (total, distinct) in counts.items():
        want = FORMULA[system](n)
        if total != want or distinct != want:
            errors.append(f"normal_forms {system} n={n}: {total} trees, "
                          f"{distinct} distinct, formula gives {want}")
    return errors


def check_filter(system: str, n: int, checked: int, survivors: set,
                 grammar: set) -> list[str]:
    errors = []
    if checked != free_count(n):
        errors.append(f"is_normal {system} n={n}: {checked} trees checked, "
                      f"{free_count(n)} free trees exist")
    if len(survivors) != FORMULA[system](n) or survivors != grammar:
        errors.append(f"is_normal {system} n={n}: {len(survivors)} survivors,"
                      f" {len(survivors ^ grammar)} differ from the grammar's "
                      f"{len(grammar)}")
    return errors


def internal_vertices(b) -> int:
    """Internal vertices of a planar binary tree: \"*\" or (left, right)."""
    return 0 if b == "*" else 1 + internal_vertices(b[0]) + internal_vertices(b[1])


def check_bijection(kind: str, n: int, images: list,
                    broken: int) -> list[str]:
    """images are the forward images of every normal form of arity n;
    broken counts round trips that did not return their input."""
    errors = []
    if broken:
        errors.append(f"bijection {kind} n={n}: {broken} round trips broken")
    if kind == "Zin":
        want = catalan(n)
        bad = sum(internal_vertices(b) != n for b in images)
    elif kind == "Bicom":
        want = central_binomial(n)
        bad = sum(len(w) != 2 * n - 2 or w.count("E") != n - 1 for w in images)
    else:
        want = ternary_count(n)
        bad = sum(arity(s) != n or not is_normal(s, "L") for s in images)
    if bad:
        errors.append(f"bijection {kind} n={n}: {bad} images of the wrong kind")
    if len(set(images)) != want:
        errors.append(f"bijection {kind} n={n}: {len(set(images))} distinct "
                      f"images, expected {want}")
    return errors


def check_criterion(name: str, relations, nops: int,
                    report: tuple[int, int, int, bool]) -> list[str]:
    """report is the program's (dim R, dim F, dim P(3), admits)."""
    errors = []
    admits = report[3]
    if name in PAPER_VERDICTS and admits != PAPER_VERDICTS[name]:
        errors.append(f"criterion {name}: admits={admits}, the paper says "
                      f"{PAPER_VERDICTS[name]}")
    if all(outside_leaf(key) != 2 for rel in relations for key, _ in rel) \
            and not admits:
        errors.append(f"criterion {name}: relations lie in the two-outside "
                      f"cosets but the operad is said not to admit")
    own = criterion_dims(relations, nops)
    if tuple(report) != own:
        errors.append(f"criterion {name}: (dim R, dim F, dim P3, admits) = "
                      f"{tuple(report)}, expected {own}")
    return errors


def check_quotient(name: str, quotient_relations, target_relations) -> list[str]:
    if same_span(quotient_relations, target_relations):
        return []
    return [f"symmetrized As o {name} is not {QUOTIENT_TARGETS[name]}"]
