"""Batch command-line front end.

Subcommands: criterion, manin, dims, normal-forms, bijection, confluence,
certify.  Exit codes: 0 success, 1 failed check or a reader that closed
the output pipe early, 2 usage error (argparse's own convention).  All
output is deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bijections, manin, oracle, systems
from .arity3 import CATALOG_NAMES, catalog, format_element
from .treeterm import check_confluence, format_tree

CRITERION_NAMES = tuple(n for n in CATALOG_NAMES if not n.startswith("Nc"))
# the rewriting systems of a catalog nonsymmetric version Nc<name>
NC_SYSTEMS = tuple(n for n in systems.SYSTEM_NAMES if "Nc" + n in CATALOG_NAMES)


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports a bad literal as "invalid int value"
    return parse


def _cmd_criterion(args) -> int:
    names = CRITERION_NAMES if args.operad == "all" else (args.operad,)
    reports = [manin.admits_nonsymmetric(catalog(n)) for n in names]
    if args.json:
        print(json.dumps([json.loads(r.to_json()) for r in reports], indent=2))
    else:
        for r in reports:
            print(f"{r.operad_name}: admits={str(r.admits).lower()} "
                  f"dim_R={r.dim_R} dim_F={r.dim_F} dim_P3={r.dim_P3}")
    return 0


def _cmd_manin(args) -> int:
    q = manin.white_product_as(catalog(args.operad))
    sym = manin.symmetrize_quotient(q)
    if args.json:
        print(json.dumps({
            "operad": args.operad,
            "white_product_relations": [format_element(r) for r in q.relations],
            "symmetrized_relations": [format_element(r) for r in sym.relations],
        }, indent=2))
    else:
        print(f"relations of As o {args.operad}:")
        for r in q.relations:
            print("  " + format_element(r))
        print("relations after g1=h2, g2=h1:")
        for r in sym.relations:
            print("  " + format_element(r))
    return 0


def _dim_rows(name: str, max_n: int, oracle_max: int):
    """(n, grammar count, formula, oracle dimension or None) for n <= max_n."""
    top = min(max_n, oracle_max)
    # the whole oracle sweep is one recursion on the arity
    ranks = (oracle.ideal_ranks(systems.nc_relations("Nc" + name), top)
             if top >= 3 else None)
    for n in range(1, max_n + 1):
        o = oracle.free_dim(n) - next(ranks) if 3 <= n <= top else None
        yield (n, len(systems.normal_forms(name, n)), systems.dim_formula(name, n), o)


def _cmd_dims(args) -> int:
    rows = [(n, g, f, "" if o is None else str(o))
            for n, g, f, o in _dim_rows(args.system, args.max_n, args.oracle_max)]
    if args.csv:
        print("n,grammar_count,formula,oracle_dim")
        for row in rows:
            print(",".join(str(x) for x in row))
    else:
        print(f"{'n':>3} {'grammar':>10} {'formula':>10} {'oracle':>8}")
        for n, g, f, o in rows:
            print(f"{n:>3} {g:>10} {f:>10} {o:>8}")
    mismatch = any(g != f or (o and int(o) != f) for _, g, f, o in rows)
    return 1 if mismatch else 0


def _cmd_normal_forms(args) -> int:
    for t in systems.normal_forms(args.system, args.n):
        print(format_tree(t))
    return 0


# The forward map of each system that has a bijection, printed as text.
_BIJECTIONS = {
    "Zin": lambda t: bijections.format_pbt(bijections.zin_to_pbt(t)),
    "Bicom": bijections.bicom_to_word,
    "Flex": lambda t: format_tree(bijections.flex_to_L(t)),
}


def _cmd_bijection(args) -> int:
    forward = _BIJECTIONS[args.system]
    for t in systems.normal_forms(args.system, args.n):
        print(f"{format_tree(t)}\t{forward(t)}")
    return 0


def _cmd_confluence(args) -> int:
    sys_ = systems.system(args.system, max_arity=args.max_arity)
    report = check_confluence(sys_, args.max_arity)
    for c in report.checks:
        ov = c.overlap
        status = "ok" if c.joinable else "FAIL"
        print(f"{status} {ov.rule_i.name}/{ov.rule_j.name} at {ov.addr}: "
              f"{format_tree(ov.tree)}")
    print(f"{len(report.checks)} overlaps up to arity {args.max_arity}: "
          f"{'all joinable' if report.passed else 'NOT confluent'}")
    return 0 if report.passed else 1


def _cmd_certify(args) -> int:
    ok = True
    # criterion classification
    expected = {"As": True, "Nov": True, "Zin": True, "Bicom": True,
                "Flex": True, "AntiFlex": True, "Alt": False,
                "Assosym": False, "Leib": False, "PreLie": False}
    admits = {}
    for name, want in expected.items():
        got = admits[name] = manin.admits_nonsymmetric(catalog(name)).admits
        line_ok = got is want
        ok &= line_ok
        print(f"criterion {name}: admits={str(got).lower()} "
              f"{'ok' if line_ok else 'MISMATCH'}")
    # the criterion equivalence: P admits a nonsymmetric version exactly
    # when identifying a > b with b < a in As o P gives back R
    for name, got in admits.items():
        p = catalog(name)
        sym = manin.symmetrize_quotient(manin.white_product_as(p))
        back = sym.relation_space() == p.relation_space()
        line_ok = back is got
        ok &= line_ok
        print(f"manin {name}: sym(As o P) == R is {str(back).lower()}, "
              f"admits={str(got).lower()} {'ok' if line_ok else 'MISMATCH'}")
    # three-way dimension agreement
    for name in NC_SYSTEMS:
        for n, g, f, o in _dim_rows(name, args.max_n, args.oracle_max):
            msg = f"dims {name} n={n}: grammar={g} formula={f}"
            line_ok = g == f
            if o is not None:
                line_ok &= o == f
                msg += f" oracle={o}"
            ok &= line_ok
            print(msg + (" ok" if line_ok else " MISMATCH"))
    # confluence
    for name, cap in (("Zin", 6), ("Flex", 6), ("AntiFlex", 6), ("Bicom", 7)):
        rep = check_confluence(systems.system(name, max_arity=cap), cap)
        line_ok = rep.passed
        ok &= line_ok
        print(f"confluence {name} up to arity {cap}: "
              f"{len(rep.checks)} overlaps {'ok' if line_ok else 'MISMATCH'}")
    print("certify: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="operad-forge")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("criterion", help="nonsymmetric-version criterion")
    c.add_argument("operad", choices=CRITERION_NAMES + ("all",))
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_criterion)

    c = sub.add_parser("manin", help="white product with As and its quotient")
    c.add_argument("operad", choices=CRITERION_NAMES)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_manin)

    c = sub.add_parser("dims", help="dimension table")
    c.add_argument("system", choices=NC_SYSTEMS)
    c.add_argument("--max-n", type=_int_at_least(1), required=True)
    c.add_argument("--oracle-max", type=_int_at_least(0), default=0)
    c.add_argument("--csv", action="store_true")
    c.set_defaults(func=_cmd_dims)

    c = sub.add_parser("normal-forms", help="list normal tree monomials")
    c.add_argument("system", choices=systems.SYSTEM_NAMES)
    c.add_argument("n", type=_int_at_least(1))
    c.set_defaults(func=_cmd_normal_forms)

    c = sub.add_parser("bijection", help="normal form correspondence dump")
    c.add_argument("system", choices=tuple(_BIJECTIONS))
    c.add_argument("n", type=_int_at_least(1))
    c.set_defaults(func=_cmd_bijection)

    c = sub.add_parser("confluence", help="overlap joinability report")
    c.add_argument("system", choices=systems.SYSTEM_NAMES)
    c.add_argument("--max-arity", type=_int_at_least(3), required=True)
    c.set_defaults(func=_cmd_confluence)

    c = sub.add_parser("certify", help="full three-way agreement suite")
    c.add_argument("--max-n", type=_int_at_least(1), default=10)
    c.add_argument("--oracle-max", type=_int_at_least(0), default=5)
    c.set_defaults(func=_cmd_certify)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader (say, `| head`) closed the pipe: send what is still
        # buffered to devnull, so that the interpreter's flush at exit
        # raises no second error (the recipe of the signal module's docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
