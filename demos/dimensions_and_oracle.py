"""Three-way dimension agreement.

For each rewriting system we count normal forms by the grammar, evaluate
the closed formula, and (for small arities) recompute the dimension by raw
linear algebra on the free planar operad.  All three must agree.
"""

from operad_forge import oracle, systems

ORACLE_MAX = 6


def main():
    for name in ("Zin", "Bicom", "Flex", "AntiFlex"):
        # dim I(3), ..., dim I(ORACLE_MAX) from one recursion on the arity
        ranks = oracle.ideal_ranks(systems.nc_relations("Nc" + name), ORACLE_MAX)
        print(name)
        print(f"  {'n':>2} {'grammar':>8} {'formula':>8} {'oracle':>7}")
        for n in range(1, 11):
            g = len(systems.normal_forms(name, n))
            f = systems.dim_formula(name, n)
            o = (str(oracle.free_dim(n) - next(ranks))
                 if 3 <= n <= ORACLE_MAX else "-")
            print(f"  {n:>2} {g:>8} {f:>8} {o:>7}")
            assert g == f and (o == "-" or int(o) == f)
        print()

    print("no closed formula is claimed for the noncommutative Novikov")
    print("operad; the oracle gives:")
    nov = oracle.ideal_ranks(systems.nc_relations("NcNov"), ORACLE_MAX)
    for n, rank in zip(range(3, ORACLE_MAX + 1), nov):
        print(f"  n={n}: {oracle.free_dim(n) - rank}")


if __name__ == "__main__":
    main()
