"""Friedman rank analysis over the shipped benchmark tables.

Usage: python3 scripts/rank_benchmarks.py

Prints the chi-square and F statistics for each fixture, using the
tables' reported average-rank columns, plus the exact recomputation
for comparison. An F statistic that is undefined prints as "undefined".
"""

from pathlib import Path

from driftlab.evalstats import friedman, load_ranks

FIXTURES = Path(__file__).parent.parent / "fixtures"
TABLES = ("office31", "officehome", "visda", "domainnet", "digits")


def main():
    header = f"{'table':<12} {'chi2':>8} {'f_stat':>8} {'dof':>10}   route"
    print(header)
    for name in TABLES:
        rnk = load_ranks(FIXTURES / f"{name}_ranks.csv")
        for route in ("reported", "exact"):
            fr = friedman(rnk, averages=route)
            f_stat = "undefined" if fr.f_stat is None else f"{fr.f_stat:.2f}"
            dof = f"({fr.dof[0]},{fr.dof[1]})"
            print(f"{name:<12} {fr.chi2:>8.2f} {f_stat:>8} "
                  f"{dof:>10}   {route}")


if __name__ == "__main__":
    main()
