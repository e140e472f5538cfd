"""Friedman rank analysis over the shipped benchmark tables.

Usage: python3 scripts/rank_benchmarks.py

Prints the chi-square and F statistics for each fixture, using the
tables' reported average-rank columns, plus the exact recomputation
for comparison. A statistic that is undefined prints as "undefined".
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
            chi2, f_stat = ("undefined" if fr[key] is None
                            else f"{fr[key]:.2f}" for key in ("chi2", "f_stat"))
            dof = f"({fr['dof_between']},{fr['dof_residual']})"
            print(f"{name:<12} {chi2:>8} {f_stat:>8} "
                  f"{dof:>10}   {route}")


if __name__ == "__main__":
    main()
