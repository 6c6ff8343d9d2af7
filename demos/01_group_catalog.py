"""Survey the built-in group zoo: orders, class counts, amenability constants.

The amenability constant of the centre of the group algebra is 1 exactly
for abelian groups and jumps to at least 1 + 1/700 as soon as the group is
nonabelian; the smallest observed values sit at 7/4 (both groups of order 8
with a 2-dimensional character) and 7/3 (the symmetric group S3).
"""

from zamen import (
    amenability_constant,
    character_table,
    hilbert_schmidt_lower_bound,
)
from zamen.zoo import build, zoo_names


def main():
    header = f"{'group':10s} {'order':>5s} {'classes':>7s} {'AM':>12s} {'rational':>9s} {'HS bound':>12s}"
    print(header)
    print("-" * len(header))
    for name in zoo_names():
        group = build(name)
        table = character_table(group)
        am = amenability_constant(table)
        hs = hilbert_schmidt_lower_bound(table)
        rational = str(am.rational) if am.rational is not None else "-"
        print(
            f"{name:10s} {group.order:5d} {table.num_classes:7d} "
            f"{am.value:12.8f} {rational:>9s} {hs:12.8f}"
        )
    print()
    print("Abelian groups sit exactly at 1; nonabelian ones stay above 1 + 1/700.")


if __name__ == "__main__":
    main()
