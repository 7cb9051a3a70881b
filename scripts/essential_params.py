"""Show the rank-saturation method counting essential parameters.

For each bundled family and each catalog composition law, prints the
rank sequence of stacked parameter derivatives and the resulting count.

Usage: python scripts/essential_params.py [--samples N]
"""

import argparse
import sys

from liechart.catalog import GROUP_NAMES, get_group
from liechart.cli import positive_int
from liechart.numdiff import DiffConfig
from liechart.pde import (
    bundled_families,
    essential_param_ranks,
    group_composition_family,
)


def show(name: str, ranks: list[int], expected: int | None) -> None:
    count = ranks[-1]
    seq = " -> ".join(str(r) for r in ranks)
    note = ""
    if expected is not None:
        note = "  ok" if count == expected else f"  EXPECTED {expected}"
    print(f"{name:<24} ranks {seq:<12} count {count}{note}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=positive_int, default=10)
    args = parser.parse_args()
    cfg = DiffConfig(sample_count=args.samples)

    print("bundled families:")
    for item in bundled_families():
        show(item.family.name, essential_param_ranks(item.family, cfg),
             item.expected_count)

    print("\ncomposition laws (count must equal the group dimension):")
    for name in GROUP_NAMES:
        chart = get_group(name)
        fam = group_composition_family(chart)
        show(name, essential_param_ranks(fam, cfg), chart.n)
    return 0


if __name__ == "__main__":
    sys.exit(main())
