#!/usr/bin/env python3
"""Print the two classification tables in readable form: the indecomposable
relation classes of weight at most 8, and the sporadic order patterns of the
bounded solution search."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from orderone.relations import enumerate_indecomposable
from orderone.solver import classify_solutions, solve_bounded


def main():
    print("indecomposable relation classes of weight <= 8")
    print(f"{'weight':>6}  {'type':<10}  relation")
    for cls in enumerate_indecomposable(8):
        rel = cls.representative
        entries = ", ".join(f"{'-' if s < 0 else ''}z[{r}]" for r, s in rel.entries)
        print(f"{rel.weight:>6}  {cls.type_label:<10}  {entries}")

    print()
    print("order patterns of solutions within bounds (32, 32, 120)")
    print(f"{'kind':<11} {'ord(eta1)':>9} {'ord(eta2)':>9}  orders of eta3")
    sols = solve_bounded(32, 32, 120)
    for p in classify_solutions(sols):
        print(f"{p.kind:<11} {p.order1:>9} {p.order2:>9}  {', '.join(map(str, p.orders3))}")


if __name__ == "__main__":
    main()
