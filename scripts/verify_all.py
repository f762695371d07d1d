#!/usr/bin/env python3
"""Run the complete verification pipeline and print one line per claim.

Exit status 0 if everything is reproduced, 1 otherwise.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from orderone.geometry import (
    EXPECTED_GEOM_PAIRS,
    build_reports,
    geometric_isogeny_pairs,
    ordinary_xor_geom_simple,
)
from orderone.madanpal import build_record, newton_lemma_check, pn_at_one_check
from orderone.relations import enumerate_indecomposable
from orderone.solver import (
    eigenvalue_resultant_identity,
    orbit_representatives,
    ratio_resultant_identity,
    verify_table2,
)


def check(name, fn):
    t0 = time.time()
    ok = fn()
    print(f"[{'ok' if ok else 'FAILED'}] {name}  ({time.time() - t0:.1f}s)")
    return ok


def main():
    results = [
        check("weight-8 relation classification has 10 classes",
              lambda: len(enumerate_indecomposable(8)) == 10),
        check("16 orbit representatives", lambda: len(orbit_representatives()) == 16),
        check("sporadic order patterns within bounds (32, 32, 120)",
              lambda: verify_table2(32, 32, 120)["ok"]),
        check("eigenvalue resultant identity for 3 <= n <= 30",
              lambda: all(eigenvalue_resultant_identity(n) for n in range(3, 31))),
        check("ratio resultant identity", ratio_resultant_identity),
        check("value at 1 for the powers of two",
              lambda: all(pn_at_one_check(m) for m in range(2, 7))),
        check("Newton polygon lemma for n <= 64",
              lambda: all(newton_lemma_check(n) for n in range(1, 65))),
        check("order 1 for n <= 64",
              lambda: all(build_record(n).weil.eval(1) == 1 for n in range(1, 65))),
        check("multiplicity formula equals oracle for n <= 32",
              lambda: all(r.consistent for n in range(1, 33) for r in build_reports(n))),
        check("ordinary versus geometrically simple for n <= 32",
              lambda: all(ordinary_xor_geom_simple(n) for n in range(1, 33))),
        check("geometric isogeny pairs over n <= 30",
              lambda: geometric_isogeny_pairs(30) == EXPECTED_GEOM_PAIRS),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
