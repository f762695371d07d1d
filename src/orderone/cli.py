"""Command-line front end.

The parsed `argparse.Namespace` is the whole run configuration: each
subparser names its handler with `set_defaults(handler=...)`, and every handler
reads its options, `format`, `cache_dir` and `workers` off the namespace.
`--format` is the only output switch.  `relations`, `madan-pal`, `solve-g`
and `decompose` have a CSV form; `--format csv` on any other subcommand is a
usage error, raised before the subcommand does any work.

Exit status 0 means every requested computation succeeded and every verified
claim was reproduced; 1 means the computation ran but contradicted a recorded
claim; 2 is a usage error.  Output is deterministic for a given configuration,
including under different worker counts.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

from . import geometry, madanpal, relations, serialize, solver
from .arith import least_prime_factor
from .intpoly import decimal_to_int
from .weil import (
    WeilContext,
    base_extension,
    is_ordinary,
    is_real_weil,
    newton_polygon,
)

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2

# the subcommands whose output is a table; main rejects --format csv on any
# other before its handler runs
CSV_FORM = frozenset({"relations", "madan-pal", "solve-g", "decompose"})


def _emit(ns: argparse.Namespace, doc, csv_rows=None) -> None:
    if ns.format == "json":
        print(json.dumps({"schema": serialize.SCHEMA, **doc}, sort_keys=True, indent=1))
    elif ns.format == "csv":
        for row in csv_rows:
            print(",".join(str(x) for x in row))
    else:
        for key in sorted(doc):
            print(f"{key}: {doc[key]}")


def _cmd_relations(ns: argparse.Namespace) -> int:
    w = ns.max_weight
    payload = serialize.cache_get_or_compute(
        f"relations_w{w}",
        lambda: [serialize.encode_relation_class(c) for c in relations.enumerate_indecomposable(w)],
        serialize.cache_dir(ns.cache_dir),
    )
    classes = [serialize.decode_relation_class(v) for v in payload]
    rows = []
    doc_classes = []
    for c in classes:
        entry = serialize.encode_relation_class(c)
        if ns.mod2:
            rep = c.representative
            entry["mod2_indecomposable"] = relations.is_indecomposable(rep, mod2=True)
            entry["lift_unique"] = relations.lift_is_unique(rep)
        doc_classes.append(entry)
        rows.append(
            (
                c.representative.weight,
                c.type_label,
                " ".join(f"{'-' if s < 0 else ''}{r}" for r, s in c.representative.entries),
            )
        )
    _emit(ns, {"max_weight": w, "count": len(classes), "classes": doc_classes}, rows)
    return EXIT_OK


def _cmd_madan_pal(ns: argparse.Namespace) -> int:
    n = ns.n
    payload = serialize.cache_get_or_compute(
        f"madan_pal_{n}",
        lambda: serialize.encode_record(madanpal.build_record(n)),
        serialize.cache_dir(ns.cache_dir),
    )
    _emit(ns, payload, [(n, payload["p_n"], payload["ordinary"])])
    return EXIT_OK


def _cmd_weil(ns: argparse.Namespace) -> int:
    ctx = _context_for_q(ns.q)
    # integer literals go through decimal, so a coefficient of any length parses
    poly = serialize.decode_poly(json.loads(Path(ns.poly).read_text(), parse_int=decimal_to_int))
    doc: dict = {"q": ctx.q, "poly": serialize.encode_poly(poly)}
    if ns.newton:
        doc["newton"] = serialize.encode_newton(newton_polygon(poly, ctx))
    if ns.ordinary:
        doc["ordinary"] = is_ordinary(poly, ctx)
    if ns.extend is not None:
        doc["extended"] = serialize.encode_poly(base_extension(poly, ns.extend))
    if ns.real_weil:
        doc["real_weil"] = is_real_weil(poly, ctx)
    _emit(ns, doc)
    return EXIT_OK


# --q is trial-divided up to this bound only, so a large q answers at once
Q_TRIAL_BOUND = 2 ** 20


def _context_for_q(q: int) -> WeilContext:
    """The field of q = p^a elements.  p is q's least prime factor, found by
    trial division up to Q_TRIAL_BOUND; a q up to Q_TRIAL_BOUND^2 with no
    factor there is prime, and a larger one is refused."""
    if q < 2:
        return WeilContext(q, 1)  # rejects it with a message
    p = least_prime_factor(q, Q_TRIAL_BOUND)
    if p == q and q > Q_TRIAL_BOUND ** 2:
        raise ValueError(f"q = {q} has no prime factor up to 2^20, and a q above 2^40 needs one")
    a = 0
    while q % p ** (a + 1) == 0:
        a += 1
    if p ** a != q:
        raise ValueError(f"q must be a prime power, got {q}")
    return WeilContext(p, a)


def _cmd_solve_g(ns: argparse.Namespace) -> int:
    a, c, lv = ns.max_order12, ns.max_order3, ns.max_level
    payload = serialize.cache_get_or_compute(
        f"solve_{a}_{c}_{lv}",
        lambda: [
            serialize.encode_triple(t)
            for t in solver.solve_bounded(a, c, lv, workers=ns.workers)
        ],
        serialize.cache_dir(ns.cache_dir),
    )
    triples = [serialize.decode_triple(v) for v in payload]
    patterns = solver.classify_solutions(triples)
    doc = {
        "bounds": [a, c, lv],
        "count": len(triples),
        "solutions": payload,
        "patterns": [serialize.encode_pattern(p) for p in patterns],
    }
    rows = [(t.eta1, t.eta2, t.eta3) for t in triples]
    _emit(ns, doc, rows)
    return EXIT_OK


def _cmd_verify_table2(ns: argparse.Namespace) -> int:
    result = solver.verify_table2(
        ns.max_order12, ns.max_order3, ns.max_level, workers=ns.workers
    )
    doc = {
        "sporadic_ok": result["sporadic_ok"],
        "parametric_ok": result["parametric_ok"],
        "patterns": [serialize.encode_pattern(p) for p in result["patterns"]],
        "solution_count": len(result["solutions"]),
        "note": (
            "the parametric locus is the symmetry orbit of (zeta, zeta, -zeta); "
            "the other printed one-parameter shape (zeta, zeta, 1) fails direct "
            "substitution and its role is played by the orbit member (zeta, 1/zeta, 1)"
        ),
    }
    _emit(ns, doc)
    return EXIT_OK if result["ok"] else EXIT_CLAIM_FAILED


def _cmd_decompose(ns: argparse.Namespace) -> int:
    reports = geometry.build_reports(ns.n)
    doc = {"n": ns.n, "reports": [serialize.encode_report(r) for r in reports]}
    rows = [
        (r.n, r.dimension, r.f_formula, r.f_oracle, r.stabilizing_m, r.geom_simple)
        for r in reports
    ]
    _emit(ns, doc, rows)
    return EXIT_OK if all(r.consistent for r in reports) else EXIT_CLAIM_FAILED


def _cmd_verify_theorem(ns: argparse.Namespace) -> int:
    max_n = ns.max_n
    if max_n < 1:
        raise ValueError("max-n must be positive")
    mismatches = []
    xor_failures = []
    for n in range(1, max_n + 1):
        for rep in geometry.build_reports(n):
            if not rep.consistent:
                mismatches.append(serialize.encode_report(rep))
        if not geometry.ordinary_xor_geom_simple(n):
            xor_failures.append(n)
    doc = {
        "max_n": max_n,
        "multiplicity_mismatches": mismatches,
        "ordinary_xor_geom_simple_failures": xor_failures,
    }
    pairs_ok = True
    if ns.pairs:
        bound = min(max_n, 30)
        got = sorted(sorted(p) for p in geometry.geometric_isogeny_pairs(bound))
        want = sorted(sorted(p) for p in geometry.EXPECTED_GEOM_PAIRS if max(p) <= bound)
        pairs_ok = got == want
        doc["geometric_pairs"] = got
        doc["geometric_pairs_ok"] = pairs_ok
    _emit(ns, doc)
    ok = not mismatches and not xor_failures and pairs_ok
    return EXIT_OK if ok else EXIT_CLAIM_FAILED


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    `main` call in the process; `parse_args` keeps no state between calls."""
    ap = argparse.ArgumentParser(
        prog="orderone",
        description="exact recomputation of the geometric decomposition of "
        "order-1 abelian varieties over F_2",
    )
    ap.add_argument("--format", choices=("json", "csv", "text"), default="json")
    ap.add_argument("--cache-dir", default=None)
    ap.add_argument("--workers", type=int, default=1)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("relations", help="indecomposable relation classes up to a weight bound")
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--mod2", action="store_true")
    p.set_defaults(handler=_cmd_relations)

    p = sub.add_parser("madan-pal", help="family record for one index")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_madan_pal)

    p = sub.add_parser("weil", help="Weil polynomial utilities")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--poly", required=True, help="JSON file with ascending coefficients")
    p.add_argument("--newton", action="store_true")
    p.add_argument("--ordinary", action="store_true")
    p.add_argument("--extend", type=int)
    p.add_argument("--real-weil", action="store_true")
    p.set_defaults(handler=_cmd_weil)

    p = sub.add_parser("solve-g", help="bounded root-of-unity solution search")
    p.add_argument("--max-order12", type=int, required=True)
    p.add_argument("--max-order3", type=int, required=True)
    p.add_argument("--max-level", type=int, required=True)
    p.set_defaults(handler=_cmd_solve_g)

    p = sub.add_parser("verify-table2", help="recompute the sporadic order patterns")
    p.add_argument("--max-order12", type=int, default=32)
    p.add_argument("--max-order3", type=int, default=32)
    p.add_argument("--max-level", type=int, default=120)
    p.set_defaults(handler=_cmd_verify_table2)

    p = sub.add_parser("decompose", help="geometric multiplicity report for one index")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("verify-theorem", help="reconcile formula and oracle for all n")
    p.add_argument("--max-n", type=int, default=32)
    p.add_argument("--pairs", action="store_true", help="also verify the geometric isogeny pairs")
    p.set_defaults(handler=_cmd_verify_theorem)

    return ap


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        if ns.workers < 1:
            raise ValueError("workers must be positive")
        if ns.format == "csv" and ns.command not in CSV_FORM:
            raise ValueError(f"{ns.command} has no CSV form; use --format json or text")
        return ns.handler(ns)
    except relations.CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
