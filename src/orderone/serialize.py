"""JSON forms the CLI prints and the cache stores, and checksummed result caching.

Each domain type the CLI prints has an encoder; a decoder exists only where a
cached payload or an input file is read back: polynomials, relation classes
and solution triples.  Integer magnitudes beyond 64 bits are emitted as
decimal strings, exact at any size, so the files stay consumable from
languages without big integers; both forms are accepted on input.

Cached payloads carry a schema number, an algorithm version and a content
checksum, and corrupt or stale entries (unreadable, not a JSON object, or
failing any of the three checks) are silently recomputed.

ALGORITHM_VERSION is bumped on purpose whenever an algorithm on a result
path changes what it outputs, so entries made by the older code are
recomputed instead of served.  A change whose outputs stay byte-identical
keeps the version.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

from .geometry import DecompositionReport
from .intpoly import IntPoly, decimal_to_int, int_to_decimal
from .madanpal import MadanPalRecord
from .relations import Relation, RelationClass
from .roots import RootOfUnity
from .solver import SolutionPattern, SolutionTriple
from .weil import NewtonPolygon

SCHEMA = 1
ALGORITHM_VERSION = 1
_I64 = 2 ** 63


def _enc_int(c: int):
    return c if -_I64 < c < _I64 else int_to_decimal(c)


def _dec_int(v) -> int:
    """An int (not a bool) or a decimal string, as _enc_int writes them."""
    if type(v) is int:
        return v
    if isinstance(v, str) and re.fullmatch(r"-?[0-9]+", v):
        return decimal_to_int(v)
    raise ValueError(f"expected an integer or a decimal string, got {v!r}")


def encode_poly(p: IntPoly) -> list:
    return [_enc_int(c) for c in p.coeffs]


def decode_poly(v) -> IntPoly:
    if not isinstance(v, list):
        raise ValueError(f"expected a list of coefficients, got {v!r}")
    return IntPoly([_dec_int(c) for c in v])


def encode_relation(r: Relation) -> dict:
    return {"entries": [{"root": str(root), "sign": sign} for root, sign in r.entries]}


def decode_relation(v: dict) -> Relation:
    return Relation.make(
        [(RootOfUnity.parse(e["root"]), e["sign"]) for e in v["entries"]]
    )


def encode_relation_class(c: RelationClass) -> dict:
    return {
        "representative": encode_relation(c.representative),
        "type_label": c.type_label,
    }


def decode_relation_class(v: dict) -> RelationClass:
    return RelationClass(decode_relation(v["representative"]), v["type_label"])


def encode_newton(np_: NewtonPolygon) -> list:
    return [[f"{s.numerator}/{s.denominator}", m] for s, m in np_.segments]


def encode_record(rec: MadanPalRecord) -> dict:
    return {
        "n": rec.n,
        "p_n": encode_poly(rec.p_n),
        "real_weil": encode_poly(rec.real_weil),
        "weil": encode_poly(rec.weil),
        "simple_factors": [encode_poly(f) for f in rec.simple_factors],
        "newton": encode_newton(rec.newton),
        "ordinary": rec.ordinary,
    }


def encode_triple(t: SolutionTriple) -> list:
    return [str(t.eta1), str(t.eta2), str(t.eta3)]


def decode_triple(v) -> SolutionTriple:
    return SolutionTriple(*(RootOfUnity.parse(s) for s in v))


def encode_pattern(p: SolutionPattern) -> dict:
    return {
        "order1": p.order1,
        "order2": p.order2,
        "orders3": list(p.orders3),
        "kind": p.kind,
    }


def encode_report(r: DecompositionReport) -> dict:
    return {
        "n": r.n,
        "simple_factor": encode_poly(r.simple_factor),
        "weil": encode_poly(r.weil),
        "dimension": r.dimension,
        "ordinary": r.ordinary,
        "f_formula": r.f_formula,
        "f_oracle": r.f_oracle,
        "stabilizing_m": r.stabilizing_m,
        "geom_simple": r.geom_simple,
    }


# -- caching ---------------------------------------------------------------------

CACHE_ENV = "ORDERONE_CACHE_DIR"


def cache_dir(override: str | None = None) -> Path:
    if override:
        return Path(override)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path(".orderone-cache")


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cache_get_or_compute(key: str, compute, directory: Path):
    """Load payload from <directory>/<key>.json if intact and made by this
    ALGORITHM_VERSION, else compute and store.

    The entry is written to a temporary file beside it and renamed into place,
    so a reader sees either no entry or a whole one; if the write fails, the
    temporary file is deleted."""
    path = directory / f"{key}.json"
    if path.exists():
        try:
            doc = json.loads(path.read_text())
            if not isinstance(doc, dict):
                raise ValueError("cache entry is not a JSON object")
            body = doc.get("payload")
            if (
                doc.get("schema") == SCHEMA
                and doc.get("algorithm_version") == ALGORITHM_VERSION
                and doc.get("sha256") == hashlib.sha256(_canonical(body).encode()).hexdigest()
            ):
                return body
        except (ValueError, KeyError):
            pass  # corrupt cache entry: fall through and recompute
    body = compute()
    directory.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": SCHEMA,
        "algorithm_version": ALGORITHM_VERSION,
        "sha256": hashlib.sha256(_canonical(body).encode()).hexdigest(),
        "payload": body,
    }
    fd, name = tempfile.mkstemp(prefix=f".{key}.", suffix=".tmp", dir=directory)
    os.close(fd)
    tmp = Path(name)
    try:
        # no indent: CPython's C encoder runs only without one
        tmp.write_text(json.dumps(doc, sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return body
