import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from orderone import cli, geometry, serialize, solver
from orderone.intpoly import IntPoly, decimal_to_int
from orderone.relations import Relation, enumerate_indecomposable
from orderone.roots import RootOfUnity
from orderone.solver import SolutionPattern, SolutionTriple, solve_bounded
from orderone.weil import base_extension

r = RootOfUnity.make


def test_poly_roundtrip_with_big_coefficients():
    big = 10 ** 70
    p = IntPoly([1, -big, 3, big])
    doc = serialize.encode_poly(p)
    assert isinstance(doc[0], int) and isinstance(doc[1], str)
    assert serialize.decode_poly(doc) == p
    assert serialize.decode_poly(json.loads(json.dumps(doc))) == p
    # past Python's default int-to-str limit of 4300 digits
    huge = IntPoly([-(10 ** 5000), 7, 10 ** 5000 + 1])
    doc = serialize.encode_poly(huge)
    assert doc[2] == "1" + "0" * 4999 + "1"
    assert serialize.decode_poly(json.loads(json.dumps(doc))) == huge


def test_relation_roundtrip():
    rel = Relation.make([(r(1, 5), 1), (r(1, 3), -1), (r(0, 1), 1)])
    doc = serialize.encode_relation(rel)
    assert serialize.decode_relation(doc) == rel
    cls = enumerate_indecomposable(5)[-1]
    assert serialize.decode_relation_class(serialize.encode_relation_class(cls)) == cls


def test_triple_and_pattern_roundtrip():
    t = SolutionTriple(r(1, 5), r(4, 5), r(0, 1))
    assert serialize.decode_triple(serialize.encode_triple(t)) == t
    p = SolutionPattern(3, 30, (10, 15, 30), "sporadic")
    assert serialize.encode_pattern(p) == {
        "order1": 3,
        "order2": 30,
        "orders3": [10, 15, 30],
        "kind": "sporadic",
    }


def test_solution_set_roundtrip():
    sols = solve_bounded(4, 4, 12)
    docs = [serialize.encode_triple(t) for t in sols]
    back = [serialize.decode_triple(d) for d in json.loads(json.dumps(docs))]
    assert back == sols


def test_cache_detects_corruption(tmp_path):
    calls = []

    def compute():
        calls.append(1)
        return {"x": 1}

    v1 = serialize.cache_get_or_compute("k", compute, tmp_path)
    v2 = serialize.cache_get_or_compute("k", compute, tmp_path)
    assert v1 == v2 == {"x": 1}
    assert len(calls) == 1
    path = tmp_path / "k.json"
    doc = json.loads(path.read_text())
    doc["payload"]["x"] = 2  # corrupt without updating the checksum
    path.write_text(json.dumps(doc))
    v3 = serialize.cache_get_or_compute("k", compute, tmp_path)
    assert v3 == {"x": 1}
    assert len(calls) == 2


CORRUPT_ENTRIES = {
    "truncated": lambda text: text[: len(text) // 2],
    "garbage": lambda text: "\udcff\x00not json",
    "list": lambda text: "[]",
    "null": lambda text: "null",
    "number": lambda text: "1",
    "string": lambda text: '"x"',
    "checksum": lambda text: text.replace('"sha256": "', '"sha256": "0'),
    "schema": lambda text: text.replace('"schema": 1', '"schema": 2'),
    "stale version": lambda text: text.replace('"algorithm_version": 1', '"algorithm_version": 0'),
    "no version": lambda text: json.dumps(
        {k: v for k, v in json.loads(text).items() if k != "algorithm_version"}
    ),
}


@pytest.mark.parametrize("corrupt", sorted(CORRUPT_ENTRIES))
def test_cache_recomputes_a_corrupt_entry_once(tmp_path, corrupt):
    """A damaged entry is recomputed exactly once and then served as a hit."""
    calls = []

    def compute():
        calls.append(1)
        return {"x": [1, 2, 3]}

    serialize.cache_get_or_compute("k", compute, tmp_path)
    path = tmp_path / "k.json"
    text = path.read_text()
    damaged = CORRUPT_ENTRIES[corrupt](text)
    assert damaged != text
    path.write_bytes(damaged.encode("utf-8", "surrogateescape"))
    for _ in range(2):
        assert serialize.cache_get_or_compute("k", compute, tmp_path) == {"x": [1, 2, 3]}
        assert len(calls) == 2


def test_cache_write_failing_partway_leaves_no_entry(tmp_path, monkeypatch):
    calls = []

    def compute():
        calls.append(1)
        return {"x": list(range(100))}

    write_text = Path.write_text

    def torn_write(self, data, *args, **kwargs):
        write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_text", torn_write)
    with pytest.raises(OSError, match="no space left"):
        serialize.cache_get_or_compute("k", compute, tmp_path)
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []
    assert serialize.cache_get_or_compute("k", compute, tmp_path) == {"x": list(range(100))}
    assert len(calls) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["k.json"]
    assert serialize.cache_get_or_compute("k", compute, tmp_path) == {"x": list(range(100))}
    assert len(calls) == 2


@pytest.mark.parametrize(
    "args, sha256",
    [
        (
            ["solve-g", "--max-order12", "32", "--max-order3", "32", "--max-level", "120"],
            "3f145f1bf09174c8a19788a7eb40e89a1d9a12a2f73870022d79c3a4fff1b6ed",
        ),
        (["verify-table2"], "3a8ea9b4f640451688c835b0abfbf0fcec43894a103abecdffd9d87068ee616b"),
        (
            ["solve-g", "--max-order12", "64", "--max-order3", "64", "--max-level", "840"],
            "7569a107812fc60f8ac895657e91d4d8013af5419cca2ca0770184ebc553bd5d",
        ),
    ],
)
def test_cli_solver_stdout_is_pinned(tmp_path, args, sha256):
    """Byte-for-byte stdout of the solver subcommands at the paper's bounds
    and on a box whose eta3-order sets stack more rows than one prefilter
    chunk holds, on a fresh cache and again from the cache."""
    for _ in range(2):
        res = subprocess.run(
            [sys.executable, "-m", "orderone", "--cache-dir", str(tmp_path), *args],
            capture_output=True,
        )
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout).hexdigest() == sha256


def main_in_process(args, cache):
    """(exit status, stdout, stderr) of one `cli.main` call in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(["--cache-dir", str(cache), *args])
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def test_cli_verify_table2_past_the_known_finding_is_pinned(tmp_path):
    """Byte-for-byte stdout of `verify-table2 --max-order3 42`: the (6, 7)
    pattern gains eta3 order 42, so the claim fails with exit status 1."""
    status, out, _ = main_in_process(["verify-table2", "--max-order3", "42"], tmp_path)
    assert status == 1
    doc = json.loads(out)
    assert (doc["sporadic_ok"], doc["parametric_ok"]) == (False, True)
    assert {"order1": 6, "order2": 7, "orders3": [21, 42], "kind": "sporadic"} in doc["patterns"]
    assert hashlib.sha256(out.encode()).hexdigest() == "c095cff9c3841e6fba88fca72553115240a7208a5373ed26d7307dd15f97084d"


def test_cli_madan_pal_stdout_is_pinned(tmp_path):
    """Byte-for-byte stdout of `madan-pal --n K` for K = 1..128, concatenated,
    on a fresh cache and again from the cache."""
    for _ in range(2):
        digest = hashlib.sha256()
        for k in range(1, 129):
            status, out, _ = main_in_process(["madan-pal", "--n", str(k)], tmp_path)
            assert status == 0
            digest.update(out.encode())
        assert digest.hexdigest() == "4a13d3befcd24692e6d9606a14c98064d305fb63468c140569071e03da1043a4"


def test_cli_decompose_stdout_is_pinned(tmp_path):
    """Byte-for-byte stdout of `decompose --n K` for K = 1..32, concatenated."""
    digest = hashlib.sha256()
    for k in range(1, 33):
        status, out, _ = main_in_process(["decompose", "--n", str(k)], tmp_path)
        assert status == 0
        digest.update(out.encode())
    assert digest.hexdigest() == "5db8120b6b077d63366c0f5eced6856864a618706e83ca52c3d48152dd2d4be6"


def test_cli_weil_extend_past_the_int_to_str_digit_limit(tmp_path):
    """A base extension whose coefficients run past Python's default
    int-to-str limit (4300 digits) prints its JSON, and its repr works."""
    poly = tmp_path / "p.json"
    poly.write_text("[2, -2, 1]")
    status, out, err = main_in_process(["weil", "--poly", str(poly), "--extend", "30000"], tmp_path)
    assert (status, err) == (0, "")
    ext = serialize.decode_poly(json.loads(out)["extended"])
    assert ext == base_extension(IntPoly([2, -2, 1]), 30000)
    assert ext[0] == 2 ** 30000  # 9031 decimal digits
    text = repr(ext)
    assert text.startswith("IntPoly('x^2 - ") and len(text) > 9031


def test_cli_parser_reuse_leaks_no_state(tmp_path):
    """Requests in one process, sharing one parser and one cache, print what
    each prints alone in a fresh process, usage errors included."""
    calls = [
        ["relations", "--max-weight", "3", "--mod2"],
        ["relations", "--max-weight", "3"],
        ["--format", "csv", "madan-pal", "--n", "7"],
        ["madan-pal", "--n", "7"],
        ["--format", "text", "madan-pal"],
        ["--format", "json", "madan-pal", "--n", "5"],
        ["relations", "--max-weight", "three"],
        ["--format", "text", "relations", "--max-weight", "2"],
    ]
    for i, args in enumerate(calls):
        fresh = run_cli(args, tmp_path / f"fresh{i}")
        assert main_in_process(args, tmp_path / "shared") == (
            fresh.returncode,
            fresh.stdout,
            fresh.stderr,
        )


def run_cli(args, tmp_path):
    return subprocess.run(
        [sys.executable, "-m", "orderone", "--cache-dir", str(tmp_path), *args],
        capture_output=True,
        text=True,
    )


def test_cli_relations(tmp_path):
    res = run_cli(["relations", "--max-weight", "8"], tmp_path)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["count"] == 10


def test_cli_decompose(tmp_path):
    res = run_cli(["decompose", "--n", "7"], tmp_path)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert all(rep["f_formula"] == rep["f_oracle"] == 3 for rep in doc["reports"])


@pytest.mark.parametrize("max_n", ["0", "-1", "-30"])
@pytest.mark.parametrize("pairs", [[], ["--pairs"]])
def test_cli_verify_theorem_rejects_a_non_positive_bound(tmp_path, max_n, pairs):
    """A bound that checks nothing is a usage error, not a success."""
    status, out, err = main_in_process(["verify-theorem", "--max-n", max_n, *pairs], tmp_path)
    assert (status, out) == (2, "")
    assert err == "error: max-n must be positive\n"


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("command", ["verify-table2", "solve-g"])
def test_cli_rejects_a_non_positive_worker_count(tmp_path, workers, command):
    """A worker count below 1 is a usage error, not a run on one worker."""
    bounds = ["--max-order12", "6", "--max-order3", "6", "--max-level", "24"]
    status, out, err = main_in_process(["--workers", workers, command, *bounds], tmp_path)
    assert (status, out, err) == (2, "", "error: workers must be positive\n")


def test_cli_verify_theorem_pairs_stdout_is_pinned(tmp_path):
    status, out, _ = main_in_process(["verify-theorem", "--max-n", "32", "--pairs"], tmp_path)
    assert status == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "58c5aae4086d5eb5106e5180d86136a707169b1a42b90be0f4c62dd526ce1199"


def test_cli_verify_theorem_pairs_below_30(tmp_path):
    """Below n = 30 the listed pairs are checked against the paper's pairs
    with both indices in range."""
    status, out, _ = main_in_process(["verify-theorem", "--max-n", "10", "--pairs"], tmp_path)
    doc = json.loads(out)
    assert status == 0 and doc["geometric_pairs_ok"] is True
    assert doc["geometric_pairs"] == [[1, 2], [1, 4], [2, 4], [6, 7], [7]]


def test_cli_usage_error(tmp_path):
    res = run_cli(["relations", "--max-weight", "9"], tmp_path)
    assert res.returncode == 2
    res = run_cli(["bogus-subcommand"], tmp_path)
    assert res.returncode == 2


WEIGHT_OUT_OF_RANGE = {
    0: "error: max_weight must be in 1..8, got 0\n",
    9: "capacity error: enumeration is supported for max_weight 1..8, got 9\n",
}


@pytest.mark.parametrize("w", sorted(WEIGHT_OUT_OF_RANGE))
def test_cli_relations_weight_out_of_range(tmp_path, w):
    """A weight bound outside 1..8 exits 2 with an error line naming the range and the value."""
    res = run_cli(["relations", "--max-weight", str(w)], tmp_path)
    assert (res.returncode, res.stdout, res.stderr) == (2, "", WEIGHT_OUT_OF_RANGE[w])


def test_cli_weil(tmp_path):
    poly = tmp_path / "p.json"
    poly.write_text("[2,-2,1]")
    res = run_cli(["weil", "--q", "2", "--poly", str(poly), "--newton", "--extend", "2"], tmp_path)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["extended"] == [4, 0, 1]
    assert doc["newton"] == [["1/2", 2]]


@pytest.mark.parametrize("degree", ["0", "-3"])
def test_cli_weil_rejects_a_non_positive_extension_degree(tmp_path, degree):
    """--extend 0 is a usage error like any other non-positive degree, not a
    request that silently leaves out the extension."""
    poly = tmp_path / "p.json"
    poly.write_text("[2, -2, 1]")
    status, out, err = main_in_process(["weil", "--poly", str(poly), "--extend", degree], tmp_path)
    assert (status, out, err) == (2, "", "error: extension degree must be positive\n")


def test_cli_weil_reads_a_long_integer_literal(tmp_path):
    """A --poly coefficient past Python's default int-to-str limit (4300
    digits) reads the same as a JSON integer literal and as a decimal
    string, and its output prints."""
    ones = "1" * 5000
    outs = []
    for i, text in enumerate([f"[1, {ones}, 1]", f'[1, "{ones}", 1]']):
        poly = tmp_path / f"p{i}.json"
        poly.write_text(text)
        status, out, err = main_in_process(["weil", "--poly", str(poly), "--ordinary"], tmp_path)
        assert (status, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    assert serialize.decode_poly(json.loads(outs[0])["poly"]) == IntPoly([1, decimal_to_int(ones), 1])


@pytest.mark.parametrize("text", ["5", "null", "[[1], 1]", "[1.5, 1]", "[true, 1]"])
def test_cli_weil_rejects_a_malformed_poly(tmp_path, text):
    """A poly file that is not a list of integers or decimal strings is a
    usage error naming the bad value, not a traceback or a silent cast."""
    poly = tmp_path / "p.json"
    poly.write_text(text)
    res = run_cli(["weil", "--poly", str(poly), "--newton"], tmp_path)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.startswith("error: expected ") and res.stderr.count("\n") == 1


NOT_A_CONTEXT = "error: need a prime p and exponent a >= 1\n"


@pytest.mark.parametrize(
    "q, status, stderr",
    [(-4, 2, NOT_A_CONTEXT), (0, 2, NOT_A_CONTEXT), (1, 2, NOT_A_CONTEXT)]
    + [(q, 2, f"error: q must be a prime power, got {q}\n") for q in (6, 12)]
    + [(q, 0, "") for q in (2, 4, 8, 9)]
    + [(q, 2, f"error: q = {q} has no prime factor up to 2^20, and a q above 2^40 needs one\n")
       for q in (2 ** 61 - 1, (2 ** 31 - 1) ** 2)]
    + [(2 ** 100, 0, "")],
)
def test_cli_weil_field_size(tmp_path, q, status, stderr):
    """q must be a prime power: every other q exits 2 with an error line
    naming the cause.  Trial division stops at 2^20, so a large prime or
    prime power answers within a second."""
    poly = tmp_path / "p.json"
    poly.write_text("[2,-2,1]")
    args = ["weil", "--q", str(q), "--poly", str(poly), "--newton"]
    res = run_cli(args, tmp_path)
    assert (res.returncode, res.stderr) == (status, stderr)
    if status == 0:
        assert json.loads(res.stdout)["q"] == q
    start = time.perf_counter()
    assert main_in_process(args, tmp_path)[0] == status
    assert time.perf_counter() - start < 1


def test_cli_deterministic_output_across_workers(tmp_path):
    a = run_cli(
        ["--workers", "1", "solve-g", "--max-order12", "6", "--max-order3", "6", "--max-level", "24"],
        tmp_path / "c1",
    )
    b = run_cli(
        ["--workers", "2", "solve-g", "--max-order12", "6", "--max-order3", "6", "--max-level", "24"],
        tmp_path / "c2",
    )
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_cli_solve_csv(tmp_path):
    res = run_cli(
        ["--format", "csv", "solve-g", "--max-order12", "2", "--max-order3", "4", "--max-level", "8"],
        tmp_path,
    )
    assert res.returncode == 0
    rows = [line.split(",") for line in res.stdout.strip().splitlines()]
    assert ["1/2", "1/2", "1/4"] in rows


SOLVE_SMALL = ["solve-g", "--max-order12", "6", "--max-order3", "6", "--max-level", "24"]


@pytest.mark.parametrize(
    "args, sha256_prefix",
    [
        (["--format", "csv", *SOLVE_SMALL], "5e9cda8fe0798d1d"),
        (SOLVE_SMALL, "f90dc95f1fd998cb"),
        (["madan-pal", "--n", "30"], "edcba7a441e14d62"),
        (["--format", "csv", "madan-pal", "--n", "30"], "2da84571535933b6"),
    ],
)
def test_cli_format_is_the_output_switch(tmp_path, args, sha256_prefix):
    """`--format` alone picks the output: these print, byte for byte, what the
    subcommands' own `--csv` and `--json` flags printed before they were removed."""
    status, out, _ = main_in_process(args, tmp_path)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == sha256_prefix


@pytest.mark.parametrize(
    "args",
    [
        ["madan-pal", "--n", "30", "--json"],
        [*SOLVE_SMALL, "--json"],
        [*SOLVE_SMALL, "--csv"],
    ],
)
def test_cli_subcommand_format_flags_are_gone(tmp_path, args):
    status, out, err = main_in_process(args, tmp_path)
    assert (status, out) == (2, "")
    assert "unrecognized arguments" in err


def test_cli_csv_without_a_table_is_a_usage_error(tmp_path):
    """A subcommand with no CSV form exits 2 under `--format csv`, prints
    nothing and names itself on stderr."""
    poly = tmp_path / "p.json"
    poly.write_text("[2,-2,1]")
    for args in (
        ["weil", "--poly", str(poly), "--newton"],
        ["verify-table2", "--max-order12", "2", "--max-order3", "2", "--max-level", "4"],
        ["verify-theorem", "--max-n", "2"],
    ):
        status, out, err = main_in_process(["--format", "csv", *args], tmp_path)
        assert (status, out) == (2, "")
        assert err == f"error: {args[0]} has no CSV form; use --format json or text\n"


def test_cli_csv_usage_error_comes_before_any_work(tmp_path, monkeypatch):
    """`--format csv` on a subcommand with no CSV form is rejected before its
    handler runs: with the handlers' work patched to raise, and a `--poly`
    file that does not exist, the usage error is still the only output."""

    def no_work(*args, **kwargs):
        raise AssertionError("the handler ran")

    monkeypatch.setattr(geometry, "build_reports", no_work)
    monkeypatch.setattr(solver, "verify_table2", no_work)
    for args in (
        ["weil", "--poly", str(tmp_path / "missing.json"), "--newton"],
        ["verify-table2"],
        ["verify-theorem", "--max-n", "40", "--pairs"],
    ):
        status, out, err = main_in_process(["--format", "csv", *args], tmp_path)
        assert (status, out) == (2, "")
        assert err == f"error: {args[0]} has no CSV form; use --format json or text\n"


def test_cli_verify_table2_small_bounds_fail(tmp_path):
    # tiny bounds cannot reproduce the full sporadic table: claim-failure exit
    res = run_cli(
        ["verify-table2", "--max-order12", "2", "--max-order3", "2", "--max-level", "4"],
        tmp_path,
    )
    assert res.returncode == 1


def test_cli_verify_table2_default_bounds(tmp_path):
    res = run_cli(["verify-table2"], tmp_path)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["sporadic_ok"] and doc["parametric_ok"]
    sporadic = [p for p in doc["patterns"] if p["kind"] == "sporadic"]
    assert len(sporadic) == 9
