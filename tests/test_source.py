import argparse
import ast
import re
import subprocess
import sys
from pathlib import Path

import orderone
from orderone import cli

REPO = Path(__file__).resolve().parent.parent


def test_library_has_no_assert_statements():
    """Result checks must raise; `python -O` strips assert statements."""
    found = []
    for path in sorted(Path(orderone.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_benchmark_tracer_installs():
    """Every function the benchmark tracer wraps still exists and still has an
    import site, so a refactor that drops one fails here, not in the benchmark."""
    code = 'import sys; sys.path[:0] = ["perfbench", "src"]; import tracer; tracer.install(tracer.Tracer())'
    res = subprocess.run([sys.executable, "-c", code], cwd=REPO, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_geometry_defines_no_dense_power_sum_table():
    """The profile and the pair screen read power sums mod p through the sparse
    reader alone; the dense table is the tests' oracle, not a second library route."""
    tree = ast.parse((Path(orderone.__file__).parent / "geometry.py").read_text())
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    assert "_power_sums_at" in defined
    assert defined.isdisjoint({"_power_sum_table", "_BLOCK"})


def _options(parser: argparse.ArgumentParser) -> set[str]:
    return {o for a in parser._actions for o in a.option_strings if o not in ("-h", "--help")}


def test_readme_command_line_names_every_option():
    """README's "Command line" usage line lists exactly the global options, and
    its table has one row per subcommand listing exactly that subcommand's options."""
    text = (REPO / "README.md").read_text()
    section = text.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    usage = section.split("```\n", 2)[1]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cell = re.split(r"(?<!\\)\|", line)[1].strip().strip("`")
            rows[cell.split()[0]] = set(re.findall(r"--[a-z0-9-]+", cell))

    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(re.findall(r"--[a-z0-9-]+", usage)) == _options(parser)
    assert rows == {name: _options(p) for name, p in sub.choices.items()}


def test_one_pseudo_remainder_chain():
    """The Sturm chain is the library's one PRS: radical reads its gcd off it,
    is_real_weil counts roots on it, and no second gcd loop or interval counter
    is defined beside it."""
    defined, prem_callers = set(), []
    for path in sorted(Path(orderone.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.FunctionDef):
                continue
            defined.add(node.name)
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                if "prem" in (getattr(call.func, "id", None), getattr(call.func, "attr", None)):
                    prem_callers.append(f"{path.name}:{node.name}")
    assert "poly_gcd" not in defined
    assert not {name for name in defined if name.startswith("count_real_roots_")}
    assert prem_callers == ["intpoly.py:sturm_sequence"]


def test_oracle_reads_the_weil_polynomial_as_it_is():
    """The oracle and the pair test read each factor's Weil polynomial itself:
    geometry takes no squarefree part of it and threads no exponent through
    the oracle."""
    tree = ast.parse((Path(orderone.__file__).parent / "geometry.py").read_text())
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_squarefree_weil" not in functions
    args = functions["f_oracle"].args
    params = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]
    assert params == ["weil", "m_set"] and args.vararg is None and args.kwarg is None


def test_every_codec_has_a_library_caller():
    """Each encode_*/decode_* in serialize.py is called from src/orderone/ or
    scripts/, outside its own body, so codecs only the tests call do not grow back."""
    codecs = {
        node.name
        for node in ast.parse((Path(orderone.__file__).parent / "serialize.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith(("encode_", "decode_"))
    }
    called = set()
    paths = [*Path(orderone.__file__).parent.glob("*.py"), *(REPO / "scripts").glob("*.py")]
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        own = {id(n): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) for n in ast.walk(f)}
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                if name in codecs and own.get(id(call)) != name:
                    called.add(name)
    assert "encode_poly" in codecs and "decode_triple" in codecs
    assert sorted(codecs - called) == []


def _functions(module: str) -> dict[str, ast.AST]:
    """Every function and method of src/orderone/<module>.py, by name."""
    tree = ast.parse((Path(orderone.__file__).parent / f"{module}.py").read_text())
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_one_input_check_for_the_relation_searches():
    """The public relation searches check their input through one entry, so
    _vanishes has exactly one caller, and the distinct orderings of a size
    tuple come from itertools, not from a relations helper."""
    functions = _functions("relations")
    callers = [
        name
        for name, node in functions.items()
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_vanishes"
    ]
    assert len(callers) == 1, callers
    assert "_orderings" not in functions


def test_one_implementation_per_exact_step():
    """f_oracle scans the primes, then m, once; the solver's signed-monomial
    action is _image alone; intpoly divides out content only through
    IntPoly.primitive; Relation.canonical and Relation.level share one
    rotation walk."""
    oracle = _functions("geometry")["f_oracle"]
    loops = [node for node in ast.walk(oracle) if isinstance(node, ast.For)]
    assert [ast.unparse(loop.iter) for loop in loops] == ["PROFILE_PRIMES", "m_set"]
    assert "_image" in _functions("solver")
    assert {"_act", "_family_point"}.isdisjoint(_functions("solver"))
    assert "_strip_content" not in _functions("intpoly")
    relation = _functions("relations")
    for name in ("canonical", "level"):
        called = {getattr(call.func, "attr", None) for call in ast.walk(relation[name]) if isinstance(call, ast.Call)}
        assert "rotate" not in called, name


def test_one_recurrence_per_intpoly_idea():
    """prem is the one long division's remainder of a scaled a, with no loop
    of its own; power_sums runs Newton's identity in one loop with no branch
    (the monic check before it stays); IntPoly.__mul__ takes an int through
    _coerce like any constant; cli._context_for_q trial-divides only through
    arith.least_prime_factor."""
    functions = _functions("intpoly")
    assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(functions["prem"]))
    loops = [node for node in ast.walk(functions["power_sums"]) if isinstance(node, ast.For)]
    assert len(loops) == 2
    assert not any(isinstance(node, ast.If) for node in ast.walk(loops[0]))
    called = {getattr(call.func, "id", None) for call in ast.walk(functions["__mul__"]) if isinstance(call, ast.Call)}
    assert "isinstance" not in called
    context = _functions("cli")["_context_for_q"]
    called = {getattr(call.func, "id", None) for call in ast.walk(context) if isinstance(call, ast.Call)}
    assert "least_prime_factor" in called
    assert not any(isinstance(node, ast.GeneratorExp) for node in ast.walk(context))
